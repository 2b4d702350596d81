"""Table renderers: print each experiment in the paper's row format,
side by side with the published numbers."""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Tuple

from repro.harness import paper
from repro.harness.experiment import ExperimentResult


def _rule(width: int = 78) -> str:
    return "-" * width


def render_table1(measured: Mapping[str, int], total: int) -> str:
    """Table 1: dynamic instruction count reductions."""
    lines = ["Table 1: Dynamic Instruction Count Reductions (TCP/IP path)",
             _rule(),
             f"{'Technique':52s} {'measured':>10s} {'paper':>8s}"]
    for flag, label in paper.TABLE1_LABELS.items():
        lines.append(
            f"{label + ':':52s} {measured.get(flag, 0):>10d} "
            f"{paper.TABLE1_SAVINGS[flag]:>8d}"
        )
    lines.append(_rule())
    lines.append(f"{'Total:':52s} {total:>10d} {paper.TABLE1_TOTAL:>8d}")
    return "\n".join(lines)


def render_table2(measured: Mapping[str, Mapping[str, float]]) -> str:
    """Table 2: original vs improved x-kernel TCP/IP."""
    lines = ["Table 2: Original vs Improved x-kernel TCP/IP",
             _rule(),
             f"{'':34s} {'Original':>18s} {'Improved':>18s}"]
    rows = [
        ("Roundtrip latency [us]", "rtt_us", "%.1f"),
        ("Instructions executed", "instructions", "%.0f"),
        ("Processing time [cycles]", "cycles", "%.0f"),
        ("CPI", "cpi", "%.2f"),
    ]
    for label, key, fmt in rows:
        mo = fmt % measured["original"][key]
        mi = fmt % measured["improved"][key]
        po = fmt % paper.TABLE2["original"][key]
        pi = fmt % paper.TABLE2["improved"][key]
        lines.append(f"{label + ':':34s} {mo:>8s} ({po:>8s}) {mi:>8s} ({pi:>8s})")
    lines.append("(parenthesised values are the paper's)")
    return "\n".join(lines)


def render_table3(measured: Mapping[str, Optional[int]]) -> str:
    """Table 3: TCP/IP implementation comparison."""
    lines = ["Table 3: Comparison of TCP/IP Implementations "
             "(instructions executed)",
             _rule(),
             f"{'':26s} {'80386':>8s} {'DEC Unix':>10s} "
             f"{'x-kernel (paper)':>18s} {'x-kernel (ours)':>16s}"]
    labels = {
        "ipintr": "in ipintr",
        "tcp_input": "in tcp_input",
        "ip_to_tcp": "IP input -> TCP input",
        "tcp_to_user": "TCP input -> user",
    }
    def fmt(v):
        return "-" if v is None else str(v)

    for key, label in labels.items():
        i386, dec, xk = paper.TABLE3[key]
        ours = measured.get(key)
        lines.append(
            f"{label + ':':26s} {fmt(i386):>8s} {fmt(dec):>10s} "
            f"{fmt(xk):>18s} {fmt(ours):>16s}"
        )
    return "\n".join(lines)


def render_table4(
    results: Mapping[str, ExperimentResult],
    stack: str,
) -> str:
    """Table 4: end-to-end roundtrip latency."""
    reference = paper.TABLE4_TCPIP if stack == "tcpip" else paper.TABLE4_RPC
    best = min(results.values(), key=lambda r: r.mean_rtt_us).mean_rtt_us
    lines = [f"Table 4: End-to-end Roundtrip Latency ({stack})",
             _rule(),
             f"{'Version':8s} {'Te [us]':>16s} {'D%':>7s} "
             f"{'paper Te':>12s} {'paper D%':>9s}"]
    paper_best = min(v[0] for v in reference.values())
    ordered = sorted(results.items(), key=lambda kv: -kv[1].mean_rtt_us)
    for config, result in ordered:
        mean, sd = result.mean_rtt_us, result.stdev_rtt_us
        delta = 100.0 * (mean - best) / best
        pmean, psd = reference[config]
        pdelta = 100.0 * (pmean - paper_best) / paper_best
        lines.append(
            f"{config:8s} {mean:9.1f}+-{sd:4.2f} {delta:+6.1f} "
            f"{pmean:8.1f}+-{psd:4.2f} {pdelta:+8.1f}"
        )
    return "\n".join(lines)


def render_table5(results: Mapping[str, ExperimentResult], stack: str) -> str:
    """Table 5: latency adjusted for the network controller."""
    from repro.harness.latency import LatencyModel

    reference = paper.TABLE5_TCPIP if stack == "tcpip" else paper.TABLE5_RPC
    adj = {c: LatencyModel.adjusted_us(r.mean_rtt_us)
           for c, r in results.items()}
    best = min(adj.values())
    paper_best = min(reference.values())
    lines = [f"Table 5: Controller-adjusted Roundtrip Latency ({stack})",
             _rule(),
             f"{'Version':8s} {'Te [us]':>9s} {'D%':>7s} "
             f"{'paper Te':>10s} {'paper D%':>9s}"]
    for config, value in sorted(adj.items(), key=lambda kv: -kv[1]):
        delta = 100.0 * (value - best) / best
        pvalue = reference[config]
        pdelta = 100.0 * (pvalue - paper_best) / paper_best
        lines.append(
            f"{config:8s} {value:9.1f} {delta:+6.1f} "
            f"{pvalue:10.1f} {pdelta:+8.1f}"
        )
    return "\n".join(lines)


def render_table6(results: Mapping[str, ExperimentResult], stack: str) -> str:
    """Table 6: cache performance (cold-start simulation of one roundtrip)."""
    reference = paper.TABLE6_TCPIP if stack == "tcpip" else paper.TABLE6_RPC
    lines = [f"Table 6: Cache Performance ({stack}) — measured | (paper)",
             _rule(100),
             f"{'':5s} {'i-cache':>30s} {'d-cache/wr-buffer':>32s} "
             f"{'b-cache':>30s}",
             f"{'':5s} {'Miss':>9s} {'Acc':>10s} {'Repl':>9s} "
             f"{'Miss':>10s} {'Acc':>11s} {'Repl':>9s} "
             f"{'Miss':>10s} {'Acc':>10s} {'Repl':>8s}"]
    for config in ("BAD", "STD", "OUT", "CLO", "PIN", "ALL"):
        if config not in results:
            continue
        cold = results[config].representative().cold.memory
        (pi, pd, pb) = reference[config]
        cells = [
            (cold.icache.misses, pi[0]), (cold.icache.accesses, pi[1]),
            (cold.icache.replacement_misses, pi[2]),
            (cold.dcache.misses, pd[0]), (cold.dcache.accesses, pd[1]),
            (cold.dcache.replacement_misses, pd[2]),
            (cold.bcache.misses, pb[0]), (cold.bcache.accesses, pb[1]),
            (cold.bcache.replacement_misses, pb[2]),
        ]
        row = " ".join(f"{m:>4d}({p:>4d})" for m, p in cells)
        lines.append(f"{config:5s} {row}")
    return "\n".join(lines)


def render_table7(results: Mapping[str, ExperimentResult], stack: str) -> str:
    """Table 7: processing time and CPI decomposition."""
    reference = paper.TABLE7_TCPIP if stack == "tcpip" else paper.TABLE7_RPC
    lines = [f"Table 7: Processing Time of Traced Code ({stack})",
             _rule(90),
             f"{'Version':8s} {'Tp [us]':>14s} {'Length':>8s} "
             f"{'mCPI':>6s} {'iCPI':>6s}   "
             f"{'paper: Length':>13s} {'mCPI':>6s} {'iCPI':>6s}"]
    for config in ("BAD", "STD", "OUT", "CLO", "PIN", "ALL"):
        if config not in results:
            continue
        r = results[config]
        p = reference[config]
        lines.append(
            f"{config:8s} {r.mean_processing_us:8.1f}+-{r.stdev_processing_us:4.2f} "
            f"{r.mean_trace_length:8.0f} {r.mean_mcpi:6.2f} {r.mean_icpi:6.2f}   "
            f"{p['length']:>13d} {p['mcpi']:6.2f} {p['icpi']:6.2f}"
        )
    lines.append("(paper mCPI/iCPI cells marked derived/approximate in "
                 "repro.harness.paper)")
    return "\n".join(lines)


def render_table8(
    transitions: Mapping[Tuple[str, str], Mapping[str, float]],
    stack: str,
) -> str:
    """Table 8: comparison of latency improvements."""
    reference = paper.TABLE8_TCPIP if stack == "tcpip" else paper.TABLE8_RPC
    lines = [f"Table 8: Comparison of Latency Improvement ({stack})",
             _rule(92),
             f"{'Transition':12s} {'I%':>6s} {'dTe':>7s} {'dTp':>7s} "
             f"{'dNb':>6s} {'dNm':>5s}   "
             f"{'paper: I%':>9s} {'dTe':>6s} {'dTp':>6s} {'dNb':>5s} {'dNm':>5s}"]
    for (a, b), row in transitions.items():
        p = reference.get((a, b))
        fmt_p = (
            " ".join(
                f"{v:>5.0f}" if v is not None else "    -" for v in p
            ) if p else ""
        )
        lines.append(
            f"{a + '->' + b:12s} {row['i_pct']:6.0f} {row['d_te']:7.1f} "
            f"{row['d_tp']:7.1f} {row['d_nb']:6.0f} {row['d_nm']:5.0f}   "
            f"{fmt_p}"
        )
    return "\n".join(lines)


def render_table9(measured: Mapping[str, Mapping[str, float]]) -> str:
    """Table 9: outlining effectiveness."""
    lines = ["Table 9: Outlining Effectiveness",
             _rule(),
             f"{'':8s} {'Without outlining':>26s} {'With outlining':>26s}",
             f"{'':8s} {'unused':>12s} {'Size':>12s} "
             f"{'unused':>12s} {'Size':>12s}"]
    for stack in ("tcpip", "rpc"):
        m = measured[stack]
        p = paper.TABLE9[stack]
        lines.append(
            f"{stack:8s} {m['unused_without']*100:5.0f}%({p['unused_without']*100:3.0f}%) "
            f"{m['size_without']:5.0f}({p['size_without']:5d}) "
            f"{m['unused_with']*100:6.0f}%({p['unused_with']*100:3.0f}%) "
            f"{m['size_with']:5.0f}({p['size_with']:5d})"
        )
    lines.append("(parenthesised values are the paper's)")
    return "\n".join(lines)


def render_layer_breakdown(report, *, title: str = "") -> str:
    """Per-layer stall attribution in the shape of the paper's Table 3.

    ``report`` is an :class:`repro.obs.AttributionReport`; rows follow the
    stack's sender-to-receiver layer order with the shared library last,
    each split by miss kind so the conflict share — the quantity layout
    work optimises — is visible per layer.
    """
    from repro.obs import MISS_KINDS, layer_sort_key

    head = "Per-layer stall attribution"
    if title:
        head += f" ({title})"
    lines = [head,
             _rule(86),
             f"{'Layer':10s} {'instr':>8s} {'stalls':>8s} {'mCPI':>6s} "
             f"{'cold':>8s} {'conflict':>9s} {'capacity':>9s} {'wr-buf':>7s} "
             f"{'share':>6s}"]
    layers = report.by_layer()
    total = report.total_stall_cycles or 1
    for layer in sorted(layers, key=layer_sort_key):
        row = layers[layer]
        kinds = row["kinds"]
        lines.append(
            f"{layer:10s} {row['instructions']:8d} {row['stall_cycles']:8d} "
            f"{row['mcpi']:6.2f} "
            + " ".join(f"{kinds[k]:>{w}d}" for k, w in
                       zip(MISS_KINDS, (8, 9, 9, 7)))
            + f" {100.0 * row['stall_cycles'] / total:5.1f}%"
        )
    lines.append(_rule(86))
    lines.append(
        f"{'total':10s} {report.total_instructions:8d} "
        f"{report.total_stall_cycles:8d} {report.mcpi:6.2f}"
    )
    return "\n".join(lines)


def render_function_breakdown(report, *, top: int = 12) -> str:
    """Hottest functions by attributed stall cycles."""
    lines = ["Per-function stall attribution",
             _rule(86),
             f"{'Function':34s} {'layer':>8s} {'instr':>8s} "
             f"{'stalls':>8s} {'mCPI':>6s} {'conflict':>9s}"]
    rows = sorted(report.by_function().items(),
                  key=lambda kv: -kv[1]["stall_cycles"])
    for name, row in rows[:top]:
        lines.append(
            f"{name[:34]:34s} {row['layer']:>8s} {row['instructions']:8d} "
            f"{row['stall_cycles']:8d} {row['mcpi']:6.2f} "
            f"{row['kinds']['conflict']:9d}"
        )
    return "\n".join(lines)


def render_conflict_matrix(matrix, *, top: int = 10) -> str:
    """The hottest cells of the function x function eviction matrix.

    ``matrix`` is an :class:`repro.obs.ConflictMatrix`; each row is one
    (evictor, victim) pair with its dynamic eviction count and how many
    distinct i-cache sets the fighting happened in.
    """
    lines = ["i-cache conflict matrix (who evicts whom)",
             _rule(86),
             f"{'Evictor':30s} {'Victim':30s} {'evict':>6s} {'sets':>5s}"]
    for evictor, victim, count, nsets in matrix.top_pairs(top):
        lines.append(
            f"{evictor[:30]:30s} {victim[:30]:30s} {count:6d} {nsets:5d}"
        )
    if not matrix.counts:
        lines.append("(no evictions recorded)")
    else:
        lines.append(
            f"total evictions: {matrix.total_evictions} "
            f"(self-evictions: {matrix.self_evictions()})"
        )
    return "\n".join(lines)


def render_icache_footprint(
    rows: Sequence, *, icache_size: int = 8 * 1024, width: int = 64
) -> str:
    """Figure 2-style occupancy map: one line per function, '#' where its
    blocks land in i-cache index space."""
    blocks_per_cache = icache_size // 32
    scale = blocks_per_cache / width
    lines = [f"i-cache index space (0..{icache_size} bytes; '#'=occupied)"]
    for row in rows:
        cells = [" "] * width
        for i in range(row.blocks):
            index = (row.first_index + i) % blocks_per_cache
            cells[int(index / scale)] = "#"
        lines.append(f"{row.name[:28]:28s} |{''.join(cells)}|")
    return "\n".join(lines)


def render_fault_table(
    measured: Mapping[str, Mapping[str, float]],
    stack: str,
    *,
    rate: float,
    kinds: Optional[Sequence[str]] = None,
) -> str:
    """Fault-injection penalty per configuration (repro.faults)."""
    scope = ", ".join(kinds) if kinds else "all kinds"
    lines = [f"Fault injection: {stack} at rate {rate:g} ({scope})",
             _rule(86),
             f"{'Config':8s} {'clean us':>9s} {'fault us':>9s} "
             f"{'d us':>8s} {'clean mCPI':>11s} {'fault mCPI':>11s} "
             f"{'d mCPI':>8s} {'flt/smp':>8s} {'span':>6s}"]
    for config, row in measured.items():
        lines.append(
            f"{config:8s} {row['base_us']:>9.1f} {row['fault_us']:>9.1f} "
            f"{row['delta_us']:>+8.1f} {row['base_mcpi']:>11.2f} "
            f"{row['fault_mcpi']:>11.2f} {row['delta_mcpi']:>+8.2f} "
            f"{row['faults_per_sample']:>8.1f} "
            f"{row['span_instructions']:>6.0f}"
        )
    lines.append(_rule(86))
    lines.append("(span = mean instructions walked inside fault-steered "
                 "code per sample)")
    return "\n".join(lines)


def render_sweep_report(report) -> str:
    """Incidents, healing and divergences of one sweep
    (:class:`repro.harness.parallel.SweepReport`)."""
    lines = [f"Sweep report: {report.summary()}"]
    if report.chaos_rules:
        lines.append(f"  chaos rules: {'; '.join(report.chaos_rules)}")
    for incident in report.incidents:
        lines.append(f"  incident  {incident.render()}")
    for failure in report.failures:
        lines.append(f"  FAILURE   {failure.render()}")
    for divergence in report.divergences:
        first = divergence.mismatches[0] if divergence.mismatches else None
        detail = (f" ({first[0]}: fast={first[1]:g} reference={first[2]:g})"
                  if first else "")
        lines.append(
            f"  divergence ({divergence.config}, seed {divergence.seed})"
            f"{detail}"
        )
    return "\n".join(lines)


def render_traffic_table(study) -> str:
    """The demux-cache study as a paper-style table.

    One row per (mix, flows, scheme) point: the l4 flow map's hit rate,
    mean front-end probes and collision-chain links per resolve, the
    stream's steady-state mCPI, and its delta against the paper's
    one-entry scheme on the same (mix, flows) — Jain's comparison
    protocol applied to the x-kernel demux layer.  Every column is a
    ratio of exact integers, so the rendering is bit-stable across
    engines and platforms.
    """
    spec = study.base_spec
    # no engine in the header: the numbers are engine-independent, so one
    # committed file is the golden for every engine (the CI traffic gate)
    lines = [
        f"Demux-cache study: {spec.stack} {spec.config}",
        f"{spec.packets:,} packets/point, warmup {spec.warmup_packets:,}, "
        f"{spec.buckets} buckets, churn {spec.churn:g}, seed {spec.seed}",
        _rule(86),
        f"{'mix':8s} {'flows':>7s} {'scheme':11s} {'l4 hit%':>8s} "
        f"{'probes/res':>11s} {'chain/res':>10s} {'steady mCPI':>12s} "
        f"{'vs one-entry':>13s}",
        _rule(86),
    ]
    for flows in study.flow_counts:
        for mix in study.mixes:
            baseline = None
            if "one-entry" in study.schemes:
                baseline = study.point("one-entry", mix, flows)
            for scheme in study.schemes:
                p = study.point(scheme, mix, flows)
                l4 = [layers["l4"] for layers in p.map_stats.values()]
                resolves = sum(s["resolves"] for s in l4)
                probes = sum(s["probe_compares"] for s in l4)
                chain = sum(s["chain_probes"] for s in l4)
                delta = ""
                if baseline is not None and baseline.steady_mcpi:
                    rel = (p.steady_mcpi / baseline.steady_mcpi - 1.0) * 100
                    delta = f"{rel:+12.2f}%"
                lines.append(
                    f"{mix:8s} {flows:>7d} {scheme:11s} "
                    f"{p.l4_hit_rate * 100:8.2f} "
                    f"{probes / resolves if resolves else 0:11.3f} "
                    f"{chain / resolves if resolves else 0:10.3f} "
                    f"{p.steady_mcpi:12.4f} {delta:>13s}"
                )
            lines.append("")
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines)


def render_resilience_table(study) -> str:
    """The faulted-traffic resilience study as a paper-style table.

    One block per (mix, fault rate, scheme) cell: the cell's injected
    fault count and steady mCPI, then one row per offered-load point
    with p50/p99/p999 sojourn latency (simulated cycles), the drop
    fraction and a saturation marker.  Latencies are exact integers and
    every ratio divides exact integers, so the rendering is bit-stable
    across engines (the CI resilience gate diffs one committed file).
    """
    spec = study.base_spec
    ov = study.overload
    # no engine in the header: one committed file serves every engine
    lines = [
        f"Resilience study: {spec.stack} {spec.config}",
        f"{spec.packets:,} packets/point, {spec.flows:,} flows, "
        f"churn {spec.churn:g}, seed {spec.seed}, "
        f"fault scope {study.scope}, profile seed {study.profile_seed}",
        f"queue: {ov.policy}, capacity {ov.queue_capacity}, "
        f"loads {'/'.join(str(load) for load in ov.loads)}%",
        _rule(86),
        f"{'mix':8s} {'scheme':11s} {'rate':>6s} {'faulted':>8s} "
        f"{'load%':>6s} {'p50':>9s} {'p99':>9s} {'p999':>9s} "
        f"{'drop%':>7s} {'sat':>4s}",
        _rule(86),
    ]
    for mix in study.mixes:
        for rate in study.fault_rates:
            for scheme in study.schemes:
                p = study.point(scheme, mix, rate)
                head = (f"{mix:8s} {scheme:11s} {rate:>6g} "
                        f"{p.faulted_packets:>8d}")
                blank = " " * len(head)
                for i, lp in enumerate(p.load_points):
                    sat = "*" if lp.saturated else ""
                    lines.append(
                        f"{head if i == 0 else blank} "
                        f"{lp.load_pct:>6d} {lp.p50:>9d} {lp.p99:>9d} "
                        f"{lp.p999:>9d} {lp.drop_fraction * 100:7.2f} "
                        f"{sat:>4s}"
                    )
                sat_at = p.saturation_point
                lines.append(
                    f"{blank}   saturates at {sat_at}%"
                    if sat_at is not None
                    else f"{blank}   no saturation in the swept loads"
                )
                lines.append("")
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines)
