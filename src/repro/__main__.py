"""``python -m repro``: regenerate every table in the paper's evaluation.

Options::

    python -m repro                  # all tables, default sample counts
    python -m repro --samples 2      # faster, fewer samples per cell
    python -m repro --stack rpc      # only the RPC sweep tables
    python -m repro --tables 4 7     # only Tables 4 and 7

Subcommands::

    python -m repro profile <stack> <config>   # stall attribution report
    python -m repro analyze <stack> <config>   # static analysis & checks
    python -m repro faults <stack> <config> --rate 0.25
                                               # fault-injection penalties
    python -m repro search <stack> <config> --budget 64 --seed 0
                                               # profile-guided layout search
    python -m repro traffic <stack> <config> --packets 1000000 --flows 10000
                                               # demux-cache traffic study
    python -m repro resilience <stack> <config> --fault-rates 0 0.01
                                               # faulted streams under load
    python -m repro datalayout                 # data-techniques grid study

Every subcommand resolves its engine and chaos environment once, through
:class:`repro.api.Settings`, and runs through the :mod:`repro.api` facade.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.api.settings import ENGINES


def _write_json(doc, path: str) -> None:
    """Write ``doc`` as indented JSON to ``path`` ('-' for stdout)."""
    payload = json.dumps(doc, indent=2) + "\n"
    if path == "-":
        sys.stdout.write(payload)
    else:
        with open(path, "w") as fh:
            fh.write(payload)


def profile_main(argv=None) -> int:
    """``python -m repro profile``: attribute one cell's stall cycles."""
    from repro.harness.configs import CONFIG_NAMES, STACKS

    parser = argparse.ArgumentParser(
        prog="python -m repro profile",
        description="Attribute every memory stall cycle of one "
                    "(stack, configuration) cell to (layer, function, "
                    "cache, miss kind), and show the i-cache conflict "
                    "matrix.",
    )
    parser.add_argument("stack", choices=list(STACKS))
    parser.add_argument("config", choices=list(CONFIG_NAMES))
    parser.add_argument("--engine", choices=list(ENGINES), default=None,
                        help="simulation engine (default: $REPRO_SIM_ENGINE "
                             "or fast)")
    parser.add_argument("--seed", type=int, default=42,
                        help="allocator jitter seed of the traced sample")
    parser.add_argument("--top", type=int, default=12,
                        help="rows in the function/conflict listings")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the full report as JSON "
                             "('-' for stdout)")
    args = parser.parse_args(argv)

    from repro import api

    cell = api.profile(api.ProfileSpec(args.stack, args.config,
                                       engine=args.engine, seed=args.seed))

    if args.json is not None:
        _write_json(cell.to_json(), args.json)
    if args.json != "-":
        print(cell.render(top=args.top))
    return 0


def analyze_main(argv=None) -> int:
    """``python -m repro analyze``: verify, prove, predict and bound.

    Exit codes are machine-readable: 0 means every analyzed cell is
    clean, 1 means the analysis ran and produced findings, 2 means the
    analyzer itself failed — so CI and scripts can tell "found issues"
    from "analyzer crashed".
    """
    from repro.harness.configs import CONFIG_NAMES, STACKS

    parser = argparse.ArgumentParser(
        prog="python -m repro analyze",
        description="Static analysis of one (stack, configuration) cell: "
                    "IR well-formedness after every build stage, "
                    "transformation-equivalence proofs, a static i-cache "
                    "conflict prediction cross-validated against the "
                    "simulated eviction matrix, and (with --bounds) sound "
                    "abstract-interpretation latency bounds checked "
                    "against the measuring engine.  Exit codes: 0 clean, "
                    "1 findings, 2 internal error.",
    )
    parser.add_argument("stack", choices=list(STACKS) + ["all"])
    parser.add_argument("config", choices=list(CONFIG_NAMES) + ["all"])
    parser.add_argument("--engine", choices=list(ENGINES), default=None,
                        help="engine for the simulated cross-validations "
                             "(default: $REPRO_SIM_ENGINE or fast)")
    parser.add_argument("--seed", type=int, default=42,
                        help="allocator jitter seed of the validated sample")
    parser.add_argument("--static-only", action="store_true",
                        help="skip the simulated conflict cross-validation "
                             "(no sample is traced; purely static checks)")
    parser.add_argument("--bounds", action="store_true",
                        help="also compute static cold/steady mCPI bounds "
                             "and check lower <= simulated <= upper "
                             "against the selected engine")
    parser.add_argument("--show-prediction", action="store_true",
                        help="print the predicted conflict pairs per cell")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the structured per-cell reports as "
                             "JSON ('-' for stdout)")
    args = parser.parse_args(argv)

    from repro import api
    from repro.analysis import render_prediction

    stacks = list(STACKS) if args.stack == "all" else [args.stack]
    configs = list(CONFIG_NAMES) if args.config == "all" else [args.config]
    failures = 0
    reports = []
    try:
        for stack in stacks:
            for config in configs:
                cell = api.analyze(api.AnalyzeSpec(
                    run=api.RunSpec(stack, config, seed=args.seed,
                                    engine=args.engine),
                    check_conflicts=not args.static_only,
                    bounds=args.bounds,
                ))
                reports.append(cell)
                if args.json != "-":
                    print(cell.render())
                    if args.bounds and cell.bounds is not None:
                        print(cell.bounds.render())
                    if args.show_prediction and cell.prediction is not None:
                        print(render_prediction(cell.prediction))
                if not cell.ok:
                    failures += len(cell.findings)
    except Exception as exc:  # noqa: BLE001 - the CLI's crash boundary
        print(f"ANALYZER ERROR: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2

    if args.json is not None:
        _write_json([r.to_json() for r in reports], args.json)

    if failures:
        if args.json != "-":
            print(f"FAIL: {failures} finding(s) across "
                  f"{len(stacks) * len(configs)} cell(s)", file=sys.stderr)
        return 1
    if args.json != "-":
        print(f"OK: {len(stacks) * len(configs)} cell(s) clean")
    return 0


def faults_main(argv=None) -> int:
    """``python -m repro faults``: price the error paths of one stack."""
    from repro.faults.plan import FAULT_KINDS
    from repro.harness.configs import CONFIG_NAMES, STACKS

    parser = argparse.ArgumentParser(
        prog="python -m repro faults",
        description="Inject seeded workload faults (corrupted checksums, "
                    "truncated headers, demux-cache misses, dropped and "
                    "duplicated packets) into the modeled test programs "
                    "and report the per-configuration processing-time and "
                    "mCPI penalty against a fault-free sweep.",
    )
    parser.add_argument("stack", choices=list(STACKS))
    parser.add_argument("config", choices=list(CONFIG_NAMES) + ["all"])
    parser.add_argument("--rate", type=float, required=True,
                        help="per-opportunity injection probability in "
                             "[0, 1]")
    parser.add_argument("--kinds", nargs="*", choices=list(FAULT_KINDS),
                        default=None,
                        help="restrict the fault taxonomy (default: all)")
    parser.add_argument("--samples", type=int, default=None,
                        help="samples per configuration (default: the "
                             "paper's 10 for TCP/IP, 5 for RPC)")
    parser.add_argument("--seed", type=int, default=0,
                        help="fault plan seed (injection sites; the "
                             "allocator jitter seeds are unchanged)")
    parser.add_argument("--engine", choices=list(ENGINES), default=None,
                        help="simulation engine (default: $REPRO_SIM_ENGINE "
                             "or fast)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the table as JSON ('-' for stdout)")
    args = parser.parse_args(argv)

    from repro import api

    configs = (tuple(CONFIG_NAMES) if args.config == "all"
               else (args.config,))
    kinds = tuple(args.kinds) if args.kinds else None
    study = api.faults(api.FaultsSpec(
        args.stack, configs=configs, rate=args.rate, kinds=kinds,
        samples=args.samples, seed=args.seed, engine=args.engine,
    ))

    if args.json is not None:
        _write_json(study.to_json(), args.json)
        if args.json == "-":
            return 0
    print(study.render())
    return 1 if study.check() else 0


def search_main(argv=None) -> int:
    """``python -m repro search``: profile-guided layout search of one cell."""
    from repro.harness.configs import CONFIG_NAMES, STACKS

    parser = argparse.ArgumentParser(
        prog="python -m repro search",
        description="Search for a better code layout of one (stack, "
                    "configuration) cell: candidate generators (conflict-"
                    "graph placer, call-affinity ordering, local-search "
                    "mutation) feed a statically-prefiltered, simulation-"
                    "scored loop.  Reports the best layout found against "
                    "the paper's baselines and can emit it as a "
                    "replayable JSON artifact.",
    )
    parser.add_argument("stack", choices=list(STACKS))
    parser.add_argument("config", choices=list(CONFIG_NAMES))
    parser.add_argument("--budget", type=int, default=None,
                        help="candidate simulations to spend (default: 64)")
    parser.add_argument("--seed", type=int, default=0,
                        help="search seed (drives every random choice)")
    parser.add_argument("--base-seed", type=int, default=42,
                        help="allocator jitter seed of the scored sample")
    parser.add_argument("--engine", choices=list(ENGINES), default=None,
                        help="scoring engine (default: $REPRO_SIM_ENGINE "
                             "or fast; scores are bit-identical either way)")
    parser.add_argument("--parallel", action="store_true",
                        help="score candidate batches on the process pool")
    parser.add_argument("--micro", action="store_true",
                        help="also score the paper's micro-positioned "
                             "layout as a baseline (slower)")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write the winning layout artifact as JSON")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the full search report as JSON "
                             "('-' for stdout)")
    parser.add_argument("--check", metavar="PATH", default=None,
                        help="compare against a recorded artifact: exit "
                             "nonzero unless this search reproduces its "
                             "best score bit-for-bit")
    args = parser.parse_args(argv)

    from repro import api
    from repro.search import DEFAULT_BUDGET, LayoutArtifact

    settings = api.Settings.from_env(engine=args.engine)
    result = api.search(api.SearchSpec(
        run=api.RunSpec(args.stack, args.config, seed=args.base_seed,
                        engine=settings.engine),
        budget=args.budget, seed=args.seed, parallel=args.parallel,
        micro_baseline=args.micro,
    ), settings=settings)

    if args.out is not None:
        result.artifact.save(args.out)
    if args.json is not None:
        _write_json(result.to_json(), args.json)
    if args.json != "-":
        print(result.summary())

    if args.check is not None:
        recorded = LayoutArtifact.load(args.check)
        budget = args.budget if args.budget is not None else DEFAULT_BUDGET
        problems = []
        if (recorded.stack, recorded.config) != (args.stack, args.config):
            problems.append(
                f"recorded artifact is for ({recorded.stack}, "
                f"{recorded.config}), not ({args.stack}, {args.config})")
        if (recorded.seed, recorded.budget) != (args.seed, budget):
            problems.append(
                f"recorded (seed, budget) = ({recorded.seed}, "
                f"{recorded.budget}) != ({args.seed}, {budget})")
        if recorded.score != result.artifact.score:
            problems.append(
                f"best score drifted: recorded {recorded.score} != "
                f"found {result.artifact.score}")
        if recorded.placements != result.artifact.placements:
            problems.append("winning placements drifted")
        if problems:
            for p in problems:
                print(f"CHECK FAIL: {p}", file=sys.stderr)
            return 1
        print(f"check OK: reproduces {args.check} bit-for-bit")
    return 0


def traffic_main(argv=None) -> int:
    """``python -m repro traffic``: million-flow demux-cache study."""
    from repro.harness.configs import CONFIG_NAMES
    from repro.traffic import MIXES, STACKS, TrafficSpec
    from repro.xkernel.map import SCHEME_SPECS

    parser = argparse.ArgumentParser(
        prog="python -m repro traffic",
        description="Stream a synthetic packet mix (Zipf/uniform/bursty/"
                    "scan arrivals, connection churn, optional mixed "
                    "TCP+RPC populations) through one configuration's "
                    "demux path and sweep the flow-map caching scheme, "
                    "reporting per-scheme hit rates and steady-state "
                    "mCPI as a paper-style table.",
    )
    parser.add_argument("stack", choices=list(STACKS),
                        help="traffic population ('mixed' interleaves "
                             "TCP and RPC flows on one machine)")
    parser.add_argument("config", choices=list(CONFIG_NAMES))
    parser.add_argument("--packets", type=int, default=1_000_000,
                        help="packets per sweep point (default: 1000000)")
    parser.add_argument("--flows", type=int, nargs="+", default=[10_000],
                        help="concurrent-flow counts to sweep "
                             "(default: 10000)")
    parser.add_argument("--mixes", nargs="+", choices=list(MIXES),
                        default=None,
                        help="arrival mixes to sweep (default: zipf)")
    parser.add_argument("--schemes", nargs="+", default=list(SCHEME_SPECS),
                        help="flow-map caching schemes: none, one-entry, "
                             "lru:K, direct:N, assoc:SxW "
                             "(default: the full taxonomy)")
    parser.add_argument("--engine", choices=["fast"],
                        default=None,
                        help="streaming engine (default: $REPRO_SIM_ENGINE "
                             "or fast; tables are bit-identical across "
                             "engines, and the reference engine has no "
                             "packed-segment pass)")
    parser.add_argument("--seed", type=int, default=0,
                        help="arrival/churn stream seed")
    parser.add_argument("--warmup", type=int, default=10_000,
                        help="packets excluded from the steady window")
    parser.add_argument("--churn", type=float, default=0.0,
                        help="per-packet connection-replacement "
                             "probability")
    parser.add_argument("--scan-fraction", type=float, default=0.5,
                        help="never-bound-key fraction of the scan mix")
    parser.add_argument("--rpc-fraction", type=float, default=0.25,
                        help="RPC share of the mixed population")
    parser.add_argument("--zipf-s", type=float, default=1.1,
                        help="Zipf skew of the flow popularity ranking")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the full study as JSON "
                             "('-' for stdout)")
    args = parser.parse_args(argv)

    from repro import api

    settings = api.Settings.from_env(engine=args.engine)
    stream = TrafficSpec(
        stack=args.stack, config=args.config, packets=args.packets,
        flows=args.flows[0], zipf_s=args.zipf_s, churn=args.churn,
        scan_fraction=args.scan_fraction, rpc_fraction=args.rpc_fraction,
        seed=args.seed, warmup_packets=args.warmup,
    )
    study = api.traffic(api.TrafficStudySpec(
        traffic=stream, schemes=tuple(args.schemes),
        mixes=tuple(args.mixes) if args.mixes else None,
        flow_counts=tuple(args.flows),
    ), settings=settings)
    if args.json is not None:
        _write_json(study.to_json(), args.json)
    if args.json != "-":
        print(study.render())
    return 0


def resilience_main(argv=None) -> int:
    """``python -m repro resilience``: faulted streams under offered load."""
    from repro.harness.configs import CONFIG_NAMES
    from repro.resilience import POLICIES, SCOPES, OverloadSpec
    from repro.resilience.queueing import DEFAULT_LOADS
    from repro.traffic import MIXES, STACKS, TrafficSpec

    parser = argparse.ArgumentParser(
        prog="python -m repro resilience",
        description="Stream faulted traffic (corrupted checksums, "
                    "truncated headers, bad demux keys, duplicated "
                    "packets at seeded per-packet rates) through one "
                    "configuration's demux path, layer a bounded ingress "
                    "queue over the per-packet service cycles, and sweep "
                    "scheme x mix x fault rate, reporting offered-load vs "
                    "p50/p99/p999 sojourn latency with drop accounting "
                    "and saturation detection.",
    )
    parser.add_argument("stack", choices=list(STACKS),
                        help="traffic population ('mixed' interleaves "
                             "TCP and RPC flows on one machine)")
    parser.add_argument("config", choices=list(CONFIG_NAMES))
    parser.add_argument("--packets", type=int, default=1_000_000,
                        help="packets per sweep point (default: 1000000)")
    parser.add_argument("--flows", type=int, default=10_000,
                        help="concurrent flows (default: 10000)")
    parser.add_argument("--mixes", nargs="+", choices=list(MIXES),
                        default=None,
                        help="arrival mixes to sweep (default: zipf)")
    parser.add_argument("--schemes", nargs="+",
                        default=["one-entry", "lru:4"],
                        help="flow-map caching schemes: none, one-entry, "
                             "lru:K, direct:N, assoc:SxW "
                             "(default: one-entry lru:4)")
    parser.add_argument("--fault-rates", type=float, nargs="+",
                        default=[0.0, 0.01],
                        help="total per-packet fault rates to sweep, each "
                             "spread uniformly over the receive-side "
                             "kinds (default: 0.0 0.01)")
    parser.add_argument("--scope", choices=list(SCOPES), default="all",
                        help="which flows faults may hit (default: all)")
    parser.add_argument("--profile-seed", type=int, default=0,
                        help="fault-arrival seed (the traffic spec's "
                             "arrival/churn seed is unchanged)")
    parser.add_argument("--loads", type=int, nargs="+",
                        default=list(DEFAULT_LOADS),
                        help="offered-load points, percent of the "
                             "stream's service capacity "
                             "(default: 60 80 90 100 110 130)")
    parser.add_argument("--queue-capacity", type=int, default=64,
                        help="max packets in system under drop-tail")
    parser.add_argument("--policy", choices=list(POLICIES),
                        default="drop-tail",
                        help="ingress admission policy")
    parser.add_argument("--engine", choices=["fast"],
                        default=None,
                        help="streaming engine (default: $REPRO_SIM_ENGINE "
                             "or fast; studies are bit-identical across "
                             "engines, and the reference engine has no "
                             "packed-segment pass)")
    parser.add_argument("--seed", type=int, default=0,
                        help="arrival/churn stream seed")
    parser.add_argument("--warmup", type=int, default=10_000,
                        help="packets excluded from the steady window")
    parser.add_argument("--churn", type=float, default=0.0,
                        help="per-packet connection-replacement "
                             "probability")
    parser.add_argument("--parallel", action="store_true",
                        help="run grid cells on the self-healing pool")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the full study as JSON "
                             "('-' for stdout)")
    args = parser.parse_args(argv)

    from repro import api

    settings = api.Settings.from_env(engine=args.engine)
    stream = TrafficSpec(
        stack=args.stack, config=args.config, packets=args.packets,
        flows=args.flows, churn=args.churn, seed=args.seed,
        warmup_packets=args.warmup,
    )
    overload = OverloadSpec(
        loads=tuple(args.loads), queue_capacity=args.queue_capacity,
        policy=args.policy,
    )
    study = api.resilience(api.ResilienceStudySpec(
        traffic=stream, schemes=tuple(args.schemes),
        mixes=tuple(args.mixes) if args.mixes else None,
        fault_rates=tuple(args.fault_rates),
        profile_seed=args.profile_seed, scope=args.scope,
        overload=overload, parallel=args.parallel,
    ), settings=settings)
    if args.json is not None:
        _write_json(study.to_json(), args.json)
    if args.json != "-":
        print(study.render())
    return 1 if study.check() else 0


def datalayout_main(argv=None) -> int:
    """``python -m repro datalayout``: the data-techniques grid study."""
    from repro.api.spec import SPEC_CONFIGS, SPEC_STACKS
    from repro.datalayout import TECHNIQUE_NAMES

    parser = argparse.ArgumentParser(
        prog="python -m repro datalayout",
        description="Measure the data-side techniques (store coalescing, "
                    "non-allocating writes, field packing, hot/cold "
                    "splitting) over the paper's 12 (stack, configuration) "
                    "cells, attributing the write-buffer and d-cache "
                    "stalls and bracketing every cell with static bounds "
                    "under the same store behaviour.",
    )
    parser.add_argument("--techniques", nargs="+",
                        choices=list(TECHNIQUE_NAMES), default=None,
                        help="data techniques to measure (default: all; "
                             "baseline is always included)")
    parser.add_argument("--stacks", nargs="+", choices=list(SPEC_STACKS),
                        default=list(SPEC_STACKS))
    parser.add_argument("--configs", nargs="+", choices=list(SPEC_CONFIGS),
                        default=list(SPEC_CONFIGS))
    parser.add_argument("--engine", choices=list(ENGINES), default=None,
                        help="simulation engine (default: $REPRO_SIM_ENGINE "
                             "or fast; tables are bit-identical across "
                             "engines)")
    parser.add_argument("--seed", type=int, default=42,
                        help="allocator jitter seed of the traced samples")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the full grid as JSON "
                             "('-' for stdout)")
    args = parser.parse_args(argv)

    from repro import api

    study = api.datalayout(api.DatalayoutSpec(
        techniques=tuple(args.techniques) if args.techniques else None,
        stacks=tuple(args.stacks), configs=tuple(args.configs),
        seed=args.seed, engine=args.engine,
    ))
    if args.json is not None:
        _write_json(study.to_json(), args.json)
    if args.json != "-":
        print(study.render())
    problems = study.check()
    for p in problems:
        print(f"CHECK FAIL: {p}", file=sys.stderr)
    return 1 if problems else 0


#: CLI subcommand -> entry point; mirrors repro.api.FACADE_VERBS minus
#: run/sweep, whose CLI form is the default table driver below (a test
#: pins this correspondence)
SUBCOMMANDS = {
    "profile": profile_main,
    "analyze": analyze_main,
    "faults": faults_main,
    "search": search_main,
    "traffic": traffic_main,
    "resilience": resilience_main,
    "datalayout": datalayout_main,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in SUBCOMMANDS:
        return SUBCOMMANDS[argv[0]](argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the tables of TR 96-03 from the "
                    "reproduction's simulated testbed.",
    )
    parser.add_argument("--samples", type=int, default=None,
                        help="samples per configuration (default: the "
                             "paper's 10 for TCP/IP, 5 for RPC)")
    parser.add_argument("--stack", choices=["tcpip", "rpc", "both"],
                        default="both")
    parser.add_argument("--tables", nargs="*", type=int, default=None,
                        help="subset of table numbers (1-9)")
    parser.add_argument("--engine", choices=list(ENGINES), default=None,
                        help="simulation engine for the sweeps (default: "
                             "$REPRO_SIM_ENGINE or fast)")
    args = parser.parse_args(argv)

    wanted = set(args.tables) if args.tables else set(range(1, 10))
    stacks = ["tcpip", "rpc"] if args.stack == "both" else [args.stack]
    started = time.time()

    from repro.api import Settings
    from repro.harness import reporting, tables

    # the environment is read exactly once; everything below threads
    # these settings explicitly
    settings = Settings.from_env(engine=args.engine)

    def emit(text: str) -> None:
        print(text)
        print()

    if wanted & {1} and "tcpip" in stacks:
        savings, total = tables.compute_table1()
        emit(reporting.render_table1(savings, total))
    if wanted & {2} and "tcpip" in stacks:
        emit(reporting.render_table2(tables.compute_table2()))
    if wanted & {3} and "tcpip" in stacks:
        emit(reporting.render_table3(tables.compute_table3()))

    if wanted & {4, 5, 6, 7, 8}:
        for stack in stacks:
            print(f"... running the {stack} configuration sweep ...",
                  file=sys.stderr)
            sweep = tables.compute_sweep(stack, samples=args.samples,
                                         settings=settings)
            if 4 in wanted:
                emit(reporting.render_table4(sweep, stack))
            if 5 in wanted:
                emit(reporting.render_table5(sweep, stack))
            if 6 in wanted:
                emit(reporting.render_table6(sweep, stack))
            if 7 in wanted:
                emit(reporting.render_table7(sweep, stack))
            if 8 in wanted:
                emit(reporting.render_table8(
                    tables.compute_table8(sweep), stack))

    if wanted & {9}:
        emit(reporting.render_table9(tables.compute_table9()))

    print(f"[done in {time.time() - started:.1f}s]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
