#!/usr/bin/env python
"""Regenerate the golden result tables for the CI regression gate.

Runs the canonical Table-4 sweep (TCP/IP x 10 samples, RPC x 5 samples)
through the harness and rewrites::

    benchmarks/results/table{4,5,6,7}_{tcpip,rpc}.txt

byte for byte the way the benchmark suite publishes them.  The simulation
pipeline is deterministic per (stack, config, seed), so any diff against
the committed files means the *model's numbers changed* — CI runs this
under both ``REPRO_SIM_ENGINE=fast`` and ``=reference`` and fails on
``git diff``.  After an intentional model change, rerun this script and
commit the new tables with the change that explains them.

``--traffic`` regenerates ``benchmarks/results/traffic_demux.txt``
instead: the demux-cache study (caching scheme x arrival mix, 1M packets
over 10k flows per point, plus a mixed TCP+RPC section).  Its numbers
are ratios of exact integer counters, so the same byte-identity gate
applies — CI regenerates it on the fast engine and diffs it against the
committed file.

``--resilience`` regenerates ``benchmarks/results/resilience_smoke.txt``:
the faulted-traffic resilience study (caching scheme x arrival mix x
fault rate, with offered-load vs p50/p99/p999 latency curves per cell).
Latencies are exact integers on the simulated-cycle timeline, so the
same byte-identity gate applies.

``--datalayout`` regenerates ``benchmarks/results/datalayout_grid.txt``:
the data-techniques grid (store coalescing, non-allocating writes, field
packing, hot/cold splitting over all 12 cells, with attribution buckets
and static bounds).  Every number is an exact integer count or a ratio
of them, and the rendering names no engine, so a run on any engine
diffs against the same committed file.

Usage::

    PYTHONPATH=src python benchmarks/make_golden_tables.py [--check]
    PYTHONPATH=src python benchmarks/make_golden_tables.py --traffic [--check]
    PYTHONPATH=src python benchmarks/make_golden_tables.py --resilience [--check]
    PYTHONPATH=src python benchmarks/make_golden_tables.py --datalayout [--check]

``--check`` writes nothing and exits 1 if any regenerated table differs
from the committed file (a git-free equivalent of the CI gate).
"""

from __future__ import annotations

import argparse
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.api.settings import Settings  # noqa: E402
from repro.harness.experiment import run_all_configs  # noqa: E402
from repro.harness.reporting import (  # noqa: E402
    render_table4,
    render_table5,
    render_table6,
    render_table7,
)

RESULTS_DIR = REPO / "benchmarks" / "results"

#: sample counts must match benchmarks/conftest.py
SAMPLES = {"tcpip": 10, "rpc": 5}

RENDERERS = {
    4: render_table4,
    5: render_table5,
    6: render_table6,
    7: render_table7,
}


def golden_tables() -> dict:
    """{relative filename: rendered text} for every gated table."""
    out = {}
    for stack, samples in SAMPLES.items():
        sweep = run_all_configs(stack, samples=samples)
        for number, renderer in RENDERERS.items():
            out[f"table{number}_{stack}.txt"] = renderer(sweep, stack) + "\n"
    return out


def golden_traffic() -> dict:
    """The demux-cache study golden: scheme x mix at acceptance scale."""
    from repro.api import TrafficStudySpec, traffic
    from repro.traffic import MIXES, TrafficSpec

    # 1M packets over 10k flows per (scheme, mix) point — the issue's
    # acceptance scale — with enough churn to exercise invalidation
    base = TrafficSpec(churn=0.0005)
    sections = [traffic(TrafficStudySpec(traffic=base, mixes=MIXES)).render()]
    # the interleaved TCP+RPC population on one shared machine
    mixed = TrafficSpec(stack="mixed", churn=0.0005)
    sections.append(traffic(TrafficStudySpec(traffic=mixed)).render())
    return {"traffic_demux.txt": "\n\n".join(sections) + "\n"}


def golden_resilience() -> dict:
    """The resilience study golden: scheme x mix x fault rate under load."""
    from repro.api import ResilienceStudySpec, resilience
    from repro.harness.reporting import render_resilience_table
    from repro.resilience import OverloadSpec
    from repro.traffic import TrafficSpec

    # a CI-sized grid (8 cells x 120k packets) that still exercises every
    # receive-side fault kind, both baseline schemes, the adversarial
    # scan mix, and a saturating load point
    base = TrafficSpec(
        packets=120_000, flows=2_000, churn=0.001, warmup_packets=5_000
    )
    study = resilience(ResilienceStudySpec(
        traffic=base,
        schemes=("one-entry", "lru:4"),
        mixes=("zipf", "scan"),
        fault_rates=(0.0, 0.02),
        overload=OverloadSpec(loads=(80, 100, 120)),
    ))
    return {"resilience_smoke.txt": render_resilience_table(study) + "\n"}


def golden_datalayout() -> dict:
    """The data-techniques grid golden: every technique x all 12 cells.

    The rendering deliberately names no engine — the engines are
    bit-identical, so every engine regenerates this one committed file
    and any divergence is a drift failure.
    """
    from repro.api import DatalayoutSpec, datalayout

    study = datalayout(DatalayoutSpec())
    problems = study.check()
    if problems:
        raise SystemExit(
            "datalayout golden failed its own invariants:\n  "
            + "\n  ".join(problems)
        )
    return {"datalayout_grid.txt": study.render()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed files instead of rewriting",
    )
    parser.add_argument(
        "--traffic",
        action="store_true",
        help="regenerate the demux-cache traffic golden instead of the "
        "Table-4..7 sweep goldens",
    )
    parser.add_argument(
        "--resilience",
        action="store_true",
        help="regenerate the faulted-traffic resilience golden instead",
    )
    parser.add_argument(
        "--datalayout",
        action="store_true",
        help="regenerate the data-techniques grid golden instead",
    )
    args = parser.parse_args(argv)

    engine = Settings.from_env().engine
    if args.datalayout:
        which, regenerate = "datalayout golden", golden_datalayout
    elif args.resilience:
        which, regenerate = "resilience golden", golden_resilience
    elif args.traffic:
        which, regenerate = "traffic golden", golden_traffic
    else:
        which, regenerate = "golden tables", golden_tables
    print(f"regenerating {which} ({engine} engine) ...", flush=True)
    tables = regenerate()

    stale = []
    for name, text in sorted(tables.items()):
        path = RESULTS_DIR / name
        committed = path.read_text() if path.exists() else None
        if committed == text:
            print(f"  {name}: unchanged")
            continue
        stale.append(name)
        if args.check:
            print(f"  {name}: DIFFERS from the committed file")
        else:
            RESULTS_DIR.mkdir(exist_ok=True)
            path.write_text(text)
            print(f"  {name}: rewritten")

    if args.check and stale:
        print(
            f"\n{len(stale)} golden table(s) changed; if intentional, rerun "
            "without --check and commit the updates",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
