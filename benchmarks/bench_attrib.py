#!/usr/bin/env python
"""Attribution benchmark: profile every (stack, config) cell, check the
invariant, and measure the observability layer's overhead.

Produces ``BENCH_attrib.json`` (repo root) with:

* ``cells`` — for each of the 12 (stack, configuration) cells: steady
  mCPI, the per-layer stall shares, the per-kind split, and the hottest
  i-cache conflict pair, all consumed from the :class:`repro.obs`
  JSON export (``CellProfile.to_json``);
* ``invariant`` — confirmation that the attributed stall totals matched
  the engine's measured totals for every cell (the engines raise
  ``AttributionMismatch`` otherwise, so reaching the summary *is* the
  proof);
* ``overhead`` — wall-clock seconds for three fast-engine passes of one
  trace with no sink attached vs. the same passes with attribution (the
  kernel logging its decisions and the sink classifying them); without a
  sink nothing is logged and the kernel's hit paths are unchanged;
* ``gate`` — the :data:`GATE` rules ``check_perf_trend.py`` reads: the
  cells and the invariant must match the committed file exactly, while
  the overhead timings may move.

Usage::

    PYTHONPATH=src python benchmarks/bench_attrib.py [--engine fast]
        [--trials N] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.arch.fastsim import FastMachine  # noqa: E402
from repro.core.walker import Walker  # noqa: E402
from repro.harness.configs import (  # noqa: E402
    CONFIG_NAMES,
    build_configured_program,
)
from repro.harness.experiment import Experiment  # noqa: E402
from repro.harness.profile import profile_cell  # noqa: E402
from repro.obs import Attribution  # noqa: E402

SWEEP = (("tcpip", CONFIG_NAMES), ("rpc", CONFIG_NAMES))

#: the perf-ledger gate rules (``benchmarks/check_perf_trend.py``)
GATE = [
    {"path": "cells", "better": "exact"},
    {"path": "invariant", "better": "exact"},
]


def profile_all_cells(engine: str) -> list:
    cells = []
    for stack, configs in SWEEP:
        for config in configs:
            cell = profile_cell(stack, config, engine=engine)
            data = cell.to_json()
            steady = data["steady"]
            layers = cell.steady.by_layer()
            top = cell.conflicts.top_pairs(1)
            cells.append(
                {
                    "stack": stack,
                    "config": config,
                    "engine": cell.engine,
                    "steady_mcpi": round(cell.steady.mcpi, 4),
                    "cold_mcpi": round(cell.cold.mcpi, 4),
                    "stall_cycles": steady["total_stall_cycles"],
                    "kinds": {
                        kind: sum(
                            b["stall_cycles"]
                            for b in steady["buckets"]
                            if b["kind"] == kind
                        )
                        for kind in ("cold", "conflict", "capacity", "write-buffer")
                    },
                    "layer_shares": {
                        layer: row["stall_cycles"]
                        for layer, row in sorted(layers.items())
                    },
                    "hottest_conflict": (
                        {
                            "evictor": top[0][0],
                            "victim": top[0][1],
                            "evictions": top[0][2],
                        }
                        if top
                        else None
                    ),
                }
            )
            print(
                f"  {stack:6s} {config:4s} steady mCPI {cell.steady.mcpi:5.2f} "
                f"({cell.steady.total_stall_cycles} stalls attributed, "
                f"invariant OK)"
            )
    return cells


def bench_overhead(trials: int) -> dict:
    """Fast-engine simulation of one trace, with and without a sink."""
    exp = Experiment("tcpip", "STD")
    events, data_env = exp.capture_roundtrip(42)
    build = build_configured_program("tcpip", "STD")
    walk = Walker(build.program, data_env).walk(list(events))
    packed = walk.packed

    def run(sink_factory) -> float:
        best = float("inf")
        for _ in range(trials):
            sink = sink_factory()
            machine = FastMachine(sink=sink)
            t0 = time.perf_counter()
            machine.run(packed)
            machine.warm_up(packed)
            machine.run(packed)
            best = min(best, time.perf_counter() - t0)
        return best

    disabled = run(lambda: None)
    enabled = run(lambda: Attribution(build.program))
    return {
        "trace_entries": len(packed),
        "disabled_seconds": round(disabled, 6),
        "enabled_seconds": round(enabled, 6),
        "overhead_factor": round(enabled / disabled, 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--engine",
        choices=["fast", "reference"],
        default="fast",
        help="engine to attribute against (default: fast)",
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=3,
        help="overhead-measurement trials (best is reported)",
    )
    parser.add_argument("--output", default=str(REPO / "BENCH_attrib.json"))
    args = parser.parse_args(argv)

    print(f"attributing all cells, {args.engine} engine ...", flush=True)
    cells = profile_all_cells(args.engine)

    print("attribution overhead (3 passes of one trace) ...", flush=True)
    overhead = bench_overhead(args.trials)
    print(
        f"  disabled {overhead['disabled_seconds']}s, "
        f"enabled {overhead['enabled_seconds']}s "
        f"({overhead['overhead_factor']}x)"
    )

    result = {
        "engine": args.engine,
        "cells": cells,
        "invariant": {
            "checked_cells": len(cells),
            "holds": True,  # AttributionMismatch would have aborted the run
        },
        "overhead": overhead,
        "gate": GATE,
    }
    pathlib.Path(args.output).write_text(json.dumps(result, indent=2) + "\n")
    print(f"\n{len(cells)} cells attributed -> {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
