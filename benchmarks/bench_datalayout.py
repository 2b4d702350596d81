#!/usr/bin/env python
"""Data-techniques grid benchmark: the write-buffer floor under attack.

Produces ``BENCH_datalayout.json`` (repo root) with the full data-side
technique grid of :mod:`repro.datalayout`: every registered technique
(store coalescing, non-allocating writes, field packing, hot/cold
splitting, and their union) measured over the paper's 12 (stack x
configuration) cells, with per-cell write-buffer/d-cache stall counts and
static steady-state bounds under the same store behaviour.

The ``grid`` section deliberately omits the engine that produced it: the
engines are bit-identical, so one committed grid serves every engine and
the perf-ledger gate requires a fresh run to match it — any divergence
between engines or against the baseline is a drift failure, not a
tolerance judgement.  Beside the grid, ``best_cells_below_floor`` records
on how many of the 12 cells the best data technique pulls the steady
write-buffer bucket below the baseline floor — the floor the code-side
techniques of Section 2 never move; the gate requires at least 6.
``gate`` holds the :data:`GATE` rules ``check_perf_trend.py`` reads.

Usage::

    PYTHONPATH=src python benchmarks/bench_datalayout.py [--engine fast]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.api import DatalayoutSpec  # noqa: E402
from repro.datalayout import run_datalayout_study  # noqa: E402

#: the perf-ledger gate rules (``benchmarks/check_perf_trend.py``)
GATE = [
    {"path": "grid", "better": "exact"},
    {"path": "grid.wb_floor"},
    {"path": "grid.cells_below_floor"},
    {"path": "grid.cells"},
    {"path": "best_cells_below_floor", "better": "higher", "floor": 6},
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--engine",
        choices=["fast", "reference"],
        default="fast",
        help="measuring engine (the grid section is engine-independent)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--output", default=str(REPO / "BENCH_datalayout.json")
    )
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    study = run_datalayout_study(DatalayoutSpec(seed=args.seed), engine=args.engine)
    elapsed = time.perf_counter() - t0

    problems = study.check()
    for p in problems:
        print(f"CHECK FAIL: {p}", file=sys.stderr)

    grid = study.to_json()
    # the engine is provenance, not data: the grid must match bit for bit
    # across engines, so it lives outside the compared section
    del grid["engine"]
    result = {
        "engine": args.engine,
        "grid": grid,
        "best_cells_below_floor": max(grid["cells_below_floor"].values()),
        "gate": GATE,
    }
    pathlib.Path(args.output).write_text(json.dumps(result, indent=2) + "\n")

    print(study.render())
    print(
        f"{len(study.cells)} cells on the {args.engine} engine in "
        f"{elapsed:.1f}s -> {args.output}"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
