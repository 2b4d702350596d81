#!/usr/bin/env python
"""Simulation-speed benchmark: the fast engine vs. the reference and seed.

Produces ``BENCH_simspeed.json`` (repo root) with machine-readable timings:

* ``kernel`` — single-pass simulation throughput in trace entries/second
  on the same trace: reference ``MachineSimulator`` and the fused
  ``FastMachine`` kernel;
* ``end_to_end`` — wall-clock seconds for the canonical Table-4 sweep
  (TCP/IP x 10 samples + RPC x 5 samples, all six configurations):

  - ``seed_seconds``: the repository's *seed commit* (the code before any
    of the fast-engine work — the first commit that ships ``src``),
    exported with ``git archive`` into a temp directory and driven in a
    subprocess — a same-machine, same-moment baseline;
  - ``reference_seconds``: the current tree with ``engine="reference"``
    and capture memoization disabled, i.e. the seed *algorithm* running
    on today's shared infrastructure;
  - ``fast_seconds``: the current tree's fast engine;

  both in-tree sides run serially (one core, no worker pool) and clear
  the caches before every trial; they alternate one trial each per
  round and report the best of ``--trials``, so their ratio compares
  like with like under the same host load.

* ``smoke_end_to_end`` — the same sweep at smoke size (2/1 samples),
  which the perf-ledger gate compares: a reduced sweep amortizes the
  result caches less than the full one, so it needs its own ratio;
* ``gate`` — the :data:`GATE` rules ``check_perf_trend.py`` reads.

Usage::

    PYTHONPATH=src python benchmarks/bench_simspeed.py [--smoke] [--trials N]

``--smoke`` runs only the smoke-sized sweep, written under
``smoke_end_to_end``, so CI can exercise the whole path in a few seconds;
the seed-commit baseline is still measured (at smoke size) unless
``--no-seed`` skips it.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.arch.fastsim import FastMachine  # noqa: E402
from repro.arch.simcache import clear_caches  # noqa: E402
from repro.arch.simulator import MachineSimulator  # noqa: E402
from repro.core.walker import Walker  # noqa: E402
from repro.harness.configs import (  # noqa: E402
    CONFIG_NAMES,
    build_configured_program,
    clear_build_memo,
)
from repro.harness.experiment import (  # noqa: E402
    Experiment,
    clear_capture_memo,
    run_all_configs,
)

#: the canonical Table-4 sweep the paper reports (per stack: samples)
FULL_SWEEP = (("tcpip", 10), ("rpc", 5))
SMOKE_SWEEP = (("tcpip", 2), ("rpc", 1))

#: the perf-ledger gate rules (``benchmarks/check_perf_trend.py``)
GATE = [
    {"path": "kernel.fast_entries_per_sec"},
    {"path": "end_to_end.fast_seconds"},
    {"path": "end_to_end.reference_seconds"},
    # a run without git history records null here, and the gate refuses it
    {"path": "end_to_end.seed_seconds"},
    {"path": "end_to_end.speedup_vs_reference"},
    {"path": "end_to_end.speedup_vs_seed"},
    # losing more than a fifth of the same-host lead over the reference
    # engine means the fast path lost a structural optimisation
    {"path": "smoke_end_to_end.speedup_vs_reference", "better": "higher",
     "bound": 0.2},
]


def _reset_caches() -> None:
    clear_caches()
    clear_capture_memo()
    clear_build_memo()


def bench_kernel() -> dict:
    """Single-pass throughput of both kernels on one real trace."""
    exp = Experiment("tcpip", "STD")
    events, data_env = exp.capture_roundtrip(42)
    build = build_configured_program("tcpip", "STD")
    walk = Walker(build.program, data_env).walk(events)
    trace = walk.trace
    packed = walk.packed
    entries = len(packed)

    def best_of(fn, repeats: int = 5) -> float:
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    ref_s = best_of(lambda: MachineSimulator().run(trace))
    fast_s = best_of(lambda: FastMachine().run(packed))
    return {
        "trace_entries": entries,
        "reference_entries_per_sec": round(entries / ref_s),
        "fast_entries_per_sec": round(entries / fast_s),
        "kernel_speedup": round(ref_s / fast_s, 2),
    }


def bench_fast(sweep) -> float:
    """One sweep on the fast engine, serial like the reference side."""
    _reset_caches()
    t0 = time.perf_counter()
    for stack, samples in sweep:
        run_all_configs(stack, CONFIG_NAMES, samples=samples, engine="fast",
                        parallel=False)
    return time.perf_counter() - t0


def bench_reference(sweep) -> float:
    """One sweep of the seed algorithm on today's tree: reference engine,
    no memoization."""
    _reset_caches()
    t0 = time.perf_counter()
    for stack, samples in sweep:
        server_ref = None
        if stack == "rpc":
            best = Experiment(stack, "ALL", engine="reference",
                              memoize_captures=False).run(samples=1)
            server_ref = best.mean_processing_us
        for config in CONFIG_NAMES:
            Experiment(stack, config, engine="reference",
                       memoize_captures=False,
                       server_processing_us=server_ref).run(samples=samples)
    return time.perf_counter() - t0


def bench_sweep(sweep, trials: int) -> tuple:
    """Best-of-``trials`` (fast, reference) seconds, one trial of each per
    round, so a burst of host load reaches both sides alike."""
    fast_s = reference_s = float("inf")
    for _ in range(trials):
        fast_s = min(fast_s, bench_fast(sweep))
        reference_s = min(reference_s, bench_reference(sweep))
    return fast_s, reference_s


_SEED_DRIVER = """\
import json, sys, time
from repro.harness.experiment import run_all_configs
tcpip_samples, rpc_samples = int(sys.argv[1]), int(sys.argv[2])
t0 = time.perf_counter()
run_all_configs("tcpip", samples=tcpip_samples)
run_all_configs("rpc", samples=rpc_samples)
print(json.dumps({"seconds": time.perf_counter() - t0}))
"""


def bench_seed_commit(sweep) -> float | None:
    """Export the seed commit and time its sweep in a subprocess.

    The seed is the first commit that ships ``src`` (the repository root
    commit is an empty marker, so ``--max-parents=0`` would export an
    empty tree).  Returns None when git or the seed tree is unavailable
    (e.g. running from an sdist) — callers fall back to the in-tree
    reference number.
    """
    try:
        seed_rev = subprocess.run(
            ["git", "rev-list", "--reverse", "HEAD", "--", "src"],
            cwd=REPO, capture_output=True, text=True, check=True,
        ).stdout.split()[0]
    except (subprocess.CalledProcessError, FileNotFoundError, IndexError):
        return None
    samples = dict(sweep)
    with tempfile.TemporaryDirectory(prefix="simspeed-seed-") as tmp:
        try:
            archive = subprocess.run(
                ["git", "archive", seed_rev], cwd=REPO,
                capture_output=True, check=True,
            )
            subprocess.run(
                ["tar", "-x", "-C", tmp], input=archive.stdout, check=True
            )
            out = subprocess.run(
                [sys.executable, "-c", _SEED_DRIVER,
                 str(samples["tcpip"]), str(samples["rpc"])],
                cwd=tmp, capture_output=True, text=True, check=True,
                env={"PYTHONPATH": str(pathlib.Path(tmp) / "src"),
                     "PATH": "/usr/bin:/bin"},
            ).stdout
        except (subprocess.CalledProcessError, FileNotFoundError):
            return None
    try:
        return float(json.loads(out.strip().splitlines()[-1])["seconds"])
    except (ValueError, KeyError, IndexError):
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sweep sized for CI")
    parser.add_argument("--no-seed", action="store_true",
                        help="skip the seed-commit subprocess baseline")
    def positive_int(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError("must be >= 1")
        return value

    parser.add_argument("--trials", type=positive_int, default=3,
                        help="trials per engine (the best is reported)")
    parser.add_argument("--output", default=str(REPO / "BENCH_simspeed.json"))
    args = parser.parse_args(argv)

    sweep = SMOKE_SWEEP if args.smoke else FULL_SWEEP

    print("kernel microbenchmark ...", flush=True)
    kernel = bench_kernel()
    print(f"  reference {kernel['reference_entries_per_sec']:,} entries/s, "
          f"fast {kernel['fast_entries_per_sec']:,} entries/s "
          f"({kernel['kernel_speedup']}x)")

    print("end-to-end sweep, fast and reference (seed algorithm) engines "
          "alternating ...", flush=True)
    fast_s, reference_s = bench_sweep(sweep, args.trials)
    print(f"  fast: {fast_s:.3f}s, reference: {reference_s:.3f}s")

    seed_s = None
    if not args.no_seed:
        print("end-to-end sweep, seed commit (git archive) ...", flush=True)
        seed_s = bench_seed_commit(sweep)
        print(f"  seed: {seed_s:.3f}s" if seed_s is not None
              else "  seed commit unavailable (no git?); skipped")

    smoke_baseline = None
    if not args.smoke:
        # Also record the smoke-sized ratio the gate compares: CI runs
        # --smoke (the full sweep is too slow for every PR).
        print("smoke-sized sweep (perf-ledger gate baseline) ...", flush=True)
        smoke_fast_s, smoke_reference_s = bench_sweep(SMOKE_SWEEP,
                                                      max(args.trials, 3))
        smoke_baseline = {
            "sweep": [{"stack": s, "samples": n} for s, n in SMOKE_SWEEP],
            "fast_seconds": round(smoke_fast_s, 3),
            "reference_seconds": round(smoke_reference_s, 3),
            "speedup_vs_reference": round(smoke_reference_s / smoke_fast_s, 2),
        }
        print(f"  smoke: fast {smoke_fast_s:.3f}s, "
              f"reference {smoke_reference_s:.3f}s "
              f"({smoke_baseline['speedup_vs_reference']}x)")

    baseline = seed_s if seed_s is not None else reference_s
    section = "smoke_end_to_end" if args.smoke else "end_to_end"
    result = {
        "smoke": args.smoke,
        "kernel": kernel,
        section: {
            "sweep": [{"stack": s, "samples": n} for s, n in sweep],
            "fast_seconds": round(fast_s, 3),
            "reference_seconds": round(reference_s, 3),
            "seed_seconds": None if seed_s is None else round(seed_s, 3),
            "speedup_vs_reference": round(reference_s / fast_s, 2),
            "speedup_vs_seed": None if seed_s is None
            else round(seed_s / fast_s, 2),
            "speedup": round(baseline / fast_s, 2),
        },
    }
    if smoke_baseline is not None:
        result["smoke_end_to_end"] = smoke_baseline
    result["gate"] = GATE
    pathlib.Path(args.output).write_text(json.dumps(result, indent=2) + "\n")
    print(f"\nspeedup: {result[section]['speedup']}x, fast kernel "
          f"{kernel['kernel_speedup']}x reference -> {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
