#!/usr/bin/env python
"""Traffic-engine benchmark: streaming throughput and demux hit rates.

Produces ``BENCH_traffic.json`` (repo root) with machine-readable numbers:

* ``streaming`` — end-to-end packet throughput of the transition-memoized
  traffic engine (:mod:`repro.traffic`) on the acceptance cell (1M Zipf
  packets over 10k flows; ``--smoke`` shortens the stream but keeps the
  flow population) on the fast engine, plus the *naive* baseline: the same
  fast kernel re-simulating the dominant demux segment per packet with no
  transition memo.  Their ratio, ``streaming_speedup_vs_naive``, is the
  structural win the perf-ledger gate enforces — it is what lets a
  cycle-exact model stream millions of packets.
* ``hit_rates`` — the l4 flow-map hit rate per caching scheme on a fixed
  deterministic cell that is *identical* in smoke and full runs.  These
  are exact rational numbers, so the gate requires bit-for-bit equality
  with the committed baseline: any drift means the map/cache semantics
  changed, not the machine speed.
* ``gate`` — the :data:`GATE` rules ``check_perf_trend.py`` reads.

Usage::

    PYTHONPATH=src python benchmarks/bench_traffic.py [--smoke] [--trials N]

``--smoke`` is sized for CI (a few seconds); the committed baseline is
produced by a full run.
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
from repro.traffic import TrafficSpec, run_traffic_point  # noqa: E402
from repro.traffic.segments import SegmentLibrary  # noqa: E402
from repro.xkernel.map import SCHEME_SPECS, make_scheme  # noqa: E402

#: the deterministic hit-rate cell: identical in --smoke and full runs,
#: so the perf-ledger gate can require exact equality with the baseline
HIT_RATE_SPEC = TrafficSpec(
    stack="tcpip",
    config="OUT",
    packets=50_000,
    flows=2_000,
    mix="zipf",
    churn=0.001,
    warmup_packets=5_000,
    seed=0,
)

#: throughput cell: the acceptance-grade stream (full) vs a CI-sized one
FULL_STREAM = {"packets": 1_000_000, "flows": 10_000}
SMOKE_STREAM = {"packets": 100_000, "flows": 10_000}

#: per-packet passes timed for the naive (memo-free) baseline
NAIVE_PASSES = 2_000

#: the perf-ledger gate rules (``benchmarks/check_perf_trend.py``)
GATE = [
    {"path": "streaming.fast_packets_per_sec"},
    {"path": "streaming.naive_fast_packets_per_sec"},
    # the transition memo keeps at least half its recorded lead over
    # naive per-packet simulation, and never less than 10x
    {
        "path": "streaming.streaming_speedup_vs_naive",
        "better": "higher",
        "bound": 0.5,
        "floor": 10,
    },
    {"path": "hit_rates", "better": "exact"},
    *({"path": f"hit_rates.schemes.{make_scheme(s).name}"} for s in SCHEME_SPECS),
]


def bench_streaming(packets: int, flows: int, trials: int) -> dict:
    """Streamed packets/second on the throughput cell."""
    spec = TrafficSpec(packets=packets, flows=flows, mix="zipf")
    best = float("inf")
    for _ in range(trials):
        t0 = time.perf_counter()
        point = run_traffic_point(spec, "one-entry", engine="fast")
        best = min(best, time.perf_counter() - t0)
    return {
        "spec": spec.to_json(),
        "fast_packets_per_sec": round(packets / best),
        "novel_passes": point.novel_passes,
        "distinct_states": point.distinct_states,
    }


def bench_naive_fast() -> dict:
    """The memo-free baseline: one fast-kernel pass per packet.

    Times the dominant (established-hit) demux segment through a
    persistent ``FastMachine`` with no transition memoization — exactly
    the per-packet work a naive streaming loop would do.
    """
    lib = SegmentLibrary("tcpip", "OUT", population="tcp")
    scheme = make_scheme("one-entry")
    hit = ("tcp", (True, 1, 0), (True, 1, 0), (True, 1, 0), True)
    packed, _cpu = lib.segment(hit, scheme)
    machine = FastMachine()
    machine.reset()
    machine.mem_delta(packed)  # warm the hierarchy
    t0 = time.perf_counter()
    for _ in range(NAIVE_PASSES):
        machine.mem_delta(packed)
    elapsed = time.perf_counter() - t0
    return {
        "segment_entries": len(packed),
        "naive_fast_packets_per_sec": round(NAIVE_PASSES / elapsed),
    }


def bench_hit_rates() -> dict:
    """Per-scheme l4 hit rates on the fixed deterministic cell."""
    schemes = {}
    for spec_name in SCHEME_SPECS:
        point = run_traffic_point(HIT_RATE_SPEC, spec_name, engine="fast")
        schemes[make_scheme(spec_name).name] = round(point.l4_hit_rate, 6)
    return {"spec": HIT_RATE_SPEC.to_json(), "schemes": schemes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="reduced stream sized for CI"
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=1,
        help="streaming trials (best is reported)",
    )
    parser.add_argument("--output", default=str(REPO / "BENCH_traffic.json"))
    args = parser.parse_args(argv)

    stream = SMOKE_STREAM if args.smoke else FULL_STREAM

    print(
        f"streaming {stream['packets']:,} packets / {stream['flows']:,} "
        "flows ...",
        flush=True,
    )
    streaming = bench_streaming(stream["packets"], stream["flows"], args.trials)
    print(
        f"  fast {streaming['fast_packets_per_sec']:,} packets/s "
        f"({streaming['novel_passes']} novel passes, "
        f"{streaming['distinct_states']} states)"
    )

    print("naive per-packet baseline ...", flush=True)
    naive = bench_naive_fast()
    streaming.update(naive)
    streaming["streaming_speedup_vs_naive"] = round(
        streaming["fast_packets_per_sec"] / naive["naive_fast_packets_per_sec"], 2
    )
    print(
        f"  naive fast {naive['naive_fast_packets_per_sec']:,} packets/s "
        f"({naive['segment_entries']} entries/segment) -> streaming "
        f"{streaming['streaming_speedup_vs_naive']}x"
    )

    print("per-scheme hit rates (deterministic cell) ...", flush=True)
    hit_rates = bench_hit_rates()
    for name, rate in hit_rates["schemes"].items():
        print(f"  {name:<12} {rate:.4f}")

    result = {
        "smoke": args.smoke,
        "streaming": streaming,
        "hit_rates": hit_rates,
        "gate": GATE,
    }
    pathlib.Path(args.output).write_text(json.dumps(result, indent=2) + "\n")
    print(
        f"\nstreaming {streaming['streaming_speedup_vs_naive']}x naive "
        f"-> {args.output}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
