#!/usr/bin/env python
"""Resilience benchmark: faulted-stream throughput and latency curves.

Produces ``BENCH_resilience.json`` (repo root) with machine-readable
numbers:

* ``latency`` — the full resilience cell on a fixed deterministic spec
  that is *identical* in smoke and full runs: per-kind fault counts and
  the offered-load vs p50/p99/p999 sojourn curve of one faulted
  (scheme, mix) point.  Every number is an exact integer, so the
  perf-ledger gate requires bit-for-bit equality with the committed
  baseline: any drift means the fault arrivals, error-path pricing or
  queue semantics changed, not the machine speed.
* ``streaming`` — end-to-end packet throughput of a *faulted* stream on
  the acceptance cell (1M Zipf packets over 10k flows at a 1% total
  fault rate; ``--smoke`` shortens the stream but keeps the flow
  population) on the fast engine, plus the pristine stream's throughput
  on the same cell.  Their ratio, ``resilience_throughput_vs_traffic``,
  is the structural claim the gate enforces: faulted variants stay
  transition-memoizable, so pricing real error paths must not collapse
  streaming throughput.
* ``saturation`` — the acceptance proof: the same 1M-packet faulted cell
  swept over the offered-load schedule, with the detected saturation
  point (null would fail the gate: the latency harness must find the
  knee at acceptance scale).
* ``gate`` — the :data:`GATE` rules ``check_perf_trend.py`` reads.

Usage::

    PYTHONPATH=src python benchmarks/bench_resilience.py [--smoke] [--trials N]

``--smoke`` is sized for CI (tens of seconds); the committed baseline is
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

from repro.resilience import (  # noqa: E402
    FaultProfile,
    OverloadSpec,
    run_resilience_point,
)
from repro.traffic import TrafficSpec, run_traffic_point  # noqa: E402

#: the deterministic latency cell: identical in --smoke and full runs,
#: so the perf-ledger gate can require exact equality with the baseline
LATENCY_SPEC = TrafficSpec(
    stack="tcpip",
    config="OUT",
    packets=50_000,
    flows=2_000,
    mix="zipf",
    churn=0.001,
    warmup_packets=5_000,
    seed=0,
)
LATENCY_PROFILE = FaultProfile.uniform(0.02, seed=0)
LATENCY_OVERLOAD = OverloadSpec(loads=(80, 100, 120), queue_capacity=64)

#: throughput/saturation cell: the acceptance-grade faulted stream
#: (full) vs a CI-sized one; same flow population either way
FULL_STREAM = {"packets": 1_000_000, "flows": 10_000}
SMOKE_STREAM = {"packets": 100_000, "flows": 10_000}
STREAM_FAULT_RATE = 0.01

#: the perf-ledger gate rules (``benchmarks/check_perf_trend.py``)
GATE = [
    {"path": "streaming.fast_packets_per_sec"},
    {"path": "streaming.pristine_fast_packets_per_sec"},
    # faulted variants stay memoizable: pricing error paths keeps at
    # least half the recorded faulted-vs-pristine throughput ratio
    {
        "path": "streaming.resilience_throughput_vs_traffic",
        "better": "higher",
        "bound": 0.5,
    },
    {"path": "latency", "better": "exact"},
    {"path": "latency.loads"},
    # the acceptance proof: the full run found the saturation knee
    {"path": "saturation.saturation_point"},
]


def bench_latency() -> dict:
    """The fixed deterministic cell: exact integers, gated bit-for-bit."""
    point = run_resilience_point(
        LATENCY_SPEC,
        "lru:4",
        profile=LATENCY_PROFILE,
        overload=LATENCY_OVERLOAD,
        engine="fast",
    )
    return {
        "spec": LATENCY_SPEC.to_json(),
        "profile": LATENCY_PROFILE.to_json(),
        "overload": LATENCY_OVERLOAD.to_json(),
        "scheme": "lru:4",
        "fault_counts": point.fault_counts,
        "base_service_cycles": point.base_service_cycles,
        "loads": [lp.to_json() for lp in point.load_points],
        "saturation_point": point.saturation_point,
    }


def bench_streaming(packets: int, flows: int, trials: int) -> dict:
    """Faulted vs pristine packets/second on the throughput cell."""
    spec = TrafficSpec(packets=packets, flows=flows, mix="zipf")
    profile = FaultProfile.uniform(STREAM_FAULT_RATE, seed=0)
    overload = OverloadSpec(loads=(100,))
    out = {
        "spec": spec.to_json(),
        "profile": profile.to_json(),
    }
    best = float("inf")
    for _ in range(trials):
        t0 = time.perf_counter()
        point = run_resilience_point(
            spec, "one-entry", profile=profile, overload=overload, engine="fast"
        )
        best = min(best, time.perf_counter() - t0)
    out["fast_packets_per_sec"] = round(packets / best)
    best = float("inf")
    for _ in range(trials):
        t0 = time.perf_counter()
        run_traffic_point(spec, "one-entry", engine="fast")
        best = min(best, time.perf_counter() - t0)
    out["pristine_fast_packets_per_sec"] = round(packets / best)
    out["resilience_throughput_vs_traffic"] = round(
        out["fast_packets_per_sec"] / out["pristine_fast_packets_per_sec"], 2
    )
    out["faulted_packets"] = point.faulted_packets
    out["novel_passes"] = point.traffic.novel_passes
    out["distinct_states"] = point.traffic.distinct_states
    return out


def bench_saturation(packets: int, flows: int) -> dict:
    """The acceptance proof: a detected saturation knee at stream scale."""
    spec = TrafficSpec(packets=packets, flows=flows, mix="zipf")
    profile = FaultProfile.uniform(STREAM_FAULT_RATE, seed=0)
    overload = OverloadSpec()
    point = run_resilience_point(
        spec, "one-entry", profile=profile, overload=overload, engine="fast"
    )
    return {
        "spec": spec.to_json(),
        "scheme": "one-entry",
        "loads": [lp.to_json() for lp in point.load_points],
        "saturation_point": point.saturation_point,
    }


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
    parser.add_argument("--output", default=str(REPO / "BENCH_resilience.json"))
    args = parser.parse_args(argv)

    stream = SMOKE_STREAM if args.smoke else FULL_STREAM

    print("deterministic latency cell ...", flush=True)
    latency = bench_latency()
    for lp in latency["loads"]:
        print(
            f"  load {lp['load_pct']:>3}%: p50={lp['p50']} p99={lp['p99']} "
            f"p999={lp['p999']} dropped={lp['dropped']}"
        )

    print(
        f"streaming {stream['packets']:,} faulted packets / "
        f"{stream['flows']:,} flows ...",
        flush=True,
    )
    streaming = bench_streaming(
        stream["packets"], stream["flows"], args.trials
    )
    print(
        f"  faulted fast {streaming['fast_packets_per_sec']:,} packets/s, "
        f"pristine fast {streaming['pristine_fast_packets_per_sec']:,} "
        f"packets/s -> {streaming['resilience_throughput_vs_traffic']}x"
    )

    print("offered-load saturation sweep ...", flush=True)
    saturation = bench_saturation(stream["packets"], stream["flows"])
    print(f"  saturation point: {saturation['saturation_point']}%")

    result = {
        "smoke": args.smoke,
        "latency": latency,
        "streaming": streaming,
        "saturation": saturation,
        "gate": GATE,
    }
    pathlib.Path(args.output).write_text(json.dumps(result, indent=2) + "\n")
    print(
        f"\nfaulted streaming at "
        f"{streaming['resilience_throughput_vs_traffic']}x pristine, "
        f"saturates at {saturation['saturation_point']}% -> {args.output}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
