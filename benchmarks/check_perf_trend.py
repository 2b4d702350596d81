#!/usr/bin/env python
"""Perf-trend gate: compare a smoke benchmark run against the committed
baseline and fail on a regression.

``BENCH_simspeed.json`` (repo root) records, as measured on the machine
that produced it, the fast engine's end-to-end speedup over the
reference engine.

CI machines differ in absolute speed, but *ratios* between engines on
the same box are stable — so the gate runs ``bench_simspeed.py --smoke``
and requires::

    measured speedup_vs_reference >= threshold * recorded speedup_vs_reference

A failure means the fast path lost a structural optimisation (caching
disabled, packed-trace reuse broken, a per-instruction branch crept
into the kernel, ...).

The gate also covers the traffic engine: ``--traffic`` points at a
``bench_traffic.py`` smoke run and requires::

    measured streaming_speedup_vs_naive >= max(10, traffic-threshold * recorded)
    measured hit_rates == recorded hit_rates   (bit-for-bit)

The first failing means the transition-memoized stream lost its replay
advantage over naive per-packet simulation; the second that the flow-map
caching semantics drifted (hit rates on the fixed deterministic cell are
exact rationals, not timings).

And the resilience harness: ``--resilience`` points at a
``bench_resilience.py`` smoke run and requires::

    measured resilience_throughput_vs_traffic
        >= resilience-threshold * recorded
    measured latency cell == recorded latency cell   (bit-for-bit)

plus a valid baseline whose acceptance-scale saturation sweep actually
detected a saturation point (a null would mean the latency harness lost
the knee).  The first failing means pricing protocol error paths broke
the transition memo (faulted variants stopped being memoizable); the
second that fault arrivals, error-path costs or queue semantics drifted
on the fixed deterministic cell — every number there is an exact
integer, so equality is the gate, not a tolerance.

And the data-techniques grid: ``--datalayout`` points at a
``bench_datalayout.py`` run and requires::

    measured grid == recorded grid               (bit-for-bit)
    max(recorded cells_below_floor) >= 6 of 12   (acceptance floor)

Every number in the grid is an exact integer count, and the section
deliberately names no engine, so a fresh run on any engine must match
it; the floor failing means the data-side techniques stopped beating
the write-buffer stall plateau.

Every committed baseline is validated first: a null in an enforced field
(e.g. ``seed_seconds`` from a run that could not export the seed commit)
fails the gate instead of silently weakening it.  A baseline that lacks
a gated *section* entirely (an older file from before the section
existed) is different from one carrying nulls: the gate announces the
absence and skips that comparison instead of failing, so new sections
can be introduced without invalidating every historical baseline.

Usage::

    PYTHONPATH=src python benchmarks/bench_simspeed.py --smoke --trials 1 \
        --output /tmp/smoke.json
    python benchmarks/check_perf_trend.py /tmp/smoke.json [--threshold 0.8]

    PYTHONPATH=src python benchmarks/bench_traffic.py --smoke \
        --output /tmp/traffic.json
    python benchmarks/check_perf_trend.py --traffic /tmp/traffic.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
BASELINE = REPO / "BENCH_simspeed.json"
TRAFFIC_BASELINE = REPO / "BENCH_traffic.json"
RESILIENCE_BASELINE = REPO / "BENCH_resilience.json"
DATALAYOUT_BASELINE = REPO / "BENCH_datalayout.json"

#: the datalayout acceptance floor: at least one data technique must pull
#: the steady write-buffer bucket below the baseline floor on this many
#: of the 12 grid cells
DATALAYOUT_CELL_FLOOR = 6

#: the traffic acceptance floor: transition-memoized streaming must beat
#: naive per-packet simulation by at least this factor regardless of
#: what was recorded
TRAFFIC_STREAM_FLOOR = 10.0

#: baseline fields that must hold real numbers; a null means the
#: benchmark run that produced the baseline skipped a measurement
REQUIRED_END_TO_END = (
    "fast_seconds",
    "reference_seconds",
    "seed_seconds",
    "speedup_vs_reference",
    "speedup_vs_seed",
)
REQUIRED_KERNEL = ("fast_entries_per_sec",)
REQUIRED_TRAFFIC_STREAMING = (
    "fast_packets_per_sec",
    "naive_fast_packets_per_sec",
    "streaming_speedup_vs_naive",
)
REQUIRED_RESILIENCE_STREAMING = (
    "fast_packets_per_sec",
    "pristine_fast_packets_per_sec",
    "resilience_throughput_vs_traffic",
)


def missing_fields(baseline: dict, section: str, names) -> "list | None":
    """Audit one baseline section's enforced fields.

    Returns ``None`` when the section is absent altogether — the baseline
    predates the gate, and the caller announces the skip via
    :func:`section_absent` instead of failing.  A present section with
    null/missing enforced fields returns their names: that baseline run
    *attempted* the measurement and lost data, which stays a failure.
    """
    if section not in baseline:
        return None
    present = baseline[section] or {}
    return [f"{section}.{name}" for name in names if present.get(name) is None]


def section_absent(section: str, baseline_path: str) -> None:
    """Announce (loudly, but without failing) a skipped baseline section."""
    print(
        f"SECTION ABSENT: {baseline_path} has no {section!r} section — the "
        "baseline predates this gate, skipping it; regenerate the baseline "
        "to start enforcing it"
    )


def baseline_invalid(missing, baseline_path: str, regen: str) -> None:
    print(
        f"BASELINE INVALID: null/missing field(s) in {baseline_path}: "
        f"{', '.join(missing)} — regenerate it with "
        f"`PYTHONPATH=src python benchmarks/{regen}`",
        file=sys.stderr,
    )


def check_traffic(smoke_path: str, baseline_path: str, threshold: float) -> bool:
    """The traffic-engine gate; returns True on failure."""
    baseline = json.loads(pathlib.Path(baseline_path).read_text())
    smoke = json.loads(pathlib.Path(smoke_path).read_text())

    missing = missing_fields(
        baseline, "streaming", REQUIRED_TRAFFIC_STREAMING
    )
    rate_section = "hit_rates" in baseline
    recorded_rates = (baseline.get("hit_rates") or {}).get("schemes") or {}
    if rate_section:
        if not recorded_rates:
            missing = (missing or []) + ["hit_rates.schemes"]
        else:
            missing = (missing or []) + [
                f"hit_rates.schemes.{name}"
                for name, rate in recorded_rates.items()
                if rate is None
            ]
    if missing:
        baseline_invalid(missing, baseline_path, "bench_traffic.py")
        return True

    failed = False
    if "streaming" not in baseline:
        section_absent("streaming", baseline_path)
    else:
        recorded = baseline["streaming"]["streaming_speedup_vs_naive"]
        measured = smoke.get("streaming", {}).get("streaming_speedup_vs_naive")
        if measured is None:
            print(
                f"\nPERF REGRESSION: {smoke_path} carries no "
                "streaming.streaming_speedup_vs_naive — the smoke benchmark "
                "no longer measures the streaming engine",
                file=sys.stderr,
            )
            failed = True
        else:
            floor = max(TRAFFIC_STREAM_FLOOR, threshold * recorded)
            print(
                f"recorded streaming_speedup_vs_naive: {recorded}x "
                f"({baseline_path})"
            )
            print(
                f"measured streaming_speedup_vs_naive: {measured}x "
                f"({smoke_path})"
            )
            print(
                f"traffic floor (max({TRAFFIC_STREAM_FLOOR}, "
                f"{threshold} x recorded)): {floor:.2f}x"
            )
            if measured < floor:
                print(
                    f"\nPERF REGRESSION: streaming {measured}x < {floor:.2f}x "
                    "over naive per-packet simulation — the transition memo "
                    "lost its replay advantage",
                    file=sys.stderr,
                )
                failed = True

    # hit rates on the fixed cell are exact rationals: require identity
    if not rate_section:
        section_absent("hit_rates", baseline_path)
        return failed
    measured_cell = smoke.get("hit_rates", {})
    if measured_cell.get("spec") != baseline["hit_rates"].get("spec"):
        print(
            "\nHIT-RATE GATE: smoke and baseline measured different "
            "deterministic cells — bench_traffic.py's HIT_RATE_SPEC must "
            "match the committed baseline",
            file=sys.stderr,
        )
        failed = True
    elif measured_cell.get("schemes") != recorded_rates:
        print(
            f"\nHIT-RATE DRIFT: per-scheme hit rates moved on the fixed "
            f"deterministic cell\n  recorded: {recorded_rates}\n  measured: "
            f"{measured_cell.get('schemes')}\nThe flow-map caching semantics "
            "changed; if intentional, regenerate BENCH_traffic.json",
            file=sys.stderr,
        )
        failed = True
    else:
        print(f"hit rates identical across {len(recorded_rates)} schemes")

    return failed


def check_resilience(
    smoke_path: str, baseline_path: str, threshold: float
) -> bool:
    """The resilience-harness gate; returns True on failure."""
    baseline = json.loads(pathlib.Path(baseline_path).read_text())
    smoke = json.loads(pathlib.Path(smoke_path).read_text())

    missing = missing_fields(
        baseline, "streaming", REQUIRED_RESILIENCE_STREAMING
    ) or []
    if "latency" in baseline and not (baseline["latency"] or {}).get("loads"):
        missing.append("latency.loads")
    if "saturation" in baseline and (
        (baseline["saturation"] or {}).get("saturation_point") is None
    ):
        # the acceptance proof: the full-run baseline must have found a
        # saturation knee at stream scale, not skipped the sweep
        missing.append("saturation.saturation_point")
    if missing:
        baseline_invalid(missing, baseline_path, "bench_resilience.py")
        return True

    failed = False
    if "streaming" not in baseline:
        section_absent("streaming", baseline_path)
    else:
        recorded = baseline["streaming"]["resilience_throughput_vs_traffic"]
        measured = smoke.get("streaming", {}).get(
            "resilience_throughput_vs_traffic"
        )
        if measured is None:
            print(
                f"\nPERF REGRESSION: {smoke_path} carries no "
                "streaming.resilience_throughput_vs_traffic — the smoke "
                "benchmark no longer measures the faulted stream",
                file=sys.stderr,
            )
            failed = True
        else:
            floor = threshold * recorded
            print(
                f"recorded resilience_throughput_vs_traffic: {recorded}x "
                f"({baseline_path})"
            )
            print(
                f"measured resilience_throughput_vs_traffic: {measured}x "
                f"({smoke_path})"
            )
            print(f"resilience floor ({threshold} x recorded): {floor:.2f}x")
            if measured < floor:
                print(
                    f"\nPERF REGRESSION: faulted streaming at {measured}x "
                    f"pristine < {floor:.2f}x — pricing protocol error paths "
                    "broke the transition memo",
                    file=sys.stderr,
                )
                failed = True

    # the latency cell is exact integers on a fixed spec: require identity
    if "latency" not in baseline:
        section_absent("latency", baseline_path)
    elif smoke.get("latency") != baseline["latency"]:
        print(
            "\nLATENCY DRIFT: the fixed deterministic resilience cell "
            "moved\nFault arrivals, error-path pricing or queue semantics "
            "changed; if intentional, regenerate BENCH_resilience.json",
            file=sys.stderr,
        )
        failed = True
    else:
        n = len(baseline["latency"]["loads"])
        print(f"latency cell identical across {n} offered-load points")

    return failed


def check_datalayout(fresh_path: str, baseline_path: str) -> bool:
    """The data-techniques grid gate; returns True on failure.

    Every grid number is an exact integer count (no timings), so the
    comparison is bit-for-bit identity — the fresh run comes from
    whichever engine the CI leg selected, and the committed baseline
    names none, making identity the cross-engine equivalence proof.
    """
    baseline = json.loads(pathlib.Path(baseline_path).read_text())
    fresh = json.loads(pathlib.Path(fresh_path).read_text())

    if "grid" not in baseline:
        section_absent("grid", baseline_path)
        return False
    recorded = baseline["grid"] or {}
    missing = [
        f"grid.{name}"
        for name in ("wb_floor", "cells_below_floor", "cells")
        if not recorded.get(name)
    ]
    if missing:
        baseline_invalid(missing, baseline_path, "bench_datalayout.py")
        return True

    failed = False
    below = recorded["cells_below_floor"]
    best = max(below.values())
    print(f"recorded cells_below_floor: {below} ({baseline_path})")
    if best < DATALAYOUT_CELL_FLOOR:
        print(
            f"\nDATALAYOUT FLOOR: best technique pulls only {best} of 12 "
            f"cells below the write-buffer floor (< {DATALAYOUT_CELL_FLOOR}) "
            "— the data-side techniques stopped beating the stall plateau",
            file=sys.stderr,
        )
        failed = True

    measured = fresh.get("grid")
    if measured != recorded:
        engine = fresh.get("engine", "?")
        print(
            f"\nDATALAYOUT DRIFT: the grid regenerated on the {engine} "
            "engine differs from the committed baseline\nStore behaviour, "
            "layout transforms, attribution or bounds changed; if "
            "intentional, regenerate BENCH_datalayout.json and the golden "
            "table together",
            file=sys.stderr,
        )
        failed = True
    else:
        print(
            f"grid identical across {len(recorded['cells'])} cells "
            f"({fresh.get('engine', '?')} engine vs committed baseline)"
        )
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "smoke",
        nargs="?",
        default=None,
        help="JSON produced by bench_simspeed.py --smoke",
    )
    parser.add_argument("--baseline", default=str(BASELINE))
    parser.add_argument(
        "--traffic",
        metavar="PATH",
        default=None,
        help="also (or only) gate a bench_traffic.py --smoke run",
    )
    parser.add_argument("--traffic-baseline", default=str(TRAFFIC_BASELINE))
    parser.add_argument(
        "--traffic-threshold",
        type=float,
        default=0.5,
        help="minimum measured/recorded streaming-speedup ratio; the hard "
        f"floor of {TRAFFIC_STREAM_FLOOR}x naive always applies "
        "(default 0.5)",
    )
    parser.add_argument(
        "--resilience",
        metavar="PATH",
        default=None,
        help="also (or only) gate a bench_resilience.py --smoke run",
    )
    parser.add_argument(
        "--resilience-baseline", default=str(RESILIENCE_BASELINE)
    )
    parser.add_argument(
        "--resilience-threshold",
        type=float,
        default=0.5,
        help="minimum measured/recorded faulted-vs-pristine throughput "
        "ratio (default 0.5)",
    )
    parser.add_argument(
        "--datalayout",
        metavar="PATH",
        default=None,
        help="also (or only) gate a bench_datalayout.py run (bit-for-bit "
        "grid identity plus the cells-below-floor acceptance)",
    )
    parser.add_argument(
        "--datalayout-baseline", default=str(DATALAYOUT_BASELINE)
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.8,
        help="minimum measured/recorded end-to-end speedup ratio "
        "(default 0.8)",
    )
    args = parser.parse_args(argv)

    if (
        args.smoke is None
        and args.traffic is None
        and args.resilience is None
        and args.datalayout is None
    ):
        parser.error(
            "nothing to check: pass a simspeed smoke JSON, --traffic, "
            "--resilience, --datalayout, or any combination"
        )

    traffic_failed = False
    if args.traffic is not None:
        traffic_failed = check_traffic(
            args.traffic, args.traffic_baseline, args.traffic_threshold
        )
    if args.resilience is not None:
        if check_resilience(
            args.resilience, args.resilience_baseline,
            args.resilience_threshold,
        ):
            traffic_failed = True
    if args.datalayout is not None:
        if check_datalayout(args.datalayout, args.datalayout_baseline):
            traffic_failed = True
    if args.smoke is None:
        if traffic_failed:
            return 1
        print("\nperf trend OK")
        return 0

    baseline = json.loads(pathlib.Path(args.baseline).read_text())
    smoke = json.loads(pathlib.Path(args.smoke).read_text())

    missing = (
        (missing_fields(baseline, "end_to_end", REQUIRED_END_TO_END) or [])
        + (missing_fields(baseline, "kernel", REQUIRED_KERNEL) or [])
    )
    if missing:
        print(
            f"BASELINE INVALID: null/missing field(s) in {args.baseline}: "
            f"{', '.join(missing)} — regenerate it with "
            "`PYTHONPATH=src python benchmarks/bench_simspeed.py` from a "
            "full git checkout (the seed baseline needs git)",
            file=sys.stderr,
        )
        return 1

    failed = traffic_failed
    if "end_to_end" not in baseline:
        section_absent("end_to_end", args.baseline)
    else:
        # a smoke run is compared against the recorded smoke-sized ratio:
        # the reduced sweep amortizes the result caches less than the full
        section = "smoke_end_to_end" if smoke.get("smoke") else "end_to_end"
        recorded = baseline.get(section, baseline["end_to_end"])[
            "speedup_vs_reference"
        ]
        measured = smoke["end_to_end"]["speedup_vs_reference"]
        floor = args.threshold * recorded

        print(f"recorded speedup_vs_reference: {recorded}x ({args.baseline})")
        print(f"measured speedup_vs_reference: {measured}x ({args.smoke})")
        print(f"floor ({args.threshold} x recorded): {floor:.2f}x")

        if measured < floor:
            print(
                f"\nPERF REGRESSION: {measured}x < {floor:.2f}x — the fast "
                "engine lost ground against the reference engine",
                file=sys.stderr,
            )
            failed = True

    if failed:
        return 1
    print("\nperf trend OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
