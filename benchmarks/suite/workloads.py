"""The four study workloads the suite measures, as seeded spec builders.

Each workload turns ``(seed, scale)`` into the specs one repetition
feeds to the public :mod:`repro.api` verbs (``make``), then runs them
(``execute``).  Only the generated specs reach the program; the seed
never does.  ``scale="tiny"`` shrinks every size so the self-tests run
all four workloads in seconds; ``"full"`` is what the benchmark times.

Why these four: each stresses a different layer set of the tool, and
each optimisation of one layer has a workload that exercises it and one
that bypasses it (see README.md for the layer map).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Tuple

from repro import api
from repro.api import DatalayoutSpec, ResilienceStudySpec, RunSpec, TrafficStudySpec
from repro.resilience.queueing import OverloadSpec
from repro.traffic import TrafficSpec

#: the paper's Table-4 sample counts (tcpip x10, rpc x5 per config)
_SWEEP_SAMPLES = {"full": {"tcpip": 10, "rpc": 5}, "tiny": {"tcpip": 1, "rpc": 1}}
_CONFIGS = ("BAD", "STD", "OUT", "CLO", "PIN", "ALL")


@dataclass
class Outcome:
    """What one repetition produced."""

    #: the studies' ``to_json()`` forms, digested for correctness
    output: Dict[str, Any]
    #: units of work done (samples, packets or cells)
    items: int
    #: ``Result.check()`` findings; any entry fails the repetition
    problems: List[str]
    #: the public ``TrafficPoint``s of a streaming study (per-layer counts)
    points: List[Any]
    #: fault arrivals the resilience study injected
    faulted_packets: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    #: what one item is
    item: str
    make: Callable[[int, str], Any]
    execute: Callable[[Any], Outcome]


# --------------------------------------------------------------------------- #
# sweep-table4: build, capture, walk, simulate, latency; never repro.traffic  #
# --------------------------------------------------------------------------- #


def _make_sweep(seed: int, scale: str) -> Tuple[RunSpec, Tuple[RunSpec, ...]]:
    samples = _SWEEP_SAMPLES[scale]
    base = 42 + seed
    reference = RunSpec("rpc", "ALL", samples=1, seed=base)
    runs = tuple(
        RunSpec(stack, config, samples=samples[stack], seed=base)
        for stack in ("tcpip", "rpc")
        for config in _CONFIGS
    )
    return reference, runs


def _run_sweep(inputs: Tuple[RunSpec, Tuple[RunSpec, ...]]) -> Outcome:
    # serial api.run, not api.sweep: api.sweep routes non-42 seeds down a
    # different path, so the seed would change the code being measured
    reference, runs = inputs
    ref = api.run(reference)
    results = [ref]
    for spec in runs:
        if spec.stack == "rpc":
            # the paper's server always runs the best (ALL) build
            spec = replace(spec, server_processing_us=ref.mean_processing_us)
        results.append(api.run(spec))
    return Outcome(
        output={
            "reference": ref.to_json(),
            "runs": [r.to_json() for r in results[1:]],
        },
        items=sum(len(r.samples) for r in results),
        problems=[p for r in results for p in r.check()],
        points=[],
    )


# --------------------------------------------------------------------------- #
# stream-zipf: the per-packet loop, with the simulator nearly idle            #
# --------------------------------------------------------------------------- #


def _make_zipf(seed: int, scale: str) -> TrafficStudySpec:
    if scale == "full":  # the BENCH_traffic.json acceptance cell
        sizes = dict(packets=1_000_000, flows=10_000, warmup_packets=10_000)
    else:
        sizes = dict(packets=20_000, flows=1_000, warmup_packets=1_000)
    stream = TrafficSpec(
        stack="tcpip",
        config="OUT",
        mix="zipf",
        zipf_s=1.1,
        churn=0.0,
        seed=seed,
        **sizes,
    )
    return TrafficStudySpec(traffic=stream, schemes=("one-entry",))


def _run_zipf(spec: TrafficStudySpec) -> Outcome:
    study = api.traffic(spec)
    return Outcome(
        output=study.to_json(),
        items=sum(p.packets for p in study.points),
        problems=study.check(),
        points=list(study.points),
    )


# --------------------------------------------------------------------------- #
# stream-mixed-churn: churn writes, fault variants, real novel passes, queue  #
# --------------------------------------------------------------------------- #


def _make_mixed(seed: int, scale: str) -> ResilienceStudySpec:
    # The stream and its fault arrivals are fixed; the seed moves the
    # offered loads.  A rep's cost is set by how many novel simulator
    # passes the stream discovers, which a few rare events decide: the
    # stream seed moved a rep's time by up to a third, and with the stream
    # fixed, ten fault seeds spread the novel passes by 10-13% (quartile
    # distance over median), wider than the 10% bound (see README.md).
    if scale == "full":
        sizes = dict(packets=200_000, flows=10_000, warmup_packets=10_000)
    else:
        sizes = dict(packets=10_000, flows=500, warmup_packets=1_000)
    stream = TrafficSpec(stack="mixed", mix="bursty", churn=0.01, seed=0, **sizes)
    shift = random.Random(seed).randint
    return ResilienceStudySpec(
        traffic=stream,
        schemes=("lru:4",),
        fault_rates=(0.02,),
        profile_seed=0,
        overload=OverloadSpec(
            loads=tuple(load + shift(-5, 5) for load in (80, 100, 120)),
            queue_capacity=64,
        ),
    )


def _run_mixed(spec: ResilienceStudySpec) -> Outcome:
    study = api.resilience(spec)
    return Outcome(
        output=study.to_json(),
        items=sum(p.traffic.packets for p in study.points),
        problems=study.check(),
        points=[p.traffic for p in study.points],
        faulted_packets=sum(p.faulted_packets for p in study.points),
    )


# --------------------------------------------------------------------------- #
# grid-datalayout: uncached builds, layout transforms, attribution, bounds    #
# --------------------------------------------------------------------------- #


def _make_grid(seed: int, scale: str) -> DatalayoutSpec:
    if scale == "full":
        return DatalayoutSpec(seed=42 + seed)
    return DatalayoutSpec(techniques=("pack",), configs=("STD", "CLO"), seed=42 + seed)


def _run_grid(spec: DatalayoutSpec) -> Outcome:
    study = api.datalayout(spec)
    return Outcome(
        output=study.to_json(),
        items=len(study.cells),
        problems=study.check(),
        points=[],
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("sweep-table4", "sample", _make_sweep, _run_sweep),
        Workload("stream-zipf", "packet", _make_zipf, _run_zipf),
        Workload("stream-mixed-churn", "packet", _make_mixed, _run_mixed),
        Workload("grid-datalayout", "cell", _make_grid, _run_grid),
    )
}
