"""Outside-in layer tracing: wrap each layer's public callables.

Nothing inside ``src/`` knows it is being traced.  :func:`install`
replaces each hooked attribute *where its caller looks it up* (a module
global, or a method on its class) with a timing wrapper, so the program
runs unchanged apart from the wrapper cost, which ``trace.overhead_frac``
reports.

Nesting is tracked on one stack: a span's self time is its duration
minus the time its hooked children took.  Coarse spans (builds,
captures, walks, whole streams) are kept as ``(name, start, end,
parent)`` records; per-packet hooks only aggregate call count and
self time, so memory stays bounded on million-packet streams.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

ZIPF = "stream-zipf"
MIXED = "stream-mixed-churn"
SWEEP = "sweep-table4"
GRID = "grid-datalayout"

#: hook kinds
SPAN = "span"  # timed, recorded as a span
AGG = "agg"  # timed, aggregated only (per-packet callables)
COUNT = "count"  # counted only: its time stays in the caller's self time
CLOSURE = "closure"  # the callable returned by the hooked one is timed (AGG)
MACHINE = "machine"  # the returned machine's ``mem_delta`` is timed (AGG)


@dataclass(frozen=True)
class Hook:
    #: aggregate the wrapper feeds; several hooks may share one
    stem: str
    #: ``module:function`` or ``module:Class.method``
    target: str
    kind: str
    #: workloads on which the hook must fire (else it is listed missing)
    fires_on: Tuple[str, ...]
    #: optional per-call work units drawn from the return value
    units: Optional[Callable[[Any], int]] = None

    @property
    def module(self) -> str:
        return self.target.split(":")[0]


def _entries(walk: Any) -> int:
    return walk.length


# The sweep's experiments resolve the simulators in repro.harness.experiment;
# the grid resolves them in repro.arch.simcache at call time.  Only the default
# engine's simulator is hooked: reps clear REPRO_*, so gensim never runs.  The
# grid hands digest_trace a WalkResult.trace, whose first read runs
# PackedTrace.entries (one object per instruction).
# fmt: off
HOOKS: Tuple[Hook, ...] = (
    Hook("harness.configs.build", "repro.harness.configs:build_configured_program", SPAN, (GRID, SWEEP)),
    Hook("harness.experiment.capture", "repro.harness.experiment:Experiment.capture_roundtrip", SPAN, (SWEEP,)),
    Hook("harness.experiment.network", "repro.harness.experiment:build_tcpip_network", COUNT, (SWEEP,)),
    Hook("harness.experiment.network", "repro.harness.experiment:build_rpc_network", COUNT, (SWEEP,)),
    Hook("core.fastwalk.walk", "repro.core.fastwalk:FastWalker.walk", SPAN, (SWEEP, GRID), _entries),
    Hook("arch.simcache.simulate", "repro.harness.experiment:simulate_cold_and_steady_cached", SPAN, (SWEEP,)),
    Hook("arch.simcache.simulate", "repro.arch.simcache:simulate_cold_and_steady_cached", SPAN, (GRID,)),
    Hook("arch.kernel", "repro.arch.simcache:cold_and_steady_memory", SPAN, (SWEEP,)),
    Hook("harness.latency.model", "repro.harness.latency:LatencyModel.roundtrip_us", SPAN, (SWEEP,)),
    Hook("traffic.study.loop_self", "repro.traffic.study:run_traffic_point", SPAN, (ZIPF,)),
    Hook("traffic.study.loop_self", "repro.resilience.study:run_traffic_point", SPAN, (MIXED,)),
    Hook("traffic.arrivals.sample", "repro.traffic.arrivals:ArrivalSampler.next", AGG, (ZIPF,)),
    Hook("traffic.flowtable.probe", "repro.traffic.flowtable:FlowTables.probe_packet", AGG, (ZIPF,)),
    Hook("traffic.flowtable.probe", "repro.traffic.flowtable:FlowTables.probe_pre_l4", AGG, (MIXED,)),
    Hook("traffic.flowtable.churn", "repro.traffic.flowtable:FlowTables.open_flow", AGG, (MIXED,)),
    Hook("traffic.flowtable.churn", "repro.traffic.flowtable:FlowTables.close_flow", AGG, (MIXED,)),
    Hook("traffic.segments.library", "repro.traffic.segments:SegmentLibrary.__init__", SPAN, (MIXED,)),
    Hook("traffic.segments.segment", "repro.traffic.segments:SegmentLibrary.segment", AGG, (MIXED,)),
    Hook("traffic.stream.feed", "repro.traffic.stream:TransitionStream.feed", AGG, (ZIPF, MIXED)),
    Hook("traffic.stream.kernel", "repro.traffic.study:make_stream_machine", MACHINE, (MIXED,)),
    Hook("resilience.faults.draw", "repro.resilience.faults:FaultProfile.arrivals", CLOSURE, (MIXED,)),
    Hook("resilience.queueing.queue", "repro.resilience.study:simulate_queue", SPAN, (MIXED,)),
    Hook("datalayout.transforms.apply", "repro.datalayout.study:apply_data_layout", SPAN, (GRID,)),
    Hook("obs.attribution.observe", "repro.obs.attribution:Attribution.observe_pass", SPAN, (GRID,)),
    Hook("obs.attribution.harvest", "repro.obs.attribution:Attribution.harvest", SPAN, (GRID,)),
    Hook("arch.packed.entries", "repro.arch.packed:PackedTrace.entries", SPAN, (GRID,)),
    Hook("analysis.bounds.digest", "repro.analysis.bounds:digest_trace", SPAN, (GRID,)),
    Hook("analysis.bounds.fixpoint", "repro.analysis.bounds:bounds_from_digest", SPAN, (GRID,)),
)
# fmt: on

#: every module a hook names; imported in every repetition's set-up, traced
#: or not, so import cost never lands in one timed region and not the other
HOOKED_MODULES = tuple(dict.fromkeys(h.module for h in HOOKS))


class Aggregate:
    __slots__ = ("calls", "own", "units")

    def __init__(self) -> None:
        self.calls = 0
        #: seconds inside the hooked calls, minus nested hooked calls
        self.own = 0.0
        self.units = 0


class Tracer:
    """The span stack, the coarse span records and the aggregates."""

    def __init__(self) -> None:
        # bounded: one frame per active nested hook
        self._stack: List[List[Any]] = []  # [child seconds, span id]
        # bounded: coarse spans only (per-packet hooks aggregate)
        self.spans: List[Optional[Tuple[str, float, float, int]]] = []
        self.aggregates: Dict[str, Aggregate] = {}
        #: hook targets that fired at least once
        self.fired: set = set()
        #: seconds covered by outermost hooked calls
        self.covered = 0.0

    def wrap(self, hook: Hook, fn: Callable, kind: str) -> Callable:
        agg = self.aggregates.setdefault(hook.stem, Aggregate())
        stack = self._stack
        spans = self.spans
        fired = self.fired
        target = hook.target
        units = hook.units
        clock = time.perf_counter

        if kind == COUNT:

            @functools.wraps(fn)
            def counted(*args: Any, **kwargs: Any) -> Any:
                agg.calls += 1
                fired.add(target)
                return fn(*args, **kwargs)

            return counted

        record = kind == SPAN

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1][1] if stack else -1
            if record:
                span_id = len(spans)
                spans.append(None)
            else:
                span_id = parent
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                if stack:
                    stack[-1][0] += took
                else:
                    self.covered += took
                agg.calls += 1
                agg.own += took - frame[0]
                if record:
                    spans[span_id] = (hook.stem, start, end, parent)
            if units is not None:
                agg.units += units(result)
            fired.add(target)
            return result

        return timed


def _resolve(hook: Hook) -> Tuple[Any, str]:
    """(owner object, attribute name) the hook patches."""
    module, attr = hook.target.split(":")
    owner: Any = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    getattr(owner, name)  # AttributeError when the callable is gone
    return owner, name


def install(tracer: Tracer) -> List[str]:
    """Patch every hook; returns the targets that failed to resolve."""
    unresolved = []
    for hook in HOOKS:
        try:
            owner, name = _resolve(hook)
        except (ImportError, AttributeError):
            unresolved.append(hook.target)
            continue
        original = getattr(owner, name)
        if hook.kind == CLOSURE:
            setattr(owner, name, _wrap_returned(tracer, hook, original))
        elif hook.kind == MACHINE:
            setattr(owner, name, _wrap_machine(tracer, hook, original))
        else:
            setattr(owner, name, tracer.wrap(hook, original, hook.kind))
    return unresolved


def _wrap_returned(tracer: Tracer, hook: Hook, factory: Callable) -> Callable:
    @functools.wraps(factory)
    def make(*args: Any, **kwargs: Any) -> Any:
        inner = factory(*args, **kwargs)
        return None if inner is None else tracer.wrap(hook, inner, AGG)

    return make


def _wrap_machine(tracer: Tracer, hook: Hook, factory: Callable) -> Callable:
    @functools.wraps(factory)
    def make(*args: Any, **kwargs: Any) -> Any:
        machine = factory(*args, **kwargs)
        machine.mem_delta = tracer.wrap(hook, machine.mem_delta, AGG)
        return machine

    return make


def missing(workload: str, tracer: Tracer, unresolved: List[str]) -> List[str]:
    """Hooks that did not resolve, or never fired on their workload."""
    return sorted(
        set(unresolved)
        | {
            h.target
            for h in HOOKS
            if workload in h.fires_on and h.target not in tracer.fired
        }
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer,
    points: List[Any],
    faulted_packets: int,
    simcache: Tuple[int, int],
    wall_s: float,
) -> Dict[str, float]:
    """Every per-layer metric of one traced repetition except
    ``trace.overhead_frac``, which needs an untraced twin."""
    agg = tracer.aggregates

    def self_s(stem: str) -> float:
        a = agg.get(stem)
        return a.own if a is not None else 0.0

    def calls(stem: str) -> int:
        a = agg.get(stem)
        return a.calls if a is not None else 0

    metrics: Dict[str, float] = {
        f"{stem}_s": self_s(stem)
        for stem in dict.fromkeys(h.stem for h in HOOKS if h.kind != COUNT)
    }
    captures = calls("harness.experiment.capture")
    hits, misses = simcache
    packets = sum(p.packets for p in points)
    novel = sum(p.novel_passes for p in points)
    resolves = l4_hits = chain_probes = 0
    for p in points:
        for layers in p.map_stats.values():
            resolves += layers["l4"]["resolves"]
            l4_hits += layers["l4"]["cache_hits"]
            chain_probes += sum(stats["chain_probes"] for stats in layers.values())
    walk = agg.get("core.fastwalk.walk")
    metrics.update(
        {
            "harness.configs.builds": calls("harness.configs.build"),
            "harness.experiment.captures": captures,
            "harness.experiment.capture_memo_hit_ratio": (
                1.0 - _ratio(calls("harness.experiment.network"), captures)
                if captures
                else 0.0
            ),
            "core.fastwalk.entries": walk.units if walk is not None else 0,
            "arch.simcache.hit_ratio": _ratio(hits, hits + misses),
            "traffic.flowtable.probes": calls("traffic.flowtable.probe"),
            "traffic.flowtable.churn_ops": calls("traffic.flowtable.churn"),
            "traffic.stream.novel_passes": novel,
            "traffic.stream.memo_hit_ratio": (
                1.0 - _ratio(novel, packets) if packets else 0.0
            ),
            "traffic.stream.distinct_states": sum(p.distinct_states for p in points),
            "traffic.stream.memo_evictions": sum(p.memo_evictions for p in points),
            "resilience.faults.faulted_packets": faulted_packets,
            "xkernel.map.l4_hit_ratio": _ratio(l4_hits, resolves),
            "xkernel.map.chain_probes_per_packet": _ratio(chain_probes, packets),
            "trace.coverage": _ratio(tracer.covered, wall_s),
        }
    )
    return metrics
