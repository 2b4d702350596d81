"""The demux-cache study: scheme x arrival-mix x flow-count sweeps.

``run_traffic_point`` streams one spec through one scheme on one engine
and reports hit rates (from the real :class:`~repro.xkernel.map.Map`
instances) plus cold/steady cycle totals (from the transition-memoized
stream).  ``run_traffic_study`` sweeps the grid and carries everything a
paper-style table needs.

All numbers are integers or exact ratios of integers, so two runs
produce bit-identical JSON and rendered tables.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.arch.packed import PackedTrace
from repro.arch.simulator import AlphaConfig
from repro.traffic.arrivals import SCAN, ArrivalSampler
from repro.traffic.flowtable import FlowTables
from repro.traffic.segments import SegmentLibrary
from repro.traffic.spec import MIXES, TrafficSpec
from repro.traffic.stream import (
    INSTRUCTIONS,
    STALL,
    TransitionStream,
    make_stream_machine,
)
from repro.xkernel.map import make_scheme

if TYPE_CHECKING:  # resilience layers on traffic, never the reverse
    from repro.api.spec import TrafficStudySpec
    from repro.resilience.faults import FaultProfile

#: placeholder outcome for a demux layer a faulted packet never reaches
_ABSENT = (False, 0, 0)


class StreamCollector:
    """Optional per-packet observations for the resilience harness.

    ``services`` is the per-packet service demand in simulated cycles
    (memory stalls + CPU work of the packet's segment); ``faults``
    counts injected fault arrivals by kind.
    """

    def __init__(self) -> None:
        # bounded: one entry per streamed packet, resilience runs only
        self.services: List[int] = []
        # bounded: one entry per fault kind
        self.faults: Counter = Counter()


@dataclass
class TrafficPoint:
    """One (spec, scheme, engine) streaming run's results."""

    spec: TrafficSpec
    scheme: str
    engine: str
    packets: int
    #: per-population, per-layer map statistics
    map_stats: Dict[str, Dict[str, dict]]
    #: whole-stream totals
    instructions: int
    stall_cycles: int
    cpu_cycles: int
    #: totals over the post-warm-up window
    steady_instructions: int
    steady_stall_cycles: int
    steady_cpu_cycles: int
    #: streaming-engine introspection
    novel_passes: int
    distinct_states: int
    segment_alphabet: int
    #: memo entries dropped to stay under the spec's caps (0 = no
    #: eviction, the memo held the whole transition graph)
    memo_evictions: int = 0
    #: True if the stream's watchdog degraded it to sequential simulation
    degraded: bool = False

    @property
    def l4_hit_rate(self) -> float:
        resolves = hits = 0
        for layers in self.map_stats.values():
            stats = layers["l4"]
            resolves += stats["resolves"]
            hits += stats["cache_hits"]
        return hits / resolves if resolves else 0.0

    @property
    def mcpi(self) -> float:
        return self.stall_cycles / self.instructions if self.instructions else 0.0

    @property
    def steady_mcpi(self) -> float:
        if not self.steady_instructions:
            return 0.0
        return self.steady_stall_cycles / self.steady_instructions

    @property
    def cpi(self) -> float:
        if not self.instructions:
            return 0.0
        return (self.cpu_cycles + self.stall_cycles) / self.instructions

    @property
    def steady_cpi(self) -> float:
        if not self.steady_instructions:
            return 0.0
        return (
            self.steady_cpu_cycles + self.steady_stall_cycles
        ) / self.steady_instructions

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "scheme": self.scheme,
            "engine": self.engine,
            "packets": self.packets,
            "map_stats": self.map_stats,
            "instructions": self.instructions,
            "stall_cycles": self.stall_cycles,
            "cpu_cycles": self.cpu_cycles,
            "steady_instructions": self.steady_instructions,
            "steady_stall_cycles": self.steady_stall_cycles,
            "steady_cpu_cycles": self.steady_cpu_cycles,
            "l4_hit_rate": self.l4_hit_rate,
            "mcpi": self.mcpi,
            "steady_mcpi": self.steady_mcpi,
            "novel_passes": self.novel_passes,
            "distinct_states": self.distinct_states,
            "segment_alphabet": self.segment_alphabet,
            "memo_evictions": self.memo_evictions,
            "degraded": self.degraded,
        }


@dataclass
class TrafficStudy:
    """A sweep's points plus the axes that produced them."""

    base_spec: TrafficSpec
    engine: str
    schemes: Tuple[str, ...]
    mixes: Tuple[str, ...]
    flow_counts: Tuple[int, ...]
    # bounded: one entry per grid point
    points: List[TrafficPoint] = field(default_factory=list)

    def point(self, scheme: str, mix: str, flows: int) -> TrafficPoint:
        for p in self.points:
            if (p.scheme, p.spec.mix, p.spec.flows) == (scheme, mix, flows):
                return p
        raise KeyError(f"no point for {(scheme, mix, flows)}")

    def to_json(self) -> dict:
        return {
            "base_spec": self.base_spec.to_json(),
            "engine": self.engine,
            "schemes": list(self.schemes),
            "mixes": list(self.mixes),
            "flow_counts": list(self.flow_counts),
            "points": [p.to_json() for p in self.points],
        }

    def render(self) -> str:
        from repro.harness.reporting import render_traffic_table

        return render_traffic_table(self)

    def check(self) -> List[str]:
        """Every grid point the axes promise must actually be present."""
        missing = []  # bounded: one entry per (scheme, mix, flows) axis cell
        for mix in self.mixes:
            for flows in self.flow_counts:
                for scheme in self.schemes:
                    try:
                        self.point(scheme, mix, flows)
                    except KeyError:
                        missing.append(
                            f"missing point {(scheme, mix, flows)!r}"
                        )
        return missing


class _CellSetup:
    """Per-population segment libraries and image offsets for a spec."""

    def __init__(self, spec: TrafficSpec, config: AlphaConfig) -> None:
        offset = config.memory.bcache_size
        if spec.stack == "tcpip":
            populations = {"tcp": ("tcpip", 0)}
        elif spec.stack == "rpc":
            populations = {"rpc": ("rpc", 0)}
        else:  # mixed: the RPC image rides at a bcache-aligned offset
            populations = {"tcp": ("tcpip", 0), "rpc": ("rpc", offset)}
        self.libraries: Dict[str, SegmentLibrary] = {
            pop: SegmentLibrary(
                stack,
                spec.config,
                population=pop,
                capture_seed=spec.capture_seed,
                image_offset=off,
            )
            for pop, (stack, off) in populations.items()
        }

    @property
    def populations(self) -> Tuple[str, ...]:
        return tuple(self.libraries)


def run_traffic_point(
    spec: TrafficSpec,
    scheme_spec: str,
    *,
    engine: str = "fast",
    config: Optional[AlphaConfig] = None,
    setup: Optional[_CellSetup] = None,
    faults: Optional["FaultProfile"] = None,
    collect: Optional[StreamCollector] = None,
    watchdog_s: Optional[float] = None,
) -> TrafficPoint:
    """Stream one spec through one caching scheme on one engine.

    ``faults`` injects deterministic per-packet fault arrivals (see
    :class:`repro.resilience.faults.FaultProfile`); a profile whose
    rates are all zero draws nothing from any RNG, so the stream is
    bit-identical to a pristine run.  ``collect`` gathers per-packet
    service cycles and fault counts for the overload model.
    """
    spec.validate()
    config = config or AlphaConfig()
    setup = setup or _CellSetup(spec, config)
    libraries = setup.libraries
    populations = setup.populations

    rng = random.Random(spec.seed)
    sampler = ArrivalSampler(spec, rng)
    profile_draw = faults.arrivals(spec) if faults is not None else None
    in_scope = faults.scope_filter(spec) if faults is not None else None
    collect_services = collect.services if collect is not None else None
    fault_counts = collect.faults if collect is not None else None
    tables = {
        pop: FlowTables(spec, scheme_spec, population=pop) for pop in populations
    }
    schemes = {pop: tables[pop].l4.scheme for pop in populations}

    # slot -> (population, flow uid, established); churn retires a uid and
    # binds a fresh one whose first packet runs the slow (unestablished)
    # path, as a real connection's first segment would
    slot_pop: List[str] = []  # bounded: one entry per flow slot
    slot_uid: List[int] = []  # bounded: one entry per flow slot
    slot_established: List[bool] = []  # bounded: one entry per flow slot
    for slot in range(spec.flows):
        if spec.stack == "mixed":
            pop = "rpc" if rng.random() < spec.rpc_fraction else "tcp"
        else:
            pop = populations[0]
        slot_pop.append(pop)
        slot_uid.append(slot)
        slot_established.append(True)
        tables[pop].open_flow(slot)
    next_uid = spec.flows
    churn = spec.churn

    stream = TransitionStream(
        make_stream_machine(engine, config),
        state_cap=spec.memo_state_cap,
        edge_cap=spec.memo_edge_cap,
        watchdog_s=watchdog_s,
    )
    feed = stream.feed
    next_slot = sampler.next

    def segment_of(variant: tuple) -> PackedTrace:
        """The packed segment of a variant (called on novel edges only)."""
        pop = variant[0]
        return libraries[pop].segment(variant, schemes[pop])[0]

    #: each segment's CPU cycles, looked up once for the collector
    # bounded: one entry per segment of the variant alphabet
    seg_cycles: Dict[int, int] = {}
    phases = (
        ("warmup", spec.warmup_packets),
        ("steady", spec.packets - spec.warmup_packets),
    )
    for phase, packets in phases:
        stream.start_phase(phase)
        for _ in range(packets):
            if churn and rng.random() < churn:
                victim = rng.randrange(spec.flows)
                pop = slot_pop[victim]
                tables[pop].close_flow(slot_uid[victim])
                slot_uid[victim] = next_uid
                slot_established[victim] = False
                tables[pop].open_flow(next_uid)
                next_uid += 1
            slot = next_slot()
            kind = None
            if profile_draw is not None:
                kind = profile_draw()
                if kind is not None and in_scope is not None and not in_scope(slot):
                    kind = None
                if kind == "duplicated_packet" and slot == SCAN:
                    kind = None  # a duplicate needs a bound flow to duplicate
            if kind is None:
                # pristine classification — byte-for-byte the no-fault path
                if slot == SCAN:
                    pop = (
                        populations[0]
                        if len(populations) == 1
                        else ("rpc" if rng.random() < spec.rpc_fraction else "tcp")
                    )
                    variant = tables[pop].probe_packet(next_uid, False)
                    next_uid += 1
                else:
                    pop = slot_pop[slot]
                    variant = tables[pop].probe_packet(
                        slot_uid[slot], slot_established[slot]
                    )
                    slot_established[slot] = True
            else:
                if slot == SCAN:
                    pop = (
                        populations[0]
                        if len(populations) == 1
                        else ("rpc" if rng.random() < spec.rpc_fraction else "tcp")
                    )
                else:
                    pop = slot_pop[slot]
                table = tables[pop]
                if kind == "bad_demux_key":
                    # a garbled key is a real unknown-key lookup: it misses
                    # every cache and walks the full chain, byte-for-byte
                    # the trace a scan packet already pays — no new segment
                    variant = table.probe_packet(next_uid, False)
                    next_uid += 1
                elif kind == "truncated_header":
                    # the runt check rejects before any demux map is touched
                    ip_outcome = _ABSENT if table.ip is not None else None
                    variant = (pop, _ABSENT, ip_outcome, _ABSENT, False, kind)
                elif kind == "corrupt_checksum":
                    # eth (and ip) demux paid in full, l4 never consulted
                    eth, ip = table.probe_pre_l4()
                    variant = (pop, eth, ip, _ABSENT, False, kind)
                else:  # duplicated_packet, on a bound flow
                    # re-probed like any segment, then suppressed on the
                    # no-progress leg; established is forced (a duplicate
                    # is of a segment the flow already processed) and the
                    # slot's own establishment is untouched — suppression
                    # is not progress
                    variant = table.probe_packet(slot_uid[slot], True) + (kind,)
                if fault_counts is not None:
                    fault_counts[kind] += 1
            delta = feed(variant, segment_of)
            if collect_services is not None:
                seg = stream.last_seg
                cycles = seg_cycles.get(seg)
                if cycles is None:
                    cycles = libraries[pop].segment(variant, schemes[pop])[1].cycles
                    seg_cycles[seg] = cycles
                collect_services.append(delta[STALL] + cycles)

    warm = stream.phase_counters("warmup")
    steady = stream.phase_counters("steady")
    total = [w + s for w, s in zip(warm, steady)]

    def cpu_cycles(phase: str) -> int:
        cycles = 0
        for variant, count in stream.phase_seg_counts(phase).items():
            pop = variant[0]
            cpu = libraries[pop].segment(variant, schemes[pop])[1]
            cycles += count * cpu.cycles
        return cycles

    steady_cpu = cpu_cycles("steady")
    total_cpu = steady_cpu + cpu_cycles("warmup")

    return TrafficPoint(
        spec=spec,
        scheme=schemes[populations[0]].name,
        engine=engine,
        packets=spec.packets,
        map_stats={
            pop: {
                layer: _stats_json(stats)
                for layer, stats in tables[pop].stats().items()
            }
            for pop in populations
        },
        instructions=total[INSTRUCTIONS],
        stall_cycles=total[STALL],
        cpu_cycles=total_cpu,
        steady_instructions=steady[INSTRUCTIONS],
        steady_stall_cycles=steady[STALL],
        steady_cpu_cycles=steady_cpu,
        novel_passes=stream.novel_passes,
        distinct_states=stream.distinct_states,
        segment_alphabet=stream.segment_alphabet,
        memo_evictions=stream.memo_evictions,
        degraded=stream.degraded,
    )


def _stats_json(stats) -> dict:
    return {
        "scheme": stats.scheme,
        "resolves": stats.resolves,
        "cache_hits": stats.cache_hits,
        "failed_resolves": stats.failed_resolves,
        "probe_compares": stats.probe_compares,
        "installs": stats.installs,
        "evictions": stats.evictions,
        "invalidations": stats.invalidations,
        "chain_probes": stats.chain_probes,
        "binds": stats.binds,
        "unbinds": stats.unbinds,
    }


def run_traffic_study(
    study_spec: TrafficStudySpec,
    *,
    engine: str = "fast",
    config: Optional[AlphaConfig] = None,
) -> TrafficStudy:
    """Sweep the spec's scheme x mix x flow-count grid on one engine.

    ``engine`` is the resolved engine name (:func:`repro.api.traffic`
    resolves ``study_spec.engine`` against the settings).  The segment
    library is shared across points (walks are per-variant, not
    per-point); every point gets fresh maps, a fresh machine and the
    same seeds, so points are independent and the grid order is
    irrelevant to the numbers.
    """
    base_spec = study_spec.traffic or TrafficSpec()
    mixes = study_spec.mixes if study_spec.mixes is not None else (base_spec.mix,)
    flow_counts = study_spec.flow_counts
    if flow_counts is None:
        flow_counts = (base_spec.flows,)
    for mix in mixes:
        if mix not in MIXES:
            raise ValueError(f"mix must be one of {MIXES}, got {mix!r}")
    schemes = tuple(make_scheme(s).name for s in study_spec.schemes)
    config = config or AlphaConfig()
    study = TrafficStudy(
        base_spec=base_spec,
        engine=engine,
        schemes=schemes,
        mixes=mixes,
        flow_counts=flow_counts,
    )
    setup = _CellSetup(base_spec, config)
    for flows in flow_counts:
        for mix in mixes:
            spec = base_spec.with_(mix=mix, flows=flows)
            for scheme in schemes:
                study.points.append(
                    run_traffic_point(
                        spec, scheme, engine=engine, config=config, setup=setup
                    )
                )
    return study
