"""The streaming simulator: exact transition-memoized segment replay.

A dedicated fast-engine machine simulates the packet stream one packed
segment at a time.  Because the engine is *exact* — a pass from a
bit-identical hierarchy state always produces the identical counter
delta and exit state — the stream is a walk over a small
deterministic transition graph: nodes are interned machine states,
edges are (state, segment) pairs.  Each edge is simulated **once**; from
then on, feeding that segment in that state costs one edge lookup and
one increment of the packet count the edge's record carries.  Totals are
accumulated per phase as ``sum(packets x delta)`` per edge, which is
exactly what sequential simulation would have accumulated; per-segment
counts are derived from the same edge counts.

This is why a cycle-exact model streams packets at the speed of its
per-packet Python loop, and why its tables match sequential simulation
bit for bit: each edge's delta is exact, and the edge counts are a
function of the spec alone.  The 1M-packet Zipf acceptance cell streams
~633k packets/s in the benchmark suite's reference seconds (an unloaded
2-vCPU Intel Xeon KVM guest, Python 3.11; median of ten runs of
``benchmarks/suite/run.py --workload stream-zipf``, seeds 0-9), and
``BENCH_traffic.json`` records the wall-clock rate that
``benchmarks/bench_traffic.py`` measures on the same cell.

Both memo tables are **bounded**.  The interned-state table and the
edge-delta table are LRU caches (``state_cap`` / ``edge_cap``); on
eviction an edge's outstanding phase counts are folded into the phase's
base totals first, so totals stay exact no matter how small the caps
are — eviction only trades memo reuse (more novel passes) for bounded
memory.  Every re-simulation of a previously-evicted edge is
cross-checked against the delta recorded at eviction time
(:class:`StreamExactnessError` on mismatch), turning the exactness
assumption the whole memo rests on into a runtime invariant.

A per-stream watchdog (``watchdog_s``) bounds the cumulative wall-clock
time spent inside memo machinery (novel passes: restore, simulate,
snapshot, intern).  When exceeded the stream *degrades* to plain
segment-by-segment simulation on the persistent machine — slower, never
hung, and still bit-exact: sequential simulation from the current
machine state is precisely what the memo replays.
"""

from __future__ import annotations

import time
from collections import Counter, OrderedDict
from typing import Callable, Dict, Hashable, List, Optional, Set, Tuple

from repro.arch.simulator import AlphaConfig
from repro.arch.fastsim import N_COUNTERS, FastMachine

#: counter indices in the fast engine's delta layout (:data:`N_COUNTERS`)
STALL = 11
INSTRUCTIONS = 12

#: the state id of a degraded stream: it names no interned state, so no
#: edge out of it is memoized and every feed takes the simulating path
_DEGRADED = -1


class StreamExactnessError(RuntimeError):
    """Re-simulating an evicted edge produced a different delta.

    The transition memo is only sound if a (state, segment) pass is a
    pure function of the interned state; a mismatch here means an engine
    violated that and every total downstream would be suspect.
    """


def check_stream_engine(engine: str) -> None:
    """Refuse an engine streams cannot run on: the reference engine has
    no packed-segment pass, and the refusal points at the oracle tests
    that cover it."""
    if engine != "fast":
        raise ValueError(
            "traffic streaming needs the packed-segment fast engine, "
            f"got {engine!r}; the reference engine is exercised by the oracle "
            "tests in tests/traffic instead"
        )


def make_stream_machine(engine: str, config: Optional[AlphaConfig] = None):
    """A persistent machine for stream simulation on ``engine``
    (:func:`check_stream_engine`)."""
    check_stream_engine(engine)
    return FastMachine(config)


class TransitionStream:
    """Exact streaming over one persistent machine via edge memoization.

    ``feed(key, packed_fn)`` advances the logical stream by one segment
    and returns the segment's exact counter delta.  ``packed_fn(key)``
    is called only when the edge is novel (or the stream is degraded),
    so one callback serves a whole stream and the segment library walks
    lazily.  ``start_phase`` opens a new counting window (warm-up vs
    steady) without touching machine state.
    """

    def __init__(
        self,
        machine,
        *,
        state_cap: int = 16_384,
        edge_cap: int = 65_536,
        watchdog_s: Optional[float] = None,
    ) -> None:
        if state_cap < 2:
            raise ValueError("state_cap must be >= 2")
        if edge_cap < 1:
            raise ValueError("edge_cap must be positive")
        self._m = machine
        self._state_cap = state_cap
        self._edge_cap = edge_cap
        self._watchdog_s = watchdog_s
        self._memo_spent = 0.0
        #: state interning: snapshot -> id (0 is the cold state; ids are
        #: monotone and never reused)
        self._next_id = 1
        # bounded: LRU-evicted against state_cap (see _intern)
        self._state_ids: Dict[tuple, int] = {}
        # bounded: LRU-evicted against state_cap (see _intern)
        self._snapshots: Dict[int, tuple] = {}
        # bounded: LRU order of the evictable interned states
        self._state_lru: "OrderedDict[int, None]" = OrderedDict()
        #: (state_id, seg_id) -> [next_state_id, delta tuple, packets]:
        #: ``packets`` counts the edge's feeds in the open phase since
        #: they were last folded into its base totals (see _fold)
        # bounded: LRU-evicted against edge_cap (see _novel_pass)
        self._edges: "OrderedDict[tuple, list]" = OrderedDict()
        #: reverse indexes so a state eviction can drop its edges
        # bounded: one entry per live interned state (state_cap)
        self._in_edges: Dict[int, Set[tuple]] = {}
        # bounded: one entry per live interned state (state_cap)
        self._out_edges: Dict[int, Set[tuple]] = {}
        #: delta recorded when an edge was evicted, for the exactness
        #: cross-check on its re-simulation
        # bounded: FIFO-capped at edge_cap entries (see _drop_edge)
        self._evicted_deltas: "OrderedDict[tuple, Tuple[int, ...]]" = OrderedDict()
        #: the logical stream's state id (_DEGRADED once the watchdog
        #: trips) and the state the machine physically holds
        self._cur = 0
        self._phys = 0
        #: the segment id of the latest feed: ids are dense and assigned
        #: in first-feed order, so callers can key per-segment values on it
        self.last_seg = -1
        self.novel_passes = 0
        self.edge_evictions = 0
        self.state_evictions = 0
        self.exactness_checks = 0
        self._interned = 0
        #: segment key -> small int, assigned on its first feed, so the
        #: per-packet tables below key on (state id, segment id) int pairs
        # bounded: the segment library's variant alphabet
        self._seg_ids: Dict[Hashable, int] = {}
        #: segment id -> the key it stands for
        # bounded: the segment library's variant alphabet
        self._seg_keys: List[Hashable] = []
        #: per-phase accounting: base totals and base segment counts
        #: absorb evicted edges, closed phases' edge counts and
        #: degraded-mode passes; the open phase's live edges keep their
        #: counts in their own records, so the hot path is one in-place
        #: increment and segment counts derive from edge counts
        # bounded: one entry per phase (warmup/steady)
        self._phases: Dict[str, Tuple[List[int], Counter]] = {}
        self._open: Optional[str] = None
        self._base: List[int] = [0] * N_COUNTERS
        # bounded: the segment library's variant alphabet
        self._base_segs: Counter = Counter()

    # ------------------------------------------------------------------ #
    # phases                                                             #
    # ------------------------------------------------------------------ #

    def start_phase(self, name: str) -> None:
        """Close the open phase, folding every live edge's count into its
        base totals, and open ``name``."""
        for edge, record in self._edges.items():
            self._fold(edge, record)
        self._base = [0] * N_COUNTERS
        # bounded: the segment library's variant alphabet
        self._base_segs = Counter()
        self._phases[name] = (self._base, self._base_segs)
        self._open = name

    def _fold(self, edge: tuple, record: list) -> None:
        """Move an edge's outstanding packet count into the open phase's
        base totals and segment counts."""
        packets = record[2]
        if packets:
            delta = record[1]
            base = self._base
            for i in range(N_COUNTERS):
                base[i] += packets * delta[i]
            self._base_segs[edge[1]] += packets
            record[2] = 0

    # ------------------------------------------------------------------ #
    # streaming                                                          #
    # ------------------------------------------------------------------ #

    def _restore(self, state_id: int) -> None:
        if state_id == 0:
            self._m.reset()
        else:
            self._m.restore_state(self._snapshots[state_id])
        self._phys = state_id

    def _intern(self, snap: tuple) -> int:
        state_id = self._state_ids.get(snap)
        if state_id is not None:
            self._state_lru.move_to_end(state_id)
            return state_id
        state_id = self._next_id
        self._next_id += 1
        self._state_ids[snap] = state_id
        self._snapshots[state_id] = snap
        self._state_lru[state_id] = None
        self._interned += 1
        if len(self._snapshots) > self._state_cap:
            self._evict_state(protect=(self._cur, self._phys, state_id))
        return state_id

    def _evict_state(self, protect: Tuple[int, ...]) -> None:
        """Drop the least-recently-touched unprotected state and every
        edge into or out of it (their memo entries would dangle)."""
        victim = None
        for state_id in self._state_lru:
            if state_id not in protect:
                victim = state_id
                break
        if victim is None:
            return  # every resident state is in use right now
        del self._state_lru[victim]
        snap = self._snapshots.pop(victim)
        del self._state_ids[snap]
        self.state_evictions += 1
        for edge in self._in_edges.pop(victim, ()):
            self._drop_edge(edge)
        for edge in self._out_edges.pop(victim, ()):
            self._drop_edge(edge)

    def _drop_edge(self, edge: tuple) -> None:
        """Evict one memoized edge, folding its outstanding packet count
        into the open phase's base totals (exactness survives eviction)
        and recording its delta for the re-simulation cross-check."""
        record = self._edges.pop(edge, None)
        if record is None:
            return
        next_id, delta, _packets = record
        out = self._out_edges.get(edge[0])
        if out is not None:
            out.discard(edge)
        ins = self._in_edges.get(next_id)
        if ins is not None:
            ins.discard(edge)
        self._fold(edge, record)
        self._evicted_deltas[edge] = delta
        if len(self._evicted_deltas) > self._edge_cap:
            self._evicted_deltas.popitem(last=False)
        self.edge_evictions += 1

    def _novel_pass(
        self, edge: Tuple[int, int], key: Hashable, packed_fn: Callable
    ) -> Tuple[int, ...]:
        """Feed an edge the memo does not hold: simulate it once and
        memoize it, or, once degraded, simulate it into the base totals."""
        if self._cur == _DEGRADED:
            delta = tuple(self._m.mem_delta(packed_fn(key)))
            base = self._base
            for i in range(N_COUNTERS):
                base[i] += delta[i]
            self._base_segs[edge[1]] += 1
            return delta
        if self._phys != self._cur:
            self._restore(self._cur)
        t0 = time.perf_counter() if self._watchdog_s is not None else 0.0
        delta = tuple(self._m.mem_delta(packed_fn(key)))
        next_id = self._intern(self._m.snapshot_state())
        prior = self._evicted_deltas.pop(edge, None)
        if prior is not None:
            self.exactness_checks += 1
            if prior != delta:
                state_id, seg = edge
                raise StreamExactnessError(
                    f"edge {(state_id, self._seg_keys[seg])!r} re-simulated to a "
                    f"different delta than recorded at eviction: {prior} != {delta}"
                )
        self._edges[edge] = [next_id, delta, 1]
        self._out_edges.setdefault(edge[0], set()).add(edge)
        self._in_edges.setdefault(next_id, set()).add(edge)
        while len(self._edges) > self._edge_cap:
            self._drop_edge(next(iter(self._edges)))
        self._cur = self._phys = next_id
        self.novel_passes += 1
        if self._watchdog_s is not None:
            self._memo_spent += time.perf_counter() - t0
            if self._memo_spent > self._watchdog_s:
                # too long inside memo machinery: fall back to plain
                # sequential simulation (the machine holds the state
                # this pass left it in)
                self._cur = _DEGRADED
        return delta

    def feed(self, key: Hashable, packed_fn: Callable) -> Tuple[int, ...]:
        """Advance the stream one segment; return its exact delta.

        ``packed_fn(key)`` supplies the segment's packed trace, and is
        called only on a novel edge.  A memo hit costs one edge lookup,
        its LRU touch and one increment of the edge record's count; a
        self-loop skips the state-LRU touch, because its state already
        heads that LRU.
        """
        seg = self._seg_ids.get(key)
        if seg is None:
            seg = self._seg_ids[key] = len(self._seg_keys)
            self._seg_keys.append(key)
        self.last_seg = seg
        edge = (self._cur, seg)
        record = self._edges.get(edge)
        if record is None:
            return self._novel_pass(edge, key, packed_fn)
        self._edges.move_to_end(edge)
        record[2] += 1
        next_id = record[0]
        if next_id != self._cur:
            self._state_lru.move_to_end(next_id)
            self._cur = next_id
        return record[1]

    # ------------------------------------------------------------------ #
    # accounting                                                         #
    # ------------------------------------------------------------------ #

    @property
    def degraded(self) -> bool:
        """True once the watchdog forced segment-by-segment simulation."""
        return self._cur == _DEGRADED

    @property
    def memo_evictions(self) -> int:
        """Memo entries dropped to stay under the caps (states + edges)."""
        return self.state_evictions + self.edge_evictions

    @property
    def distinct_states(self) -> int:
        """Machine states interned over the stream's lifetime (including
        the cold state; an evicted-then-revisited state counts again)."""
        return self._interned + 1

    @property
    def segment_alphabet(self) -> int:
        """Distinct segments this stream simulated (library-independent)."""
        return len(self._seg_keys)

    def phase_counters(self, name: str) -> List[int]:
        """The counter total the machine would have accumulated over
        the phase's segments: base totals (evicted edges, closed phases'
        folds, degraded-mode passes) plus, for the open phase, packets x
        delta over the live edges."""
        base, _segs = self._phases[name]
        totals = list(base)
        if name == self._open:
            for _next_id, delta, packets in self._edges.values():
                for i in range(N_COUNTERS):
                    totals[i] += packets * delta[i]
        return totals

    def phase_seg_counts(self, name: str) -> Counter:
        """Fire counts per segment key (for CPU-side aggregation): the
        base counts plus, for the open phase, the live edges' counts."""
        _base, base_segs = self._phases[name]
        segs = Counter(base_segs)
        if name == self._open:
            for (_state, seg), record in self._edges.items():
                if record[2]:
                    segs[seg] += record[2]
        keys = self._seg_keys
        return Counter({keys[seg]: fired for seg, fired in segs.items()})
