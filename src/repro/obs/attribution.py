"""Stall attribution: every memory stall cycle, bucketed by cause and code.

The engines in :mod:`repro.arch` report one aggregate number per run —
``stall_cycles`` (and from it mCPI).  This module decomposes that number
without perturbing it: with an :class:`Attribution` sink attached, an
engine logs every decision a hit never makes (the decision log of
:mod:`repro.arch.memory`: each i-cache miss, d-cache read miss and
unmerged store, with what served it), and the sink charges every stall
cycle of that log to a bucket keyed by

``(protocol layer, function, cache level, miss kind)``

where the miss kind follows the classic three-C model extended with the
write buffer:

* ``cold`` — the block had never been resident,
* ``conflict`` — the block was evicted by direct-mapped aliasing: a
  fully-associative LRU cache of the same capacity would have hit,
* ``capacity`` — the block was evicted by sheer working-set size: even the
  fully-associative shadow cache had evicted it,
* ``write-buffer`` — stalls charged by the write buffer (store->load
  forwarding drains and overflow retirements).

The sink decides no hit or miss: the engines are the only code that does.
It walks the trace beside the log, one fetch *run* at a time (consecutive
instructions fetching from one cache block, of which only the first can
miss), to learn which function issued each logged access and to keep the
fully-associative shadows that split conflict from capacity.  The i- and
d-shadows follow the trace; the b-shadow and the b-cache's ever-resident
set follow the log.  A hit changes no hierarchy state, so a record belongs
to the next access of its block; a record the walk cannot match raises
:class:`AttributionMismatch` naming it, and so does a measured pass whose
attributed total differs from the engine's.  Both engines log identical
records, so their bucket decompositions agree bit for bit.  With no sink
attached, neither engine logs anything.
"""

from __future__ import annotations

import bisect
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.arch.fastsim import Traceable, as_packed
from repro.arch.memory import BCACHE_HIT, FETCH, FORWARD, NONE, READ, STREAM
from repro.arch.packed import FLAG_DWRITE
from repro.arch.simulator import AlphaConfig
from repro.core.program import Program
from repro.obs.conflicts import ConflictMatrix
from repro.obs.layers import layer_of

#: cache levels a stall cycle can be charged to
ICACHE = "icache"
DCACHE = "dcache"
BCACHE = "bcache"
WRITE_BUFFER = "write-buffer"
CACHE_LEVELS = (ICACHE, DCACHE, BCACHE, WRITE_BUFFER)

#: miss kinds (the extended three-C model)
COLD = "cold"
CONFLICT = "conflict"
CAPACITY = "capacity"
WB_KIND = "write-buffer"
MISS_KINDS = (COLD, CONFLICT, CAPACITY, WB_KIND)

#: bucket key: (protocol layer, function, cache level, miss kind)
BucketKey = Tuple[str, str, str, str]

UNATTRIBUTED = "(unattributed)"


class AttributionMismatch(AssertionError):
    """A decision log the trace cannot account for: a record no access of
    the pass matches, or an attributed stall sum that differs from the
    engine's reported total.  Neither happens while the engines log every
    decision they make; any drift fails loudly instead of producing
    silently wrong profiles.
    """


@dataclass
class Bucket:
    """One (layer, function, cache, kind) cell of the attribution."""

    stall_cycles: int = 0
    events: int = 0


#: the open upper end of the pc gap past the last laid-out function
_PC_LIMIT = 1 << 62


class _OwnerMap:
    """pc -> owning function, via the program's laid-out extents."""

    __slots__ = ("_starts", "_ends", "_names")

    def __init__(self, program: Optional[Program]) -> None:
        if program is None or not program.has_layout():
            self._starts: List[int] = []
            self._ends: List[int] = []
            self._names: List[str] = []
            return
        ranges = program.occupied_ranges()
        self._starts = [r[0] for r in ranges]
        self._ends = [r[1] for r in ranges]
        self._names = [r[2] for r in ranges]

    def span(self, pc: int) -> Tuple[str, int, int]:
        """``(owner, lo, hi)``: the owner of ``pc`` and the pc range
        ``[lo, hi)`` around it that shares that owner."""
        starts = self._starts
        i = bisect.bisect_right(starts, pc) - 1
        if i >= 0 and pc < self._ends[i]:
            return self._names[i], starts[i], self._ends[i]
        lo = self._ends[i] if i >= 0 else 0
        hi = starts[i + 1] if i + 1 < len(starts) else _PC_LIMIT
        return UNATTRIBUTED, lo, hi

    def owner(self, pc: int) -> str:
        return self.span(pc)[0]


def _touch(shadow: OrderedDict, capacity: int, block: int) -> bool:
    """Access ``block`` in a fully-associative LRU shadow; True on hit."""
    if block in shadow:
        shadow.move_to_end(block)
        return True
    shadow[block] = None
    if len(shadow) > capacity:
        shadow.popitem(last=False)
    return False


#: one fetch run of the replay: its i-block, the owner of its first
#: instruction, and its data accesses in trace order as ``(access, owner)``
#: pairs, where ``access`` is a read block ``b`` or a write block encoded
#: ``-2 - b`` (fastsim's ``data_blocks``)
FetchRun = Tuple[int, str, List[Tuple[int, str]]]


def _pending(log: Iterable[tuple]) -> Iterator[Tuple[Optional[tuple], int, int]]:
    """Each decision record with the fetch block and the data access
    (encoded as in :data:`FetchRun`) it belongs to, then a sentinel: -1
    matches no access of either kind."""
    for record in log:
        kind, block = record[0], record[1]
        if kind == FETCH:
            yield record, block, -1
        else:
            yield record, -1, block if kind == READ else -2 - block
    yield None, -1, -1


class Attribution:
    """A stall-attribution sink for either simulation engine.

    Attach a fresh sink to a *fresh* machine::

        sink = Attribution(build.program)
        machine = FastMachine(config, sink=sink)        # or MachineSimulator
        machine.run(trace)                              # cold, measured
        cold = sink.harvest("cold")
        machine.warm_up(trace)
        machine.run(trace)                              # steady, measured
        steady = sink.harvest("steady")

    The machine hands the sink every pass with its decision log (warm-ups
    advance the shadows without recording), so the buckets always describe
    exactly the passes the engine measured.  :meth:`harvest` snapshots the
    recorded buckets into an :class:`AttributionReport` and clears them,
    keeping the shadows for subsequent passes.
    """

    def __init__(
        self,
        program: Optional[Program] = None,
        config: Optional[AlphaConfig] = None,
    ) -> None:
        self.config = config or AlphaConfig()
        mem = self.config.memory
        self._block_size = mem.block_size
        self._i_n = mem.icache_size // mem.block_size
        self._d_n = mem.dcache_size // mem.block_size
        self._b_n = mem.bcache_size // mem.block_size
        self._owner = _OwnerMap(program)
        #: the last trace observed, its length and its replay events
        self._replay: Optional[
            Tuple[Traceable, int, Tuple[List[FetchRun], Dict[str, int]]]
        ] = None
        self._i_ever: set = set()
        self._d_ever: set = set()
        self._b_ever: set = set()
        #: miss kind of the pending prefetch's b-cache miss (None = it hit)
        self._sb_kind: Optional[str] = None
        #: fully-associative LRU shadows for conflict/capacity splitting
        self._i_shadow: OrderedDict = OrderedDict()
        self._d_shadow: OrderedDict = OrderedDict()
        self._b_shadow: OrderedDict = OrderedDict()
        self._clear_recording()

    def _clear_recording(self) -> None:
        #: (function, cache, kind) -> bucket; the layer is added at harvest
        self._buckets: Dict[Tuple[str, str, str], Bucket] = {}
        self.instructions: Dict[str, int] = {}
        self.conflicts = ConflictMatrix()
        self.total_stall_cycles = 0
        self.total_instructions = 0
        self.measured_passes = 0

    # ------------------------------------------------------------------ #
    # recording                                                          #
    # ------------------------------------------------------------------ #

    def _charge(self, fn: Optional[str], cache: str, kind: str, cycles: int) -> None:
        """Charge ``cycles`` to ``fn``; ``fn`` is None during warm-ups,
        which record nothing."""
        if fn is not None:
            key = (fn, cache, kind)
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = self._buckets[key] = Bucket()
            bucket.stall_cycles += cycles
            bucket.events += 1
            self.total_stall_cycles += cycles

    def _replay_events(self, trace: Traceable) -> Tuple[List[FetchRun], Dict[str, int]]:
        """``trace`` as fetch runs, plus its instructions per owner.

        A run is a maximal stretch of consecutive entries fetching from one
        i-block.  Only its first fetch can miss: an i-cache hit changes no
        state, the fully-associative shadow already holds the block as
        most recently used, and data accesses touch neither.  So one probe
        per run walks the fetch stream exactly.  Owners and counts are
        resolved here once, not on every pass.
        """
        cached = self._replay
        if cached is not None and cached[0] is trace and cached[1] == len(trace):
            return cached[2]
        packed = as_packed(trace)
        size = self._block_size
        span = self._owner.span
        runs: List[FetchRun] = []
        counts: Dict[str, int] = {}
        fn, lo, hi = UNATTRIBUTED, 0, 0
        n = 0
        prev = -1
        data: List[Tuple[int, str]] = []
        for pc, d, flags in zip(packed.pcs, packed.daddrs, packed.flags):
            if not lo <= pc < hi:
                if n:
                    counts[fn] = counts.get(fn, 0) + n
                    n = 0
                fn, lo, hi = span(pc)
            n += 1
            blk = pc // size
            if blk != prev:
                data = []
                runs.append((blk, fn, data))
                prev = blk
            if d >= 0:
                data.append((-2 - d // size if flags & FLAG_DWRITE else d // size, fn))
        if n:
            counts[fn] = counts.get(fn, 0) + n
        events = (runs, counts)
        self._replay = (trace, len(trace), events)
        return events

    def observe_pass(
        self, trace: Traceable, log: Sequence[tuple], *, measure: bool
    ) -> int:
        """Classify one full pass of ``trace`` from its decision ``log``.

        With ``measure``, every stall cycle is charged to a bucket and the
        pass counts toward the report; without, only the shadows advance
        (a warm-up).  Returns the stall cycles the pass charged (none for a
        warm-up), so callers can check them against the engine's measured
        delta.
        """
        runs, counts = self._replay_events(trace)
        i_n = self._i_n
        d_n = self._d_n
        i_shadow = self._i_shadow
        d_shadow = self._d_shadow
        pending = _pending(log)
        record, fkey, dkey = next(pending)
        before = self.total_stall_cycles
        # a record belongs to the next access of its block; hits charge
        # nothing, so owners are consulted (and warm-ups pass None, which
        # skips all recording) only for matched records
        for blk, fn, data in runs:
            shadow_hit = _touch(i_shadow, i_n, blk)
            if blk == fkey:
                self._on_fetch(record, shadow_hit, fn if measure else None)
                record, fkey, dkey = next(pending)
            for access, owner in data:
                if access >= 0:
                    shadow_hit = _touch(d_shadow, d_n, access)
                if access == dkey:
                    who = owner if measure else None
                    if access >= 0:
                        self._on_read(record, shadow_hit, who)
                    else:
                        self._on_store(record, who)
                    record, fkey, dkey = next(pending)
        if record is not None:
            raise AttributionMismatch(
                f"no access of the pass matches its {record[0]} decision "
                f"on block {record[1]}"
            )
        if measure:
            instructions = self.instructions
            for fn, n in counts.items():
                instructions[fn] = instructions.get(fn, 0) + n
            self.total_instructions += len(trace)
            self.measured_passes += 1
        return self.total_stall_cycles - before

    # ------------------------------------------------------------------ #
    # classifying logged decisions                                       #
    # ------------------------------------------------------------------ #

    def _classify(self, block: int, ever: set, shadow_hit: bool) -> str:
        if block not in ever:
            return COLD
        return CONFLICT if shadow_hit else CAPACITY

    def _b_access(self, block: int, outcome: str) -> Optional[str]:
        """A logged b-cache access: advance the b-shadow and, on a miss,
        return the missed block's kind (None on a hit)."""
        shadow_hit = _touch(self._b_shadow, self._b_n, block)
        if outcome == BCACHE_HIT:
            return None
        kind = self._classify(block, self._b_ever, shadow_hit)
        self._b_ever.add(block)
        return kind

    def _primary_miss(
        self, block: int, served: str, fn: Optional[str], kind: str, level: str
    ) -> None:
        """A primary miss served by the b-cache.

        The b-cache-hit latency is charged to the primary cache ``level``
        (with the primary miss's ``kind``); a b-cache miss additionally
        charges the main-memory remainder to the b-cache level with the
        b-cache block's own classification.
        """
        mem = self.config.memory
        b_kind = self._b_access(block, served)
        self._charge(fn, level, kind, mem.bcache_hit_cycles)
        if b_kind is not None:
            extra = mem.main_memory_cycles - mem.bcache_hit_cycles
            self._charge(fn, BCACHE, b_kind, extra)

    def _on_fetch(self, record: tuple, shadow_hit: bool, fn: Optional[str]) -> None:
        """A logged i-cache miss."""
        mem = self.config.memory
        _, blk, victim, served, late, prefetch = record
        kind = self._classify(blk, self._i_ever, shadow_hit)
        self._i_ever.add(blk)
        if fn is not None and victim >= 0:
            self.conflicts.record(
                evictor=self._owner.owner(blk * self._block_size),
                victim=self._owner.owner(victim * self._block_size),
                set_index=blk % self._i_n,
            )
        if served == STREAM:
            # stream-buffer hit: the prefetch hid the b-cache access; an
            # un-hidden main-memory remainder lands here if that prefetch
            # had missed the b-cache
            self._charge(fn, ICACHE, kind, mem.stream_hit_cycles)
            if late:
                extra = mem.main_memory_cycles - mem.bcache_hit_cycles
                self._charge(fn, BCACHE, self._sb_kind, extra)
        else:
            self._primary_miss(blk, served, fn, kind, ICACHE)
        if prefetch != NONE:
            # the overlapped sequential prefetch of the successor block
            self._sb_kind = self._b_access(blk + 1, prefetch)

    def _on_read(self, record: tuple, shadow_hit: bool, fn: Optional[str]) -> None:
        """A logged d-cache read miss."""
        _, block, served = record
        kind = self._classify(block, self._d_ever, shadow_hit)
        self._d_ever.add(block)
        if served == FORWARD:
            # store->load forwarding: the pending store must drain first
            fwd = self.config.memory.write_forward_cycles
            self._charge(fn, WRITE_BUFFER, WB_KIND, fwd)
        else:
            self._primary_miss(block, served, fn, kind, DCACHE)

    def _on_store(self, record: tuple, fn: Optional[str]) -> None:
        """A logged store that did not merge; its retirement goes to the
        b-cache without a stall unless it overflowed the write buffer."""
        _, block, allocating, overflowed = record
        if allocating:
            _touch(self._b_shadow, self._b_n, block)
            self._b_ever.add(block)
        elif block in self._b_shadow:
            # a streaming store goes around the b-cache: the shadow (a
            # fully-associative cache under the same policy) only
            # refreshes an already-resident block
            self._b_shadow.move_to_end(block)
        if overflowed:
            full = self.config.memory.write_buffer_full_cycles
            self._charge(fn, WRITE_BUFFER, WB_KIND, full)

    # ------------------------------------------------------------------ #
    # reports                                                            #
    # ------------------------------------------------------------------ #

    def harvest(self, label: str = "") -> "AttributionReport":
        """Snapshot the recorded buckets into a report and clear them.

        The shadows are kept, so the machine/sink pair can continue into
        further (e.g. steady-state) passes.
        """
        report = AttributionReport(
            label=label,
            buckets={
                (layer_of(fn), fn, cache, kind): bucket
                for (fn, cache, kind), bucket in self._buckets.items()
            },
            instructions=dict(self.instructions),
            conflicts=self.conflicts,
            total_stall_cycles=self.total_stall_cycles,
            total_instructions=self.total_instructions,
            measured_passes=self.measured_passes,
        )
        self._clear_recording()
        return report

@dataclass
class AttributionReport:
    """Frozen outcome of one or more measured passes."""

    label: str = ""
    buckets: Dict[BucketKey, Bucket] = field(default_factory=dict)
    #: instructions executed per owning function (measured passes only)
    instructions: Dict[str, int] = field(default_factory=dict)
    conflicts: ConflictMatrix = field(default_factory=ConflictMatrix)
    total_stall_cycles: int = 0
    total_instructions: int = 0
    measured_passes: int = 0

    @property
    def mcpi(self) -> float:
        if not self.total_instructions:
            return 0.0
        return self.total_stall_cycles / self.total_instructions

    # ---- aggregations ------------------------------------------------- #

    def by_layer(self) -> Dict[str, Dict[str, object]]:
        """Per-layer totals: instructions, stalls, and a per-kind split."""
        out: Dict[str, Dict[str, object]] = {}

        def row(layer: str) -> Dict[str, object]:
            entry = out.get(layer)
            if entry is None:
                entry = out[layer] = {
                    "instructions": 0,
                    "stall_cycles": 0,
                    "kinds": {kind: 0 for kind in MISS_KINDS},
                }
            return entry

        for fn, count in self.instructions.items():
            row(layer_of(fn))["instructions"] += count
        for (layer, _fn, _cache, kind), bucket in self.buckets.items():
            entry = row(layer)
            entry["stall_cycles"] += bucket.stall_cycles
            entry["kinds"][kind] += bucket.stall_cycles
        for entry in out.values():
            instrs = entry["instructions"]
            entry["mcpi"] = entry["stall_cycles"] / instrs if instrs else 0.0
        return out

    def by_function(self) -> Dict[str, Dict[str, object]]:
        """Per-function totals in the same shape as :meth:`by_layer`."""
        out: Dict[str, Dict[str, object]] = {}

        def row(fn: str) -> Dict[str, object]:
            entry = out.get(fn)
            if entry is None:
                entry = out[fn] = {
                    "layer": layer_of(fn),
                    "instructions": self.instructions.get(fn, 0),
                    "stall_cycles": 0,
                    "kinds": {kind: 0 for kind in MISS_KINDS},
                }
            return entry

        for fn in self.instructions:
            row(fn)
        for (_layer, fn, _cache, kind), bucket in self.buckets.items():
            entry = row(fn)
            entry["stall_cycles"] += bucket.stall_cycles
            entry["kinds"][kind] += bucket.stall_cycles
        for entry in out.values():
            instrs = entry["instructions"]
            entry["mcpi"] = entry["stall_cycles"] / instrs if instrs else 0.0
        return out

    def by_cache(self) -> Dict[str, int]:
        out = {level: 0 for level in CACHE_LEVELS}
        for (_layer, _fn, cache, _kind), bucket in self.buckets.items():
            out[cache] += bucket.stall_cycles
        return out

    def verify_total(self, engine_stall_cycles: int) -> None:
        """Raise :class:`AttributionMismatch` unless the sums agree."""
        if self.total_stall_cycles != engine_stall_cycles:
            raise AttributionMismatch(
                f"attributed {self.total_stall_cycles} stall cycles but the "
                f"engine reported {engine_stall_cycles}"
            )

    # ---- serialization ------------------------------------------------ #

    def to_json(self) -> Dict[str, object]:
        """A plain-JSON form (consumed by ``benchmarks/bench_attrib.py``)."""
        return {
            "label": self.label,
            "total_stall_cycles": self.total_stall_cycles,
            "total_instructions": self.total_instructions,
            "measured_passes": self.measured_passes,
            "mcpi": self.mcpi,
            "buckets": [
                {
                    "layer": layer,
                    "function": fn,
                    "cache": cache,
                    "kind": kind,
                    "stall_cycles": bucket.stall_cycles,
                    "events": bucket.events,
                }
                for (layer, fn, cache, kind), bucket in sorted(self.buckets.items())
            ],
            "instructions": dict(sorted(self.instructions.items())),
            "conflicts": self.conflicts.to_json(),
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "AttributionReport":
        report = cls(
            label=str(data.get("label", "")),
            total_stall_cycles=int(data["total_stall_cycles"]),
            total_instructions=int(data["total_instructions"]),
            measured_passes=int(data.get("measured_passes", 1)),
            instructions={
                str(k): int(v) for k, v in data.get("instructions", {}).items()
            },
            conflicts=ConflictMatrix.from_json(data.get("conflicts", {})),
        )
        for row in data.get("buckets", []):
            key = (
                str(row["layer"]),
                str(row["function"]),
                str(row["cache"]),
                str(row["kind"]),
            )
            report.buckets[key] = Bucket(int(row["stall_cycles"]), int(row["events"]))
        return report
