"""Stall attribution: every memory stall cycle, bucketed by cause and code.

The engines in :mod:`repro.arch` report one aggregate number per run —
``stall_cycles`` (and from it mCPI).  This module decomposes that number
without perturbing it: an :class:`Attribution` sink replays a trace through
an exact replica of the memory hierarchy and charges every stall cycle to a
bucket keyed by

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

The replica makes the *same decisions* as
:class:`repro.arch.memory.MemoryHierarchy` and the fused kernel in
:mod:`repro.arch.fastsim` (which are bit-identical to each other), so the
bucket sums equal the engine's reported stall total exactly — an invariant
the engines enforce at run time whenever a sink is attached
(:class:`AttributionMismatch`) and the test suite checks across the whole
Table-4 sweep.  Like the fused kernel, it replays the fetch stream one
*run* at a time (consecutive instructions fetching from one cache block,
of which only the first can miss) with the run's data accesses in trace
order; the runs, their owning functions and the per-function instruction
counts are derived once per observed trace, not on every pass.

Attribution is strictly a *post-pass*: the fast kernel's inner loops do not
gain a single branch.  ``FastMachine`` runs its fused pass untouched and
only afterwards hands the packed trace columns to the sink; the reference
simulator likewise runs first and replays after.  With no sink attached,
neither engine does any extra work.
"""

from __future__ import annotations

import bisect
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.arch.fastsim import as_packed, derived_columns
from repro.arch.isa import TraceEntry
from repro.arch.memory import MemoryConfig
from repro.arch.packed import PackedTrace
from repro.arch.simulator import AlphaConfig
from repro.core.program import Program
from repro.obs.conflicts import ConflictMatrix
from repro.obs.layers import layer_of

Traceable = Union[PackedTrace, Sequence[TraceEntry]]

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
    """The attributed stall sum diverged from the engine's reported total.

    This cannot happen while the replica and the engines implement the same
    hierarchy; it exists so that any future drift fails loudly instead of
    producing silently wrong profiles.
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


#: one fetch run of the replay: its i-block, that block's direct-mapped
#: i-cache index, the owner of its first instruction, and its data accesses
#: in trace order as ``(access, owner)`` pairs, where ``access`` is a read
#: block ``b`` or a write block encoded ``-2 - b`` (fastsim's ``dcols``)
FetchRun = Tuple[int, int, str, List[Tuple[int, str]]]


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

    The sink mirrors the machine's hierarchy state pass for pass (warm-ups
    advance the replica without recording), so its buckets always describe
    exactly the passes the engine measured.  :meth:`harvest` snapshots the
    recorded buckets into an :class:`AttributionReport` and clears them,
    keeping the hierarchy state for subsequent passes.
    """

    def __init__(
        self,
        program: Optional[Program] = None,
        config: Optional[AlphaConfig] = None,
    ) -> None:
        self.config = config or AlphaConfig()
        mem: MemoryConfig = self.config.memory
        self._block_size = mem.block_size
        self._i_n = mem.icache_size // mem.block_size
        self._d_n = mem.dcache_size // mem.block_size
        self._b_n = mem.bcache_size // mem.block_size
        self._wb_depth = mem.write_buffer_depth
        self._owner = _OwnerMap(program)
        #: the last trace observed, its length and its replay events
        self._replay: Optional[
            Tuple[Traceable, int, Tuple[List[FetchRun], Dict[str, int]]]
        ] = None
        self.reset_state()
        self._clear_recording()

    # ------------------------------------------------------------------ #
    # state management                                                   #
    # ------------------------------------------------------------------ #

    def reset_state(self) -> None:
        """Return the replica hierarchy (and shadows) to the cold state."""
        self._itags: List[int] = [-1] * self._i_n
        self._dtags: List[int] = [-1] * self._d_n
        self._btags: List[int] = [-1] * self._b_n
        self._i_ever: set = set()
        self._d_ever: set = set()
        self._b_ever: set = set()
        self._wb: List[int] = []
        self._wb_set: set = set()
        #: write coalescing only: entry pair id -> blocks sharing that slot
        self._wb_pairs: Dict[int, List[int]] = {}
        self._sb_block = -1
        #: miss kind of the pending prefetch's b-cache miss (None = it hit)
        self._sb_kind: Optional[str] = None
        #: fully-associative LRU shadows for conflict/capacity splitting
        self._i_shadow: OrderedDict = OrderedDict()
        self._d_shadow: OrderedDict = OrderedDict()
        self._b_shadow: OrderedDict = OrderedDict()

    def _clear_recording(self) -> None:
        self.buckets: Dict[BucketKey, Bucket] = {}
        self.instructions: Dict[str, int] = {}
        self.conflicts = ConflictMatrix()
        self.total_stall_cycles = 0
        self.total_instructions = 0
        self.measured_passes = 0

    # ------------------------------------------------------------------ #
    # recording                                                          #
    # ------------------------------------------------------------------ #

    def _charge(self, fn: str, cache: str, kind: str, cycles: int) -> None:
        key = (layer_of(fn), fn, cache, kind)
        bucket = self.buckets.get(key)
        if bucket is None:
            bucket = self.buckets[key] = Bucket()
        bucket.stall_cycles += cycles
        bucket.events += 1
        self.total_stall_cycles += cycles

    def _replay_events(self, trace: Traceable) -> Tuple[List[FetchRun], Dict[str, int]]:
        """``trace`` as fetch runs, plus its instructions per owner.

        A run is a maximal stretch of consecutive entries fetching from one
        i-block.  Only its first fetch can miss: an i-cache hit changes no
        state, the fully-associative shadow already holds the block as
        most recently used, and data accesses touch neither.  So one probe
        per run replays the fetch stream exactly.  Owners and counts are
        resolved here once, not on every pass.
        """
        cached = self._replay
        if cached is not None and cached[0] is trace and cached[1] == len(trace):
            return cached[2]
        packed = as_packed(trace)
        iblks, iidxs, dcols = derived_columns(packed, self._block_size, self._i_n)
        span = self._owner.span
        runs: List[FetchRun] = []
        counts: Dict[str, int] = {}
        fn, lo, hi = UNATTRIBUTED, 0, 0
        n = 0
        prev = -1
        data: List[Tuple[int, str]] = []
        for pc, blk, idx, access in zip(packed.pcs, iblks, iidxs, dcols):
            if not lo <= pc < hi:
                if n:
                    counts[fn] = counts.get(fn, 0) + n
                    n = 0
                fn, lo, hi = span(pc)
            n += 1
            if blk != prev:
                data = []
                runs.append((blk, idx, fn, data))
                prev = blk
            if access != -1:
                data.append((access, fn))
        if n:
            counts[fn] = counts.get(fn, 0) + n
        events = (runs, counts)
        self._replay = (trace, len(trace), events)
        return events

    def observe_pass(self, trace: Traceable, *, measure: bool) -> int:
        """Replay one full pass of ``trace`` through the replica.

        With ``measure``, every stall cycle is charged to a bucket and the
        pass counts toward the report; without, the replica state advances
        silently (a warm-up).  Returns the pass's total stall cycles either
        way, so callers can check it against the engine's measured delta.
        """
        runs, counts = self._replay_events(trace)
        i_n = self._i_n
        d_n = self._d_n
        itags = self._itags
        dtags = self._dtags
        i_shadow = self._i_shadow
        d_shadow = self._d_shadow
        wb_set = self._wb_set
        total = 0
        # hits charge nothing, so owners are consulted (and warm-ups pass
        # None, which skips all recording) only on the miss paths
        for blk, idx, fn, data in runs:
            shadow_hit = _touch(i_shadow, i_n, blk)
            if itags[idx] != blk:
                total += self._fetch_miss(blk, idx, shadow_hit, fn if measure else None)
            for access, owner in data:
                if access >= 0:
                    shadow_hit = _touch(d_shadow, d_n, access)
                    if dtags[access % d_n] != access:
                        total += self._read_miss(
                            access, shadow_hit, owner if measure else None
                        )
                elif -2 - access not in wb_set:
                    total += self._write(-2 - access, owner if measure else None)
        if measure:
            instructions = self.instructions
            for fn, n in counts.items():
                instructions[fn] = instructions.get(fn, 0) + n
            self.total_instructions += len(trace)
            self.measured_passes += 1
        return total

    # ------------------------------------------------------------------ #
    # the instrumented replica: miss paths                               #
    # ------------------------------------------------------------------ #

    def _classify(self, block: int, ever: set, shadow_hit: bool) -> str:
        if block not in ever:
            return COLD
        return CONFLICT if shadow_hit else CAPACITY

    def _fetch_miss(
        self, blk: int, idx: int, shadow_hit: bool, fn: Optional[str]
    ) -> int:
        """An i-cache miss on block ``blk`` (at index ``idx``).  Mirrors
        the fetch half of ``MemoryHierarchy.step`` decision for decision;
        ``fn`` is the owning function (None during warm-ups, which skips
        all recording)."""
        mem = self.config.memory
        stall = 0
        itags = self._itags
        i_ever = self._i_ever
        kind = self._classify(blk, i_ever, shadow_hit)
        victim = itags[idx]
        if fn is not None and victim >= 0:
            self.conflicts.record(
                evictor=self._owner.owner(blk * self._block_size),
                victim=self._owner.owner(victim * self._block_size),
                set_index=idx,
            )
        itags[idx] = blk
        i_ever.add(blk)
        nblk = blk + 1
        if self._sb_block == blk:
            # stream-buffer hit: the prefetch hid the b-cache access; an
            # un-hidden main-memory remainder lands here if that prefetch
            # had missed the b-cache
            self._sb_block = -1
            stall += mem.stream_hit_cycles
            if fn is not None:
                self._charge(fn, ICACHE, kind, mem.stream_hit_cycles)
            if self._sb_kind is not None:
                extra = mem.main_memory_cycles - mem.bcache_hit_cycles
                stall += extra
                if fn is not None:
                    self._charge(fn, BCACHE, self._sb_kind, extra)
        else:
            stall += self._bcache_fetch(blk, fn, kind, ICACHE)
        # overlapped sequential prefetch of the successor block
        if itags[nblk % self._i_n] != nblk:
            btags = self._btags
            bidx = nblk % self._b_n
            b_shadow_hit = _touch(self._b_shadow, self._b_n, nblk)
            if btags[bidx] == nblk:
                self._sb_kind = None
            else:
                self._sb_kind = self._classify(nblk, self._b_ever, b_shadow_hit)
                btags[bidx] = nblk
                self._b_ever.add(nblk)
            self._sb_block = nblk
        return stall

    def _bcache_fetch(
        self, block: int, fn: Optional[str], kind: str, level: str
    ) -> int:
        """A primary miss going to the b-cache; returns its stall cycles.

        The b-cache-hit latency is charged to the primary cache ``level``
        (with the primary miss's ``kind``); a b-cache miss additionally
        charges the main-memory remainder to the b-cache level with the
        b-cache block's own classification.
        """
        mem = self.config.memory
        btags = self._btags
        bidx = block % self._b_n
        shadow_hit = _touch(self._b_shadow, self._b_n, block)
        if btags[bidx] == block:
            if fn is not None:
                self._charge(fn, level, kind, mem.bcache_hit_cycles)
            return mem.bcache_hit_cycles
        b_kind = self._classify(block, self._b_ever, shadow_hit)
        btags[bidx] = block
        self._b_ever.add(block)
        if fn is not None:
            self._charge(fn, level, kind, mem.bcache_hit_cycles)
            extra = mem.main_memory_cycles - mem.bcache_hit_cycles
            self._charge(fn, BCACHE, b_kind, extra)
        return mem.main_memory_cycles

    def _read_miss(self, dblk: int, shadow_hit: bool, fn: Optional[str]) -> int:
        """A d-cache read miss on block ``dblk``."""
        kind = self._classify(dblk, self._d_ever, shadow_hit)
        self._dtags[dblk % self._d_n] = dblk
        self._d_ever.add(dblk)
        if dblk in self._wb_set:
            # store->load forwarding: the pending store must drain first
            fwd = self.config.memory.write_forward_cycles
            if fn is not None:
                self._charge(fn, WRITE_BUFFER, WB_KIND, fwd)
            return fwd
        return self._bcache_fetch(dblk, fn, kind, DCACHE)

    def _write(self, wblk: int, fn: Optional[str]) -> int:
        """A store to block ``wblk``, which no pending entry holds (a
        store to a buffered block merges: no stall, no state change)."""
        wb_set = self._wb_set
        mem = self.config.memory
        wb = self._wb
        if mem.write_coalescing:
            # two-block (64-byte) entry granularity, mirroring the engines
            pair = wblk >> 1
            wb_set.add(wblk)
            slot = self._wb_pairs.get(pair)
            if slot is not None:
                slot.append(wblk)
                overflowed = False
            else:
                wb.append(pair)
                self._wb_pairs[pair] = [wblk]
                overflowed = len(wb) > self._wb_depth
                if overflowed:
                    for old in self._wb_pairs.pop(wb.pop(0)):
                        wb_set.discard(old)
        else:
            wb.append(wblk)
            wb_set.add(wblk)
            overflowed = len(wb) > self._wb_depth
            if overflowed:
                wb_set.discard(wb.pop(0))
        # the retiring write's b-cache access (write-through, no stall)
        btags = self._btags
        bidx = wblk % self._b_n
        if mem.non_allocating_writes:
            # a streaming store goes around the b-cache: the shadow (a
            # fully-associative cache under the same policy) only
            # refreshes an already-resident block
            if wblk in self._b_shadow:
                self._b_shadow.move_to_end(wblk)
        else:
            _touch(self._b_shadow, self._b_n, wblk)
            if btags[bidx] != wblk:
                btags[bidx] = wblk
                self._b_ever.add(wblk)
        if overflowed:
            full = mem.write_buffer_full_cycles
            if fn is not None:
                self._charge(fn, WRITE_BUFFER, WB_KIND, full)
            return full
        return 0

    # ------------------------------------------------------------------ #
    # reports                                                            #
    # ------------------------------------------------------------------ #

    def harvest(self, label: str = "") -> "AttributionReport":
        """Snapshot the recorded buckets into a report and clear them.

        The replica's hierarchy state is kept, so the machine/sink pair can
        continue into further (e.g. steady-state) passes.
        """
        report = AttributionReport(
            label=label,
            buckets={
                k: Bucket(b.stall_cycles, b.events) for k, b in self.buckets.items()
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
