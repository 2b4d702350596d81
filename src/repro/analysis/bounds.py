"""Sound static latency bounds via abstract interpretation of the memory model.

The simulator *measures* a cell's cold and steady-state mCPI; this module
*brackets* them — ``lower <= simulated <= upper`` — without running a
simulator.  The analysis is a classic must/may abstract interpretation of
the DEC 3000/600 hierarchy (:mod:`repro.arch.memory`) over a
layout-independent digest of the walked trace:

* **Digest** (:func:`digest_trace`) — the trace collapses into ordered
  events: pc-contiguous execution runs ``(function, start offset,
  count)`` and absolute data-block reads/writes, interleaved in exact
  trace order.  A run carries a data access only on its *last*
  instruction, so re-binding the digest to any candidate layout
  (:func:`bind_digest`, via :func:`repro.core.placement.run_blocks`)
  reproduces the exact fetch/data interleaving the walker would emit
  under that layout — functions are 4-byte aligned, so block boundaries
  move with the layout and must be re-derived per candidate.

* **Abstract domain** — every direct-mapped set holds a *possibility
  set* of tags: a single tag is **must** information (the block is
  definitely resident), several tags are **may** information (any one of
  them might be).  The stream buffer and the write-merging buffer are
  tracked as small sets of whole concrete states, widened to an unknown
  top when joins make them grow past a cap.  Joins at control-flow
  merges are pointwise unions; singleton sets keep the analysis exact.

* **Transfer** — each event charges a ``(lower, upper)`` stall interval
  derived from the exact latencies of :class:`~repro.arch.memory.
  MemoryConfig`: a must-hit charges nothing, a definite miss charges at
  least the cheapest miss outcome (stream-buffer hit, b-cache hit) and
  at most the costliest (main memory), and an unknown access charges
  ``(0, worst)``.  The cold pass starts from the empty hierarchy, so
  every possibility set stays a singleton and the cold bounds collapse
  to the exact simulated stall count — a model-fidelity check the test
  suite enforces bit for bit.

* **Persistence** — the steady measurement is the pass after two
  warm-ups (both engines use ``warmup_rounds=2``).  The analyzer replays
  two concrete passes, then iterates ``state := state JOIN
  transfer(state)`` to a fixed point: the result over-approximates the
  entry state of *every* later pass, so one abstract pass from it (the
  converged iteration's own pass) bounds the steady measurement for any
  warm-up count >= 2.  When pass states reach a concrete fixed point
  immediately (the common case — the fast engine's warm-up shortcut
  relies on the same property), the steady bounds are exact as well.

:func:`check_cell_bounds` validates the invariant against a chosen
engine; the search prefilter (:mod:`repro.search.evaluate`) re-binds one
digest per candidate layout to prune provably-worse candidates without
simulating them.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.analysis.verify import Finding
from repro.arch.isa import INSTRUCTION_SIZE, TraceEntry
from repro.arch.memory import MemoryConfig
from repro.arch.packed import FLAG_DWRITE, PackedTrace
from repro.core.placement import run_blocks
from repro.core.program import Program
from repro.obs.layers import layer_of

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.walker import WalkResult
    from repro.protocols.options import Section2Options

BOUNDS_VIOLATION = "bounds-violation"

#: digest event, fixed arity: ``("X", function, start_offset, count)``
#: for a pc-contiguous execution run, ``("R" | "W", function, block, 0)``
#: for a data access attributed to the enclosing run's function
DigestEvent = Tuple[str, str, int, int]

#: bound (layout-applied) event: (kind, absolute block, function);
#: kind 0 = i-fetch block touch, 1 = data read, 2 = data write
BoundEvent = Tuple[int, int, str]

#: an abstract tag possibility set: a concrete tag (``int``, with
#: :data:`EMPTY` meaning "nothing resident") or a frozenset of >= 2 tags
TagValue = Union[int, "frozenset[int]"]

#: tag meaning "no block resident in this set"
EMPTY = -1

#: stream/write-buffer possibility caps before widening to :data:`TOP`
_STREAM_CAP = 8
_WB_CAP = 16


class _Top:
    """Widened "could be anything" state for stream/write buffers."""

    def __repr__(self) -> str:
        return "TOP"


TOP = _Top()

#: concrete stream-buffer state: (buffered block or None, bcache-miss flag)
StreamState = Tuple[Optional[int], bool]
_NO_STREAM: StreamState = (None, False)


# --------------------------------------------------------------------------- #
# trace digest                                                                #
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class TraceDigest:
    """Layout-independent digest of one walked trace.

    Events preserve the exact order of the memory accesses the hierarchy
    sees; execution runs are pc-contiguous and carry a data access only
    on their last instruction, so block-boundary geometry can be
    re-derived under any candidate layout without reordering anything.
    """

    events: Tuple[DigestEvent, ...]
    instructions: int


def digest_trace(
    trace: Union[PackedTrace, Iterable[TraceEntry]], program: Program
) -> TraceDigest:
    """Digest ``trace`` against ``program``'s current layout.

    Offsets are relative to each function's base address, so the digest
    is valid under any re-layout of the same program (the walk itself is
    layout-invariant; only pcs move).  The digest reads the packed
    columns; a ``TraceEntry`` sequence is packed first.
    """
    packed = (
        trace if isinstance(trace, PackedTrace) else PackedTrace.from_entries(trace)
    )
    ranges = program.occupied_ranges()
    starts = [r[0] for r in ranges]
    ends = [r[1] for r in ranges]
    names = [r[2] for r in ranges]
    bases = {name: program.address_of(name) for name in names}
    block = MemoryConfig.block_size

    events: List[DigestEvent] = []
    fn = ""
    start = 0
    count = 0
    next_pc = -1
    cur_end = -1
    for pc, daddr, flags in zip(packed.pcs, packed.daddrs, packed.flags):
        if count and pc == next_pc and pc < cur_end:
            count += 1
        else:
            if count:
                events.append(("X", fn, start, count))
            i = bisect.bisect_right(starts, pc) - 1
            if i < 0 or pc >= ends[i]:
                raise ValueError(
                    f"trace pc {pc:#x} lies outside every laid-out function"
                )
            fn = names[i]
            start = pc - bases[fn]
            cur_end = ends[i]
            count = 1
        next_pc = pc + INSTRUCTION_SIZE
        if daddr >= 0:
            events.append(("X", fn, start, count))
            kind = "W" if flags & FLAG_DWRITE else "R"
            events.append((kind, fn, daddr // block, 0))
            count = 0
    if count:
        events.append(("X", fn, start, count))
    return TraceDigest(events=tuple(events), instructions=len(packed))


def bind_digest(
    digest: TraceDigest,
    placements: Mapping[str, int],
    *,
    block_bytes: int = MemoryConfig.block_size,
) -> List[BoundEvent]:
    """Expand ``digest`` to absolute block events under ``placements``.

    ``placements`` maps every executed function to its base address (the
    same shape the layout search scores).  Execution runs expand to one
    fetch event per cache block entered — the block boundaries of this
    particular layout.  A fetch of the block the previous fetch event
    touched is dropped: only data events lie between the two, and they
    leave the i-cache alone, so it is a must-hit that charges nothing
    and changes no state.
    """
    out: List[BoundEvent] = []
    append = out.append
    last = -1
    for kind, fn, a, b in digest.events:
        if kind == "X":
            for blk in run_blocks(
                placements[fn],
                a,
                b,
                block_bytes=block_bytes,
                instr_bytes=INSTRUCTION_SIZE,
            ):
                if blk != last:
                    append((0, blk, fn))
                    last = blk
        elif kind == "R":
            append((1, a, fn))
        else:
            append((2, a, fn))
    return out


# --------------------------------------------------------------------------- #
# abstract state                                                              #
# --------------------------------------------------------------------------- #


def join_tags(a: TagValue, b: TagValue) -> TagValue:
    """Must/may join of two per-set tag values (union of possibilities)."""
    if a == b:
        return a
    left = frozenset((a,)) if isinstance(a, int) else a
    right = frozenset((b,)) if isinstance(b, int) else b
    return left | right


def may_resident(value: TagValue, block: int) -> bool:
    """Might ``block`` be resident given possibility ``value``?"""
    if isinstance(value, int):
        return value == block
    return block in value


def must_resident(value: TagValue, block: int) -> bool:
    """Is ``block`` definitely resident given possibility ``value``?"""
    return isinstance(value, int) and value == block


def _join_sparse(
    a: Dict[int, TagValue], b: Dict[int, TagValue]
) -> Dict[int, TagValue]:
    out: Dict[int, TagValue] = {}
    for key in a.keys() | b.keys():
        out[key] = join_tags(a.get(key, EMPTY), b.get(key, EMPTY))
    return out


def _join_small(
    a: Union[_Top, "frozenset"],
    b: Union[_Top, "frozenset"],
    cap: int,
) -> Union[_Top, "frozenset"]:
    if a is TOP or b is TOP:
        return TOP
    joined = a | b  # type: ignore[operator]
    if len(joined) > cap:
        return TOP
    return joined


class MemState:
    """Abstract state of the whole hierarchy.

    Direct-mapped caches are sparse ``set index -> TagValue`` maps
    (missing key = definitely empty); the stream buffer and write buffer
    are frozensets of whole concrete states, or :data:`TOP` after
    widening.
    """

    __slots__ = ("icache", "dcache", "bcache", "stream", "wb")

    def __init__(self) -> None:
        self.icache: Dict[int, TagValue] = {}
        self.dcache: Dict[int, TagValue] = {}
        self.bcache: Dict[int, TagValue] = {}
        self.stream: Union[_Top, "frozenset[StreamState]"] = frozenset(
            (_NO_STREAM,)
        )
        self.wb: Union[_Top, "frozenset[Tuple[int, ...]]"] = frozenset(((),))

    def copy(self) -> "MemState":
        out = MemState.__new__(MemState)
        out.icache = dict(self.icache)
        out.dcache = dict(self.dcache)
        out.bcache = dict(self.bcache)
        out.stream = self.stream
        out.wb = self.wb
        return out

    def join(self, other: "MemState") -> "MemState":
        """Pointwise must/may join (control-flow / pass-iteration merge)."""
        out = MemState.__new__(MemState)
        out.icache = _join_sparse(self.icache, other.icache)
        out.dcache = _join_sparse(self.dcache, other.dcache)
        out.bcache = _join_sparse(self.bcache, other.bcache)
        out.stream = _join_small(self.stream, other.stream, _STREAM_CAP)
        out.wb = _join_small(self.wb, other.wb, _WB_CAP)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemState):
            return NotImplemented
        return (
            self.icache == other.icache
            and self.dcache == other.dcache
            and self.bcache == other.bcache
            and self.stream == other.stream
            and self.wb == other.wb
        )

    def __hash__(self) -> int:  # pragma: no cover - states are not hashed
        raise TypeError("MemState is mutable and unhashable")


# --------------------------------------------------------------------------- #
# the analyzer                                                                #
# --------------------------------------------------------------------------- #


@dataclass
class _PassAccumulator:
    lower: int = 0
    upper: int = 0
    by_function: Dict[str, List[int]] = field(default_factory=dict)


@dataclass(frozen=True)
class PassBounds:
    """Sound (lower, upper) stall bounds of one measured pass."""

    lower_stalls: int
    upper_stalls: int
    instructions: int
    by_function: Mapping[str, Tuple[int, int]]

    @property
    def lower(self) -> float:
        """Lower mCPI bound (same denominator the simulator divides by)."""
        return self.lower_stalls / self.instructions if self.instructions else 0.0

    @property
    def upper(self) -> float:
        return self.upper_stalls / self.instructions if self.instructions else 0.0

    @property
    def exact(self) -> bool:
        return self.lower_stalls == self.upper_stalls

    def by_layer(self) -> Dict[str, Tuple[int, int]]:
        """Per-layer (lower, upper) stall cycles, obs-style buckets."""
        out: Dict[str, List[int]] = {}
        for fn, (lo, hi) in self.by_function.items():
            layer = layer_of(fn)
            cell = out.setdefault(layer, [0, 0])
            cell[0] += lo
            cell[1] += hi
        return {layer: (lo, hi) for layer, (lo, hi) in sorted(out.items())}

    def to_json(self) -> Dict[str, object]:
        return {
            "lower_stalls": self.lower_stalls,
            "upper_stalls": self.upper_stalls,
            "instructions": self.instructions,
            "lower_mcpi": self.lower,
            "upper_mcpi": self.upper,
            "by_layer": {
                layer: list(pair) for layer, pair in self.by_layer().items()
            },
            "by_function": {
                fn: list(pair) for fn, pair in sorted(self.by_function.items())
            },
        }


@dataclass(frozen=True)
class LatencyBounds:
    """Cold and steady-state mCPI bounds of one (stack, config) cell."""

    stack: str
    config: str
    cold: PassBounds
    steady: PassBounds
    #: join iterations the persistence fixed point needed (0 = the pass
    #: state was already periodic, i.e. the steady bounds are exact)
    persistence_iterations: int

    def check(
        self,
        *,
        cold_mcpi: float,
        steady_mcpi: float,
        engine: str = "",
        context: str = "",
    ) -> List[Finding]:
        """Findings for every violated ``lower <= simulated <= upper``.

        Callers pass mCPI values produced by dividing stall cycles by the
        same trace length the digest counted, so the float comparisons
        are exact (division by a common denominator preserves order).
        """
        where = f" in {context}" if context else ""
        via = f" ({engine} engine)" if engine else ""
        findings: List[Finding] = []
        for phase, bounds, measured in (
            ("cold", self.cold, cold_mcpi),
            ("steady", self.steady, steady_mcpi),
        ):
            if not bounds.lower <= measured <= bounds.upper:
                findings.append(
                    Finding(
                        BOUNDS_VIOLATION,
                        f"{self.stack}/{self.config}",
                        f"{phase} mCPI {measured:.6f}{via} escapes the "
                        f"static bounds [{bounds.lower:.6f}, "
                        f"{bounds.upper:.6f}]{where}",
                    )
                )
        return findings

    def render(self) -> str:
        lines = [
            f"static latency bounds: {self.stack}/{self.config}",
            f"  cold   mCPI in [{self.cold.lower:.4f}, "
            f"{self.cold.upper:.4f}]"
            + ("  (exact)" if self.cold.exact else ""),
            f"  steady mCPI in [{self.steady.lower:.4f}, "
            f"{self.steady.upper:.4f}]"
            + (
                "  (exact)"
                if self.steady.exact
                else f"  (persistence joins: {self.persistence_iterations})"
            ),
        ]
        for layer, (lo, hi) in self.steady.by_layer().items():
            span = f"{lo}" if lo == hi else f"{lo}..{hi}"
            lines.append(f"    {layer:<10} steady stalls {span}")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, object]:
        return {
            "stack": self.stack,
            "config": self.config,
            "cold": self.cold.to_json(),
            "steady": self.steady.to_json(),
            "persistence_iterations": self.persistence_iterations,
        }


class BoundsAnalyzer:
    """Abstract interpreter for one bound event sequence."""

    #: safety valve only — the join sequence is monotone in a finite
    #: lattice, so it terminates; real cells converge within a few passes
    MAX_JOINS = 256

    def __init__(
        self,
        events: List[BoundEvent],
        instructions: int,
        *,
        memory: Optional[MemoryConfig] = None,
    ) -> None:
        cfg = memory or MemoryConfig()
        self.events = events
        self.instructions = instructions
        self.cfg = cfg
        self.ni = cfg.icache_size // cfg.block_size
        self.nd = cfg.dcache_size // cfg.block_size
        self.nb = cfg.bcache_size // cfg.block_size
        self.wb_depth = cfg.write_buffer_depth
        # store modes: with coalescing, concrete wb states are tuples of
        # (pair, blocks) entries instead of plain block tuples; with
        # streaming, retired stores never touch the abstract b-cache tags
        self.coalescing = cfg.write_coalescing
        self.streaming = cfg.non_allocating_writes

    # ---- one pass and the persistence fixed point -------------------- #

    def run_pass(self, st: MemState) -> _PassAccumulator:
        """One abstract pass over the events, mutating ``st`` in place.

        The fetch, read and write transfer functions are fused into one
        loop, the way :meth:`repro.arch.fastsim.FastMachine._mem_pass`
        fuses the concrete hierarchy: latencies, geometry and the three
        tag maps are locals, and each event's ``(lower, upper)`` stall is
        charged to its function in a local dict.  A must-hit charges
        nothing; a definite b-cache outcome charges its exact latency; a
        may-resident tag or a joined stream/write-buffer state widens the
        interval to every outcome one of its members allows.
        """
        cfg = self.cfg
        hit = cfg.bcache_hit_cycles
        mem = cfg.main_memory_cycles
        may_lo, may_hi = min(hit, mem), max(hit, mem)
        sh = cfg.stream_hit_cycles
        sh_late = sh + mem - hit  # stream hit whose prefetch missed the b-cache
        fwd = cfg.write_forward_cycles
        full = cfg.write_buffer_full_cycles
        ni, nd, nb, depth = self.ni, self.nd, self.nb, self.wb_depth
        coalescing = self.coalescing
        allocating = not self.streaming
        icache, dcache, bcache = st.icache, st.dcache, st.bcache
        stream, wb = st.stream, st.wb
        by_function: Dict[str, List[int]] = {}
        for kind, b, fn in self.events:
            if kind == 0:
                # ---- fetch: i-cache, then stream buffer or b-cache ---- #
                s = b % ni
                cur = icache.get(s, EMPTY)
                if cur == b:
                    continue  # must-hit: no stall, no state change
                can_hit = not isinstance(cur, int) and b in cur
                icache[s] = b  # a hit keeps tag b, a miss installs it
                sb = b % nb
                curb = bcache.get(sb, EMPTY)
                if curb == b:
                    lo = hi = hit
                elif not isinstance(curb, int) and b in curb:
                    lo, hi = may_lo, may_hi
                else:
                    lo = hi = mem
                if stream is TOP:
                    early = late = miss = True
                else:
                    early = late = miss = False
                    for held, was_miss in stream:  # type: ignore[union-attr]
                        if held != b:
                            miss = True
                        elif was_miss:
                            late = True
                        else:
                            early = True
                if not miss:
                    lo = hi = sh_late if late else sh
                if early:
                    if sh < lo:
                        lo = sh
                    if sh > hi:
                        hi = sh
                if late:
                    if sh_late < lo:
                        lo = sh_late
                    if sh_late > hi:
                        hi = sh_late
                if can_hit:
                    lo = 0
                # the b-cache installs b only on the stream-miss path
                if miss:
                    if can_hit or early or late:
                        bcache[sb] = join_tags(curb, b)
                    else:
                        bcache[sb] = b
                # every miss path prefetches b+1 unless the (post-install)
                # i-cache holds it; the prefetch's b-cache access installs it
                nxt = b + 1
                cur = icache.get(nxt % ni, EMPTY)
                in_i_must = cur == nxt
                in_i_may = in_i_must or (not isinstance(cur, int) and nxt in cur)
                sb = nxt % nb
                curb = bcache.get(sb, EMPTY)
                in_b_must = curb == nxt
                in_b_may = in_b_must or (not isinstance(curb, int) and nxt in curb)
                if not in_i_must:
                    if can_hit or in_i_may:
                        bcache[sb] = join_tags(curb, nxt)
                    else:
                        bcache[sb] = nxt
                if stream is not TOP:
                    # a fetch hit leaves the buffer alone; a miss probes it
                    # (consuming a hit), then refills it with the prefetch
                    states: Set[StreamState] = set()
                    if can_hit:
                        states.update(stream)  # type: ignore[arg-type]
                    if in_i_may:
                        states.update(
                            _NO_STREAM if state[0] == b else state
                            for state in stream  # type: ignore[union-attr]
                        )
                    if not in_i_must:
                        if in_b_may:
                            states.add((nxt, False))
                        if not in_b_must:
                            states.add((nxt, True))
                    stream = TOP if len(states) > _STREAM_CAP else frozenset(states)
            elif kind == 1:
                # ---- read: d-cache, then store forwarding or b-cache ---- #
                s = b % nd
                cur = dcache.get(s, EMPTY)
                if cur == b:
                    continue  # must-hit
                can_hit = not isinstance(cur, int) and b in cur
                dcache[s] = b  # read misses allocate; hits keep the tag
                if wb is TOP:
                    fwd_possible, fwd_definite = True, False
                else:
                    fwd_possible, fwd_definite = False, True
                    for entry in wb:  # type: ignore[union-attr]
                        if (
                            any(b in blks for _, blks in entry)
                            if coalescing
                            else b in entry
                        ):
                            fwd_possible = True
                        else:
                            fwd_definite = False
                if fwd_definite:
                    lo = hi = fwd
                else:
                    sb = b % nb
                    curb = bcache.get(sb, EMPTY)
                    if curb == b:
                        lo = hi = hit
                    elif not isinstance(curb, int) and b in curb:
                        lo, hi = may_lo, may_hi
                    else:
                        lo = hi = mem
                    if fwd_possible:
                        lo, hi = min(lo, fwd), max(hi, fwd)
                    if can_hit or fwd_possible:
                        bcache[sb] = join_tags(curb, b)
                    else:
                        bcache[sb] = b
                if can_hit:
                    lo = 0
            elif wb is TOP:
                # ---- write into an unknown buffer: anything may happen ---- #
                lo, hi = 0, full
                if allocating:
                    sb = b % nb
                    bcache[sb] = join_tags(bcache.get(sb, EMPTY), b)
            else:
                # ---- write: merge, share a coalesced slot, or append ---- #
                lo, hi = full, 0
                merge_possible = append_possible = False
                entries: Set[Tuple] = set()
                pair = b >> 1
                for entry in wb:  # type: ignore[union-attr]
                    if (
                        any(b in blks for _, blks in entry)
                        if coalescing
                        else b in entry
                    ):
                        merge_possible = True
                        entries.add(entry)
                        lo = 0
                        continue
                    append_possible = True
                    if coalescing and any(p == pair for p, _ in entry):
                        # the neighbour block is buffered: the store shares
                        # its slot, never grows the FIFO, never overflows
                        grown: Tuple = tuple(
                            (p, blks + (b,)) if p == pair else (p, blks)
                            for p, blks in entry
                        )
                        lo = 0
                    else:
                        grown = entry + (((pair, (b,)),) if coalescing else (b,))
                        if len(grown) > depth:
                            grown = grown[1:]
                            if full > hi:
                                hi = full
                        else:
                            lo = 0
                    entries.add(grown)
                if hi < lo:
                    lo = hi
                if append_possible and allocating:
                    # a new-block store retires through the b-cache and
                    # installs; streaming stores leave the tags untouched
                    sb = b % nb
                    if merge_possible:
                        bcache[sb] = join_tags(bcache.get(sb, EMPTY), b)
                    else:
                        bcache[sb] = b
                wb = TOP if len(entries) > _WB_CAP else frozenset(entries)
            cell = by_function.get(fn)
            if cell is None:
                by_function[fn] = [lo, hi]
            else:
                cell[0] += lo
                cell[1] += hi
        st.stream = stream
        st.wb = wb
        return _PassAccumulator(
            lower=sum(cell[0] for cell in by_function.values()),
            upper=sum(cell[1] for cell in by_function.values()),
            by_function=by_function,
        )

    def analyze(
        self, *, stack: str = "", config: str = ""
    ) -> LatencyBounds:
        """Cold and steady bounds of the digested roundtrip."""
        st = MemState()
        cold = self.run_pass(st)  # pass 1: the cold measurement
        self.run_pass(st)  # pass 2: first warm-up; st = entry of pass 3

        # persistence: join entry states of every later pass to a fixed
        # point, so one abstract pass bounds any measurement after >= 2
        # warm-ups (the join sequence is monotone, hence finite).  The
        # converged iteration's pass started from the fixed point itself,
        # so its accumulator is the steady bound.
        joined = st
        iterations = 0
        while True:
            nxt = joined.copy()
            steady = self.run_pass(nxt)
            merged = joined.join(nxt)
            if merged == joined:
                break
            joined = merged
            iterations += 1
            if iterations > self.MAX_JOINS:
                raise RuntimeError(
                    "persistence analysis failed to converge "
                    f"after {self.MAX_JOINS} joins"
                )
        return LatencyBounds(
            stack=stack,
            config=config,
            cold=self._freeze(cold),
            steady=self._freeze(steady),
            persistence_iterations=iterations,
        )

    def _freeze(self, acc: _PassAccumulator) -> PassBounds:
        return PassBounds(
            lower_stalls=acc.lower,
            upper_stalls=acc.upper,
            instructions=self.instructions,
            by_function={
                fn: (lo, hi) for fn, (lo, hi) in acc.by_function.items()
            },
        )


# --------------------------------------------------------------------------- #
# cell-level entry points                                                     #
# --------------------------------------------------------------------------- #


def bounds_from_digest(
    digest: TraceDigest,
    placements: Mapping[str, int],
    *,
    stack: str = "",
    config: str = "",
    memory: Optional[MemoryConfig] = None,
    events: Optional[List[BoundEvent]] = None,
) -> LatencyBounds:
    """Bounds of one digest under one concrete layout.

    ``events`` is the digest already bound under ``placements`` at the
    memory's block size (:func:`bind_digest`), for a caller that bounds
    one image under several store modes and binds it once.
    """
    cfg = memory or MemoryConfig()
    if events is None:
        events = bind_digest(digest, placements, block_bytes=cfg.block_size)
    analyzer = BoundsAnalyzer(events, digest.instructions, memory=cfg)
    return analyzer.analyze(stack=stack, config=config)


def _cell_walk(
    stack: str,
    config: str,
    *,
    opts: "Optional[Section2Options]" = None,
    seed: int = 42,
    engine: str = "fast",
) -> "Tuple[Program, WalkResult]":
    """(program, walk) of one cell's captured roundtrip, default layout,
    walked on ``engine``."""
    from repro.harness.experiment import Experiment, walk_events

    exp = Experiment(stack, config, opts, base_seed=seed, engine=engine)
    program = exp.build().program
    events, data_env = exp.capture_roundtrip(seed)
    return program, walk_events(program, events, data_env, engine)


def cell_digest(
    stack: str,
    config: str,
    *,
    opts: "Optional[Section2Options]" = None,
    seed: int = 42,
) -> Tuple[TraceDigest, Dict[str, int]]:
    """(digest, default placements) of one (stack, config) cell."""
    program, walk = _cell_walk(stack, config, opts=opts, seed=seed)
    digest = digest_trace(walk.packed, program)
    placements = {
        name: program.address_of(name) for name in program.names()
    }
    return digest, placements


def cell_bounds(
    stack: str,
    config: str,
    *,
    opts: "Optional[Section2Options]" = None,
    seed: int = 42,
    memory: Optional[MemoryConfig] = None,
) -> LatencyBounds:
    """Static latency bounds of one cell on its default layout."""
    digest, placements = cell_digest(stack, config, opts=opts, seed=seed)
    return bounds_from_digest(
        digest, placements, stack=stack, config=config, memory=memory
    )


def check_cell_bounds(
    stack: str,
    config: str,
    *,
    engine: Optional[str] = None,
    opts: "Optional[Section2Options]" = None,
    seed: int = 42,
    memory: Optional[MemoryConfig] = None,
) -> Tuple[LatencyBounds, List[Finding]]:
    """Compute one cell's bounds and validate them against a simulation.

    ``engine`` picks the measuring engine, resolved as
    :class:`~repro.harness.experiment.Experiment` resolves it: ``None``
    reads ``REPRO_SIM_ENGINE`` and an unknown name raises ``ValueError``.
    Returns the bounds plus any invariant-violation findings — an empty
    list is the machine-checked claim ``lower <= simulated <= upper`` for
    both the cold and the steady measurement.
    """
    from repro.api.settings import Settings
    from repro.arch.simulator import AlphaConfig
    from repro.harness.experiment import simulate_walk

    resolved = Settings.from_env().with_engine(engine).engine
    program, walk = _cell_walk(stack, config, opts=opts, seed=seed, engine=resolved)
    digest = digest_trace(walk.packed, program)
    placements = {
        name: program.address_of(name) for name in program.names()
    }
    bounds = bounds_from_digest(
        digest, placements, stack=stack, config=config, memory=memory
    )

    machine_cfg = AlphaConfig(memory=memory) if memory is not None else None
    cold, steady = simulate_walk(walk, resolved, machine_cfg)
    findings = bounds.check(
        cold_mcpi=cold.mcpi,
        steady_mcpi=steady.mcpi,
        engine=resolved,
        context=f"{stack}/{config}",
    )
    return bounds, findings
