"""Fused fast simulation kernel over packed traces.

The reference model (:mod:`repro.arch.memory`, :mod:`repro.arch.cpu`)
dispatches every trace entry through several method calls and dataclass
attribute loads.  This module simulates a :class:`~repro.arch.packed.
PackedTrace` in two flat loops — one for the memory hierarchy, one for the
dual-issue CPU — with all cache state (direct-mapped tag lists, the write
buffer's deque+set, the stream buffer's single block) held in local
variables.  It is an *exact* reimplementation: :class:`FastMachine`
produces bit-identical :class:`~repro.arch.simulator.SimResult` /
:class:`~repro.arch.memory.MemoryStats` / :class:`~repro.arch.cpu.CpuStats`
to :class:`~repro.arch.simulator.MachineSimulator`, which stays in the
tree as the oracle (see ``tests/arch/test_fastsim.py``).

Two structural accelerations on top of the fused loops:

* **block columns** — per (trace, geometry) the fetch stream is
  run-length encoded into cache-block runs (:func:`fetch_runs`; only a
  run's first fetch can miss) and the data accesses into one dense column
  of blocks (:func:`data_blocks`; writes encoded as ``-2 - b``), cached on
  the trace, so the inner loop does no division and no flag tests;
* **steady-state convergence** — ``simulate_cold_and_steady`` runs the
  cold pass, then measures warm passes while checking whether the pass
  left the hierarchy state exactly as it found it (tags, ever-resident
  sets, write buffer, stream buffer).  Once a warm pass is a fixed point,
  every further pass must repeat it instruction for instruction, so its
  delta *is* the steady-state measurement and the remaining warm-up
  rounds are skipped.  This is an exact shortcut, not an approximation.
"""

from __future__ import annotations

from array import array
from dataclasses import replace
from typing import List, Optional, Sequence, Tuple, Union

from repro.arch.caches import CacheStats
from repro.arch.cpu import CpuConfig, CpuStats
from repro.arch.isa import Op, TraceEntry
from repro.arch.memory import (BCACHE_HIT, BCACHE_MISS, FETCH, FORWARD, NONE, READ,
                               STREAM, WRITE, MemoryConfig, MemoryStats)
from repro.arch.packed import (
    FLAG_DWRITE,
    IS_BRANCH,
    IS_MEMORY,
    OPS_BY_CODE,
    OP_CODES,
    PackedTrace,
)
from repro.arch.simulator import AlphaConfig, SimResult

Traceable = Union[PackedTrace, Sequence[TraceEntry]]

#: flattened static pairing table: ``_PAIR[a * len(Op) + b]`` says whether
#: op-codes ``a`` and ``b`` dual-issue (mirrors ``repro.arch.cpu._can_pair``)
_NOPS = len(OPS_BY_CODE)


def _build_pair_table() -> bytes:
    from repro.arch.cpu import _can_pair

    table = bytearray(_NOPS * _NOPS)
    for a, first in enumerate(OPS_BY_CODE):
        for b, second in enumerate(OPS_BY_CODE):
            table[a * _NOPS + b] = 1 if _can_pair(first, second) else 0
    return bytes(table)


_PAIR = _build_pair_table()
_MUL_CODE = OP_CODES[Op.MUL]

#: the (resident, i_ever, d_ever, b_ever) token parts of a cold machine
_COLD_SETS = (frozenset(), frozenset(), frozenset(), frozenset())

#: length of the kernel's counter layout (``FastMachine._c`` and each
#: :meth:`FastMachine.mem_delta`): i_acc, i_miss, i_repl, d_acc, d_miss,
#: d_repl, b_acc, b_miss, b_repl, wb_acc, wb_miss, stall, instructions,
#: sb_hits, wb_evictions, forwards
N_COUNTERS = 16


def as_packed(trace: Traceable) -> PackedTrace:
    if isinstance(trace, PackedTrace):
        return trace
    return PackedTrace.from_entries(trace)


def fetch_runs(
    packed: PackedTrace, block_size: int, icache_blocks: int
) -> Tuple[array, array, array]:
    """Run-length encoding of the fetch stream, plus per-run memory-op counts.

    Consecutive entries fetching from the same cache block form a *run*:
    only the run's first fetch can miss (an i-cache hit has no side effects
    and nothing evicts the block's tag mid-run), so the memory pass probes
    the i-cache once per run instead of once per instruction.  Returns
    ``(run_blks, run_idxs, dcounts)`` — block number, direct-mapped index,
    and how many memory accesses the run's body performs.

    The encoding depends only on ``pcs``/``ops``, so it lives in the
    trace's *shared* cache: sibling traces produced by template rebinding
    (same code walked under different data-address jitter) compute it once.
    """
    key = ("runs", block_size, icache_blocks)
    cached = packed._shared.get(key)
    if cached is not None:
        return cached
    run_blks = array("q")
    run_idxs = array("q")
    dcounts = array("q")
    add_blk = run_blks.append
    add_idx = run_idxs.append
    add_cnt = dcounts.append
    is_memory = IS_MEMORY
    prev = -1
    cnt = 0
    for pc, code in zip(packed.pcs, packed.ops):
        blk = pc // block_size
        if blk != prev:
            if prev >= 0:
                add_cnt(cnt)
                cnt = 0
            add_blk(blk)
            add_idx(blk % icache_blocks)
            prev = blk
        if is_memory[code]:
            cnt += 1
    if prev >= 0:
        add_cnt(cnt)
    result = (run_blks, run_idxs, dcounts)
    packed._shared[key] = result
    return result


def data_blocks(packed: PackedTrace, block_size: int) -> array:
    """Dense column of data-access blocks, in trace order.

    One element per memory access: the accessed block number for a read,
    ``-2 - block`` for a buffered write.  Aligned with :func:`fetch_runs`
    via its per-run counts.  Per-trace (data addresses carry the jitter),
    cached on the trace.
    """
    key = ("dblks", block_size)
    cached = packed._derived.get(key)
    if cached is not None:
        return cached
    dwrite = FLAG_DWRITE
    dblks = array(
        "q",
        [
            (-2 - d // block_size) if fl & dwrite else d // block_size
            for d, fl in zip(packed.daddrs, packed.flags)
            if d >= 0
        ],
    )
    packed._derived[key] = dblks
    return dblks


# --------------------------------------------------------------------------- #
# fused CPU pass                                                              #
# --------------------------------------------------------------------------- #

def cpu_pass(packed: PackedTrace, config: Optional[CpuConfig] = None) -> CpuStats:
    """Issue a packed trace through the dual-issue model in one flat loop.

    Exactly equivalent to ``CpuModel(config).run(trace)``.  The result
    depends only on ``ops``/``flags``, so like :func:`fetch_runs` it lives
    in the trace's shared cache, keyed by config: a template and its
    rebinds share one pass.  Each call returns a fresh :class:`CpuStats`.
    """
    cfg = config or CpuConfig()
    key = ("cpu", cfg)
    cached = packed._shared.get(key)
    if cached is not None:
        return replace(cached)
    mul_extra = cfg.multiply_extra_cycles
    br_pen = cfg.taken_branch_penalty
    pair = _PAIR
    is_branch = IS_BRANCH
    nops = _NOPS
    mul_code = _MUL_CODE

    cycles = 0
    wasted = 0
    taken = 0
    mults = 0
    pending = -1        # op code of the instruction waiting for a partner
    pending_pen = 0     # its per-instruction penalty

    for code, fl in zip(packed.ops, packed.flags):
        if code == mul_code:
            mults += 1
            pen = mul_extra
        elif is_branch[code] and fl & 1:
            taken += 1
            pen = br_pen
        else:
            pen = 0
        if pending < 0:
            pending = code
            pending_pen = pen
        elif pair[pending * nops + code]:
            cycles += 1 + pending_pen + pen
            pending = -1
        else:
            cycles += 1 + pending_pen
            wasted += 1
            pending = code
            pending_pen = pen
    if pending >= 0:
        cycles += 1 + pending_pen
        wasted += 1

    stats = packed._shared[key] = CpuStats(
        instructions=len(packed),
        cycles=cycles,
        issue_slots_wasted=wasted,
        taken_branches=taken,
        multiplies=mults,
    )
    return replace(stats)


# --------------------------------------------------------------------------- #
# fused memory hierarchy                                                      #
# --------------------------------------------------------------------------- #

class FastMachine:
    """Packed-trace equivalent of :class:`~repro.arch.simulator.
    MachineSimulator`: a stateful memory hierarchy plus the stateless CPU
    pass, all fused.

    Like the reference, the hierarchy persists across calls so a warm-up
    can precede the measured run; a fresh instance is a cold machine.

    An optional ``sink`` (see :class:`repro.obs.Attribution`) receives
    every pass's decision log (see :mod:`repro.arch.memory`): the kernel
    appends a record on its miss and store-retire paths only, and the sink
    classifies the log.  After each measured run the attributed stall total
    is checked against the kernel's.  Without a sink nothing is logged and
    the hit paths are untouched.
    """

    def __init__(
        self, config: Optional[AlphaConfig] = None, *, sink=None
    ) -> None:
        self.sink = sink
        self.config = config or AlphaConfig()
        mem: MemoryConfig = self.config.memory
        self._block_size = mem.block_size
        self._i_nblocks = mem.icache_size // mem.block_size
        self._d_nblocks = mem.dcache_size // mem.block_size
        self._b_nblocks = mem.bcache_size // mem.block_size
        self._wb_depth = mem.write_buffer_depth
        self._coalescing = mem.write_coalescing
        self._w_alloc = not mem.non_allocating_writes
        self.reset()

    def reset(self) -> None:
        self._itags: List[int] = [-1] * self._i_nblocks
        self._dtags: List[int] = [-1] * self._d_nblocks
        self._btags: List[int] = [-1] * self._b_nblocks
        self._i_ever: set = set()
        self._d_ever: set = set()
        self._b_ever: set = set()
        # FIFO, oldest first (depth <= 4); entries are blocks, or
        # two-block pair ids under write coalescing
        self._wb: List[int] = []
        self._wb_set: set = set()
        self._wb_pairs: dict = {}       # coalescing: pair id -> blocks
        self._sb_block = -1
        self._sb_was_miss = False
        self._c = [0] * N_COUNTERS
        # the set parts (resident, i_ever, d_ever, b_ever) of the last
        # token this machine made or restored, and its b-miss count then
        self._held = _COLD_SETS
        self._held_b_miss = 0

    # ------------------------------------------------------------------ #
    # observation (mirrors MemoryHierarchy.stats)                        #
    # ------------------------------------------------------------------ #

    @staticmethod
    def _stats_from(c: Sequence[int]) -> MemoryStats:
        return MemoryStats(
            icache=CacheStats(c[0], c[1], c[2]),
            # Table 6 folds the write buffer into the d-cache columns:
            # reads + buffered writes, replacements from reads only.
            dcache=CacheStats(c[3] + c[9], c[4] + c[10], c[5]),
            bcache=CacheStats(c[6], c[7], c[8]),
            stall_cycles=c[11],
            instructions=c[12],
            stream_buffer_hits=c[13],
            write_buffer_evictions=c[14],
            dcache_read_misses=c[4],
            write_buffer_forwards=c[15],
        )

    @property
    def stats(self) -> MemoryStats:
        return self._stats_from(self._c)

    # ------------------------------------------------------------------ #
    # the fused memory pass                                              #
    # ------------------------------------------------------------------ #

    def _mem_pass(self, packed: PackedTrace, track: bool = False, log=None) -> bool:
        """Run one pass of the trace through the hierarchy, appending its
        decision records to ``log`` if one is given.

        With ``track``, returns True when any further pass is guaranteed
        to repeat this one's counters exactly.  That holds when the pass
        left tags, ever-resident sets and the write buffer exactly as it
        found them, and the stream buffer either also returned to its
        entry state or was provably *inert*: its entry content never hit
        before being overwritten, and its exit content is not among the
        blocks the next pass will probe before its own first overwrite
        (the probe sequence repeats, so those are exactly the blocks this
        pass probed while the entry content was live).  Either way the
        next pass makes identical hit/miss decisions at every step and
        ends in this pass's exit state — a fixed point.
        """
        mem = self.config.memory
        bc_hit = mem.bcache_hit_cycles
        main = mem.main_memory_cycles
        stream_hit = mem.stream_hit_cycles
        stream_extra = main - bc_hit
        fwd = mem.write_forward_cycles
        wb_full = mem.write_buffer_full_cycles
        wb_depth = self._wb_depth

        itags = self._itags
        dtags = self._dtags
        btags = self._btags
        i_ever = self._i_ever
        d_ever = self._d_ever
        b_ever = self._b_ever
        i_ever_add = i_ever.add
        d_ever_add = d_ever.add
        b_ever_add = b_ever.add
        wb = self._wb
        wb_set = self._wb_set
        wb_pairs = self._wb_pairs
        coalescing = self._coalescing
        w_alloc = self._w_alloc
        i_n = self._i_nblocks
        d_n = self._d_nblocks
        b_n = self._b_nblocks
        sb_block = self._sb_block
        sb_was_miss = self._sb_was_miss
        record = None if log is None else log.append

        (i_acc, i_miss, i_repl, d_acc, d_miss, d_repl,
         b_acc, b_miss, b_repl, wb_acc, wb_miss,
         stall, instructions, sb_hits, wb_evict, fwds) = self._c

        if track:
            ever_sizes = (len(i_ever), len(d_ever), len(b_ever))
            wb_before = (tuple(wb), frozenset(wb_set))
            sb_before = (sb_block, sb_was_miss)
            # first-touch old tags per modified index, per cache
            i_old: dict = {}
            d_old: dict = {}
            b_old: dict = {}
            # stream-buffer inertness: is the entry content still live
            # (neither hit-consumed nor overwritten), did it ever hit, and
            # which blocks were probed against it while live
            sb_init_live = True
            sb_init_hit = False
            sb_init_probed: set = set()

        run_blks, run_idxs, dcounts = fetch_runs(packed, self._block_size, i_n)
        dblks = data_blocks(packed, self._block_size)
        # every entry is exactly one fetch; the loop only counts stalls
        instructions += len(packed)
        i_acc += len(packed)

        pos = 0
        for blk, idx, cnt in zip(run_blks, run_idxs, dcounts):
            # ---- instruction fetch: at most the run's first can miss --- #
            if itags[idx] != blk:
                i_miss += 1
                if blk in i_ever:
                    i_repl += 1
                victim = itags[idx]
                if track and idx not in i_old:
                    i_old[idx] = victim
                itags[idx] = blk
                i_ever_add(blk)
                nblk = blk + 1
                if track and sb_init_live:
                    sb_init_probed.add(blk)
                if sb_block == blk:
                    # stream-buffer hit: the prefetch hid the b-cache
                    # access; if that prefetch had missed the b-cache, the
                    # un-hidden part of the main-memory latency lands here.
                    if track and sb_init_live:
                        sb_init_hit = True
                        sb_init_live = False
                    sb_block = -1
                    sb_hits += 1
                    stall += stream_hit
                    served, late = STREAM, sb_was_miss
                    if sb_was_miss:
                        stall += stream_extra
                else:
                    b_acc += 1
                    bidx = blk % b_n
                    served, late = BCACHE_HIT, False
                    if btags[bidx] == blk:
                        stall += bc_hit
                    else:
                        b_miss += 1
                        if blk in b_ever:
                            b_repl += 1
                        if track and bidx not in b_old:
                            b_old[bidx] = btags[bidx]
                        btags[bidx] = blk
                        b_ever_add(blk)
                        stall += main
                        served = BCACHE_MISS
                # sequential prefetch of the successor block (overlapped:
                # a b-cache access now, any miss cost charged on use)
                prefetch = NONE
                if itags[nblk % i_n] != nblk:
                    b_acc += 1
                    bidx = nblk % b_n
                    if btags[bidx] == nblk:
                        sb_was_miss = False
                        prefetch = BCACHE_HIT
                    else:
                        b_miss += 1
                        if nblk in b_ever:
                            b_repl += 1
                        if track and bidx not in b_old:
                            b_old[bidx] = btags[bidx]
                        btags[bidx] = nblk
                        b_ever_add(nblk)
                        sb_was_miss = True
                        prefetch = BCACHE_MISS
                    if track:
                        sb_init_live = False
                    sb_block = nblk
                if record is not None:
                    record((FETCH, blk, victim, served, late, prefetch))

            # ---- data accesses of the run's body, in trace order ------- #
            if not cnt:
                continue
            end = pos + cnt
            data = dblks[pos:end]
            pos = end
            for d in data:
                if d >= 0:
                    # load: d-cache (allocates on read miss), then
                    # store->load forwarding, then b-cache
                    d_acc += 1
                    idx = d % d_n
                    if dtags[idx] != d:
                        d_miss += 1
                        if d in d_ever:
                            d_repl += 1
                        if track and idx not in d_old:
                            d_old[idx] = dtags[idx]
                        dtags[idx] = d
                        d_ever_add(d)
                        if d in wb_set:
                            fwds += 1
                            stall += fwd
                            served = FORWARD
                        else:
                            b_acc += 1
                            bidx = d % b_n
                            if btags[bidx] == d:
                                stall += bc_hit
                                served = BCACHE_HIT
                            else:
                                b_miss += 1
                                if d in b_ever:
                                    b_repl += 1
                                if track and bidx not in b_old:
                                    b_old[bidx] = btags[bidx]
                                btags[bidx] = d
                                b_ever_add(d)
                                stall += main
                                served = BCACHE_MISS
                        if record is not None:
                            record((READ, d, served))
                else:
                    # store: write-through via the merging write buffer
                    w = -2 - d
                    wb_acc += 1
                    if w not in wb_set:
                        wb_miss += 1
                        if coalescing:
                            # two-block (64-byte) entry granularity: a
                            # neighbour already buffered shares its slot
                            pair = w >> 1
                            wb_set.add(w)
                            slot = wb_pairs.get(pair)
                            if slot is not None:
                                slot.append(w)
                                overflowed = False
                            else:
                                wb.append(pair)
                                wb_pairs[pair] = [w]
                                overflowed = len(wb) > wb_depth
                                if overflowed:
                                    for old in wb_pairs.pop(wb.pop(0)):
                                        wb_set.discard(old)
                                    wb_evict += 1
                        else:
                            wb.append(w)
                            wb_set.add(w)
                            overflowed = len(wb) > wb_depth
                            if overflowed:
                                wb_set.discard(wb.pop(0))
                                wb_evict += 1
                        bidx = w % b_n
                        b_acc += 1
                        if btags[bidx] != w:
                            b_miss += 1
                            if w in b_ever:
                                b_repl += 1
                            if w_alloc:
                                # streaming stores go around the b-cache
                                if track and bidx not in b_old:
                                    b_old[bidx] = btags[bidx]
                                btags[bidx] = w
                                b_ever_add(w)
                        if overflowed:
                            stall += wb_full
                        if record is not None:
                            record((WRITE, w, w_alloc, overflowed))

        self._sb_block = sb_block
        self._sb_was_miss = sb_was_miss
        self._c = [i_acc, i_miss, i_repl, d_acc, d_miss, d_repl,
                   b_acc, b_miss, b_repl, wb_acc, wb_miss,
                   stall, instructions, sb_hits, wb_evict, fwds]

        if not track:
            return False
        sb_settled = sb_before == (sb_block, sb_was_miss) or (
            # Inert stream buffer: entry content never hit, and the exit
            # content misses every pre-overwrite probe of the next pass.
            not sb_init_hit
            and sb_block not in sb_init_probed
        )
        return (
            sb_settled
            and ever_sizes == (len(i_ever), len(d_ever), len(b_ever))
            and wb_before == (tuple(wb), frozenset(wb_set))
            and all(itags[i] == t for i, t in i_old.items())
            and all(dtags[i] == t for i, t in d_old.items())
            and all(btags[i] == t for i, t in b_old.items())
        )

    # ------------------------------------------------------------------ #
    # state snapshot / restore (streaming support)                       #
    # ------------------------------------------------------------------ #

    def snapshot_state(self) -> tuple:
        """The hierarchy's state as one hashable token (counters excluded).

        The b-cache part is the frozenset of *resident* blocks, not the
        tag array: block ``b`` can only sit in set ``b % sets``, so a
        direct-mapped tag array is determined by the blocks it holds, and
        every tag the kernel installs is in ``b_ever``.  Two tokens are
        therefore equal exactly when the two states are, and a token costs
        O(|b_ever|) rather than O(b-cache sets).

        A token shares the set parts of the last token this machine made
        or restored where they cannot have changed: an ever-resident set
        only grows, so one of unchanged size is the same set, and tags are
        written only on a b-cache miss, so an unchanged b-miss count means
        the same resident blocks.  Equal states still give equal tokens,
        and interned states share their sets instead of copying them.
        """
        resident, i_ever, d_ever, b_ever = self._held
        b_miss = self._c[7]
        if b_miss != self._held_b_miss:
            bt = self._btags
            n = self._b_nblocks
            resident = frozenset([b for b in self._b_ever if bt[b % n] == b])
        if len(self._i_ever) != len(i_ever):
            i_ever = frozenset(self._i_ever)
        if len(self._d_ever) != len(d_ever):
            d_ever = frozenset(self._d_ever)
        if len(self._b_ever) != len(b_ever):
            b_ever = frozenset(self._b_ever)
        self._held = (resident, i_ever, d_ever, b_ever)
        self._held_b_miss = b_miss
        if self._coalescing:
            wb_tok: tuple = tuple(
                (pair, tuple(self._wb_pairs[pair])) for pair in self._wb
            )
        else:
            wb_tok = tuple(self._wb)
        return (
            tuple(self._itags),
            tuple(self._dtags),
            resident,
            i_ever,
            d_ever,
            b_ever,
            wb_tok,
            self._sb_block,
            self._sb_was_miss,
        )

    def restore_state(self, snap: tuple) -> None:
        """Restore a :meth:`snapshot_state` token (counters untouched).

        While no b-cache miss has happened since the machine's last token,
        its tags still hold that token's resident blocks, so only the
        blocks where the two resident sets differ are rewritten; otherwise
        the sets of the current ``b_ever`` (the only ones that can hold a
        tag) are cleared and the token's resident blocks written back.  An
        ever-resident set the machine already holds is kept.
        """
        itags, dtags, resident, i_ever, d_ever, b_ever, wb, sb, sbm = snap
        self._itags[:] = itags
        self._dtags[:] = dtags
        bt = self._btags
        n = self._b_nblocks
        held, held_i, held_d, held_b = self._held
        b_miss = self._c[7]
        if b_miss != self._held_b_miss:
            for b in self._b_ever:
                bt[b % n] = -1
            for b in resident:
                bt[b % n] = b
        elif resident is not held:
            for b in held - resident:
                bt[b % n] = -1
            for b in resident - held:
                bt[b % n] = b
        if i_ever is not held_i or len(self._i_ever) != len(held_i):
            self._i_ever = set(i_ever)
        if d_ever is not held_d or len(self._d_ever) != len(held_d):
            self._d_ever = set(d_ever)
        if b_ever is not held_b or len(self._b_ever) != len(held_b):
            self._b_ever = set(b_ever)
        self._held = (resident, i_ever, d_ever, b_ever)
        self._held_b_miss = b_miss
        if self._coalescing:
            self._wb = [pair for pair, _ in wb]
            self._wb_pairs = {pair: list(blocks) for pair, blocks in wb}
            self._wb_set = {b for _, blocks in wb for b in blocks}
        else:
            self._wb = list(wb)
            self._wb_set = set(wb)
            self._wb_pairs = {}
        self._sb_block = sb
        self._sb_was_miss = sbm

    # ------------------------------------------------------------------ #
    # MachineSimulator-compatible API                                    #
    # ------------------------------------------------------------------ #

    def warm_up(self, trace: Traceable) -> None:
        """Run a trace purely for its cache side effects."""
        packed = as_packed(trace)
        log = None if self.sink is None else []
        self._mem_pass(packed, log=log)
        if log is not None:
            self.sink.observe_pass(packed, log, measure=False)

    def mem_delta(self, trace: Traceable) -> List[int]:
        """One raw memory pass, returning its :data:`N_COUNTERS` delta.

        The streaming traffic engine sums these deltas itself (scaled by
        how often each transition fires), so it wants the counters rather
        than a :class:`MemoryStats`; no attribution sink is consulted.
        """
        packed = as_packed(trace)
        before = list(self._c)
        self._mem_pass(packed)
        return [a - b for a, b in zip(self._c, before)]

    def run(self, trace: Traceable) -> SimResult:
        """Simulate one trace, returning stats for exactly that trace."""
        packed = as_packed(trace)
        before = list(self._c)
        log = None if self.sink is None else []
        self._mem_pass(packed, log=log)
        delta = [a - b for a, b in zip(self._c, before)]
        if log is not None:
            attributed = self.sink.observe_pass(packed, log, measure=True)
            if attributed != delta[11]:
                from repro.obs.attribution import AttributionMismatch

                raise AttributionMismatch(
                    f"attributed {attributed} stall cycles for this pass but "
                    f"the fast engine measured {delta[11]}"
                )
        return SimResult(
            cpu=cpu_pass(packed, self.config.cpu),
            memory=self._stats_from(delta),
        )

    def run_steady_state(
        self, trace: Traceable, *, warmup_rounds: int = 2
    ) -> SimResult:
        """Warm the hierarchy with ``warmup_rounds`` repetitions, then measure."""
        packed = as_packed(trace)
        for _ in range(warmup_rounds):
            self.warm_up(packed)
        return self.run(packed)


def simulate_cold_and_steady(
    trace: Traceable,
    config: Optional[AlphaConfig] = None,
    *,
    warmup_rounds: int = 2,
) -> Tuple[SimResult, SimResult]:
    """Cold and steady-state results of one trace, sharing passes.

    Equivalent to ``MachineSimulator(config).run(trace)`` on one fresh
    machine plus ``MachineSimulator(config).run_steady_state(trace)`` on
    another — but the cold measured pass doubles as the first warm-up
    (running a trace evolves the hierarchy identically either way), the
    CPU pass is computed once (it is stateless, so cold and steady share
    it), and warm passes stop early at a fixed point (see module
    docstring).
    """
    packed = as_packed(trace)
    cfg = config or AlphaConfig()
    cold_mem, steady_mem = cold_and_steady_memory(
        packed, cfg, warmup_rounds=warmup_rounds
    )
    return (
        SimResult(cpu=cpu_pass(packed, cfg.cpu), memory=cold_mem),
        SimResult(cpu=cpu_pass(packed, cfg.cpu), memory=steady_mem),
    )


def cold_and_steady_memory(
    packed: PackedTrace,
    config: Optional[AlphaConfig] = None,
    *,
    warmup_rounds: int = 2,
) -> Tuple[MemoryStats, MemoryStats]:
    """Memory-side half of :func:`simulate_cold_and_steady`."""
    machine = FastMachine(config)

    def measured(track: bool) -> Tuple[MemoryStats, bool]:
        before = list(machine._c)
        fixed = machine._mem_pass(packed, track=track)
        delta = [a - b for a, b in zip(machine._c, before)]
        return machine._stats_from(delta), fixed

    # Pass 1 is the cold measurement (and doubles as the first warm-up);
    # it is never a fixed point for real traces, so skip its tracking.
    cold_mem, _ = measured(track=False)
    steady_mem = cold_mem
    fixed = False
    for _ in range(warmup_rounds):
        if fixed:
            break                       # further passes must repeat exactly
        steady_mem, fixed = measured(track=True)
    return cold_mem, steady_mem
