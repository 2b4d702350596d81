"""The DEC 3000/600 memory hierarchy (the mCPI component).

Geometry, from Section 4.1 of the paper:

* split primary caches: 8 KB i-cache and 8 KB d-cache, direct-mapped,
  32-byte blocks (8 instructions per i-cache block),
* the d-cache is write-through and allocates on read misses only,
* a 4-deep write buffer (one block per entry) performs write merging,
* a unified 2 MB direct-mapped write-back b-cache allocating on any miss,
* a one-block sequential stream buffer prefetches the successor of a missed
  i-cache block, which is why b-cache accesses can exceed i-cache misses.

The model charges stall cycles for primary-cache misses (b-cache hit
latency, nominally 10 cycles) and for b-cache misses (main-memory latency).
Summing those stalls over a trace and dividing by the trace length yields
the paper's mCPI.

Both engines can log their decisions for an attribution sink
(:class:`repro.obs.Attribution`): one record per decision a hit never
makes, naming blocks, not trace positions (a hit changes no cache state,
so a record belongs to the next access of its block):

* ``(FETCH, block, victim, served, late, prefetch)`` — an i-cache miss:
  the block it evicted (-1 if none), ``STREAM``, ``BCACHE_HIT`` or
  ``BCACHE_MISS`` for what served it, whether a consumed prefetch had
  missed the b-cache, and ``NONE``, ``BCACHE_HIT`` or ``BCACHE_MISS`` for
  the successor prefetch;
* ``(READ, block, served)`` — a d-cache read miss served by ``FORWARD``
  (store->load forwarding), ``BCACHE_HIT`` or ``BCACHE_MISS``;
* ``(WRITE, block, allocating, overflowed)`` — a store that did not merge:
  whether its retirement allocates in the b-cache (a streaming store goes
  around it), and whether it overflowed the write buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Tuple

from repro.arch.caches import CacheStats, DirectMappedCache, StreamBuffer, WriteBuffer
from repro.arch.isa import TraceEntry

#: decision-log record kinds and outcome codes (see the module docstring)
FETCH, READ, WRITE = "fetch", "read", "write"
NONE, STREAM, FORWARD = "none", "stream", "forward"
BCACHE_HIT, BCACHE_MISS = "b-hit", "b-miss"


@dataclass(frozen=True)
class MemoryConfig:
    """Sizes and latencies of the modeled hierarchy."""

    icache_size: int = 8 * 1024
    dcache_size: int = 8 * 1024
    bcache_size: int = 2 * 1024 * 1024
    block_size: int = 32
    write_buffer_depth: int = 4
    #: stall cycles for a primary miss that hits in the b-cache
    bcache_hit_cycles: int = 10
    #: stall cycles for a miss that goes all the way to main memory
    main_memory_cycles: int = 75
    #: stall cycles when a missed i-block is found in the stream buffer
    #: (the prefetch hides part, not all, of the b-cache latency)
    stream_hit_cycles: int = 10
    #: stall cycles for a load satisfied by a pending write-buffer entry
    #: (the store must drain before the load can complete)
    write_forward_cycles: int = 9
    #: stall charged when a store forces the full write buffer to retire
    write_buffer_full_cycles: int = 4
    #: coalesce write-buffer entries at two-block (64-byte) granularity:
    #: a store whose neighbour block is already buffered shares that
    #: entry, so bursts of adjacent stores occupy fewer slots and force
    #: fewer overflow retirements
    write_coalescing: bool = False
    #: streaming (non-allocating) stores: a retired write that misses
    #: the b-cache goes around it without installing the block, so
    #: write-only data stops evicting the read/fetch working set
    non_allocating_writes: bool = False

    def store_mode(self) -> str:
        """Short label of the configured store behaviour."""
        if self.write_coalescing and self.non_allocating_writes:
            return "coalescing+streaming"
        if self.write_coalescing:
            return "coalescing"
        if self.non_allocating_writes:
            return "streaming"
        return "buffered"


@dataclass
class MemoryStats:
    """Aggregated counters; ``dcache`` merges d-cache reads and buffered
    writes exactly the way Table 6's middle columns do (a merged write
    counts like a hit, a write that reached the b-cache counts as a miss);
    ``dcache_read_misses`` keeps the reads apart, and
    ``write_buffer_forwards`` counts those store->load forwarding served.
    """

    icache: CacheStats = field(default_factory=CacheStats)
    dcache: CacheStats = field(default_factory=CacheStats)
    bcache: CacheStats = field(default_factory=CacheStats)
    stall_cycles: int = 0
    instructions: int = 0
    stream_buffer_hits: int = 0
    write_buffer_evictions: int = 0
    dcache_read_misses: int = 0
    write_buffer_forwards: int = 0

    @property
    def mcpi(self) -> float:
        return self.stall_cycles / self.instructions if self.instructions else 0.0

    def write_buffer_stalls(self, config: MemoryConfig) -> int:
        """Stall cycles the write buffer charged: a drain per forwarded
        read, a retirement per overflow (attribution's ``write-buffer``)."""
        return (
            config.write_forward_cycles * self.write_buffer_forwards
            + config.write_buffer_full_cycles * self.write_buffer_evictions
        )

    def dcache_stalls(self, config: MemoryConfig) -> int:
        """Stall cycles charged to the d-cache: the b-cache hit latency of
        each read miss the write buffer did not serve (attribution's
        ``dcache``; a b-cache miss's remainder is the b-cache's)."""
        return config.bcache_hit_cycles * (
            self.dcache_read_misses - self.write_buffer_forwards
        )

    def snapshot(self) -> "MemoryStats":
        return MemoryStats(
            self.icache.snapshot(),
            self.dcache.snapshot(),
            self.bcache.snapshot(),
            self.stall_cycles,
            self.instructions,
            self.stream_buffer_hits,
            self.write_buffer_evictions,
            self.dcache_read_misses,
            self.write_buffer_forwards,
        )

    def delta(self, earlier: "MemoryStats") -> "MemoryStats":
        """Counters accumulated since ``earlier`` was snapshotted."""
        return MemoryStats(
            self.icache.delta(earlier.icache),
            self.dcache.delta(earlier.dcache),
            self.bcache.delta(earlier.bcache),
            self.stall_cycles - earlier.stall_cycles,
            self.instructions - earlier.instructions,
            self.stream_buffer_hits - earlier.stream_buffer_hits,
            self.write_buffer_evictions - earlier.write_buffer_evictions,
            self.dcache_read_misses - earlier.dcache_read_misses,
            self.write_buffer_forwards - earlier.write_buffer_forwards,
        )


class MemoryHierarchy:
    """Stateful trace-driven model of the full memory system.

    The hierarchy is deliberately long-lived: the experiment harness runs
    warm-up roundtrips through the same instance and reports steady-state
    deltas, or starts from a fresh instance to reproduce the paper's
    cold-start single-trace cache statistics (Table 6).

    While ``log`` is a list, every miss decision is appended to it as a
    decision-log record (see the module docstring).
    """

    def __init__(self, config: Optional[MemoryConfig] = None) -> None:
        self.config = config or MemoryConfig()
        cfg = self.config
        self.icache = DirectMappedCache(cfg.icache_size, cfg.block_size, name="i-cache")
        self.dcache = DirectMappedCache(
            cfg.dcache_size, cfg.block_size, write_allocate=False, name="d-cache"
        )
        self.bcache = DirectMappedCache(cfg.bcache_size, cfg.block_size, name="b-cache")
        self.write_buffer = WriteBuffer(
            cfg.write_buffer_depth, cfg.block_size,
            coalescing=cfg.write_coalescing,
        )
        self.stream_buffer = StreamBuffer(cfg.block_size)
        self._stall_cycles = 0
        self._instructions = 0
        self._forwards = 0
        self.log: Optional[list] = None

    # ------------------------------------------------------------------ #
    # observation                                                        #
    # ------------------------------------------------------------------ #

    @property
    def stats(self) -> MemoryStats:
        """Current combined view of all component counters."""
        reads = self.dcache.stats
        writes = self.write_buffer.stats
        combined = CacheStats(
            accesses=reads.accesses + writes.accesses,
            misses=reads.misses + writes.misses,
            replacement_misses=reads.replacement_misses,
        )
        return MemoryStats(
            icache=self.icache.stats.snapshot(),
            dcache=combined,
            bcache=self.bcache.stats.snapshot(),
            stall_cycles=self._stall_cycles,
            instructions=self._instructions,
            stream_buffer_hits=self.stream_buffer.hits,
            write_buffer_evictions=self.write_buffer.evictions,
            dcache_read_misses=reads.misses,
            write_buffer_forwards=self._forwards,
        )

    # ------------------------------------------------------------------ #
    # per-instruction stepping                                           #
    # ------------------------------------------------------------------ #

    def step(self, entry: TraceEntry) -> int:
        """Process one trace entry; returns the stall cycles it incurred."""
        self._instructions += 1
        stall = self._fetch(entry.pc)
        if entry.daddr is not None:
            if entry.dwrite:
                stall += self._write(entry.daddr)
            else:
                stall += self._read(entry.daddr)
        self._stall_cycles += stall
        return stall

    def run(self, trace: Iterable[TraceEntry]) -> MemoryStats:
        for entry in trace:
            self.step(entry)
        return self.stats

    def reset(self) -> None:
        self.icache.reset()
        self.dcache.reset()
        self.bcache.reset()
        self.write_buffer.reset()
        self.stream_buffer.reset()
        self._stall_cycles = 0
        self._instructions = 0
        self._forwards = 0

    # ------------------------------------------------------------------ #
    # internals                                                         #
    # ------------------------------------------------------------------ #

    def _bcache(self, addr: int) -> Tuple[str, int]:
        """A primary miss's b-cache access: its outcome and stall cycles."""
        if self.bcache.access(addr):
            return BCACHE_HIT, self.config.bcache_hit_cycles
        return BCACHE_MISS, self.config.main_memory_cycles

    def _fetch(self, pc: int) -> int:
        cfg = self.config
        log = self.log
        victim = -1 if log is None else self.icache.occupant(pc)
        if self.icache.access(pc):
            return 0
        block = pc // cfg.block_size
        probed = self.stream_buffer.probe(pc)
        if probed is not None:
            self.icache.install(pc)
            served, stall = STREAM, cfg.stream_hit_cycles
            if probed:
                # the prefetch itself had missed the b-cache: the hidden
                # portion of the main-memory latency still shows up here
                stall += cfg.main_memory_cycles - cfg.bcache_hit_cycles
        else:
            served, stall = self._bcache(pc)
        prefetch = self._prefetch((block + 1) * cfg.block_size)
        if log is not None:
            log.append((FETCH, block, victim, served, bool(probed), prefetch))
        return stall

    def _prefetch(self, block_start: int) -> str:
        """Overlapped sequential prefetch: costs a b-cache access, no
        immediate stall (a b-cache miss is charged at consumption).
        Returns the prefetch's decision-log outcome."""
        if self.icache.contains(block_start):
            return NONE
        hit = self.bcache.access(block_start)
        self.stream_buffer.prefetch(
            block_start // self.config.block_size, bcache_miss=not hit
        )
        return BCACHE_HIT if hit else BCACHE_MISS

    def _read(self, addr: int) -> int:
        if self.dcache.access(addr):
            return 0
        # Read data may still sit in the write buffer (store->load
        # forwarding); the pending store has to drain first, so this is
        # nearly as expensive as the b-cache access it avoids.
        if self.write_buffer.contains(addr):
            self._forwards += 1
            served, stall = FORWARD, self.config.write_forward_cycles
        else:
            served, stall = self._bcache(addr)
        if self.log is not None:
            self.log.append((READ, addr // self.config.block_size, served))
        return stall

    def _write(self, addr: int) -> int:
        # Write-through, no write-allocate: the d-cache tags are unaffected;
        # the store goes to the write buffer.
        cfg = self.config
        evicted_before = self.write_buffer.evictions
        if self.write_buffer.write(addr):
            return 0
        # a non-allocating (streaming) store still probes the b-cache —
        # the retirement traffic is real — but goes around it on a miss
        allocating = not cfg.non_allocating_writes
        self.bcache.access(addr, write=True, allocate=allocating)
        # The retired write only stalls the CPU when the buffer overflowed.
        overflowed = self.write_buffer.evictions > evicted_before
        if self.log is not None:
            self.log.append((WRITE, addr // cfg.block_size, allocating, overflowed))
        return cfg.write_buffer_full_cycles if overflowed else 0
