"""Cache building blocks: direct-mapped cache, write buffer, stream buffer.

All caches in the DEC 3000/600 are direct-mapped with 32-byte blocks, which
is what makes the paper's layout techniques effective: the starting address
of a function determines exactly which cache blocks it occupies, so two hot
functions whose addresses alias evict each other on every alternation.

Replacement-miss accounting follows the paper: a miss is a *replacement*
(conflict) miss when the requested block was resident earlier in the
simulation and has since been evicted; otherwise it is a cold miss.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set


@dataclass
class CacheStats:
    """Miss/access/replacement counters matching Table 6's columns."""

    accesses: int = 0
    misses: int = 0
    replacement_misses: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def cold_misses(self) -> int:
        return self.misses - self.replacement_misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def snapshot(self) -> "CacheStats":
        return CacheStats(self.accesses, self.misses, self.replacement_misses)

    def delta(self, earlier: "CacheStats") -> "CacheStats":
        """Counters accumulated since ``earlier`` was snapshotted."""
        return CacheStats(
            self.accesses - earlier.accesses,
            self.misses - earlier.misses,
            self.replacement_misses - earlier.replacement_misses,
        )


class DirectMappedCache:
    """A direct-mapped cache with power-of-two geometry.

    Args:
        size: total capacity in bytes.
        block_size: bytes per block (32 on the 21064).
        write_allocate: whether a write miss allocates the block.  The
            21064 d-cache allocates on read misses only; the b-cache
            allocates on either miss type.
    """

    def __init__(self, size: int, block_size: int = 32, *, write_allocate: bool = True,
                 name: str = "cache") -> None:
        if size <= 0 or size % block_size:
            raise ValueError("cache size must be a positive multiple of block size")
        if block_size & (block_size - 1):
            raise ValueError("block size must be a power of two")
        self.name = name
        self.size = size
        self.block_size = block_size
        self.num_blocks = size // block_size
        self.write_allocate = write_allocate
        self._tags: List[Optional[int]] = [None] * self.num_blocks
        self._ever_resident: Set[int] = set()
        self.stats = CacheStats()

    def _index(self, block_addr: int) -> int:
        return block_addr % self.num_blocks

    def block_of(self, addr: int) -> int:
        return addr // self.block_size

    def contains(self, addr: int) -> bool:
        """Presence probe; does not touch statistics."""
        block = self.block_of(addr)
        return self._tags[self._index(block)] == block

    def occupant(self, addr: int) -> int:
        """The block held in ``addr``'s set, -1 if the set is empty."""
        tag = self._tags[self._index(self.block_of(addr))]
        return -1 if tag is None else tag

    def access(self, addr: int, *, write: bool = False,
               allocate: bool = True) -> bool:
        """Access the byte at ``addr``; returns True on hit.

        A miss installs the block (subject to the write-allocate policy)
        and updates cold/replacement accounting.  ``allocate=False``
        models a streaming (non-allocating) access: the probe and the
        miss accounting are unchanged, but the missed block is neither
        installed nor remembered as ever-resident.
        """
        block = self.block_of(addr)
        idx = self._index(block)
        self.stats.accesses += 1
        if self._tags[idx] == block:
            return True
        self.stats.misses += 1
        if block in self._ever_resident:
            self.stats.replacement_misses += 1
        if allocate and (not write or self.write_allocate):
            self._tags[idx] = block
            self._ever_resident.add(block)
        return False

    def install(self, addr: int) -> None:
        """Install a block without counting an access (used for prefetch)."""
        block = self.block_of(addr)
        self._tags[self._index(block)] = block
        self._ever_resident.add(block)

    def invalidate_all(self) -> None:
        """Empty the cache but keep the ever-resident set and statistics."""
        self._tags = [None] * self.num_blocks

    def reset(self) -> None:
        """Return to a pristine cold cache with zeroed statistics."""
        self._tags = [None] * self.num_blocks
        self._ever_resident.clear()
        self.stats = CacheStats()

    def resident_blocks(self) -> Set[int]:
        return {tag for tag in self._tags if tag is not None}


class WriteBuffer:
    """The 21064's 4-deep write buffer with write merging.

    Each entry holds one cache block.  A store whose block is already
    buffered merges into the existing entry and is counted like a hit; a
    store to a new block allocates an entry (evicting the oldest to the
    b-cache when full) and is counted as a miss, since it generates b-cache
    traffic.  This matches the paper's Table 6, which folds write-buffer
    behaviour into the d-cache columns.

    With ``coalescing=True`` entries are held at two-block (64-byte)
    granularity: a store to a new block whose neighbour is already
    buffered joins that entry instead of allocating a new slot, so FIFO
    occupancy — and therefore overflow retirement — tracks 64-byte
    spans.  The store still counts as a miss (its retirement generates
    b-cache traffic block by block); only slot allocation coalesces.
    """

    def __init__(self, depth: int = 4, block_size: int = 32, *,
                 coalescing: bool = False) -> None:
        if depth <= 0:
            raise ValueError("write buffer depth must be positive")
        self.depth = depth
        self.block_size = block_size
        self.coalescing = coalescing
        # FIFO of entry keys (block addresses, or two-block pair ids when
        # coalescing) plus a block-membership set: the hot path is a probe
        # (store merging, load forwarding) followed by a possible
        # oldest-entry eviction, so both must be O(1).
        self._entries: Deque[int] = collections.deque()
        self._resident: Set[int] = set()
        #: coalescing only: entry pair id -> blocks sharing that slot
        self._pair_blocks: Dict[int, List[int]] = {}
        self.stats = CacheStats()
        self.evictions: int = 0

    def block_of(self, addr: int) -> int:
        return addr // self.block_size

    def write(self, addr: int) -> bool:
        """Buffer a store; returns True when the write merged."""
        block = self.block_of(addr)
        self.stats.accesses += 1
        if block in self._resident:
            return True
        self.stats.misses += 1
        if self.coalescing:
            pair = block >> 1
            self._resident.add(block)
            slot = self._pair_blocks.get(pair)
            if slot is not None:
                slot.append(block)
                return False
            self._entries.append(pair)
            self._pair_blocks[pair] = [block]
            if len(self._entries) > self.depth:
                for old in self._pair_blocks.pop(self._entries.popleft()):
                    self._resident.discard(old)
                self.evictions += 1
            return False
        self._entries.append(block)
        self._resident.add(block)
        if len(self._entries) > self.depth:
            self._resident.discard(self._entries.popleft())
            self.evictions += 1
        return False

    def contains(self, addr: int) -> bool:
        return self.block_of(addr) in self._resident

    def drain(self) -> List[int]:
        """Flush all entries, returning the drained block addresses."""
        if self.coalescing:
            drained = [
                block
                for pair in self._entries
                for block in self._pair_blocks[pair]
            ]
        else:
            drained = list(self._entries)
        self._entries.clear()
        self._resident.clear()
        self._pair_blocks.clear()
        return drained

    def reset(self) -> None:
        self._entries.clear()
        self._resident.clear()
        self._pair_blocks.clear()
        self.stats = CacheStats()
        self.evictions = 0


class StreamBuffer:
    """A one-block sequential prefetch buffer in front of the i-cache.

    On an i-cache miss the next sequential block is fetched into the stream
    buffer; a later miss that hits the stream buffer promotes the block into
    the i-cache without a new b-cache access.  This is why the paper observes
    more b-cache accesses than i-cache misses (each miss can trigger a
    prefetch, i.e. up to two b-cache accesses).

    A prefetch that missed the b-cache hides less latency: the buffer
    remembers it so the consumer can be charged the difference.
    """

    def __init__(self, block_size: int = 32) -> None:
        self.block_size = block_size
        self._block: Optional[int] = None
        self._was_bcache_miss = False
        self.hits = 0
        self.prefetches = 0

    def block_of(self, addr: int) -> int:
        return addr // self.block_size

    def probe(self, addr: int) -> Optional[bool]:
        """Consume the buffered block if it matches.

        Returns ``None`` on a stream-buffer miss, otherwise whether the
        prefetch that loaded the block had missed in the b-cache.
        """
        block = self.block_of(addr)
        if self._block == block:
            self._block = None
            self.hits += 1
            return self._was_bcache_miss
        return None

    def prefetch(self, block_addr: int, *, bcache_miss: bool = False) -> None:
        self._block = block_addr
        self._was_bcache_miss = bcache_miss
        self.prefetches += 1

    def reset(self) -> None:
        self._block = None
        self._was_bcache_miss = False
        self.hits = 0
        self.prefetches = 0
