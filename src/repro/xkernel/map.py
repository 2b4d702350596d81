"""The x-kernel demultiplexing map (hash table), with the paper's tweaks.

Three features from Sections 2.2.1 and 2.2.3 are reproduced faithfully:

* **one-entry cache** — network traffic is bursty per connection [Mog92],
  so the map caches the last resolved entry; a hit costs only the key
  comparison,
* **conditional inlining** — the cache probe is simple enough to inline
  when the key's size/alignment are compile-time constants; the map keeps
  hit/miss statistics so the instruction-level models can charge the
  inlined fast path or the general function accordingly,
* **lazy non-empty-bucket list** — to let TCP drop its separate
  list-of-open-connections, the map chains non-empty buckets so traversal
  visits only them.  Removing a bucket from the chain eagerly would need a
  doubly-linked list, so removal is lazy: emptied buckets stay chained
  until the next traversal unlinks them in passing (trivial, because the
  traversal tracks the previous chained bucket).

Traversal cost is therefore proportional to the number of chained buckets,
not the table size — the paper's "roughly an order of magnitude faster at
10 % occupancy" claim, which ``benchmarks/test_hashtable_traversal.py``
regenerates.

The cache in front of the hash table is pluggable.  The paper fixes the
one-entry scheme; Jain's caching-scheme comparison (PAPERS.md) asks what a
deeper front-end buys under less friendly address streams, so the map
accepts any :class:`CacheScheme`:

========================  ==============================================
spec                      scheme
========================  ==============================================
``none``                  no front-end cache (every resolve walks the table)
``one-entry``             the paper's single-entry cache (default)
``lru:K``                 fully-associative LRU stack of K entries
``direct:N``              direct-mapped, N slots indexed by key hash
``assoc:SxW``             S sets of W ways, LRU within a set
========================  ==============================================

Schemes only change which resolves hit the front end; the backing table,
bind/unbind semantics and traversal are shared.  ``MapStats`` carries the
per-scheme accounting (probe compares, installs, evictions, invalidations,
collision-chain probes) that the traffic study turns into modeled cycles.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.xkernel.alloc import SimAllocator


class MapError(RuntimeError):
    pass


#: compare-loop trips charged for hashing the key in schemes that index by
#: hash before probing (direct-mapped, set-associative); an FNV step over an
#: 8-byte key costs about as much as two key-word compares
HASH_PROBE_TRIPS = 2


def fnv32(key: bytes) -> int:
    h = 2166136261
    for b in key:
        h = ((h ^ b) * 16777619) & 0xFFFFFFFF
    return h


@dataclass
class MapStats:
    resolves: int = 0
    cache_hits: int = 0
    #: resolves that found no binding at all (scan packets, garbled
    #: demux keys): the full not-found cost, every cache missed
    failed_resolves: int = 0
    binds: int = 0
    unbinds: int = 0
    traversals: int = 0
    buckets_visited: int = 0
    buckets_unlinked: int = 0
    #: front-end cache slots compared across all resolves
    probe_compares: int = 0
    #: front-end fills after a resolve missed the cache but found the key
    installs: int = 0
    #: front-end entries displaced by an install
    evictions: int = 0
    #: front-end entries dropped because their binding was unbound
    invalidations: int = 0
    #: collision-chain links walked in the backing table (position of the
    #: entry in its bucket; the full bucket length on a failed resolve)
    chain_probes: int = 0
    scheme: str = "one-entry"

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.resolves if self.resolves else 0.0

    @property
    def cache_misses(self) -> int:
        return self.resolves - self.cache_hits


class ResolveProbe:
    """Telemetry for the most recent ``resolve`` call on a map (one object
    per map, updated in place by every resolve)."""

    __slots__ = ("hit", "probes", "chain", "found")

    def __init__(self, hit: bool, probes: int, chain: int, found: bool) -> None:
        self.hit = hit  # front-end cache hit
        self.probes = probes  # cache slots compared
        self.chain = chain  # collision-chain links walked
        self.found = found  # binding existed


class _Entry:
    __slots__ = ("key", "value", "next", "bucket", "depth")

    def __init__(
        self, key: bytes, value: object, next_: Optional["_Entry"], bucket: int
    ) -> None:
        self.key = key
        self.value = value
        self.next = next_
        #: the bucket whose chain holds the entry, and the links in front
        #: of it there: kept by bind and unbind, so a resolve never walks
        self.bucket = bucket
        self.depth = 0


class _Bucket:
    __slots__ = ("head", "chained", "next_chained", "sim_addr")

    def __init__(self, sim_addr: int) -> None:
        self.head: Optional[_Entry] = None
        self.chained: bool = False
        self.next_chained: int = -1
        self.sim_addr = sim_addr


# ---------------------------------------------------------------------- #
# front-end cache schemes                                                #
# ---------------------------------------------------------------------- #


class CacheScheme:
    """A cache in front of the backing hash table.

    ``lookup`` may update recency state and must record in ``last_probes``
    how many cached entries were compared against the key; ``would_hit`` is
    the stat-free, state-free probe the instruction-level models use for the
    conditional-inlining decision.  ``hashed`` marks schemes that index by
    key hash before comparing, which the cost model charges extra trips.
    """

    name: str = "abstract"
    hashed: bool = False

    def __init__(self) -> None:
        self.last_probes = 0

    def lookup(self, key: bytes) -> Optional[_Entry]:
        raise NotImplementedError

    def would_hit(self, key: bytes) -> bool:
        raise NotImplementedError

    def install(self, key: bytes, entry: _Entry) -> int:
        """Cache a resolved entry; returns the number of evicted entries."""
        raise NotImplementedError

    def invalidate(self, key: bytes) -> bool:
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError

    def probe_trips(self, probes: int, key_words: int) -> int:
        """Modeled compare-loop trips for a probe of ``probes`` slots."""
        trips = probes * key_words
        if self.hashed:
            trips += HASH_PROBE_TRIPS
        return trips


class NoCache(CacheScheme):
    """Baseline: every resolve walks the backing table."""

    name = "none"

    def lookup(self, key: bytes) -> Optional[_Entry]:
        self.last_probes = 0
        return None

    def would_hit(self, key: bytes) -> bool:
        return False

    def install(self, key: bytes, entry: _Entry) -> int:
        return 0

    def invalidate(self, key: bytes) -> bool:
        return False

    def clear(self) -> None:
        pass


class OneEntryCache(CacheScheme):
    """The paper's scheme: remember the last resolved entry.

    A lookup compares one slot exactly while the slot is full, so
    ``last_probes`` is kept by ``install`` and ``clear`` and a lookup
    never writes it.
    """

    name = "one-entry"

    def __init__(self) -> None:
        super().__init__()
        self._key: Optional[bytes] = None
        self._entry: Optional[_Entry] = None

    def lookup(self, key: bytes) -> Optional[_Entry]:
        return self._entry if self._key == key else None

    def would_hit(self, key: bytes) -> bool:
        return self._key is not None and self._key == key

    def install(self, key: bytes, entry: _Entry) -> int:
        evicted = 1 if self._key is not None and self._key != key else 0
        self._key = key
        self._entry = entry
        self.last_probes = 1
        return evicted

    def invalidate(self, key: bytes) -> bool:
        if self.would_hit(key):
            self.clear()
            return True
        return False

    def clear(self) -> None:
        self._key = None
        self._entry = None
        self.last_probes = 0


class LRUCache(CacheScheme):
    """Fully-associative LRU stack of ``ways`` entries (Jain's LRU-k).

    Probing is modeled MRU-first, as a linked-stack implementation would
    search it, so a hit near the top is cheaper than one near the bottom.
    """

    def __init__(self, ways: int) -> None:
        super().__init__()
        if ways <= 0:
            raise MapError("lru cache needs at least one way")
        self.ways = ways
        self.name = f"lru:{ways}"
        self._entries: "OrderedDict[bytes, _Entry]" = OrderedDict()

    def _probe_position(self, key: bytes) -> int:
        for pos, cached in enumerate(reversed(self._entries), start=1):
            if cached == key:
                return pos
        return len(self._entries)

    def lookup(self, key: bytes) -> Optional[_Entry]:
        entry = self._entries.get(key)
        if entry is None:
            # a miss compares every cached entry
            self.last_probes = len(self._entries)
            return None
        self.last_probes = self._probe_position(key)
        self._entries.move_to_end(key)
        return entry

    def would_hit(self, key: bytes) -> bool:
        return key in self._entries

    def install(self, key: bytes, entry: _Entry) -> int:
        evicted = 0
        if key not in self._entries and len(self._entries) >= self.ways:
            self._entries.popitem(last=False)
            evicted = 1
        self._entries[key] = entry
        self._entries.move_to_end(key)
        return evicted

    def invalidate(self, key: bytes) -> bool:
        return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        self._entries.clear()


class DirectMappedCache(CacheScheme):
    """Hash the key to one of ``slots`` slots; compare that slot only."""

    hashed = True

    def __init__(self, slots: int) -> None:
        super().__init__()
        if slots <= 0:
            raise MapError("direct-mapped cache needs at least one slot")
        self.slots = slots
        self.name = f"direct:{slots}"
        self._table: List[Optional[Tuple[bytes, _Entry]]] = [None] * slots

    def _slot(self, key: bytes) -> int:
        return fnv32(key) % self.slots

    def lookup(self, key: bytes) -> Optional[_Entry]:
        cached = self._table[self._slot(key)]
        if cached is None:
            self.last_probes = 0
            return None
        self.last_probes = 1
        if cached[0] == key:
            return cached[1]
        return None

    def would_hit(self, key: bytes) -> bool:
        cached = self._table[self._slot(key)]
        return cached is not None and cached[0] == key

    def install(self, key: bytes, entry: _Entry) -> int:
        slot = self._slot(key)
        cached = self._table[slot]
        evicted = 1 if cached is not None and cached[0] != key else 0
        self._table[slot] = (key, entry)
        return evicted

    def invalidate(self, key: bytes) -> bool:
        slot = self._slot(key)
        cached = self._table[slot]
        if cached is not None and cached[0] == key:
            self._table[slot] = None
            return True
        return False

    def clear(self) -> None:
        self._table = [None] * self.slots


class SetAssociativeCache(CacheScheme):
    """``sets`` hash-indexed sets of ``ways`` entries, LRU within a set."""

    hashed = True

    def __init__(self, sets: int, ways: int) -> None:
        super().__init__()
        if sets <= 0 or ways <= 0:
            raise MapError("set-associative cache needs positive sets and ways")
        self.sets = sets
        self.ways = ways
        self.name = f"assoc:{sets}x{ways}"
        self._sets: List["OrderedDict[bytes, _Entry]"] = [
            OrderedDict() for _ in range(sets)
        ]

    def _set(self, key: bytes) -> "OrderedDict[bytes, _Entry]":
        return self._sets[fnv32(key) % self.sets]

    def lookup(self, key: bytes) -> Optional[_Entry]:
        ways = self._set(key)
        for pos, cached in enumerate(reversed(ways), start=1):
            if cached == key:
                self.last_probes = pos
                ways.move_to_end(key)
                return ways[key]
        self.last_probes = len(ways)
        return None

    def would_hit(self, key: bytes) -> bool:
        return key in self._set(key)

    def install(self, key: bytes, entry: _Entry) -> int:
        ways = self._set(key)
        evicted = 0
        if key not in ways and len(ways) >= self.ways:
            ways.popitem(last=False)
            evicted = 1
        ways[key] = entry
        ways.move_to_end(key)
        return evicted

    def invalidate(self, key: bytes) -> bool:
        return self._set(key).pop(key, None) is not None

    def clear(self) -> None:
        for ways in self._sets:
            ways.clear()


#: the scheme sweep the demux-cache study runs by default
SCHEME_SPECS: Tuple[str, ...] = (
    "none",
    "one-entry",
    "lru:4",
    "direct:16",
    "assoc:4x2",
)


def make_scheme(spec: "str | CacheScheme | None") -> CacheScheme:
    """Build a front-end cache from a spec string (see module docstring)."""
    if spec is None:
        return OneEntryCache()
    if isinstance(spec, CacheScheme):
        return spec
    if spec == "none":
        return NoCache()
    if spec == "one-entry":
        return OneEntryCache()
    try:
        if spec.startswith("lru:"):
            return LRUCache(int(spec[4:]))
        if spec.startswith("direct:"):
            return DirectMappedCache(int(spec[7:]))
        if spec.startswith("assoc:"):
            sets, _, ways = spec[6:].partition("x")
            return SetAssociativeCache(int(sets), int(ways))
    except ValueError:
        pass
    raise MapError(
        f"unknown cache scheme {spec!r}; expected one of none, one-entry, "
        "lru:K, direct:N, assoc:SxW"
    )


class Map:
    """Demux hash table with a pluggable front-end cache and lazy chaining."""

    def __init__(self, num_buckets: int = 64, *,
                 allocator: Optional[SimAllocator] = None,
                 scheme: "str | CacheScheme | None" = None) -> None:
        if num_buckets <= 0 or num_buckets & (num_buckets - 1):
            raise MapError("bucket count must be a positive power of two")
        self._allocator = allocator or SimAllocator()
        self.sim_addr = self._allocator.malloc(num_buckets * 16)
        self._buckets: List[_Bucket] = [
            _Bucket(self.sim_addr + 16 * i) for i in range(num_buckets)
        ]
        self._mask = num_buckets - 1
        self._chain_head: int = -1
        self.scheme = make_scheme(scheme)
        #: bound key -> its entry (which records its bucket and position)
        self._entry_of: Dict[bytes, _Entry] = {}
        self.stats = MapStats(scheme=self.scheme.name)
        self.last = ResolveProbe(False, 0, 0, False)

    # ------------------------------------------------------------------ #
    # hashing                                                            #
    # ------------------------------------------------------------------ #

    def _index(self, key: bytes) -> int:
        return fnv32(key) & self._mask

    # ------------------------------------------------------------------ #
    # bind / unbind / resolve                                            #
    # ------------------------------------------------------------------ #

    def bind(self, key: bytes, value: object) -> None:
        """Install a key -> value binding (duplicate keys rejected)."""
        if key in self._entry_of:
            raise MapError(f"duplicate binding for key {key!r}")
        idx = self._index(key)
        bucket = self._buckets[idx]
        # the new entry goes to the head: every other one moves back a link
        entry = bucket.head
        while entry is not None:
            entry.depth += 1
            entry = entry.next
        bucket.head = self._entry_of[key] = _Entry(key, value, bucket.head, idx)
        if not bucket.chained:
            bucket.chained = True
            bucket.next_chained = self._chain_head
            self._chain_head = idx
        self.stats.binds += 1

    def unbind(self, key: bytes) -> object:
        """Remove a binding; the bucket stays chained (lazy removal)."""
        entry = self._entry_of.pop(key, None)
        if entry is None:
            raise MapError(f"unbind of unbound key {key!r}")
        bucket = self._buckets[entry.bucket]
        prev: Optional[_Entry] = None
        cur = bucket.head
        while cur is not entry:
            prev, cur = cur, cur.next
        if prev is None:
            bucket.head = entry.next
        else:
            prev.next = entry.next
        # every entry behind the removed one moves forward a link
        cur = entry.next
        while cur is not None:
            cur.depth -= 1
            cur = cur.next
        self.stats.unbinds += 1
        if self.scheme.invalidate(key):
            self.stats.invalidations += 1
        return entry.value

    def resolve(self, key: bytes) -> object:
        """Look up a key (x-kernel mapResolve); MapError if it is unbound."""
        value = self.resolve_or_none(key)
        if not self.last.found:
            raise MapError(f"unresolved key {key!r}")
        return value

    def resolve_or_none(self, key: bytes) -> Optional[object]:
        """Look up a key, front-end cache first, then its bucket chain;
        None if it is unbound.  A bound key's chain walk is charged at the
        position its entry records; an unbound key walks its whole bucket.
        Never raises: ``last`` records the probe, updated in place."""
        stats = self.stats
        scheme = self.scheme
        last = self.last
        stats.resolves += 1
        cached = scheme.lookup(key)
        probes = scheme.last_probes
        stats.probe_compares += probes
        last.probes = probes
        if cached is not None:
            stats.cache_hits += 1
            last.hit = True
            last.chain = 0
            last.found = True
            return cached.value
        last.hit = False
        entry = self._entry_of.get(key)
        if entry is None:
            # not found: the walk runs the whole bucket the key hashes to
            chain = 0
            entry = self._buckets[self._index(key)].head
            while entry is not None:
                chain += 1
                entry = entry.next
            stats.chain_probes += chain
            stats.failed_resolves += 1
            last.chain = chain
            last.found = False
            return None
        chain = entry.depth
        stats.chain_probes += chain
        stats.installs += 1
        stats.evictions += scheme.install(key, entry)
        last.chain = chain
        last.found = True
        return entry.value

    def cache_would_hit(self, key: bytes) -> bool:
        """Stat-free probe used by the instruction-level models to decide
        whether the inlined cache test succeeds for this lookup."""
        return self.scheme.would_hit(key)

    # ------------------------------------------------------------------ #
    # traversal                                                          #
    # ------------------------------------------------------------------ #

    def traverse(self) -> Iterator[Tuple[bytes, object]]:
        """Visit every binding by walking the non-empty-bucket chain.

        Emptied buckets encountered on the way are unlinked for free: the
        walk knows its predecessor, which is exactly why lazy removal works.
        """
        self.stats.traversals += 1
        prev = -1
        idx = self._chain_head
        while idx != -1:
            bucket = self._buckets[idx]
            self.stats.buckets_visited += 1
            next_idx = bucket.next_chained
            if bucket.head is None:
                # lazily unlink the empty bucket
                if prev == -1:
                    self._chain_head = next_idx
                else:
                    self._buckets[prev].next_chained = next_idx
                bucket.chained = False
                bucket.next_chained = -1
                self.stats.buckets_unlinked += 1
            else:
                entry = bucket.head
                while entry is not None:
                    yield entry.key, entry.value
                    entry = entry.next
                prev = idx
            idx = next_idx

    def traverse_full_scan(self) -> Iterator[Tuple[bytes, object]]:
        """The naive traversal (visit every bucket) the paper replaced.

        Kept as the baseline for the traversal benchmark.
        """
        self.stats.traversals += 1
        for bucket in self._buckets:
            self.stats.buckets_visited += 1
            entry = bucket.head
            while entry is not None:
                yield entry.key, entry.value
                entry = entry.next

    # ------------------------------------------------------------------ #
    # introspection                                                      #
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._entry_of)

    def __contains__(self, key: bytes) -> bool:
        return self.resolve_or_none(key) is not None

    @property
    def num_buckets(self) -> int:
        return self._mask + 1

    @property
    def chained_buckets(self) -> int:
        count = 0
        idx = self._chain_head
        while idx != -1:
            count += 1
            idx = self._buckets[idx].next_chained
        return count

    def bucket_depth(self, key: bytes) -> int:
        """Number of collision-chain links before ``key``'s entry (the
        full bucket length for an unbound key) — stat-free."""
        entry = self._buckets[self._index(key)].head
        depth = 0
        while entry is not None and entry.key != key:
            depth += 1
            entry = entry.next
        return depth
