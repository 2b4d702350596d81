"""Property tests: the pluggable demux-cache schemes under churn.

Every scheme must be a *transparent* front end: whatever caching policy
sits in front of the backing hash table, resolved bindings are identical
(the one-entry vs no-cache agreement the paper's inlining argument rests
on), stale entries never survive an unbind, and the ``MapStats``
accounting identities hold over arbitrary bind/unbind/resolve sequences.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.xkernel.map import (
    HASH_PROBE_TRIPS,
    SCHEME_SPECS,
    Map,
    MapError,
    fnv32,
    make_scheme,
)

#: a small key universe so sequences revisit and collide
KEYS = [bytes([0x40 + k]) * 8 for k in range(10)]

OPS = st.lists(
    st.tuples(
        st.sampled_from(["bind", "unbind", "resolve", "strict_resolve", "would_hit"]),
        st.integers(min_value=0, max_value=len(KEYS) - 1),
    ),
    max_size=120,
)


def _stats_dict(m: Map) -> dict:
    return dict(vars(m.stats))


class TestSchemeAgreementUnderChurn:
    @settings(max_examples=80, deadline=None)
    @given(OPS)
    # every key of KEYS hashes to one bucket of 8: key 0 moves back a link
    # on each bind and forward when key 1, in front of it, is unbound
    @example([("bind", 0), ("bind", 1), ("bind", 2), ("unbind", 1), ("resolve", 0)])
    def test_all_schemes_agree_with_the_model(self, ops):
        """Every scheme resolves exactly the model's bindings, and the
        stats identities hold: resolves = hits + installs + not-found,
        evictions <= installs, invalidations <= unbinds.  A cache miss
        walks exactly ``bucket_depth`` links, a failed ``resolve`` raises
        with ``last.found`` false, and after every op each bound key's
        entry records its hash's bucket and its position in that bucket's
        chain."""
        maps = {spec: Map(8, scheme=spec) for spec in SCHEME_SPECS}
        model = {}
        serial = 0
        not_found = 0
        for op, k in ops:
            key = KEYS[k]
            if op == "bind":
                if key in model:
                    for m in maps.values():
                        with pytest.raises(MapError):
                            m.bind(key, serial)
                else:
                    model[key] = serial
                    for m in maps.values():
                        m.bind(key, serial)
                serial += 1
            elif op == "unbind":
                if key not in model:
                    for m in maps.values():
                        with pytest.raises(MapError):
                            m.unbind(key)
                else:
                    expected = model.pop(key)
                    for m in maps.values():
                        assert m.unbind(key) == expected
            elif op == "resolve":
                expected = model.get(key)
                not_found += expected is None
                for m in maps.values():
                    assert m.resolve_or_none(key) == expected
                    assert m.last.found == (expected is not None)
                    if not m.last.hit:
                        # to the key, or the whole bucket when unbound
                        assert m.last.chain == m.bucket_depth(key)
            elif op == "strict_resolve":
                expected = model.get(key)
                not_found += expected is None
                for m in maps.values():
                    if expected is None:
                        with pytest.raises(MapError):
                            m.resolve(key)
                    else:
                        assert m.resolve(key) == expected
                    assert m.last.found == (expected is not None)
            else:  # would_hit: stat-free, and an honest hit predictor
                for m in maps.values():
                    before = _stats_dict(m)
                    predicted = m.cache_would_hit(key)
                    assert _stats_dict(m) == before
                    if key not in model:
                        # unbinds invalidate, so caches never hold
                        # unbound keys
                        assert not predicted
                    else:
                        m.resolve(key)
                        assert m.last.hit == predicted
            for m in maps.values():
                mask = m.num_buckets - 1
                assert set(m._entry_of) == set(model)
                for b, entry in m._entry_of.items():
                    assert entry.bucket == fnv32(b) & mask
                    assert entry.depth == m.bucket_depth(b)

        for spec, m in maps.items():
            s = m.stats
            assert s.scheme == make_scheme(spec).name
            assert s.resolves == s.cache_hits + s.installs + not_found
            assert s.evictions <= s.installs
            assert s.invalidations <= s.unbinds
            assert s.probe_compares >= s.cache_hits
            assert len(m) == len(model)
            assert dict(m.traverse_full_scan()) == model

        # the paper's argument in miniature: the inlined one-entry test
        # and the uncached walk see the same bindings, always
        assert dict(maps["one-entry"].traverse_full_scan()) == dict(
            maps["none"].traverse_full_scan()
        )

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(SCHEME_SPECS), st.integers(0, len(KEYS) - 1))
    def test_no_stale_hits_after_rebind(self, spec, k):
        """An unbind must invalidate; a later rebind serves the new value."""
        m = Map(8, scheme=spec)
        key = KEYS[k]
        m.bind(key, "old")
        assert m.resolve(key) == "old"
        assert m.resolve(key) == "old"  # now (maybe) cached
        m.unbind(key)
        assert m.resolve_or_none(key) is None
        assert not m.last.hit
        m.bind(key, "new")
        assert m.resolve(key) == "new"


class TestSchemeSemantics:
    def test_one_entry_remembers_exactly_one(self):
        m = Map(8, scheme="one-entry")
        m.bind(KEYS[0], 0)
        m.bind(KEYS[1], 1)
        m.resolve(KEYS[0])
        m.resolve(KEYS[0])
        assert m.last.hit
        m.resolve(KEYS[1])
        assert not m.last.hit  # displaced by KEYS[0]? no: misses, installs
        m.resolve(KEYS[0])
        assert not m.last.hit  # KEYS[1] displaced it
        assert m.stats.evictions == 2

    def test_lru_capacity_and_eviction_order(self):
        m = Map(8, scheme="lru:2")
        for k in range(3):
            m.bind(KEYS[k], k)
        m.resolve(KEYS[0])
        m.resolve(KEYS[1])  # cache: [0, 1]
        m.resolve(KEYS[0])  # hit, 0 becomes MRU
        assert m.last.hit
        m.resolve(KEYS[2])  # evicts 1 (LRU), not 0
        assert m.stats.evictions == 1
        m.resolve(KEYS[0])
        assert m.last.hit
        m.resolve(KEYS[1])
        assert not m.last.hit

    def test_direct_mapped_conflicts_thrash(self):
        scheme = make_scheme("direct:16")
        by_slot = {}
        conflict = None
        for k in range(256):
            key = bytes([k]) * 8
            slot = fnv32(key) % 16
            if slot in by_slot:
                conflict = (by_slot[slot], key)
                break
            by_slot[slot] = key
        assert conflict is not None
        a, b = conflict
        m = Map(8, scheme=scheme)
        m.bind(a, "a")
        m.bind(b, "b")
        m.resolve(a)
        m.resolve(b)  # evicts a from their shared slot
        m.resolve(a)
        assert not m.last.hit
        assert m.stats.evictions >= 1

    def test_set_associative_within_one_set_is_lru(self):
        m = Map(8, scheme="assoc:1x2")
        for k in range(3):
            m.bind(KEYS[k], k)
        m.resolve(KEYS[0])
        m.resolve(KEYS[1])
        m.resolve(KEYS[2])  # evicts KEYS[0]
        m.resolve(KEYS[1])
        assert m.last.hit
        m.resolve(KEYS[0])
        assert not m.last.hit

    def test_no_cache_never_hits(self):
        m = Map(8, scheme="none")
        m.bind(KEYS[0], 0)
        for _ in range(5):
            assert m.resolve(KEYS[0]) == 0
            assert not m.last.hit
        assert m.stats.cache_hits == 0
        assert m.stats.probe_compares == 0


class TestCostModelInputs:
    def test_probe_trips_charges_hash_indexing(self):
        assert make_scheme("lru:4").probe_trips(2, 3) == 6
        assert make_scheme("one-entry").probe_trips(1, 3) == 3
        assert make_scheme("direct:16").probe_trips(1, 3) == 3 + HASH_PROBE_TRIPS
        assert make_scheme("assoc:4x2").probe_trips(2, 3) == 6 + HASH_PROBE_TRIPS

    def test_make_scheme_round_trips_names(self):
        for spec in SCHEME_SPECS:
            assert make_scheme(spec).name == spec
        assert make_scheme(None).name == "one-entry"
        scheme = make_scheme("lru:7")
        assert make_scheme(scheme) is scheme

    @pytest.mark.parametrize(
        "bad", ["bogus", "lru:x", "lru:0", "direct:0", "assoc:2", "assoc:0x1"]
    )
    def test_make_scheme_rejects_malformed_specs(self, bad):
        with pytest.raises(MapError):
            make_scheme(bad)
