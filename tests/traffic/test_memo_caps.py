"""Bounded memo growth: LRU caps, eviction exactness, and the watchdog.

Eviction must be a pure memory/speed trade: a stream run under tiny
memo caps must produce counter totals bit-identical to an uncapped run
(the flush-on-evict accounting and the exactness cross-check hold the
invariant), and a watchdog-degraded stream must stay exact too.  The
capped and degraded points are also pinned whole, so their LRU order,
novel passes, evictions and per-segment counts cannot drift unseen.
"""

import hashlib
import json

import pytest

from repro.traffic import TrafficSpec, run_traffic_point
from repro.traffic.stream import StreamExactnessError, TransitionStream

#: enough alphabet pressure (scan + churn) to force evictions at tiny caps
SPEC = TrafficSpec(
    packets=4_000, flows=200, mix="scan", churn=0.005,
    warmup_packets=400, seed=0,
)
TINY = SPEC.with_(memo_state_cap=4, memo_edge_cap=6)

#: a mixed-stack stream whose caps evict interned states, not only
#: edges, so the state LRU order decides which states survive
STATE_EVICTING = SPEC.with_(stack="mixed", memo_state_cap=8, memo_edge_cap=64)

#: sha256 of the canonical ``to_json()`` of the capped ``TINY`` point, of
#: the ``watchdog_s=0.0`` point and of the state-evicting point, all under
#: ``lru:4``
TINY_DIGEST = "f49cf6d8dacc6d4752e605477da14111a576499c592d7df2faaf48f04274386d"
DEGRADED_DIGEST = "66ce0c00b79ab514a68fe1b25109f54ef0f4a9a4246463b40b4c9ed1f8cf0bbb"
STATE_EVICTING_DIGEST = (
    "41e5ec8c1d48e021189219f0ceaf7fc6d84ffdb48781febfb900e38358548f24"
)


def _digest(doc: dict) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _totals(point):
    return (
        point.instructions, point.stall_cycles, point.cpu_cycles,
        point.steady_instructions, point.steady_stall_cycles,
        point.steady_cpu_cycles,
    )


class TestMemoCaps:
    def test_capped_equals_uncapped_totals(self):
        full = run_traffic_point(SPEC, "lru:4")
        tiny = run_traffic_point(TINY, "lru:4")
        assert _totals(full) == _totals(tiny)
        assert full.memo_evictions == 0
        assert tiny.memo_evictions > 0

    def test_eviction_counter_reported_in_json(self):
        tiny = run_traffic_point(TINY, "lru:4")
        j = tiny.to_json()
        assert j["memo_evictions"] == tiny.memo_evictions > 0
        assert j["degraded"] is False

    def test_capped_runs_are_deterministic(self):
        a = run_traffic_point(TINY, "lru:4").to_json()
        b = run_traffic_point(TINY, "lru:4").to_json()
        assert a == b

    def test_capped_output_is_pinned(self):
        point = run_traffic_point(TINY, "lru:4")
        assert point.memo_evictions > 0
        assert _digest(point.to_json()) == TINY_DIGEST

    def test_state_evicting_output_is_pinned(self):
        point = run_traffic_point(STATE_EVICTING, "lru:4")
        # states were evicted and re-interned, beyond the 8 it may hold
        assert point.distinct_states > 8
        assert _digest(point.to_json()) == STATE_EVICTING_DIGEST

    def test_default_caps_never_evict_on_the_golden_cell(self):
        point = run_traffic_point(
            TrafficSpec(packets=2_000, flows=200, warmup_packets=400),
            "one-entry",
        )
        assert point.memo_evictions == 0

    def test_spec_validates_caps(self):
        with pytest.raises(ValueError, match="memo_state_cap"):
            SPEC.with_(memo_state_cap=1).validate()
        with pytest.raises(ValueError, match="memo_edge_cap"):
            SPEC.with_(memo_edge_cap=0).validate()

    def test_caps_surface_in_spec_json(self):
        j = SPEC.to_json()
        assert j["memo_state_cap"] == 16_384
        assert j["memo_edge_cap"] == 65_536


class TestWatchdog:
    def test_zero_watchdog_degrades_but_stays_exact(self):
        normal = run_traffic_point(SPEC, "lru:4")
        degraded = run_traffic_point(SPEC, "lru:4", watchdog_s=0.0)
        assert degraded.degraded
        assert not normal.degraded
        assert _totals(normal) == _totals(degraded)

    def test_degraded_flag_in_json(self):
        degraded = run_traffic_point(SPEC, "lru:4", watchdog_s=0.0)
        assert degraded.to_json()["degraded"] is True

    def test_degraded_output_is_pinned(self):
        degraded = run_traffic_point(SPEC, "lru:4", watchdog_s=0.0)
        assert _digest(degraded.to_json()) == DEGRADED_DIGEST

    def test_generous_watchdog_never_trips(self):
        point = run_traffic_point(SPEC, "lru:4", watchdog_s=3600.0)
        assert not point.degraded


class TestExactnessCrossCheck:
    def test_re_simulated_evicted_edges_are_checked(self):
        # tiny caps force evict + re-intern cycles; every re-simulation
        # is compared against the recorded delta of the evicted edge
        from repro.traffic.segments import SegmentLibrary
        from repro.traffic.stream import make_stream_machine
        from repro.xkernel.map import make_scheme

        lib = SegmentLibrary("tcpip", "OUT", population="tcp")
        scheme = make_scheme("one-entry")
        variants = [
            ("tcp", (True, 1, 0), (True, 1, 0), (True, 1, 0), True),
            ("tcp", (False, 1, 0), (False, 1, 0), (False, 1, 2), True),
            ("tcp", (False, 1, 0), (False, 1, 0), (False, 1, 4), False),
        ]
        stream = TransitionStream(
            make_stream_machine("fast"), state_cap=2, edge_cap=2
        )
        stream.start_phase("all")

        def packed(variant):
            return lib.segment(variant, scheme)[0]

        for i in range(120):
            stream.feed(variants[(i * 7) % 3], packed)
        assert stream.memo_evictions > 0
        assert stream.exactness_checks > 0

    def test_exactness_error_is_a_runtime_error(self):
        assert issubclass(StreamExactnessError, RuntimeError)
