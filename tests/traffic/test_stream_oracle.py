"""The streaming engine against sequential simulation, and its engine map.

The transition-memoized :class:`TransitionStream` must reproduce, to the
counter, what a persistent machine accumulates simulating the same
segment sequence one pass at a time (memoization is a pure
optimization); the committed golden table is the CI-scale version of
this.  The reference engine, which has no packed-segment pass, is
refused.
"""

import random
from collections import Counter

import pytest

from repro.arch.fastsim import N_COUNTERS, FastMachine
from repro.traffic import TrafficSpec, run_traffic_point
from repro.traffic.segments import SegmentLibrary
from repro.traffic.stream import TransitionStream, make_stream_machine
from repro.xkernel.map import make_scheme

#: a realistic little alphabet: established hit, cold miss, and a
#: not-found walk on an unestablished flow
VARIANTS = [
    ("tcp", (True, 1, 0), (True, 1, 0), (True, 1, 0), True),
    ("tcp", (False, 1, 0), (False, 1, 0), (False, 1, 2), True),
    ("tcp", (False, 1, 0), (False, 1, 0), (False, 1, 4), False),
]


def _sequence(n=60):
    """A fixed pseudo-random variant sequence (no library needed)."""
    state = 0x2545F491
    out = []
    for _ in range(n):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        out.append(VARIANTS[state % len(VARIANTS)])
    return out


@pytest.fixture(scope="module")
def library():
    return SegmentLibrary("tcpip", "OUT", population="tcp")


def _naive_totals(machine, library, scheme, sequence):
    machine.reset()
    totals = [0] * N_COUNTERS
    for variant in sequence:
        packed, _cpu = library.segment(variant, scheme)
        delta = machine.mem_delta(packed)
        totals = [t + d for t, d in zip(totals, delta)]
    return totals


def _streamed(machine, library, scheme, sequence, split):
    stream = TransitionStream(machine)
    stream.start_phase("warmup")

    def packed(variant):
        return library.segment(variant, scheme)[0]

    for i, variant in enumerate(sequence):
        if i == split:
            stream.start_phase("steady")
        stream.feed(variant, packed)
    warm = stream.phase_counters("warmup")
    steady = stream.phase_counters("steady")
    return stream, [w + s for w, s in zip(warm, steady)]


class TestMemoizationIsExact:
    @pytest.mark.parametrize("spec", ["one-entry", "none", "lru:4"])
    def test_stream_equals_sequential_fast(self, library, spec):
        scheme = make_scheme(spec)
        sequence = _sequence()
        naive = _naive_totals(FastMachine(), library, scheme, sequence)
        stream, totals = _streamed(
            FastMachine(), library, scheme, sequence, split=20
        )
        assert totals == naive
        # the whole point: far fewer simulated passes than packets
        assert stream.novel_passes < len(sequence)
        assert stream.distinct_states <= stream.novel_passes + 1

    def test_phase_split_never_changes_the_totals(self, library):
        scheme = make_scheme("one-entry")
        sequence = _sequence()
        _, at_5 = _streamed(FastMachine(), library, scheme, sequence, 5)
        _, at_37 = _streamed(FastMachine(), library, scheme, sequence, 37)
        assert at_5 == at_37


class TestPhasesUnderEviction:
    @pytest.mark.parametrize("split", [0, 1, 2, 17, 40, 79])
    def test_each_phase_equals_its_sequential_passes(self, library, split):
        """Caps so tiny that edges and states are evicted in both phases:
        each phase's counters and segment counts equal the sums of the
        sequential passes it holds, on one persistent machine."""
        scheme = make_scheme("one-entry")
        rng = random.Random(5)
        sequence = [rng.choice(VARIANTS) for _ in range(80)]
        machine = FastMachine()
        expected = {
            "warmup": ([0] * N_COUNTERS, Counter()),
            "steady": ([0] * N_COUNTERS, Counter()),
        }
        for i, variant in enumerate(sequence):
            totals, segs = expected["warmup" if i < split else "steady"]
            delta = machine.mem_delta(library.segment(variant, scheme)[0])
            for j in range(N_COUNTERS):
                totals[j] += delta[j]
            segs[variant] += 1

        stream = TransitionStream(FastMachine(), state_cap=2, edge_cap=2)
        stream.start_phase("warmup")
        for i, variant in enumerate(sequence):
            if i == split:
                stream.start_phase("steady")
            stream.feed(variant, lambda v: library.segment(v, scheme)[0])
        assert stream.edge_evictions > 0 and stream.state_evictions > 0
        for phase, (totals, segs) in expected.items():
            assert stream.phase_counters(phase) == totals
            assert dict(stream.phase_seg_counts(phase)) == dict(segs)


class TestCrossEngine:
    def test_reference_engine_is_refused(self):
        with pytest.raises(ValueError, match="reference"):
            make_stream_machine("reference")
        with pytest.raises(ValueError, match="packed-segment"):
            run_traffic_point(
                TrafficSpec(packets=10, warmup_packets=0, flows=4),
                "one-entry",
                engine="reference",
            )
