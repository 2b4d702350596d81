"""Protocol error paths as segment variants: each fault kind is priced
by a real (pruned, cond-overridden) walk of the demux span, so faulted
streams stay transition-memoizable."""

import pytest

from repro.harness.configs import CONFIG_NAMES
from repro.traffic.segments import (
    FAULT_RECIPES,
    SEGMENT_FAULT_KINDS,
    SegmentLibrary,
)
from repro.xkernel.map import make_scheme

#: the established-hit variant every stack prices cheapest
HIT = {
    "tcpip": ("tcp", (True, 1, 0), (True, 1, 0), (True, 1, 0), True),
    "rpc": ("rpc", (True, 1, 0), (True, 1, 0), (True, 1, 0), True),
}

#: every (stack, config) cell; OUT, the streaming studies' default cell,
#: keeps the bare stack id
CELLS = [(stack, config) for stack in ("tcpip", "rpc") for config in CONFIG_NAMES]


@pytest.fixture(
    scope="module",
    params=CELLS,
    ids=[stack if config == "OUT" else f"{stack}-{config}" for stack, config in CELLS],
)
def cell(request):
    return request.param


@pytest.fixture(scope="module")
def stack(cell):
    return cell[0]


@pytest.fixture(scope="module")
def library(cell):
    # cloned (BAD, CLO, ALL) and path-inlined (PIN, ALL) builds walk the
    # demux layers in frames not named like the events, so every forced
    # cond must reach them too
    stack, config = cell
    pop = "tcp" if stack == "tcpip" else "rpc"
    return SegmentLibrary(stack, config, population=pop)


@pytest.fixture(scope="module")
def scheme():
    return make_scheme("one-entry")


class TestFaultVariants:
    @pytest.mark.parametrize("kind", SEGMENT_FAULT_KINDS)
    def test_every_kind_walks_and_prices(self, stack, library, scheme, kind):
        variant = HIT[stack] + (kind,)
        packed, cpu = library.segment(variant, scheme)
        assert len(packed) > 0
        assert cpu.instructions > 0
        assert cpu.cycles > 0

    def test_truncated_header_is_cheapest(self, stack, library, scheme):
        _, pristine = library.segment(HIT[stack], scheme)
        _, truncated = library.segment(
            HIT[stack] + ("truncated_header",), scheme
        )
        # a runt frame dies at the link layer: far less work than a
        # full demux walk
        assert truncated.instructions < pristine.instructions

    def test_checksum_failure_stops_before_delivery(
        self, stack, library, scheme
    ):
        _, pristine = library.segment(HIT[stack], scheme)
        _, cksum = library.segment(
            HIT[stack] + ("corrupt_checksum",), scheme
        )
        assert cksum.instructions < pristine.instructions
        _, truncated = library.segment(
            HIT[stack] + ("truncated_header",), scheme
        )
        # the checksum is verified above the link layer, so rejecting a
        # corrupt packet costs more than rejecting a runt frame
        assert cksum.instructions > truncated.instructions

    def test_duplicate_suppression_walks_the_full_demux(
        self, stack, library, scheme
    ):
        _, dup = library.segment(
            HIT[stack] + ("duplicated_packet",), scheme
        )
        _, truncated = library.segment(
            HIT[stack] + ("truncated_header",), scheme
        )
        # a duplicate is recognized only after demux: it pays the walk
        assert dup.instructions > truncated.instructions

    def test_l4_miss_walks_the_general_routine(self, stack, library, scheme):
        miss = HIT[stack][:3] + ((False, 1, 0), True)
        hit_packed, _ = library.segment(HIT[stack], scheme)
        miss_packed, _ = library.segment(miss, scheme)
        # a one-entry miss falls through to map_resolve on every build
        assert len(miss_packed) > len(hit_packed)

    def test_variants_are_memoized(self, stack, library, scheme):
        variant = HIT[stack] + ("corrupt_checksum",)
        a = library.segment(variant, scheme)
        b = library.segment(variant, scheme)
        assert a is b

    def test_unknown_kind_rejected(self, stack, library, scheme):
        with pytest.raises(ValueError, match="fault kind"):
            library.segment(HIT[stack] + ("cosmic_ray",), scheme)

    def test_recipes_cover_both_stacks(self):
        for recipes in (FAULT_RECIPES["tcpip"], FAULT_RECIPES["rpc"]):
            assert set(recipes) == set(SEGMENT_FAULT_KINDS)

    def test_pristine_variants_unchanged_by_fault_support(
        self, stack, library, scheme
    ):
        # 5-tuple keys must keep pricing exactly as before the fault
        # machinery existed (rate-0 bit-identity depends on it)
        packed_a, cpu_a = library.segment(HIT[stack], scheme)
        packed_b, cpu_b = library.segment(HIT[stack], scheme)
        assert packed_a is packed_b
        assert cpu_a.instructions > 0
