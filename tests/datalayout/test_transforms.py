"""The layout transforms: packing and hot/cold splitting invariants."""

import pytest

from repro.datalayout.transforms import (
    EXCLUDED_REGIONS,
    PACK_GAP,
    apply_data_layout,
    survey_data_refs,
)
from repro.harness.configs import build_configured_program

BLOCK = 32


@pytest.fixture()
def build():
    """A fresh (mutable) tcpip/STD build per test."""
    return build_configured_program("tcpip", "STD", None)


def region_remaps(program, *, pack, split, block_size):
    """(remaps, region -> RegionLayout, skipped) of one planned transform."""
    plan = survey_data_refs(program).plan(pack=pack, split=split, block_size=block_size)
    layouts = {r.region: r for r in plan.report.regions}
    return plan.remaps, layouts, plan.report.skipped


def survey_offsets(program):
    """region -> {offset} over scalar (non-indexed) drefs, plus hot sets."""
    offsets, hot, indexed = {}, {}, set()
    for fn in program.functions():
        for blk in fn.blocks:
            for ins in blk.instructions:
                d = ins.dref
                if d is None:
                    continue
                if d.indexed:
                    indexed.add(d.region)
                    continue
                offsets.setdefault(d.region, set()).add(d.offset)
                if not blk.unlikely:
                    hot.setdefault(d.region, set()).add(d.offset)
    return offsets, hot, indexed


class TestRegionRemaps:
    def test_pack_remap_is_injective(self, build):
        remaps, _, _ = region_remaps(
            build.program, pack=True, split=False, block_size=BLOCK
        )
        assert remaps  # the stacks do have packable regions
        for region, remap in remaps.items():
            assert len(set(remap.values())) == len(remap), region

    def test_pack_never_grows_a_region(self, build):
        remaps, layouts, _ = region_remaps(
            build.program, pack=True, split=False, block_size=BLOCK
        )
        for region, remap in remaps.items():
            for old, new in remap.items():
                assert new <= old, f"{region}: {old} -> {new} moved backward"
            assert layouts[region].span_after <= layouts[region].span_before

    def test_pack_caps_gaps_at_the_quadword(self, build):
        remaps, _, _ = region_remaps(
            build.program, pack=True, split=False, block_size=BLOCK
        )
        for region, remap in remaps.items():
            packed = sorted(remap.values())
            gaps = [b - a for a, b in zip(packed, packed[1:])]
            assert all(g <= PACK_GAP for g in gaps), region

    def test_split_puts_cold_fields_past_a_block_boundary(self, build):
        remaps, layouts, _ = region_remaps(
            build.program, pack=False, split=True, block_size=BLOCK
        )
        offsets, hot, _ = survey_offsets(build.program)
        saw_cold = False
        for region, remap in remaps.items():
            hot_offs = hot.get(region, set())
            cold_offs = offsets[region] - hot_offs
            hot_end = layouts[region].span_after
            for off in cold_offs:
                saw_cold = True
                new = remap[off]
                # the hot prefix and the cold tail never share a d-cache
                # block: cold fields resume past the next block boundary
                assert new >= hot_end
                if hot_end:
                    assert new // BLOCK > (hot_end - 1) // BLOCK
        assert saw_cold, "no region carries error-path-only fields"

    def test_excluded_and_indexed_regions_are_skipped(self, build):
        remaps, _, skipped = region_remaps(
            build.program, pack=True, split=True, block_size=BLOCK
        )
        offsets, _, indexed = survey_offsets(build.program)
        for region in EXCLUDED_REGIONS & set(offsets):
            assert region not in remaps
            assert region in skipped
        for region in indexed:
            assert region not in remaps


class TestApplyDataLayout:
    def test_noop_without_either_transform(self, build):
        before, _, _ = survey_offsets(build.program)
        plan = survey_data_refs(build.program).plan()
        assert plan.remaps == {}
        assert plan.report.rewritten == 0
        assert plan.report.bytes_saved == 0
        assert apply_data_layout(build.program, plan.remaps) == 0
        after, _, _ = survey_offsets(build.program)
        assert after == before

    def test_rewrite_counts_moved_refs_only(self, build):
        plan = survey_data_refs(build.program).plan(pack=True, block_size=BLOCK)
        remaps = plan.remaps
        moved = sum(
            1
            for fn in build.program.functions()
            for blk in fn.blocks
            for ins in blk.instructions
            if ins.dref is not None
            and not ins.dref.indexed
            and ins.dref.region in remaps
            and remaps[ins.dref.region][ins.dref.offset] != ins.dref.offset
        )
        # the plan counts what the rewrite moves without rewriting anything
        assert plan.report.rewritten == moved
        assert apply_data_layout(build.program, remaps) == moved
        assert plan.report.bytes_saved > 0

    def test_instruction_counts_survive_the_rewrite(self, build):
        before = {
            fn.name: sum(len(blk.instructions) for blk in fn.blocks)
            for fn in build.program.functions()
        }
        plan = survey_data_refs(build.program).plan(
            pack=True, split=True, block_size=BLOCK
        )
        apply_data_layout(build.program, plan.remaps)
        after = {
            fn.name: sum(len(blk.instructions) for blk in fn.blocks)
            for fn in build.program.functions()
        }
        assert after == before

    def test_packing_is_idempotent(self, build):
        first = survey_data_refs(build.program).plan(pack=True, block_size=BLOCK)
        assert apply_data_layout(build.program, first.remaps) > 0
        again = survey_data_refs(build.program).plan(pack=True, block_size=BLOCK)
        assert again.report.rewritten == 0
        assert again.report.bytes_saved == 0
        assert apply_data_layout(build.program, again.remaps) == 0
