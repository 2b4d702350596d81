"""Re-addressed walks against the IR-rewrite oracle.

The grid builds and walks each (stack, config) cell once and derives each
layout transform's trace by re-addressing that walk
(:func:`repro.datalayout.readdress`) through the walk's data-slot
provenance (:class:`repro.core.walker.DataSlots`).  The oracle is the
transform applied to the code: rewrite a fresh build's IR under the same
remaps (:func:`repro.datalayout.apply_data_layout`) and walk it.  Both
must give the same trace, column for column and mark for mark, on both
walkers, for the planned transforms and for any injective remap.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import DatalayoutSpec
from repro.api.spec import SPEC_CONFIGS, SPEC_STACKS
from repro.core.fastwalk import FastWalker
from repro.core.ir import FunctionBuilder
from repro.core.layout import link_order_layout
from repro.core.program import Program
from repro.core.walker import DataSlots, EnterEvent, ExitEvent, Walker
from repro.datalayout import (
    apply_data_layout,
    readdress,
    run_datalayout_study,
    survey_data_refs,
)
from repro.harness import configs
from repro.harness.configs import build_configured_program
from repro.harness.experiment import Experiment

CELLS = [(stack, config) for stack in SPEC_STACKS for config in SPEC_CONFIGS]
LAYOUTS = {"pack": {"pack": True}, "split": {"split": True}}
WALKERS = {"fast": FastWalker, "reference": Walker}
BLOCK = 32


@functools.lru_cache(maxsize=None)
def _capture(stack, config, seed):
    return Experiment(stack, config, base_seed=seed).capture_roundtrip(seed)


def _walked(walker, program, stack, config, seed=42):
    """(walk, its data-slot provenance) of one captured roundtrip."""
    events, env = _capture(stack, config, seed)
    slots = DataSlots()
    walk = walker(program, dict(env)).walk(events, on_dref=slots.record)
    return walk, slots


def _oracle(walker, stack, config, remaps, seed=42):
    """(walk, references moved) of a fresh build rewritten under ``remaps``."""
    program = build_configured_program(stack, config, None).program
    moved = apply_data_layout(program, remaps)
    events, env = _capture(stack, config, seed)
    return walker(program, dict(env)).walk(events), moved


def _columns(walk):
    p = walk.packed
    return list(p.pcs), bytes(p.ops), bytes(p.flags), list(p.daddrs), walk.marks


@pytest.mark.parametrize("stack,config", CELLS)
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("engine", sorted(WALKERS))
def test_readdressed_walk_equals_the_rewritten_program(engine, layout, stack, config):
    walker = WALKERS[engine]
    program = build_configured_program(stack, config, None).program
    plan = survey_data_refs(program).plan(block_size=BLOCK, **LAYOUTS[layout])
    walk, slots = _walked(walker, program, stack, config)
    image = readdress(walk, slots, plan.remaps)
    oracle, moved = _oracle(walker, stack, config, plan.remaps)
    assert _columns(image) == _columns(oracle)
    # the plan counts what the rewrite moves, without rewriting anything
    assert moved == plan.report.rewritten
    assert list(image.packed.daddrs) != list(walk.packed.daddrs)


@pytest.mark.parametrize("stack,config", [("tcpip", "CLO"), ("rpc", "PIN")])
def test_a_rebound_walk_is_readdressed_at_its_own_bases(monkeypatch, stack, config):
    program = build_configured_program(stack, config, None).program
    plan = survey_data_refs(program).plan(split=True, block_size=BLOCK)
    calls = {}

    def recorder(name):
        def on_dref(idx, src, base):
            calls.setdefault(name, []).append((idx, src, base))

        return on_dref

    events, env = _capture(stack, config, 42)
    FastWalker(program, dict(env)).walk(events, on_dref=recorder("template"))
    full_walks = []
    real_walk = Walker.walk

    def counting(self, events, **kwargs):
        full_walks.append(type(self))
        return real_walk(self, events, **kwargs)

    monkeypatch.setattr(Walker, "walk", counting)
    events, env = _capture(stack, config, 59)
    slots = DataSlots()
    rebound = FastWalker(program, dict(env)).walk(events, on_dref=slots.record)
    FastWalker(program, dict(env)).walk(events, on_dref=recorder("rebound"))
    assert full_walks == []  # both served from the seed-42 template
    Walker(program, dict(env)).walk(events, on_dref=recorder("reference"))

    # a rebind makes the full walk's on_dref calls, at its own bases
    assert calls["rebound"] == calls["reference"]
    assert calls["rebound"] != calls["template"]
    oracle, _ = _oracle(Walker, stack, config, plan.remaps, seed=59)
    assert _columns(readdress(rebound, slots, plan.remaps)) == _columns(oracle)


@st.composite
def _remaps(draw, survey, regions):
    """An injective offset remap over a random subset of ``regions``."""
    remaps = {}
    for region in draw(st.lists(st.sampled_from(regions), min_size=1, unique=True)):
        offsets = sorted(survey.offsets[region])
        targets = draw(
            st.lists(
                st.integers(0, 1023).map(lambda q: 8 * q),
                min_size=len(offsets),
                max_size=len(offsets),
                unique=True,
            )
        )
        remaps[region] = dict(zip(offsets, targets))
    return remaps


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_any_injective_remap_readdresses_like_the_rewrite(data):
    stack, config = data.draw(st.sampled_from(CELLS), label="cell")
    engine = data.draw(st.sampled_from(sorted(WALKERS)), label="engine")
    program = configs.build_configured_program_cached(stack, config).program
    survey = survey_data_refs(program)
    # the regions the planner may remap: every transformable one
    regions = sorted(survey.plan(pack=True, block_size=BLOCK).remaps)
    remaps = data.draw(_remaps(survey, regions), label="remaps")
    walk, slots = _walked(WALKERS[engine], program, stack, config)
    oracle, _ = _oracle(WALKERS[engine], stack, config, remaps)
    assert _columns(readdress(walk, slots, remaps)) == _columns(oracle)


def test_images_share_the_walks_code_columns():
    program = build_configured_program("rpc", "ALL", None).program
    plan = survey_data_refs(program).plan(pack=True, block_size=BLOCK)
    walk, slots = _walked(FastWalker, program, "rpc", "ALL")
    image = readdress(walk, slots, plan.remaps)
    assert image.packed.pcs is walk.packed.pcs
    assert image.packed.ops is walk.packed.ops
    assert image.packed.flags is walk.packed.flags
    # the fetch-run encoding and the CPU pass are computed once per cell
    assert image.packed._shared is walk.packed._shared
    assert readdress(walk, slots, {}) is walk


def test_the_grid_builds_and_walks_each_cell_once(monkeypatch):
    builds, full_walks = [], []
    real_build, real_walk = configs.build_configured_program, Walker.walk

    def build(*args, **kwargs):
        builds.append(args[:2])
        return real_build(*args, **kwargs)

    def walk(self, events, **kwargs):
        full_walks.append(type(self))
        return real_walk(self, events, **kwargs)

    monkeypatch.setattr(configs, "build_configured_program", build)
    monkeypatch.setattr(Walker, "walk", walk)
    study = run_datalayout_study(DatalayoutSpec())
    assert len(study.cells) == 72
    assert sorted(builds) == sorted(CELLS)
    assert len(full_walks) == 12


class TestMixedRegion:
    """A hand-built function whose ``buf`` region carries scalar fields
    and a strided loop: the planner must leave it alone, and the
    re-addressing must agree with the rewrite on everything it moves."""

    @staticmethod
    def _program():
        fb = FunctionBuilder("f", saves=2)
        fb.block("head").load("tcb", 0).store("tcb", 40).load("buf", 24)
        fb.block("spill").store("stack", 16).load("stack", 16)
        fb.block("loop").load("buf", 0).load("buf", 0, indexed=True, stride=8)
        fb.branch("more", "loop", "tail")
        fb.block("tail").store("tcb", 96).load("buf", 16)
        fb.block("err", unlikely=True).store("tcb", 200)
        fb.ret()
        program = Program()
        program.add(fb.build())
        program.layout(link_order_layout())
        return program

    @staticmethod
    def _walk(program, on_dref=None):
        events = [
            EnterEvent("f", {"more": 3}, {"buf": 0x500000, "tcb": 0x510000}),
            ExitEvent("f"),
        ]
        return Walker(program).walk(events, on_dref=on_dref)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_indexed_and_stack_regions_are_not_planned(self, layout):
        plan = survey_data_refs(self._program()).plan(
            block_size=BLOCK, **LAYOUTS[layout]
        )
        assert sorted(plan.remaps) == ["tcb"]
        assert set(plan.report.skipped) == {"buf", "stack"}

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_readdress_agrees_with_the_rewrite(self, layout):
        program = self._program()
        plan = survey_data_refs(program).plan(block_size=BLOCK, **LAYOUTS[layout])
        slots = DataSlots()
        walk = self._walk(program, slots.record)
        rewritten = self._program()
        assert apply_data_layout(rewritten, plan.remaps) == plan.report.rewritten
        assert _columns(readdress(walk, slots, plan.remaps)) == _columns(
            self._walk(rewritten)
        )
        assert plan.report.rewritten > 0
