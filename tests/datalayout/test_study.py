"""The grid study surface: bounds soundness, floors, and rendering."""

import pytest

from repro.api import DatalayoutSpec
from repro.arch.fastsim import FastMachine
from repro.arch.simulator import AlphaConfig
from repro.core.fastwalk import FastWalker
from repro.core.walker import clone_events
from repro.datalayout import (
    DATA_TECHNIQUES,
    TECHNIQUE_NAMES,
    apply_data_layout,
    datalayout_cell,
    run_datalayout_study,
    survey_data_refs,
)
from repro.harness.configs import build_configured_program
from repro.harness.experiment import Experiment
from repro.obs import Attribution


@pytest.fixture(scope="module")
def study():
    """A narrowed but technique-complete grid (one config per stack)."""
    return run_datalayout_study(DatalayoutSpec(configs=("STD",)))


class TestBoundsOverStoreModes:
    """The static bounds stay sound — and cold-exact — under every
    technique's store behaviour, not just the stock hierarchy."""

    @pytest.mark.parametrize("name", TECHNIQUE_NAMES)
    def test_cold_bound_collapses_onto_the_run(self, name):
        cell = datalayout_cell("tcpip", "STD", DATA_TECHNIQUES[name])
        assert cell.cold_exact
        assert cell.bounds_sound

    @pytest.mark.parametrize("name", ["coalesce", "all"])
    def test_bounds_sound_on_the_rpc_stack_too(self, name):
        cell = datalayout_cell("rpc", "CLO", DATA_TECHNIQUES[name])
        assert cell.cold_exact
        assert cell.bounds_sound


class TestStudySurface:
    def test_stacks_reports_measured_stacks_in_order(self, study):
        assert study.stacks() == ("tcpip", "rpc")

    def test_check_is_clean_on_a_completed_study(self, study):
        assert study.check() == []

    def test_baseline_is_always_included(self):
        narrow = run_datalayout_study(
            DatalayoutSpec(techniques=("pack",), stacks=("tcpip",), configs=("STD",))
        )
        assert {c.technique for c in narrow.cells} == {"baseline", "pack"}
        # the floor is defined by the force-included baseline cells
        assert narrow.wb_floor("tcpip") > 0

    def test_cell_lookup_raises_on_unknown_cell(self, study):
        with pytest.raises(KeyError, match="no cell"):
            study.cell("tcpip", "STD", "vectorize")

    def test_render_names_no_engine(self, study):
        # one committed golden serves every engine; an engine name in the
        # rendering would make the file engine-dependent
        text = study.render()
        for engine in ("fast", "reference"):
            assert engine not in text
        assert "write-buffer floor [tcpip]" in text

    def test_to_json_grid_floors_match_cells(self, study):
        grid = study.to_json()
        for stack in study.stacks():
            assert grid["wb_floor"][stack] == study.wb_floor(stack)
        for name, count in grid["cells_below_floor"].items():
            assert count == study.cells_below_floor(name)

    def test_layout_techniques_report_footprint_wins(self, study):
        pack = study.cell("tcpip", "STD", "pack")
        assert pack.bytes_saved > 0
        assert pack.refs_rewritten > 0
        baseline = study.cell("tcpip", "STD", "baseline")
        assert baseline.bytes_saved == 0
        assert baseline.refs_rewritten == 0

    def test_coalescing_beats_the_floor_on_both_stacks(self, study):
        for stack in study.stacks():
            floor = study.wb_floor(stack)
            cell = study.cell(stack, "STD", "coalesce")
            assert cell.wb_steady < floor


class TestAttributionPasses:
    """The study attributes the passes the engines measure: cold, one
    warm-up, then steady (``profile_cell``'s structure)."""

    @pytest.fixture
    def sinks(self, monkeypatch):
        """Every sink observed: its passes' measure flags and its reports."""
        seen = {}
        observe, harvest = Attribution.observe_pass, Attribution.harvest

        def observe_pass(self, trace, log, *, measure):
            seen.setdefault(self, ([], []))[0].append(measure)
            return observe(self, trace, log, measure=measure)

        def keep_report(self, label=""):
            report = harvest(self, label)
            seen[self][1].append(report)
            return report

        monkeypatch.setattr(Attribution, "observe_pass", observe_pass)
        monkeypatch.setattr(Attribution, "harvest", keep_report)
        return seen

    def test_every_cell_runs_three_passes(self, sinks):
        study = run_datalayout_study(
            DatalayoutSpec(techniques=("all",), configs=("STD",))
        )
        assert len(sinks) == len(study.cells)
        for measures, _reports in sinks.values():
            assert measures == [True, False, True]

    @pytest.mark.parametrize("name", ["baseline", "all"])
    def test_steady_buckets_match_a_machine_harvest(self, sinks, name):
        technique = DATA_TECHNIQUES[name]
        datalayout_cell("tcpip", "STD", technique)
        [(_measures, (_cold, steady))] = sinks.values()

        build = build_configured_program("tcpip", "STD", None)
        plan = survey_data_refs(build.program).plan(
            pack=technique.pack,
            split=technique.split,
            block_size=technique.memory().block_size,
        )
        apply_data_layout(build.program, plan.remaps)
        events, data_env = Experiment("tcpip", "STD").capture_roundtrip(42)
        walk = FastWalker(build.program, dict(data_env)).walk(clone_events(events))
        config = AlphaConfig(memory=technique.memory())
        sink = Attribution(build.program, config=config)
        machine = FastMachine(config, sink=sink)
        machine.run(walk.packed)
        sink.harvest("cold")
        machine.warm_up(walk.packed)
        machine.run(walk.packed)
        expected = sink.harvest("steady")
        assert steady.buckets == expected.buckets
        assert steady.instructions == expected.instructions
        assert steady.conflicts.counts == expected.conflicts.counts
