"""The grid study surface: bounds soundness, floors, rendering, and the
counted stalls held to the attribution oracle."""

import pytest

from repro.api import DatalayoutSpec
from repro.arch.fastsim import FastMachine
from repro.arch.simcache import clear_caches
from repro.arch.simulator import AlphaConfig
from repro.datalayout import (
    DATA_TECHNIQUES,
    TECHNIQUE_NAMES,
    datalayout_cell,
    run_datalayout_study,
)
from repro.datalayout.study import _image, _walk_cell
from repro.harness.configs import CONFIG_NAMES
from repro.harness.profile import attribute_passes
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


#: the oracle's cells: every (stack, config) on fast, two on the reference
ORACLE_CELLS = [
    ("fast", stack, config) for stack in ("tcpip", "rpc") for config in CONFIG_NAMES
]
ORACLE_CELLS += [("reference", "tcpip", "STD"), ("reference", "rpc", "CLO")]


class TestCountedStalls:
    """The grid counts its write-buffer and d-cache stalls from the
    engine's counters; :func:`attribute_passes` on the same image is the
    oracle of those counts."""

    @pytest.mark.parametrize("engine,stack,config", ORACLE_CELLS)
    def test_counts_equal_the_attributed_buckets(self, engine, stack, config):
        walked = _walk_cell(stack, config, engine=engine, seed=42, opts=None)
        images = {}
        for technique in DATA_TECHNIQUES.values():
            if technique.layout not in images:
                images[technique.layout] = _image(walked, technique)
            _, cold, _, steady = attribute_passes(
                images[technique.layout].walk,
                walked.program,
                engine=engine,
                config=AlphaConfig(memory=technique.memory()),
            )
            cell = datalayout_cell(stack, config, technique, engine=engine)
            where = f"{engine} {stack}/{config}/{technique.name}"
            assert cell.wb_cold == cold.by_cache()["write-buffer"], where
            assert cell.wb_steady == steady.by_cache()["write-buffer"], where
            assert cell.dcache_steady == steady.by_cache()["dcache"], where

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_the_grid_attaches_no_sink(self, engine, monkeypatch):
        """No cell constructs an :class:`Attribution`, and no kernel pass
        keeps a decision log."""
        clear_caches()  # so the fast cells run the kernel
        sinks, logs = [], []
        init, mem_pass = Attribution.__init__, FastMachine._mem_pass

        def spy_init(self, *args, **kwargs):
            sinks.append(self)
            init(self, *args, **kwargs)

        def spy_pass(self, packed, track=False, log=None):
            logs.append(log)
            return mem_pass(self, packed, track, log)

        monkeypatch.setattr(Attribution, "__init__", spy_init)
        monkeypatch.setattr(FastMachine, "_mem_pass", spy_pass)
        spec = DatalayoutSpec(techniques=("all",), stacks=("tcpip",), configs=("STD",))
        study = run_datalayout_study(spec, engine=engine)
        assert len(study.cells) == 2
        assert sinks == []
        assert all(log is None for log in logs)
        assert bool(logs) == (engine == "fast")
