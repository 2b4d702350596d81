"""Entry points that walk and simulate a cell agree across engines.

``repro.harness.experiment.walk_events`` and ``simulate_walk`` are the
only code that maps an engine name to a walker and a simulator.  The
profile, bounds and layout-search entry points all reach the engines
through them, so each must give the same answer on the fast engine as
on the reference oracle.
"""

import pytest

from repro.analysis.bounds import check_cell_bounds
from repro.api.settings import Settings
from repro.harness.profile import profile_cell
from repro.search.evaluate import CellEvaluator

CELLS = [("tcpip", "BAD"), ("tcpip", "CLO"), ("rpc", "STD")]


def _profile_without_engine(stack, config, engine):
    doc = profile_cell(stack, config, engine=engine).to_json()
    assert doc.pop("engine") == engine
    return doc


@pytest.mark.parametrize("stack,config", CELLS)
def test_profile_cell_agrees_across_engines(stack, config):
    fast = _profile_without_engine(stack, config, "fast")
    assert fast == _profile_without_engine(stack, config, "reference")


@pytest.mark.parametrize("stack,config", CELLS)
def test_check_cell_bounds_agrees_across_engines(stack, config):
    fast = check_cell_bounds(stack, config, engine="fast")
    assert fast == check_cell_bounds(stack, config, engine="reference")


@pytest.mark.parametrize("stack,config", CELLS)
def test_cell_evaluator_agrees_across_engines(stack, config):
    fast, reference = (
        CellEvaluator(stack, config, settings=Settings(engine=engine))
        for engine in ("fast", "reference")
    )
    assert fast.walk.packed.fingerprint() == reference.walk.packed.fingerprint()
    assert fast.score(fast.default_placements) == reference.score(
        reference.default_placements
    )
