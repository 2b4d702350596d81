"""The engines against each other under every store mode.

The grid study's cross-engine claim is that store behaviour is modeled
*bit-identically* by the reference simulator and the fast kernels — same
stall totals, same MemoryStats counters, cold and steady, on every cell.
The committed golden table relies on this: it is one engine-free file.
"""

import pytest

from repro.arch.simcache import simulate_cold_and_steady_cached
from repro.arch.simulator import AlphaConfig, MachineSimulator
from repro.core.fastwalk import FastWalker
from repro.core.walker import DataSlots
from repro.datalayout import DATA_TECHNIQUES, readdress, survey_data_refs
from repro.harness.configs import CONFIG_NAMES, build_configured_program
from repro.harness.experiment import Experiment

CELLS = [(stack, config) for stack in ("tcpip", "rpc") for config in CONFIG_NAMES]
STORE_MODES = ("coalesce", "stream", "all")


@pytest.fixture(scope="module")
def walks():
    """One layout-transformed walked roundtrip per (technique, cell), as
    the grid makes them: one walk per cell, re-addressed per layout."""
    out = {}
    for stack, config in CELLS:
        program = build_configured_program(stack, config, None).program
        survey = survey_data_refs(program)
        exp = Experiment(stack, config, base_seed=42)
        events, data_env = exp.capture_roundtrip(42)
        slots = DataSlots()
        walk = FastWalker(program, dict(data_env)).walk(events, on_dref=slots.record)
        for name in STORE_MODES:
            technique = DATA_TECHNIQUES[name]
            plan = survey.plan(
                pack=technique.pack,
                split=technique.split,
                block_size=technique.memory().block_size,
            )
            out[(name, stack, config)] = readdress(walk, slots, plan.remaps)
    return out


@pytest.mark.parametrize("stack,config", CELLS)
@pytest.mark.parametrize("mode", STORE_MODES)
def test_fast_matches_reference(walks, mode, stack, config):
    walk = walks[(mode, stack, config)]
    cfg = AlphaConfig(memory=DATA_TECHNIQUES[mode].memory())
    ref_cold = MachineSimulator(cfg).run(walk.trace)
    ref_steady = MachineSimulator(cfg).run_steady_state(walk.trace)
    cold, steady = simulate_cold_and_steady_cached(walk.packed, cfg)
    assert cold == ref_cold
    assert cold.memory == ref_cold.memory
    assert steady == ref_steady
    assert steady.memory == ref_steady.memory


@pytest.mark.parametrize("mode", ["coalesce", "all"])
def test_coalescing_modes_actually_change_the_measurement(walks, mode):
    # the differential above would pass vacuously if the mode never
    # reached the kernels; require a visible effect somewhere in the grid
    cfg = AlphaConfig(memory=DATA_TECHNIQUES[mode].memory())
    base_cfg = AlphaConfig()
    changed = 0
    for stack, config in CELLS:
        walk = walks[(mode, stack, config)]
        _, steady = simulate_cold_and_steady_cached(walk.packed, cfg)
        _, base = simulate_cold_and_steady_cached(walk.packed, base_cfg)
        if steady.memory.stall_cycles != base.memory.stall_cycles:
            changed += 1
    assert changed, f"store mode {mode!r} never moved a steady stall count"


def test_streaming_is_steady_neutral_on_roundtrip_loops(walks):
    # the grid study's "stream" finding, pinned: in a steady roundtrip
    # loop the write buffer forwards re-read stores before the b-cache's
    # contents ever matter, so non-allocating writes change nothing —
    # stream only beats the floor where the baseline already did
    cfg = AlphaConfig(memory=DATA_TECHNIQUES["stream"].memory())
    base_cfg = AlphaConfig()
    for stack, config in CELLS:
        walk = walks[("stream", stack, config)]
        _, steady = simulate_cold_and_steady_cached(walk.packed, cfg)
        _, base = simulate_cold_and_steady_cached(walk.packed, base_cfg)
        assert steady.memory.stall_cycles == base.memory.stall_cycles
