"""The fast kernel against the reference oracle.

``FastMachine`` / ``simulate_cold_and_steady`` must be *bit-identical* to
``MachineSimulator`` — same SimResult, same MemoryStats counters, same
CpuStats — for every build configuration of both stacks.  These are the
differential tests that hold the fast engine to that contract.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.cpu import CpuConfig, CpuModel
from repro.arch.fastsim import (
    FastMachine,
    cold_and_steady_memory,
    cpu_pass,
    data_blocks,
    fetch_runs,
    simulate_cold_and_steady,
)
from repro.arch.packed import IS_MEMORY
from repro.arch.simcache import clear_caches, simulate_cold_and_steady_cached
from repro.arch.simulator import MachineSimulator
from repro.core.fastwalk import FastWalker
from repro.core.walker import Walker
from repro.harness.configs import CONFIG_NAMES, build_configured_program_cached
from repro.harness.experiment import Experiment
from tests.arch.test_state_tokens import HOPS, SEGMENTS, configs

CELLS = [(stack, config) for stack in ("tcpip", "rpc")
         for config in CONFIG_NAMES]


@pytest.fixture(scope="module")
def walks():
    """One real walked roundtrip per (stack, config) cell."""
    out = {}
    for stack, config in CELLS:
        exp = Experiment(stack, config)
        events, data_env = exp.capture_roundtrip(42)
        build = build_configured_program_cached(stack, config)
        out[(stack, config)] = Walker(build.program, data_env).walk(events)
    return out


@pytest.mark.parametrize("stack,config", CELLS)
def test_cold_run_bit_identical(walks, stack, config):
    walk = walks[(stack, config)]
    ref = MachineSimulator().run(walk.trace)
    fast = FastMachine().run(walk.packed)
    assert fast == ref
    assert fast.memory == ref.memory
    assert fast.cpu == ref.cpu


@pytest.mark.parametrize("stack,config", CELLS)
def test_steady_state_bit_identical(walks, stack, config):
    walk = walks[(stack, config)]
    ref = MachineSimulator().run_steady_state(walk.trace)
    fast = FastMachine().run_steady_state(walk.packed)
    assert fast == ref


@pytest.mark.parametrize("stack", ["tcpip", "rpc"])
def test_simulate_cold_and_steady_matches_two_reference_machines(walks, stack):
    walk = walks[(stack, "ALL")]
    cold, steady = simulate_cold_and_steady(walk.packed)
    assert cold == MachineSimulator().run(walk.trace)
    assert steady == MachineSimulator().run_steady_state(walk.trace)


def test_convergence_shortcut_is_exact_for_long_warmups(walks):
    # the fixed-point detector may skip warm passes; the result must still
    # equal the brute-force reference at any requested warm-up depth
    walk = walks[("tcpip", "CLO")]
    _, steady = simulate_cold_and_steady(walk.packed, warmup_rounds=6)
    assert steady == MachineSimulator().run_steady_state(
        walk.trace, warmup_rounds=6)


@settings(max_examples=200, deadline=None)
@given(config=configs(), segments=SEGMENTS,
       hops=st.lists(HOPS, min_size=1, max_size=8),
       warmup_rounds=st.integers(min_value=1, max_value=6))
def test_convergence_shortcut_is_exact_on_random_geometries(
        config, segments, hops, warmup_rounds):
    # random geometries, store modes and write-buffer depths 1-8: the
    # shortcut's cold and steady counters, every one of them, equal a cold
    # reference run and a reference steady state on fresh machines
    for segment in segments + hops:
        entries = segment.entries()
        cold, steady = cold_and_steady_memory(
            segment, config, warmup_rounds=warmup_rounds)
        assert cold == MachineSimulator(config).run(entries).memory
        assert steady == MachineSimulator(config).run_steady_state(
            entries, warmup_rounds=warmup_rounds).memory


def test_warm_up_evolves_state_like_reference(walks):
    walk = walks[("rpc", "STD")]
    ref = MachineSimulator()
    ref.warm_up(walk.trace)
    fast = FastMachine()
    fast.warm_up(walk.packed)
    assert fast.run(walk.packed) == ref.run(walk.trace)


def test_cpu_pass_matches_cpu_model(walks):
    walk = walks[("tcpip", "STD")]
    assert cpu_pass(walk.packed) == CpuModel().run(walk.trace)


def test_cpu_pass_is_shared_by_a_template_and_its_rebinds():
    # the pass reads only ops/flags, which a rebind shares with its
    # template: one result per config, handed out as fresh copies
    exp = Experiment("rpc", "ALL")
    build = build_configured_program_cached("rpc", "ALL")
    events, data_env = exp.capture_roundtrip(42)
    template = FastWalker(build.program, data_env).walk(events)
    events, _ = exp.capture_roundtrip(59)
    rebound = FastWalker(build.program, data_env).walk(events)
    assert rebound.packed._shared is template.packed._shared

    first = cpu_pass(template.packed)
    second = cpu_pass(rebound.packed)
    expected = CpuModel().run(rebound.trace)
    assert first == second == expected
    assert first is not second
    first.cycles += 1000
    second.multiplies = -1
    assert cpu_pass(template.packed) == cpu_pass(rebound.packed) == expected

    other = CpuConfig(taken_branch_penalty=0)
    assert cpu_pass(rebound.packed, other) == CpuModel(other).run(rebound.trace)
    assert cpu_pass(rebound.packed, other) != expected


def test_accepts_entry_sequences(walks):
    # the MachineSimulator-compatible API packs plain entry lists itself
    entries = walks[("tcpip", "OUT")].trace
    assert FastMachine().run(list(entries)) == MachineSimulator().run(entries)


def test_fetch_runs_and_data_blocks_cover_the_trace(walks):
    packed = walks[("tcpip", "ALL")].packed
    block_size, i_n = 32, 256
    run_blks, run_idxs, dcounts = fetch_runs(packed, block_size, i_n)
    assert len(run_blks) == len(run_idxs) == len(dcounts)
    # runs partition the fetch stream: block boundaries exactly where the
    # pc column changes blocks
    flat = []
    for blk, cnt in zip(run_blks, dcounts):
        flat.append(blk)
    expect = []
    prev = None
    for pc in packed.pcs:
        blk = pc // block_size
        if blk != prev:
            expect.append(blk)
            prev = blk
    assert flat == expect
    assert [b % i_n for b in run_blks] == list(run_idxs)
    # per-run memory counts sum to the dense data column's length
    dblks = data_blocks(packed, block_size)
    assert sum(dcounts) == len(dblks)
    assert sum(dcounts) == sum(1 for c in packed.ops if IS_MEMORY[c])


def test_fetch_runs_cached_per_trace(walks):
    packed = walks[("rpc", "ALL")].packed
    first = fetch_runs(packed, 32, 256)
    assert fetch_runs(packed, 32, 256) is first
    assert data_blocks(packed, 32) is data_blocks(packed, 32)


def test_result_cache_returns_equal_fresh_copies(walks):
    clear_caches()
    packed = walks[("tcpip", "PIN")].packed
    cold1, steady1 = simulate_cold_and_steady_cached(packed)
    cold2, steady2 = simulate_cold_and_steady_cached(packed)
    assert (cold1, steady1) == (cold2, steady2)
    # cached lookups hand out copies, never the stored object
    assert cold1.memory is not cold2.memory
    assert cold1 == MachineSimulator().run(walks[("tcpip", "PIN")].trace)
    clear_caches()
