"""The observability layer's core contract.

The attribution invariant: for every (stack, config) cell of the Table-4
sweep, the sum of attributed stall cycles equals the engine's reported
stall total *exactly*, on both engines, cold and steady.  On top of that:
the two engines log identical decisions and so produce identical bucket
decompositions, an attached sink never changes the simulated numbers,
reports aggregate consistently, and the JSON form round-trips.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.fastsim import FastMachine
from repro.arch.isa import Op
from repro.arch.packed import OP_CODES, PackedTrace
from repro.arch.simulator import AlphaConfig, MachineSimulator
from repro.core.ir import FunctionBuilder
from repro.core.program import Program
from repro.core.walker import Walker
from repro.datalayout import DATA_TECHNIQUES
from repro.harness.configs import CONFIG_NAMES, build_configured_program_cached
from repro.harness.experiment import Experiment
from repro.harness.profile import profile_cell
from repro.obs import (
    Attribution,
    AttributionMismatch,
    AttributionReport,
    ConflictMatrix,
    layer_of,
    static_overlap,
)
from tests.arch.test_state_tokens import SEGMENTS, configs

CELLS = [(stack, config) for stack in ("tcpip", "rpc") for config in CONFIG_NAMES]

class LoggingSink(Attribution):
    """An :class:`Attribution` that keeps every pass's decision log."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.logs = []

    def observe_pass(self, trace, log, *, measure):
        self.logs.append(list(log))
        return super().observe_pass(trace, log, measure=measure)


@pytest.fixture(scope="module")
def walks():
    """One real walked roundtrip per (stack, config) cell."""
    out = {}
    for stack, config in CELLS:
        exp = Experiment(stack, config)
        events, data_env = exp.capture_roundtrip(42)
        build = build_configured_program_cached(stack, config)
        out[(stack, config)] = (
            build,
            Walker(build.program, data_env).walk(events),
        )
    return out


def _attributed_run(machine, trace, sink):
    """cold report, steady report, cold result, steady result."""
    cold_result = machine.run(trace)
    cold = sink.harvest("cold")
    machine.warm_up(trace)
    steady_result = machine.run(trace)
    steady = sink.harvest("steady")
    return cold, steady, cold_result, steady_result


@pytest.mark.parametrize("stack,config", CELLS)
def test_invariant_fast_engine(walks, stack, config):
    build, walk = walks[(stack, config)]
    sink = Attribution(build.program)
    cold, steady, cold_result, steady_result = _attributed_run(
        FastMachine(sink=sink), walk.packed, sink
    )
    # the machines verify each measured pass; re-check the harvested sums
    cold.verify_total(cold_result.memory.stall_cycles)
    steady.verify_total(steady_result.memory.stall_cycles)
    assert cold.total_stall_cycles > 0
    assert steady.total_instructions == len(walk.packed)


@pytest.mark.parametrize("stack,config", CELLS)
def test_invariant_reference_engine(walks, stack, config):
    build, walk = walks[(stack, config)]
    sink = Attribution(build.program)
    cold, steady, cold_result, steady_result = _attributed_run(
        MachineSimulator(sink=sink), walk.trace, sink
    )
    cold.verify_total(cold_result.memory.stall_cycles)
    steady.verify_total(steady_result.memory.stall_cycles)


@pytest.mark.parametrize("stack", ["tcpip", "rpc"])
def test_engines_attribute_identically(walks, stack):
    """Both engines log the same decisions on every pass (cold, warm-up,
    steady) of every cell under every store mode, so the full bucket
    decomposition — not just the totals — must agree."""
    for config in CONFIG_NAMES:
        build, walk = walks[(stack, config)]
        # the four store modes: buffered, coalescing, streaming, both
        for mode in ("baseline", "coalesce", "stream", "all"):
            machine_cfg = AlphaConfig(memory=DATA_TECHNIQUES[mode].memory())
            fast_sink = LoggingSink(build.program, config=machine_cfg)
            ref_sink = LoggingSink(build.program, config=machine_cfg)
            f_cold, f_steady, _, _ = _attributed_run(
                FastMachine(machine_cfg, sink=fast_sink), walk.packed, fast_sink
            )
            r_cold, r_steady, _, _ = _attributed_run(
                MachineSimulator(machine_cfg, sink=ref_sink), walk.trace, ref_sink
            )
            where = f"{stack}/{config}/{mode}"
            assert len(fast_sink.logs) == 3, where
            for label, f_log, r_log in zip(
                ("cold", "warm-up", "steady"), fast_sink.logs, ref_sink.logs
            ):
                assert f_log == r_log, f"{where} {label}"
            assert f_cold.buckets == r_cold.buckets, where
            assert f_steady.buckets == r_steady.buckets, where
            assert f_steady.conflicts.counts == r_steady.conflicts.counts, where


#: a pass plan: (segment index, measured rather than a warm-up) per pass
PLANS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=63), st.booleans()),
    min_size=1,
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(config=configs(), segments=SEGMENTS, plan=PLANS)
def test_engines_log_identically_on_random_plans(config, segments, plan):
    """On random geometries, store modes and write-buffer depths, over a
    random plan of measured and warm-up passes on several segments, both
    engines log the same decisions on every pass, their reports agree,
    each report's total is the engine's stall delta, and each engine's
    counts price its report's write-buffer and d-cache stalls."""
    fast_sink = LoggingSink(config=config)
    ref_sink = LoggingSink(config=config)
    fast = FastMachine(config, sink=fast_sink)
    ref = MachineSimulator(config, sink=ref_sink)
    entries = [segment.entries() for segment in segments]
    for step, (index, measured) in enumerate(plan):
        k = index % len(segments)
        if not measured:
            fast.warm_up(segments[k])
            ref.warm_up(entries[k])
            assert fast_sink.logs[-1] == ref_sink.logs[-1], f"warm-up {step}"
            continue
        f_mem = fast.run(segments[k]).memory
        r_mem = ref.run(entries[k]).memory
        assert fast_sink.logs[-1] == ref_sink.logs[-1], f"measured pass {step}"
        f_report, r_report = fast_sink.harvest(), ref_sink.harvest()
        assert f_report.to_json() == r_report.to_json(), f"measured pass {step}"
        assert f_report.total_stall_cycles == f_mem.stall_cycles
        assert r_report.total_stall_cycles == r_mem.stall_cycles
        for report, mem in ((f_report, f_mem), (r_report, r_mem)):
            by_cache = report.by_cache()
            assert mem.write_buffer_stalls(config.memory) == by_cache["write-buffer"]
            assert mem.dcache_stalls(config.memory) == by_cache["dcache"]


@pytest.mark.parametrize("stack", ["tcpip", "rpc"])
def test_sink_does_not_change_results(walks, stack):
    build, walk = walks[(stack, "ALL")]
    sink = Attribution(build.program)
    plain = FastMachine()
    observed = FastMachine(sink=sink)
    assert observed.run(walk.packed) == plain.run(walk.packed)
    plain.warm_up(walk.packed)
    observed.warm_up(walk.packed)
    assert observed.run(walk.packed) == plain.run(walk.packed)


def test_cold_pass_contains_cold_misses(walks):
    """The first pass of a fresh hierarchy sees every block's first touch
    (plus any same-pass re-misses, which classify as conflict/capacity)."""
    build, walk = walks[("tcpip", "STD")]
    sink = Attribution(build.program)
    FastMachine(sink=sink).run(walk.packed)
    cold = sink.harvest("cold")
    cold_cycles = sum(
        b.stall_cycles
        for (_l, _f, _c, kind), b in cold.buckets.items()
        if kind == "cold"
    )
    assert cold_cycles > 0
    # first touches dominate a cold pass
    assert cold_cycles > cold.total_stall_cycles / 2


def test_steady_pass_has_no_cold_misses(walks):
    build, walk = walks[("tcpip", "STD")]
    sink = Attribution(build.program)
    machine = FastMachine(sink=sink)
    machine.run(walk.packed)
    sink.harvest("cold")
    machine.warm_up(walk.packed)
    machine.run(walk.packed)
    steady = sink.harvest("steady")
    assert not any(kind == "cold" for (_l, _f, _c, kind) in steady.buckets)


def test_aggregations_are_consistent(walks):
    build, walk = walks[("rpc", "STD")]
    sink = Attribution(build.program)
    machine = FastMachine(sink=sink)
    machine.run_steady_state(walk.packed)
    report = sink.harvest("steady")
    total = report.total_stall_cycles
    assert sum(r["stall_cycles"] for r in report.by_layer().values()) == total
    assert sum(r["stall_cycles"] for r in report.by_function().values()) == total
    assert sum(report.by_cache().values()) == total
    assert sum(report.instructions.values()) == report.total_instructions


def test_a_fetch_run_charges_each_access_to_its_issuer():
    """Functions are 4-byte aligned, not block aligned, so one fetch run
    can cross into the next function: the run's fetch is charged to its
    first instruction's function, each data access to its own."""
    program = Program()
    for name in ("f", "g"):
        fb = FunctionBuilder(name, saves=0)
        fb.block("entry").alu(1)
        fb.ret()
        program.add(fb.build())
    # f spans [+16, +48) and g starts at +48: mid-block, right after f
    program.layout(lambda prog: {"f": prog.text_base + 16, "g": prog.text_base + 48})
    g = program.address_of("g")
    trace = PackedTrace()
    trace.append(g - 8, OP_CODES[Op.ALU])
    trace.append(g - 4, OP_CODES[Op.ALU])
    trace.append(g, OP_CODES[Op.LOAD], daddr=0x8000)
    for machine, run_trace in (
        (FastMachine, trace),
        (MachineSimulator, trace.entries()),
    ):
        sink = Attribution(program)
        machine(sink=sink).run(run_trace)
        report = sink.harvest()
        assert {(fn, cache) for (_l, fn, cache, _k) in report.buckets} == {
            ("f", "icache"),
            ("f", "bcache"),
            ("g", "dcache"),
            ("g", "bcache"),
        }, machine.__name__
        assert report.instructions == {"f": 2, "g": 1}, machine.__name__


def test_desynced_sink_raises_mismatch(walks):
    """A decision log the trace cannot account for is detected at the
    measured run that hands it over — the invariant is enforced, not
    assumed.  A dropped record loses its stall cycles, which the engine's
    cycle-sum check names; a record whose block was altered matches no
    access, and the sink names that decision."""
    build, walk = walks[("tcpip", "STD")]

    def warm_machine(edit):
        """A machine one cold pass in whose sink sees ``edit(log)``."""
        sink = Attribution(build.program)
        machine = FastMachine(sink=sink)
        machine.run(walk.packed)
        observe = sink.observe_pass
        sink.observe_pass = lambda trace, log, *, measure: observe(
            trace, edit(list(log)), measure=measure
        )
        return machine

    def drop(log):
        # a fetch decision: every i-cache miss stalls
        log.remove(next(r for r in log if r[0] == "fetch"))
        return log

    with pytest.raises(AttributionMismatch, match="the fast engine measured"):
        warm_machine(drop).run(walk.packed)

    altered = []

    def alter(log):
        kind, block, *rest = log[0]
        log[0] = (kind, block + (1 << 40), *rest)
        altered.append(f"its {kind} decision on block {block + (1 << 40)}")
        return log

    with pytest.raises(AttributionMismatch) as raised:
        warm_machine(alter).run(walk.packed)
    assert altered[0] in str(raised.value)


def test_report_json_roundtrip(walks):
    build, walk = walks[("rpc", "ALL")]
    sink = Attribution(build.program)
    machine = FastMachine(sink=sink)
    machine.run_steady_state(walk.packed)
    report = sink.harvest("steady")
    back = AttributionReport.from_json(report.to_json())
    assert back.buckets == report.buckets
    assert back.instructions == report.instructions
    assert back.total_stall_cycles == report.total_stall_cycles
    assert back.conflicts.counts == report.conflicts.counts
    assert back.conflicts.sets == report.conflicts.sets


def test_profile_cell_matches_experiment(walks):
    """The harness-level entry point reproduces the unprofiled numbers."""
    cell = profile_cell("tcpip", "STD", engine="fast")
    exp = Experiment("tcpip", "STD", engine="fast")
    build = build_configured_program_cached("tcpip", "STD", exp.opts)
    sample = exp.run_sample(build, seed=42)
    assert cell.steady_result.memory.stall_cycles == sample.steady.memory.stall_cycles
    assert cell.cold_result.memory.stall_cycles == sample.cold.memory.stall_cycles
    assert cell.invocations  # the traced roundtrip entered functions


class TestLayerMapping:
    def test_prefixes(self):
        assert layer_of("tcp_push") == "tcp"
        assert layer_of("ip_demux") == "ip"
        assert layer_of("lance_transmit") == "lance"
        assert layer_of("vchan_call") == "vchan"
        assert layer_of("chan_resume") == "chan"

    def test_app_before_tcp(self):
        assert layer_of("tcptest_call") == "app"
        assert layer_of("xrpctest_call") == "app"

    def test_clones_attribute_to_original_layer(self):
        assert layer_of("tcp_push@clone") == "tcp"
        assert layer_of("in_cksum@clone") == "library"

    def test_library(self):
        assert layer_of("in_cksum") == "library"
        assert layer_of("bcopy") == "library"

    def test_merged_paths(self):
        assert layer_of("tcpip_output_path") == "path"
        assert layer_of("rpc_input_path") == "path"

    def test_unknown(self):
        assert layer_of("(unattributed)") == "(unknown)"
        assert layer_of("tcpdump") == "(unknown)"  # no '_' boundary match


class TestConflictMatrix:
    def test_record_and_top_pairs(self):
        m = ConflictMatrix()
        m.record("a", "b", 3)
        m.record("a", "b", 4)
        m.record("b", "a", 3)
        m.record("c", "c", 9)
        assert m.total_evictions == 4
        assert m.self_evictions() == 1
        top = m.top_pairs(1)
        assert top == [("a", "b", 2, 2)]

    def test_json_roundtrip(self):
        m = ConflictMatrix()
        m.record("x", "y", 1)
        m.record("x", "y", 2)
        back = ConflictMatrix.from_json(m.to_json())
        assert back.counts == m.counts
        assert back.sets == m.sets

    def test_static_overlap_flags_aliasing_pairs(self, walks):
        build, _walk = walks[("tcpip", "BAD")]
        overlaps = static_overlap(build.program)
        # the pessimal layout aliases hot functions on purpose
        assert overlaps
        for (a, b), shared in overlaps.items():
            assert a < b
            assert shared > 0

    def test_dynamic_conflicts_imply_static_overlap(self, walks):
        """Every dynamically observed eviction pair must also alias
        statically (distinct functions cannot fight over a set their
        extents do not share)."""
        build, walk = walks[("tcpip", "BAD")]
        sink = Attribution(build.program)
        machine = FastMachine(sink=sink)
        machine.run_steady_state(walk.packed)
        report = sink.harvest("steady")
        overlaps = static_overlap(build.program)
        for evictor, victim in report.conflicts.counts:
            if evictor == victim:
                continue
            if "(unattributed)" in (evictor, victim):
                continue
            key = tuple(sorted((evictor, victim)))
            assert key in overlaps, (evictor, victim)
