"""IR verifier: clean builds report nothing, every corruption class is caught.

The corruption-injection half mirrors mutation testing: a seeded-random
mutator breaks a known-good program in one of the documented ways and the
verifier must report the matching finding kind — evidence the checks are
live, not vacuously green.
"""

import random

import pytest

from repro.analysis.verify import (
    ALIAS_CYCLE,
    BAD_MEMORY_OP,
    DANGLING_TARGET,
    DUPLICATE_LABEL,
    LAYOUT_OVERLAP,
    MISSING_CALLEE,
    NO_BLOCKS,
    STATIC_RECURSION,
    UNPAIRED_INLINE,
    UNREACHABLE_BLOCK,
    UNTERMINATED,
    VerificationError,
    assert_well_formed,
    verify_function,
    verify_program,
)
from repro.arch.isa import Op
from repro.core.ir import (
    BasicBlock,
    CallStatic,
    DataRef,
    Function,
    FunctionBuilder,
    InlineExit,
    Instruction,
    Jump,
)
from repro.core.program import Program
from repro.harness.configs import CONFIG_NAMES, build_configured_program


def _forge_instruction(op, dref):
    """Build an Instruction that violates the memory-op invariant.

    The dataclass is frozen and ``__post_init__`` enforces the invariant,
    so corruption goes through ``object.__setattr__`` — the same way a
    buggy C extension or pickle round-trip could smuggle one in.
    """
    ins = Instruction.__new__(Instruction)
    object.__setattr__(ins, "op", op)
    object.__setattr__(ins, "dref", dref)
    return ins


def _small_program():
    p = Program()
    for name, callee in (("leaf", None), ("caller", "leaf")):
        fb = FunctionBuilder(name, saves=1)
        fb.block("a").alu(2).load("heap")
        fb.branch("c", "b", "d", predict=True)
        fb.block("b").alu(1)
        if callee:
            fb.call(callee, "d")
        fb.block("d").store("heap")
        fb.ret()
        p.add(fb.build())
    return p


class TestCleanPrograms:
    def test_small_program_clean(self):
        assert verify_program(_small_program()) == []

    def test_assert_well_formed_passes(self):
        assert_well_formed(_small_program())

    @pytest.mark.parametrize("stack", ["tcpip", "rpc"])
    @pytest.mark.parametrize("config", CONFIG_NAMES)
    def test_every_build_stage_clean(self, stack, config):
        """The verifier reports zero findings after every pipeline stage
        of every (stack, config) cell — the tentpole guarantee."""
        stages = []

        def hook(stage, build):
            stages.append(stage)
            assert verify_program(build.program) == [], (stack, config, stage)

        build_configured_program(stack, config, stage_hook=hook)
        assert stages[0] == "models" and stages[-1] == "layout"


# --------------------------------------------------------------------------- #
# the corruption mutator                                                      #
# --------------------------------------------------------------------------- #


def _blocks_of(program):
    return [
        (fn, blk) for fn in program.functions() for blk in fn.blocks
    ]


def corrupt(program, kind, rng):
    """Break ``program`` in one documented way; returns the expected kind."""
    if kind == DANGLING_TARGET:
        fn, blk = rng.choice([
            (f, b) for f, b in _blocks_of(program)
            if isinstance(b.terminator, Jump)
        ] or [_blocks_of(program)[0]])
        if isinstance(blk.terminator, Jump):
            blk.terminator.target = "nowhere$corrupted"
        else:
            blk.terminator = Jump("nowhere$corrupted")
        return DANGLING_TARGET
    if kind == DUPLICATE_LABEL:
        fn = rng.choice([f for f in program.functions() if len(f.blocks) >= 2])
        fn.blocks[-1].label = fn.blocks[0].label
        return DUPLICATE_LABEL
    if kind == UNPAIRED_INLINE:
        fn = rng.choice(program.functions())
        other = rng.choice(program.names())
        entry = fn.entry
        fn.blocks.insert(
            1, BasicBlock(label="corrupt$exit",
                          terminator=InlineExit(callee=other, next=entry))
        )
        fn.blocks[0].terminator = Jump("corrupt$exit")
        return UNPAIRED_INLINE
    if kind == MISSING_CALLEE:
        sites = [
            (f, b) for f, b in _blocks_of(program)
            if isinstance(b.terminator, CallStatic)
        ]
        if sites:
            _fn, blk = rng.choice(sites)
            blk.terminator.callee = "ghost$function"
        else:
            fn = rng.choice(program.functions())
            last = fn.blocks[-1]
            last.terminator = CallStatic("ghost$function", fn.entry)
        return MISSING_CALLEE
    if kind == BAD_MEMORY_OP:
        candidates = [(f, b) for f, b in _blocks_of(program) if b.instructions]
        _fn, blk = rng.choice(candidates)
        blk.instructions[0] = _forge_instruction(Op.ALU, DataRef("heap"))
        return BAD_MEMORY_OP
    raise AssertionError(kind)


CORRUPTION_KINDS = (
    DANGLING_TARGET, DUPLICATE_LABEL, UNPAIRED_INLINE, MISSING_CALLEE,
    BAD_MEMORY_OP,
)


class TestCorruptionInjection:
    @pytest.mark.parametrize("kind", CORRUPTION_KINDS)
    def test_each_kind_detected_on_small_program(self, kind):
        rng = random.Random(1234)
        p = _small_program()
        expected = corrupt(p, kind, rng)
        kinds = {f.kind for f in verify_program(p)}
        assert expected in kinds

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_sweep_over_real_builds(self, seed):
        """Random (cell, corruption) pairs against the real pipeline
        output: whatever the mutator breaks, the verifier names."""
        rng = random.Random(1000 + seed)
        stack = rng.choice(["tcpip", "rpc"])
        config = rng.choice(list(CONFIG_NAMES))
        build = build_configured_program(stack, config)
        kind = rng.choice(CORRUPTION_KINDS)
        expected = corrupt(build.program, kind, rng)
        kinds = {f.kind for f in verify_program(build.program)}
        assert expected in kinds, (stack, config, kind, kinds)

    def test_assert_well_formed_raises_with_findings(self):
        p = _small_program()
        corrupt(p, DANGLING_TARGET, random.Random(7))
        with pytest.raises(VerificationError) as exc:
            assert_well_formed(p, stage="outline")
        assert exc.value.stage == "outline"
        assert any(f.kind == DANGLING_TARGET for f in exc.value.findings)
        assert "outline" in str(exc.value)


class TestStructuralChecks:
    def test_no_blocks(self):
        findings = verify_function(Function(name="empty"))
        assert [f.kind for f in findings] == [NO_BLOCKS]

    def test_unterminated_block(self):
        fn = Function(name="f", blocks=[BasicBlock(label="a")])
        assert UNTERMINATED in {f.kind for f in verify_function(fn)}

    def test_unreachable_block(self):
        fb = FunctionBuilder("f")
        fb.block("a").alu(1)
        fb.ret()
        fb.block("orphan").alu(1)
        fb.ret()
        fn = fb.build()
        findings = verify_function(fn)
        assert {f.kind for f in findings} == {UNREACHABLE_BLOCK}
        assert findings[0].block == "orphan"

    def test_inline_scope_mismatch_across_paths(self):
        """A join reachable with different inline-scope stacks would
        desynchronize the walker's frame stack."""
        from repro.core.ir import CondBranch, InlineEnter

        fb = FunctionBuilder("g")
        fb.block("a").alu(1)
        fb.ret()
        g = fb.build()
        fb = FunctionBuilder("f")
        fb.block("a").alu(1)
        fb.block("join").alu(1)
        fb.ret()
        fn = fb.build()
        fn.blocks[0].terminator = CondBranch("c", "enterer", "join")
        fn.blocks.append(
            BasicBlock(label="enterer",
                       terminator=InlineEnter(callee="g", next="join"))
        )
        p = Program()
        p.add(g)
        p.add(fn)
        kinds = {f.kind for f in verify_program(p)}
        assert "inline-mismatch" in kinds or UNPAIRED_INLINE in kinds

    def test_static_recursion(self):
        p = Program()
        for name, callee in (("a", "b"), ("b", "a")):
            fb = FunctionBuilder(name)
            fb.block("x").alu(1)
            fb.call(callee, "done")
            fb.block("done").alu(1)
            fb.ret()
            p.add(fb.build())
        assert STATIC_RECURSION in {f.kind for f in verify_program(p)}

    def test_alias_cycle(self):
        p = _small_program()
        p.alias_entry("x", "y")
        p.alias_entry("y", "x")
        assert ALIAS_CYCLE in {f.kind for f in verify_program(p)}

    def test_alias_to_missing_function(self):
        p = _small_program()
        p.alias_entry("leaf", "ghost$clone")
        assert MISSING_CALLEE in {f.kind for f in verify_program(p)}

    def test_layout_overlap(self):
        p = _small_program()
        p.layout(lambda prog: {name: prog.text_base for name in prog.names()})
        assert LAYOUT_OVERLAP in {f.kind for f in verify_program(p)}


class TestVerifyIrHook:
    def test_experiment_build_verifies_under_env(self, monkeypatch):
        """REPRO_VERIFY_IR=1 routes experiment builds through the
        stage-hooked builder with the verifier attached."""
        from repro.api.settings import Settings
        from repro.harness.experiment import Experiment

        monkeypatch.setenv("REPRO_VERIFY_IR", "1")
        assert Settings.from_env().verify_ir
        result = Experiment("tcpip", "OUT").run(samples=1)
        assert result.samples[0].trace_length > 0

    def test_pooled_sweep_runs_the_verifier(self, monkeypatch, tmp_path):
        """Every pool worker builds through Experiment, so Settings'
        verify_ir reaches the workers exactly as it reaches a serial run."""
        import os

        from repro import api
        from repro.analysis import verify
        from repro.api.settings import Settings
        from repro.harness.parallel import SweepReport

        log = tmp_path / "verified"
        real = verify.assert_well_formed

        def logged(program, *, stage=""):
            with open(log, "a") as fh:  # forked workers append their pid
                fh.write(f"{os.getpid()}\n")
            real(program, stage=stage)

        monkeypatch.setattr(verify, "assert_well_formed", logged)
        specs = [api.RunSpec("tcpip", c, samples=1) for c in ("STD", "OUT")]

        def verifier_pids(parallel):
            log.write_text("")
            report = SweepReport()
            api.sweep(
                api.SweepSpec(specs, parallel=parallel, max_workers=2),
                settings=Settings(verify_ir=True),
                report=report,
            )
            if parallel and report.degraded_to_serial:  # pragma: no cover
                pytest.skip("process pool unavailable")
            return log.read_text().split()

        me = str(os.getpid())
        serial = verifier_pids(False)
        assert serial and set(serial) == {me}
        in_workers = [pid for pid in verifier_pids(True) if pid != me]
        assert len(in_workers) == len(serial)

    def test_disabled_by_default(self, monkeypatch):
        from repro.api.settings import Settings

        monkeypatch.delenv("REPRO_VERIFY_IR", raising=False)
        assert not Settings.from_env().verify_ir
