"""Per-function attribution: where the cycles and misses actually go.

The paper reasons about *which code* pays the memory penalties (TCP's big
functions vs RPC's many small ones, library functions evicted between
invocations).  This module makes that reasoning mechanical: it runs a
trace through an engine with an :class:`repro.obs.Attribution` sink
attached, which classifies the engine's own decision log, and reports
every stall cycle, miss and instruction against the function that owns
the address — the profile a developer would want before choosing which
technique to apply where.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.arch.fastsim import FastMachine, Traceable
from repro.arch.simulator import AlphaConfig, MachineSimulator, SimResult
from repro.core.program import Program
from repro.core.walker import WalkResult
from repro.obs import Attribution, AttributionReport, ConflictMatrix, UNATTRIBUTED
from repro.obs.attribution import ICACHE
from repro.trace.tracer import call_counts


@dataclass
class FunctionProfile:
    """One function's share of a simulated run."""

    name: str
    instructions: int = 0
    stall_cycles: int = 0
    icache_misses: int = 0

    @property
    def mcpi(self) -> float:
        if not self.instructions:
            return 0.0
        return self.stall_cycles / self.instructions


@dataclass
class ProfileReport:
    """A complete per-function breakdown of one trace."""

    functions: Dict[str, FunctionProfile] = field(default_factory=dict)
    unattributed_instructions: int = 0

    def top(self, n: int = 10, *, by: str = "stall_cycles"
            ) -> List[FunctionProfile]:
        return sorted(self.functions.values(),
                      key=lambda p: getattr(p, by), reverse=True)[:n]

    @property
    def total_stall_cycles(self) -> int:
        return sum(p.stall_cycles for p in self.functions.values())

    def render(self, n: int = 12) -> str:
        lines = [f"{'function':34s} {'instr':>7s} {'stalls':>8s} "
                 f"{'i-miss':>7s} {'mCPI':>6s}"]
        lines.insert(0, "-" * 68)
        lines.insert(0, "Per-function memory-stall profile")
        for p in self.top(n):
            lines.append(
                f"{p.name[:34]:34s} {p.instructions:7d} "
                f"{p.stall_cycles:8d} {p.icache_misses:7d} {p.mcpi:6.2f}"
            )
        return "\n".join(lines)


def profile_trace(
    trace: Traceable,
    program: Program,
    *,
    config: Optional[AlphaConfig] = None,
    warmup_rounds: int = 2,
) -> ProfileReport:
    """Attribute a steady-state run's stalls to the owning functions: an
    attributed fast-engine pass after ``warmup_rounds`` warm-ups."""
    cfg = config or AlphaConfig()
    sink = Attribution(program, config=cfg)
    FastMachine(cfg, sink=sink).run_steady_state(trace, warmup_rounds=warmup_rounds)
    attributed = sink.harvest("steady")
    report = ProfileReport()
    for name, count in attributed.instructions.items():
        if name == UNATTRIBUTED:
            report.unattributed_instructions = count
        else:
            report.functions[name] = FunctionProfile(name, count)
    for (_layer, name, cache, _kind), bucket in attributed.buckets.items():
        prof = report.functions.get(name)
        if prof is not None:
            prof.stall_cycles += bucket.stall_cycles
            if cache == ICACHE:
                # exactly one i-cache charge per i-cache miss
                prof.icache_misses += bucket.events
    return report


# --------------------------------------------------------------------------- #
# experiment-level attribution (repro.obs)                                    #
# --------------------------------------------------------------------------- #


@dataclass
class CellProfile:
    """Full stall attribution for one (stack, config) cell.

    Produced by :func:`profile_cell`: one traced roundtrip, simulated cold
    and steady with an :class:`repro.obs.Attribution` sink attached, plus
    the per-function invocation counts from the captured event stream.
    """

    stack: str
    config: str
    engine: str
    seed: int
    cold: AttributionReport
    steady: AttributionReport
    cold_result: SimResult
    steady_result: SimResult
    #: invocations per function in the traced roundtrip
    invocations: Dict[str, int] = field(default_factory=dict)

    @property
    def conflicts(self) -> ConflictMatrix:
        """The steady-state eviction matrix (the conflicts that persist)."""
        return self.steady.conflicts

    def to_json(self) -> Dict[str, object]:
        return {
            "stack": self.stack,
            "config": self.config,
            "engine": self.engine,
            "seed": self.seed,
            "cold": self.cold.to_json(),
            "steady": self.steady.to_json(),
            "invocations": dict(sorted(self.invocations.items())),
        }

    def render(self, *, top: int = 12) -> str:
        """The full attribution report (the ``repro profile`` output)."""
        from repro.harness.reporting import (
            render_conflict_matrix,
            render_function_breakdown,
            render_layer_breakdown,
        )

        title = f"{self.stack} {self.config}, {self.engine} engine, steady state"
        return "\n\n".join(
            [
                render_layer_breakdown(self.steady, title=title),
                render_function_breakdown(self.steady, top=top),
                render_conflict_matrix(self.conflicts, top=top),
                f"cold mCPI {self.cold.mcpi:.2f} -> steady mCPI "
                f"{self.steady.mcpi:.2f} over "
                f"{self.steady.total_instructions} instructions "
                f"(attribution verified against the {self.engine} engine)",
            ]
        )

    def check(self) -> List[str]:
        """Attribution totals vs the engine (profile_cell already verified
        them — a surviving mismatch is a construction bug)."""
        out = []
        for label, report, result in (
            ("cold", self.cold, self.cold_result),
            ("steady", self.steady, self.steady_result),
        ):
            if report.total_stall_cycles != result.memory.stall_cycles:
                out.append(
                    f"{self.stack}/{self.config} {label}: attributed "
                    f"{report.total_stall_cycles} != engine "
                    f"{result.memory.stall_cycles}"
                )
        return out


def attribute_passes(
    walk: WalkResult,
    program: Program,
    *,
    engine: str = "fast",
    config: Optional[AlphaConfig] = None,
    warmup_rounds: int = 2,
) -> Tuple[SimResult, AttributionReport, SimResult, AttributionReport]:
    """Run ``walk`` on one attributed machine of ``engine``: a cold
    measured run, ``warmup_rounds - 1`` warm-ups, then a steady measured
    run — the engines' own pass structure, so the results equal an
    unattributed run's.  Returns the cold result and report, then the
    steady result and report."""
    sink = Attribution(program, config=config)
    if engine == "reference":
        machine, trace = MachineSimulator(config, sink=sink), walk.trace
    else:
        machine, trace = FastMachine(config, sink=sink), walk.packed
    cold = machine.run(trace)
    cold_report = sink.harvest("cold")
    for _ in range(warmup_rounds - 1):
        machine.warm_up(trace)
    steady = machine.run(trace)
    return cold, cold_report, steady, sink.harvest("steady")


def profile_cell(
    stack: str,
    config: str,
    *,
    seed: int = 42,
    engine: Optional[str] = None,
    warmup_rounds: int = 2,
) -> CellProfile:
    """Capture, simulate and attribute one (stack, config) cell.

    Runs the standard experiment procedure for a single sample with an
    attribution sink attached: the cold measured pass is harvested as the
    ``cold`` report, ``warmup_rounds - 1`` warm passes advance the sink's
    shadows silently, and the final measured pass is harvested as
    ``steady`` — the same pass structure the engines use, so the simulated
    numbers are identical to an unprofiled run and the attribution
    invariant is checked after every measured pass.
    """
    from repro.harness.experiment import Experiment, walk_events

    exp = Experiment(stack, config, engine=engine)
    program = exp.build().program
    events, data_env = exp.capture_roundtrip(seed)
    walk = walk_events(program, events, data_env, exp.engine)
    cold_result, cold, steady_result, steady = attribute_passes(
        walk, program, engine=exp.engine, warmup_rounds=warmup_rounds
    )

    return CellProfile(
        stack=stack,
        config=config,
        engine=exp.engine,
        seed=seed,
        cold=cold,
        steady=steady,
        cold_result=cold_result,
        steady_result=steady_result,
        invocations=call_counts(events),
    )
