"""Engine guarding: detect fast/reference divergence mid-sweep.

The fast engine is kept bit-identical to the reference simulator by a
large differential test surface — but tests only cover the streams they
run.  A run's ``guard_stride`` closes the gap for production sweeps: the
fast path drives the run and every stride-th sample replays the same
events through the reference walker and simulator.  Agreement costs one extra
simulation; disagreement produces a :class:`DivergenceReport` and the
experiment degrades to the reference engine for the remainder of the
sweep, so a fast-engine bug costs throughput instead of correctness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.arch.simulator import SimResult


@dataclass(frozen=True)
class DivergenceReport:
    """One detected fast/reference disagreement on one sample."""

    stack: str
    config: str
    seed: int
    #: (metric, fast value, reference value) for every differing headline
    mismatches: Tuple[Tuple[str, float, float], ...]

    def render(self) -> str:
        lines = [
            f"engine divergence: {self.stack} {self.config}, seed {self.seed}"
        ]
        for metric, fast, ref in self.mismatches:
            lines.append(f"  {metric}: fast={fast:g} reference={ref:g}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "stack": self.stack,
            "config": self.config,
            "seed": self.seed,
            "mismatches": [
                {"metric": metric, "fast": fast, "reference": ref}
                for metric, fast, ref in self.mismatches
            ],
        }


class EngineDivergence(RuntimeError):
    """Raised (``on_divergence="raise"``) when the cross-check trips."""

    def __init__(self, report: DivergenceReport) -> None:
        super().__init__(report.render())
        self.report = report


def compare_results(
    fast: Tuple[SimResult, SimResult], reference: Tuple[SimResult, SimResult]
) -> Tuple[Tuple[str, float, float], ...]:
    """Headline metric mismatches between (cold, steady) result pairs.

    Empty means bit-identical.  A disagreement confined to a non-headline
    counter (some per-cache statistic) is still reported, under the
    ``<phase>.state`` pseudo-metric, so no divergence can hide.
    """
    mismatches = []
    for phase, f, r in (
        ("cold", fast[0], reference[0]),
        ("steady", fast[1], reference[1]),
    ):
        found = False
        for metric, fv, rv in (
            ("instructions", f.instructions, r.instructions),
            ("cpu_cycles", f.cpu.cycles, r.cpu.cycles),
            ("stall_cycles", f.memory.stall_cycles, r.memory.stall_cycles),
        ):
            if fv != rv:
                mismatches.append((f"{phase}.{metric}", float(fv), float(rv)))
                found = True
        if not found and (f.cpu != r.cpu or f.memory != r.memory):
            mismatches.append((f"{phase}.state", 0.0, 1.0))
    return tuple(mismatches)
