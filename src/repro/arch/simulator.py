"""Top-level machine simulator: CPU issue model + memory hierarchy.

Running a trace produces a :class:`SimResult` containing exactly the
quantities the paper reports in Tables 6 and 7: per-cache Miss/Acc/Repl
counters, the trace length, processing time, and the CPI split into iCPI
(perfect-memory cycles) and mCPI (memory stall cycles).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.arch.cpu import CpuConfig, CpuModel, CpuStats
from repro.arch.isa import TraceEntry
from repro.arch.memory import MemoryConfig, MemoryHierarchy, MemoryStats


@dataclass(frozen=True)
class AlphaConfig:
    """Complete machine description (defaults model the DEC 3000/600)."""

    cpu: CpuConfig = CpuConfig()
    memory: MemoryConfig = MemoryConfig()


@dataclass
class SimResult:
    """Outcome of simulating one instruction trace."""

    cpu: CpuStats
    memory: MemoryStats

    @property
    def instructions(self) -> int:
        return self.cpu.instructions

    @property
    def cycles(self) -> int:
        """Total cycles: perfect-memory issue cycles plus memory stalls."""
        return self.cpu.cycles + self.memory.stall_cycles

    @property
    def icpi(self) -> float:
        return self.cpu.icpi

    @property
    def mcpi(self) -> float:
        if not self.instructions:
            return 0.0
        return self.memory.stall_cycles / self.instructions

    @property
    def cpi(self) -> float:
        if not self.instructions:
            return 0.0
        return self.cycles / self.instructions

    def time_us(self, clock_mhz: float = 175.0) -> float:
        return self.cycles / clock_mhz

    def headline(self) -> dict:
        """The comparison-grade metrics as a plain dict (engine guard,
        JSON reports)."""
        return {
            "instructions": self.instructions,
            "cpu_cycles": self.cpu.cycles,
            "stall_cycles": self.memory.stall_cycles,
            "icpi": self.icpi,
            "mcpi": self.mcpi,
            "time_us": self.time_us(),
        }


class MachineSimulator:
    """Drives traces through the CPU and memory models.

    The memory hierarchy is stateful across calls so that a warm-up run can
    precede the measured run (steady-state measurement, Table 7), while a
    freshly constructed simulator reproduces cold-start cache statistics
    (Table 6).

    An optional ``sink`` (see :class:`repro.obs.Attribution`) receives
    every pass's decision log (see :mod:`repro.arch.memory`): warm-ups
    advance it silently, measured runs are attributed stall cycle by stall
    cycle, and the attributed total is checked against the measured total
    after each run.  With no sink attached nothing is logged.
    """

    def __init__(
        self, config: Optional[AlphaConfig] = None, *, sink=None
    ) -> None:
        self.config = config or AlphaConfig()
        self.cpu = CpuModel(self.config.cpu)
        self.memory = MemoryHierarchy(self.config.memory)
        self.sink = sink

    def run(self, trace: Sequence[TraceEntry]) -> SimResult:
        """Simulate one trace, returning stats for exactly that trace."""
        before = self.memory.stats
        log = self.memory.log = None if self.sink is None else []
        self.memory.run(trace)
        mem = self.memory.stats.delta(before)
        cpu = self.cpu.run(trace)
        if log is not None:
            attributed = self.sink.observe_pass(trace, log, measure=True)
            if attributed != mem.stall_cycles:
                from repro.obs.attribution import AttributionMismatch

                raise AttributionMismatch(
                    f"attributed {attributed} stall cycles for this pass but "
                    f"the reference engine measured {mem.stall_cycles}"
                )
        return SimResult(cpu=cpu, memory=mem)

    def warm_up(self, trace: Iterable[TraceEntry]) -> None:
        """Run a trace purely for its cache side effects."""
        log = self.memory.log = None if self.sink is None else []
        if log is not None:
            trace = list(trace)
        for entry in trace:
            self.memory.step(entry)
        if log is not None:
            self.sink.observe_pass(trace, log, measure=False)

    def run_steady_state(
        self, trace: Sequence[TraceEntry], *, warmup_rounds: int = 2
    ) -> SimResult:
        """Warm the hierarchy with ``warmup_rounds`` repetitions, then measure.

        This mirrors the paper's methodology of measuring processing time on
        a machine that has already served many roundtrips: cold misses are
        absorbed by the warm-up, so the measured run exposes replacement
        behaviour (and, for pessimal layouts, b-cache conflicts).
        """
        for _ in range(warmup_rounds):
            self.warm_up(trace)
        return self.run(trace)

    def reset(self) -> None:
        self.memory.reset()


def simulate_cold(trace: Sequence[TraceEntry], config: Optional[AlphaConfig] = None) -> SimResult:
    """Convenience helper: simulate a single trace against cold caches."""
    return MachineSimulator(config).run(trace)


def simulate_steady(
    trace: Sequence[TraceEntry],
    config: Optional[AlphaConfig] = None,
    *,
    warmup_rounds: int = 2,
) -> SimResult:
    """Convenience helper: steady-state simulation of a repeating trace."""
    return MachineSimulator(config).run_steady_state(trace, warmup_rounds=warmup_rounds)
