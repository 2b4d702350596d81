"""Fault injection and resilience (see :mod:`repro.faults.plan`).

Three layers share this package:

* **workload faults** — :class:`FaultPlan` steers walks down the
  predicted-unlikely branches that outlining moved out of line, so the
  harness can price the paper's cold-path bet when it fails;
* **harness chaos** — :mod:`repro.faults.chaos` makes sweep workers
  crash/hang on demand so the self-healing sweep machinery stays honest;
* **engine guarding** — :mod:`repro.faults.guard` detects fast/reference
  divergence on runs with a ``guard_stride``.
"""

from repro.faults.chaos import ChaosCrash, ChaosRule, ChaosSpecError, parse_rules
from repro.faults.guard import DivergenceReport, EngineDivergence, compare_results
from repro.faults.plan import (
    FAULT_KINDS,
    FaultPlan,
    FaultPoint,
    FaultSpan,
    InjectedFault,
    fault_points,
    fault_spans,
)

__all__ = [
    "FAULT_KINDS",
    "ChaosCrash",
    "ChaosRule",
    "ChaosSpecError",
    "DivergenceReport",
    "EngineDivergence",
    "FaultPlan",
    "FaultPoint",
    "FaultSpan",
    "InjectedFault",
    "compare_results",
    "fault_points",
    "fault_spans",
    "parse_rules",
]
