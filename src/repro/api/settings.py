"""Run-wide settings, resolved from the environment exactly once.

A run reads three environment variables: ``REPRO_SIM_ENGINE`` (engine
selection), ``REPRO_VERIFY_IR`` (the per-stage IR verifier) and
``REPRO_CHAOS`` (worker sabotage rules, :mod:`repro.faults.chaos`).
:class:`Settings` holds all three in one frozen object:
:meth:`Settings.from_env` is their single reader, resolving and
validating them in one place, and every consumer receives the resolved
object explicitly instead of consulting ``os.environ`` itself.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from repro.faults.chaos import ChaosRule, parse_rules

#: simulation engines: "fast" = packed traces + template walks + fused
#: kernel + result caches (bit-identical results); "reference" = the
#: original object-per-instruction oracle path.  Cross-checking fast
#: against reference is a per-run stride, not an engine
#: (``RunSpec.guard_stride``, see :mod:`repro.faults.guard`).
ENGINES = ("fast", "reference")

ENGINE_ENV = "REPRO_SIM_ENGINE"
VERIFY_IR_ENV = "REPRO_VERIFY_IR"
CHAOS_ENV = "REPRO_CHAOS"


def validate_engine(engine: str) -> str:
    """Fail fast on unknown engines, naming the valid ones."""
    if engine not in ENGINES:
        raise ValueError(
            f"unknown simulation engine {engine!r} "
            f"(from ${ENGINE_ENV} or the engine= argument); "
            f"valid engines: {', '.join(ENGINES)}"
        )
    return engine


@dataclass(frozen=True)
class Settings:
    """Everything a run reads from the environment, resolved up front.

    Construct with :meth:`from_env` (the only reader of the environment)
    or directly for explicit programmatic control; thread the object
    through :mod:`repro.api` entry points, :class:`~repro.harness.
    experiment.Experiment` and the sweep executors.
    """

    #: simulation engine driving every sample
    engine: str = "fast"
    #: run the IR verifier after every build stage of every experiment
    verify_ir: bool = False
    #: parsed chaos-sabotage rules (crash/hang/perturb); empty = none
    chaos: Tuple[ChaosRule, ...] = ()

    def __post_init__(self) -> None:
        validate_engine(self.engine)

    @classmethod
    def from_env(
        cls,
        environ: Optional[Mapping[str, str]] = None,
        *,
        engine: Optional[str] = None,
        verify_ir: Optional[bool] = None,
    ) -> "Settings":
        """Resolve settings from ``environ`` (default: ``os.environ``).

        Explicit keyword arguments beat the environment; the environment
        beats the defaults.
        """
        env = os.environ if environ is None else environ
        if engine is None:
            engine = env.get(ENGINE_ENV, "fast")
        if verify_ir is None:
            verify_ir = env.get(VERIFY_IR_ENV, "") == "1"
        spec = env.get(CHAOS_ENV, "")
        chaos = tuple(parse_rules(spec)) if spec else ()
        return cls(engine=engine, verify_ir=verify_ir, chaos=chaos)

    def with_engine(self, engine: Optional[str]) -> "Settings":
        """Copy with an explicit engine override (``None`` keeps mine)."""
        if engine is None or engine == self.engine:
            return self
        return dataclasses.replace(self, engine=validate_engine(engine))

    def with_verify_ir(self, verify_ir: Optional[bool]) -> "Settings":
        """Copy with an explicit verifier override (``None`` keeps mine)."""
        if verify_ir is None or verify_ir == self.verify_ir:
            return self
        return dataclasses.replace(self, verify_ir=verify_ir)
