"""Harness-level chaos injection: crashing, hanging and lying workers.

The resilience machinery in :mod:`repro.harness.parallel` (retries,
timeouts, serial fallback) and the engine guard's divergence detection
are only trustworthy if they are exercised, so this module provides the
failure half: a deterministic, environment-driven way to make sweep
workers crash, hang, or return perturbed fast-engine results.

Rules are parsed from ``REPRO_CHAOS``, a semicolon-separated list of

``kind:config:seed[:attempts[:duration]]``

where ``kind`` is ``crash`` (raise :class:`ChaosCrash` in the worker),
``hang`` (sleep ``duration`` seconds, default 30), or ``perturb`` (bump
the fast engine's steady stall count by one cycle on guarded runs, so the
guard's cross-check trips).  ``config`` and ``seed`` select the cell (``*``
matches any); ``attempts`` bounds how many dispatch attempts of that cell
are sabotaged (default 1 — the first attempt fails, the retry succeeds,
which is exactly the self-healing path CI wants to see).

``crash``/``hang`` rules fire only inside pool worker processes (the pool
initializer calls :func:`mark_worker`); the in-process serial fallback is
deliberately immune, so a cell whose parallel attempts are all sabotaged
still completes — with the incident on the sweep report.  ``perturb``
fires anywhere: divergence detection must work in serial and parallel
runs alike.

The environment variable crosses ``fork``/``spawn`` boundaries for free,
which makes these rules usable from CI YAML without any code hook.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

CHAOS_ENV = "REPRO_CHAOS"

_KINDS = ("crash", "hang", "perturb")

#: set by the process-pool initializer; crash/hang rules require it
_in_worker = False


class ChaosCrash(RuntimeError):
    """The injected worker crash (never raised outside chaos runs)."""


class ChaosSpecError(ValueError):
    """``REPRO_CHAOS`` could not be parsed."""


@dataclass(frozen=True)
class ChaosRule:
    kind: str
    config: str  # build configuration name, or "*"
    seed: Optional[int]  # jitter seed, or None for any
    attempts: int = 1  # sabotage while attempt < attempts
    duration: float = 30.0  # hang sleep, seconds

    def matches(self, config: str, seed: int, attempt: int) -> bool:
        if self.config not in ("*", config):
            return False
        if self.seed is not None and self.seed != seed:
            return False
        return attempt < self.attempts


def parse_rules(spec: str) -> List[ChaosRule]:
    rules: List[ChaosRule] = []
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        fields = part.split(":")
        if len(fields) < 3 or len(fields) > 5:
            raise ChaosSpecError(
                f"bad chaos rule {part!r}: expected "
                "kind:config:seed[:attempts[:duration]]"
            )
        kind, config, seed_s = fields[0], fields[1], fields[2]
        if kind not in _KINDS:
            raise ChaosSpecError(
                f"bad chaos kind {kind!r}; valid kinds: {', '.join(_KINDS)}"
            )
        try:
            seed = None if seed_s == "*" else int(seed_s)
            attempts = int(fields[3]) if len(fields) > 3 else 1
            duration = float(fields[4]) if len(fields) > 4 else 30.0
        except ValueError as exc:
            raise ChaosSpecError(f"bad chaos rule {part!r}: {exc}") from None
        rules.append(ChaosRule(kind, config, seed, attempts, duration))
    return rules


def active_rules() -> List[ChaosRule]:
    """The environment's chaos rules, via the one env reader.

    Delegates to :meth:`repro.api.Settings.from_env` (imported lazily:
    the settings module imports this one for the rule parser).  Pool
    workers call this — the variable crosses fork/spawn for free — while
    in-process consumers receive ``Settings.chaos`` threaded explicitly.
    """
    from repro.api.settings import Settings

    return list(Settings.from_env().chaos)


def mark_worker() -> None:
    """Pool initializer: arms crash/hang rules in this process."""
    global _in_worker
    _in_worker = True


def maybe_fail(
    config: str,
    seed: int,
    attempt: int,
    rules: Optional[Sequence[ChaosRule]] = None,
) -> None:
    """Crash or hang this worker if a chaos rule selects the cell.

    A no-op outside pool workers: the serial in-process fallback must be
    able to heal a cell whose parallel attempts are all sabotaged.
    ``rules`` is the resolved :attr:`repro.api.Settings.chaos` tuple when
    the caller has one; ``None`` falls back to the environment.
    """
    if not _in_worker:
        return
    if rules is None:
        rules = active_rules()
    for rule in rules:
        if not rule.matches(config, seed, attempt):
            continue
        if rule.kind == "crash":
            raise ChaosCrash(
                f"injected worker crash for cell ({config}, seed {seed}), "
                f"attempt {attempt}"
            )
        if rule.kind == "hang":
            time.sleep(rule.duration)


def perturbation(
    config: str, seed: int, rules: Optional[Sequence[ChaosRule]] = None
) -> int:
    """Extra stall cycles a ``perturb`` rule injects into fast results.

    ``rules`` is the resolved :attr:`repro.api.Settings.chaos` tuple when
    the caller has one; ``None`` falls back to the environment.
    """
    if rules is None:
        rules = active_rules()
    extra = 0
    for rule in rules:
        if rule.kind == "perturb" and rule.matches(config, seed, 0):
            extra += 1
    return extra


def rules_summary(
    rules: Optional[Sequence[ChaosRule]] = None,
) -> Tuple[str, ...]:
    """Human-readable active rules (for sweep reports and logs)."""
    if rules is None:
        rules = active_rules()
    return tuple(
        f"{r.kind}:{r.config}:{'*' if r.seed is None else r.seed}"
        f":{r.attempts}" + (f":{r.duration:g}" if r.kind == "hang" else "")
        for r in rules
    )
