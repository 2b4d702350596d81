"""The one way to say "run this": frozen, validated specifications.

A :class:`RunSpec` names the complete recipe of one measurement once
(stack, config, options, engine, samples, seed, fault plan, verifier,
guard stride, optional layout override) and every front door —
:func:`repro.api.run`, :func:`repro.api.sweep`, :func:`repro.api.search`,
the ``python -m repro`` subcommands — consumes it.

The same discipline covers every other facade verb: each takes exactly
one of the frozen spec dataclasses below (:class:`SweepSpec`,
:class:`SearchSpec`, :class:`AnalyzeSpec`, :class:`ProfileSpec`,
:class:`FaultsSpec`, :class:`TrafficStudySpec`,
:class:`ResilienceStudySpec`, :class:`DatalayoutSpec`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Tuple

from repro.faults.plan import FAULT_KINDS, FaultPlan
from repro.protocols.options import Section2Options
from repro.xkernel.map import SCHEME_SPECS

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.resilience.queueing import OverloadSpec
    from repro.traffic.spec import TrafficSpec

#: valid stacks / build configurations (mirrors repro.harness.configs,
#: duplicated here so the spec layer stays import-light; a test holds
#: the copies equal)
SPEC_STACKS = ("tcpip", "rpc")
SPEC_CONFIGS = ("BAD", "STD", "OUT", "CLO", "PIN", "ALL")

#: candidate simulations a layout search spends unless told otherwise
DEFAULT_BUDGET = 64


@dataclass(frozen=True)
class RunSpec:
    """One fully-specified measurement request.

    ``None`` fields mean "use the resolved :class:`~repro.api.settings.
    Settings` / the paper's defaults": ``engine`` falls back to the
    settings engine, ``samples`` to the paper's per-stack sample counts,
    ``options`` to :meth:`Section2Options.improved`, ``verify_ir`` to the
    settings flag.  ``layout`` optionally replaces the configuration's
    default layout stage with a :class:`repro.search.artifact.
    LayoutArtifact` (or any ``LayoutStrategy`` callable) — this is how a
    searched layout is replayed bit-identically.  ``guard_stride`` N >= 1
    replays every Nth sample through the reference path while the fast
    engine drives the run (0, the default, is off); ``on_divergence``
    picks what a mismatch does (see :mod:`repro.faults.guard`).
    """

    stack: str = "tcpip"
    config: str = "STD"
    options: Optional[Section2Options] = None
    engine: Optional[str] = None
    samples: Optional[int] = None
    seed: int = 42
    fault_plan: Optional[FaultPlan] = field(default=None, compare=False)
    verify_ir: Optional[bool] = None
    #: LayoutArtifact, LayoutStrategy callable, or None for the default
    layout: Optional[object] = field(default=None, compare=False)
    guard_stride: int = 0
    on_divergence: str = "fallback"
    server_processing_us: Optional[float] = None

    def __post_init__(self) -> None:
        if self.stack not in SPEC_STACKS:
            raise ValueError(f"unknown stack {self.stack!r}")
        if self.config not in SPEC_CONFIGS:
            raise ValueError(f"unknown configuration {self.config!r}")
        if self.fault_plan is not None and self.fault_plan.stack != self.stack:
            raise ValueError(
                f"fault plan targets stack {self.fault_plan.stack!r}, "
                f"spec runs {self.stack!r}"
            )

    def with_config(self, config: str) -> "RunSpec":
        """Copy for a sibling configuration of the same stack."""
        return replace(self, config=config)


@dataclass(frozen=True)
class SweepSpec:
    """Many measurements plus how to schedule them.

    Any mix of runs is one batch of (run, sample) cells.
    ``parallel=None`` pools the cells when the host has more than one
    core and the batch more than one cell; ``False`` runs serially.
    """

    runs: Tuple[RunSpec, ...] = ()
    parallel: Optional[bool] = None
    max_workers: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "runs", tuple(self.runs))


@dataclass(frozen=True)
class SearchSpec:
    """One profile-guided layout search: the cell plus the search knobs."""

    run: RunSpec = field(default_factory=RunSpec)
    #: candidate simulations to spend
    budget: int = DEFAULT_BUDGET
    #: drives every random choice the search makes
    seed: int = 0
    parallel: bool = False
    max_workers: Optional[int] = None
    #: also score the paper's micro-positioned layout (slower)
    micro_baseline: bool = False


@dataclass(frozen=True)
class AnalyzeSpec:
    """One static-analysis request: the cell plus the pass toggles."""

    run: RunSpec = field(default_factory=RunSpec)
    #: validate the conflict prediction against one simulated profile
    check_conflicts: bool = True
    #: also compute (and simulate against) the static latency bounds
    bounds: bool = False


@dataclass(frozen=True)
class ProfileSpec:
    """One stall-attribution request."""

    stack: str = "tcpip"
    config: str = "STD"
    engine: Optional[str] = None
    seed: int = 42

    def __post_init__(self) -> None:
        if self.stack not in SPEC_STACKS:
            raise ValueError(f"unknown stack {self.stack!r}")
        if self.config not in SPEC_CONFIGS:
            raise ValueError(f"unknown configuration {self.config!r}")


@dataclass(frozen=True)
class FaultsSpec:
    """One fault-injection pricing request: a stack sweep at one rate."""

    stack: str = "tcpip"
    #: configurations to price (default: the full sweep)
    configs: Tuple[str, ...] = SPEC_CONFIGS
    #: per-opportunity injection probability in [0, 1]
    rate: float = 0.25
    #: restrict the fault taxonomy (None: every kind)
    kinds: Optional[Tuple[str, ...]] = None
    samples: Optional[int] = None
    #: fault plan seed (injection sites; allocator seeds are unchanged)
    seed: int = 0
    engine: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "configs", tuple(self.configs))
        if self.kinds is not None:
            object.__setattr__(self, "kinds", tuple(self.kinds))
        if self.stack not in SPEC_STACKS:
            raise ValueError(f"unknown stack {self.stack!r}")
        bad = [c for c in self.configs if c not in SPEC_CONFIGS]
        if bad:
            raise ValueError(f"unknown configuration(s) {bad!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate {self.rate!r} outside [0, 1]")
        if self.kinds is not None:
            unknown = [k for k in self.kinds if k not in FAULT_KINDS]
            if unknown:
                raise ValueError(f"unknown fault kind(s) {unknown!r}")


def _check_stream_study(schemes: Tuple[str, ...], engine: Optional[str]) -> None:
    """Reject, when a stream study's spec is made, a caching scheme no map
    can build or an engine without a packed-segment pass: either would
    otherwise fail only once the stream has started."""
    from repro.traffic.stream import check_stream_engine
    from repro.xkernel.map import MapError, make_scheme

    for scheme in schemes:
        try:
            make_scheme(scheme)
        except MapError as exc:
            raise ValueError(str(exc)) from None
    if engine is not None:
        check_stream_engine(engine)


@dataclass(frozen=True)
class TrafficStudySpec:
    """One demux-cache traffic study: the stream plus the sweep axes.

    ``traffic`` (a :class:`repro.traffic.TrafficSpec`, default: the CI
    reference cell) pins the packet stream; the axes default to the
    stream's own mix and flow count and to every caching scheme.
    """

    traffic: Optional["TrafficSpec"] = None
    schemes: Tuple[str, ...] = SCHEME_SPECS
    mixes: Optional[Tuple[str, ...]] = None
    flow_counts: Optional[Tuple[int, ...]] = None
    engine: Optional[str] = None

    def __post_init__(self) -> None:
        for name in ("schemes", "mixes", "flow_counts"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, tuple(value))
        _check_stream_study(self.schemes, self.engine)


@dataclass(frozen=True)
class ResilienceStudySpec:
    """One faulted-traffic resilience study: stream, faults and load."""

    traffic: Optional["TrafficSpec"] = None
    schemes: Tuple[str, ...] = ("one-entry", "lru:4")
    mixes: Optional[Tuple[str, ...]] = None
    #: total per-packet fault rates, each spread uniformly over the
    #: receive-side kinds
    fault_rates: Tuple[float, ...] = (0.0, 0.01)
    #: fault-arrival seed (the traffic spec's stream seed is unchanged)
    profile_seed: int = 0
    #: which flows faults may hit
    scope: str = "all"
    overload: Optional["OverloadSpec"] = None
    parallel: bool = False
    max_workers: Optional[int] = None
    engine: Optional[str] = None

    def __post_init__(self) -> None:
        for name in ("schemes", "mixes", "fault_rates"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, tuple(value))
        _check_stream_study(self.schemes, self.engine)


@dataclass(frozen=True)
class DatalayoutSpec:
    """One data-techniques grid study over the 12 (stack, config) cells."""

    #: data techniques to measure (None: the whole registry; ``baseline``
    #: is always included — the floors are defined against it)
    techniques: Optional[Tuple[str, ...]] = None
    stacks: Tuple[str, ...] = SPEC_STACKS
    configs: Tuple[str, ...] = SPEC_CONFIGS
    seed: int = 42
    engine: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "stacks", tuple(self.stacks))
        object.__setattr__(self, "configs", tuple(self.configs))
        if self.techniques is not None:
            object.__setattr__(self, "techniques", tuple(self.techniques))
        bad = [s for s in self.stacks if s not in SPEC_STACKS]
        if bad:
            raise ValueError(f"unknown stack(s) {bad!r}")
        bad = [c for c in self.configs if c not in SPEC_CONFIGS]
        if bad:
            raise ValueError(f"unknown configuration(s) {bad!r}")
