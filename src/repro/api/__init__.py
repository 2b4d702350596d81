"""``repro.api``: the unified front door to the measurement system.

Every verb takes one frozen spec dataclass (:mod:`repro.api.spec`) and
returns a result implementing the :class:`repro.api.result.Result`
protocol (``.to_json()``, ``.render()``, ``.check()``)::

    from repro import api

    result = api.run(api.RunSpec("tcpip", "CLO", samples=3))
    table4 = api.sweep(api.SweepSpec(
        tuple(api.RunSpec("tcpip", c) for c in ("STD", "OUT", "CLO"))))
    found  = api.search(api.SearchSpec(api.RunSpec("tcpip", "CLO"),
                                       budget=96, seed=0))
    study  = api.traffic(api.TrafficStudySpec())
    report = api.analyze(api.AnalyzeSpec(api.RunSpec("tcpip", "CLO"),
                                         bounds=True))
    curves = api.resilience(api.ResilienceStudySpec())
    cell   = api.profile(api.ProfileSpec("tcpip", "CLO"))
    table  = api.faults(api.FaultsSpec("tcpip", rate=0.25))
    grid   = api.datalayout(api.DatalayoutSpec())

* :func:`run` measures one :class:`RunSpec` cell (the legacy
  ``Experiment`` path, bit-identically),
* :func:`sweep` measures many specs, automatically using the parallel
  self-healing sweep executor when the specs form a plain configuration
  sweep of one stack,
* :func:`search` runs the profile-guided layout search of
  :mod:`repro.search` over the spec's cell and returns the best layout
  found as a replayable artifact,
* :func:`traffic` streams a synthetic million-packet flow mix through
  the demux path and sweeps the flow-map caching scheme
  (:mod:`repro.traffic`),
* :func:`analyze` runs the static analysis passes of
  :mod:`repro.analysis` over the spec's cell — IR verification,
  equivalence audit, conflict prediction, and (opt-in) the
  abstract-interpretation latency bounds,
* :func:`resilience` streams faulted traffic through the demux path
  under offered-load schedules (:mod:`repro.resilience`),
* :func:`profile` attributes every memory stall cycle of one cell to
  (layer, function, cache, miss kind) via :mod:`repro.obs`,
* :func:`faults` prices the error paths of one stack against a
  fault-free sweep (:mod:`repro.faults`),
* :func:`datalayout` runs the data-techniques × code-techniques grid of
  :mod:`repro.datalayout` — store behaviours and data-layout transforms
  over all 12 cells, attribution- and bounds-checked.

The pre-spec keyword forms (``api.traffic(TrafficSpec, schemes=...)``,
``api.analyze(RunSpec, bounds=True)``, ...) survive as thin shims that
emit :class:`DeprecationWarning` and forward to the spec form.

Environment configuration (``REPRO_SIM_ENGINE``, ``REPRO_VERIFY_IR``,
``REPRO_CHAOS``) is resolved once per call through
:meth:`Settings.from_env` and threaded explicitly; pass an explicit
:class:`Settings` to override the environment entirely.
"""

from __future__ import annotations

import warnings
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
    cast,
)

from repro.api.result import FaultStudy, Result, SweepResult
from repro.api.settings import ENGINES, Settings, validate_engine
from repro.api.spec import (
    SPEC_CONFIGS,
    SPEC_STACKS,
    AnalyzeSpec,
    DatalayoutSpec,
    FaultsSpec,
    ProfileSpec,
    ResilienceStudySpec,
    RunSpec,
    SearchSpec,
    SweepSpec,
    TrafficStudySpec,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.analysis import CellAnalysis
    from repro.core.layout import LayoutStrategy
    from repro.datalayout import DatalayoutStudy
    from repro.harness.experiment import ExperimentResult
    from repro.harness.parallel import SweepReport
    from repro.harness.profile import CellProfile
    from repro.resilience import OverloadSpec, ResilienceStudy
    from repro.search.driver import SearchResult
    from repro.traffic import TrafficSpec, TrafficStudy

__all__ = [
    "ENGINES",
    "FACADE_VERBS",
    "AnalyzeSpec",
    "DatalayoutSpec",
    "FaultStudy",
    "FaultsSpec",
    "ProfileSpec",
    "ResilienceStudySpec",
    "Result",
    "RunSpec",
    "SPEC_CONFIGS",
    "SPEC_STACKS",
    "SearchSpec",
    "Settings",
    "SweepResult",
    "SweepSpec",
    "TrafficStudySpec",
    "analyze",
    "datalayout",
    "faults",
    "profile",
    "resilience",
    "run",
    "search",
    "settings_for",
    "sweep",
    "traffic",
    "validate_engine",
]

#: every verb of the facade; ``python -m repro`` mirrors this registry
#: (minus ``run``/``sweep``, whose CLI form is the default table driver)
FACADE_VERBS: Tuple[str, ...] = (
    "run",
    "sweep",
    "search",
    "traffic",
    "resilience",
    "analyze",
    "profile",
    "faults",
    "datalayout",
)

#: sentinel distinguishing "not passed" from an explicit None/False
_UNSET: object = object()


def _deprecated(verb: str, spec_type: str, what: Sequence[str]) -> None:
    warnings.warn(
        f"api.{verb}: {', '.join(what)} is deprecated; "
        f"pass a {spec_type} instead",
        DeprecationWarning,
        stacklevel=3,
    )


def settings_for(spec: RunSpec, settings: Optional[Settings] = None) -> Settings:
    """The effective settings of one spec: overrides beat the environment."""
    base = settings if settings is not None else Settings.from_env()
    return base.with_engine(spec.engine).with_verify_ir(spec.verify_ir)


def _study_settings(
    engine: Optional[str], settings: Optional[Settings]
) -> Settings:
    base = settings if settings is not None else Settings.from_env()
    return base.with_engine(engine)


def _layout_strategy(layout: Optional[object]) -> Optional[LayoutStrategy]:
    """A spec's layout override as a ``LayoutStrategy`` callable."""
    if layout is None:
        return None
    strategy = getattr(layout, "strategy", None)
    if callable(strategy):  # a LayoutArtifact
        built: LayoutStrategy = strategy()
        return built
    if callable(layout):
        return cast("LayoutStrategy", layout)
    raise TypeError(
        f"RunSpec.layout must be a LayoutArtifact or a LayoutStrategy "
        f"callable, got {type(layout).__name__}"
    )


def run(
    spec: RunSpec, *, settings: Optional[Settings] = None
) -> ExperimentResult:
    """Measure one cell; returns the ``ExperimentResult``.

    Bit-identical to driving :class:`~repro.harness.experiment.
    Experiment` by hand with the same parameters (a CI golden gate holds
    this equivalence per stack).
    """
    from repro.harness.experiment import Experiment

    exp = Experiment(
        spec.stack,
        spec.config,
        spec.options,
        base_seed=spec.seed,
        fault_plan=spec.fault_plan,
        guard_stride=spec.guard_stride,
        on_divergence=spec.on_divergence,
        server_processing_us=spec.server_processing_us,
        settings=settings_for(spec, settings),
        layout=_layout_strategy(spec.layout),
    )
    result: ExperimentResult = exp.run(samples=spec.samples)
    return result


def _plain_config_sweep(specs: Sequence[RunSpec]) -> bool:
    """True when ``specs`` is exactly one stack's configuration sweep —
    the shape the parallel executor and its memoized builds optimize."""
    base = specs[0]
    configs = [s.config for s in specs]
    return (
        len(set(configs)) == len(configs)
        and base.seed == 42  # the executor's fixed seed schedule
        and base.layout is None
        and base.guard_stride == 1
        and base.on_divergence == "fallback"
        and base.server_processing_us is None
        and all(
            s.stack == base.stack
            and s.options == base.options
            and s.engine == base.engine
            and s.samples == base.samples
            and s.seed == base.seed
            and s.fault_plan is base.fault_plan
            and s.verify_ir == base.verify_ir
            and s.layout is None
            and s.guard_stride == base.guard_stride
            and s.on_divergence == base.on_divergence
            and s.server_processing_us is None
            for s in specs
        )
    )


def sweep(
    spec: Union[SweepSpec, Sequence[RunSpec]],
    *,
    settings: Optional[Settings] = None,
    parallel: object = _UNSET,
    max_workers: object = _UNSET,
    report: Optional[SweepReport] = None,
) -> SweepResult:
    """Measure many specs; returns a :class:`SweepResult` in spec order.

    When the runs form a plain configuration sweep of one stack (same
    stack/options/engine/samples, distinct configs, default seeds), the
    batch routes through ``run_all_configs`` — i.e. the self-healing
    parallel executor with memoized builds and captures.  Anything more
    heterogeneous (custom layouts, per-spec seeds) runs spec by spec.
    A bare sequence of :class:`RunSpec` is accepted as shorthand for
    ``SweepSpec(runs)``; the ``parallel``/``max_workers`` keywords are
    deprecated in favour of the spec fields.
    """
    if isinstance(spec, SweepSpec):
        resolved = spec
    else:
        resolved = SweepSpec(runs=tuple(spec))
    legacy = [
        name
        for name, value in (("parallel", parallel), ("max_workers", max_workers))
        if value is not _UNSET
    ]
    if legacy:
        _deprecated("sweep", "SweepSpec", [f"keyword {n!r}" for n in legacy])
        resolved = SweepSpec(
            runs=resolved.runs,
            parallel=(
                cast(Optional[bool], parallel)
                if parallel is not _UNSET
                else resolved.parallel
            ),
            max_workers=(
                cast(Optional[int], max_workers)
                if max_workers is not _UNSET
                else resolved.max_workers
            ),
        )
    runs = resolved.runs
    if not runs:
        return SweepResult()
    if _plain_config_sweep(runs):
        from repro.harness.experiment import run_all_configs

        base = runs[0]
        results = run_all_configs(
            base.stack,
            tuple(s.config for s in runs),
            samples=base.samples,
            opts=base.options,
            parallel=resolved.parallel,
            max_workers=resolved.max_workers,
            fault_plan=base.fault_plan,
            report=report,
            settings=settings_for(base, settings),
        )
        return SweepResult(results[s.config] for s in runs)
    return SweepResult(run(s, settings=settings) for s in runs)


def search(
    spec: Union[SearchSpec, RunSpec],
    budget: object = _UNSET,
    *,
    seed: object = _UNSET,
    settings: Optional[Settings] = None,
    parallel: object = _UNSET,
    max_workers: object = _UNSET,
    micro_baseline: object = _UNSET,
) -> SearchResult:
    """Profile-guided layout search over the spec's (stack, config) cell.

    Returns a :class:`repro.search.driver.SearchResult` whose
    ``artifact`` replays bit-identically through :func:`run` via
    ``RunSpec(..., layout=artifact)``.  Equal (spec, budget, seed)
    triples return bit-identical results on either engine.  Passing a
    bare :class:`RunSpec` plus search keywords is deprecated — fold them
    into a :class:`SearchSpec`.
    """
    from repro.search.driver import search_cell

    legacy = [
        name
        for name, value in (
            ("budget", budget),
            ("seed", seed),
            ("parallel", parallel),
            ("max_workers", max_workers),
            ("micro_baseline", micro_baseline),
        )
        if value is not _UNSET
    ]
    if isinstance(spec, SearchSpec):
        if legacy:
            raise TypeError(
                f"api.search: a SearchSpec already carries "
                f"{', '.join(legacy)}; pass them in the spec only"
            )
        resolved = spec
    else:
        if legacy:
            _deprecated(
                "search", "SearchSpec", [f"keyword {n!r}" for n in legacy]
            )
        resolved = SearchSpec(
            run=spec,
            budget=cast(Optional[int], None if budget is _UNSET else budget),
            seed=cast(int, 0 if seed is _UNSET else seed),
            parallel=cast(bool, False if parallel is _UNSET else parallel),
            max_workers=cast(
                Optional[int], None if max_workers is _UNSET else max_workers
            ),
            micro_baseline=cast(
                bool, False if micro_baseline is _UNSET else micro_baseline
            ),
        )

    kwargs: Dict[str, int] = {}
    if resolved.budget is not None:
        kwargs["budget"] = resolved.budget
    return search_cell(
        resolved.run.stack,
        resolved.run.config,
        opts=resolved.run.options,
        seed=resolved.seed,
        base_seed=resolved.run.seed,
        settings=settings_for(resolved.run, settings),
        parallel=resolved.parallel,
        max_workers=resolved.max_workers,
        micro_baseline=resolved.micro_baseline,
        **kwargs,
    )


def traffic(
    spec: Union[TrafficStudySpec, "TrafficSpec", None] = None,
    *,
    schemes: Optional[Sequence[str]] = None,
    mixes: Optional[Sequence[str]] = None,
    flow_counts: Optional[Sequence[int]] = None,
    engine: Optional[str] = None,
    settings: Optional[Settings] = None,
) -> TrafficStudy:
    """Demux-cache traffic study: stream millions of packets per point.

    Sweeps caching scheme x arrival mix x flow count over the stream's
    (stack, configuration) cell and returns a
    :class:`repro.traffic.TrafficStudy` carrying per-scheme flow-map hit
    rates and cold/steady cycle totals.  The transition-memoized stream
    is exact, so equal specs produce bit-identical studies (a CI golden
    gate holds this); ``guarded`` streams on ``fast``, and the
    ``reference`` engine has no packed-segment pass and is refused.

    Passing a bare :class:`repro.traffic.TrafficSpec` and/or the axis
    keywords is deprecated — use :class:`TrafficStudySpec`.
    """
    from repro.traffic import run_traffic_study

    if isinstance(spec, TrafficStudySpec):
        resolved = spec
    else:
        legacy: List[str] = []
        if spec is not None:
            legacy.append("a bare TrafficSpec stream")
        legacy.extend(
            f"keyword {name!r}"
            for name, value in (
                ("schemes", schemes),
                ("mixes", mixes),
                ("flow_counts", flow_counts),
                ("engine", engine),
            )
            if value is not None
        )
        if legacy:
            _deprecated("traffic", "TrafficStudySpec", legacy)
        resolved = TrafficStudySpec(
            traffic=spec,
            schemes=tuple(schemes) if schemes is not None else None,
            mixes=tuple(mixes) if mixes is not None else None,
            flow_counts=tuple(flow_counts) if flow_counts is not None else None,
            engine=engine,
        )

    from repro.traffic import TrafficSpec as _TrafficSpec

    stream = resolved.traffic if resolved.traffic is not None else _TrafficSpec()
    base = _study_settings(resolved.engine, settings)
    kwargs: Dict[str, Tuple[str, ...]] = {}
    if resolved.schemes is not None:
        kwargs["schemes"] = resolved.schemes
    study: TrafficStudy = run_traffic_study(
        stream,
        mixes=resolved.mixes,
        flow_counts=resolved.flow_counts,
        engine=base.engine,
        **kwargs,
    )
    return study


def resilience(
    spec: Union[ResilienceStudySpec, "TrafficSpec", None] = None,
    *,
    schemes: Optional[Sequence[str]] = None,
    mixes: Optional[Sequence[str]] = None,
    fault_rates: Optional[Sequence[float]] = None,
    profile_seed: object = _UNSET,
    scope: object = _UNSET,
    overload: Optional[OverloadSpec] = None,
    engine: Optional[str] = None,
    parallel: object = _UNSET,
    max_workers: object = _UNSET,
    settings: Optional[Settings] = None,
) -> ResilienceStudy:
    """Faulted-traffic resilience study: error paths under offered load.

    Sweeps caching scheme x arrival mix x fault rate over the stream's
    cell; each point streams deterministic per-packet fault arrivals
    (each priced by its real error path), then replays the per-packet
    service cycles through a bounded ingress queue at every offered-load
    point, reporting p50/p99/p999 sojourn latency, drop fractions and
    the saturation point.  Rate 0 is bit-identical to a pristine
    :func:`traffic` point, and equal inputs produce bit-identical
    studies (a CI golden gate holds this).

    Passing a bare :class:`repro.traffic.TrafficSpec` and/or the sweep
    keywords is deprecated — use :class:`ResilienceStudySpec`.
    """
    from repro.resilience import run_resilience_study

    if isinstance(spec, ResilienceStudySpec):
        resolved = spec
    else:
        legacy: List[str] = []
        if spec is not None:
            legacy.append("a bare TrafficSpec stream")
        legacy.extend(
            f"keyword {name!r}"
            for name, value in (
                ("schemes", schemes),
                ("mixes", mixes),
                ("fault_rates", fault_rates),
                ("overload", overload),
                ("engine", engine),
            )
            if value is not None
        )
        legacy.extend(
            f"keyword {name!r}"
            for name, value in (
                ("profile_seed", profile_seed),
                ("scope", scope),
                ("parallel", parallel),
                ("max_workers", max_workers),
            )
            if value is not _UNSET
        )
        if legacy:
            _deprecated("resilience", "ResilienceStudySpec", legacy)
        resolved = ResilienceStudySpec(
            traffic=spec,
            schemes=tuple(schemes) if schemes is not None else None,
            mixes=tuple(mixes) if mixes is not None else None,
            fault_rates=(
                tuple(fault_rates) if fault_rates is not None else None
            ),
            profile_seed=cast(
                int, 0 if profile_seed is _UNSET else profile_seed
            ),
            scope=cast(str, "all" if scope is _UNSET else scope),
            overload=overload,
            parallel=cast(bool, False if parallel is _UNSET else parallel),
            max_workers=cast(
                Optional[int], None if max_workers is _UNSET else max_workers
            ),
            engine=engine,
        )

    from repro.traffic import TrafficSpec as _TrafficSpec

    stream = resolved.traffic if resolved.traffic is not None else _TrafficSpec()
    base = _study_settings(resolved.engine, settings)
    kwargs: Dict[str, object] = {}
    if resolved.schemes is not None:
        kwargs["schemes"] = resolved.schemes
    if resolved.fault_rates is not None:
        kwargs["fault_rates"] = resolved.fault_rates
    study: ResilienceStudy = run_resilience_study(
        stream,
        mixes=resolved.mixes,
        profile_seed=resolved.profile_seed,
        scope=resolved.scope,
        overload=resolved.overload,
        engine=base.engine,
        parallel=resolved.parallel,
        max_workers=resolved.max_workers,
        **kwargs,
    )
    return study


def analyze(
    spec: Union[AnalyzeSpec, RunSpec],
    *,
    settings: Optional[Settings] = None,
    check_conflicts: object = _UNSET,
    bounds: object = _UNSET,
) -> CellAnalysis:
    """Static analysis of the spec's (stack, configuration) cell.

    Runs the IR verifier and the equivalence auditor over every build
    stage, statically predicts the i-cache conflict graph, and — unless
    ``check_conflicts`` is off — validates the prediction against one
    simulated profile.  With ``bounds=True`` it additionally computes
    sound static latency bounds (:mod:`repro.analysis.bounds`) and
    checks ``lower <= simulated <= upper`` against the resolved engine.
    Returns a :class:`repro.analysis.CellAnalysis`; ``report.ok`` is the
    clean/dirty verdict and ``report.to_json()`` the structured form.
    The pass-toggle keywords are deprecated — use :class:`AnalyzeSpec`.
    """
    from repro.analysis import analyze_cell

    legacy = [
        f"keyword {name!r}"
        for name, value in (
            ("check_conflicts", check_conflicts),
            ("bounds", bounds),
        )
        if value is not _UNSET
    ]
    if isinstance(spec, AnalyzeSpec):
        if legacy:
            raise TypeError(
                f"api.analyze: an AnalyzeSpec already carries "
                f"{', '.join(legacy)}; pass them in the spec only"
            )
        resolved = spec
    else:
        if legacy:
            _deprecated("analyze", "AnalyzeSpec", legacy)
        resolved = AnalyzeSpec(
            run=spec,
            check_conflicts=cast(
                bool, True if check_conflicts is _UNSET else check_conflicts
            ),
            bounds=cast(bool, False if bounds is _UNSET else bounds),
        )

    effective = settings_for(resolved.run, settings)
    return analyze_cell(
        resolved.run.stack,
        resolved.run.config,
        engine=effective.engine,
        check_conflicts=resolved.check_conflicts,
        bounds=resolved.bounds,
        seed=resolved.run.seed,
    )


def profile(
    spec: Optional[ProfileSpec] = None,
    *,
    settings: Optional[Settings] = None,
) -> CellProfile:
    """Attribute one cell's memory stall cycles, cold and steady.

    Traces one roundtrip and simulates it with an
    :class:`repro.obs.Attribution` sink attached; the attributed totals
    are verified against the engine's measured stalls
    (:class:`AttributionMismatch` otherwise).  Attribution needs
    per-function span replay, so the engine must resolve to ``fast`` or
    ``reference``.
    """
    from repro.harness.profile import profile_cell

    resolved = spec if spec is not None else ProfileSpec()
    base = _study_settings(resolved.engine, settings)
    cell: CellProfile = profile_cell(
        resolved.stack,
        resolved.config,
        seed=resolved.seed,
        engine=base.engine,
    )
    return cell


def faults(
    spec: Optional[FaultsSpec] = None,
    *,
    settings: Optional[Settings] = None,
) -> FaultStudy:
    """Price one stack's error paths against a fault-free sweep.

    Injects seeded workload faults (corrupted checksums, truncated
    headers, demux-cache misses, dropped and duplicated packets) into
    the modeled test programs and reports the per-configuration
    processing-time and mCPI penalty.  The returned
    :class:`FaultStudy`'s ``check()`` carries any permanent sweep
    failures.
    """
    from repro.faults.plan import FAULT_KINDS
    from repro.harness import tables
    from repro.harness.parallel import SweepReport

    resolved = spec if spec is not None else FaultsSpec()
    base = _study_settings(resolved.engine, settings)
    report = SweepReport()
    rows = tables.compute_fault_table(
        resolved.stack,
        rate=resolved.rate,
        kinds=resolved.kinds,
        samples=resolved.samples,
        seed=resolved.seed,
        engine=base.engine,
        configs=resolved.configs,
        report=report,
    )
    return FaultStudy(
        stack=resolved.stack,
        rate=resolved.rate,
        kinds=resolved.kinds if resolved.kinds is not None else FAULT_KINDS,
        seed=resolved.seed,
        rows=rows,
        sweep=report,
    )


def datalayout(
    spec: Optional[DatalayoutSpec] = None,
    *,
    settings: Optional[Settings] = None,
) -> DatalayoutStudy:
    """The data-techniques × code-techniques grid study.

    Measures every :data:`repro.datalayout.DATA_TECHNIQUES` entry (store
    behaviours × layout transforms) over the spec's (stack, config)
    cells, with each cell attribution-verified against the engine and
    bracketed by the static bounds under the same store behaviour.  The
    engines are bit-identical, so equal specs produce byte-identical
    tables on ``fast`` and ``reference`` (a CI golden gate diffs the
    fast run against the committed table).
    """
    from repro.datalayout import run_datalayout_study

    resolved = spec if spec is not None else DatalayoutSpec()
    base = _study_settings(resolved.engine, settings)
    return run_datalayout_study(
        engine=base.engine,
        seed=resolved.seed,
        techniques=resolved.techniques,
        stacks=resolved.stacks,
        configs=resolved.configs,
    )
