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
* :func:`sweep` measures many specs as (spec, sample) cells, serially or
  on the self-healing process pool, each result equal to :func:`run`,
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
  over all 12 cells, with counted stalls and bounds checks.

``sweep``, ``search`` and ``analyze`` also accept a bare
:class:`RunSpec` (a sequence of them for ``sweep``) as shorthand for the
spec with default knobs.

Environment configuration (``REPRO_SIM_ENGINE``, ``REPRO_VERIFY_IR``,
``REPRO_CHAOS``) is resolved once per call through
:meth:`Settings.from_env` and threaded explicitly; pass an explicit
:class:`Settings` to override the environment entirely.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Tuple, Union

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
    from repro.datalayout import DatalayoutStudy
    from repro.harness.experiment import ExperimentResult
    from repro.harness.parallel import SweepReport
    from repro.harness.profile import CellProfile
    from repro.resilience import ResilienceStudy
    from repro.search.driver import SearchResult
    from repro.traffic import TrafficStudy

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


def settings_for(spec: RunSpec, settings: Optional[Settings] = None) -> Settings:
    """The effective settings of one spec: overrides beat the environment."""
    base = settings if settings is not None else Settings.from_env()
    return base.with_engine(spec.engine).with_verify_ir(spec.verify_ir)


def _study_settings(
    engine: Optional[str], settings: Optional[Settings]
) -> Settings:
    base = settings if settings is not None else Settings.from_env()
    return base.with_engine(engine)


def run(
    spec: RunSpec, *, settings: Optional[Settings] = None
) -> ExperimentResult:
    """Measure one cell; returns the ``ExperimentResult``.

    Bit-identical to driving :class:`~repro.harness.experiment.
    Experiment` by hand with the same parameters (a CI golden gate holds
    this equivalence per stack).
    """
    from repro.harness.experiment import Experiment

    exp = Experiment.from_spec(spec, settings_for(spec, settings))
    result: ExperimentResult = exp.run(samples=spec.samples)
    return result


def sweep(
    spec: Union[SweepSpec, Sequence[RunSpec]],
    *,
    settings: Optional[Settings] = None,
    report: Optional[SweepReport] = None,
) -> SweepResult:
    """Measure many specs; returns a :class:`SweepResult` in spec order.

    Runs the specs as (spec, sample) cells through
    :func:`repro.harness.parallel.run_sweep` — serially, or on the
    self-healing process pool per ``SweepSpec.parallel`` — and each
    result equals ``run(spec)`` sample for sample (pooled samples carry
    no event list).  A bare sequence of :class:`RunSpec` is shorthand for
    ``SweepSpec(runs)``.  Pass a fresh
    :class:`~repro.harness.parallel.SweepReport` as ``report`` to observe
    incidents, retries, serial heals and guard divergences.
    """
    from repro.harness.parallel import run_sweep

    resolved = spec if isinstance(spec, SweepSpec) else SweepSpec(tuple(spec))
    return SweepResult(
        run_sweep(
            resolved.runs,
            settings=settings,
            parallel=resolved.parallel,
            max_workers=resolved.max_workers,
            report=report,
        )
    )


def search(
    spec: Union[SearchSpec, RunSpec],
    *,
    settings: Optional[Settings] = None,
) -> SearchResult:
    """Profile-guided layout search over the spec's (stack, config) cell.

    Returns a :class:`repro.search.driver.SearchResult` whose
    ``artifact`` replays bit-identically through :func:`run` via
    ``RunSpec(..., layout=artifact)``.  Equal (spec, budget, seed)
    triples return bit-identical results on either engine.  A bare
    :class:`RunSpec` searches with the :class:`SearchSpec` defaults.
    """
    from repro.search.driver import search_cell

    resolved = spec if isinstance(spec, SearchSpec) else SearchSpec(run=spec)
    return search_cell(
        resolved.run.stack,
        resolved.run.config,
        opts=resolved.run.options,
        budget=resolved.budget,
        seed=resolved.seed,
        base_seed=resolved.run.seed,
        settings=settings_for(resolved.run, settings),
        parallel=resolved.parallel,
        max_workers=resolved.max_workers,
        micro_baseline=resolved.micro_baseline,
    )


def traffic(
    spec: Optional[TrafficStudySpec] = None,
    *,
    settings: Optional[Settings] = None,
) -> TrafficStudy:
    """Demux-cache traffic study: stream millions of packets per point.

    Sweeps caching scheme x arrival mix x flow count over the stream's
    (stack, configuration) cell and returns a
    :class:`repro.traffic.TrafficStudy` carrying per-scheme flow-map hit
    rates and cold/steady cycle totals.  The transition-memoized stream
    is exact, so equal specs produce bit-identical studies (a CI golden
    gate holds this); the ``reference`` engine has no packed-segment
    pass and is refused.
    """
    from repro.traffic import run_traffic_study

    resolved = spec if spec is not None else TrafficStudySpec()
    base = _study_settings(resolved.engine, settings)
    study: TrafficStudy = run_traffic_study(resolved, engine=base.engine)
    return study


def resilience(
    spec: Optional[ResilienceStudySpec] = None,
    *,
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
    """
    from repro.resilience import run_resilience_study

    resolved = spec if spec is not None else ResilienceStudySpec()
    base = _study_settings(resolved.engine, settings)
    study: ResilienceStudy = run_resilience_study(resolved, engine=base.engine)
    return study


def analyze(
    spec: Union[AnalyzeSpec, RunSpec],
    *,
    settings: Optional[Settings] = None,
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
    A bare :class:`RunSpec` runs with the :class:`AnalyzeSpec` defaults.
    """
    from repro.analysis import analyze_cell

    resolved = spec if isinstance(spec, AnalyzeSpec) else AnalyzeSpec(run=spec)
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
    (:class:`AttributionMismatch` otherwise).
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
    rows = tables.compute_fault_table(resolved, engine=base.engine, report=report)
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
    cells, counting each cell's write-buffer and d-cache stalls from the
    engine's runs and bracketing it by the static bounds under the same
    store behaviour.  The
    engines are bit-identical, so equal specs produce byte-identical
    tables on ``fast`` and ``reference`` (a CI golden gate diffs the
    fast run against the committed table).
    """
    from repro.datalayout import run_datalayout_study

    resolved = spec if spec is not None else DatalayoutSpec()
    base = _study_settings(resolved.engine, settings)
    return run_datalayout_study(resolved, engine=base.engine)
