"""The resilience study: scheme x mix x fault-rate cells under load.

``run_resilience_point`` streams one faulted spec through one caching
scheme (a single streaming pass collecting per-packet service demands),
then replays the service sequence through the overload queue at every
offered-load point — the queue is pure integer arithmetic, so the
latency curves cost nothing compared to the stream itself and are
bit-identical across engines.  ``run_resilience_study`` sweeps the grid,
optionally on the self-healing process pool, and embeds the structured
:class:`~repro.harness.parallel.SweepReport` in its JSON artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.arch.simulator import AlphaConfig
from repro.harness.parallel import SweepReport, run_parallel_cells
from repro.resilience.faults import FaultProfile
from repro.resilience.queueing import (
    LoadPoint,
    OverloadSpec,
    mean_service_cycles,
    simulate_queue,
)
from repro.traffic.spec import MIXES, TrafficSpec
from repro.traffic.study import (
    StreamCollector,
    TrafficPoint,
    _CellSetup,
    run_traffic_point,
)
from repro.xkernel.map import make_scheme

if TYPE_CHECKING:
    from repro.api.spec import ResilienceStudySpec

#: artifact schema tag so downstream tooling can dispatch on shape
SCHEMA = "repro.resilience/1"


@dataclass
class ResiliencePoint:
    """One (spec, scheme, fault-profile) cell: stream + latency curves."""

    traffic: TrafficPoint
    profile: FaultProfile
    overload: OverloadSpec
    #: injected fault arrivals by kind (deterministic per profile+spec)
    fault_counts: Dict[str, int]
    #: the stream's mean per-packet service demand, the queue's calibre
    base_service_cycles: int
    load_points: List[LoadPoint]

    @property
    def faulted_packets(self) -> int:
        return sum(self.fault_counts.values())

    @property
    def saturation_point(self) -> Optional[int]:
        """The lowest offered load (percent) that saturated the queue."""
        for point in self.load_points:
            if point.saturated:
                return point.load_pct
        return None

    def to_json(self) -> dict:
        return {
            "traffic": self.traffic.to_json(),
            "profile": self.profile.to_json(),
            "overload": self.overload.to_json(),
            "fault_counts": dict(sorted(self.fault_counts.items())),
            "faulted_packets": self.faulted_packets,
            "base_service_cycles": self.base_service_cycles,
            "loads": [point.to_json() for point in self.load_points],
            "saturation_point": self.saturation_point,
        }


@dataclass
class ResilienceStudy:
    """A sweep's points plus the axes and provenance that produced them."""

    base_spec: TrafficSpec
    engine: str
    schemes: Tuple[str, ...]
    mixes: Tuple[str, ...]
    fault_rates: Tuple[float, ...]
    profile_seed: int
    scope: str
    overload: OverloadSpec
    # bounded: one entry per grid point
    points: List[ResiliencePoint] = field(default_factory=list)
    sweep: SweepReport = field(default_factory=SweepReport)

    def point(self, scheme: str, mix: str, rate: float) -> ResiliencePoint:
        for p in self.points:
            if (
                p.traffic.scheme == scheme
                and p.traffic.spec.mix == mix
                and p.profile.total_rate == rate
            ):
                return p
        raise KeyError(f"no point for {(scheme, mix, rate)}")

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "generator": "repro.api.resilience",
            "base_spec": self.base_spec.to_json(),
            "engine": self.engine,
            "schemes": list(self.schemes),
            "mixes": list(self.mixes),
            "fault_rates": list(self.fault_rates),
            "profile_seed": self.profile_seed,
            "scope": self.scope,
            "overload": self.overload.to_json(),
            "points": [p.to_json() for p in self.points],
            "sweep": self.sweep.to_json(),
        }

    def render(self) -> str:
        from repro.harness.reporting import (
            render_resilience_table,
            render_sweep_report,
        )

        text = render_resilience_table(self)
        if self.sweep.incidents or self.sweep.failures or self.sweep.divergences:
            text += "\n\n" + render_sweep_report(self.sweep)
        return text

    def check(self) -> List[str]:
        return [f"sweep failure: {i.render()}" for i in self.sweep.failures]


def run_resilience_point(
    spec: TrafficSpec,
    scheme_spec: str,
    *,
    profile: FaultProfile,
    overload: Optional[OverloadSpec] = None,
    engine: str = "fast",
    config: Optional[AlphaConfig] = None,
    setup: Optional[_CellSetup] = None,
    watchdog_s: Optional[float] = None,
) -> ResiliencePoint:
    """One streaming pass, then the full offered-load latency sweep."""
    overload = overload or OverloadSpec()
    overload.validate()
    collect = StreamCollector()
    traffic = run_traffic_point(
        spec,
        scheme_spec,
        engine=engine,
        config=config,
        setup=setup,
        faults=profile,
        collect=collect,
        watchdog_s=watchdog_s,
    )
    base_cycles = mean_service_cycles(collect.services)
    load_points = [
        simulate_queue(collect.services, load, overload, base_cycles)
        for load in overload.loads
    ]
    return ResiliencePoint(
        traffic=traffic,
        profile=profile,
        overload=overload,
        fault_counts={kind: int(n) for kind, n in sorted(collect.faults.items())},
        base_service_cycles=base_cycles,
        load_points=load_points,
    )


def _point_worker(
    spec: TrafficSpec,
    scheme_spec: str,
    profile: FaultProfile,
    overload: OverloadSpec,
    engine: str,
    attempt: int = 0,
) -> ResiliencePoint:
    """Pool worker: one grid cell, rebuilt from its picklable payload."""
    del attempt  # deterministic cells are bit-identical on retries
    return run_resilience_point(
        spec, scheme_spec, profile=profile, overload=overload, engine=engine
    )


def run_resilience_study(
    study_spec: ResilienceStudySpec,
    *,
    engine: str = "fast",
    config: Optional[AlphaConfig] = None,
    report: Optional[SweepReport] = None,
) -> ResilienceStudy:
    """Sweep the spec's scheme x mix x fault-rate grid on one engine.

    ``engine`` is the resolved engine name (:func:`repro.api.resilience`
    resolves ``study_spec.engine`` against the settings).  Points are
    independent (fresh maps, machine and seeds per point), so the serial
    and parallel paths produce bit-identical studies; the parallel path
    dispatches whole cells through the self-healing pool and folds its
    :class:`SweepReport` into the study artifact.
    """
    base_spec = study_spec.traffic or TrafficSpec()
    mixes = study_spec.mixes if study_spec.mixes is not None else (base_spec.mix,)
    for mix in mixes:
        if mix not in MIXES:
            raise ValueError(f"mix must be one of {MIXES}, got {mix!r}")
    schemes = tuple(make_scheme(s).name for s in study_spec.schemes)
    fault_rates = study_spec.fault_rates
    overload = study_spec.overload or OverloadSpec()
    overload.validate()
    config = config or AlphaConfig()
    if report is None:
        report = SweepReport()
    report.stack = base_spec.stack
    report.engine = engine
    report.configs = tuple(
        f"{scheme}/{mix}/r{rate:g}"
        for mix in mixes
        for rate in fault_rates
        for scheme in schemes
    )
    report.samples = 1
    study = ResilienceStudy(
        base_spec=base_spec,
        engine=engine,
        schemes=schemes,
        mixes=mixes,
        fault_rates=fault_rates,
        profile_seed=study_spec.profile_seed,
        scope=study_spec.scope,
        overload=overload,
        sweep=report,
    )

    # bounded: one entry per grid cell
    cells: List[Tuple[TrafficSpec, str, FaultProfile]] = []
    for mix in mixes:
        spec = base_spec.with_(mix=mix)
        for rate in fault_rates:
            profile = FaultProfile.uniform(
                rate, seed=study_spec.profile_seed, scope=study_spec.scope
            )
            for scheme in schemes:
                cells.append((spec, scheme, profile))

    if study_spec.parallel:
        payloads = [
            (spec, scheme, profile, overload, engine)
            for spec, scheme, profile in cells
        ]
        labels = [
            (f"{scheme}/{spec.mix}/r{profile.total_rate:g}", spec.seed)
            for spec, scheme, profile in cells
        ]
        results = run_parallel_cells(
            _point_worker,
            payloads,
            labels,
            max_workers=study_spec.max_workers,
            report=report,
        )
        study.points.extend(results)
    else:
        setup = _CellSetup(base_spec, config)
        for spec, scheme, profile in cells:
            study.points.append(
                run_resilience_point(
                    spec,
                    scheme,
                    profile=profile,
                    overload=overload,
                    engine=engine,
                    config=config,
                    setup=setup,
                )
            )
            report.completed += 1
    return study
