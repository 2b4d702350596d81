"""The sweep executor: deterministic (run, sample) cells, serially or
over a self-healing process pool.

A sweep is embarrassingly parallel: each (run, sample) cell captures,
walks and simulates independently, and the seed schedule
(:meth:`Experiment.sample_seed`) is fixed up front.  :func:`run_sweep`
runs any batch of :class:`~repro.api.RunSpec` either spec by spec in
this process or as cells on the pool, and either way each result equals
``api.run(spec)`` sample for sample.  Pool workers build their
``Experiment`` from the spec exactly as ``api.run`` does and return
*slim* sample results — packed walk plus simulation stats — because
live event streams close over functional-net objects (including
lambdas) and cannot cross a process boundary; pooled samples therefore
carry an empty ``events`` list.

The dispatch machinery is generic (:func:`run_parallel_cells`): any
deterministic worker function plus a list of payloads gets the same
resilience the sweep enjoys.  The layout-search evaluator
(:mod:`repro.search.evaluate`) and the resilience study dispatch through
it too.  Dispatch is resilient rather than optimistic:

* a worker exception costs one bounded, backoff-spaced retry of that
  cell (the full payload travels with the cell, so a retried cell is
  bit-identical to a first-try one);
* ``cell_timeout`` bounds how long the run will go without *any* cell
  completing; on a stall the pool is torn down (hung workers cannot be
  cancelled, only terminated) and the stranded cells are re-dispatched
  on a fresh pool;
* cells that exhaust their retries are healed by running them serially
  in the parent process (``serial_fallback=True``) — or, with the
  fallback disabled, fail the run loudly with every outstanding future
  cancelled and the failing (label, seed) cells named;
* every incident lands on the :class:`SweepReport`, so a run that
  *looks* clean is one that provably dispatched and completed every
  cell exactly once.

On fork-based platforms workers inherit the parent's warm caches (builds,
walk templates, simulation results) copy-on-write for free.  A pool that
cannot be created at all degrades :func:`run_sweep` to its serial path.
"""

from __future__ import annotations

import concurrent.futures
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.api.settings import Settings
from repro.core.walker import WalkResult
from repro.faults import chaos
from repro.faults.guard import DivergenceReport

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.api.spec import RunSpec
    from repro.harness.experiment import ExperimentResult, SampleResult

#: cap on the exponential retry backoff, seconds
_MAX_BACKOFF_S = 2.0


@dataclass(frozen=True)
class CellIncident:
    """One non-fatal dispatch failure of one (label, seed) cell."""

    config: str
    seed: int
    attempt: int
    kind: str  # "crash" | "timeout" | "exhausted"
    detail: str

    def render(self) -> str:
        return (f"{self.kind}: ({self.config}, seed {self.seed}) "
                f"attempt {self.attempt}: {self.detail}")

    def to_json(self) -> dict:
        return {
            "config": self.config,
            "seed": self.seed,
            "attempt": self.attempt,
            "kind": self.kind,
            "detail": self.detail,
        }


@dataclass
class SweepReport:
    """What actually happened while a sweep or parallel run executed.

    ``completed`` counts every finished cell however it got there;
    ``completed_serial`` the subset run in-process (a serial sweep, or
    pool cells healed serially).  ``incidents`` are recovered failures,
    ``failures`` permanent ones (``ok()`` is false iff any cell failed
    permanently).  A sweep names its distinct stacks and engines
    ``+``-joined, its runs' configs in order, and the largest per-run
    sample count.
    """

    stack: str = ""
    engine: str = ""
    configs: Tuple[str, ...] = ()
    samples: int = 0
    completed: int = 0
    completed_serial: int = 0
    incidents: List[CellIncident] = field(default_factory=list)
    failures: List[CellIncident] = field(default_factory=list)
    divergences: List[DivergenceReport] = field(default_factory=list)
    pools_restarted: int = 0
    degraded_to_serial: bool = False
    chaos_rules: Tuple[str, ...] = ()

    @property
    def retried(self) -> int:
        return len(self.incidents)

    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        parts = [
            f"{self.stack}/{self.engine}: {self.completed} cells completed"
        ]
        if self.completed_serial:
            parts.append(f"{self.completed_serial} healed serially")
        if self.incidents:
            parts.append(f"{len(self.incidents)} incidents")
        if self.failures:
            parts.append(f"{len(self.failures)} FAILED")
        if self.divergences:
            parts.append(f"{len(self.divergences)} engine divergences")
        if self.pools_restarted:
            parts.append(f"{self.pools_restarted} pool restarts")
        if self.degraded_to_serial:
            parts.append("degraded to serial sweep")
        return ", ".join(parts)

    def to_json(self) -> dict:
        """Structured form for study artifacts (not hand-rolled strings)."""
        return {
            "stack": self.stack,
            "engine": self.engine,
            "configs": list(self.configs),
            "samples": self.samples,
            "completed": self.completed,
            "completed_serial": self.completed_serial,
            "retried": self.retried,
            "incidents": [i.to_json() for i in self.incidents],
            "failures": [i.to_json() for i in self.failures],
            "divergences": [d.to_json() for d in self.divergences],
            "pools_restarted": self.pools_restarted,
            "degraded_to_serial": self.degraded_to_serial,
            "chaos_rules": list(self.chaos_rules),
            "ok": self.ok(),
        }


class SweepError(RuntimeError):
    """A parallel run could not complete every cell; carries the report."""

    def __init__(self, message: str, report: SweepReport) -> None:
        super().__init__(message)
        self.report = report


def _run_cell(
    spec: RunSpec, settings: Settings, sample_index: int, attempt: int = 0
) -> Tuple[SampleResult, List[DivergenceReport]]:
    """Worker: measure one (run, sample) cell; return picklable parts."""
    from repro.harness.experiment import Experiment

    exp = Experiment.from_spec(spec, settings)
    seed = exp.sample_seed(sample_index)
    chaos.maybe_fail(spec.config, seed, attempt, rules=settings.chaos)
    sample = exp.run_sample(exp.build(), seed, sample_index=sample_index)
    sample.events = []
    sample.walk = WalkResult(sample.walk.packed, sample.walk.marks)
    return sample, exp.divergences


def _make_pool(
    max_workers: Optional[int],
) -> concurrent.futures.ProcessPoolExecutor:
    return concurrent.futures.ProcessPoolExecutor(
        max_workers=max_workers, initializer=chaos.mark_worker
    )


def _teardown_pool(pool: concurrent.futures.ProcessPoolExecutor) -> None:
    """Kill a pool without waiting: hung workers never finish on their own.

    ``shutdown`` alone would join the workers; terminating the processes
    (a private attribute, hence the guard) is the only way to reclaim a
    worker stuck in an uncancellable call.
    """
    pool.shutdown(wait=False, cancel_futures=True)
    processes = getattr(pool, "_processes", None)
    if processes:
        for proc in list(processes.values()):
            try:
                proc.terminate()
            except Exception:
                pass


def run_parallel_cells(
    worker: Callable,
    payloads: Sequence[Tuple],
    labels: Sequence[Tuple[str, int]],
    *,
    max_workers: Optional[int] = None,
    retries: int = 2,
    cell_timeout: Optional[float] = None,
    backoff_s: float = 0.05,
    serial_fallback: bool = True,
    report: Optional[SweepReport] = None,
    on_result: Optional[Callable[[int, object], None]] = None,
) -> List:
    """Run ``worker(*payload, attempt)`` per payload on a self-healing pool.

    The generic dispatch core shared by :func:`run_sweep`, the
    layout-search evaluator and the resilience study.  ``worker`` must be a module-level
    (picklable) callable invoked as ``worker(*payloads[i], attempt)``
    where ``attempt`` counts prior dispatches of that cell (0 on the
    first try) — deterministic workers therefore return bit-identical
    results on retries.  ``labels[i]`` is the ``(name, seed)`` pair
    naming cell ``i`` in incidents and errors.

    Returns worker results in payload order.  ``on_result(i, result)``
    fires once per cell as it completes (pool or serial heal), in
    completion order.  Raises :class:`SweepError` (naming every missing
    cell, report attached) if any cell cannot be completed, and
    propagates pool construction failures so callers can fall back to a
    serial loop.
    """
    if len(payloads) != len(labels):
        raise ValueError("payloads and labels must have equal length")
    if report is None:
        report = SweepReport()

    slots: List[Optional[object]] = [None] * len(payloads)
    filled: List[bool] = [False] * len(payloads)
    attempts: Dict[int, int] = {}
    pending: deque = deque(range(len(payloads)))
    serial_queue: List[int] = []

    def record(i: int, result: object, *, serial: bool = False) -> None:
        slots[i] = result
        filled[i] = True
        report.completed += 1
        if serial:
            report.completed_serial += 1
        if on_result is not None:
            on_result(i, result)

    def route_failure(i: int, kind: str, detail: str,
                      *, backoff: bool) -> None:
        """Requeue a failed cell, queue its serial heal, or fail it."""
        name, seed = labels[i]
        attempt = attempts.get(i, 0)
        incident = CellIncident(name, seed, attempt, kind, detail)
        attempts[i] = attempt + 1
        if attempt < retries:
            report.incidents.append(incident)
            if backoff:
                time.sleep(min(backoff_s * (2 ** attempt), _MAX_BACKOFF_S))
            pending.append(i)
        elif serial_fallback:
            report.incidents.append(incident)
            serial_queue.append(i)
        else:
            report.failures.append(CellIncident(
                name, seed, attempt, "exhausted", detail
            ))

    pool = _make_pool(max_workers)
    inflight: Dict[concurrent.futures.Future, int] = {}
    try:
        while pending or inflight:
            while pending:
                i = pending.popleft()
                args = (*payloads[i], attempts.get(i, 0))
                try:
                    future = pool.submit(worker, *args)
                except Exception:
                    # the pool broke between completions; rebuild once
                    # and retry the submit — a second failure propagates
                    _teardown_pool(pool)
                    pool = _make_pool(max_workers)
                    report.pools_restarted += 1
                    future = pool.submit(worker, *args)
                inflight[future] = i

            done, _ = concurrent.futures.wait(
                list(inflight), timeout=cell_timeout,
                return_when=concurrent.futures.FIRST_COMPLETED,
            )
            if not done:
                # stalled: nothing completed within cell_timeout.  Hung
                # workers cannot be cancelled — replace the whole pool
                # and re-dispatch every stranded cell.
                stranded = list(inflight.values())
                inflight.clear()
                _teardown_pool(pool)
                pool = _make_pool(max_workers)
                report.pools_restarted += 1
                for i in stranded:
                    route_failure(
                        i, "timeout",
                        f"no cell completed within {cell_timeout:g}s",
                        backoff=False,
                    )
                continue

            for future in done:
                i = inflight.pop(future)
                try:
                    result = future.result()
                except (Exception,
                        concurrent.futures.CancelledError) as exc:
                    # CancelledError is a BaseException (futures die this
                    # way when a broken pool is replaced mid-sweep)
                    route_failure(i, "crash", repr(exc), backoff=True)
                else:
                    record(i, result)

            if report.failures and not serial_fallback:
                # fatal: cancel everything outstanding and name the cell
                first = report.failures[0]
                raise SweepError(
                    f"sweep cell ({first.config}, seed {first.seed}) "
                    f"failed after {first.attempt + 1} attempt(s): "
                    f"{first.detail}",
                    report,
                )
    finally:
        _teardown_pool(pool)

    # heal exhausted cells in-process: deterministic cells make the
    # serial rerun bit-identical, and chaos crash/hang rules are armed
    # only inside pool workers, so sabotage cannot follow the cell here
    for i in serial_queue:
        result = worker(*payloads[i], attempts.get(i, 0))
        record(i, result, serial=True)

    missing = [labels[i] for i in range(len(payloads)) if not filled[i]]
    if missing:
        named = ", ".join(f"({c}, seed {s})" for c, s in missing)
        raise SweepError(
            f"parallel sweep lost {len(missing)} cell(s): {named}", report
        )
    return slots


def _distinct(values: Sequence[str]) -> str:
    return "+".join(dict.fromkeys(values))


def run_sweep(
    runs: Sequence[RunSpec],
    *,
    settings: Optional[Settings] = None,
    parallel: Optional[bool] = None,
    max_workers: Optional[int] = None,
    retries: int = 2,
    cell_timeout: Optional[float] = None,
    backoff_s: float = 0.05,
    serial_fallback: bool = True,
    report: Optional[SweepReport] = None,
) -> List[ExperimentResult]:
    """Measure every run; results in run order, each equal to ``api.run``.

    ``parallel=None`` pools the (run, sample) cells when the host has
    more than one core and there is more than one cell; ``False`` runs
    spec by spec in this process.  The pool knobs (``max_workers`` to
    ``serial_fallback``) are those of :func:`run_parallel_cells`.  A
    guard divergence's fallback to the reference engine lasts for the
    rest of its run when serial, and for its own cell when pooled.
    Raises :class:`SweepError` (report attached) if a pooled cell cannot
    be completed; a pool that cannot start degrades to the serial path,
    flagged on the report.
    """
    from repro.api import settings_for
    from repro.harness.experiment import (
        DEFAULT_SAMPLES,
        Experiment,
        ExperimentResult,
    )

    base = settings if settings is not None else Settings.from_env()
    resolved = [settings_for(spec, base) for spec in runs]
    exps = [Experiment.from_spec(s, r) for s, r in zip(runs, resolved)]
    counts = [
        s.samples if s.samples is not None else DEFAULT_SAMPLES[s.stack]
        for s in runs
    ]
    if report is None:
        report = SweepReport()
    report.stack = _distinct([s.stack for s in runs])
    report.engine = _distinct([r.engine for r in resolved])
    report.configs = tuple(s.config for s in runs)
    report.samples = max(counts, default=0)
    report.chaos_rules = chaos.rules_summary(base.chaos)

    cells = [(k, i) for k, n in enumerate(counts) for i in range(n)]
    if parallel is None:
        parallel = (os.cpu_count() or 1) > 1 and len(cells) > 1
    if parallel:
        # parent-side builds fill ``result.build`` and warm the build memo
        # that forked workers inherit
        pooled = [
            ExperimentResult(s.stack, s.config, exp.build(), [None] * n)
            for s, exp, n in zip(runs, exps, counts)
        ]

        def absorb(cell_index: int, payload: object) -> None:
            k, i = cells[cell_index]
            sample, divergences = payload
            pooled[k].samples[i] = sample
            report.divergences.extend(divergences)

        try:
            run_parallel_cells(
                _run_cell,
                [(runs[k], resolved[k], i) for k, i in cells],
                [(runs[k].config, exps[k].sample_seed(i)) for k, i in cells],
                max_workers=max_workers, retries=retries,
                cell_timeout=cell_timeout, backoff_s=backoff_s,
                serial_fallback=serial_fallback, report=report,
                on_result=absorb,
            )
            return pooled
        except (OSError, ImportError, NotImplementedError):
            # the pool cannot start here (sandboxing, fork limits): run
            # the serial path instead, which re-runs everything
            report.degraded_to_serial = True
            report.completed = report.completed_serial = 0

    out = []
    for exp, n in zip(exps, counts):
        out.append(exp.run(n))
        report.divergences.extend(exp.divergences)
        report.completed += n
        report.completed_serial += n
    return out
