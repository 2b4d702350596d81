"""The measurement driver: run, trace, walk, simulate, aggregate.

One :class:`Experiment` measures one (stack, configuration, options)
triple the way Section 4 does:

1. build the functional two-host network and establish the connection,
2. run warm-up roundtrips (TCP's congestion window opens, caches of the
   one-entry-map kind settle into their steady state),
3. trace a single roundtrip on the client,
4. expand the event stream over the configured program image,
5. simulate the trace twice: against cold caches (the paper's Table 6
   cache statistics) and in the steady state (Table 7 processing time,
   iCPI/mCPI),
6. assemble end-to-end latency (Tables 4/5).

Samples repeat the whole procedure with different allocator jitter seeds,
reproducing the run-to-run variance the paper reports as +-sigma.
"""

from __future__ import annotations

import os
import statistics
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.api.settings import (
    ENGINES as ENGINES,  # re-export: the harness is ENGINES' legacy home
    Settings,
)
from repro.arch.simcache import simulate_cold_and_steady_cached
from repro.arch.simulator import MachineSimulator, SimResult
from repro.core.fastwalk import FastWalker
from repro.faults import chaos
from repro.faults.guard import (
    DivergenceReport,
    EngineDivergence,
    compare_results,
)
from repro.faults.plan import FaultPlan, InjectedFault
from repro.core.walker import (
    EnterEvent,
    Event,
    ExitEvent,
    MarkEvent,
    Walker,
    WalkResult,
)
from repro.harness.configs import (
    BuildResult,
    build_configured_program,
    build_configured_program_cached,
)
from repro.core.layout import LayoutStrategy
from repro.harness.latency import LatencyModel
from repro.protocols.options import Section2Options
from repro.protocols.stacks import (
    build_rpc_network,
    build_tcpip_network,
    establish,
)
from repro.trace.tracer import Tracer

DEFAULT_WARMUP_ROUNDTRIPS = 25
#: paper: ten samples for TCP/IP, five for RPC
DEFAULT_SAMPLES = {"tcpip": 10, "rpc": 5}

# ENGINES now lives in repro.api.settings (re-exported here for the many
# callers that import it from the harness)


def resolve_engine(engine: Optional[str] = None) -> str:
    """Deprecated: use :meth:`repro.api.Settings.from_env` instead.

    Kept as a shim so legacy imports keep working; the precedence
    (explicit arg > ``$REPRO_SIM_ENGINE`` > ``fast``) and the error
    message for unknown engines are unchanged.
    """
    warnings.warn(
        "resolve_engine() is deprecated; resolve the engine through "
        "repro.api.Settings.from_env(engine=...).engine instead",
        DeprecationWarning,
        stacklevel=2,
    )
    return Settings.from_env(engine=engine).engine


def verify_ir_enabled() -> bool:
    """Deprecated: use :attr:`repro.api.Settings.verify_ir` instead.

    When ``REPRO_VERIFY_IR=1``, every experiment build runs the
    structural verifier of :mod:`repro.analysis.verify` after each
    transformation stage and fails loudly the moment a transform
    produces malformed IR.  The flag is now resolved once per run by
    :meth:`repro.api.Settings.from_env`; this shim keeps legacy imports
    working.
    """
    warnings.warn(
        "verify_ir_enabled() is deprecated; read "
        "repro.api.Settings.from_env().verify_ir instead",
        DeprecationWarning,
        stacklevel=2,
    )
    return Settings.from_env().verify_ir


def _ir_verify_hook(stage: str, build: BuildResult) -> None:
    from repro.analysis.verify import assert_well_formed

    assert_well_formed(build.program, stage=stage)


# --------------------------------------------------------------------------- #
# captured-event memoization                                                  #
# --------------------------------------------------------------------------- #

#: (stack, opts, warmup, seed) -> pristine (events, data_env).  The same
#: functional run feeds every build configuration (layout changes code
#: addresses, never behaviour), so one capture serves all six configs of a
#: sweep.  Walks mutate list-valued conds in place, so the memo hands out
#: clones and keeps its own copy untouched.
_capture_memo: Dict[Tuple, Tuple[List[Event], Dict[str, int]]] = {}
_CAPTURE_MEMO_MAX = 64


def _clone_events(events: List[Event]) -> List[Event]:
    out: List[Event] = []
    for ev in events:
        if isinstance(ev, EnterEvent):
            out.append(EnterEvent(
                ev.fn,
                {k: (list(v) if isinstance(v, list) else v)
                 for k, v in ev.conds.items()},
                dict(ev.data),
            ))
        elif isinstance(ev, ExitEvent):
            out.append(ExitEvent(ev.fn))
        else:
            out.append(MarkEvent(ev.name))
    return out


def clear_capture_memo() -> None:
    _capture_memo.clear()


@dataclass
class SampleResult:
    """One traced roundtrip, fully simulated."""

    events: List[Event]
    walk: WalkResult
    cold: SimResult
    steady: SimResult
    roundtrip_us: float
    #: faults the experiment's :class:`FaultPlan` injected into this walk
    faults: List[InjectedFault] = field(default_factory=list)

    @property
    def trace_length(self) -> int:
        return self.walk.length

    @property
    def processing_us(self) -> float:
        return self.steady.time_us()


@dataclass
class ExperimentResult:
    """Aggregated samples for one (stack, config) cell."""

    stack: str
    config: str
    build: BuildResult
    samples: List[SampleResult] = field(default_factory=list)

    def _values(self, getter: Callable[[SampleResult], float]) -> List[float]:
        return [getter(s) for s in self.samples]

    @property
    def mean_rtt_us(self) -> float:
        return statistics.fmean(self._values(lambda s: s.roundtrip_us))

    @property
    def stdev_rtt_us(self) -> float:
        values = self._values(lambda s: s.roundtrip_us)
        return statistics.stdev(values) if len(values) > 1 else 0.0

    @property
    def mean_processing_us(self) -> float:
        return statistics.fmean(self._values(lambda s: s.processing_us))

    @property
    def stdev_processing_us(self) -> float:
        values = self._values(lambda s: s.processing_us)
        return statistics.stdev(values) if len(values) > 1 else 0.0

    @property
    def mean_trace_length(self) -> float:
        return statistics.fmean(self._values(lambda s: s.trace_length))

    @property
    def mean_icpi(self) -> float:
        return statistics.fmean(self._values(lambda s: s.steady.icpi))

    @property
    def mean_mcpi(self) -> float:
        return statistics.fmean(self._values(lambda s: s.steady.mcpi))

    @property
    def mean_cpi(self) -> float:
        return statistics.fmean(self._values(lambda s: s.steady.cpi))

    @property
    def total_faults(self) -> int:
        return sum(len(s.faults) for s in self.samples)

    def representative(self) -> SampleResult:
        """The sample whose RTT is closest to the mean."""
        mean = self.mean_rtt_us
        return min(self.samples, key=lambda s: abs(s.roundtrip_us - mean))

    # ---- the repro.api Result protocol -------------------------------- #

    def to_json(self) -> Dict[str, object]:
        return {
            "stack": self.stack,
            "config": self.config,
            "samples": len(self.samples),
            "mean_rtt_us": round(self.mean_rtt_us, 3),
            "stdev_rtt_us": round(self.stdev_rtt_us, 3),
            "mean_processing_us": round(self.mean_processing_us, 3),
            "mean_trace_length": round(self.mean_trace_length, 1),
            "mean_icpi": round(self.mean_icpi, 4),
            "mean_mcpi": round(self.mean_mcpi, 4),
            "mean_cpi": round(self.mean_cpi, 4),
            "total_faults": self.total_faults,
        }

    def render(self) -> str:
        return (
            f"{self.stack}/{self.config}: "
            f"rtt {self.mean_rtt_us:.2f} us (sd {self.stdev_rtt_us:.2f}), "
            f"processing {self.mean_processing_us:.2f} us, "
            f"mCPI {self.mean_mcpi:.4f} over {len(self.samples)} samples"
        )

    def check(self) -> List[str]:
        return [] if self.samples else [
            f"{self.stack}/{self.config}: no samples measured"
        ]


class Experiment:
    """Runs the paper's measurement procedure for one configuration."""

    def __init__(
        self,
        stack: str = "tcpip",
        config: str = "STD",
        opts: Optional[Section2Options] = None,
        *,
        warmup: int = DEFAULT_WARMUP_ROUNDTRIPS,
        base_seed: int = 42,
        server_processing_us: Optional[float] = None,
        engine: Optional[str] = None,
        memoize_captures: bool = True,
        fault_plan: Optional[FaultPlan] = None,
        guard_stride: int = 1,
        on_divergence: str = "fallback",
        settings: Optional[Settings] = None,
        layout: Optional[LayoutStrategy] = None,
    ) -> None:
        if stack not in ("tcpip", "rpc"):
            raise ValueError(f"unknown stack {stack!r}")
        self.stack = stack
        self.config = config
        self.opts = opts or Section2Options.improved()
        self.warmup = warmup
        self.base_seed = base_seed
        #: resolved run-wide settings; an explicit ``engine=`` keyword
        #: still wins over both the settings object and the environment
        base = settings if settings is not None else Settings.from_env()
        self.settings = base.with_engine(engine)
        self.engine = self.settings.engine
        #: optional layout override replacing the configuration's default
        #: layout stage (how searched layouts are replayed); forces a
        #: private, uncached build so the shared memo stays pristine
        self.layout_override = layout
        #: benchmarks disable memoization to reproduce the pre-cache
        #: behaviour of capturing every sample's roundtrip from scratch
        self.memoize_captures = memoize_captures
        if fault_plan is not None and fault_plan.stack != stack:
            raise ValueError(
                f"fault plan targets stack {fault_plan.stack!r}, "
                f"experiment runs {stack!r}"
            )
        self.fault_plan = fault_plan
        if guard_stride < 1:
            raise ValueError("guard_stride must be >= 1")
        if on_divergence not in ("fallback", "raise"):
            raise ValueError(
                f"on_divergence must be 'fallback' or 'raise', "
                f"got {on_divergence!r}"
            )
        self.guard_stride = guard_stride
        self.on_divergence = on_divergence
        #: divergence reports the guarded engine collected so far
        self.divergences: List[DivergenceReport] = []
        #: the engine actually driving samples right now; the guarded mode
        #: degrades this to "reference" after a confirmed divergence
        self._live_engine = self.engine
        self.latency = LatencyModel(stack)
        #: for RPC the server always runs the best configuration; its
        #: processing time is a fixed reference supplied by the caller
        #: (or measured once from the client's own steady time)
        self.server_processing_us = server_processing_us

    # ------------------------------------------------------------------ #
    # trace capture                                                      #
    # ------------------------------------------------------------------ #

    def capture_roundtrip(self, seed: int) -> Tuple[List[Event], Dict[str, int]]:
        """Run the functional network; trace the last roundtrip.

        Returns the event stream and the walker data environment derived
        from the client's live kernel objects.  Captures are memoized per
        (stack, options, warmup, seed) — the build configuration does not
        influence functional behaviour — and each call gets a fresh clone
        (walks consume list-valued conds in place).
        """
        if not self.memoize_captures:
            return self._capture_roundtrip_uncached(seed)
        key = (self.stack, self.opts, self.warmup, seed)
        cached = _capture_memo.get(key)
        if cached is not None:
            events, data_env = cached
            return _clone_events(events), dict(data_env)
        events, data_env = self._capture_roundtrip_uncached(seed)
        if len(_capture_memo) >= _CAPTURE_MEMO_MAX:
            _capture_memo.pop(next(iter(_capture_memo)))
        _capture_memo[key] = (events, data_env)
        return _clone_events(events), dict(data_env)

    def _capture_roundtrip_uncached(
        self, seed: int
    ) -> Tuple[List[Event], Dict[str, int]]:
        tracer = Tracer()
        if self.stack == "tcpip":
            net = build_tcpip_network(self.opts, client_tracer=tracer,
                                      jitter_seed=seed)
            establish(net)
            app = net.client.app
            app.run_pingpong(self.warmup)
            net.run_until(lambda: app.replies >= self.warmup)
            tracer.start()
            app.run_pingpong(1)
            net.run_until(lambda: app.replies >= self.warmup + 1)
        else:
            net = build_rpc_network(self.opts, client_tracer=tracer,
                                    jitter_seed=seed)
            app = net.client.app
            app.run_pingpong(self.warmup)
            net.run_until(lambda: app.replies >= self.warmup)
            tracer.start()
            app.run_pingpong(1)
            net.run_until(lambda: app.replies >= self.warmup + 1)
        events = tracer.stop()
        alloc = net.client.stack.allocator
        data_env = {
            "heap": alloc.base,
            "evq": alloc.base + 0x40000,
        }
        return events, data_env

    # ------------------------------------------------------------------ #
    # full runs                                                          #
    # ------------------------------------------------------------------ #

    def run_sample(
        self, build: BuildResult, seed: int, *, sample_index: int = 0
    ) -> SampleResult:
        events, data_env = self.capture_roundtrip(seed)
        faults: List[InjectedFault] = []
        if self.fault_plan is not None:
            events, faults = self.fault_plan.apply(events, seed)
        engine = self._live_engine
        if engine == "guarded":
            walk, cold, steady = self._run_guarded(
                build, events, data_env, seed, sample_index
            )
        elif engine == "fast":
            walk = FastWalker(build.program, data_env).walk(events)
            cold, steady = simulate_cold_and_steady_cached(walk.packed)
        else:
            walk = Walker(build.program, data_env).walk(list(events))
            cold = MachineSimulator().run(walk.trace)
            steady = MachineSimulator().run_steady_state(walk.trace)
        rtt = self.latency.roundtrip_us(
            steady.time_us(), self.server_processing_us
        )
        return SampleResult(events=events, walk=walk, cold=cold,
                            steady=steady, roundtrip_us=rtt, faults=faults)

    def _run_guarded(
        self,
        build: BuildResult,
        events: List[Event],
        data_env: Dict[str, int],
        seed: int,
        sample_index: int,
    ) -> Tuple[WalkResult, SimResult, SimResult]:
        """Fast-engine results, cross-checked against the reference path.

        Every ``guard_stride``-th sample is replayed through
        the reference walker and simulator; a mismatch is recorded as a
        :class:`DivergenceReport` and — under the default ``fallback``
        policy — the reference results are used and the experiment runs
        the reference engine from here on.
        """
        # walks consume list-valued conds in place, so the reference
        # replay needs its own copy of the (possibly faulted) stream
        checked = sample_index % self.guard_stride == 0
        ref_events = _clone_events(events) if checked else []
        walk = FastWalker(build.program, data_env).walk(events)
        cold, steady = simulate_cold_and_steady_cached(walk.packed)
        # chaos hook: a "perturb" rule models a fast-engine bug by
        # skewing the stall count (snapshots are ours to mutate)
        steady.memory.stall_cycles += chaos.perturbation(
            self.config, seed, rules=self.settings.chaos
        )
        if not checked:
            return walk, cold, steady
        ref_walk = Walker(build.program, data_env).walk(ref_events)
        ref_cold = MachineSimulator().run(ref_walk.trace)
        ref_steady = MachineSimulator().run_steady_state(ref_walk.trace)
        mismatches = compare_results((cold, steady), (ref_cold, ref_steady))
        if not mismatches:
            return walk, cold, steady
        report = DivergenceReport(self.stack, self.config, seed, mismatches)
        self.divergences.append(report)
        if self.on_divergence == "raise":
            raise EngineDivergence(report)
        self._live_engine = "reference"
        return ref_walk, ref_cold, ref_steady

    def run(self, samples: Optional[int] = None) -> ExperimentResult:
        if samples is None:
            samples = DEFAULT_SAMPLES[self.stack]
        if self.settings.verify_ir:
            # verification needs to observe every build stage, so it takes
            # the uncached path regardless of engine (results are
            # bit-identical; only build time differs)
            build = build_configured_program(
                self.stack, self.config, self.opts,
                stage_hook=_ir_verify_hook, layout=self.layout_override,
            )
        elif self.layout_override is not None:
            # a custom layout must never leak into the shared build memo
            build = build_configured_program(
                self.stack, self.config, self.opts,
                layout=self.layout_override,
            )
        elif self.engine in ("fast", "guarded"):
            build = build_configured_program_cached(
                self.stack, self.config, self.opts
            )
        else:
            build = build_configured_program(self.stack, self.config, self.opts)
        result = ExperimentResult(stack=self.stack, config=self.config,
                                  build=build)
        for i in range(samples):
            result.samples.append(
                self.run_sample(build, seed=self.base_seed + 17 * i,
                                sample_index=i)
            )
        return result


def run_all_configs(
    stack: str,
    configs: Sequence[str] = ("BAD", "STD", "OUT", "CLO", "PIN", "ALL"),
    *,
    samples: Optional[int] = None,
    opts: Optional[Section2Options] = None,
    engine: Optional[str] = None,
    parallel: Optional[bool] = None,
    max_workers: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    report: Optional["SweepReport"] = None,
    settings: Optional[Settings] = None,
) -> Dict[str, ExperimentResult]:
    """Measure every configuration of one stack (the Table 4 sweep).

    For RPC, the server's fixed processing-time reference is taken from
    the ALL configuration (the paper always ran the best version on the
    server side) — and stays fault-free even under a ``fault_plan``: the
    plan perturbs the measured client, not the reference peer.

    ``parallel=None`` auto-enables the process-pool executor on
    multi-core hosts; ``parallel=False`` forces the serial loop.  Work
    items are deterministic (config, seed) cells, so the parallel sweep
    reproduces the serial one sample for sample (parallel samples carry
    an empty ``events`` list: live event streams hold unpicklable
    closures and stay in the worker).

    Pass a fresh :class:`repro.harness.parallel.SweepReport` as
    ``report`` to observe incidents, retries, serial degradation and
    guarded-engine divergences regardless of which executor ends up
    running the sweep.
    """
    base = settings if settings is not None else Settings.from_env()
    settings = base.with_engine(engine)
    if samples is None:
        samples = DEFAULT_SAMPLES[stack]
    server_ref: Optional[float] = None
    if stack == "rpc":
        best = Experiment(stack, "ALL", opts, settings=settings).run(samples=1)
        server_ref = best.mean_processing_us

    if parallel is None:
        parallel = (os.cpu_count() or 1) > 1 and samples * len(configs) > 1
    if parallel:
        from repro.harness.parallel import run_parallel_sweep

        try:
            return run_parallel_sweep(
                stack, configs, samples=samples, opts=opts,
                server_processing_us=server_ref, settings=settings,
                max_workers=max_workers, fault_plan=fault_plan,
                report=report,
            )
        except Exception:
            # a pool failure (sandboxing, fork limits) degrades to the
            # serial sweep rather than failing the measurement
            if report is not None:
                report.degraded_to_serial = True
                # the serial loop below re-runs everything from scratch
                report.completed = 0
                report.completed_serial = 0

    out: Dict[str, ExperimentResult] = {}
    for config in configs:
        exp = Experiment(stack, config, opts,
                         server_processing_us=server_ref, settings=settings,
                         fault_plan=fault_plan)
        out[config] = exp.run(samples)
        if report is not None:
            report.divergences.extend(exp.divergences)
            report.completed_serial += len(out[config].samples)
            report.completed += len(out[config].samples)
    return out
