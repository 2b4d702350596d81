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

import statistics
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    cast,
)

from repro.api.settings import Settings
from repro.arch.simcache import simulate_cold_and_steady_cached
from repro.arch.simulator import AlphaConfig, MachineSimulator, SimResult
from repro.core.fastwalk import FastWalker
from repro.core.program import Program
from repro.faults import chaos
from repro.faults.guard import (
    DivergenceReport,
    EngineDivergence,
    compare_results,
)
from repro.faults.plan import FaultPlan, InjectedFault
from repro.core.walker import DrefHook, Event, Walker, WalkResult, clone_events
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

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.api.spec import RunSpec
    from repro.harness.parallel import SweepReport

DEFAULT_WARMUP_ROUNDTRIPS = 25
#: paper: ten samples for TCP/IP, five for RPC
DEFAULT_SAMPLES = {"tcpip": 10, "rpc": 5}


def _ir_verify_hook(stage: str, build: BuildResult) -> None:
    from repro.analysis.verify import assert_well_formed

    assert_well_formed(build.program, stage=stage)


def _layout_strategy(layout: Optional[object]) -> Optional[LayoutStrategy]:
    """A spec's layout override as a ``LayoutStrategy`` callable."""
    if layout is None:
        return None
    strategy = getattr(layout, "strategy", None)
    if callable(strategy):  # a LayoutArtifact
        built: LayoutStrategy = strategy()
        return built
    if callable(layout):
        return cast(LayoutStrategy, layout)
    raise TypeError(
        f"RunSpec.layout must be a LayoutArtifact or a LayoutStrategy "
        f"callable, got {type(layout).__name__}"
    )


# --------------------------------------------------------------------------- #
# captured-event memoization                                                  #
# --------------------------------------------------------------------------- #

#: (stack, opts, warmup, seed) -> pristine (events, data_env).  The same
#: functional run feeds every build configuration (layout changes code
#: addresses, never behaviour), so one capture serves all six configs of a
#: sweep.  Walks never modify their events, but fault plans rewrite conds
#: in place, so the memo hands out clones and keeps its own copy untouched.
_capture_memo: Dict[Tuple, Tuple[List[Event], Dict[str, int]]] = {}
_CAPTURE_MEMO_MAX = 64


def clear_capture_memo() -> None:
    _capture_memo.clear()


# --------------------------------------------------------------------------- #
# the engine switch                                                           #
# --------------------------------------------------------------------------- #

def walk_events(
    program: Program,
    events: Sequence[Event],
    data_env: Mapping[str, int],
    engine: str,
    *,
    on_dref: Optional[DrefHook] = None,
) -> WalkResult:
    """Expand ``events`` over ``program`` with ``engine``'s walker: the
    template-rebinding :class:`FastWalker` on "fast", the oracle
    :class:`Walker` on "reference"; both give the same trace and make the
    same ``on_dref`` calls (e.g. :meth:`DataSlots.record`)."""
    walker = FastWalker if engine == "fast" else Walker
    return walker(program, data_env).walk(events, on_dref=on_dref)


def simulate_walk(
    walk: WalkResult, engine: str, config: Optional[AlphaConfig] = None
) -> Tuple[SimResult, SimResult]:
    """(cold, steady) results of ``walk`` on ``engine``'s simulator: the
    cached fused kernel on "fast", the object-per-instruction oracle on
    "reference"."""
    if engine == "fast":
        return simulate_cold_and_steady_cached(walk.packed, config)
    trace = walk.trace
    return (
        MachineSimulator(config).run(trace),
        MachineSimulator(config).run_steady_state(trace),
    )


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
        guard_stride: int = 0,
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
        if guard_stride < 0:
            raise ValueError("guard_stride must be >= 0 (0 turns guarding off)")
        if on_divergence not in ("fallback", "raise"):
            raise ValueError(
                f"on_divergence must be 'fallback' or 'raise', "
                f"got {on_divergence!r}"
            )
        #: replay every Nth fast sample through the reference path (0: off)
        self.guard_stride = guard_stride
        self.on_divergence = on_divergence
        #: divergence reports the guard collected so far
        self.divergences: List[DivergenceReport] = []
        #: the engine actually driving samples right now; the guard
        #: degrades this to "reference" after a confirmed divergence
        self._live_engine = self.engine
        self.latency = LatencyModel(stack)
        #: for RPC the server always runs the best configuration; its
        #: processing time is a fixed reference supplied by the caller
        #: (or measured once from the client's own steady time)
        self.server_processing_us = server_processing_us

    @classmethod
    def from_spec(cls, spec: RunSpec, settings: Settings) -> "Experiment":
        """The experiment measuring ``spec`` under its resolved settings
        (:func:`repro.api.settings_for`)."""
        return cls(
            spec.stack,
            spec.config,
            spec.options,
            base_seed=spec.seed,
            fault_plan=spec.fault_plan,
            guard_stride=spec.guard_stride,
            on_divergence=spec.on_divergence,
            server_processing_us=spec.server_processing_us,
            settings=settings,
            layout=_layout_strategy(spec.layout),
        )

    # ------------------------------------------------------------------ #
    # trace capture                                                      #
    # ------------------------------------------------------------------ #

    def capture_roundtrip(self, seed: int) -> Tuple[List[Event], Dict[str, int]]:
        """Run the functional network; trace the last roundtrip.

        Returns the event stream and the walker data environment derived
        from the client's live kernel objects.  Captures are memoized per
        (stack, options, warmup, seed) — the build configuration does not
        influence functional behaviour — and each call gets a fresh clone
        (fault plans rewrite conds in place).
        """
        if not self.memoize_captures:
            return self._capture_roundtrip_uncached(seed)
        key = (self.stack, self.opts, self.warmup, seed)
        cached = _capture_memo.get(key)
        if cached is not None:
            events, data_env = cached
            return clone_events(events), dict(data_env)
        events, data_env = self._capture_roundtrip_uncached(seed)
        if len(_capture_memo) >= _CAPTURE_MEMO_MAX:
            _capture_memo.pop(next(iter(_capture_memo)))
        _capture_memo[key] = (events, data_env)
        return clone_events(events), dict(data_env)

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

    def build(self) -> BuildResult:
        """This experiment's program; the one place a build path is chosen."""
        if self.settings.verify_ir:
            # verification needs to observe every build stage, so it takes
            # the uncached path regardless of engine (results are
            # bit-identical; only build time differs)
            return build_configured_program(
                self.stack, self.config, self.opts,
                stage_hook=_ir_verify_hook, layout=self.layout_override,
            )
        if self.layout_override is not None:
            # a custom layout must never leak into the shared build memo
            return build_configured_program(
                self.stack, self.config, self.opts,
                layout=self.layout_override,
            )
        if self.engine == "fast":
            return build_configured_program_cached(
                self.stack, self.config, self.opts
            )
        return build_configured_program(self.stack, self.config, self.opts)

    def sample_seed(self, index: int) -> int:
        """Allocator jitter seed of sample ``index`` (a fixed schedule)."""
        return self.base_seed + 17 * index

    def run_sample(
        self, build: BuildResult, seed: int, *, sample_index: int = 0
    ) -> SampleResult:
        events, data_env = self.capture_roundtrip(seed)
        faults: List[InjectedFault] = []
        if self.fault_plan is not None:
            events, faults = self.fault_plan.apply(events, seed)
        engine = self._live_engine
        walk = walk_events(build.program, events, data_env, engine)
        cold, steady = simulate_walk(walk, engine)
        if engine == "fast" and self.guard_stride:
            walk, cold, steady = self._guard(
                build, events, data_env, seed, sample_index, walk, cold, steady
            )
        rtt = self.latency.roundtrip_us(
            steady.time_us(), self.server_processing_us
        )
        return SampleResult(events=events, walk=walk, cold=cold,
                            steady=steady, roundtrip_us=rtt, faults=faults)

    def _guard(
        self,
        build: BuildResult,
        events: List[Event],
        data_env: Dict[str, int],
        seed: int,
        sample_index: int,
        walk: WalkResult,
        cold: SimResult,
        steady: SimResult,
    ) -> Tuple[WalkResult, SimResult, SimResult]:
        """Check one fast-engine sample when ``guard_stride`` is on.

        Every ``guard_stride``-th sample's events are replayed on the
        reference walker and simulator; a mismatch is recorded as a
        :class:`DivergenceReport` and — under the default ``fallback``
        policy — the reference results are used and the experiment runs
        the reference engine from here on.
        """
        # chaos hook: a "perturb" rule models a fast-engine bug by
        # skewing the stall count (snapshots are ours to mutate)
        steady.memory.stall_cycles += chaos.perturbation(
            self.config, seed, rules=self.settings.chaos
        )
        if sample_index % self.guard_stride:
            return walk, cold, steady
        ref_walk = walk_events(build.program, events, data_env, "reference")
        ref_cold, ref_steady = simulate_walk(ref_walk, "reference")
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
        build = self.build()
        result = ExperimentResult(stack=self.stack, config=self.config,
                                  build=build)
        for i in range(samples):
            result.samples.append(
                self.run_sample(build, self.sample_seed(i), sample_index=i)
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
    report: Optional[SweepReport] = None,
    settings: Optional[Settings] = None,
) -> Dict[str, ExperimentResult]:
    """Measure every configuration of one stack (the Table 4 sweep).

    The paper's recipe on top of :func:`repro.api.sweep`: for RPC the
    server's fixed processing-time reference is one fault-free sample of
    the ALL configuration (the paper always ran the best version on the
    server side), measured first and handed to every run as
    ``server_processing_us`` — a ``fault_plan`` perturbs the measured
    client, never the reference peer.  ``parallel``, ``max_workers`` and
    ``report`` go to the sweep executor unchanged.
    """
    from repro import api

    base = settings if settings is not None else Settings.from_env()
    base = base.with_engine(engine)
    server_ref: Optional[float] = None
    if stack == "rpc":
        best = api.run(api.RunSpec(stack, "ALL", opts, samples=1), settings=base)
        server_ref = best.mean_processing_us
    runs = tuple(
        api.RunSpec(stack, config, opts, samples=samples, fault_plan=fault_plan,
                    server_processing_us=server_ref)
        for config in configs
    )
    results = api.sweep(
        api.SweepSpec(runs, parallel=parallel, max_workers=max_workers),
        settings=base, report=report,
    )
    return dict(zip(configs, results))
