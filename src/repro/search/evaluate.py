"""Candidate-layout scoring: static prefilter plus full engine evaluation.

One :class:`CellEvaluator` owns a *private* build of its (stack, config)
cell — candidate layouts are applied in place, so the shared build memo
must never see this program — plus one captured roundtrip.  Scoring a
candidate is then: re-lay the program out, drop the walk-template cache
(templates embed absolute pcs), walk the captured events (walks never
modify them), and simulate cold + steady on the evaluator's engine.  On
the fast engine identical candidate layouts produce identical packed
traces, so duplicate candidates across rounds hit the simulation result
cache and cost microseconds, not milliseconds.

The static prefilter avoids the walk+simulate cost entirely for
obviously-bad candidates: it combines the shared placement-cost model
(:func:`repro.core.placement.replacement_misses` over the cell's block
trace — the same cost micro-positioning minimizes) with the static
eviction graph of :func:`repro.analysis.conflicts.predict_conflicts`,
weighting each predicted-likely conflict pair by how often the trace
actually touches both functions.

Scores order lexicographically — steady mCPI, then cold i-cache misses,
then end-to-end RTT — matching the paper's priorities (steady-state
memory CPI is the headline number; cold misses and latency break ties).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.settings import Settings
from repro.arch.memory import MemoryConfig
from repro.core.layout import BLOCK
from repro.core.metrics import trace_block_touches
from repro.core.placement import steady_replacement_misses
from repro.core.program import Program
from repro.search.artifact import NSETS

Placements = Dict[str, int]

#: b-cache sets at block granularity (2 MB direct-mapped, 32 B blocks)
NBSETS = MemoryConfig.bcache_size // MemoryConfig.block_size
#: static-cost weights, from the modeled stall latencies: a replaced
#: i-block that hits the b-cache stalls ~10 cycles; one evicted from the
#: b-cache as well pays the main-memory penalty on top
ICACHE_MISS_CYCLES = MemoryConfig.bcache_hit_cycles
BCACHE_MISS_CYCLES = (
    MemoryConfig.main_memory_cycles - MemoryConfig.bcache_hit_cycles
)


@dataclass(frozen=True, order=True)
class Score:
    """Lexicographic candidate score (field order IS the comparison)."""

    steady_mcpi: float
    cold_icache_misses: int
    rtt_us: float

    def key(self) -> Tuple[float, int, float]:
        return (self.steady_mcpi, self.cold_icache_misses, self.rtt_us)

    def to_json(self) -> Dict[str, float]:
        return {
            "steady_mcpi": self.steady_mcpi,
            "cold_icache_misses": self.cold_icache_misses,
            "rtt_us": self.rtt_us,
        }


def _clear_walk_templates(program: Program) -> None:
    # compiled walk templates embed absolute pcs; stale templates after a
    # re-layout would silently walk the OLD image
    program.__dict__.pop("_walk_templates", None)


class CellEvaluator:
    """Scores candidate placements for one (stack, config, opts) cell."""

    def __init__(
        self,
        stack: str,
        config: str,
        opts=None,
        *,
        settings: Optional[Settings] = None,
        base_seed: int = 42,
    ) -> None:
        from repro.harness.configs import build_configured_program
        from repro.harness.experiment import Experiment, walk_events

        self.stack = stack
        self.config = config
        self.settings = settings if settings is not None else Settings.from_env()
        self.engine = self.settings.engine
        self.base_seed = base_seed
        self._exp = Experiment(
            stack, config, opts, settings=self.settings, base_seed=base_seed
        )
        # private, uncached build: candidates re-lay this program out
        self.build = build_configured_program(stack, config, opts)
        self.program = self.build.program
        self.default_placements: Placements = {
            name: self.program.address_of(name)
            for name in self.program.names()
        }
        self._events, self._data_env = self._exp.capture_roundtrip(base_seed)
        #: the captured roundtrip walked on the default layout
        self.walk = walk_events(self.program, self._events, self._data_env, self.engine)
        # the block trace (function, block-offset) is layout-independent:
        # compute it once on the default layout and reuse for every
        # candidate's static cost
        self.block_trace = trace_block_touches(self.walk.trace, self.program)
        self.touch_freq: Dict[str, int] = {}
        for name, _ in self.block_trace:
            self.touch_freq[name] = self.touch_freq.get(name, 0) + 1
        # the trace digest is likewise layout-independent (the walk never
        # changes, only its pcs): one digest re-binds to every candidate
        # layout for the certified lower-bound prefilter
        from repro.analysis.bounds import digest_trace

        self.digest = digest_trace(self.walk.packed, self.program)
        self.evaluated = 0

    # ---- static prefilter ------------------------------------------- #

    def static_cost(self, placements: Placements) -> Tuple[int, int]:
        """(stall estimate, weighted likely-conflicts) — cheap, no walk.

        The first component replays the block trace through the shared
        steady-state placement-cost model twice — once at i-cache
        geometry, once at b-cache geometry, the latter scaled by its far
        costlier miss penalty (a replaced i-block usually hits the
        10-cycle b-cache, but a block evicted from the b-cache too pays
        main memory) — so pessimally spread layouts (BAD) rank as badly
        as they simulate.  The second lays the candidate out and asks
        the static conflict predictor for likely (mainline-vs-mainline)
        pairs, each weighted by the rarer partner's touch count.
        """
        from repro.analysis.conflicts import predict_conflicts

        assignment = {
            name: addr // BLOCK for name, addr in placements.items()
        }
        repl_i = steady_replacement_misses(
            self.block_trace, assignment, icache_blocks=NSETS
        )
        repl_b = steady_replacement_misses(
            self.block_trace, assignment, icache_blocks=NBSETS
        )
        repl = repl_i * ICACHE_MISS_CYCLES + repl_b * BCACHE_MISS_CYCLES
        self.program.layout(lambda p: dict(placements))
        predicted = predict_conflicts(self.program)
        weighted = 0
        for a, b in sorted(predicted.likely):
            fa = self.touch_freq.get(a, 0)
            fb = self.touch_freq.get(b, 0)
            if fa and fb:
                weighted += min(fa, fb)
        return (repl, weighted)

    def prefilter(
        self, candidates: Sequence[Placements], keep: int
    ) -> List[int]:
        """Indices of the ``keep`` statically-cheapest candidates.

        Stable: ties keep the earlier candidate, so generation order
        (incumbent first) survives into the simulated set.
        """
        costs = [self.static_cost(p) for p in candidates]
        ranked = sorted(range(len(candidates)), key=lambda i: (costs[i], i))
        return sorted(ranked[: max(0, keep)])

    def steady_lower_bound(self, placements: Placements) -> float:
        """Sound lower bound on this candidate's steady mCPI — no walk.

        Re-binds the cell's one trace digest to the candidate layout and
        runs the abstract interpreter (:mod:`repro.analysis.bounds`).
        The bound is *certified*: ``steady_lower_bound(p) <=
        score(p).steady_mcpi`` for every candidate, which is what lets
        the search driver drop provably-worse candidates without paying
        for their simulation.
        """
        from repro.analysis.bounds import bounds_from_digest

        return bounds_from_digest(self.digest, placements).steady.lower

    # ---- full evaluation -------------------------------------------- #

    def score(self, placements: Placements) -> Score:
        """Walk + simulate one candidate; bit-identical across engines."""
        from repro.harness.experiment import simulate_walk, walk_events

        self.program.layout(lambda p: dict(placements))
        _clear_walk_templates(self.program)
        walk = walk_events(self.program, self._events, self._data_env, self.engine)
        cold, steady = simulate_walk(walk, self.engine)
        rtt = self._exp.latency.roundtrip_us(
            steady.time_us(), self._exp.server_processing_us
        )
        self.evaluated += 1
        return Score(steady.mcpi, cold.memory.icache.misses, rtt)

    def score_placements(
        self,
        batch: Sequence[Placements],
        *,
        parallel: bool = False,
        max_workers: Optional[int] = None,
        report=None,
    ) -> List[Score]:
        """Score a batch, optionally on the self-healing process pool."""
        if not parallel or len(batch) < 2:
            return [self.score(p) for p in batch]
        from repro.harness.parallel import run_parallel_cells

        payloads = [
            (self.stack, self.config, self.build.opts, self.base_seed,
             self.engine, placements)
            for placements in batch
        ]
        labels = [(f"cand{i}", self.base_seed) for i in range(len(batch))]
        scores = run_parallel_cells(
            _score_candidate_worker, payloads, labels,
            max_workers=max_workers, report=report,
        )
        self.evaluated += len(batch)
        return scores

    def restore_default(self) -> None:
        """Put the private program back on its default layout."""
        self.program.layout(lambda p: dict(self.default_placements))
        _clear_walk_templates(self.program)


#: per-worker-process evaluator cache: pool workers score many candidates
#: of the same cell, so the build/capture cost is paid once per process
_worker_evaluators: Dict[Tuple, CellEvaluator] = {}


def _score_candidate_worker(
    stack: str,
    config: str,
    opts,
    base_seed: int,
    engine: str,
    placements: Placements,
    attempt: int = 0,
) -> Score:
    """Pool worker for :meth:`CellEvaluator.score_placements`."""
    key = (stack, config, opts, base_seed, engine)
    evaluator = _worker_evaluators.get(key)
    if evaluator is None:
        evaluator = CellEvaluator(
            stack, config, opts,
            settings=Settings(engine=engine), base_seed=base_seed,
        )
        _worker_evaluators[key] = evaluator
    return evaluator.score(placements)
