"""The search loop: generate → prefilter → simulate → select.

:func:`search_cell` runs a seeded, budgeted layout search over one
(stack, config) cell.  Round structure:

1. **Seed round** — three deterministic candidates enter first: the
   incumbent (the cell's default layout, which therefore bounds the
   result: the search can never regress the baseline), the
   Pettis–Hansen-style affinity ordering, and the conflict-graph placer
   seeded from an observed :class:`~repro.obs.conflicts.ConflictMatrix`.
2. **Mutation rounds** — the current elite genomes spawn local-search
   mutants (swap / rotate / re-pin moves) until the simulation budget is
   spent.
3. **Prefilter** — each round, the statically-cheapest half of the fresh
   candidates (shared placement-cost model + static conflict predictor)
   goes on to full simulation; the rest are dropped without paying for a
   walk.

Every random choice draws from one ``random.Random(seed)``, candidate
scores are bit-identical across engines, and selection ties break by
generation order — so equal (cell, budget, seed) searches return
bit-identical winners on the fast and reference engines alike.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.api.settings import Settings
from repro.api.spec import DEFAULT_BUDGET
from repro.obs.conflicts import ConflictMatrix
from repro.search.artifact import Genome, LayoutArtifact, pack_genome
from repro.search.evaluate import CellEvaluator, Placements, Score
from repro.search.generators import (
    affinity_genome,
    call_sequence,
    conflict_genome,
    incumbent_genome,
    mutate,
)

#: elite genomes kept as mutation parents
ELITE = 4
#: fresh candidates generated per round (before prefiltering)
ROUND_SIZE = 16


@dataclass
class SearchResult:
    """Everything a search run found, measured, and rejected."""

    stack: str
    config: str
    seed: int
    budget: int
    engine: str
    artifact: LayoutArtifact
    best_score: Score
    baseline_score: Score
    bipartite_score: Optional[Score] = None
    micro_score: Optional[Score] = None
    #: candidates that paid for full simulation (baselines excluded)
    evaluated: int = 0
    generated: int = 0
    prefiltered_out: int = 0
    #: candidates dropped by the certified bounds prefilter: their static
    #: steady lower bound exceeded the round-start elite floor, so they
    #: provably could not improve the result — each one is a simulation
    #: the search did not have to pay for
    bounds_pruned: int = 0
    rounds: int = 0
    #: (round, best steady mCPI so far) per round
    history: List[Tuple[int, float]] = field(default_factory=list)
    #: statically-rejected candidates (only with ``keep_rejected=True``)
    rejected: List[Placements] = field(default_factory=list)

    @property
    def improved(self) -> bool:
        return self.best_score < self.baseline_score

    @property
    def sims_avoided(self) -> int:
        """Simulations the certified bounds prefilter saved."""
        return self.bounds_pruned

    def summary(self) -> str:
        lines = [
            f"layout search: {self.stack}/{self.config} "
            f"(seed {self.seed}, budget {self.budget}, {self.engine} engine)",
            f"  evaluated {self.evaluated} candidates in {self.rounds} "
            f"round(s); {self.prefiltered_out} prefiltered out of "
            f"{self.generated} generated; {self.bounds_pruned} "
            f"bounds-pruned (simulations avoided)",
        ]

        def row(label: str, score: Optional[Score]) -> str:
            if score is None:
                return f"  {label:<18} -"
            return (
                f"  {label:<18} mCPI {score.steady_mcpi:.4f}  "
                f"cold-miss {score.cold_icache_misses:5d}  "
                f"rtt {score.rtt_us:8.2f} us"
            )

        lines.append(row("baseline (default)", self.baseline_score))
        lines.append(row("bipartite", self.bipartite_score))
        lines.append(row("micro-positioned", self.micro_score))
        lines.append(row("best found", self.best_score))
        verdict = (
            "improves on" if self.improved else "matches"
        )
        lines.append(
            f"  best ({self.artifact.origin}, round "
            f"{self.artifact.round_found}) {verdict} the baseline"
        )
        return "\n".join(lines)

    # ---- the repro.api Result protocol -------------------------------- #

    def render(self) -> str:
        return self.summary()

    def check(self) -> List[str]:
        """A winner that scores worse than the baseline it was seeded with
        would mean the elite loop dropped a candidate — never clean."""
        if self.best_score > self.baseline_score:
            return [
                f"{self.stack}/{self.config}: best score "
                f"{self.best_score.steady_mcpi:.4f} regressed past the "
                f"baseline {self.baseline_score.steady_mcpi:.4f}"
            ]
        return []

    def to_json(self) -> Dict[str, object]:
        return {
            "stack": self.stack,
            "config": self.config,
            "seed": self.seed,
            "budget": self.budget,
            "engine": self.engine,
            "best": self.best_score.to_json(),
            "baseline": self.baseline_score.to_json(),
            "bipartite": (
                self.bipartite_score.to_json()
                if self.bipartite_score else None
            ),
            "micro": (
                self.micro_score.to_json() if self.micro_score else None
            ),
            "evaluated": self.evaluated,
            "generated": self.generated,
            "prefiltered_out": self.prefiltered_out,
            "bounds_pruned": self.bounds_pruned,
            "sims_avoided": self.sims_avoided,
            "rounds": self.rounds,
            "history": [list(h) for h in self.history],
            "artifact": self.artifact.to_json(),
        }


def _profile_conflicts(evaluator: CellEvaluator) -> ConflictMatrix:
    """One attributed cold+steady pass of the evaluator's default-layout
    walk (so it must run before any candidate re-lays the program out);
    returns the steady-state eviction matrix that seeds the conflict
    placer."""
    from repro.harness.profile import attribute_passes

    return attribute_passes(evaluator.walk, evaluator.program)[3].conflicts


def _fingerprint(placements: Placements) -> Tuple:
    return tuple(sorted(placements.items()))


def search_cell(
    stack: str,
    config: str,
    *,
    opts=None,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    base_seed: int = 42,
    settings: Optional[Settings] = None,
    parallel: bool = False,
    max_workers: Optional[int] = None,
    prefilter: bool = True,
    certify_prune: bool = True,
    keep_rejected: bool = False,
    micro_baseline: bool = False,
) -> SearchResult:
    """Search one cell for a better layout; deterministic in (seed, budget).

    ``budget`` bounds full simulations of *candidates* (baseline scoring
    is free).  ``micro_baseline`` additionally scores the paper's
    micro-positioned layout for the report (it is trace-greedy and
    costs a few seconds, so it is opt-in).  ``keep_rejected`` records
    the placements the static prefilter dropped, for soundness audits.

    ``certify_prune`` enables the certified bounds prefilter: once the
    elite pool is full, candidates whose *sound* static steady-mCPI
    lower bound (:meth:`CellEvaluator.steady_lower_bound`) exceeds the
    round-start elite floor are dropped without simulation.  Unlike the
    heuristic ``prefilter``, this cannot change the outcome — pruned
    candidates provably could not beat the floor — so searches with and
    without it return bit-identical artifacts; ``bounds_pruned`` counts
    the simulations it saved.
    """
    if budget < 1:
        raise ValueError("search budget must be >= 1")
    rng = random.Random(seed)
    evaluator = CellEvaluator(
        stack, config, opts, settings=settings, base_seed=base_seed
    )
    program = evaluator.program

    # seed genomes read the pristine default layout — build them before
    # any scoring re-lays the program out
    incumbent = incumbent_genome(program)
    calls = call_sequence(evaluator._events, program)
    matrix = _profile_conflicts(evaluator)
    seed_pool: List[Tuple[str, Genome]] = [
        ("incumbent", incumbent),
        ("affinity", affinity_genome(calls, program)),
        ("conflict", conflict_genome(matrix, program, calls)),
    ]

    # ---- baselines (not charged against the budget) ------------------ #
    baseline = evaluator.score(evaluator.default_placements)
    from repro.core.layout import bipartite_layout, micro_positioning_layout
    from repro.protocols.models.library import (
        COLD_LIBRARY_FUNCTIONS,
        HOT_LIBRARY_FUNCTIONS,
    )

    bipartite_placements = bipartite_layout(
        evaluator.build.hot_functions + list(COLD_LIBRARY_FUNCTIONS),
        list(HOT_LIBRARY_FUNCTIONS),
    )(program)
    bipartite_score = evaluator.score(bipartite_placements)
    micro_score = None
    if micro_baseline:
        micro_placements = micro_positioning_layout(
            evaluator.block_trace
        )(program)
        micro_score = evaluator.score(micro_placements)

    # the incumbent IS the starting best: search never regresses it
    best_score = baseline
    best_genome = incumbent
    best_placements = dict(evaluator.default_placements)
    best_origin = "default"
    best_round = 0
    elite: List[Tuple[Score, int, str, Genome]] = []
    seen = {_fingerprint(evaluator.default_placements)}

    result = SearchResult(
        stack=stack, config=config, seed=seed, budget=budget,
        engine=evaluator.engine, artifact=None,  # filled at the end
        best_score=baseline, baseline_score=baseline,
        bipartite_score=bipartite_score, micro_score=micro_score,
    )
    result.history.append((0, best_score.steady_mcpi))

    generation = 0
    round_no = 0
    while result.evaluated < budget:
        round_no += 1
        remaining = budget - result.evaluated

        # ---- generate ------------------------------------------------ #
        fresh: List[Tuple[str, Genome, Placements]] = []
        if round_no == 1:
            for origin, genome in seed_pool:
                placements = pack_genome(program, genome)
                fp = _fingerprint(placements)
                if fp not in seen:
                    seen.add(fp)
                    fresh.append((origin, genome, placements))
        parents = [
            (origin, genome) for _, _, origin, genome in sorted(
                elite, key=lambda e: (e[0], e[1])
            )[:ELITE]
        ] or list(seed_pool)
        attempts = 0
        while len(fresh) < ROUND_SIZE and attempts < ROUND_SIZE * 8:
            attempts += 1
            parent_origin, parent = parents[
                rng.randrange(len(parents))
            ]
            child = mutate(parent, rng)
            placements = pack_genome(program, child)
            fp = _fingerprint(placements)
            if fp in seen:
                continue
            seen.add(fp)
            # provenance names the seed family, not the mutation depth
            origin = (
                parent_origin
                if parent_origin.startswith("mutate:")
                else f"mutate:{parent_origin}"
            )
            fresh.append((origin, child, placements))
        if not fresh:
            break  # the neighbourhood is exhausted
        result.generated += len(fresh)

        # ---- prefilter ----------------------------------------------- #
        if prefilter:
            keep = min(remaining, max(1, len(fresh) // 2))
        else:
            keep = min(remaining, len(fresh))
        kept_idx = evaluator.prefilter(
            [placements for _, _, placements in fresh], keep
        )
        kept = [fresh[i] for i in kept_idx]
        dropped = [
            fresh[i] for i in range(len(fresh)) if i not in set(kept_idx)
        ]
        result.prefiltered_out += len(dropped)
        if keep_rejected:
            result.rejected.extend(p for _, _, p in dropped)

        # ---- certified bounds prune ---------------------------------- #
        # a candidate whose *sound* steady lower bound strictly exceeds
        # the round-start elite floor (the ELITE-th best steady mCPI)
        # provably cannot enter the post-round top-ELITE — scores only
        # push that floor down — nor beat best_score (which is <= every
        # elite score on the first, strictly-dominating key).  Elite
        # slots past ELITE never become parents or artifacts, so
        # skipping the simulation cannot change any later decision:
        # searches with and without pruning return bit-identical
        # results.  Pruned candidates still consume budget and a
        # generation number, exactly as if simulated and discarded.
        prune_floor: Optional[float] = None
        if certify_prune and len(elite) >= ELITE:
            floor = sorted(elite, key=lambda e: (e[0], e[1]))[ELITE - 1]
            prune_floor = floor[0].steady_mcpi
        to_sim: List[int] = []
        gen_of: List[int] = []
        for idx, (_, _, placements) in enumerate(kept):
            generation += 1
            gen_of.append(generation)
            if (
                prune_floor is not None
                and evaluator.steady_lower_bound(placements) > prune_floor
            ):
                result.bounds_pruned += 1
                continue
            to_sim.append(idx)

        # ---- simulate + select --------------------------------------- #
        scores = evaluator.score_placements(
            [kept[i][2] for i in to_sim],
            parallel=parallel, max_workers=max_workers,
        )
        result.evaluated += len(kept)
        for idx, score in zip(to_sim, scores):
            origin, genome, placements = kept[idx]
            elite.append((score, gen_of[idx], origin, genome))
            if score < best_score:
                best_score = score
                best_genome = genome
                best_placements = placements
                best_origin = origin
                best_round = round_no
        elite.sort(key=lambda e: (e[0], e[1]))
        del elite[ELITE * 2:]
        result.history.append((round_no, best_score.steady_mcpi))

    result.rounds = round_no
    result.best_score = best_score
    result.artifact = LayoutArtifact(
        stack=stack, config=config, seed=seed, budget=budget,
        engine=evaluator.engine, score=best_score.to_json(),
        baseline=baseline.to_json(), genome=best_genome,
        placements=best_placements, origin=best_origin,
        round_found=best_round,
        extra={
            "base_seed": base_seed,
            "evaluated": result.evaluated,
            "bounds_pruned": result.bounds_pruned,
            "sims_avoided": result.sims_avoided,
        },
    )
    evaluator.restore_default()
    return result
