"""The data-techniques × code-techniques grid study.

Every cell of the paper's 12-cell grid (2 stacks × 6 code configurations)
is re-measured under each :class:`~repro.datalayout.techniques.
DataTechnique`.  Each (stack, config) cell is built once and walked once,
untransformed, recording the walk's data-slot provenance
(:class:`~repro.core.walker.DataSlots`).  A layout transform moves only
the offsets of scalar data references, so the image of each distinct
transform — ``baseline`` and the store-only techniques share the
untransformed walk, and ``split`` and ``all`` share the split one — is
that walk re-addressed (:func:`~repro.datalayout.transforms.readdress`)
under the plan one survey of the build yields
(:meth:`~repro.datalayout.transforms.DataSurvey.plan`).  The images share
the walk's pcs, ops and flags with their derived caches, and no program is
ever rewritten.  Each image is digested and bound once; each technique's
store behaviour is then measured on it by the chosen engine's cold and
steady runs (:func:`~repro.harness.experiment.simulate_walk`), and
bracketed by the abstract-interpretation bounds of
:mod:`repro.analysis.bounds` under the same store behaviour.  Its
write-buffer and d-cache stalls are counted, not attributed: the runs'
counters price them (:class:`~repro.arch.memory.MemoryStats`) exactly as
an :class:`~repro.obs.attribution.Attribution` sink charges them, the
tests' oracle.

All engines are bit-identical, so the study's numbers are
engine-independent (the differential tests hold fast against the
reference oracle cell by cell, and every re-addressed walk against the
walk of the program :func:`~repro.datalayout.transforms.apply_data_layout`
rewrote); the committed golden table is regenerated in CI and any
divergence is a drift failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.api.settings import validate_engine
from repro.datalayout.techniques import DATA_TECHNIQUES, DataTechnique
from repro.datalayout.transforms import (
    DataSurvey,
    LayoutReport,
    readdress,
    survey_data_refs,
)

if TYPE_CHECKING:
    from repro.analysis.bounds import BoundEvent, TraceDigest
    from repro.api.spec import DatalayoutSpec
    from repro.core.program import Program
    from repro.core.walker import DataSlots, WalkResult
    from repro.harness.configs import Section2Options

__all__ = [
    "DatalayoutCell",
    "DatalayoutStudy",
    "datalayout_cell",
    "run_datalayout_study",
]


@dataclass(frozen=True)
class DatalayoutCell:
    """One (stack, code configuration, data technique) measurement."""

    stack: str
    config: str
    technique: str
    instructions: int
    cold_stalls: int
    steady_stalls: int
    #: write-buffer stalls of the cold and steady runs, d-cache stalls of
    #: the steady run: counted, and equal to the attribution's buckets
    wb_cold: int
    wb_steady: int
    dcache_steady: int
    #: layout-transform footprint effect (0 for store-only techniques)
    bytes_saved: int
    refs_rewritten: int
    #: static steady-state stall bounds under the same store behaviour
    steady_lower: int
    steady_upper: int
    #: the cold bound collapsed onto the measurement (lower == run == upper)
    cold_exact: bool

    @property
    def steady_mcpi(self) -> float:
        if not self.instructions:
            return 0.0
        return self.steady_stalls / self.instructions

    @property
    def bounds_sound(self) -> bool:
        return self.steady_lower <= self.steady_stalls <= self.steady_upper

    def to_json(self) -> Dict[str, object]:
        return {
            "stack": self.stack,
            "config": self.config,
            "technique": self.technique,
            "instructions": self.instructions,
            "cold_stalls": self.cold_stalls,
            "steady_stalls": self.steady_stalls,
            "steady_mcpi": round(self.steady_mcpi, 4),
            "wb_cold": self.wb_cold,
            "wb_steady": self.wb_steady,
            "dcache_steady": self.dcache_steady,
            "bytes_saved": self.bytes_saved,
            "refs_rewritten": self.refs_rewritten,
            "steady_lower": self.steady_lower,
            "steady_upper": self.steady_upper,
            "cold_exact": self.cold_exact,
            "bounds_sound": self.bounds_sound,
        }


@dataclass
class DatalayoutStudy:
    """The full grid: every technique over every (stack, config) cell."""

    engine: str
    seed: int
    techniques: Tuple[str, ...]
    cells: List[DatalayoutCell] = field(default_factory=list)

    def cell(self, stack: str, config: str, technique: str) -> DatalayoutCell:
        for c in self.cells:
            if (c.stack, c.config, c.technique) == (stack, config, technique):
                return c
        raise KeyError(f"no cell {stack}/{config}/{technique}")

    # ---- derived summaries -------------------------------------------- #

    def stacks(self) -> Tuple[str, ...]:
        """The stacks the study actually measured, in first-seen order."""
        seen: List[str] = []
        for c in self.cells:
            if c.stack not in seen:
                seen.append(c.stack)
        return tuple(seen)

    def wb_floor(self, stack: str) -> int:
        """The stack's baseline write-buffer stall floor (max over cells)."""
        floors = [
            c.wb_steady
            for c in self.cells
            if c.stack == stack and c.technique == "baseline"
        ]
        if not floors:
            raise ValueError(f"study holds no baseline cells for {stack!r}")
        return max(floors)

    def cells_below_floor(self, technique: str) -> int:
        """Cells whose steady wb bucket dropped below the stack's floor."""
        return sum(
            1
            for c in self.cells
            if c.technique == technique and c.wb_steady < self.wb_floor(c.stack)
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "engine": self.engine,
            "seed": self.seed,
            "techniques": {
                name: DATA_TECHNIQUES[name].to_json() for name in self.techniques
            },
            "wb_floor": {
                stack: self.wb_floor(stack) for stack in self.stacks()
            },
            "cells_below_floor": {
                name: self.cells_below_floor(name)
                for name in self.techniques
                if name != "baseline"
            },
            "cells": [c.to_json() for c in self.cells],
        }

    def render(self) -> str:
        lines = [
            "Data techniques x code configurations "
            f"(steady state, seed {self.seed})",
            "",
            f"{'technique':10s} {'stack':6s} {'cfg':4s} {'mCPI':>7s} "
            f"{'stalls':>7s} {'wb':>6s} {'dcache':>7s} "
            f"{'lo':>7s} {'hi':>7s} {'saved':>6s}",
        ]
        for c in self.cells:
            lines.append(
                f"{c.technique:10s} {c.stack:6s} {c.config:4s} "
                f"{c.steady_mcpi:7.4f} {c.steady_stalls:7d} {c.wb_steady:6d} "
                f"{c.dcache_steady:7d} {c.steady_lower:7d} "
                f"{c.steady_upper:7d} {c.bytes_saved:6d}"
            )
        lines.append("")
        for stack in self.stacks():
            lines.append(
                f"baseline write-buffer floor [{stack}]: {self.wb_floor(stack)}"
            )
        for name in self.techniques:
            if name == "baseline":
                continue
            total = sum(1 for c in self.cells if c.technique == name)
            lines.append(
                f"cells below floor [{name}]: "
                f"{self.cells_below_floor(name)}/{total}"
            )
        return "\n".join(lines) + "\n"

    def check(self) -> List[str]:
        """Bounds soundness and cold-bound exactness per cell (the stall
        counts are the engine's own; the tests hold them to the attribution
        oracle)."""
        return [
            f"{c.stack}/{c.config}/{c.technique}: steady stalls "
            f"{c.steady_stalls} outside bounds "
            f"[{c.steady_lower}, {c.steady_upper}]"
            for c in self.cells
            if not c.bounds_sound
        ] + [
            f"{c.stack}/{c.config}/{c.technique}: cold bound not exact"
            for c in self.cells
            if not c.cold_exact
        ]


@dataclass(frozen=True)
class _Walked:
    """One (stack, config) cell, built and walked once, untransformed."""

    program: Program
    survey: DataSurvey
    walk: WalkResult
    #: the walk's data-slot provenance, which :func:`readdress` moves
    slots: DataSlots
    placements: Dict[str, int]


@dataclass(frozen=True)
class _Image:
    """One cell's walk under one layout transform: re-addressed, digested
    and bound once, then measured under every store behaviour that shares
    the transform (store behaviours share the block size)."""

    layout: LayoutReport
    walk: WalkResult
    digest: TraceDigest
    placements: Dict[str, int]
    #: the digest bound under ``placements`` (``bind_digest``)
    events: List[BoundEvent]


def _walk_cell(
    stack: str,
    config: str,
    *,
    engine: str,
    seed: int,
    opts: Optional[Section2Options],
) -> _Walked:
    from repro.core.walker import DataSlots
    from repro.harness.configs import build_configured_program
    from repro.harness.experiment import Experiment, walk_events

    # an uncached build: the process-wide build memo would keep every
    # cell's build alive, and the grid holds one at a time
    program = build_configured_program(stack, config, opts).program
    exp = Experiment(stack, config, opts, base_seed=seed)
    events, data_env = exp.capture_roundtrip(seed)
    slots = DataSlots()
    walk = walk_events(program, events, data_env, engine, on_dref=slots.record)
    return _Walked(
        program=program,
        survey=survey_data_refs(program),
        walk=walk,
        slots=slots,
        placements={name: program.address_of(name) for name in program.names()},
    )


def _image(cell: _Walked, technique: DataTechnique) -> _Image:
    from repro.analysis.bounds import bind_digest, digest_trace

    block_size = technique.memory().block_size
    plan = cell.survey.plan(
        pack=technique.pack, split=technique.split, block_size=block_size
    )
    walk = readdress(cell.walk, cell.slots, plan.remaps)
    digest = digest_trace(walk.packed, cell.program)
    return _Image(
        layout=plan.report,
        walk=walk,
        digest=digest,
        placements=cell.placements,
        events=bind_digest(digest, cell.placements, block_bytes=block_size),
    )


def _measure_cell(
    image: _Image,
    stack: str,
    config: str,
    technique: DataTechnique,
    engine: str,
) -> DatalayoutCell:
    """Measure one technique's store behaviour on its layout's image: the
    engine's cold and steady runs, whose counts price the write-buffer and
    d-cache stalls."""
    from repro.analysis.bounds import bounds_from_digest
    from repro.arch.simulator import AlphaConfig
    from repro.harness.experiment import simulate_walk

    mem = technique.memory()
    cold, steady = simulate_walk(image.walk, engine, AlphaConfig(memory=mem))

    bounds = bounds_from_digest(
        image.digest,
        image.placements,
        stack=stack,
        config=config,
        memory=mem,
        events=image.events,
    )

    cold_stalls = cold.memory.stall_cycles
    return DatalayoutCell(
        stack=stack,
        config=config,
        technique=technique.name,
        instructions=steady.instructions,
        cold_stalls=cold_stalls,
        steady_stalls=steady.memory.stall_cycles,
        wb_cold=cold.memory.write_buffer_stalls(mem),
        wb_steady=steady.memory.write_buffer_stalls(mem),
        dcache_steady=steady.memory.dcache_stalls(mem),
        bytes_saved=image.layout.bytes_saved,
        refs_rewritten=image.layout.rewritten,
        steady_lower=bounds.steady.lower_stalls,
        steady_upper=bounds.steady.upper_stalls,
        cold_exact=(
            bounds.cold.lower_stalls == cold_stalls == bounds.cold.upper_stalls
        ),
    )


def datalayout_cell(
    stack: str,
    config: str,
    technique: DataTechnique,
    *,
    engine: str = "fast",
    seed: int = 42,
    opts: Optional[Section2Options] = None,
) -> DatalayoutCell:
    """Measure one grid cell under one data technique."""
    validate_engine(engine)
    cell = _walk_cell(stack, config, engine=engine, seed=seed, opts=opts)
    return _measure_cell(_image(cell, technique), stack, config, technique, engine)


def run_datalayout_study(
    spec: DatalayoutSpec,
    *,
    engine: str = "fast",
    opts: Optional[Section2Options] = None,
) -> DatalayoutStudy:
    """Run the spec's data-technique grid on one engine.

    ``engine`` is the resolved engine name (:func:`repro.api.datalayout`
    resolves ``spec.engine`` against the settings).  Each (stack, config)
    cell is built and walked once; its walk is re-addressed once per
    distinct layout transform (:attr:`DataTechnique.layout`), and that
    image is measured under every technique sharing the transform.  One
    build is alive at a time.  No cell attaches an attribution sink.
    """
    validate_engine(engine)
    names = tuple(spec.techniques if spec.techniques is not None else DATA_TECHNIQUES)
    unknown = [n for n in names if n not in DATA_TECHNIQUES]
    if unknown:
        raise ValueError(f"unknown data techniques {unknown!r}")
    if "baseline" not in names:
        # the floors (and therefore the summary) are defined vs. baseline
        names = ("baseline",) + names
    by_layout: Dict[str, List[DataTechnique]] = {}
    for name in names:
        technique = DATA_TECHNIQUES[name]
        by_layout.setdefault(technique.layout, []).append(technique)

    measured: Dict[Tuple[str, str, str], DatalayoutCell] = {}
    for stack in spec.stacks:
        for config in spec.configs:
            cell = _walk_cell(stack, config, engine=engine, seed=spec.seed, opts=opts)
            for sharing in by_layout.values():
                image = _image(cell, sharing[0])
                for technique in sharing:
                    measured[(technique.name, stack, config)] = _measure_cell(
                        image, stack, config, technique, engine
                    )
                del image
            del cell  # released before the next is built: one alive at a time

    study = DatalayoutStudy(engine=engine, seed=spec.seed, techniques=names)
    study.cells = [
        measured[(name, stack, config)]
        for name in names
        for stack in spec.stacks
        for config in spec.configs
    ]
    return study
