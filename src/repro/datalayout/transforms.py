"""Data-layout transforms: field packing and hot/cold splitting.

The code-side techniques of Section 2 (outlining, cloning, path-inlining)
reshape the *text* segment; this module applies the same discipline to the
*data* segment the IR already addresses symbolically.  Every scalar
:class:`~repro.core.ir.DataRef` names a ``(region, offset)`` pair resolved
against the simulated allocator at walk time, so re-assigning offsets is a
pure layout decision — the walker touches different d-cache blocks, nothing
else changes.

Two transforms are provided:

* **packing** — within each region, cap the gap between consecutive
  referenced fields at :data:`PACK_GAP` bytes.  Structure definitions in
  the modelled stacks leave alignment and ABI holes between the fields the
  protocol actually touches; packing closes them, shrinking the region's
  touched span and therefore the number of distinct d-cache blocks a
  roundtrip drags through the hierarchy.  Gaps are only ever *capped*
  (``min(gap, PACK_GAP)``), so the remap is injective and never grows a
  region.

* **hot/cold splitting** — fields referenced only from ``unlikely``
  (outlinable, error-path) blocks are cold; everything else is hot.  Hot
  fields are packed first, cold fields are packed after a cache-block
  boundary gap, so the steady-state working set never pays d-cache blocks
  for error-path bookkeeping.  Splitting subsumes packing within each
  half.

Regions with *any* indexed reference (checksum/copy loops whose effective
address advances by a stride) are left untouched — their access pattern is
a walk over the payload, not a field set — as is the per-frame ``stack``
region, whose offsets are frame-layout, not structure-layout, decisions.

Transforms rewrite a :class:`~repro.core.program.Program` in place by
replacing instruction lists with freshly built :class:`Instruction`
objects (IR instructions are frozen and shared between blocks after
cloning), then invalidating the materialization cache.  Instruction
counts are unchanged, so function sizes and the committed text layout
survive the rewrite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Set, Tuple

from repro.core.ir import DataRef, Instruction
from repro.core.program import Program

__all__ = [
    "EXCLUDED_REGIONS",
    "PACK_GAP",
    "RegionLayout",
    "LayoutReport",
    "apply_data_layout",
    "layout_transform",
    "region_remaps",
]

#: regions never remapped: stack slots are frame-layout, not structure-layout
EXCLUDED_REGIONS = frozenset({"stack"})

#: maximum gap preserved between consecutive packed fields (one quadword)
PACK_GAP = 8


@dataclass(frozen=True)
class RegionLayout:
    """Before/after summary of one remapped region."""

    region: str
    #: distinct scalar field offsets remapped
    fields: int
    #: fields referenced only from ``unlikely`` blocks (split candidates)
    cold_fields: int
    #: bytes from the first to one past the last touched offset, before
    span_before: int
    #: same extent after the remap (hot prefix only, under splitting)
    span_after: int

    def to_json(self) -> Dict[str, object]:
        return {
            "region": self.region,
            "fields": self.fields,
            "cold_fields": self.cold_fields,
            "span_before": self.span_before,
            "span_after": self.span_after,
        }


@dataclass(frozen=True)
class LayoutReport:
    """What :func:`apply_data_layout` did to one program."""

    pack: bool
    split: bool
    regions: Tuple[RegionLayout, ...]
    #: regions left untouched (indexed access patterns or excluded)
    skipped: Tuple[str, ...]
    #: drefs rewritten to a new offset
    rewritten: int

    @property
    def bytes_saved(self) -> int:
        return sum(r.span_before - r.span_after for r in self.regions)

    def to_json(self) -> Dict[str, object]:
        return {
            "pack": self.pack,
            "split": self.split,
            "bytes_saved": self.bytes_saved,
            "rewritten": self.rewritten,
            "regions": [r.to_json() for r in self.regions],
            "skipped": list(self.skipped),
        }


def layout_transform(*, pack: bool, split: bool) -> str:
    """The transform a ``(pack, split)`` request applies: ``"split"``,
    ``"pack"`` or ``"none"``.

    Splitting subsumes packing (it packs each half), so a request with
    ``split`` set rewrites a program identically whatever ``pack`` says;
    two requests naming the same transform may share one transformed
    program.
    """
    if split:
        return "split"
    return "pack" if pack else "none"


def _survey(
    program: Program,
) -> Tuple[Dict[str, Set[int]], Dict[str, Set[int]], Set[str]]:
    """(region -> offsets, region -> hot offsets, indexed regions)."""
    offsets: Dict[str, Set[int]] = {}
    hot: Dict[str, Set[int]] = {}
    indexed: Set[str] = set()
    for fn in program.functions():
        for blk in fn.blocks:
            for ins in blk.instructions:
                d = ins.dref
                if d is None:
                    continue
                if d.indexed:
                    indexed.add(d.region)
                    continue
                offsets.setdefault(d.region, set()).add(d.offset)
                if not blk.unlikely:
                    hot.setdefault(d.region, set()).add(d.offset)
    return offsets, hot, indexed


def _pack(fields: List[int], base: int) -> Dict[int, int]:
    """Gap-capping remap of sorted ``fields`` starting at ``base``."""
    remap: Dict[int, int] = {}
    at = base
    for i, off in enumerate(fields):
        if i:
            at += min(off - fields[i - 1], PACK_GAP)
        remap[off] = at
    return remap


def region_remaps(
    program: Program,
    *,
    pack: bool,
    split: bool,
    block_size: int,
) -> Tuple[Dict[str, Dict[int, int]], Dict[str, RegionLayout], Tuple[str, ...]]:
    """Offset remaps for every transformable region of ``program``.

    Returns ``(remaps, layouts, skipped)``; the remap of each region is a
    total injective map over its referenced scalar offsets.
    """
    transform = layout_transform(pack=pack, split=split)
    offsets, hot, indexed = _survey(program)
    remaps: Dict[str, Dict[int, int]] = {}
    layouts: Dict[str, RegionLayout] = {}
    untouchable = indexed | EXCLUDED_REGIONS
    skipped = tuple(sorted(untouchable & (set(offsets) | indexed)))
    for region in sorted(offsets):
        if region in untouchable:
            continue
        fields = sorted(offsets[region])
        cold = sorted(offsets[region] - hot.get(region, set()))
        if transform == "split":
            hot_fields = sorted(hot.get(region, set()))
            remap = _pack(hot_fields, 0)
            hot_end = (remap[hot_fields[-1]] + 1) if hot_fields else 0
            # cold fields resume past a block boundary so the steady
            # working set never shares a d-cache block with them
            cold_base = ((hot_end + block_size - 1) // block_size + 1) * block_size
            remap.update(_pack(cold, cold_base))
            span_after = hot_end
        elif transform == "pack":
            remap = _pack(fields, 0)
            span_after = remap[fields[-1]] + 1
        else:
            continue
        remaps[region] = remap
        layouts[region] = RegionLayout(
            region=region,
            fields=len(fields),
            cold_fields=len(cold),
            span_before=fields[-1] - fields[0] + 1,
            span_after=span_after,
        )
    return remaps, layouts, skipped


def apply_data_layout(
    program: Program,
    *,
    pack: bool = False,
    split: bool = False,
    block_size: int = 32,
) -> LayoutReport:
    """Rewrite ``program``'s scalar data references under the chosen remap.

    ``split`` subsumes ``pack`` (:func:`layout_transform`); with neither,
    the program is untouched and the report is empty.  The program must be
    a *fresh* build — the harness's cached builds share ``BuildResult``
    objects between callers and must never be mutated.
    """
    if layout_transform(pack=pack, split=split) == "none":
        return LayoutReport(pack=pack, split=split, regions=(), skipped=(),
                            rewritten=0)
    remaps, layouts, skipped = region_remaps(
        program, pack=pack, split=split, block_size=block_size
    )
    rewritten = 0
    for fn in program.functions():
        fn_changed = False
        for blk in fn.blocks:
            blk_changed = False
            fresh = []
            for ins in blk.instructions:
                d = ins.dref
                if d is not None and not d.indexed and d.region in remaps:
                    new_off = remaps[d.region][d.offset]
                    if new_off != d.offset:
                        ins = Instruction(
                            ins.op, DataRef(d.region, new_off, d.indexed, d.stride)
                        )
                        blk_changed = True
                        rewritten += 1
                fresh.append(ins)
            if blk_changed:
                blk.instructions = fresh
                fn_changed = True
        if fn_changed:
            program.invalidate(fn.name)
    return LayoutReport(
        pack=pack,
        split=split,
        regions=tuple(layouts[r] for r in sorted(layouts)),
        skipped=skipped,
        rewritten=rewritten,
    )
