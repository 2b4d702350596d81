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
a walk over the payload, not a field set — as are the regions code
generation addresses itself (:data:`EXCLUDED_REGIONS`): the per-frame
``stack``, whose offsets are frame-layout, not structure-layout,
decisions, and the ``got``/``demux`` linkage tables.

A transform is *planned*, never applied to the program:
:func:`survey_data_refs` reads a program's scalar references once, and
:meth:`DataSurvey.plan` turns that survey into a :class:`LayoutPlan` — one
injective offset remap per transformable region, plus the
:class:`LayoutReport` that counts the references and bytes the remap moves
— for any transform.  A remap changes no pc, op, flag or walker decision,
only the offsets added to region bases, so the trace of a transformed
program is the untransformed walk *re-addressed*: :func:`readdress` copies
the walk's ``daddrs`` column and moves every reference that the walk's
data-slot provenance (:class:`~repro.core.walker.DataSlots`) resolved
against a remapped region.  One build and one walk serve every layout of
a code image.

:func:`apply_data_layout` rewrites a program's IR in place under a remap
(fresh :class:`Instruction` objects, as IR instructions are frozen and
shared between blocks after cloning, then materialization invalidated).
It is the oracle of the re-addressing: walking the rewritten program gives
the re-addressed trace.  Instruction counts are unchanged, so function
sizes and the committed text layout survive the rewrite.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Mapping, Set, Tuple

from repro.arch.packed import PackedTrace
from repro.core.ir import DataRef, Instruction
from repro.core.program import Program
from repro.core.walker import DataSlots, WalkResult

__all__ = [
    "EXCLUDED_REGIONS",
    "PACK_GAP",
    "DataSurvey",
    "LayoutPlan",
    "LayoutReport",
    "RegionLayout",
    "apply_data_layout",
    "layout_transform",
    "readdress",
    "survey_data_refs",
]

#: regions never remapped: code generation addresses them itself (frame
#: saves on the ``stack``, linkage loads from ``got`` and ``demux``), and
#: those references are not IR instructions a layout could rewrite
EXCLUDED_REGIONS = frozenset({"stack", "got", "demux"})

#: maximum gap preserved between consecutive packed fields (one quadword)
PACK_GAP = 8

#: a remap per region: old scalar offset -> new offset
Remaps = Mapping[str, Mapping[int, int]]


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
    """What a layout plan moves in one program."""

    pack: bool
    split: bool
    regions: Tuple[RegionLayout, ...]
    #: regions left untouched (indexed access patterns or excluded)
    skipped: Tuple[str, ...]
    #: scalar references in the IR whose offset the plan moves
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


@dataclass(frozen=True)
class LayoutPlan:
    """One transform of one program, planned: the remaps and their report."""

    #: region -> total injective map over its referenced scalar offsets
    remaps: Remaps
    report: LayoutReport


def layout_transform(*, pack: bool, split: bool) -> str:
    """The transform a ``(pack, split)`` request applies: ``"split"``,
    ``"pack"`` or ``"none"``.

    Splitting subsumes packing (it packs each half), so a request with
    ``split`` set plans identically whatever ``pack`` says; two requests
    naming the same transform share one image.
    """
    if split:
        return "split"
    return "pack" if pack else "none"


def _pack(fields: List[int], base: int) -> Dict[int, int]:
    """Gap-capping remap of sorted ``fields`` starting at ``base``."""
    remap: Dict[int, int] = {}
    at = base
    for i, off in enumerate(fields):
        if i:
            at += min(off - fields[i - 1], PACK_GAP)
        remap[off] = at
    return remap


@dataclass(frozen=True)
class DataSurvey:
    """A program's scalar data references, read once; every layout plan
    of the program is computed from it (:meth:`plan`)."""

    #: region -> referenced scalar offsets
    offsets: Dict[str, Set[int]]
    #: region -> scalar offsets referenced outside ``unlikely`` blocks
    hot: Dict[str, Set[int]]
    #: regions with at least one indexed reference
    indexed: Set[str]
    #: (region, offset) -> scalar references in the IR (an instruction
    #: shared by several blocks counts once per block)
    refs: Counter[Tuple[str, int]]

    def plan(
        self, *, pack: bool = False, split: bool = False, block_size: int = 32
    ) -> LayoutPlan:
        """The remaps of every transformable region under the requested
        transform, and what they move; ``"none"`` plans nothing."""
        transform = layout_transform(pack=pack, split=split)
        if transform == "none":
            return LayoutPlan(
                remaps={},
                report=LayoutReport(
                    pack=pack, split=split, regions=(), skipped=(), rewritten=0
                ),
            )
        remaps: Dict[str, Dict[int, int]] = {}
        layouts: List[RegionLayout] = []
        untouchable = self.indexed | EXCLUDED_REGIONS
        for region in sorted(self.offsets):
            if region in untouchable:
                continue
            fields = sorted(self.offsets[region])
            hot = self.hot.get(region, set())
            cold = sorted(self.offsets[region] - hot)
            if transform == "split":
                hot_fields = sorted(hot)
                remap = _pack(hot_fields, 0)
                hot_end = (remap[hot_fields[-1]] + 1) if hot_fields else 0
                # cold fields resume past a block boundary so the steady
                # working set never shares a d-cache block with them
                cold_base = ((hot_end + block_size - 1) // block_size + 1) * block_size
                remap.update(_pack(cold, cold_base))
                span_after = hot_end
            else:
                remap = _pack(fields, 0)
                span_after = remap[fields[-1]] + 1
            remaps[region] = remap
            layouts.append(
                RegionLayout(
                    region=region,
                    fields=len(fields),
                    cold_fields=len(cold),
                    span_before=fields[-1] - fields[0] + 1,
                    span_after=span_after,
                )
            )
        rewritten = sum(
            self.refs[(region, old)]
            for region, remap in remaps.items()
            for old, new in remap.items()
            if new != old
        )
        return LayoutPlan(
            remaps=remaps,
            report=LayoutReport(
                pack=pack,
                split=split,
                regions=tuple(layouts),
                skipped=tuple(sorted(untouchable & (set(self.offsets) | self.indexed))),
                rewritten=rewritten,
            ),
        )


def survey_data_refs(program: Program) -> DataSurvey:
    """Read every scalar data reference of ``program``'s IR once."""
    offsets: Dict[str, Set[int]] = {}
    hot: Dict[str, Set[int]] = {}
    indexed: Set[str] = set()
    refs: Counter[Tuple[str, int]] = Counter()
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
                refs[(d.region, d.offset)] += 1
                if not blk.unlikely:
                    hot.setdefault(d.region, set()).add(d.offset)
    return DataSurvey(offsets=offsets, hot=hot, indexed=indexed, refs=refs)


def readdress(walk: WalkResult, slots: DataSlots, remaps: Remaps) -> WalkResult:
    """``walk`` re-addressed under ``remaps``: the walk of the program
    whose IR :func:`apply_data_layout` rewrote with the same remaps.

    ``slots`` is the walk's data-slot provenance (collect it with
    :meth:`DataSlots.record` as the walk's ``on_dref``).  Every reference
    resolved against a remapped region moves from ``base + offset`` to
    ``base + remap[offset]``; nothing else changes, so the result shares
    ``walk``'s pcs, ops and flags and their derived caches (the fetch-run
    encoding, the CPU pass).  Without remaps ``walk`` itself is returned.
    """
    if not remaps:
        return walk
    packed = walk.packed
    daddrs = array("q", packed.daddrs)
    for src, (base, idxs) in slots.items():
        remap = remaps.get(src[-1])
        if remap is None:
            continue
        for i in idxs:
            daddrs[i] = base + remap[daddrs[i] - base]
    image = PackedTrace(packed.pcs, daddrs, packed.ops, packed.flags)
    image._shared = packed._shared
    return WalkResult(image, list(walk.marks))


def apply_data_layout(program: Program, remaps: Remaps) -> int:
    """Rewrite ``program``'s scalar data references under ``remaps``, in
    place, and return how many moved.

    The oracle of :func:`readdress`; the study itself never rewrites a
    program.  The program must be a *fresh* build — the harness's cached
    builds share ``BuildResult`` objects between callers and must never
    be mutated.
    """
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
    return rewritten
