"""Template-accelerated trace expansion.

Allocator jitter — the knob the harness turns between samples — moves the
kernel's *data objects*; it never changes which code runs.  Two event
streams captured from the same (stack, options) functional run under
different jitter seeds therefore expand to traces that differ **only in
the data-address column**: same pcs, same ops, same flags, same marks,
and the same sequence of data references, each resolved against a
shifted region base.

This module exploits that: the first walk of a given *event-stream
structure* (per program build) runs the full walker with a recording
hook and saves a :class:`TraceTemplate` — the shared pc/op/flag columns
plus, for every data-reference slot, which region of which event (or of
the walker environment) it was resolved against.  Subsequent walks whose
streams have the same structure skip the walker entirely: the template
*rebinds* by copying the daddr column and adding per-region base deltas.

Structure is captured by :func:`event_signature`, which folds in every
input the walker's control flow can observe: event types and order,
function names, condition outcomes (with list conds expanded and
callables resolved), data-region *keys* (values are rebind inputs, not
control flow), and mark names.  Equal signatures imply the walker takes
identical decisions at every step, so rebinding is exact; anything else
falls back to the full walk.  Stack-relative references need no slot:
an identical walk reproduces the same stack pointer trajectory, so their
addresses are part of the shared template.

A rebind also makes the full walk's ``on_dref`` calls, each at its
rebound base, so a caller collecting the walk's data-slot provenance
(:class:`~repro.core.walker.DataSlots`) gets the same answer from either
walker, rebound or not.
"""

from __future__ import annotations

from array import array
from operator import itemgetter
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.arch.packed import PackedTrace
from repro.core.walker import (
    DataSlots,
    DrefHook,
    EnterEvent,
    Event,
    ExitEvent,
    MarkEvent,
    Walker,
    WalkResult,
)


def _scalar_sig(value: object) -> Tuple:
    # mirror _CondStore's interpretation order: callable / bool / int
    if callable(value):
        return ("C", bool(value()))
    if isinstance(value, bool):
        return ("B", value)
    if isinstance(value, int):
        return ("I", value)
    return ("O", repr(value))


def _cond_sig(value: object) -> Tuple:
    if isinstance(value, list):
        return ("L",) + tuple(_scalar_sig(v) for v in value)
    return _scalar_sig(value)


def event_signature(events: Iterable[Event]) -> Tuple:
    """A hashable digest of everything that steers the walker.

    Two streams with equal signatures drive the walker through identical
    control flow over a given program; they can differ only in the data
    addresses their events carry.
    """
    parts: List[Tuple] = []
    for ev in events:
        if isinstance(ev, EnterEvent):
            parts.append((
                "E",
                ev.fn,
                tuple(sorted((k, _cond_sig(v)) for k, v in ev.conds.items())),
                tuple(sorted(ev.data.keys())),
            ))
        elif isinstance(ev, ExitEvent):
            parts.append(("X", ev.fn))
        elif isinstance(ev, MarkEvent):
            parts.append(("M", ev.name))
        else:
            parts.append(("O", repr(ev)))
    return tuple(parts)


class TraceTemplate:
    """A walked trace with its data references annotated for rebinding."""

    __slots__ = ("pcs", "ops", "flags", "daddrs", "marks", "slots", "stack",
                 "shared")

    def __init__(self, result: WalkResult, slots: DataSlots,
                 stack: array) -> None:
        packed = result.packed
        self.pcs = packed.pcs
        self.ops = packed.ops
        self.flags = packed.flags
        self.daddrs = packed.daddrs
        self.marks = result.marks
        #: the walk's data-slot provenance, at template-time bases
        self.slots = slots
        #: (trace index, stack pointer) pairs of the stack-relative data
        #: references, flattened; every rebind reproduces them exactly
        self.stack = stack
        #: pcs/ops/flags-derived caches shared by the template's packed
        #: trace and every rebind (the fetch-run encoding, the CPU pass)
        self.shared = packed._shared

    def rebind(self, events: Sequence[Event], env: Mapping[str, int],
               on_dref: Optional[DrefHook] = None) -> WalkResult:
        """Produce the walk of ``events`` by shifting region bases.

        ``events`` must have the signature this template was built from;
        ``env`` is the walker's full data environment (defaults applied).
        ``on_dref`` receives the calls a full walk of ``events`` makes.
        """
        daddrs = array("q", self.daddrs)
        bases: Dict[Tuple, int] = {}
        for src, (base, idxs) in self.slots.items():
            if src[0] == "evt":
                new_base = events[src[1]].data[src[2]]
            else:
                new_base = env[src[1]]
            bases[src] = new_base
            delta = new_base - base
            if delta:
                for i in idxs:
                    daddrs[i] += delta
        if on_dref is not None:
            self.replay(on_dref, bases)
        # pcs/ops/flags are shared with the template (and every other
        # rebind); walk results are never mutated downstream.
        packed = PackedTrace(self.pcs, daddrs, self.ops, self.flags)
        packed._shared = self.shared
        return WalkResult(packed, list(self.marks))

    def replay(self, on_dref: DrefHook, bases: Mapping[Tuple, int]) -> None:
        """Make the template walk's ``on_dref`` calls, in trace order,
        with each source key resolved at ``bases[key]``."""
        stack = self.stack
        calls = [(stack[i], None, stack[i + 1]) for i in range(0, len(stack), 2)]
        for src, (_, idxs) in self.slots.items():
            base = bases[src]
            calls.extend([(i, src, base) for i in idxs])
        calls.sort(key=itemgetter(0))
        for call in calls:
            on_dref(*call)


class FastWalker(Walker):
    """A :class:`Walker` with a per-build template cache.

    Templates attach to the program object itself, so rebuilding or
    re-laying-out a program naturally starts from an empty cache.  A
    rebind honours ``on_dref`` as a full walk does: the same calls in the
    same order, each at its rebound base.
    """

    def walk(self, events: Iterable[Event], *,
             on_dref: Optional[DrefHook] = None) -> WalkResult:
        stream = list(events)
        signature = event_signature(stream)
        key = (signature, self._stack_top, tuple(sorted(self.data_env)))
        templates: Dict = self.program.__dict__.setdefault("_walk_templates", {})
        template = templates.get(key)
        if template is not None:
            try:
                return template.rebind(stream, self.data_env, on_dref)
            except (KeyError, IndexError):
                # unexpected drift: drop the template, walk normally
                templates.pop(key, None)

        slots = DataSlots()
        stack = array("q")

        def record(idx: int, src: Optional[Tuple], base: int) -> None:
            if src is None:
                stack.extend((idx, base))
            else:
                slots.record(idx, src, base)
            if on_dref is not None:
                on_dref(idx, src, base)

        result = super().walk(stream, on_dref=record)
        templates[key] = TraceTemplate(result, slots, stack)
        return result
