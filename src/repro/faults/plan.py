"""Seeded, deterministic fault injection for modeled workloads.

The whole bet behind outlining (and the hot/cold layouts built on top of
it) is that error-handling branches never execute.  Every workload the
harness measures by default is fault-free, so the repro had never
quantified the downside the paper itself warns about: when the
predicted-unlikely paths *do* run, the outlined code is fetched from the
far end of the text segment and the layout assumption backfires.

This module makes that measurable.  A :class:`FaultPlan` mutates a
captured event stream *after* tracing and *before* walking: it forces
recorded branch conditions onto their unlikely legs (corrupted checksums,
truncated headers, stale ids, demux-cache misses), models retransmission
work for dropped packets, and duplicates inbound envelopes for duplicated
packets.  Because the mutation happens at the event level it is

* **deterministic** — selection is driven by a :class:`random.Random`
  seeded from a stable digest of ``(plan seed, sample seed)``, so the same
  plan and seed produce bit-identical faulted traces in serial, pooled
  and guarded runs alike;
* **engine-neutral** — both walkers consume the same mutated stream, and
  the fast walker's event signature folds every condition in, so templates
  never leak between faulted and pristine streams;
* **structurally safe** — a forced early return (bad checksum, runt
  frame) would leave the victim's nested dispatch events unconsumed and
  abort the walk, so such fault points carry ``prune`` and the plan drops
  the activation's nested events, exactly mirroring what the live stack
  would not have executed.

Injection sites are declared next to the models that own the conditions
(``TCPIP_FAULT_POINTS`` / ``RPC_FAULT_POINTS`` in
:mod:`repro.protocols.models`); this module only interprets them.  Each
injected fault is bracketed by ``MarkEvent`` pairs so the resulting walk
carries per-fault instruction spans (see :func:`fault_spans`).

With ``rate == 0`` (or no matching fault points) :meth:`FaultPlan.apply`
returns the input stream object untouched — the zero-rate invariant the
differential tests enforce.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.walker import (
    EnterEvent,
    Event,
    ExitEvent,
    MarkEvent,
    WalkResult,
    clone_events,
    forced_cond,
)

#: the fault taxonomy; every fault point declares one of these kinds
FAULT_KINDS = (
    "corrupt_checksum",
    "truncated_header",
    "bad_demux_key",
    "dropped_packet",
    "duplicated_packet",
)

_MARK_PREFIX = "fault"


@dataclass(frozen=True)
class FaultPoint:
    """One place a fault kind can strike, declared next to the models.

    ``overrides`` forces recorded conditions of a matching activation;
    ``prune`` additionally drops the activation's nested events (required
    whenever the forced branch returns before the dispatch that would have
    consumed them).  ``duplicate`` points instead clone a whole top-level
    envelope rooted at ``fn``: the copy gets ``dup_overrides`` applied to
    the named nested functions and their subtrees pruned per ``dup_prune``
    (a duplicated segment is re-processed but takes the no-progress
    paths).
    """

    kind: str
    fn: str
    overrides: Tuple[Tuple[str, object], ...] = ()
    prune: bool = False
    duplicate: bool = False
    dup_overrides: Tuple[Tuple[str, Tuple[Tuple[str, object], ...]], ...] = ()
    dup_prune: Tuple[str, ...] = ()


@dataclass(frozen=True)
class InjectedFault:
    """One fault actually applied to one activation of one sample."""

    ordinal: int
    kind: str
    fn: str
    event_index: int
    pruned_events: int = 0
    duplicated_events: int = 0


def fault_points(stack: str) -> Tuple[FaultPoint, ...]:
    """The declared fault points of one stack (imported lazily: the model
    modules themselves import :class:`FaultPoint` from here)."""
    if stack == "tcpip":
        from repro.protocols.models.tcpip import TCPIP_FAULT_POINTS

        return TCPIP_FAULT_POINTS
    if stack == "rpc":
        from repro.protocols.models.rpc import RPC_FAULT_POINTS

        return RPC_FAULT_POINTS
    raise ValueError(f"unknown stack {stack!r}")


def _stable_digest(*parts: object) -> int:
    """A process-independent 64-bit seed (``hash()`` is salted per run)."""
    blob = repr(parts).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def stable_digest(*parts: object) -> int:
    """Public alias: every seeded subsystem (fault plans, traffic fault
    arrivals) derives its RNG seeds through this one digest."""
    return _stable_digest(*parts)


def _match_exits(events: Sequence[Event]) -> Dict[int, int]:
    """ENTER index -> matching EXIT index (streams are well nested)."""
    out: Dict[int, int] = {}
    stack: List[int] = []
    for i, ev in enumerate(events):
        if isinstance(ev, EnterEvent):
            stack.append(i)
        elif isinstance(ev, ExitEvent):
            if not stack:
                raise ValueError(f"unbalanced event stream: stray EXIT {ev.fn!r}")
            out[stack.pop()] = i
    if stack:
        raise ValueError("unbalanced event stream: unclosed ENTER")
    return out


@dataclass(frozen=True)
class FaultPlan:
    """A seeded recipe for injecting workload faults into one stack.

    ``rate`` is the per-opportunity injection probability: every
    (activation, fault point) pair whose function matches draws once from
    the plan's RNG.  ``kinds`` restricts the taxonomy (``None`` = all).
    The plan is a small frozen value object so it crosses process
    boundaries with the sweep's work items.
    """

    stack: str
    rate: float
    seed: int = 0
    kinds: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate!r}")
        if self.kinds is not None:
            unknown = set(self.kinds) - set(FAULT_KINDS)
            if unknown:
                raise ValueError(
                    f"unknown fault kind(s) {sorted(unknown)}; "
                    f"valid kinds: {', '.join(FAULT_KINDS)}"
                )

    def points(self) -> Tuple[FaultPoint, ...]:
        pts = fault_points(self.stack)
        if self.kinds is None:
            return pts
        allowed = set(self.kinds)
        return tuple(p for p in pts if p.kind in allowed)

    # ------------------------------------------------------------------ #
    # application                                                        #
    # ------------------------------------------------------------------ #

    def apply(
        self, events: List[Event], sample_seed: int
    ) -> Tuple[List[Event], List[InjectedFault]]:
        """Inject faults into one captured stream; return (stream, log).

        With nothing to inject the input list object is returned
        unchanged, so a zero-rate plan is bit-identical to no plan at all.
        """
        points = self.points()
        if self.rate <= 0.0 or not points or not events:
            return events, []
        by_fn: Dict[str, List[FaultPoint]] = {}
        for p in points:
            by_fn.setdefault(p.fn, []).append(p)

        rng = random.Random(_stable_digest(self.seed, sample_seed, self.stack))
        exits = _match_exits(events)
        depth = 0
        injected: List[InjectedFault] = []
        #: enter index -> list of begin-mark names
        begin_marks: Dict[int, List[str]] = {}
        #: exit index -> list of end-mark names (innermost first)
        end_marks: Dict[int, List[str]] = {}
        #: (start, end) inclusive ranges of events to drop
        prunes: List[Tuple[int, int]] = []
        #: exit index -> duplicated envelope to splice in after it
        duplicates: Dict[int, List[Event]] = {}
        prune_end = -1  # events up to this index are inside a pruned range

        for i, ev in enumerate(events):
            if isinstance(ev, ExitEvent):
                depth -= 1
                continue
            if not isinstance(ev, EnterEvent):
                continue
            depth += 1
            if i <= prune_end:
                continue  # this activation is already gone
            for point in by_fn.get(ev.fn, ()):
                if rng.random() >= self.rate:
                    continue
                if point.duplicate and depth != 1:
                    continue  # envelopes are duplicated whole, top level only
                ordinal = len(injected)
                tag = f"{_MARK_PREFIX}{ordinal}:{point.kind}:{point.fn}"
                exit_idx = exits[i]
                if point.duplicate:
                    dup = self._duplicated_envelope(events, i, exit_idx, point, tag)
                    duplicates.setdefault(exit_idx, []).extend(dup)
                    injected.append(
                        InjectedFault(
                            ordinal,
                            point.kind,
                            ev.fn,
                            i,
                            duplicated_events=len(dup) - 2,
                        )
                    )
                    continue
                for key, value in point.overrides:
                    ev.conds[forced_cond(point.fn, key)] = value
                pruned = 0
                if point.prune and exit_idx > i + 1:
                    prunes.append((i + 1, exit_idx - 1))
                    pruned = exit_idx - i - 1
                    prune_end = max(prune_end, exit_idx - 1)
                begin_marks.setdefault(i, []).append(f"{tag}:begin")
                end_marks.setdefault(exit_idx, []).append(f"{tag}:end")
                injected.append(
                    InjectedFault(ordinal, point.kind, ev.fn, i, pruned_events=pruned)
                )
                if point.prune:
                    # the packet died here (dropped as runt / bad
                    # checksum); further faults on this activation —
                    # notably duplication, which would clone the forced
                    # early return *without* its prune — make no sense
                    break

        if not injected:
            return events, []

        dropped = [False] * len(events)
        for start, end in prunes:
            for j in range(start, end + 1):
                dropped[j] = True
        out: List[Event] = []
        for i, ev in enumerate(events):
            if dropped[i]:
                continue
            for name in begin_marks.get(i, ()):
                out.append(MarkEvent(name))
            out.append(ev)
            for name in reversed(end_marks.get(i, ())):
                out.append(MarkEvent(name))
            if i in duplicates:
                out.extend(duplicates[i])
        return out, injected

    def _duplicated_envelope(
        self,
        events: Sequence[Event],
        start: int,
        end: int,
        point: FaultPoint,
        tag: str,
    ) -> List[Event]:
        """The cloned envelope for a duplicated-packet fault, bracketed by
        its fault marks, with the no-progress overrides and prunes
        applied.  The original's own marks are left out: region-accounting
        marks must not repeat."""
        dup = clone_events(
            ev for ev in events[start : end + 1] if not isinstance(ev, MarkEvent)
        )
        overrides = dict(point.dup_overrides)
        prune_set = set(point.dup_prune)
        exits = _match_exits(dup)
        drop = [False] * len(dup)
        for i, ev in enumerate(dup):
            if not isinstance(ev, EnterEvent) or drop[i]:
                continue
            if ev.fn in overrides:
                for key, value in overrides[ev.fn]:
                    ev.conds[forced_cond(ev.fn, key)] = value
            if ev.fn in prune_set:
                for j in range(i + 1, exits[i]):
                    drop[j] = True
        body = [ev for i, ev in enumerate(dup) if not drop[i]]
        return [MarkEvent(f"{tag}:begin"), *body, MarkEvent(f"{tag}:end")]


# --------------------------------------------------------------------------- #
# fault spans: bucket walked instructions per injected fault                  #
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class FaultSpan:
    """The trace extent of one injected fault (from its mark pair)."""

    ordinal: int
    kind: str
    fn: str
    start: int
    end: int

    @property
    def instructions(self) -> int:
        return self.end - self.start


def fault_spans(result: WalkResult) -> List[FaultSpan]:
    """Parse the fault marks of a walked (possibly faulted) trace.

    Every injected fault contributes one ``begin``/``end`` mark pair; the
    span between them is the instruction window in which the fault steered
    the walk (for pruning faults the window can be *shorter* than the
    pristine walk — the penalty then shows up in mCPI, not length).
    """
    begins: Dict[int, Tuple[str, str, int]] = {}
    spans: List[FaultSpan] = []
    for name, idx in result.marks:
        if not name.startswith(_MARK_PREFIX):
            continue
        parts = name.split(":")
        if len(parts) != 4 or not parts[0][len(_MARK_PREFIX) :].isdigit():
            continue
        ordinal = int(parts[0][len(_MARK_PREFIX) :])
        if parts[3] == "begin":
            begins[ordinal] = (parts[1], parts[2], idx)
        elif parts[3] == "end" and ordinal in begins:
            kind, fn, start = begins.pop(ordinal)
            spans.append(FaultSpan(ordinal, kind, fn, start, idx))
    return sorted(spans, key=lambda s: s.ordinal)
