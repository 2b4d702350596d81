"""Trace expansion: replay a run-time event stream over the linked image.

While the Python protocol stack processes a real packet it records a stream
of :class:`EnterEvent`/:class:`ExitEvent` pairs — one per modeled protocol
function — carrying the *actual* branch outcomes (checksum result, header
prediction hit, congestion-window state, loop trip counts) and the
*actual* simulated addresses of the objects touched (message buffer,
protocol state, stack).

The walker replays that stream against the build's IR: it follows each
function's control-flow graph using the recorded conditions, emits one
instruction per executed slot with its final linked address, expands call
linkage, and — for path-inlined builds — splices callee events into the
merged function's inline markers.  The resulting trace is what
:mod:`repro.arch` simulates.

Traces are produced in the packed column format
(:class:`~repro.arch.packed.PackedTrace`); the object-per-instruction
:class:`~repro.arch.isa.TraceEntry` view is materialized lazily from
:attr:`WalkResult.trace`.  To keep emission cheap, each materialized basic
block is compiled once per (function, base address) into *segments*:
straight-line runs become preassembled ``array``/``bytes`` columns appended
with C-level extends, and only instructions with data references (whose
addresses depend on the live run) are emitted one at a time.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.arch.isa import INSTRUCTION_SIZE, Op, TraceEntry
from repro.arch.packed import FLAG_DWRITE, FLAG_TAKEN, OP_CODES, PackedTrace
from repro.core.codegen import MatBlock, MatInstr, MaterializedFunction
from repro.core.ir import (
    CallDynamic,
    CallStatic,
    CondBranch,
    Fallthrough,
    InlineEnter,
    InlineExit,
    Jump,
    Return,
)
from repro.core.program import Program

_MISSING = object()

#: hard cap on trace length, to catch diverging cond specifications
MAX_TRACE_LENGTH = 2_000_000

#: default top-of-stack address when the run-time does not provide one.
#: Region bases are chosen not to alias each other (or the text segment)
#: in the 2 MB direct-mapped b-cache, matching the paper's observation
#: that the whole kernel runs out of the b-cache without conflicts.
DEFAULT_STACK_TOP = 0x0047_0000     # b-cache index 0x070000
#: default base of the GOT / demux-dispatch data regions
DEFAULT_GOT_BASE = 0x0060_0000      # b-cache index 0
DEFAULT_DEMUX_BASE = 0x0061_0000    # b-cache index 0x010000


class WalkError(RuntimeError):
    """The event stream disagreed with the IR (model drift)."""


@dataclass
class EnterEvent:
    """The live stack entered modeled function ``fn``.

    ``conds`` maps condition names (optionally ``"callee.cond"``-prefixed
    for static callees) to outcomes: ``bool`` (constant), ``int`` (loop
    trip count: True that many times, then False), list (one value per
    activation), or a zero-argument callable.

    ``data`` maps data-region names to simulated base addresses.
    """

    fn: str
    conds: Dict[str, object] = field(default_factory=dict)
    data: Dict[str, int] = field(default_factory=dict)


@dataclass
class ExitEvent:
    """The live stack returned from modeled function ``fn``."""

    fn: str


@dataclass
class MarkEvent:
    """A named position marker (used for Table 3's region accounting)."""

    name: str


Event = Union[EnterEvent, ExitEvent, MarkEvent]


def clone_events(events: Iterable[Event]) -> List[Event]:
    """A copy of an event stream that shares no mutable state with it:
    fresh events, cond and data dicts, and list-valued conds, so that
    rewriting one stream's conds never touches the other's."""
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


def forced_cond(fn: str, cond: str) -> str:
    """The cond key that forces ``fn``'s branch condition ``cond``.

    The walker reads a bare key only in a frame named like the branch
    block's origin, but clone frames (``"<fn>@clone"``) and path-inlined
    frames (``"tcpip_input_path"``) carry other names, so a bare override
    would be ignored there and the walk would follow the branch's assumed
    leg.  The ``"<fn>.<cond>"`` form is read in every frame."""
    return f"{fn}.{cond}"


class _CondStore:
    """Interprets raw condition values with per-activation semantics.

    Reads only: a list-valued cond is consumed through a per-key cursor,
    never popped, so a walk leaves its events as it found them."""

    def __init__(self, raw: Mapping[str, object]) -> None:
        self._raw = raw
        # per-key position of the next unconsumed list value
        self._cursor: Dict[str, int] = {}
        # per-(key, serial) activated value for list-valued conds
        self._active: Dict[Tuple[str, int], object] = {}
        # per-(key, serial) countdown state
        self._countdown: Dict[Tuple[str, int], int] = {}

    def try_query(self, key: str, serial: int) -> object:
        if key not in self._raw:
            return _MISSING
        value = self._raw[key]
        if isinstance(value, list):
            slot = (key, serial)
            if slot not in self._active:
                index = self._cursor.get(key, 0)
                if index >= len(value):
                    raise WalkError(f"condition list {key!r} exhausted")
                self._cursor[key] = index + 1
                self._active[slot] = value[index]
            value = self._active[slot]
        if callable(value):
            return bool(value())
        if isinstance(value, bool):
            return value
        if isinstance(value, int):
            slot = (key, serial)
            remaining = self._countdown.get(slot, value)
            self._countdown[slot] = remaining - 1
            return remaining > 0
        raise WalkError(f"condition {key!r} has unsupported value {value!r}")


@dataclass
class _Frame:
    name: str
    serial: int
    conds: _CondStore
    data: Dict[str, int]
    #: absolute position of the originating EnterEvent in the stream
    #: (-1 for frames synthesized for static callees, whose empty ``data``
    #: can never resolve a region)
    ordinal: int = -1


class WalkResult:
    """The expanded trace plus any position markers recorded en route.

    The trace is held packed (:attr:`packed`); :attr:`trace` materializes
    the ``TraceEntry`` list on first access and caches it.
    """

    __slots__ = ("packed", "marks", "_trace")

    def __init__(
        self,
        packed: Optional[PackedTrace] = None,
        marks: Optional[List[Tuple[str, int]]] = None,
        *,
        trace: Optional[List[TraceEntry]] = None,
    ) -> None:
        if packed is None:
            trace = list(trace or [])
            packed = PackedTrace.from_entries(trace)
            self._trace: Optional[List[TraceEntry]] = trace
        else:
            self._trace = trace
        self.packed = packed
        self.marks: List[Tuple[str, int]] = marks if marks is not None else []

    @property
    def trace(self) -> List[TraceEntry]:
        if self._trace is None:
            self._trace = self.packed.entries()
        return self._trace

    @property
    def length(self) -> int:
        return len(self.packed)

    def mark_index(self, name: str) -> int:
        for mark, idx in self.marks:
            if mark == name:
                return idx
        raise KeyError(f"no mark {name!r}")

    def span(self, start_mark: str, end_mark: str) -> int:
        """Instructions executed between two marks."""
        return self.mark_index(end_mark) - self.mark_index(start_mark)

    def __reduce__(self):
        # drop the materialized TraceEntry cache; it rebuilds lazily
        return (WalkResult, (self.packed, self.marks))


# --------------------------------------------------------------------------- #
# block compilation: MatBlock -> emission segments                            #
# --------------------------------------------------------------------------- #

#: segment tags
_SEG_BULK = 0    # (0, pcs_array, ops_bytes)
_SEG_DREF = 1    # (1, pc, op_code, flagbyte, region, offset, indexed, stride)

_TERM_GOTO = 0
_TERM_COND = 1
_TERM_CALL_STATIC = 2
_TERM_CALL_DYNAMIC = 3
_TERM_INLINE_ENTER = 4
_TERM_INLINE_EXIT = 5
_TERM_RETURN = 6

_TERM_TAGS = (
    (Fallthrough, _TERM_GOTO),
    (Jump, _TERM_GOTO),
    (CondBranch, _TERM_COND),
    (CallStatic, _TERM_CALL_STATIC),
    (CallDynamic, _TERM_CALL_DYNAMIC),
    (InlineEnter, _TERM_INLINE_ENTER),
    (InlineExit, _TERM_INLINE_EXIT),
    (Return, _TERM_RETURN),
)


class _CBlock:
    """One materialized block compiled into emission segments."""

    __slots__ = (
        "origin", "body", "tag", "term",
        "fallthrough_target", "br", "jmp", "got", "call", "epilogue",
    )

    def __init__(self, mblk: MatBlock, base: int) -> None:
        self.origin = mblk.origin
        self.body = _compile_body(mblk.instrs, base, mblk.start)
        mt = mblk.term
        self.term = mt.term
        for cls, tag in _TERM_TAGS:
            if isinstance(mt.term, cls):
                self.tag = tag
                break
        else:
            raise WalkError(f"unknown terminator {mt.term!r}")
        self.fallthrough_target = mt.fallthrough_target
        self.br = _compile_plain(mt.br, base)
        self.jmp = _compile_plain(mt.jmp, base)
        self.got = _compile_one(mt.got_load, base) if mt.got_load is not None else None
        self.call = _compile_plain(mt.call, base)
        self.epilogue = _compile_segments(mt.epilogue, base, ret_taken=True)


def _compile_plain(instr: Optional[MatInstr], base: int) -> Optional[Tuple[int, int]]:
    if instr is None:
        return None
    if instr.dref is not None:
        raise ValueError(f"branch/call instruction {instr.op} carries a data ref")
    return (base + instr.offset * INSTRUCTION_SIZE, OP_CODES[instr.op])


def _compile_one(instr: MatInstr, base: int) -> Tuple:
    """Compile a single instruction to its segment tuple."""
    pc = base + instr.offset * INSTRUCTION_SIZE
    dref = instr.dref
    if dref is None:
        if instr.op.is_memory:
            raise ValueError(f"memory op {instr.op} lacks a data address")
        return (_SEG_BULK, array("q", (pc,)), bytes((OP_CODES[instr.op],)))
    if not instr.op.is_memory:
        raise ValueError(f"non-memory op {instr.op} carries a data address")
    flagbyte = FLAG_DWRITE if instr.op is Op.STORE else 0
    return (_SEG_DREF, pc, OP_CODES[instr.op], flagbyte,
            dref.region, dref.offset, dref.indexed, dref.stride)


def _compile_body(instrs, base: int, start: int) -> List[Tuple]:
    """Compile a block body straight from its IR instructions.

    Equivalent to ``_compile_segments`` over the block's positioned
    ``body``, but skips building the intermediate ``MatInstr`` objects:
    the position of instruction *i* is simply ``start + i``.  Bodies never
    carry taken RETs (those live in epilogues), so no ``ret_taken`` mode.
    """
    segments: List[Tuple] = []
    run_pcs: List[int] = []
    run_ops = bytearray()
    pc = base + start * INSTRUCTION_SIZE
    for instr in instrs:
        dref = instr.dref
        if dref is None:
            if instr.op.is_memory:
                raise ValueError(f"memory op {instr.op} lacks a data address")
            run_pcs.append(pc)
            run_ops.append(OP_CODES[instr.op])
        else:
            if run_pcs:
                segments.append((_SEG_BULK, array("q", run_pcs), bytes(run_ops)))
                run_pcs = []
                run_ops = bytearray()
            if not instr.op.is_memory:
                raise ValueError(
                    f"non-memory op {instr.op} carries a data address")
            flagbyte = FLAG_DWRITE if instr.op is Op.STORE else 0
            segments.append((_SEG_DREF, pc, OP_CODES[instr.op], flagbyte,
                             dref.region, dref.offset, dref.indexed,
                             dref.stride))
        pc += INSTRUCTION_SIZE
    if run_pcs:
        segments.append((_SEG_BULK, array("q", run_pcs), bytes(run_ops)))
    return segments


def _compile_segments(instrs: List[MatInstr], base: int, *,
                      ret_taken: bool = False) -> List[Tuple]:
    """Compile an instruction run, coalescing dref-free stretches.

    ``ret_taken`` marks RET instructions as taken (epilogues); straight
    runs containing one are kept out of bulk segments.
    """
    segments: List[Tuple] = []
    run_pcs: List[int] = []
    run_ops = bytearray()

    def flush() -> None:
        if run_pcs:
            segments.append((_SEG_BULK, array("q", run_pcs), bytes(run_ops)))
            run_pcs.clear()
            run_ops.clear()

    for instr in instrs:
        if instr.dref is None and not (ret_taken and instr.op is Op.RET):
            if instr.op.is_memory:
                raise ValueError(f"memory op {instr.op} lacks a data address")
            run_pcs.append(base + instr.offset * INSTRUCTION_SIZE)
            run_ops.append(OP_CODES[instr.op])
            continue
        flush()
        if instr.dref is None:
            # a taken RET: emitted as a plain single with the taken flag
            segments.append((_SEG_DREF, base + instr.offset * INSTRUCTION_SIZE,
                             OP_CODES[instr.op], FLAG_TAKEN, None, 0, False, 0))
        else:
            segments.append(_compile_one(instr, base))
    flush()
    return segments


class _LazyCBlocks(dict):
    """Label -> :class:`_CBlock`, compiled on first lookup.

    A walk only ever visits the blocks it executes; outlined cold blocks
    (most of a function after outlining) are never looked up, so eager
    compilation wastes the bulk of the work."""

    __slots__ = ("_mfn", "_base")

    def __init__(self, mfn: MaterializedFunction, base: int) -> None:
        super().__init__()
        self._mfn = mfn
        self._base = base

    def __missing__(self, label: str) -> _CBlock:
        cblk = _CBlock(self._mfn.block(label), self._base)
        self[label] = cblk
        return cblk


def _compiled_blocks(program: Program, name: str) -> Dict[str, _CBlock]:
    """Per-(materialized function, base) compiled blocks, cached on the
    materialized function so IR invalidation naturally discards them."""
    mfn = program.materialized(name)
    base = program.address_of(name)
    cached = getattr(mfn, "_walk_cblocks", None)
    if cached is not None and cached[0] == base:
        return cached[1]
    cblocks = _LazyCBlocks(mfn, base)
    mfn._walk_cblocks = (base, cblocks)  # type: ignore[attr-defined]
    return cblocks


#: The ``on_dref`` hook of :meth:`Walker.walk`: called once per emitted
#: data reference, in trace order, with its trace index, its region's
#: source key and the base address the region resolved to.  Source keys:
#: ("env", region) — resolved from the walker's data environment;
#: ("evt", ordinal, region) — resolved from the data dict of the
#: EnterEvent at absolute stream position ``ordinal``; ``None`` — a
#: stack-relative reference, whose address any structurally identical
#: walk reproduces exactly (its base is the stack pointer).
DrefHook = Callable[[int, Optional[Tuple], int], None]


class DataSlots(Dict[Tuple, Tuple[int, List[int]]]):
    """A walk's data-slot provenance: which trace indices resolved
    against which region base.

    Maps each source key (see :data:`DrefHook`) to the base address the
    walk resolved it at and the trace indices of the data references it
    served; the key's last element is the region.  :meth:`record` is the
    ``on_dref`` hook that fills it, on either walker.  Stack-relative
    references carry no source key and are not recorded.
    """

    def record(self, idx: int, src: Optional[Tuple], base: int) -> None:
        if src is None:
            return
        slot = self.get(src)
        if slot is None:
            self[src] = (base, [idx])
        else:
            slot[1].append(idx)


class Walker:
    """Expands event streams into instruction traces for one program build."""

    def __init__(
        self,
        program: Program,
        data_env: Optional[Mapping[str, int]] = None,
        *,
        stack_top: int = DEFAULT_STACK_TOP,
    ) -> None:
        self.program = program
        self.data_env: Dict[str, int] = {
            "got": DEFAULT_GOT_BASE,
            "demux": DEFAULT_DEMUX_BASE,
        }
        if data_env:
            self.data_env.update(data_env)
        self._stack_top = stack_top

    # ------------------------------------------------------------------ #
    # public API                                                         #
    # ------------------------------------------------------------------ #

    def walk(
        self,
        events: Iterable[Event],
        *,
        on_dref: Optional[DrefHook] = None,
    ) -> WalkResult:
        """Expand a complete, well-nested event stream into a trace.

        ``on_dref`` (see :data:`DrefHook`; :meth:`DataSlots.record` is
        one) receives, for every emitted data reference, the trace index,
        the region's source key, and the resolved base address.
        """
        stream: List[Event] = list(events)
        pos = 0
        n_events = len(stream)
        pcs: array = array("q")
        daddrs: array = array("q")
        ops = bytearray()
        flags = bytearray()
        pcs_extend = pcs.extend
        daddrs_extend = daddrs.extend
        ops_extend = ops.extend
        flags_extend = flags.extend
        pcs_append = pcs.append
        daddrs_append = daddrs.append
        ops_append = ops.append
        flags_append = flags.append

        marks: List[Tuple[str, int]] = []
        frames: List[_Frame] = []
        serial_counter = 0
        sp = self._stack_top
        data_env = self.data_env
        program = self.program
        recording = on_dref is not None

        def resolve_cond(origin: str, cond: str) -> Optional[bool]:
            serial = None
            for frame in reversed(frames):
                if frame.name == origin:
                    serial = frame.serial
                    break
            if serial is None:
                serial = frames[-1].serial if frames else 0
            prefixed = f"{origin}.{cond}"  # forced_cond(origin, cond)
            for frame in reversed(frames):
                value = frame.conds.try_query(prefixed, serial)
                if value is not _MISSING:
                    return bool(value)
                if frame.name == origin:
                    value = frame.conds.try_query(cond, serial)
                    if value is not _MISSING:
                        return bool(value)
            return None

        def resolve_region(region: str) -> Tuple[int, Optional[Tuple]]:
            if region == "stack":
                return sp, None
            for frame in reversed(frames):
                if region in frame.data:
                    if frame.ordinal < 0:
                        return frame.data[region], None
                    return frame.data[region], ("evt", frame.ordinal, region)
            if region in data_env:
                return data_env[region], ("env", region)
            raise WalkError(f"unresolved data region {region!r}")

        def emit_seg(seg: Tuple, visit_index: int) -> None:
            """Emit one dref (or flagged single) segment."""
            region = seg[4]
            if region is None:
                daddr = -1
            else:
                base_val, src = resolve_region(region)
                daddr = base_val + seg[5]
                if seg[6]:
                    daddr += visit_index * seg[7]
                if recording:
                    on_dref(len(daddrs), src, base_val)
            pcs_append(seg[1])
            ops_append(seg[2])
            daddrs_append(daddr)
            flags_append(seg[3])

        def emit_plain(compiled: Tuple[int, int], taken: bool) -> None:
            pcs_append(compiled[0])
            ops_append(compiled[1])
            daddrs_append(-1)
            flags_append(FLAG_TAKEN if taken else 0)

        def pop_event() -> Event:
            nonlocal pos
            if pos >= n_events:
                raise WalkError("event stream ended mid-walk")
            ev = stream[pos]
            pos += 1
            return ev

        def drain_marks() -> None:
            nonlocal pos
            while pos < n_events and isinstance(stream[pos], MarkEvent):
                marks.append((stream[pos].name, len(pcs)))
                pos += 1

        def expect_enter(expected: Optional[str] = None) -> Tuple[EnterEvent, int]:
            drain_marks()
            ordinal = pos
            ev = pop_event()
            if not isinstance(ev, EnterEvent):
                raise WalkError(f"expected ENTER, got {ev!r}")
            if expected is not None and ev.fn != expected:
                raise WalkError(f"expected ENTER {expected!r}, got {ev.fn!r}")
            return ev, ordinal

        def expect_exit(expected: str) -> None:
            drain_marks()
            ev = pop_event()
            if not isinstance(ev, ExitEvent) or ev.fn != expected:
                raise WalkError(f"expected EXIT {expected!r}, got {ev!r}")

        def walk_function(name: str, conds: Mapping[str, object],
                          data: Mapping[str, int], ordinal: int) -> None:
            nonlocal serial_counter, sp
            fn = program.function(name)
            cblocks = _compiled_blocks(program, name)
            serial_counter += 1
            frame = _Frame(name=name, serial=serial_counter,
                           conds=_CondStore(conds), data=dict(data),
                           ordinal=ordinal)
            frames.append(frame)
            depth_at_entry = len(frames)
            sp -= fn.frame
            visits: Dict[str, int] = {}

            label: Optional[str] = program.materialized(name).entry_label()
            while label is not None:
                cblk = cblocks[label]
                visit_index = visits.get(label, 0)
                visits[label] = visit_index + 1
                for seg in cblk.body:
                    if seg[0] == _SEG_BULK:
                        pcs_extend(seg[1])
                        ops_extend(seg[2])
                        n = len(seg[1])
                        daddrs_extend(_NEG_ONES[:n] if n <= _BULK
                                      else array("q", [-1]) * n)
                        flags_extend(_ZEROS[:n] if n <= _BULK else bytes(n))
                    else:
                        emit_seg(seg, visit_index)
                if len(pcs) >= MAX_TRACE_LENGTH:
                    raise WalkError("trace length cap exceeded (diverging model?)")
                label = step_terminator(cblk, visit_index)

            if len(frames) != depth_at_entry:
                raise WalkError(f"{name}: unbalanced inline scopes at return")
            sp += fn.frame
            frames.pop()

        def step_terminator(cblk: _CBlock, visit_index: int) -> Optional[str]:
            nonlocal serial_counter
            tag = cblk.tag
            term = cblk.term

            if tag == _TERM_GOTO:
                if cblk.jmp is not None:
                    emit_plain(cblk.jmp, True)
                return term.target

            if tag == _TERM_COND:
                value = resolve_cond(cblk.origin, term.cond)
                if value is None:
                    value = term.assumed()
                target = term.when_true if value else term.when_false
                if cblk.fallthrough_target is not None:
                    emit_plain(cblk.br, target != cblk.fallthrough_target)
                else:
                    # br reaches when_true; jmp reaches when_false
                    if value:
                        emit_plain(cblk.br, True)
                    else:
                        emit_plain(cblk.br, False)
                        emit_plain(cblk.jmp, True)
                return target

            if tag == _TERM_CALL_STATIC:
                if cblk.got is not None:
                    emit_seg(cblk.got, visit_index)
                emit_plain(cblk.call, True)
                callee = program.resolve_entry(term.callee)
                walk_function(callee, {}, {}, -1)
                if cblk.jmp is not None:
                    emit_plain(cblk.jmp, True)
                return term.next

            if tag == _TERM_CALL_DYNAMIC:
                if cblk.got is not None:
                    emit_seg(cblk.got, visit_index)
                emit_plain(cblk.call, True)
                ev, ordinal = expect_enter()
                callee = program.resolve_entry(ev.fn)
                walk_function(callee, ev.conds, ev.data, ordinal)
                expect_exit(ev.fn)
                if cblk.jmp is not None:
                    emit_plain(cblk.jmp, True)
                return term.next

            if tag == _TERM_INLINE_ENTER:
                ev, ordinal = expect_enter(term.callee)
                serial_counter += 1
                frames.append(
                    _Frame(name=ev.fn, serial=serial_counter,
                           conds=_CondStore(ev.conds), data=dict(ev.data),
                           ordinal=ordinal)
                )
                if cblk.jmp is not None:
                    emit_plain(cblk.jmp, True)
                return term.next

            if tag == _TERM_INLINE_EXIT:
                expect_exit(term.callee)
                if not frames or frames[-1].name != term.callee:
                    raise WalkError(
                        f"inline exit for {term.callee!r} does not match scope stack"
                    )
                frames.pop()
                if cblk.jmp is not None:
                    emit_plain(cblk.jmp, True)
                return term.next

            if tag == _TERM_RETURN:
                for seg in cblk.epilogue:
                    if seg[0] == _SEG_BULK:
                        pcs_extend(seg[1])
                        ops_extend(seg[2])
                        n = len(seg[1])
                        daddrs_extend(_NEG_ONES[:n] if n <= _BULK
                                      else array("q", [-1]) * n)
                        flags_extend(_ZEROS[:n] if n <= _BULK else bytes(n))
                    else:
                        emit_seg(seg, visit_index)
                return None

            raise WalkError(f"unknown terminator {term!r}")

        # top-level loop: a sequence of ENTER ... EXIT envelopes
        while pos < n_events:
            drain_marks()
            if pos >= n_events:
                break
            ev, ordinal = expect_enter()
            walk_function(program.resolve_entry(ev.fn), ev.conds, ev.data, ordinal)
            expect_exit(ev.fn)

        # the two mutually recursive closures form a reference cycle that
        # holds the program; break it so the build is freed on release
        del walk_function, step_terminator
        packed = PackedTrace(pcs, daddrs, ops, flags)
        return WalkResult(packed, marks)


#: preallocated fill buffers for bulk emission
_BULK = 512
_NEG_ONES = array("q", [-1]) * _BULK
_ZEROS = bytes(_BULK)
