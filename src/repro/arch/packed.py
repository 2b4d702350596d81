"""Packed column-oriented traces: the fast engine's native representation.

A :class:`~repro.arch.isa.TraceEntry` is convenient but expensive: one
Python object (plus an ``Op`` enum reference and an optional boxed data
address) per executed instruction.  A roundtrip trace is ~4,500 entries and
the harness walks and simulates tens of thousands of them per sweep, so the
object-per-instruction representation dominates both time and memory.

:class:`PackedTrace` stores the same information as four parallel columns:

``pcs``     ``array('q')`` — fetch addresses,
``daddrs``  ``array('q')`` — effective data address, ``-1`` for none,
``ops``     ``bytes``-like — small-int instruction-class codes,
``flags``   ``bytes``-like — bit 0 = branch taken, bit 1 = data write.

Columns make three things cheap that the fast engine depends on:

* bulk emission — the walker appends whole straight-line block bodies with
  C-level ``extend`` calls instead of constructing objects one by one;
* fingerprinting — a trace hashes in one pass over its column buffers,
  which keys the simulation-result cache;
* dispatch-free simulation — the fused kernel iterates ``zip`` of columns
  and never touches an enum or dataclass in its inner loop.

``TraceEntry`` views are materialized lazily (``entries()``/iteration) for
the reference simulator and for analysis code that wants objects.
"""

from __future__ import annotations

import hashlib
from array import array
from typing import Iterable, Iterator, List, Optional, Sequence

from repro.arch.isa import Op, TraceEntry

#: stable small-int code per instruction class (index into ``OPS_BY_CODE``)
OPS_BY_CODE: Sequence[Op] = tuple(Op)
OP_CODES = {op: code for code, op in enumerate(OPS_BY_CODE)}

#: per-code predicates, indexable by the packed column values
IS_MEMORY = tuple(op.is_memory for op in OPS_BY_CODE)
IS_BRANCH = tuple(op.is_branch for op in OPS_BY_CODE)

FLAG_TAKEN = 1
FLAG_DWRITE = 2


class PackedTrace:
    """A trace as four parallel columns (see module docstring)."""

    __slots__ = ("pcs", "daddrs", "ops", "flags", "_fingerprint", "_cpu_key",
                 "_derived", "_shared")

    def __init__(
        self,
        pcs: Optional[array] = None,
        daddrs: Optional[array] = None,
        ops: Optional[bytearray] = None,
        flags: Optional[bytearray] = None,
    ) -> None:
        self.pcs: array = pcs if pcs is not None else array("q")
        self.daddrs: array = daddrs if daddrs is not None else array("q")
        self.ops: bytearray = ops if ops is not None else bytearray()
        self.flags: bytearray = flags if flags is not None else bytearray()
        if not (len(self.pcs) == len(self.daddrs) == len(self.ops) == len(self.flags)):
            raise ValueError("packed columns must have equal lengths")
        self._fingerprint: Optional[str] = None
        self._cpu_key: Optional[str] = None
        #: derived-column cache (block-number columns, keyed by block size);
        #: see :func:`repro.arch.fastsim.data_blocks`
        self._derived: dict = {}
        #: cache for derivations of ``pcs``, ``ops`` and ``flags`` only; a
        #: template rebind points every sibling trace (same code, different
        #: data addresses) at one shared dict, so the fetch-run encoding and
        #: the CPU pass are computed once per template (see
        #: ``repro.arch.fastsim.fetch_runs`` and ``cpu_pass``)
        self._shared: dict = {}

    # ------------------------------------------------------------------ #
    # construction                                                       #
    # ------------------------------------------------------------------ #

    def append(self, pc: int, op_code: int, daddr: int = -1,
               dwrite: bool = False, taken: bool = False) -> None:
        """Append one instruction; ``daddr`` is ``-1`` for non-memory ops."""
        if (daddr >= 0) != IS_MEMORY[op_code]:
            op = OPS_BY_CODE[op_code]
            raise ValueError(
                f"op {op} with daddr={daddr}: memory ops need a data address,"
                " non-memory ops must not carry one"
            )
        self.pcs.append(pc)
        self.daddrs.append(daddr)
        self.ops.append(op_code)
        self.flags.append((FLAG_TAKEN if taken else 0) | (FLAG_DWRITE if dwrite else 0))
        self._fingerprint = None
        self._cpu_key = None
        self._derived.clear()
        self._shared = {}

    def extend_straight(self, pcs: array, ops: bytes) -> None:
        """Bulk-append a straight-line run: no data refs, nothing taken.

        This is the walker's fast path for block bodies; all four columns
        grow with C-level extends.
        """
        n = len(pcs)
        self.pcs.extend(pcs)
        self.ops.extend(ops)
        self.daddrs.extend(_NEG_ONES[:n] if n <= _BULK else array("q", [-1]) * n)
        self.flags.extend(_ZEROS[:n] if n <= _BULK else bytes(n))
        self._fingerprint = None
        self._cpu_key = None
        self._derived.clear()
        self._shared = {}

    @classmethod
    def from_entries(cls, entries: Iterable[TraceEntry]) -> "PackedTrace":
        packed = cls()
        append = packed.append
        codes = OP_CODES
        for e in entries:
            append(e.pc, codes[e.op], -1 if e.daddr is None else e.daddr,
                   e.dwrite, e.taken)
        return packed

    def shifted(self, offset: int) -> "PackedTrace":
        """A copy with every address rebased by ``offset``.

        The traffic engine uses this to load a second protocol image at a
        bcache-aligned offset: the shifted trace keeps every cache index
        (any offset that is a multiple of the largest cache size preserves
        block-modulo-geometry) while occupying distinct blocks, so two
        images compete for lines without aliasing each other's code.
        Data addresses shift too; ``-1`` (no memory access) is preserved.
        """
        if offset == 0:
            return self
        pcs = array("q", (pc + offset for pc in self.pcs))
        daddrs = array("q", (d if d < 0 else d + offset for d in self.daddrs))
        return PackedTrace(pcs, daddrs, bytearray(self.ops), bytearray(self.flags))

    # ------------------------------------------------------------------ #
    # views                                                              #
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.pcs)

    def entry(self, i: int) -> TraceEntry:
        daddr = self.daddrs[i]
        fl = self.flags[i]
        return TraceEntry(
            pc=self.pcs[i],
            op=OPS_BY_CODE[self.ops[i]],
            daddr=None if daddr < 0 else daddr,
            dwrite=bool(fl & FLAG_DWRITE),
            taken=bool(fl & FLAG_TAKEN),
        )

    def __getitem__(self, i: int) -> TraceEntry:
        return self.entry(i)

    def __iter__(self) -> Iterator[TraceEntry]:
        ops_by_code = OPS_BY_CODE
        for pc, daddr, code, fl in zip(self.pcs, self.daddrs, self.ops, self.flags):
            yield TraceEntry(
                pc=pc,
                op=ops_by_code[code],
                daddr=None if daddr < 0 else daddr,
                dwrite=bool(fl & FLAG_DWRITE),
                taken=bool(fl & FLAG_TAKEN),
            )

    def entries(self) -> List[TraceEntry]:
        """Materialize the object-per-instruction view."""
        return list(self)

    # ------------------------------------------------------------------ #
    # fingerprints                                                       #
    # ------------------------------------------------------------------ #

    def fingerprint(self) -> str:
        """Content hash over all four columns (simulation-result cache key).

        Two traces with equal fingerprints produce identical simulation
        results under any machine configuration.
        """
        if self._fingerprint is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(len(self).to_bytes(8, "little"))
            h.update(self.pcs.tobytes())
            h.update(self.daddrs.tobytes())
            h.update(bytes(self.ops))
            h.update(bytes(self.flags))
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def cpu_key(self) -> str:
        """Content hash over the columns the CPU issue model observes.

        The dual-issue model never looks at addresses, so traces that
        differ only in ``pcs``/``daddrs`` (e.g. the same build walked under
        different allocator-jitter seeds) share one CPU result.
        """
        if self._cpu_key is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(len(self).to_bytes(8, "little"))
            h.update(bytes(self.ops))
            h.update(bytes(self.flags))
            self._cpu_key = h.hexdigest()
        return self._cpu_key

    # ------------------------------------------------------------------ #
    # pickling (drop cached hashes, keep columns)                        #
    # ------------------------------------------------------------------ #

    def __reduce__(self):
        return (PackedTrace, (self.pcs, self.daddrs, self.ops, self.flags))


#: preallocated fill buffers for bulk extends
_BULK = 512
_NEG_ONES = array("q", [-1]) * _BULK
_ZEROS = bytes(_BULK)
