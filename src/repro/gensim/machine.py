"""Bound kernels, the kernel cache, and the ``GenMachine`` engine facade.

A *bound kernel* is the unit of generation: one frozen cell (cache
geometry × machine configuration, identified by :func:`cell_fingerprint`)
bound to one packed trace (identified by its content fingerprint).
Generation is memoized on ``(GEN_VERSION, cell, trace, path)`` — mutate
the geometry, the layout or the configuration and the fingerprint moves,
so a stale kernel can never be reused (mirroring the stale-artifact
detection in ``repro.search``); bump :data:`GEN_VERSION` when the
generator itself changes and every cached kernel and simcache entry is
invalidated at once.

:class:`GenMachine` exposes the generated kernels behind the exact
``MachineSimulator``/``FastMachine`` API so the harness can treat
``gensim`` as just another engine.  Requests the generated kernels
cannot serve exactly are *declined* with :class:`GensimCapabilityError`
rather than served approximately: attribution sinks (the generated
passes do not replay per-function spans) and the vector path without
numpy.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from typing import Dict, Optional, Tuple

from repro.arch.cpu import CpuStats
from repro.arch.fastsim import (
    FastMachine,
    as_packed,
    cpu_pass,
    data_blocks,
    fetch_runs,
)
from repro.arch.memory import MemoryConfig, MemoryStats
from repro.arch.packed import PackedTrace
from repro.arch.simulator import AlphaConfig, SimResult
from repro.gensim.emit import EMIT_VERSION, compile_kernel

try:  # the vector path needs numpy; the source path must not
    import numpy  # noqa: F401

    _HAVE_NUMPY = True
except Exception:  # pragma: no cover - numpy is baked into the image
    _HAVE_NUMPY = False

#: generator version: participates in every kernel and simcache key, so
#: bumping it after a semantic change invalidates all cached artifacts.
GEN_VERSION = 1

PATHS = ("auto", "vector", "source")

#: bounded memo of bound kernels and of per-cell compiled sources
_KERNELS_MAX = 64
_kernels: Dict[Tuple, "BoundKernel"] = {}
_cell_sources: Dict[str, Tuple] = {}
_generated = 0  # monotonic: total kernel generations this process


class GensimCapabilityError(RuntimeError):
    """A request the generated kernels decline to serve (never silently
    degraded): attribution sinks, or the vector path without numpy."""


def have_numpy() -> bool:
    return _HAVE_NUMPY


_cell_fps: Dict[AlphaConfig, str] = {}


def cell_fingerprint(config: Optional[AlphaConfig] = None) -> str:
    """Content hash of one frozen cell: generator version + the complete
    machine configuration (geometry, latencies, CPU timing)."""
    cfg = config or AlphaConfig()
    fp = _cell_fps.get(cfg)
    if fp is None:
        h = hashlib.blake2b(digest_size=16)
        h.update(f"gensim:{GEN_VERSION}:{EMIT_VERSION}|{cfg!r}".encode())
        fp = h.hexdigest()
        if len(_cell_fps) < 256:
            _cell_fps[cfg] = fp
    return fp


def _resolve_path(path: str) -> str:
    if path not in PATHS:
        raise ValueError(
            f"unknown gensim path {path!r}; expected one of {', '.join(PATHS)}"
        )
    if path == "auto":
        return "vector" if _HAVE_NUMPY else "source"
    if path == "vector" and not _HAVE_NUMPY:
        raise GensimCapabilityError(
            "the gensim vector path requires numpy; use path='source'"
        )
    return path


class SourceState:
    """Machine state for emitted kernels (FastMachine-shaped)."""

    __slots__ = (
        "itags",
        "dtags",
        "btags",
        "i_ever",
        "d_ever",
        "b_ever",
        "wb",
        "wb_set",
        "wb_pairs",
        "sb_block",
        "sb_was_miss",
        "c",
    )

    def __init__(self, mem: MemoryConfig) -> None:
        bs = mem.block_size
        self.itags = [-1] * (mem.icache_size // bs)
        self.dtags = [-1] * (mem.dcache_size // bs)
        self.btags = [-1] * (mem.bcache_size // bs)
        self.i_ever: set = set()
        self.d_ever: set = set()
        self.b_ever: set = set()
        # FIFO entries (blocks, or pair ids under write coalescing),
        # block-membership set, and the coalescing pair -> blocks map
        self.wb: list = []
        self.wb_set: set = set()
        self.wb_pairs: dict = {}
        self.sb_block = -1
        self.sb_was_miss = False
        self.c = [0] * 15


class _Transition:
    """One resolved pass of a bound kernel from one entry state: the
    counter delta plus everything a replay must scatter into the state
    (the i/d exit scatters are trace constants held by the tables; only
    the b-cache scatter, the ever arrays, and the scalars vary)."""

    __slots__ = (
        "delta",
        "b_upd_idx",
        "b_upd_val",
        "i_ever",
        "d_ever",
        "b_ever",
        "wb",
        "sb_block",
        "sb_was_miss",
        "settled",
        "exit_token",
    )


class BoundKernel:
    """One generated kernel: a cell's specialized pass bound to a trace.

    The vector path resolves a pass *once per entry state*: every pass
    both runs vectorized and is recorded as a :class:`_Transition`
    keyed by the entry state's provenance token, so repeating the same
    transition — a fresh cold machine re-running the bound trace, the
    warm-up ladder of the cold-and-steady protocol — replays as a
    counter delta plus an exit-state scatter.  That replay is where the
    order-of-magnitude over the interpreted engines comes from; a state
    the kernel has never seen still pays exactly one vectorized pass.
    """

    __slots__ = (
        "path",
        "config",
        "cell_fp",
        "trace_fp",
        "source",
        "_packed",
        "_mem",
        "_tables",
        "_src_fn",
        "_runs",
        "_dblks",
        "_cpu",
        "_transitions",
    )

    #: bounded per-kernel transition memo (the steady protocol needs
    #: cold + a handful of warm entries; chains close at exact fixed
    #: points, so this only fills under adversarial warm-up ladders)
    TRANSITIONS_MAX = 32

    def __init__(self, packed: PackedTrace, config: AlphaConfig, path: str) -> None:
        self.path = path
        self.config = config
        self.cell_fp = cell_fingerprint(config)
        self.trace_fp = packed.fingerprint()
        self._packed = packed
        self._mem = config.memory
        self._cpu: Optional[CpuStats] = None
        self._transitions: Dict[Tuple[str, ...], _Transition] = {}
        self.source = ""
        if path == "vector":
            from repro.gensim.vector import trace_tables

            self._tables = trace_tables(packed, self._mem)
            self._src_fn = None
            self._runs = None
            self._dblks = None
        else:
            cached = _cell_sources.get(self.cell_fp)
            if cached is None:
                cached = compile_kernel(self._mem, self.cell_fp[:12])
                while len(_cell_sources) >= _KERNELS_MAX:
                    _cell_sources.pop(next(iter(_cell_sources)))
                _cell_sources[self.cell_fp] = cached
            self._src_fn, self.source = cached
            bs = self._mem.block_size
            i_n = self._mem.icache_size // bs
            self._runs = fetch_runs(packed, bs, i_n)
            self._dblks = data_blocks(packed, bs)
            self._tables = None

    def new_state(self):
        if self.path == "vector":
            from repro.gensim.vector import VectorState

            return VectorState(self._mem)
        return SourceState(self._mem)

    def mem_pass(self, state, track: bool = False) -> bool:
        if self.path != "vector":
            run_blks, run_idxs, dcounts = self._runs
            return self._src_fn(
                state,
                run_blks,
                run_idxs,
                dcounts,
                self._dblks,
                len(self._packed),
                track,
            )
        tr = self._transitions.get(state.token)
        if tr is None:
            tr = self._resolve(state)
        else:
            self._replay(state, tr)
        return tr.settled if track else False

    def _resolve(self, state) -> _Transition:
        """Run one vectorized pass for real and record the transition."""
        from repro.gensim.vector import mem_pass_vector

        entry_token = state.token
        before = list(state.c)
        capture: dict = {}
        mem_pass_vector(self._tables, self._mem, state, track=True, capture=capture)
        tr = _Transition()
        tr.delta = [a - b for a, b in zip(state.c, before)]
        tr.b_upd_idx = capture["b_upd_idx"]
        tr.b_upd_val = capture["b_upd_val"]
        tr.i_ever = state.i_ever
        tr.d_ever = state.d_ever
        tr.b_ever = state.b_ever
        tr.wb = state.wb
        tr.sb_block = state.sb_block
        tr.sb_was_miss = state.sb_was_miss
        tr.settled = capture["settled"]
        if capture["exact"]:
            # the pass returned the state bit-for-bit: the chain closes,
            # so warm-up ladders of any depth stay O(1) entries
            tr.exit_token = entry_token
        else:
            h = hashlib.blake2b(digest_size=16)
            h.update(f"{entry_token}|{self.cell_fp}|{self.trace_fp}".encode())
            tr.exit_token = h.hexdigest()
        state.token = tr.exit_token
        while len(self._transitions) >= self.TRANSITIONS_MAX:
            self._transitions.pop(next(iter(self._transitions)))
        self._transitions[entry_token] = tr
        return tr

    def _replay(self, state, tr: _Transition) -> None:
        """Apply a recorded transition: counters, scatters, scalars."""
        t = self._tables
        state.c = [a + b for a, b in zip(state.c, tr.delta)]
        state.itags[t.i_upd_idx] = t.i_upd_val
        state.dtags[t.d_upd_idx] = t.d_upd_val
        state.btags[tr.b_upd_idx] = tr.b_upd_val
        state.i_ever = tr.i_ever
        state.d_ever = tr.d_ever
        state.b_ever = tr.b_ever
        state.wb = tr.wb
        state.sb_block = tr.sb_block
        state.sb_was_miss = tr.sb_was_miss
        state.token = tr.exit_token

    def cpu(self) -> CpuStats:
        """The (stateless) CPU result for the bound trace and config."""
        if self._cpu is None:
            if self.path == "vector":
                from repro.gensim.vector import cpu_counts

                n, groups, pairs, taken, mults = cpu_counts(self._packed)
                ccfg = self.config.cpu
                self._cpu = CpuStats(
                    instructions=n,
                    cycles=(
                        groups
                        + ccfg.multiply_extra_cycles * mults
                        + ccfg.taken_branch_penalty * taken
                    ),
                    issue_slots_wasted=groups - pairs,
                    taken_branches=taken,
                    multiplies=mults,
                )
            else:
                self._cpu = cpu_pass(self._packed, self.config.cpu)
        return replace(self._cpu)


def bound_kernel(
    packed: PackedTrace, config: Optional[AlphaConfig] = None, path: str = "auto"
) -> BoundKernel:
    """The memoized kernel for (cell, trace, path); generates on miss."""
    global _generated
    cfg = config or AlphaConfig()
    resolved = _resolve_path(path)
    key = (GEN_VERSION, cell_fingerprint(cfg), packed.fingerprint(), resolved)
    kernel = _kernels.get(key)
    if kernel is None:
        kernel = BoundKernel(packed, cfg, resolved)
        _generated += 1
        while len(_kernels) >= _KERNELS_MAX:
            _kernels.pop(next(iter(_kernels)))
        _kernels[key] = kernel
    return kernel


def generated_kernel_count() -> int:
    """Total kernel generations this process (monotonic; cache hits do
    not move it — the invalidation tests key off that)."""
    return _generated


def clear_kernels() -> None:
    """Drop all memoized kernels and compiled cell sources."""
    _kernels.clear()
    _cell_sources.clear()


class GenMachine:
    """Generated-kernel engine behind the ``FastMachine`` API.

    Like the interpreted machines, the hierarchy persists across calls so
    a warm-up can precede the measured run; a fresh instance is a cold
    machine.  ``path`` selects the kernel flavour: ``"vector"`` (numpy),
    ``"source"`` (emitted specialized Python), or ``"auto"``.
    """

    def __init__(
        self, config: Optional[AlphaConfig] = None, *, sink=None, path: str = "auto"
    ) -> None:
        if sink is not None:
            raise GensimCapabilityError(
                "gensim does not support attribution sinks: generated "
                "passes do not replay per-function spans; use the fast or "
                "reference engine for attribution"
            )
        self.config = config or AlphaConfig()
        self.path = _resolve_path(path)
        self.reset()

    def reset(self) -> None:
        self._state = None  # lazily shaped on first pass

    def _ensure_state(self, kernel: BoundKernel):
        if self._state is None:
            self._state = kernel.new_state()
        return self._state

    @property
    def stats(self) -> MemoryStats:
        c = self._state.c if self._state is not None else [0] * 15
        return FastMachine._stats_from(c)

    def warm_up(self, trace) -> None:
        """Run a trace purely for its cache side effects."""
        packed = as_packed(trace)
        kernel = bound_kernel(packed, self.config, self.path)
        kernel.mem_pass(self._ensure_state(kernel))

    # ------------------------------------------------------------------ #
    # state snapshot / restore (streaming support)                       #
    # ------------------------------------------------------------------ #

    def _shaped_state(self):
        if self._state is None:
            mem = self.config.memory
            if self.path == "vector":
                from repro.gensim.vector import VectorState

                self._state = VectorState(mem)
            else:
                self._state = SourceState(mem)
        return self._state

    def snapshot_state(self) -> tuple:
        """The hierarchy's state as one hashable token (counters and the
        provenance token excluded); mirrors
        :meth:`repro.arch.fastsim.FastMachine.snapshot_state`, including
        its resident-block b-cache part."""
        st = self._shaped_state()
        n = self.config.memory.bcache_size // self.config.memory.block_size
        if self.path == "vector":
            # b_ever is sorted and unique, so the resident blocks are too
            ever = st.b_ever
            return (
                st.itags.tobytes(),
                st.dtags.tobytes(),
                ever[st.btags[ever % n] == ever].tobytes(),
                st.i_ever.tobytes(),
                st.d_ever.tobytes(),
                ever.tobytes(),
                tuple(st.wb),
                st.sb_block,
                st.sb_was_miss,
            )
        bt = st.btags
        if self.config.memory.write_coalescing:
            wb_tok: tuple = tuple(
                (pair, tuple(st.wb_pairs[pair])) for pair in st.wb
            )
        else:
            wb_tok = tuple(st.wb)
        return (
            tuple(st.itags),
            tuple(st.dtags),
            frozenset([b for b in st.b_ever if bt[b % n] == b]),
            frozenset(st.i_ever),
            frozenset(st.d_ever),
            frozenset(st.b_ever),
            wb_tok,
            st.sb_block,
            st.sb_was_miss,
        )

    def restore_state(self, snap: tuple, *, token: str = "restored") -> None:
        """Restore a :meth:`snapshot_state` token.

        ``token`` becomes the vector state's provenance: the caller must
        make it unique per distinct snapshot (two states with equal tokens
        are assumed bit-identical by the transition-replay memo).
        """
        st = self._shaped_state()
        n = self.config.memory.bcache_size // self.config.memory.block_size
        itags, dtags, resident, i_ever, d_ever, b_ever, wb, sb, sbm = snap
        if self.path == "vector":
            import numpy as np

            i64 = np.int64
            st.itags = np.frombuffer(itags, dtype=i64).copy()
            st.dtags = np.frombuffer(dtags, dtype=i64).copy()
            # every set but the resident blocks' is empty
            blocks = np.frombuffer(resident, dtype=i64)
            st.btags = np.full(n, -1, dtype=i64)
            st.btags[blocks % n] = blocks
            st.i_ever = np.frombuffer(i_ever, dtype=i64).copy()
            st.d_ever = np.frombuffer(d_ever, dtype=i64).copy()
            st.b_ever = np.frombuffer(b_ever, dtype=i64).copy()
            st.wb = tuple(wb)
            st.token = token
        else:
            st.itags[:] = itags
            st.dtags[:] = dtags
            bt = st.btags
            for b in st.b_ever:
                bt[b % n] = -1
            for b in resident:
                bt[b % n] = b
            st.i_ever = set(i_ever)
            st.d_ever = set(d_ever)
            st.b_ever = set(b_ever)
            if self.config.memory.write_coalescing:
                st.wb = [pair for pair, _ in wb]
                st.wb_pairs = {pair: list(blocks) for pair, blocks in wb}
                st.wb_set = {b for _, blocks in wb for b in blocks}
            else:
                st.wb = list(wb)
                st.wb_set = set(wb)
                st.wb_pairs = {}
        st.sb_block = sb
        st.sb_was_miss = sbm

    def mem_delta(self, trace) -> list:
        """One raw memory pass, returning the 15-counter delta (the
        streaming traffic engine's unit of accounting)."""
        packed = as_packed(trace)
        kernel = bound_kernel(packed, self.config, self.path)
        state = self._ensure_state(kernel)
        before = list(state.c)
        kernel.mem_pass(state)
        return [a - b for a, b in zip(state.c, before)]

    def run(self, trace) -> SimResult:
        """Simulate one trace, returning stats for exactly that trace."""
        packed = as_packed(trace)
        kernel = bound_kernel(packed, self.config, self.path)
        state = self._ensure_state(kernel)
        before = list(state.c)
        kernel.mem_pass(state)
        delta = [a - b for a, b in zip(state.c, before)]
        return SimResult(cpu=kernel.cpu(), memory=FastMachine._stats_from(delta))

    def run_steady_state(self, trace, *, warmup_rounds: int = 2) -> SimResult:
        """Warm the hierarchy with ``warmup_rounds`` repetitions, then
        measure."""
        packed = as_packed(trace)
        for _ in range(warmup_rounds):
            self.warm_up(packed)
        return self.run(packed)


def simulate_cold_and_steady(
    trace,
    config: Optional[AlphaConfig] = None,
    *,
    warmup_rounds: int = 2,
    path: str = "auto",
) -> Tuple[SimResult, SimResult]:
    """Cold and steady-state results of one trace, sharing passes.

    The generated-kernel equivalent of
    :func:`repro.arch.fastsim.simulate_cold_and_steady`: pass 1 is the
    cold measurement and doubles as the first warm-up, the CPU result is
    computed once, and warm passes stop early at the fixed point the
    ``track`` protocol detects.
    """
    packed = as_packed(trace)
    cfg = config or AlphaConfig()
    kernel = bound_kernel(packed, cfg, path)
    cpu = kernel.cpu()
    cold_mem, steady_mem = cold_and_steady_memory(
        packed, cfg, warmup_rounds=warmup_rounds, path=path
    )
    return (
        SimResult(cpu=cpu, memory=cold_mem),
        SimResult(cpu=replace(cpu), memory=steady_mem),
    )


def cold_and_steady_memory(
    packed: PackedTrace,
    config: Optional[AlphaConfig] = None,
    *,
    warmup_rounds: int = 2,
    path: str = "auto",
) -> Tuple[MemoryStats, MemoryStats]:
    """Memory-side half of :func:`simulate_cold_and_steady`."""
    cfg = config or AlphaConfig()
    kernel = bound_kernel(packed, cfg, path)
    state = kernel.new_state()

    def measured(track: bool) -> Tuple[MemoryStats, bool]:
        before = list(state.c)
        fixed = kernel.mem_pass(state, track=track)
        delta = [a - b for a, b in zip(state.c, before)]
        return FastMachine._stats_from(delta), fixed

    cold_mem, _ = measured(track=False)
    steady_mem = cold_mem
    fixed = False
    for _ in range(warmup_rounds):
        if fixed:
            break
        steady_mem, fixed = measured(track=True)
    return cold_mem, steady_mem
