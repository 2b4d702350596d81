"""Simulation result caching.

Layout techniques change *addresses*, not event streams, and allocator
jitter changes only *data* addresses — so identical traces recur
constantly: across repeated harness queries for the same (build, seed)
cell, across warm-up passes, and (for the CPU model, which never looks at
an address) across every jitter seed of one build.  This module memoizes
at the two natural joints:

* **machine results** keyed by ``(trace fingerprint, machine config,
  mode)`` where mode is ``"cold"`` / ``"steady:<warmup_rounds>"`` — the
  full-content fingerprint (:meth:`PackedTrace.fingerprint`) guarantees
  equal keys mean equal simulations;
* **CPU results** keyed by ``(cpu key, cpu config)`` where the cpu key
  (:meth:`PackedTrace.cpu_key`) hashes only the op and flag columns the
  issue model observes.

``AlphaConfig``/``CpuConfig`` are frozen dataclasses and hash by value.
Cached stats objects are mutable dataclasses, so lookups return fresh
copies — callers may freely mutate what they get back.

Both caches are bounded FIFO (oldest insertion evicted first); a sweep's
working set is far below the bounds, which only exist to keep pathological
long-running processes flat.

Entries carry a content checksum taken at insertion time.  A hit whose
stats no longer match their checksum (an aliasing bug, a caller that
mutated a shared object, bit rot in a long-running sweep process) is
counted in :data:`corruptions`, discarded, and transparently recomputed —
a corrupt cache may cost time, never correctness.
"""

from __future__ import annotations

import zlib
from typing import Dict, Optional, Tuple

from repro.arch.cpu import CpuConfig, CpuStats
from repro.arch.fastsim import (
    Traceable,
    as_packed,
    cold_and_steady_memory,
    cpu_pass,
)
from repro.arch.memory import MemoryStats
from repro.arch.simulator import AlphaConfig, SimResult

_MAX_RESULTS = 4096
_MAX_CPU = 4096

#: (fingerprint, config, mode) ->
#: ((cold MemoryStats, steady MemoryStats), checksum)
_results: Dict[
    Tuple[str, AlphaConfig, str],
    Tuple[Tuple[MemoryStats, MemoryStats], int],
] = {}
#: (cpu_key, config) -> (CpuStats, checksum)
_cpu_results: Dict[Tuple[str, CpuConfig], Tuple[CpuStats, int]] = {}

hits = 0
misses = 0
#: entries whose stats no longer matched their insertion-time checksum
corruptions = 0


def _checksum(value: object) -> int:
    """Content checksum of a stats object (dataclass reprs recurse)."""
    return zlib.crc32(repr(value).encode())


def clear_caches() -> None:
    global hits, misses, corruptions
    _results.clear()
    _cpu_results.clear()
    hits = 0
    misses = 0
    corruptions = 0


def _bound(cache: Dict, limit: int) -> None:
    while len(cache) > limit:
        cache.pop(next(iter(cache)))


def _copy_cpu(stats: CpuStats) -> CpuStats:
    return CpuStats(
        instructions=stats.instructions,
        cycles=stats.cycles,
        issue_slots_wasted=stats.issue_slots_wasted,
        taken_branches=stats.taken_branches,
        multiplies=stats.multiplies,
    )


def cached_cpu_stats(trace: Traceable, config: Optional[CpuConfig] = None) -> CpuStats:
    """CPU issue stats for a trace, memoized on (op/flag columns, config)."""
    global hits, misses, corruptions
    packed = as_packed(trace)
    cfg = config or CpuConfig()
    key = (packed.cpu_key(), cfg)
    entry = _cpu_results.get(key)
    if entry is not None and _checksum(entry[0]) != entry[1]:
        corruptions += 1
        entry = None
    if entry is None:
        misses += 1
        stats = cpu_pass(packed, cfg)
        _cpu_results[key] = (stats, _checksum(stats))
        _bound(_cpu_results, _MAX_CPU)
    else:
        hits += 1
        stats = entry[0]
    return _copy_cpu(stats)


def simulate_cold_and_steady_cached(
    trace: Traceable,
    config: Optional[AlphaConfig] = None,
    *,
    warmup_rounds: int = 2,
) -> Tuple[SimResult, SimResult]:
    """Cached equivalent of :func:`repro.arch.fastsim.simulate_cold_and_steady`.

    The memory-side pair is cached under the full trace fingerprint; the
    CPU side goes through the coarser cpu-key cache so different-seed
    walks of one build still share it.
    """
    global hits, misses, corruptions
    packed = as_packed(trace)
    cfg = config or AlphaConfig()
    key = (packed.fingerprint(), cfg, f"steady:{warmup_rounds}")
    entry = _results.get(key)
    if entry is not None and _checksum(entry[0]) != entry[1]:
        corruptions += 1
        entry = None
    cpu = cached_cpu_stats(packed, cfg.cpu)
    if entry is None:
        misses += 1
        pair = cold_and_steady_memory(packed, cfg, warmup_rounds=warmup_rounds)
        _results[key] = (pair, _checksum(pair))
        _bound(_results, _MAX_RESULTS)
    else:
        hits += 1
        pair = entry[0]
    cold_mem, steady_mem = pair
    return (
        SimResult(cpu=cpu, memory=cold_mem.snapshot()),
        SimResult(cpu=_copy_cpu(cpu), memory=steady_mem.snapshot()),
    )
