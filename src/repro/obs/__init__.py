"""Observability: stall attribution, conflict matrices, layer breakdowns.

The simulation engines report aggregate mCPI; this package decomposes it.
:class:`Attribution` is a sink either engine accepts (``sink=`` on
:class:`~repro.arch.simulator.MachineSimulator` and
:class:`~repro.arch.fastsim.FastMachine`); it classifies the decisions the
engine logs on every pass and buckets every stall cycle by (protocol
layer, function, cache level, miss kind), with the invariant — enforced
at run time — that the bucket sums equal the engine's reported stall
totals bit for bit.  See ``docs/methodology.md``.
"""

from repro.obs.attribution import (
    Attribution,
    AttributionMismatch,
    AttributionReport,
    Bucket,
    CACHE_LEVELS,
    MISS_KINDS,
    UNATTRIBUTED,
)
from repro.obs.conflicts import ConflictMatrix, static_overlap
from repro.obs.layers import (
    LAYER_ORDER,
    LIBRARY_LAYER,
    PATH_LAYER,
    UNKNOWN_LAYER,
    base_function_name,
    layer_of,
    layer_sort_key,
)

__all__ = [
    "Attribution",
    "AttributionMismatch",
    "AttributionReport",
    "Bucket",
    "CACHE_LEVELS",
    "MISS_KINDS",
    "UNATTRIBUTED",
    "ConflictMatrix",
    "static_overlap",
    "LAYER_ORDER",
    "LIBRARY_LAYER",
    "PATH_LAYER",
    "UNKNOWN_LAYER",
    "base_function_name",
    "layer_of",
    "layer_sort_key",
]
