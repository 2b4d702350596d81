"""Resilience under faulted load: protocol error paths, an overload
model, and offered-load vs tail-latency curves for million-flow streams.

The package folds the PR 4 fault taxonomy into the PR 7 traffic engine:
:class:`~repro.resilience.faults.FaultProfile` turns per-kind rates into
deterministic per-packet fault arrivals, the segment library prices each
fault's real error path, and :mod:`repro.resilience.queueing` layers a
bounded ingress queue over the stream's per-packet service cycles to
produce p50/p99/p999 sojourn latency per offered-load point, with drop
accounting and saturation detection.  Everything is integer-exact, so
equal inputs produce bit-identical studies.
"""

from repro.resilience.faults import SCOPES, STREAM_FAULT_KINDS, FaultProfile
from repro.resilience.queueing import POLICIES, LoadPoint, OverloadSpec
from repro.resilience.study import (
    ResiliencePoint,
    ResilienceStudy,
    run_resilience_point,
    run_resilience_study,
)

__all__ = [
    "FaultProfile",
    "LoadPoint",
    "OverloadSpec",
    "POLICIES",
    "ResiliencePoint",
    "ResilienceStudy",
    "SCOPES",
    "STREAM_FAULT_KINDS",
    "run_resilience_point",
    "run_resilience_study",
]
