"""Pinned digests of exact streaming output.

Every number a traffic or resilience point reports is an integer or a
ratio of integers, so the sha256 of a point's canonical ``to_json()``
fingerprints the whole per-packet path: arrival sampling, churn,
flow-table probes, variant classification, transition replay, fault
arrivals, per-packet service cycles and the overload queue.  The digests
were recorded from a known-good implementation; a change that only makes
the loop faster leaves every one of them in place.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.resilience import FaultProfile, OverloadSpec, run_resilience_point
from repro.traffic import TrafficSpec, run_traffic_point

#: churned, so binds, unbinds and invalidations all move, and long
#: enough to cross the warm-up boundary
CHURNED = TrafficSpec(packets=2_000, flows=200, warmup_packets=400, churn=0.005)

#: mix -> scheme -> sha256 of the point's canonical JSON
TRAFFIC_DIGESTS = {
    "uniform": {
        "one-entry": "3148cbbb2f1ac3c33f6aeb02077be62e93537d684fe14a38440273162935369b",
        "lru:4": "63ab68d495951e0cc16fe0d72a72e8e97734e8cd5af781af183898158ed82f24",
        "assoc:4x2": "6d95941dc72f176fb02afdcf499ec923d5c14cbfb1308f13f3366ab637f7cbd6",
    },
    "zipf": {
        "one-entry": "3aa1792744938bfdb8739218b67129d2ec7cb91ae5dca60d47f081c210074b30",
        "lru:4": "425a5d2a736a564c608621cdba35c416e7f7301df25affb77ee01ca8e6cd9810",
        "assoc:4x2": "3067b4a08a65c4843499c9c6c7c47f9a7dd3e7fb9b795c8b88af323457d77dd0",
    },
    "bursty": {
        "one-entry": "1b8f6bc59d43993d1ba1b2188a53800a9cdaf280202529f43e6c138466a8cbf3",
        "lru:4": "1b489f66b427f0fd383fff7e196d6fc08a6cb208cfc82317fca9b418ce447d38",
        "assoc:4x2": "9f4aa72c907d9b9c5d85d2b20a5f7d3a55f58ad8f18dc7bc5231272346ec316e",
    },
    "scan": {
        "one-entry": "8ab32b43ded75dfc524a1e1d18652178cb875e6b981888bee93a65b6c8140fde",
        "lru:4": "e35d624c9f4f3e238f8441e73b6ac4682ee2d7a2608d95053ea086ec8e9618c0",
        "assoc:4x2": "e58630398cccf3019ea4675571591b954c697ec94b78f0ef2fcd067bcda50e72",
    },
}

#: a mixed TCP+RPC scan stream at a 4% fault rate: every fault kind
#: arrives, on bound flows and on scans, in both populations
RESILIENCE_SPEC = TrafficSpec(
    stack="mixed",
    mix="scan",
    packets=3_000,
    flows=200,
    warmup_packets=400,
    churn=0.005,
)
RESILIENCE_DIGEST = "95f333bbbe86eae6d6b163e5896d90fc75b0fcedebf4ca3062b517dea1465632"

#: a small point shaped like the benchmark's stream-mixed-churn workload:
#: bursty mixed TCP+RPC traffic with churn and 2% faults, whose stream
#: restores interned machine states over a hundred times
MIXED_CHURN_SPEC = TrafficSpec(
    stack="mixed",
    mix="bursty",
    packets=20_000,
    flows=1_000,
    warmup_packets=2_000,
    churn=0.01,
    seed=0,
)
MIXED_CHURN_DIGEST = "5d18e244afe0710d3e739de8bf764fba9373fe75c1b93ceaa1cb5b6ca0421560"

#: name -> (stream, fault rate, pinned digest) of the resilience points
RESILIENCE_POINTS = {
    "mixed-scan": (RESILIENCE_SPEC, 0.04, RESILIENCE_DIGEST),
    "mixed-churn": (MIXED_CHURN_SPEC, 0.02, MIXED_CHURN_DIGEST),
}


def _digest(doc: dict) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@pytest.mark.parametrize(
    "mix, scheme",
    [(mix, scheme) for mix, schemes in TRAFFIC_DIGESTS.items() for scheme in schemes],
)
def test_traffic_point_output_is_pinned(mix, scheme):
    point = run_traffic_point(CHURNED.with_(mix=mix), scheme)
    assert _digest(point.to_json()) == TRAFFIC_DIGESTS[mix][scheme]


def _resilience_point(name: str):
    spec, rate, _ = RESILIENCE_POINTS[name]
    return run_resilience_point(
        spec,
        "lru:4",
        profile=FaultProfile.uniform(rate, seed=0),
        overload=OverloadSpec(loads=(80, 100, 120), queue_capacity=64),
    )


def test_faulted_mixed_resilience_point_output_is_pinned():
    point = _resilience_point("mixed-scan")
    assert sorted(point.fault_counts) == [
        "bad_demux_key",
        "corrupt_checksum",
        "duplicated_packet",
        "truncated_header",
    ]
    assert _digest(point.to_json()) == RESILIENCE_DIGEST


def test_mixed_churn_resilience_point_output_is_pinned():
    point = _resilience_point("mixed-churn")
    assert _digest(point.to_json()) == MIXED_CHURN_DIGEST
