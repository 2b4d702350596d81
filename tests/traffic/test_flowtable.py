"""FlowTables against plain maps: the singleton replay is exact.

After two lookups the eth (and ip) singleton maps sit at a fixed point,
and ``FlowTables`` stops resolving them: it hands out one cached pre-l4
outcome pair and counts its replays, which ``stats()`` folds back into
the maps' counters.  Driven side by side with plain maps that resolve
every lookup for real, the outcomes must agree packet by packet and the
counters at every ``stats()`` call, mid-stream or at the end, with each
replay counted exactly once.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traffic.flowtable import FlowTables
from repro.traffic.spec import TrafficSpec
from repro.xkernel.map import SCHEME_SPECS, Map

#: a tiny l4 table and chain cap, so chains collide and get capped
SPEC = TrafficSpec(buckets=8, chain_cap=2)
UIDS = 12

OPS = st.lists(
    st.tuples(
        st.sampled_from(["open", "close", "packet", "pre_l4", "stats"]),
        st.integers(min_value=0, max_value=UIDS - 1),
        st.booleans(),
    ),
    max_size=80,
)


def _key(uid: int) -> bytes:
    return uid.to_bytes(8, "little")


class _PlainMaps:
    """The same layers as plain maps, every lookup resolved for real."""

    def __init__(self, scheme: str, population: str) -> None:
        layers = ("eth", "ip") if population == "tcp" else ("eth",)
        self.singletons = {
            layer: Map(FlowTables.SMALL_BUCKETS, scheme=scheme) for layer in layers
        }
        for layer, m in self.singletons.items():
            m.bind(_key(0), layer)
        self.l4 = Map(SPEC.buckets, scheme=scheme)

    @staticmethod
    def _resolve(m: Map, key: bytes) -> tuple:
        m.resolve_or_none(key)
        return (m.last.hit, m.last.probes, min(m.last.chain, SPEC.chain_cap))

    def probe_pre_l4(self) -> tuple:
        eth = self._resolve(self.singletons["eth"], _key(0))
        ip = self.singletons.get("ip")
        return eth, None if ip is None else self._resolve(ip, _key(0))

    def probe_packet(self, uid: int) -> tuple:
        return (*self.probe_pre_l4(), self._resolve(self.l4, _key(uid)))

    def stats(self) -> dict:
        layers = {**self.singletons, "l4": self.l4}
        return {name: dict(vars(m.stats)) for name, m in layers.items()}


def _reported(tables: FlowTables) -> dict:
    return {name: dict(vars(stats)) for name, stats in tables.stats().items()}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SCHEME_SPECS), st.sampled_from(["tcp", "rpc"]), OPS)
def test_stats_match_real_resolves(scheme, population, ops):
    tables = FlowTables(SPEC, scheme, population=population)
    plain = _PlainMaps(scheme, population)
    live = set()
    for op, uid, established in ops:
        if op == "open" and uid not in live:
            live.add(uid)
            tables.open_flow(uid)
            plain.l4.bind(_key(uid), uid)
        elif op == "close" and uid in live:
            live.remove(uid)
            tables.close_flow(uid)
            plain.l4.unbind(_key(uid))
        elif op == "packet":
            expected = (population, *plain.probe_packet(uid), established)
            assert tables.probe_packet(uid, established) == expected
        elif op == "pre_l4":
            assert tables.probe_pre_l4() == plain.probe_pre_l4()
        elif op == "stats":
            assert _reported(tables) == plain.stats()
    # the final report, twice: a replay folded in once stays folded once
    assert _reported(tables) == plain.stats()
    assert _reported(tables) == plain.stats()
