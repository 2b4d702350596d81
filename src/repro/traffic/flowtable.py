"""Per-population demux maps and the per-packet probe.

One :class:`FlowTables` instance models the receive path's demultiplexing
state for one protocol population (TCP or RPC): a tiny ethertype map, an
IP protocol map (TCP stack only), and the l4 flow map holding one binding
per live connection.  All three share the same front-end cache scheme, so
a scheme sweep changes every layer consistently.

``probe_packet`` performs real lookups (through
:class:`repro.xkernel.map.Map`, so every ``MapStats`` counter is genuine)
and classifies the packet into the variant tuple the segment library
turns into trace conds: the population, one :class:`LayerOutcome` per
demux layer, and whether the flow is established.  The singleton maps
(one binding, one key ever probed) reach a per-resolve fixed point after
their second lookup — the cached entry is re-hit (or, with no cache, the
one-entry bucket is re-walked) with an identical stats delta every time
— so from then on the tables hand out one cached pre-l4 ``(eth, ip)``
outcome pair and only count how often they did; ``stats()`` folds that
count times each singleton's delta back in before reporting, keeping the
counters exact.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.traffic.spec import TrafficSpec
from repro.xkernel.map import Map, MapStats, make_scheme

#: (hit, probes, chain) per demux layer; ``probes`` is front-end cache
#: slots compared, ``chain`` is collision-chain links walked (capped)
LayerOutcome = Tuple[bool, int, int]

#: the eth and ip outcomes of one packet (ip is None without an IP layer)
PreL4Outcome = Tuple[LayerOutcome, Optional[LayerOutcome]]

#: MapStats fields a resolve can move (binds/unbinds cannot)
_RESOLVE_FIELDS = (
    "resolves",
    "cache_hits",
    "probe_compares",
    "installs",
    "evictions",
    "invalidations",
    "chain_probes",
)


def _key(uid: int) -> bytes:
    return uid.to_bytes(8, "little")


class _SingletonProbe:
    """A one-binding map whose resolves reach a fixed point after two."""

    __slots__ = ("map", "delta", "_seen")

    def __init__(self, m: Map) -> None:
        self.map = m
        #: the stats delta every resolve from the second on repeats
        self.delta: Optional[List[int]] = None
        self._seen = 0

    def probe(self, cap: int) -> LayerOutcome:
        self._seen += 1
        if self._seen == 2:
            before = [getattr(self.map.stats, f) for f in _RESOLVE_FIELDS]
        self.map.resolve_or_none(_key(0))
        last = self.map.last
        outcome = (last.hit, last.probes, min(last.chain, cap))
        if self._seen == 2:
            # from here on every resolve repeats this one exactly
            self.delta = [
                getattr(self.map.stats, f) - b for f, b in zip(_RESOLVE_FIELDS, before)
            ]
        return outcome

    def flush(self, replays: int) -> None:
        """Fold ``replays`` fixed-point resolves into the map's stats."""
        if replays and self.delta is not None:
            stats = self.map.stats
            for f, d in zip(_RESOLVE_FIELDS, self.delta):
                setattr(stats, f, getattr(stats, f) + d * replays)


class FlowTables:
    """Demux maps for one population, all under one cache scheme."""

    #: singleton-map layers get a small realistic table
    SMALL_BUCKETS = 16

    def __init__(
        self, spec: TrafficSpec, scheme_spec: str, *, population: str
    ) -> None:
        self.population = population
        self._cap = spec.chain_cap
        eth = Map(self.SMALL_BUCKETS, scheme=make_scheme(scheme_spec))
        eth.bind(_key(0), "eth-proto")
        self._eth = _SingletonProbe(eth)
        self._ip: Optional[_SingletonProbe] = None
        if population == "tcp":
            ip = Map(self.SMALL_BUCKETS, scheme=make_scheme(scheme_spec))
            ip.bind(_key(0), "ip-proto")
            self._ip = _SingletonProbe(ip)
        self.l4 = Map(spec.buckets, scheme=make_scheme(scheme_spec))
        #: each live flow's l4 key, built once at open_flow
        # bounded: one entry per live flow (close_flow drops it)
        self._flow_keys: Dict[int, bytes] = {}
        #: the pre-l4 outcome pair, once both singletons are at their
        #: fixed point, and the packets that replayed it since stats()
        self._pre_l4: Optional[PreL4Outcome] = None
        self._replays = 0

    @property
    def eth(self) -> Map:
        return self._eth.map

    @property
    def ip(self) -> Optional[Map]:
        return self._ip.map if self._ip is not None else None

    # ------------------------------------------------------------------ #
    # connection lifecycle                                               #
    # ------------------------------------------------------------------ #

    def open_flow(self, uid: int) -> None:
        key = _key(uid)
        self.l4.bind(key, uid)
        self._flow_keys[uid] = key

    def close_flow(self, uid: int) -> None:
        self.l4.unbind(self._flow_keys.pop(uid))

    # ------------------------------------------------------------------ #
    # the per-packet probe                                               #
    # ------------------------------------------------------------------ #

    def _probe_singletons(self) -> PreL4Outcome:
        """Resolve eth (and ip) for real; once both reached their fixed
        point, their outcome pair is cached for every later packet."""
        cap = self._cap
        eth = self._eth.probe(cap)
        ip = self._ip.probe(cap) if self._ip is not None else None
        if self._eth.delta is not None and (
            self._ip is None or self._ip.delta is not None
        ):
            self._pre_l4 = (eth, ip)
        return eth, ip

    def probe_packet(
        self, uid: int, established: bool
    ) -> Tuple[str, LayerOutcome, Optional[LayerOutcome], LayerOutcome, bool]:
        """Demultiplex one packet into its variant: (population, eth,
        ip-or-None, l4, established).

        Unbound ``uid``s (scan packets, or the first packet racing a
        churned slot) miss every cache and walk their full collision
        chain — the not-found cost.
        """
        pre = self._pre_l4
        if pre is None:
            pre = self._probe_singletons()
        else:
            self._replays += 1
        key = self._flow_keys.get(uid)
        l4 = self.l4
        l4.resolve_or_none(_key(uid) if key is None else key)
        last = l4.last
        chain = last.chain
        if chain > self._cap:
            chain = self._cap
        l4_outcome = (last.hit, last.probes, chain)
        return self.population, pre[0], pre[1], l4_outcome, established

    def probe_pre_l4(self) -> PreL4Outcome:
        """Demultiplex a packet that dies before the l4 lookup (a
        checksum reject): eth (and ip) pay their real probe costs, the
        flow map is never consulted."""
        pre = self._pre_l4
        if pre is None:
            return self._probe_singletons()
        self._replays += 1
        return pre

    # ------------------------------------------------------------------ #
    # reporting                                                          #
    # ------------------------------------------------------------------ #

    def stats(self) -> Dict[str, MapStats]:
        """Per-layer map stats, the replayed singleton resolves folded in
        (each replay once, however often this is called)."""
        replays, self._replays = self._replays, 0
        self._eth.flush(replays)
        layers = {"eth": self._eth.map.stats, "l4": self.l4.stats}
        if self._ip is not None:
            self._ip.flush(replays)
            layers["ip"] = self._ip.map.stats
        return layers
