"""Per-cell segment library: demux outcomes -> packed trace segments.

One real roundtrip is captured per cell; its receive-side demux span (the
balanced top-level ``eth_demux`` slice) is the template every packet's
trace is cut from.  A packet's classified demux outcome — per-layer cache
hit/miss, front-end probes, collision-chain depth, established-or-not —
is translated into overrides of the span's map conds, and the overridden
span is walked once into a :class:`~repro.arch.packed.PackedTrace`.  The
library memoizes walks per outcome tuple, so a million-packet stream
walks only its small segment alphabet (typically well under fifty).

Scheme probe costs ride on the *existing* modeled conds — the inlined
one-entry test (``map_cache_hit``) and the general routine's compare
loop/chain loop (``map_resolve.key_words`` / ``map_resolve.chain``) — so
the program image, and with it every committed golden table, is
untouched.  A non-one-entry front end is not inlinable (the paper inlines
the probe *because* it is a single compare), so its probes are charged in
the general routine: ``key_words`` trips = slots compared x key words,
plus a constant for hash-indexed schemes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.arch.cpu import CpuStats
from repro.arch.fastsim import cpu_pass
from repro.arch.packed import PackedTrace
from repro.core.fastwalk import FastWalker
from repro.core.walker import (
    EnterEvent,
    Event,
    ExitEvent,
    clone_events,
    forced_cond,
)
from repro.harness.experiment import Experiment
from repro.traffic.flowtable import LayerOutcome
from repro.xkernel.map import CacheScheme, OneEntryCache

#: fn name of each demux layer's event, per stack
LAYER_FNS = {
    "tcpip": {"eth": "eth_demux", "ip": "ip_demux", "l4": "tcp_demux"},
    "rpc": {"eth": "eth_demux", "l4": "chan_demux"},
}

#: the general map routine's conds, forced on whichever layer calls it
_RESOLVE_HIT = forced_cond("map_resolve", "cache_hit")
_RESOLVE_KEY_WORDS = forced_cond("map_resolve", "key_words")
_RESOLVE_CHAIN = forced_cond("map_resolve", "chain")

#: a packet's full classification: population ("tcp"/"rpc"), per-layer
#: outcomes, and whether the l4 flow is in its established state.  A
#: *faulted* packet appends a sixth element, the fault kind, so faulted
#: and pristine segments never share a memo key — and a rate-0 faulted
#: stream feeds exactly the pristine 5-tuples, making bit-identity with
#: pristine streams structural rather than incidental.
Variant = Tuple[str, LayerOutcome, Optional[LayerOutcome], LayerOutcome, bool]

#: anchor events a fault recipe can hang off, beyond the demux layers
#: (the RPC bid check is not a map layer but owns the checksum cond)
_FAULT_ANCHOR_FNS = {
    "tcpip": {"eth": "eth_demux", "l4": "tcp_demux"},
    "rpc": {"eth": "eth_demux", "bid": "bid_demux", "l4": "chan_demux"},
}

#: fault kind -> (anchor, cond overrides, prune) per stack.  Each recipe
#: forces the captured span down the protocol's real error path — the
#: same legs :data:`repro.protocols.models` declares as fault points —
#: and prunes the activation's nested events, exactly what the live
#: stack would not have executed after an early reject:
#:
#: * ``truncated_header``: the runt check rejects in ``eth_demux``
#:   before any demux map is consulted;
#: * ``corrupt_checksum``: verified after the full header pull-up, so
#:   eth (and ip) demux costs are paid before the l4 reject;
#: * ``duplicated_packet``: demuxed all the way, then suppressed on the
#:   no-progress leg (TCP: sequence/ack/data make no progress; RPC: the
#:   channel sequence check bounces the retransmission).
#:
#: ``bad_demux_key`` needs no recipe: a bad key *is* an unknown-key
#: lookup, byte-for-byte the trace a scan packet already walks, and
#: ``dropped_packet`` is send-side (no receive segment at all).
FAULT_RECIPES = {
    "tcpip": {
        "truncated_header": ("eth", (("runt", True),), True),
        "corrupt_checksum": ("l4", (("cksum_ok", False),), True),
        "duplicated_packet": (
            "l4",
            (
                ("seq_expected", False),
                ("ack_advances", False),
                ("data_present", False),
                ("delack_needed", False),
            ),
            True,
        ),
    },
    "rpc": {
        "truncated_header": ("eth", (("runt", True),), True),
        "corrupt_checksum": ("bid", (("bid_ok", False),), True),
        "duplicated_packet": ("l4", (("seq_match", False),), True),
    },
}

#: fault kinds modeled as cond-override segment variants (the receive
#: side of the PR 4 taxonomy minus bad_demux_key, which reuses the
#: pristine miss segment, and dropped_packet, which has none)
SEGMENT_FAULT_KINDS = ("corrupt_checksum", "truncated_header", "duplicated_packet")


def _prune_subtree(span: List[Event], idx: int) -> List[Event]:
    """``span`` without the events strictly inside ``span[idx]``'s
    activation (a forced early return never reaches the nested dynamic
    dispatches, so their enter/exit events must not be consumed)."""
    depth = 0
    for j in range(idx, len(span)):
        ev = span[j]
        if isinstance(ev, EnterEvent):
            depth += 1
        elif isinstance(ev, ExitEvent):
            depth -= 1
            if depth == 0:
                return span[: idx + 1] + span[j:]
    raise ValueError(f"no balanced activation at event {idx}")


def _snapshot_conds(events: List[Event]) -> None:
    """Freeze callable (lazy) conds to the value they produce now, so
    every variant walk sees the captured roundtrip's decisions."""
    for ev in events:
        if isinstance(ev, EnterEvent):
            for key, value in list(ev.conds.items()):
                if callable(value):
                    ev.conds[key] = value()


def extract_demux_span(events: List[Event]) -> List[Event]:
    """The balanced top-level ``eth_demux`` slice of a captured stream."""
    depth = 0
    start = None
    for i, ev in enumerate(events):
        if isinstance(ev, EnterEvent):
            if depth == 0 and ev.fn == "eth_demux":
                start = i
            depth += 1
        elif isinstance(ev, ExitEvent):
            depth -= 1
            if depth == 0 and start is not None:
                return events[start : i + 1]
    raise ValueError("captured stream has no balanced eth_demux span")


class SegmentLibrary:
    """Lazily-walked variant -> (PackedTrace, CpuStats) per cell.

    ``image_offset`` rebases the cell's whole image (code and data); the
    mixed-stack study loads the RPC image at a bcache-aligned offset so
    both images keep their native cache indices while competing for
    lines.
    """

    def __init__(
        self,
        stack: str,
        config: str,
        *,
        population: str,
        capture_seed: int = 42,
        image_offset: int = 0,
    ) -> None:
        if stack not in LAYER_FNS:
            raise ValueError(f"no demux layer model for stack {stack!r}")
        self.stack = stack
        self.config = config
        self.population = population
        self.image_offset = image_offset
        exp = Experiment(stack, config)
        events, self._data_env = exp.capture_roundtrip(capture_seed)
        self._build = exp.build()
        self._span = extract_demux_span(events)
        _snapshot_conds(self._span)
        self._layer_events = self._locate_layers()
        self._fault_anchors = self._locate_fault_anchors()
        #: captured key-compare loop trips per layer (words per key)
        self.key_words: Dict[str, int] = {
            layer: self._span[idx].conds[_RESOLVE_KEY_WORDS]
            for layer, idx in self._layer_events.items()
        }
        # bounded: one entry per (scheme, variant) of the small alphabet
        self._segments: Dict[tuple, Tuple[PackedTrace, CpuStats]] = {}

    def _locate_layers(self) -> Dict[str, int]:
        fns = LAYER_FNS[self.stack]
        located: Dict[str, int] = {}  # bounded: one entry per layer
        for i, ev in enumerate(self._span):
            if isinstance(ev, EnterEvent):
                for layer, fn in fns.items():
                    if ev.fn == fn:
                        located[layer] = i
        missing = set(fns) - set(located)
        if missing:
            raise ValueError(
                f"demux span of {self.stack} lacks layer event(s) {missing}"
            )
        return located

    def _locate_fault_anchors(self) -> Dict[str, int]:
        fns = _FAULT_ANCHOR_FNS[self.stack]
        located: Dict[str, int] = {}  # bounded: one entry per anchor
        for i, ev in enumerate(self._span):
            if isinstance(ev, EnterEvent):
                for anchor, fn in fns.items():
                    if ev.fn == fn and anchor not in located:
                        located[anchor] = i
        missing = set(fns) - set(located)
        if missing:
            raise ValueError(
                f"demux span of {self.stack} lacks fault anchor(s) {missing}"
            )
        return located

    # ------------------------------------------------------------------ #
    # cond overrides                                                     #
    # ------------------------------------------------------------------ #

    @staticmethod
    def _apply_outcome(
        ev: EnterEvent, scheme: CacheScheme, outcome: LayerOutcome, key_words: int
    ) -> None:
        hit, probes, chain = outcome
        conds = ev.conds
        inline_hit = forced_cond(ev.fn, "map_cache_hit")
        if isinstance(scheme, OneEntryCache):
            # the paper's inlined single-compare probe
            conds[inline_hit] = hit
            if not hit:
                conds[_RESOLVE_HIT] = False
                conds[_RESOLVE_KEY_WORDS] = key_words
                conds[_RESOLVE_CHAIN] = chain
        else:
            # any other front end lives in the general routine
            conds[inline_hit] = False
            conds[_RESOLVE_HIT] = hit
            conds[_RESOLVE_KEY_WORDS] = scheme.probe_trips(probes, key_words)
            conds[_RESOLVE_CHAIN] = chain

    def segment(
        self, variant: Variant, scheme: CacheScheme
    ) -> Tuple[PackedTrace, CpuStats]:
        """The packed segment (and its stateless CPU stats) for one
        classified packet; walked on first use, memoized after.

        A 6-tuple variant carries a fault kind in its last element: the
        matching :data:`FAULT_RECIPES` entry forces the anchor event's
        conds onto the error leg and prunes the nested events the early
        return never executes.  Layer outcomes are applied only to the
        layers the faulted packet still reaches (the rest were never
        probed), so faulted segments stay walkable and memoizable
        exactly like pristine ones.
        """
        key = (scheme.name, variant)
        cached = self._segments.get(key)
        if cached is not None:
            return cached
        _population, eth, ip, l4, established = variant[:5]
        fault = variant[5] if len(variant) > 5 else None
        span = clone_events(self._span)
        alive_before = len(span)  # layer events at indexes below survive
        if fault is not None:
            recipes = FAULT_RECIPES[self.stack]
            if fault not in recipes:
                raise ValueError(
                    f"no segment recipe for fault kind {fault!r} "
                    f"on stack {self.stack!r}"
                )
            anchor, overrides, prune = recipes[fault]
            idx = self._fault_anchors[anchor]
            anchor_ev = span[idx]
            for cond, value in overrides:
                anchor_ev.conds[forced_cond(anchor_ev.fn, cond)] = value
            if prune:
                span = _prune_subtree(span, idx)
                alive_before = idx + 1
        eth_idx = self._layer_events["eth"]
        if eth_idx < alive_before:
            self._apply_outcome(span[eth_idx], scheme, eth, self.key_words["eth"])
        ip_idx = self._layer_events.get("ip")
        if ip is not None and ip_idx is not None and ip_idx < alive_before:
            self._apply_outcome(span[ip_idx], scheme, ip, self.key_words["ip"])
        l4_idx = self._layer_events["l4"]
        if l4_idx < alive_before:
            l4_ev = span[l4_idx]
            self._apply_outcome(l4_ev, scheme, l4, self.key_words["l4"])
            if "established" in l4_ev.conds:
                l4_ev.conds[forced_cond(l4_ev.fn, "established")] = established
        walk = FastWalker(self._build.program, self._data_env).walk(span)
        packed = walk.packed.shifted(self.image_offset)
        entry = (packed, cpu_pass(packed))
        self._segments[key] = entry
        return entry

    @property
    def alphabet_size(self) -> int:
        return len(self._segments)
