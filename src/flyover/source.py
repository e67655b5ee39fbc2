"""Source-AS reservation service.

Builds setup requests, verifies and stores sealed grants, composes
hop-level reservations into per-path send rates (concurrent split or
exclusive maximum), emits reservation packets, and constructs bounded
backward replies. Rates are exact rationals, so the rates through a
flyover never sum past its bandwidth by float rounding. A stored grant is
usable before its ``ts_exp`` and expired from that nanosecond on, by
:func:`wire.expired`, the rule the routers police and guard by.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from . import crypto, wire
from .topo import CONCURRENT, MAXIMUM

_ZERO = Fraction(0)  # the rate of a path that cannot send; a Fraction is immutable


class MissingKey(Exception):
    """No derived key is held for a hop that a reservation was requested from."""


class MissingGrant(Exception):
    """A packet was requested over a hop without a stored, unexpired grant."""


class ReplyTooLong(Exception):
    """Reply would exceed the byte budget bound into the forward packet."""


@dataclass(frozen=True)
class PathHop:
    as_id: int
    ingress: int
    egress: int


@dataclass(frozen=True)
class PathPlan:
    """On-path ASes (source excluded) and which hops to reserve at.

    ``forward_hops`` / ``backward_hops`` are hop indexes, 0-based from the
    first AS after the source. Backward reservations only make sense where
    the return path overlaps the forward one, which for this codec means
    the same hop list. ``forward_keys`` / ``backward_keys`` pair each
    requested hop index, in hop order, with its flyover key, and
    ``requested`` maps each requested (hop index, direction) to that key.
    """

    hops: tuple[PathHop, ...]
    forward_hops: frozenset[int] = None
    backward_hops: frozenset[int] = frozenset()
    name: str = ""
    forward_keys: tuple[tuple[int, tuple], ...] = field(init=False, repr=False, compare=False)
    backward_keys: tuple[tuple[int, tuple], ...] = field(init=False, repr=False, compare=False)
    requested: dict[tuple[int, int], tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.forward_hops is None:
            object.__setattr__(self, "forward_hops", frozenset(range(len(self.hops))))
        for h in self.forward_hops | self.backward_hops:
            if not 0 <= h < len(self.hops):
                raise ValueError("requested hop outside the path")
        requested = {}
        for name, hops, direction in (("forward_keys", self.forward_hops, wire.FORWARD),
                                      ("backward_keys", self.backward_hops, wire.BACKWARD)):
            keys = []
            for i in sorted(hops):
                key = requested[i, direction] = self.flyover_key(i, direction)
                keys.append((i, key))
            object.__setattr__(self, name, tuple(keys))
        object.__setattr__(self, "requested", requested)

    def flyover_key(self, hop_index: int, direction: int) -> tuple[int, int, int]:
        """(AS, pair_in, pair_out): the flyover that the hop's ``direction`` reserves."""
        h = self.hops[hop_index]
        return (h.as_id, *wire.directed_pair(h.ingress, h.egress, direction))


@dataclass(slots=True)
class FlyoverGrant:
    bw: int
    ts_exp: int
    auth: bytes
    # ``auth`` as an AES context, built by the grant's first packet
    key: crypto.PreparedKey | None = field(default=None, repr=False, compare=False)

    def mac_key(self) -> crypto.PreparedKey:
        """The authenticator's prepared key, built on first use."""
        if self.key is None:
            self.key = crypto.PreparedKey(self.auth)
        return self.key


class GrantStore:
    """Grants keyed by flyover: (provider AS, pair_in, pair_out).

    Expired grants are surfaced as expired rather than silently used;
    ``get`` returns None for them unless asked otherwise.
    """

    def __init__(self):
        self.grants: dict[tuple, FlyoverGrant] = {}

    def get(self, key: tuple, now: int, allow_expired: bool = False) -> FlyoverGrant | None:
        g = self.grants.get(key)
        if g is None or (wire.expired(g.ts_exp, now) and not allow_expired):
            return None
        return g


def build_setup_request(keys: dict[int, bytes], plan: PathPlan, src: int, ts_req: int,
                        bw_demand: int | None = None,
                        bw_min: int | None = None) -> wire.SetupRequest:
    """Authenticated request covering the hops named in the plan.

    Requires a derived key for every requested hop; hops outside the plan
    get no entry and will simply forward the packet (partial reservations).
    """
    entries = []
    for idx in sorted(plan.forward_hops | plan.backward_hops):
        hop = plan.hops[idx]
        key = keys.get(hop.as_id)
        if key is None:
            raise MissingKey(f"no key for AS {hop.as_id}")
        flag_r = idx in plan.forward_hops
        flag_b = idx in plan.backward_hops
        auth = crypto.compute_request_auth(key, ts_req, flag_r, flag_b, bw_demand, bw_min)
        entries.append(wire.ReqEntry(idx, flag_r, flag_b, auth))
    return wire.SetupRequest(src, ts_req, tuple(entries), bw_demand, bw_min)


def ingest_response(store: GrantStore, keys: dict[int, bytes], resp: wire.SetupResponse,
                    plan: PathPlan) -> list[tuple]:
    """Unseal and store each verifiable entry; bad entries are skipped alone.
    An entry for a hop and direction the plan never requested is a bad one.

    Each hop's key is prepared once per call, so its forward and backward
    entries share one AES context.
    """
    accepted = []
    prepared: dict[int, crypto.PreparedKey] = {}
    requested = plan.requested
    for hop, direction, nonce, enc_auth, tag, bw, ts_exp in resp.entries:
        fkey = requested.get((hop, direction))
        if fkey is None:
            continue
        as_id = fkey[0]
        key = prepared.get(as_id)
        if key is None:
            raw = keys.get(as_id)
            if raw is None:
                continue
            key = prepared[as_id] = crypto.PreparedKey(raw)
        try:
            auth = crypto.unseal_grant(key, nonce, enc_auth, tag, bw, ts_exp)
        except crypto.AuthFailure:
            continue
        store.grants[fkey] = FlyoverGrant(bw, ts_exp, auth)
        accepted.append(fkey)
    return accepted


@dataclass(frozen=True)
class CompositionPlan:
    path_rates: dict[str, Fraction]  # bps; 0 for a path with a missing or expired grant


def compose(store: GrantStore, paths: list[PathPlan], strategy: str, now: int) -> CompositionPlan:
    """Assign send rates to paths from the stored grants.

    A path missing a stored, unexpired forward grant sends at rate 0.
    Concurrent: every flyover's bandwidth is split equally among this
    source's usable paths that traverse it; a path sends at the minimum of
    its shares. Maximum: each path may use the full flyover bandwidth, so
    paths that share a flyover must take turns, never send at once.

    Each share bw / users is compared with the least so far by integer
    cross-multiplication, so a path builds one ``Fraction``, its rate.
    """
    if strategy not in (CONCURRENT, MAXIMUM):
        raise ValueError(f"unknown strategy {strategy!r}")
    rates: dict[str, Fraction] = {}
    usable: dict[str, list[tuple[tuple, int]]] = {}
    for i, plan in enumerate(paths):
        name = plan.name or f"path{i}"
        rates[name] = _ZERO
        grants = []
        for _, k in plan.forward_keys:
            g = store.get(k, now)
            if g is None:
                break
            grants.append((k, g.bw))
        else:
            usable[name] = grants
    users = Counter(k for grants in usable.values() for k, _ in grants)
    concurrent = strategy == CONCURRENT
    for name, grants in usable.items():
        if not grants:
            continue
        bw, n = 0, 0  # 0/0 stands for no share yet
        for k, g_bw in grants:
            g_n = users[k] if concurrent else 1
            if n == 0 or g_bw * n < bw * g_n:
                bw, n = g_bw, g_n
        rates[name] = Fraction(bw, n)
    return CompositionPlan(rates)


def emit_packet(store: GrantStore, plan: PathPlan, src: int, payload: bytes,
                len_b: int, now: int, allow_expired: bool = False) -> wire.DataPacket:
    """Build a forward packet whose fields verify at every requested hop.

    The forward field is a MAC over the final packet length, so the header
    and payload sizes are fixed before any MAC is computed.
    ``allow_expired`` keeps using grants past their expiry (the
    authenticator itself stays valid); routers will demote such packets.
    Each field is one MAC on its grant's prepared key, which the grant
    builds on its first packet.
    """
    n_f, n_b = len(plan.forward_keys), len(plan.backward_keys)
    total_len = wire.data_packet_len(n_f + n_b, len(payload))
    if total_len > wire.MAX_LEN:
        raise ValueError("packet too large")
    rvfs, bvfs = [], []
    for idx, fkey in plan.forward_keys:
        g = store.get(fkey, now, allow_expired)
        if g is None:
            raise MissingGrant(f"forward hop {idx}")
        rvfs.append((idx, crypto.compute_validation_field(g.mac_key(), now, total_len)))
    for idx, fkey in plan.backward_keys:
        g = store.get(fkey, now, allow_expired)
        if g is None:
            raise MissingGrant(f"backward hop {idx}")
        bvfs.append((idx, crypto.compute_validation_field(g.mac_key(), now, len_b)))
    return wire.DataPacket(src, False, now, len_b, tuple(rvfs), tuple(bvfs), payload)


def build_reply(fwd: wire.DataPacket, payload: bytes) -> wire.DataPacket:
    """Backward reply reusing the forward packet's timestamp and fields."""
    if not fwd.bvfs:
        raise MissingGrant("forward packet carries no backward fields")
    reply = wire.DataPacket(fwd.src, True, fwd.ts_pkt, fwd.len_b, (), fwd.bvfs, payload)
    if reply.total_len > fwd.len_b:
        raise ReplyTooLong(f"{reply.total_len} > budget {fwd.len_b}")
    return reply


def max_reply_payload(fwd: wire.DataPacket) -> int:
    return fwd.len_b - wire.data_packet_len(len(fwd.bvfs))


def build_renewal(store: GrantStore, keys: dict[int, bytes], plan: PathPlan, src: int,
                  now: int) -> wire.DataPacket:
    """Wrap a fresh setup request in a reservation packet.

    Riding the existing reservation keeps renewals deliverable under
    best-effort floods; routers unwrap the payload and admit it like any
    other request.
    """
    req = build_setup_request(keys, plan, src, now)
    return emit_packet(store, plan, src, wire.encode(req), 0, now)
