"""Source-AS reservation service.

Builds setup requests, verifies and stores sealed grants, composes
hop-level reservations across paths (concurrent split or exclusive
maximum), emits reservation packets, and constructs bounded backward
replies. Composition works in exact rationals so feasibility checks are
not at the mercy of float rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import crypto, wire

CONCURRENT = "concurrent"
MAXIMUM = "maximum"


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
    requested hop index, in hop order, with its flyover key.
    """

    hops: tuple[PathHop, ...]
    forward_hops: frozenset[int] = None
    backward_hops: frozenset[int] = frozenset()
    name: str = ""
    forward_keys: tuple[tuple[int, tuple], ...] = field(init=False, repr=False, compare=False)
    backward_keys: tuple[tuple[int, tuple], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.forward_hops is None:
            object.__setattr__(self, "forward_hops", frozenset(range(len(self.hops))))
        for h in self.forward_hops | self.backward_hops:
            if not 0 <= h < len(self.hops):
                raise ValueError("requested hop outside the path")
        for name, hops, direction in (("forward_keys", self.forward_hops, wire.FORWARD),
                                      ("backward_keys", self.backward_hops, wire.BACKWARD)):
            object.__setattr__(self, name, tuple((i, self.flyover_key(i, direction))
                                                 for i in sorted(hops)))

    def flyover_key(self, hop_index: int, direction: int) -> tuple:
        h = self.hops[hop_index]
        if direction == wire.FORWARD:
            return (h.as_id, h.ingress, h.egress, wire.FORWARD)
        return (h.as_id, h.egress, h.ingress, wire.BACKWARD)


@dataclass
class FlyoverGrant:
    bw: int
    ts_exp: int
    auth: bytes
    # ``auth`` as an AES context: built by the first packet that uses the
    # grant, never serialized
    key: crypto.PreparedKey | None = field(default=None, repr=False, compare=False)

    def expired(self, now: int) -> bool:
        return now > self.ts_exp

    def mac_key(self) -> crypto.PreparedKey:
        """The authenticator's prepared key, built on first use."""
        if self.key is None:
            self.key = crypto.PreparedKey(self.auth)
        return self.key


class GrantStore:
    """Grants keyed by (provider AS, ingress, egress, direction).

    Expired grants are surfaced as expired rather than silently used;
    ``get`` returns None for them unless asked otherwise.
    """

    def __init__(self):
        self.grants: dict[tuple, FlyoverGrant] = {}

    def put(self, key: tuple, grant: FlyoverGrant) -> None:
        old = self.grants.get(key)
        # an authenticator depends on neither bandwidth nor expiry, so a
        # renewal that returns the same one keeps its prepared key
        if old is not None and grant.key is None and old.auth == grant.auth:
            grant.key = old.key
        self.grants[key] = grant

    def get(self, key: tuple, now: int, allow_expired: bool = False) -> FlyoverGrant | None:
        g = self.grants.get(key)
        if g is None or (g.expired(now) and not allow_expired):
            return None
        return g

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("# provider ingress egress direction bw ts_exp auth_hex\n")
            for (as_id, ing, egr, d), g in sorted(self.grants.items()):
                fh.write(f"{as_id} {ing} {egr} {d} {g.bw} {g.ts_exp} {g.auth.hex()}\n")

    @classmethod
    def load(cls, path: str) -> "GrantStore":
        store = cls()
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                as_id, ing, egr, d, bw, exp, auth = line.split()
                store.put((int(as_id), int(ing), int(egr), int(d)),
                          FlyoverGrant(int(bw), int(exp), bytes.fromhex(auth)))
        return store


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
    """Unseal and store each verifiable entry; bad entries are skipped alone."""
    accepted = []
    for entry in resp.entries:
        if entry.hop >= len(plan.hops):
            continue
        hop = plan.hops[entry.hop]
        key = keys.get(hop.as_id)
        if key is None:
            continue
        try:
            auth = crypto.unseal_grant(key, entry.nonce, entry.enc_auth, entry.tag,
                                       entry.bw, entry.ts_exp)
        except crypto.AuthFailure:
            continue
        fkey = plan.flyover_key(entry.hop, entry.direction)
        store.put(fkey, FlyoverGrant(entry.bw, entry.ts_exp, auth))
        accepted.append(fkey)
    return accepted


@dataclass(frozen=True)
class CompositionPlan:
    strategy: str
    path_rates: dict[str, Fraction]  # bps; 0 for paths flagged partial
    flyover_shares: dict[tuple, Fraction]  # per (flyover key, path name)
    schedule: tuple[tuple[int, str], ...]  # (slot index, path) round-robin, maximum only
    quantum_ns: int
    flagged: frozenset[str]  # paths with a missing or expired grant


def compose(store: GrantStore, paths: list[PathPlan], strategy: str, now: int,
            quantum_ns: int = 100_000_000) -> CompositionPlan:
    """Assign send rates to paths from the stored grants.

    Concurrent: every flyover's bandwidth is split equally among this
    source's usable paths that traverse it; a path sends at the minimum of
    its shares. Maximum: each path may use the full flyover bandwidth, but
    shared flyovers are time-multiplexed, so the plan carries a round-robin
    schedule and concurrent use is forbidden.
    """
    if strategy not in (CONCURRENT, MAXIMUM):
        raise ValueError(f"unknown strategy {strategy!r}")
    names = [p.name or f"path{i}" for i, p in enumerate(paths)]
    usable: dict[str, list[tuple]] = {}
    flagged = set()
    for name, plan in zip(names, paths):
        keys = [plan.flyover_key(i, wire.FORWARD) for i in range(len(plan.hops))]
        if all(store.get(k, now) is not None for k in keys):
            usable[name] = keys
        else:
            flagged.add(name)

    users: dict[tuple, list[str]] = {}
    for name, keys in usable.items():
        for k in keys:
            users.setdefault(k, []).append(name)

    shares: dict[tuple, Fraction] = {}
    rates: dict[str, Fraction] = {name: Fraction(0) for name in names}
    for name, keys in usable.items():
        per_hop = []
        for k in keys:
            bw = Fraction(store.get(k, now).bw)
            share = bw / len(users[k]) if strategy == CONCURRENT else bw
            shares[(k, name)] = share
            per_hop.append(share)
        rates[name] = min(per_hop) if per_hop else Fraction(0)

    schedule: tuple[tuple[int, str], ...] = ()
    if strategy == MAXIMUM:
        ordered = sorted(usable)
        schedule = tuple((slot, name) for slot, name in enumerate(ordered))
    return CompositionPlan(strategy, rates, shares, schedule, quantum_ns, frozenset(flagged))


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
    total_len = wire.DATA_FIXED_HEADER + wire.FIELD_ENTRY_LEN * (n_f + n_b) + len(payload)
    if total_len > 0xFFFF:
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
    return fwd.len_b - wire.DATA_FIXED_HEADER - wire.FIELD_ENTRY_LEN * len(fwd.bvfs)


def build_renewal(store: GrantStore, keys: dict[int, bytes], plan: PathPlan, src: int,
                  now: int) -> wire.DataPacket:
    """Wrap a fresh setup request in a reservation packet.

    Riding the existing reservation keeps renewals deliverable under
    best-effort floods; routers unwrap the payload and admit it like any
    other request.
    """
    req = build_setup_request(keys, plan, src, now)
    return emit_packet(store, plan, src, wire.encode(req), 0, now)
