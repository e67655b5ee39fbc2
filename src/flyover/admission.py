"""Border-router admission: requester counting and bandwidth grants.

Per interface pair, the reservable bandwidth handed to one source AS is the
allocation-matrix entry divided by the number of requesting ASes (clamped
below). The requester count is maintained with three rotating membership
filters: one holding the ASes grantable in the current interval, one
collecting current requesters, and one holding the previous interval's
requesters. Rotation promotes requesters so that an AS is guaranteed a
grant at most two intervals after its first request, while the union
cardinality of the two collection filters is the count that divides the
entry. Only exact mode keeps firm grants within the reserved fraction of the
entry for sure: the Bloom estimate can under-count (``BloomFilter``; ROADMAP
item 15).
The entries are an AS's ``topo.AllocationMatrix``, which admission reads.

The protocol fixes the reserved fraction at 4/5 and the Bloom filters' size
(the module constants); ``EstimatorConfig`` holds what a run may set.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

from . import crypto, wire
from .policing import DedupWindow
from .topo import AllocationMatrix

_DIGEST_HALVES = struct.Struct(">QQ")  # a Bloom digest's high and low 8 bytes

# firm grants share RESERVED_NUM / RESERVED_DEN of an entry, tentative slots the rest
RESERVED_NUM, RESERVED_DEN = 4, 5
FILTER_BITS = 95_851  # each requester filter's bits
HASH_COUNT = 7  # positions per item


class ExactSetFilter:
    """Exact membership set; the oracle-mode counterpart of the Bloom filter."""

    __slots__ = ("items",)

    def __init__(self):
        self.items: set[int] = set()

    def add(self, item: int) -> None:
        self.items.add(item)

    def __contains__(self, item: int) -> bool:
        return item in self.items

    def add_and_test(self, member: int, other: "ExactSetFilter") -> bool:
        """Add ``member``, an AS id, here; True iff ``other`` holds it."""
        self.items.add(member)
        return member in other.items

    def union_cardinality(self, other: "ExactSetFilter") -> int:
        return len(self.items | other.items)

    def reset(self) -> "ExactSetFilter":
        self.items.clear()
        return self


class BloomFilter:
    """Bloom filter over AS ids with double hashing.

    An item's 16-byte blake2b digest gives h1 (its high 8 bytes) and h2 (its
    low 8 bytes, made odd); position i is (h1 + i * h2) mod n_bits. Both are
    reduced mod n_bits first, which gives the same positions, since
    (h1 + i*h2) mod n = (h1 mod n + i * (h2 mod n)) mod n, from small ints.
    The bits are packed eight to a byte in a ``bytearray``: position ``p``
    is bit ``p % 8`` of byte ``p // 8``, so ``add`` and membership touch
    only the ``n_hashes`` bytes their positions fall in. ``add`` and
    membership take an AS id and hash it; ``add_and_test``, admission's
    path, takes the id's positions (its member), which a router hashes
    once per request for both directions' estimators. Union cardinality
    is estimated from the fill ratio of the bitwise OR and rounded up, yet
    it can read below the true count, and firm grants then sum past the
    reserved fraction: random ids split over two protocol-sized filters
    read low in 8 of 20 sets of 1000 (by up to 3) and 7 of 10 sets of 5000
    (by up to 14). Only exact mode guarantees the bound (ROADMAP item 15).
    """

    __slots__ = ("bits", "n_bits", "n_hashes")

    def __init__(self, n_bits: int, n_hashes: int):
        self.bits = bytearray((n_bits + 7) // 8)
        self.n_bits = n_bits
        self.n_hashes = n_hashes

    @staticmethod
    def positions(item: int, n_bits: int, n_hashes: int) -> list[int]:
        """The bit positions of ``item`` in a filter of ``n_bits`` bits and
        ``n_hashes`` positions per item."""
        high, low = _DIGEST_HALVES.unpack(
            hashlib.blake2b(item.to_bytes(8, "big"), digest_size=16).digest())
        h1 = high % n_bits
        h2 = (low | 1) % n_bits
        return [(h1 + i * h2) % n_bits for i in range(n_hashes)]

    def add(self, item: int) -> None:
        bits = self.bits
        for p in self.positions(item, self.n_bits, self.n_hashes):
            bits[p >> 3] |= 1 << (p & 7)

    def __contains__(self, item: int) -> bool:
        bits = self.bits
        return all(bits[p >> 3] >> (p & 7) & 1
                   for p in self.positions(item, self.n_bits, self.n_hashes))

    def add_and_test(self, member: list[int], other: "BloomFilter") -> bool:
        """Add the item whose ``positions`` are ``member`` here; True iff
        ``other``, of the same size, holds it. One pass sets each bit here
        and tests it there."""
        bits, theirs = self.bits, other.bits
        held = True
        for p in member:
            byte, bit = p >> 3, 1 << (p & 7)
            bits[byte] |= bit
            if not theirs[byte] & bit:
                held = False
        return held

    def union_cardinality(self, other: "BloomFilter") -> int:
        filled = (int.from_bytes(self.bits, "little")
                  | int.from_bytes(other.bits, "little")).bit_count()
        if filled >= self.n_bits:
            return self.n_bits
        est = -(self.n_bits / self.n_hashes) * math.log1p(-filled / self.n_bits)
        return math.ceil(est)

    def reset(self) -> "BloomFilter":
        self.bits = bytearray(len(self.bits))
        return self


@dataclass(frozen=True)
class EstimatorConfig:
    """The estimator parameters a run may set. The defaults are the
    protocol's, which the scenario schema reads; ``exact`` swaps the Bloom
    filters for exact sets, the oracle mode."""

    interval_ns: int = 10_000_000_000  # rotation period
    min_requesters: int = 16
    tentative_slots: int = 8
    exact: bool = False

    def __post_init__(self):
        if self.min_requesters < 1:
            raise ValueError("min_requesters must be >= 1")
        if self.interval_ns < 1:
            raise ValueError("interval_ns must be >= 1")
        if self.tentative_slots < 0:
            raise ValueError("tentative_slots must be >= 0")

    def make_filter(self):
        if self.exact:
            return ExactSetFilter()
        return BloomFilter(FILTER_BITS, HASH_COUNT)

    def member(self, src: int):
        """What ``add_and_test`` of this config's filters takes for ``src``:
        the AS id itself in exact mode, else its Bloom positions."""
        if self.exact:
            return src
        return BloomFilter.positions(src, FILTER_BITS, HASH_COUNT)


class Grant(NamedTuple):
    """The bandwidth and expiry admission gives one request."""

    bw: int
    ts_exp: int
    tentative: bool = False


class RequesterEstimator:
    """Rotating-filter requester counter for one interface pair (or ingress).

    Only rotations and :meth:`warm_up` change ``granted``; requests only
    insert into ``current`` and consult ``granted``. Tentative slots hand
    out the unreserved remainder to first-time requesters, at most
    ``tentative_slots`` distinct ASes per interval, and those grants expire
    at the interval end so the instantaneous total stays within the full entry.
    """

    def __init__(self, config: EstimatorConfig, now: int = 0):
        self.config = config
        self.granted = config.make_filter()
        self.previous = config.make_filter()
        self.current = config.make_filter()
        self.requesters = config.min_requesters
        self._tentative_holders: dict[int, int] = {}  # src -> granted bw this interval
        self.next_rotation = now + config.interval_ns

    def rotate(self, now: int) -> None:
        """Apply every rotation due by ``now`` (idempotent when none are).

        Three rotations empty all three filters and set the count to its
        floor, and further ones change nothing else, so at most three are
        applied; the rest only advance the schedule.
        """
        if now < self.next_rotation:
            return
        interval = self.config.interval_ns
        due = (now - self.next_rotation) // interval + 1
        for _ in range(min(due, 3)):
            union = self.current.union_cardinality(self.previous)
            self.requesters = max(union, self.config.min_requesters)
            self.granted, self.previous, self.current = (
                self.previous,
                self.current,
                self.granted.reset(),
            )
        self._tentative_holders.clear()
        self.next_rotation += due * interval

    def warm_up(self, sources) -> None:
        """Make ``sources`` grantable now, as if each had requested two intervals
        ago, counting each once so their grants cannot over-allocate."""
        sources = set(sources)
        for src in sources:
            for f in (self.granted, self.previous, self.current):
                f.add(src)
        self.requesters = max(self.requesters, len(sources))

    def request(self, src: int, member, entry_bw: int, now: int) -> Grant | None:
        """Admit one request from ``src``, whose filter member
        (:meth:`EstimatorConfig.member`) is ``member``, against
        ``entry_bw``; None means retry later.

        Callers must have applied rotations up to ``now`` (see
        :meth:`rotate`); admission itself never rotates so that the
        tie-break between a simultaneous rotation and request stays with
        the caller.
        """
        cfg = self.config
        if self.current.add_and_test(member, self.granted):
            bw = entry_bw * RESERVED_NUM // (RESERVED_DEN * self.requesters)
            return Grant(bw, now + cfg.interval_ns, tentative=False)
        if src in self._tentative_holders:
            # repeat first-timer in the same interval: same slot, same grant
            return Grant(self._tentative_holders[src], self.next_rotation, tentative=True)
        if len(self._tentative_holders) < cfg.tentative_slots:
            bw = entry_bw * (RESERVED_DEN - RESERVED_NUM) // (RESERVED_DEN * cfg.tentative_slots)
            self._tentative_holders[src] = bw
            return Grant(bw, self.next_rotation, tentative=True)
        return None


class DefaultPolicy:
    """Estimator-backed bandwidth policy, one estimator per interface pair.

    Grants ignore the request's demand fields: a source gets its share of
    the pair's entry whatever it asks for.
    """

    def __init__(self, matrix: AllocationMatrix, config: EstimatorConfig, now: int = 0):
        self.matrix = matrix
        self.config = config
        self._created_at = now
        self._estimators: dict[tuple[int, int], RequesterEstimator] = {}

    def estimator_for(self, ingress: int, egress: int) -> RequesterEstimator:
        key = (ingress, egress)
        est = self._estimators.get(key)
        if est is None:
            est = self._estimators[key] = RequesterEstimator(self.config, self._created_at)
        return est

    def get_bandwidth(self, src: int, member, ingress: int, egress: int,
                      now: int) -> Grant | None:
        """Admit ``src`` (filter member ``member``) on the pair, applying
        the rotations due by ``now`` first."""
        entry = self.matrix.admission_value(ingress, egress)  # checks the pair
        est = self._estimators.get((ingress, egress))
        if est is None:
            est = self.estimator_for(ingress, egress)
        if now >= est.next_rotation:
            est.rotate(now)
        return est.request(src, member, entry, now)


def admit_setup(state, req: wire.SetupRequest, hop_index: int, ingress: int, egress: int,
                now: int, nonce_source=None) -> list[wire.RespEntry]:
    """Run the admission procedure for one router's hop of a setup request.

    ``state`` carries the router-resident pieces: ``prepared_secret`` (the
    AS-local secret as a :class:`crypto.PreparedKey`), ``policy``,
    ``monitor`` and ``dedup``. The request's timestamp must be fresh by
    :func:`wire.in_window`. On any failed check the result is simply an
    empty list; the caller forwards the request regardless so ASes later on
    the path can still admit it.

    The ingress role admits the forward reservation and the egress role the
    backward one; with one router per AS, both are handled here, in one
    pass: the source's DRKey and its filter member (for Bloom filters, one
    hash) serve both directions.
    """
    entry = req.entry_for(hop_index)
    if entry is None:
        return []
    _, flag_r, flag_b, auth = entry
    src, ts_req = req.src, req.ts_req
    if not (flag_r or flag_b) or not wire.in_window(ts_req, now):
        return []
    # one AES context serves the request-auth MAC and both grants' seals
    drkey = crypto.PreparedKey(crypto.derive_drkey(state.prepared_secret, src))
    if crypto.compute_request_auth(drkey, ts_req, flag_r, flag_b, req.bw_demand,
                                   req.bw_min) != auth:
        return []
    if not state.dedup.check(src, ts_req, DedupWindow.KIND_SETUP, now):
        return []
    state.note_request(src, ts_req)

    policy = state.policy
    member = policy.config.member(src)
    out = []
    for direction, wants in ((wire.FORWARD, flag_r), (wire.BACKWARD, flag_b)):
        if not wants:
            continue
        pair = wire.directed_pair(ingress, egress, direction)
        grant = policy.get_bandwidth(src, member, *pair, now)
        if grant is None:
            continue
        bw, ts_exp, _ = grant
        alpha = crypto.compute_authenticator(state.prepared_secret, src, *pair)
        nonce = nonce_source.randbytes(crypto.NONCE_LEN) if nonce_source is not None else None
        nonce, enc_auth, tag = crypto.seal_grant(drkey, alpha, bw, ts_exp, nonce)
        out.append(wire.RespEntry(hop_index, direction, nonce, enc_auth, tag, bw, ts_exp))
        state.monitor.register(src, bw, ts_exp, *pair, now)
        state.note_grant(src, pair, grant, now, ts_req)
    return out
