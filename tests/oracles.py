"""Independent reference implementations used as test oracles."""

import hashlib
import heapq
import math
import random
import struct
from collections import Counter, defaultdict
from fractions import Fraction

from flyover import wire
from flyover.topo import CONCURRENT, MAXIMUM
from flyover.wire import DecodeError


class CounterBucket:
    """Classic counter-based token bucket with rate CIR and burst CBS.

    Refills on every check from the elapsed time, capped at the burst size;
    admits a packet iff enough tokens are available. Kept deliberately
    textbook so it stays independent of the timestamp-only implementation
    it is used to verify.
    """

    def __init__(self, rate_bytes_per_ns: float, burst_bytes: float):
        self.rate = rate_bytes_per_ns
        self.burst = burst_bytes
        self.tokens = burst_bytes
        self.last = None

    def check(self, pkt_len: int, now: float) -> bool:
        if self.last is None:
            self.last = now
        if now > self.last:
            self.tokens = min(self.burst, self.tokens + (now - self.last) * self.rate)
            self.last = now
        if pkt_len <= self.tokens:
            self.tokens -= pkt_len
            return True
        return False


class HeapDedupWindow:
    """Exact replay window as one set of (src, ts, kind) tuples plus a heap.

    Evicts entry by entry, in timestamp order, every entry whose timestamp
    lies below ``now - window_ns``. Kept as the reference that the bucketed
    :class:`flyover.policing.DedupWindow` is checked against.
    """

    def __init__(self, window_ns: int):
        self.window_ns = window_ns
        self.seen: set[tuple[int, int, int]] = set()
        self._heap: list[tuple[int, tuple[int, int, int]]] = []

    def check(self, src: int, ts: int, kind: int, now: int) -> bool:
        cutoff = now - self.window_ns
        while self._heap and self._heap[0][0] < cutoff:
            _, key = heapq.heappop(self._heap)
            self.seen.discard(key)
        key = (src, ts, kind)
        if key in self.seen:
            return False
        self.seen.add(key)
        heapq.heappush(self._heap, (ts, key))
        return True


class _Reader:
    """Field-at-a-time cursor: every read checks the bytes it needs."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise DecodeError("truncated", f"needed {n} bytes at offset {self.pos}")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]

    def rest(self) -> bytes:
        out = self.data[self.pos :]
        self.pos = len(self.data)
        return out

    def expect_end(self) -> None:
        if self.pos != len(self.data):
            raise DecodeError("bad_counts", "trailing bytes after message")


def ref_decode(data: bytes):
    """Reference decoder for the layouts in :mod:`flyover.wire`.

    Reads the buffer one field at a time in layout order, so the first
    violation met while reading decides the ``DecodeError`` reason. Kept
    deliberately plain so it stays independent of the production decoder
    it is used to verify.
    """
    r = _Reader(data)
    kind = r.u8()
    if kind in (wire.MSG_SETUP_REQ, wire.MSG_SETUP_REQ_DEMAND):
        src, ts_req = r.u64(), r.u64()
        bw_demand = bw_min = None
        if kind == wire.MSG_SETUP_REQ_DEMAND:
            bw_demand, bw_min = r.u64(), r.u64()
        entries = []
        for _ in range(r.u8()):
            hop = r.u8()
            flags = r.u8()
            if flags & ~0x03:
                raise DecodeError("bad_counts", "unknown request flag bits")
            entries.append(wire.ReqEntry(hop, bool(flags & 1), bool(flags & 2), r.take(16)))
        r.expect_end()
        _check_sorted([e.hop for e in entries])
        return wire.SetupRequest(src, ts_req, tuple(entries), bw_demand, bw_min)
    if kind == wire.MSG_SETUP_RESP:
        src, ts_req = r.u64(), r.u64()
        entries = []
        for _ in range(r.u8()):
            hop, direction = r.u8(), r.u8()
            if direction not in (wire.FORWARD, wire.BACKWARD):
                raise DecodeError("bad_counts", "bad direction byte")
            nonce, enc_auth, tag = r.take(12), r.take(16), r.take(16)
            bw, ts_exp = r.u64(), r.u64()
            entries.append(wire.RespEntry(hop, direction, nonce, enc_auth, tag, bw, ts_exp))
        r.expect_end()
        keys = [(e.hop, e.direction) for e in entries]
        if keys != sorted(set(keys)):
            raise DecodeError("bad_counts", "response entries unsorted or duplicated")
        return wire.SetupResponse(src, ts_req, tuple(entries))
    if kind == wire.MSG_DATA:
        src = r.u64()
        flags = r.u8()
        if flags & ~0x01:
            raise DecodeError("bad_counts", "unknown data flag bits")
        ts_pkt, len_b = r.u64(), r.u16()
        n_f, n_b = r.u8(), r.u8()
        rvfs = tuple((r.u8(), r.take(3)) for _ in range(n_f))
        bvfs = tuple((r.u8(), r.take(3)) for _ in range(n_b))
        _check_sorted([h for h, _ in rvfs])
        _check_sorted([h for h, _ in bvfs])
        return wire.DataPacket(src, bool(flags & 1), ts_pkt, len_b, rvfs, bvfs, r.rest())
    raise DecodeError("bad_magic", f"unknown message type {kind:#04x}")


def _check_sorted(hops: list[int]) -> None:
    if hops != sorted(set(hops)):
        raise DecodeError("bad_counts", "hop entries unsorted or duplicated")


def double_hash_positions(item: int, n_bits: int, n_hashes: int) -> list[int]:
    """Textbook double hashing: the 16-byte blake2b digest of the item's 8
    big-endian bytes gives h1 (its first 8 bytes) and h2 (its last 8, made
    odd), and position i is (h1 + i * h2) mod n_bits, taken on the full
    64-bit values."""
    digest = hashlib.blake2b(item.to_bytes(8, "big"), digest_size=16).digest()
    h1 = int.from_bytes(digest[:8], "big")
    h2 = int.from_bytes(digest[8:], "big") | 1
    return [(h1 + i * h2) % n_bits for i in range(n_hashes)]


class IntMaskBloom:
    """Bloom filter holding its bits in one Python int, built mask by mask.

    Textbook double hashing (:func:`double_hash_positions`), with each
    membership test building the item's full-width mask, so it checks the
    packed filter's bit layout from outside.
    """

    def __init__(self, n_bits: int, n_hashes: int):
        self.bits = 0
        self.n_bits = n_bits
        self.n_hashes = n_hashes

    def _mask(self, item: int) -> int:
        mask = 0
        for p in double_hash_positions(item, self.n_bits, self.n_hashes):
            mask |= 1 << p
        return mask

    def add(self, item: int) -> None:
        self.bits |= self._mask(item)

    def __contains__(self, item: int) -> bool:
        mask = self._mask(item)
        return self.bits & mask == mask

    def union_cardinality(self, other: "IntMaskBloom") -> int:
        filled = (self.bits | other.bits).bit_count()
        if filled >= self.n_bits:
            return self.n_bits
        return math.ceil(-(self.n_bits / self.n_hashes) * math.log1p(-filled / self.n_bits))


def ref_compose(live: dict[tuple, int], paths: dict[str, list[tuple]],
                strategy: str) -> dict[str, Fraction]:
    """Each path's rate as ``min(Fraction(bw, users))`` over its forward
    flyovers, built share by share.

    ``live`` maps the key of every stored, unexpired grant to its bandwidth
    and ``paths`` each path's name to its forward flyover keys. A path is
    usable when every one of its flyovers is live; an unusable path, or one
    that reserves nothing, reads 0. ``users`` is the number of usable paths
    that cross the flyover for the concurrent strategy and 1 for the
    maximum one.
    """
    usable = {name: keys for name, keys in paths.items() if all(k in live for k in keys)}
    users = Counter(k for keys in usable.values() for k in keys)
    rates = {name: Fraction(0) for name in paths}
    for name, keys in usable.items():
        shares = [Fraction(live[k], users[k] if strategy == CONCURRENT else 1) for k in keys]
        rates[name] = min(shares, default=Fraction(0))
    return rates


def fraction_allocation_rows(capacities: list[int]) -> list[list[int]]:
    """Allocation matrix rows from link capacities, step by step in exact
    rationals: each entry (a, b) starts at the egress capacity, columns are
    scaled to sum to it, rows over the ingress capacity are scaled down to
    it, and the result is floored. Kept as the reference that the closed
    form of :meth:`flyover.topo.AllocationMatrix.from_capacities` is
    checked against.
    """
    n = len(capacities)
    m = [[Fraction(0) if a == b else Fraction(capacities[b]) for b in range(n)] for a in range(n)]
    for b in range(n):
        col = sum(m[a][b] for a in range(n))
        if col > 0:
            scale = Fraction(capacities[b]) / col
            for a in range(n):
                m[a][b] *= scale
    for a in range(n):
        row = sum(m[a])
        if row > capacities[a]:
            scale = Fraction(capacities[a]) / row
            for b in range(n):
                m[a][b] *= scale
    return [[int(m[a][b]) for b in range(n)] for a in range(n)]


def ref_destination_order(g, src: int, seed: int) -> list[int]:
    """Every other node in weighted sampling order for ``src``: one
    ``Random.expovariate(1.0)`` draw per node in ascending id, scaled by the
    node's inverse degree, then a sort of the (key, node) tuples, so equal
    keys fall back to ascending id. The reference that
    :func:`flyover.topo.destination_order` is checked against."""
    rng = random.Random(seed * 1_000_003 + src)
    deg = g.degrees
    keyed = []
    for v in range(g.n):
        if v == src:
            continue
        keyed.append((rng.expovariate(1.0) / deg[v], v))
    keyed.sort()
    return [v for _, v in keyed]


def per_path_reservations(g, matrices, demands, min_requesters=1, float_shares=False):
    """Exact end-to-end reservation sizes, enumerated path by path.

    Returns ``(requesters, sizes)``: the number of distinct sources whose
    paths cross each (node, ingress, egress) pair, and
    ``sizes[strategy][(src, dst)]`` as a ``Fraction``. Each path is a BFS
    shortest path with lowest-id tie-breaking, found by a BFS of its own
    over ``g.adj``; its pairs are the source's internal-to-egress pair,
    each transit pair and the destination's ingress-to-internal pair, with
    interface i + 1 facing a node's i-th lowest neighbour. A pair's share
    is its admission value over its requester count, floored at
    ``min_requesters``. The maximum size is the least share on the path;
    the concurrent size is the least share divided by the number of the
    source's paths through that pair.

    With ``float_shares`` each share is first rounded to the nearest float,
    as the study's float columns hold it; every size is then the exact
    minimum over those floats (divided by path counts), so its ``float()``
    is what one float division per term and a float minimum give. Kept
    deliberately plain so it stays independent of
    :class:`flyover.topo.ReservationStudy`, which it is used to verify.
    """
    def interface(node, nbr):
        return 1 + sorted(g.adj[node]).index(nbr)

    paths = {}  # (src, dst) -> the path's (node, ingress, egress) pairs
    for src, dests in demands.items():
        parent = {src: src}
        frontier = [src]
        while frontier:  # level by level, each level in visit order
            next_level = []
            for u in frontier:
                for v in sorted(g.adj[u]):
                    if v not in parent:
                        parent[v] = u
                        next_level.append(v)
            frontier = next_level
        for dst in dests:
            hops = [dst]
            while hops[-1] != src:
                hops.append(parent[hops[-1]])
            hops.reverse()
            paths[(src, dst)] = [
                (node, interface(node, hops[i - 1]) if i else 0,
                 interface(node, hops[i + 1]) if i + 1 < len(hops) else 0)
                for i, node in enumerate(hops)]
    holders = defaultdict(set)  # pair -> sources whose paths cross it
    through = Counter()  # (src, pair) -> the source's paths through the pair
    for (src, _), pairs in paths.items():
        for pair in pairs:
            holders[pair].add(src)
            through[src, pair] += 1
    share = {pair: Fraction(matrices[pair[0]].admission_value(pair[1], pair[2]),
                            max(len(srcs), min_requesters))
             for pair, srcs in holders.items()}
    if float_shares:
        share = {pair: Fraction(float(s)) for pair, s in share.items()}
    sizes = {
        MAXIMUM: {key: min(share[p] for p in pairs) for key, pairs in paths.items()},
        CONCURRENT: {(src, dst): min(share[p] / through[src, p] for p in pairs)
                     for (src, dst), pairs in paths.items()},
    }
    return {pair: len(srcs) for pair, srcs in holders.items()}, sizes
