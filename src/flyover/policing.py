"""Deterministic per-flyover traffic policing and replay suppression.

The monitor keeps one token bucket per flyover (source AS, directed interface
pair); a bucket's whole state is one eight-byte timestamp, so a hundred
thousand flyovers serialize to 800 kB, though in memory an entry with its key
takes 244 B (tracemalloc, CPython 3.11.7, x86-64; it depends on the host and
the Python version). An entry polices its grant until the grant's ``ts_exp``;
from that nanosecond on, by :func:`wire.expired`, it answers ``EXPIRED``, as
the router's guard counts the grant dead then. The monitor only decides:
it holds its entries and nothing else, so once ``sweep`` has evicted the
expired ones it keeps nothing that grows with the sources it has policed;
the network tallies each hop's verdicts (``simnet.Network.monitor_rows``).
The caller passes the bucket window, which ``RouterConfig`` holds. The
duplicate suppressor is an exact sliding window over (source, timestamp,
kind): no false positives and no false negatives inside the admission
window. It packs each triple into one int, filed in a set per timestamp
bucket an eighth of the window wide, so expiry drops whole buckets and an
entry costs ~80 B.
"""

from __future__ import annotations

import struct
from enum import Enum

from .wire import expired


class Verdict(Enum):
    CONFORM = "conform"
    OVERUSE = "overuse"
    EXPIRED = "expired"
    UNKNOWN = "unknown"


# bound once: an Enum member read off its class is slow, and police runs per packet
_CONFORM, _OVERUSE, _EXPIRED, _UNKNOWN = (Verdict.CONFORM, Verdict.OVERUSE, Verdict.EXPIRED,
                                          Verdict.UNKNOWN)


class TokenBucket:
    """Token bucket whose entire state is one timestamp.

    A packet taking ``pkt_len / rate`` ns to drain is admitted iff the
    drain completes within ``window`` ns from now; the timestamp tracks
    when the bucket would run empty. Equivalent to a counter bucket with
    rate CIR and burst CBS = rate * window.
    """

    __slots__ = ("ts", "rate", "window")

    def __init__(self, rate_bytes_per_ns: float, window_ns: float, now: float = 0.0):
        if rate_bytes_per_ns <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate_bytes_per_ns
        self.window = window_ns
        self.ts = now  # a fresh bucket is full

    def check(self, pkt_len: int, now: float) -> bool:
        """Admit and charge the packet, or refuse and leave state unchanged."""
        pkt_time = pkt_len / self.rate
        base = self.ts if self.ts > now else now
        if base + pkt_time <= now + self.window:
            self.ts = base + pkt_time
            return True
        return False

    def serialize(self) -> bytes:
        return struct.pack(">d", self.ts)


class MonitorEntry(TokenBucket):
    """One flyover's bucket and its grant: ``bw`` bits per second until ``ts_exp``."""

    __slots__ = ("bw", "ts_exp")

    def __init__(self, window_ns: int, now: int):
        self.window, self.ts = window_ns, now  # a fresh bucket is full

    def grant(self, bw: int, ts_exp: int) -> None:
        """Police at ``bw`` from now on; the bucket state stays."""
        self.rate = max(bw / 8 / 1e9, 1e-18)  # bits per second -> bytes per ns
        self.bw, self.ts_exp = bw, ts_exp


class TrafficMonitor:
    """Token-bucket policing per flyover (src, pair_in, pair_out)."""

    def __init__(self, window_ns: int):
        self.window_ns = window_ns
        self.entries: dict[tuple[int, int, int], MonitorEntry] = {}

    def register(self, src: int, bw: int, ts_exp: int, pair_in: int, pair_out: int,
                 now: int) -> None:
        """Create or update the single entry for ``src`` on the directed pair.

        A repeated or renewed registration keeps the bucket state: refilling
        on request would let a source launder burst capacity.
        """
        if bw < 0:
            raise ValueError("bandwidth must be >= 0")
        key = (src, pair_in, pair_out)
        entry = self.entries.get(key)
        if entry is None:
            entry = self.entries[key] = MonitorEntry(self.window_ns, now)
        entry.grant(bw, ts_exp)

    def police(self, src: int, pkt_len: int, pair_in: int, pair_out: int, now: int) -> Verdict:
        """The flyover's verdict on the packet; only ``CONFORM`` charges its bucket."""
        entry = self.entries.get((src, pair_in, pair_out))
        if entry is None:
            return _UNKNOWN
        if expired(entry.ts_exp, now):
            return _EXPIRED
        return _CONFORM if entry.check(pkt_len, now) else _OVERUSE

    def sweep(self, now: int, grace_ns: int = 0) -> int:
        """Evict entries expired for ``grace_ns`` or longer; returns count."""
        dead = [k for k, e in self.entries.items() if expired(e.ts_exp + grace_ns, now)]
        for k in dead:
            del self.entries[k]
        return len(dead)

    def serialized_bucket_state(self) -> bytes:
        """All bucket state back to back: 8 bytes per registered entry."""
        return b"".join(e.serialize() for e in self.entries.values())


# timestamp buckets per replay window; expiry drops whole buckets
DEDUP_SLICES = 8


class DedupWindow:
    """Exact duplicate suppression over (source, timestamp, kind) triples.

    Each triple is packed into the int ``src << 66 | ts << 2 | kind`` and
    filed in the set of its timestamp bucket, ``ts // (window_ns //
    DEDUP_SLICES)``. The packing is injective on the wire's domain,
    ``0 <= src, ts < 2**64`` and ``kind`` one of the three ``KIND_*``
    values; ``wire`` refuses anything else. A check first drops every bucket
    whose whole range lies below ``now - window_ns``, so no key with
    ``ts >= now - window_ns`` is ever forgotten: within the window there are
    no false positives and no false negatives. Entries older than that may
    linger in the boundary bucket and are counted by ``len()``; routers
    refuse their timestamps as stale before they get here, and a packet
    re-sent after its bucket went reads as fresh (and then fails that
    currency check instead).
    """

    KIND_DATA_FWD = 0
    KIND_DATA_BWD = 1
    KIND_SETUP = 2

    __slots__ = ("window_ns", "_slice", "_floor", "_buckets")

    def __init__(self, window_ns: int):
        self.window_ns = window_ns
        self._slice = max(1, window_ns // DEDUP_SLICES)
        self._floor = 0  # buckets below this are gone; timestamps are >= 0
        self._buckets: dict[int, set[int]] = {}

    def check(self, src: int, ts: int, kind: int, now: int) -> bool:
        """True if fresh (and records it); False if a replay."""
        floor = (now - self.window_ns) // self._slice
        buckets = self._buckets
        if floor > self._floor:
            self._floor = floor
            for b in [b for b in buckets if b < floor]:
                del buckets[b]
        key = src << 66 | ts << 2 | kind
        b = ts // self._slice
        bucket = buckets.get(b)
        if bucket is None:
            buckets[b] = {key}
            return True
        if key in bucket:
            return False
        bucket.add(key)
        return True

    def __len__(self) -> int:
        return sum(map(len, self._buckets.values()))
