"""Per-AS border-router pipeline: setup admission and data-plane validation.

Data validation keeps no state but the traffic monitor and the replay
window, and never calls admission: the authenticator and validation
field are recomputed from the packet and the AS-local secret, costing
exactly two MAC invocations per validated packet; ``crypto`` gives the
AES context each MAC runs on and what it costs. Packets demoted for a
stale timestamp, a missing field or an over-long reply cost no MAC and no
context.

Each handler returns a ``Decision``, a module-level constant that pairs the
logged verdict string with the class the packet leaves in: only ``OK``
forwards as priority and only ``REPLAY`` drops; every other outcome, setup
requests granted or not included, leaves best effort.

Every grant is checked against the pair's capacity (the no-over-allocation
guard). The guard keeps a running total of the live grants per interface
pair and a heap of their expiries, so a grant costs amortized O(log n) in
the pair's holders rather than a re-sum of all of them; a clock that runs
backwards for a pair rebuilds that pair's total once from its holders.
A grant counts against the pair before its ``ts_exp`` and no longer from
that nanosecond on, by :func:`wire.expired`: the monitor stops passing its
traffic as conforming at the same nanosecond, so the grants whose traffic
conforms never sum past the capacity the guard checks.

A packet's or request's timestamp is fresh by :func:`wire.in_window`, the
protocol's fixed window, and the replay window remembers a timestamp for
``wire.MAX_AGE_NS``. ``RouterConfig`` holds what a run may set: the bucket
window and the estimator's ``EstimatorConfig``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum

from . import crypto, wire
from .admission import DefaultPolicy, EstimatorConfig, Grant, admit_setup
from .policing import DedupWindow, TrafficMonitor, Verdict
from .topo import AllocationMatrix


class TrafficClass(Enum):
    PRIORITY = "P"
    BEST_EFFORT = "B"
    DROP = "D"


class Decision(Enum):
    """One hop's outcome for one packet: a ``verdict`` and a ``traffic_class``."""

    OK = "ok", TrafficClass.PRIORITY
    STALE_TS = "stale_ts", TrafficClass.BEST_EFFORT
    MISSING_FIELD = "missing_field", TrafficClass.BEST_EFFORT
    REPLY_TOO_LONG = "reply_too_long", TrafficClass.BEST_EFFORT
    BAD_MAC = "bad_mac", TrafficClass.BEST_EFFORT
    OVERUSE = "overuse", TrafficClass.BEST_EFFORT
    EXPIRED = "expired", TrafficClass.BEST_EFFORT
    UNKNOWN = "unknown", TrafficClass.BEST_EFFORT
    REPLAY = "replay", TrafficClass.DROP
    GRANTED = "granted", TrafficClass.BEST_EFFORT  # requests travel best effort
    NO_GRANT = "no_grant", TrafficClass.BEST_EFFORT

    def __init__(self, verdict: str, traffic_class: TrafficClass):
        self.verdict = verdict
        self.traffic_class = traffic_class


_POLICED = {Verdict.CONFORM: Decision.OK, Verdict.OVERUSE: Decision.OVERUSE,
            Verdict.EXPIRED: Decision.EXPIRED, Verdict.UNKNOWN: Decision.UNKNOWN}
# bound once: an Enum member read off its class, or hashed as a dict key, is slow
_CONFORM, _OK = Verdict.CONFORM, Decision.OK
_STALE_TS, _MISSING_FIELD, _REPLY_TOO_LONG, _BAD_MAC, _REPLAY = (
    Decision.STALE_TS, Decision.MISSING_FIELD, Decision.REPLY_TOO_LONG, Decision.BAD_MAC,
    Decision.REPLAY)


@dataclass(frozen=True)
class RouterConfig:
    bucket_window_ns: int = 50_000_000
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)

    def __post_init__(self):
        if self.bucket_window_ns < 1:
            raise ValueError("bucket_window_ns must be >= 1")


class Router:
    """Router state and packet handlers for one AS.

    The caller gives each packet's (ingress, egress) pair in the
    forward-path orientation, as simulators know the path context.
    """

    def __init__(self, as_id: int, secret: bytes, matrix: AllocationMatrix,
                 config: RouterConfig | None = None, now: int = 0, rng=None):
        self.as_id = as_id
        self.secret = secret
        self.prepared_secret = crypto.PreparedKey(secret)
        self.matrix = matrix
        self.config = config or RouterConfig()
        self.policy = DefaultPolicy(matrix, self.config.estimator, now)
        self.monitor = TrafficMonitor(self.config.bucket_window_ns)
        self.dedup = DedupWindow(wire.MAX_AGE_NS)
        self.rng = rng
        # per interface pair: src -> (bw, ts_exp); used by the
        # no-over-allocation guard and scenario assertions
        self.active_grants: dict[tuple[int, int], dict[int, tuple[int, int]]] = {}
        self.grant_log: list[tuple[int, int, tuple[int, int], int, int, bool]] = []
        # request times are measured in the requests' own timestamps so the
        # bounded-time-to-grant property is checked free of wire jitter
        self.first_request_ts: dict[int, int] = {}
        self.grant_request_ts: list[tuple[int, int, bool]] = []  # (ts_req, src, tentative)
        # per interface pair: [live total, last clock seen, heap of
        # (ts_exp, src, holder entry), the pair's ``active_grants`` dict];
        # heap entries whose holder was replaced since are skipped when popped
        self._live: dict[tuple[int, int], list] = {}

    def note_request(self, src: int, ts_req: int) -> None:
        self.first_request_ts.setdefault(src, ts_req)

    # admission helpers ---------------------------------------------------

    def note_grant(self, src: int, pair: tuple[int, int], grant: Grant, now: int,
                   ts_req: int) -> None:
        bw, ts_exp, tentative = grant
        expired = wire.expired
        live = self._live.get(pair)
        if live is None or now < live[1]:
            holders = self.active_grants.setdefault(pair, {})
            heap = [(held[1], s, held) for s, held in holders.items()
                    if not expired(held[1], now)]
            heapq.heapify(heap)
            live = self._live[pair] = [sum(held[0] for _, _, held in heap), now, heap, holders]
        total, _, heap, holders = live
        while heap and expired(heap[0][0], now):
            _, s, held = heapq.heappop(heap)
            if holders.get(s) is held:
                total -= held[0]
        old = holders.get(src)
        if old is not None and not expired(old[1], now):
            total -= old[0]
        entry = holders[src] = (bw, ts_exp)
        if not expired(ts_exp, now):
            total += bw
            heapq.heappush(heap, (ts_exp, src, entry))
        live[0], live[1] = total, now
        self.grant_log.append((now, src, pair, bw, ts_exp, tentative))
        self.grant_request_ts.append((ts_req, src, tentative))
        capacity = self.matrix.capacity_value(pair[0], pair[1], now)
        if total > capacity:
            raise AssertionError(
                f"over-allocation on pair {pair}: {total} > {capacity}"
            )

    # packet handlers -----------------------------------------------------

    def handle_setup(self, req: wire.SetupRequest, hop_index: int, ingress: int,
                     egress: int, now: int) -> tuple[Decision, list[wire.RespEntry]]:
        """Admit this router's hop of a setup request; see :func:`admit_setup`."""
        entries = admit_setup(self, req, hop_index, ingress, egress, now, self.rng)
        return Decision.GRANTED if entries else Decision.NO_GRANT, entries

    def handle_data(self, pkt: wire.DataPacket, hop_index: int, ingress: int,
                    egress: int, now: int, wire_len: int | None = None) -> Decision:
        # one unpack: a record's named field reads cost more than its items
        src, backward, ts_pkt, len_b, rvfs, bvfs, payload = pkt
        direction = wire.BACKWARD if backward else wire.FORWARD
        if wire_len is None:
            wire_len = wire.data_packet_len(len(rvfs) + len(bvfs), len(payload))
        if not wire.in_window(ts_pkt, now):
            return _STALE_TS
        for hop, field_bytes in (bvfs if backward else rvfs):
            if hop == hop_index:
                break
        else:
            return _MISSING_FIELD
        if backward and wire_len > len_b:
            return _REPLY_TOO_LONG
        mac_len = len_b if backward else wire_len
        pair_in, pair_out = wire.directed_pair(ingress, egress, direction)
        alpha = crypto.compute_authenticator(self.prepared_secret, src, pair_in, pair_out)
        if crypto.compute_validation_field(alpha, ts_pkt, mac_len) != field_bytes:
            return _BAD_MAC
        kind = DedupWindow.KIND_DATA_BWD if backward else DedupWindow.KIND_DATA_FWD
        if not self.dedup.check(src, ts_pkt, kind, now):
            return _REPLAY
        verdict = self.monitor.police(src, wire_len, pair_in, pair_out, now)
        return _OK if verdict is _CONFORM else _POLICED[verdict]
