"""Per-AS border-router pipeline: setup admission and data-plane validation.

Validation is stateless apart from the traffic monitor: the authenticator
and validation field are recomputed from the packet and the AS-local
secret, costing exactly two MAC invocations per validated packet. The
secret's AES context is built once per router, at construction, and serves
the authenticator MAC and the key derivation. The recomputed authenticator
(alpha), which keys the validation-field MAC, gets one fresh AES context per
packet: the router keeps no per-grant state, unlike the source, which
prepares each stored grant's authenticator once. Every validation failure
demotes the packet to best effort; only replays are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from . import crypto, wire
from .admission import AllocationMatrix, DefaultPolicy, EstimatorConfig, Grant, admit_setup
from .policing import DedupWindow, TrafficMonitor, Verdict, self_renew


class TrafficClass(Enum):
    PRIORITY = "P"
    BEST_EFFORT = "B"
    DROP = "D"


@dataclass(frozen=True)
class ForwardDecision:
    traffic_class: TrafficClass
    egress: int
    verdict: str

    @property
    def priority(self) -> bool:
        return self.traffic_class is TrafficClass.PRIORITY


@dataclass(frozen=True)
class RouterConfig:
    delta_ns: int = 500_000_000  # clock tolerance around packet timestamps
    lifetime_ns: int = 1_000_000_000  # request/packet usability horizon
    bucket_window_ns: int = 50_000_000
    self_renew: bool = False
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    per_pair_estimators: bool = True


class Router:
    """Router state and packet handlers for one AS.

    The caller supplies the (ingress, egress) interface pair per packet in
    the forward-path orientation, as simulators know the path context;
    backward handling swaps the pair internally.
    """

    def __init__(self, as_id: int, secret: bytes, matrix: AllocationMatrix,
                 config: RouterConfig | None = None, now: int = 0, rng=None):
        self.as_id = as_id
        self.secret = secret
        self.prepared_secret = crypto.PreparedKey(secret)
        self.matrix = matrix
        self.config = config or RouterConfig()
        self.policy = DefaultPolicy(matrix, self.config.estimator,
                                    self.config.per_pair_estimators, now)
        self.monitor = TrafficMonitor(self.config.bucket_window_ns)
        self.dedup = DedupWindow(self.config.lifetime_ns + self.config.delta_ns)
        self.rng = rng
        # per interface pair: src -> (bw, ts_exp); used by the
        # no-over-allocation guard and scenario assertions
        self.active_grants: dict[tuple[int, int], dict[int, tuple[int, int]]] = {}
        self.grant_log: list[tuple[int, int, tuple[int, int], int, int, bool]] = []
        # request times are measured in the requests' own timestamps so the
        # bounded-time-to-grant property is checked free of wire jitter
        self.first_request_ts: dict[int, int] = {}
        self.grant_request_ts: list[tuple[int, int, bool]] = []  # (ts_req, src, tentative)

    def note_request(self, src: int, ts_req: int) -> None:
        self.first_request_ts.setdefault(src, ts_req)

    # admission helpers ---------------------------------------------------

    def note_grant(self, src: int, pair: tuple[int, int], grant: Grant, now: int,
                   ts_req: int | None = None) -> None:
        per_pair = self.active_grants.setdefault(pair, {})
        per_pair[src] = (grant.bw, grant.ts_exp)
        self.grant_log.append((now, src, pair, grant.bw, grant.ts_exp, grant.tentative))
        if ts_req is not None:
            self.grant_request_ts.append((ts_req, src, grant.tentative))
        total = sum(bw for bw, exp in per_pair.values() if exp > now)
        capacity = self.matrix.capacity_value(pair[0], pair[1], now)
        if total > capacity:
            raise AssertionError(
                f"over-allocation on pair {pair}: {total} > {capacity}"
            )

    def matrix_update(self, ingress: int, egress: int, new_value: int, now: int):
        """Change one allocation entry with update-delay semantics."""
        return self.matrix.update(ingress, egress, new_value, now,
                                  self.config.estimator.interval_ns)

    # packet handlers -----------------------------------------------------

    def handle_setup(self, req: wire.SetupRequest, hop_index: int, ingress: int,
                     egress: int, now: int) -> tuple[ForwardDecision, list[wire.RespEntry]]:
        """Admit this router's hop of a setup request.

        The request is forwarded whatever happens; failed checks only mean
        no entries are appended, so later ASes still see the request.
        """
        entries = admit_setup(self, req, hop_index, ingress, egress, now, self.rng)
        verdict = "granted" if entries else "no_grant"
        return ForwardDecision(TrafficClass.BEST_EFFORT, egress, verdict), entries

    def handle_data(self, pkt: wire.DataPacket, hop_index: int, ingress: int,
                    egress: int, now: int, wire_len: int | None = None) -> ForwardDecision:
        if pkt.d_flag:
            return self._validate(pkt, hop_index, egress, ingress, now,
                                  wire_len, backward=True)
        return self._validate(pkt, hop_index, ingress, egress, now,
                              wire_len, backward=False)

    def _validate(self, pkt: wire.DataPacket, hop_index: int, pair_in: int, pair_out: int,
                  now: int, wire_len: int | None, backward: bool) -> ForwardDecision:
        cfg = self.config
        # pair_out is already oriented to the packet's travel: it is the egress
        if wire_len is None:
            wire_len = pkt.total_len
        if not -cfg.delta_ns <= now - pkt.ts_pkt <= cfg.lifetime_ns + cfg.delta_ns:
            return ForwardDecision(TrafficClass.BEST_EFFORT, pair_out, "stale_ts")
        field_bytes = pkt.field_for(hop_index)
        if field_bytes is None:
            return ForwardDecision(TrafficClass.BEST_EFFORT, pair_out, "missing_field")
        if backward and wire_len > pkt.len_b:
            return ForwardDecision(TrafficClass.BEST_EFFORT, pair_out, "reply_too_long")
        mac_len = pkt.len_b if backward else wire_len
        alpha = crypto.compute_authenticator(self.prepared_secret, pkt.src, pair_in, pair_out)
        if crypto.compute_validation_field(alpha, pkt.ts_pkt, mac_len) != field_bytes:
            return ForwardDecision(TrafficClass.BEST_EFFORT, pair_out, "bad_mac")
        kind = DedupWindow.KIND_DATA_BWD if backward else DedupWindow.KIND_DATA_FWD
        if not self.dedup.check(pkt.src, pkt.ts_pkt, kind, now):
            self.monitor.note_replay(pkt.src)
            return ForwardDecision(TrafficClass.DROP, pair_out, "replay")
        direction = wire.BACKWARD if backward else wire.FORWARD
        verdict = self.monitor.police(pkt.src, wire_len, pair_in, pair_out, direction, now)
        if verdict is Verdict.CONFORM:
            if cfg.self_renew:
                grant = self.policy.get_bandwidth(pkt.src, pair_in, pair_out, now)
                if grant is not None:
                    self.monitor.register(pkt.src, grant.bw, grant.ts_exp, direction, now)
                    self.note_grant(pkt.src, (pair_in, pair_out), grant, now)
            return ForwardDecision(TrafficClass.PRIORITY, pair_out, "ok")
        return ForwardDecision(TrafficClass.BEST_EFFORT, pair_out, verdict.value)
