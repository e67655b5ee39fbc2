"""Deterministic discrete-event network of ASes and border routers.

Links are capacity-limited with strict priority queuing: the priority queue
is always served before best effort, and only the finite best-effort buffer
drops on overflow. Packets are discrete; service happens at departure
events. The event loop is single-threaded and fully determined by the
scenario seed, so two runs with the same configuration produce identical
event logs.

A frame carries the message its sender built and the bytes it encodes to,
encoded once. Routers read the message instead of parsing the bytes at
every hop; no simulated adversary changes bytes in flight (replayers copy
both, observers read the bytes), so the two never disagree. The bytes stay
as what an on-path adversary sees. The one parse left is a router reading
the setup request a renewal carries as its payload.

Scenario configurations are plain dicts (usually loaded from JSON): a
topology (ASes plus links with capacity and delay), reservation and
best-effort flows, adversaries, and the security requirements to evaluate
on the network that ``Network.run()`` returns once the run is over.
"""

from __future__ import annotations

import heapq
import json
import random
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from . import crypto, source, wire
from .admission import AllocationMatrix, EstimatorConfig
from .router import ForwardDecision, Router, RouterConfig, TrafficClass
from .units import parse_bandwidth, parse_duration


class ConfigError(ValueError):
    pass


def _required(spec: dict, key: str):
    """``spec[key]`` for a key a flow or adversary cannot do without."""
    if key not in spec:
        raise ConfigError(f"{spec['name']}: missing required key {key!r}")
    return spec[key]


def _packet_size(spec: dict, default: int) -> int:
    size = int(spec.get("packet_size", default))
    if size < 0:
        raise ConfigError(f"{spec['name']}: packet_size must be >= 0, got {size}")
    return size


_U16_MAX = 0xFFFF  # a data packet's length and its len_b are 16-bit fields


def _data_packet_len(spec: dict, payload: int, fields: int) -> int:
    """Length of a data packet with ``payload`` bytes and ``fields``
    validation fields, which must fit its 16-bit length."""
    total = wire.DATA_FIXED_HEADER + wire.FIELD_ENTRY_LEN * fields + payload
    if total > _U16_MAX:
        raise ConfigError(f"{spec['name']}: packet_size {payload} makes {total}-byte data "
                          f"packets, over {_U16_MAX}")
    return total


# ---------------------------------------------------------------------------
# event loop


class EventLoop:
    def __init__(self):
        self._heap: list = []
        self._seq = 0
        self.now = 0

    def schedule(self, t: int, fn, *args) -> None:
        if t < self.now:
            raise AssertionError("cannot schedule into the past")
        self._seq += 1
        heapq.heappush(self._heap, (t, self._seq, fn, args))

    def run_until(self, t_end: int) -> None:
        while self._heap and self._heap[0][0] <= t_end:
            t, _, fn, args = heapq.heappop(self._heap)
            self.now = t
            fn(*args)
        self.now = t_end


# ---------------------------------------------------------------------------
# frames and links


@dataclass
class Frame:
    uid: int
    # the message the frame was built from; None for best-effort filler
    msg: wire.SetupRequest | wire.SetupResponse | wire.DataPacket | None
    payload: bytes  # wire.encode(msg), b"" for filler: what observers see
    size: int
    plan: source.PathPlan | None
    route: tuple[int, ...]  # AS ids including the source AS
    pos: int  # index into route of the node currently holding the frame
    cls: TrafficClass
    origin: str  # flow or adversary name, for attribution
    created: int
    resp_entries: list = field(default_factory=list)
    resp_cls: TrafficClass = TrafficClass.BEST_EFFORT
    worst: TrafficClass = TrafficClass.PRIORITY
    is_replay_copy: bool = False
    is_control: bool = False  # renewal wrappers: not flow payload traffic


class Link:
    """Directed link with strict-priority service and a drop-tail BE buffer."""

    PRIO_GUARD = 100_000  # admission bounds priority load; this only guards bugs

    def __init__(self, net: "Network", capacity_bps: int, delay_ns: int, be_buffer: int):
        self.net = net
        self.capacity = capacity_bps
        self.delay = delay_ns
        self.be_buffer = be_buffer
        self.prio: deque[Frame] = deque()
        self.be: deque[Frame] = deque()
        self.busy = False
        self.be_dropped = 0
        self.observers: list = []

    def tx_time(self, size: int) -> int:
        return max(1, (size * 8 * 10**9) // self.capacity)

    def send(self, frame: Frame, t: int) -> None:
        if self.busy:
            if frame.cls is TrafficClass.PRIORITY:
                if len(self.prio) >= self.PRIO_GUARD:
                    raise AssertionError("priority queue overflow: admission broken")
                self.prio.append(frame)
            else:
                if len(self.be) >= self.be_buffer:
                    self.be_dropped += 1
                    self.net._frame_dropped(frame, "be_buffer_full")
                    return
                self.be.append(frame)
            return
        self._start(frame, t)

    def _start(self, frame: Frame, t: int) -> None:
        self.busy = True
        done = t + self.tx_time(frame.size)
        self.net.loop.schedule(done, self._done)
        self.net.loop.schedule(done + self.delay, self.net.arrive, self, frame)

    def _done(self) -> None:
        self.busy = False
        queue = self.prio or self.be
        if queue:
            self._start(queue.popleft(), self.net.loop.now)


# ---------------------------------------------------------------------------
# nodes


@dataclass
class Node:
    as_id: int
    router: Router | None  # None: AS does not speak the protocol
    skew_ns: int = 0
    if_to: dict[int, int] = field(default_factory=dict)  # neighbor AS -> interface

    def local_time(self, t: int) -> int:
        return t + self.skew_ns


# ---------------------------------------------------------------------------
# flows and adversaries


class FlowStats:
    def __init__(self):
        self.sent = 0
        self.delivered = 0
        self.delivered_priority = 0
        self.delivered_demoted = 0
        self.dropped = 0
        self.delays: list[int] = []
        self.replies_received = 0

    @property
    def max_delay(self) -> int:
        return max(self.delays) if self.delays else 0


class _Sender:
    """A flow or adversary that injects frames at its source AS.

    The first ``_emit`` runs at ``start`` (a duration, >= 0). ``_emit(t)``
    sends at most one frame and returns whether to send again, ``gap`` ns
    later; sending ends at ``stop`` if one is given. A sender that stamps
    timestamps (``STAMPS``) needs its AS's clock at or past 0 from ``start``.
    """

    STAMPS = True

    def __init__(self, net: "Network", spec: dict, backward: bool = False, start=0,
                 stop=None):
        self.net = net
        self.name = spec["name"]
        self.src = _required(spec, "src")
        self.node = net.nodes.get(self.src)
        if self.node is None:
            raise ConfigError(f"{self.name}: unknown source AS {self.src!r}")
        self.route = tuple(_required(spec, "path"))
        self.backward = backward
        self.plan = net.plan_for(self.route, backward, name=self.name)
        self._first_link = net.links[self.route[0], self.route[1]]
        self.start_at = parse_duration(start)
        if self.start_at < 0:
            raise ConfigError(f"{self.name}: start time must be >= 0, got {start!r}")
        self.stop_at = None if stop is None else parse_duration(stop)
        if self.STAMPS and self.node.local_time(self.start_at) < 0:
            raise ConfigError(f"{self.name}: AS {self.src}'s clock is below 0 at the start")

    def _drkeys(self, authentic: bool = True) -> dict[int, bytes]:
        """The source's DRKey at each router on the path; all-zero keys
        (which no router accepts) when not ``authentic``."""
        keys = {}
        for h in self.plan.hops:
            router = self.net.nodes[h.as_id].router
            if router:
                keys[h.as_id] = (crypto.derive_drkey(router.prepared_secret, self.src)
                                 if authentic else bytes(16))
        return keys

    def _send(self, msg, cls: TrafficClass, size: int | None = None,
              renewal: bool = False) -> None:
        """Hand a new frame to the source AS's first link; no self-validation."""
        frame = self.net.new_frame(msg, self.plan, self.route, cls, self.name, size)
        if renewal:  # control traffic, not flow payload; answered at priority
            frame.resp_cls = TrafficClass.PRIORITY
            frame.is_control = True
        self._first_link.send(frame, self.net.loop.now)

    def start(self) -> None:
        self.net.loop.schedule(self.start_at, self._tick)

    def _tick(self) -> None:
        t = self.net.loop.now
        if self.stop_at is not None and t >= self.stop_at:
            return
        if self._emit(t):
            self.net.loop.schedule(t + self.gap, self._tick)


class ReservationFlow(_Sender):
    """Honest source: handshake (with retries), then paced reservation traffic."""

    FACTOR_KEY, FACTOR_DEFAULT = "overuse_factor", 1.0  # send rate / composed rate

    def __init__(self, net: "Network", spec: dict):
        backward = bool(spec.get("backward", False))
        super().__init__(net, spec, backward, spec.get("setup_at", 0), spec.get("stop_at"))
        self.packet_size = _packet_size(spec, 1000)
        self.wire_size = _data_packet_len(
            spec, self.packet_size, len(self.plan.forward_hops) + len(self.plan.backward_hops))
        self.rate_cfg = spec.get("rate", "auto")
        self.len_b = int(spec.get("len_b", 120 if backward else 0))
        if not 0 <= self.len_b <= _U16_MAX:
            raise ConfigError(f"{self.name}: len_b must be in [0, {_U16_MAX}], "
                              f"got {self.len_b}")
        self.renew = bool(spec.get("renew", False))
        self.ignore_expiry = bool(spec.get("ignore_expiry", False))
        self.overuse_factor = float(spec.get(self.FACTOR_KEY, self.FACTOR_DEFAULT))
        if self.overuse_factor <= 0:
            raise ConfigError(f"{self.name}: overuse factor must be positive, "
                              f"got {self.overuse_factor}")
        self.store = source.GrantStore()
        self.keys = self._drkeys()
        self.stats = FlowStats()
        self.granted_at: int | None = None
        self.grant_expiry: int | None = None
        self.started = False

    def start(self) -> None:
        self.net.loop.schedule(self.start_at, self._send_setup)
        eps = self.net.estimator_cfg.interval_ns
        # retry ladder: every eps/2, plus the guaranteed-success point at 2*eps
        for k in (1, 2, 3):
            self.net.loop.schedule(self.start_at + k * eps // 2, self._retry)
        self.net.loop.schedule(self.start_at + 2 * eps, self._retry)

    def _send_setup(self) -> None:
        req = source.build_setup_request(self.keys, self.plan, self.src,
                                         self.node.local_time(self.net.loop.now))
        self._send(req, TrafficClass.BEST_EFFORT)

    def _retry(self) -> None:
        if self.granted_at is None:
            self._send_setup()

    def _send_renewal(self) -> None:
        try:
            pkt = source.build_renewal(self.store, self.keys, self.plan, self.src,
                                       self.node.local_time(self.net.loop.now))
        except source.MissingGrant:
            self._send_setup()  # expired: fall back to a best-effort request
            return
        self._send(pkt, TrafficClass.PRIORITY, renewal=True)

    def on_response(self, resp: wire.SetupResponse) -> None:
        accepted = source.ingest_response(self.store, self.keys, resp, self.plan)
        if not accepted:
            return
        needed = [fkey for _, fkey in self.plan.forward_keys]
        now = self.net.loop.now
        if needed and all(self.store.get(k, now) is not None for k in needed):
            exp = min(self.store.get(k, now).ts_exp for k in needed)
            self.grant_expiry = exp
            if self.granted_at is None:
                # granting happened at the routers when they stamped the
                # expiry, one validity period before it
                self.granted_at = exp - self.net.estimator_cfg.interval_ns
                self.net.log(f"granted flow={self.name} t={self.granted_at}")
            if not self.started:
                self.started = True
                self._configure_rate()
                self.net.loop.schedule(now + 1, self._tick)
            if self.renew:
                eps = self.net.estimator_cfg.interval_ns
                renew_at = max(now + 1, exp - eps // 5)
                self.net.loop.schedule(renew_at, self._send_renewal)

    def _configure_rate(self) -> None:
        if self.rate_cfg == "auto":
            comp = source.compose(self.store, [self.plan], source.CONCURRENT,
                                  self.net.loop.now)
            rate = comp.path_rates[self.name]
            if rate <= 0:
                raise ConfigError(f"flow {self.name}: no usable composed rate")
        else:
            rate = Fraction(parse_bandwidth(self.rate_cfg))
        rate = rate * Fraction(self.overuse_factor).limit_denominator(10**6)
        self.gap = max(1, int(self.wire_size * 8 * 10**9 / rate) + 1)

    def _emit(self, t: int) -> bool:
        try:
            pkt = source.emit_packet(self.store, self.plan, self.src,
                                     bytes(self.packet_size), self.len_b,
                                     self.node.local_time(t),
                                     allow_expired=self.ignore_expiry)
        except source.MissingGrant:
            self.net.log(f"emit_blocked flow={self.name} t={t}")
            return False
        self.stats.sent += 1
        self._send(pkt, TrafficClass.PRIORITY)
        return True


class Overuser(ReservationFlow):
    """Reservation flow sending at ``factor`` times its granted rate."""

    FACTOR_KEY, FACTOR_DEFAULT = "factor", 2.0


class BestEffortFlow(_Sender):
    """Unreserved frames at a constant rate; routers never validate them."""

    STAMPS = False

    def __init__(self, net: "Network", spec: dict):
        super().__init__(net, spec, start=spec.get("start", 0), stop=spec.get("stop_at"))
        self.packet_size = _packet_size(spec, 1000)
        if self.packet_size == 0:  # the send gap is size / rate
            raise ConfigError(f"{self.name}: best-effort packet_size must be >= 1")
        rate = parse_bandwidth(_required(spec, "rate"))
        self.gap = max(1, (self.packet_size * 8 * 10**9) // rate)
        self.stats = FlowStats()

    def _emit(self, t: int) -> bool:
        self.stats.sent += 1
        self._send(None, TrafficClass.BEST_EFFORT, size=self.packet_size)
        return True


class RequestFlood(_Sender):
    """Adversary ASes hammering setup requests (authentic by default)."""

    def __init__(self, net: "Network", spec: dict):
        super().__init__(net, spec)
        rate = float(spec.get("requests_per_s", 100.0))
        if rate <= 0:
            raise ConfigError(f"{self.name}: requests_per_s must be positive, got {rate}")
        self.gap = max(1, int(10**9 / rate))
        self.count = 0
        self.max_requests = int(spec.get("max_requests", 10**9))
        self.keys = self._drkeys(bool(spec.get("authentic", True)))

    def _emit(self, t: int) -> bool:
        if self.count >= self.max_requests:
            return False
        self.count += 1
        req = source.build_setup_request(self.keys, self.plan, self.src,
                                         self.node.local_time(t))
        self._send(req, TrafficClass.BEST_EFFORT)
        return True


class Spoofer(_Sender):
    """Forges the victim's AS id with random validation fields."""

    def __init__(self, net: "Network", spec: dict):
        super().__init__(net, spec)
        self.victim = _required(spec, "victim")
        self.count = int(spec.get("count", 1000))
        self.packet_size = _packet_size(spec, 100)
        _data_packet_len(spec, self.packet_size, len(self.plan.hops))
        self.gap = parse_duration(spec.get("gap", 100))
        if self.gap < 0:
            raise ConfigError(f"{self.name}: gap must be >= 0, got {spec['gap']!r}")
        self.sent = 0
        self.succeeded = 0  # frames some router classified as priority

    def _emit(self, t: int) -> bool:
        if self.sent >= self.count:
            return False
        self.sent += 1
        rng = self.net.rng
        ts = self.node.local_time(t)
        rvfs = tuple((i, rng.randbytes(3)) for i in range(len(self.plan.hops)))
        pkt = wire.DataPacket(self.victim, False, ts, 0, rvfs, (), bytes(self.packet_size))
        self._send(pkt, TrafficClass.PRIORITY)
        return True


class Replayer:
    """On-link adversary duplicating every data frame it observes."""

    def __init__(self, net: "Network", spec: dict):
        self.net = net
        self.name = spec["name"]
        self.link = tuple(_required(spec, "link"))
        self.copies = int(spec.get("copies", 1))
        if self.copies < 1:
            raise ConfigError(f"{self.name}: copies must be >= 1, got {self.copies}")
        self.delay = parse_duration(spec.get("delay", 1000))
        if self.delay < 0:
            raise ConfigError(f"{self.name}: delay must be >= 0, got {spec['delay']!r}")
        self.injected = 0
        self.copies_dropped = 0
        self.copies_delivered = 0

    def on_frame(self, link: Link, frame: Frame) -> None:
        if not isinstance(frame.msg, wire.DataPacket) or frame.is_replay_copy:
            return
        net = self.net
        for _ in range(self.copies):
            self.injected += 1
            # the message and the bytes it saw, injected at the link's receiving end
            copy = Frame(net.next_uid(), frame.msg, frame.payload, frame.size, frame.plan,
                         frame.route, frame.pos + 1, frame.cls, self.name, net.loop.now,
                         is_replay_copy=True, is_control=frame.is_control)
            net.loop.schedule(net.loop.now + self.delay, net.process_at_node, copy)


class LinkObserver:
    """Passive wiretap recording every byte crossing a link."""

    def __init__(self, net: "Network", spec: dict):
        self.name = spec["name"]
        self.link = tuple(_required(spec, "link"))
        self.captured: list[bytes] = []

    def on_frame(self, link: Link, frame: Frame) -> None:
        self.captured.append(frame.payload)
        for entry in frame.resp_entries:
            self.captured.append(wire.encode(wire.SetupResponse(0, 0, (entry,))))


# flow ``type`` -> class, and adversary ``kind`` -> class. An object of a
# flow class is a flow wherever it is configured: its frames are counted in
# its ``stats``.
_FLOW_TYPES = {
    "reservation": ReservationFlow,
    "best_effort": BestEffortFlow,
}
_ADVERSARY_KINDS = {
    "best_effort_flood": BestEffortFlow,
    "overuser": Overuser,
    "request_flood": RequestFlood,
    "spoofer": Spoofer,
    "replayer": Replayer,
    "link_observer": LinkObserver,
}


# ---------------------------------------------------------------------------
# the network


class Network:
    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.seed = int(cfg.get("seed", 0))
        self.rng = random.Random(self.seed)
        self.loop = EventLoop()
        self.duration = parse_duration(cfg.get("duration", "5s"))
        if self.duration <= 0:
            raise ConfigError(f"duration must be positive, got {cfg.get('duration')!r}")
        names = set()
        for spec in list(cfg.get("flows", ())) + list(cfg.get("adversaries", ())):
            if "name" not in spec:
                raise ConfigError(f"flow or adversary without a name: {spec}")
            # frames are traced back to their sender by this name
            if spec["name"] in names:
                raise ConfigError(f"{spec['name']}: name used by another flow or adversary")
            names.add(spec["name"])
            if spec.get("rate", "auto") != "auto" and parse_bandwidth(spec["rate"]) <= 0:
                raise ConfigError(f"{spec['name']}: rate must be positive, got {spec['rate']!r}")
        self.log_verdicts = bool(cfg.get("log_verdicts", True))
        self.log_lines: list[str] = []
        self._uid = 0

        est = cfg.get("estimator", {})
        try:
            self.estimator_cfg = EstimatorConfig(
                interval_ns=parse_duration(est.get("interval", "10s")),
                min_requesters=int(est.get("min_requesters", 1)),
                reserved_fraction=Fraction(str(est.get("reserved_fraction", "0.8"))),
                tentative_slots=int(est.get("tentative_slots", 8)),
                filter_bits=int(est.get("filter_bits", 95_851)),
                hash_count=int(est.get("hash_count", 7)),
                exact=bool(est.get("exact", True)),
            )
        except ValueError as exc:
            raise ConfigError(f"estimator: {exc}") from exc
        try:
            self.router_cfg = RouterConfig(
                delta_ns=parse_duration(cfg.get("delta", "500ms")),
                lifetime_ns=parse_duration(cfg.get("lifetime", "1s")),
                bucket_window_ns=parse_duration(cfg.get("bucket_window", "50ms")),
                self_renew=bool(cfg.get("self_renew", False)),
                estimator=self.estimator_cfg,
            )
        except ValueError as exc:
            raise ConfigError(f"router: {exc}") from exc

        self.nodes: dict[int, Node] = {}
        self.links: dict[tuple[int, int], Link] = {}
        self._build_topology(cfg.get("topology"))

        self.flows: dict[str, ReservationFlow | BestEffortFlow] = {}
        self.adversaries: dict[str, object] = {}
        for spec in cfg.get("flows", ()):
            self._add(_FLOW_TYPES, "flow type", spec.get("type", "reservation"), spec)
        for spec in cfg.get("adversaries", ()):
            self._add(_ADVERSARY_KINDS, "adversary kind", _required(spec, "kind"), spec)
        if bool(cfg.get("warm_start", False)):
            self._warm_start_sources()
        for req in cfg.get("requirements", ()):
            self._check_requirement(req)

    def _add(self, table: dict, what: str, kind: str, spec: dict) -> None:
        cls = table.get(kind)
        if cls is None:
            raise ConfigError(f"unknown {what} {kind!r}")
        obj = cls(self, spec)
        if isinstance(obj, tuple(_FLOW_TYPES.values())):
            self.flows[obj.name] = obj
        else:
            self.adversaries[obj.name] = obj
        if isinstance(obj, (Replayer, LinkObserver)):
            if obj.link not in self.links:
                raise ConfigError(f"{obj.name}: no link {obj.link}")
            self.links[obj.link].observers.append(obj)

    def _check_requirement(self, req: dict) -> None:
        """Reject, before the run, a requirement its check could not evaluate."""
        _requirement_check(req)
        # each name must be of the kind the check reads
        for key, names, cls in (("flow", self.flows, ReservationFlow),
                                ("overuser", self.flows, ReservationFlow),
                                ("adversary", self.adversaries, Spoofer),
                                ("replayer", self.adversaries, Replayer)):
            if key in req and not isinstance(names.get(req[key]), cls):
                raise ConfigError(f"requirement {req['r']}: {key} {req[key]!r} names no "
                                  f"{cls.__name__} of the run")

    # topology -----------------------------------------------------------

    def _build_topology(self, topo) -> None:
        if topo is None:
            raise ConfigError("scenario needs a topology")
        if isinstance(topo, str):
            with open(topo) as fh:
                topo = json.load(fh)
        if "ases" not in topo and "n" in topo:
            # generated topology file: nodes 0..n-1, optional matrices
            matrices = topo.get("matrices", {})
            topo = {
                "ases": [
                    {"id": i, **({"matrix": matrices[str(i)]} if str(i) in matrices else {})}
                    for i in range(int(topo["n"]))
                ],
                "links": topo["links"],
            }
        as_specs = {int(a["id"]): a for a in topo["ases"]}
        be_buffer = int(self.cfg.get("be_buffer", 100))
        if be_buffer < 0:
            raise ConfigError(f"be_buffer must be >= 0, got {be_buffer}")
        skews = {int(k): parse_duration(v)
                 for k, v in self.cfg.get("clock_skew", {}).items()}
        neighbors: dict[int, list[tuple[int, int]]] = {a: [] for a in as_specs}
        for ln in topo["links"]:
            a, b = int(ln["a"]), int(ln["b"])
            cap = parse_bandwidth(ln.get("capacity", "10Gbps"))
            if cap <= 0:
                raise ConfigError(f"link {a}-{b}: capacity must be positive, "
                                  f"got {ln.get('capacity')!r}")
            delay = parse_duration(ln.get("delay", "1ms"))
            if delay < 0:
                raise ConfigError(f"link {a}-{b}: delay must be >= 0, got {ln.get('delay')!r}")
            neighbors[a].append((b, cap))
            neighbors[b].append((a, cap))
            self.links[(a, b)] = Link(self, cap, delay, be_buffer)
            self.links[(b, a)] = Link(self, cap, delay, be_buffer)
        for as_id, spec in as_specs.items():
            caps = [0] + [cap for _, cap in neighbors[as_id]]
            caps[0] = max(caps[1:], default=0)  # internal interface
            if_to = {nbr: i + 1 for i, (nbr, _) in enumerate(neighbors[as_id])}
            enabled = spec.get("enabled", True)
            router = None
            if enabled:
                matrix = (AllocationMatrix(spec["matrix"]) if "matrix" in spec
                          else AllocationMatrix.from_capacities(caps))
                secret = bytes.fromhex(spec["secret"]) if "secret" in spec else \
                    crypto.cbc_mac(b"topology-secret-", as_id.to_bytes(8, "big") * 2)
                router = Router(as_id, secret, matrix, self.router_cfg, now=0,
                                rng=random.Random((self.seed << 16) ^ as_id))
            self.nodes[as_id] = Node(as_id, router, skews.get(as_id, 0), if_to)

    def _warm_start_sources(self) -> None:
        """Pre-register the sources that request reservations as grantable,
        as if they had requested two intervals ago. The requester count is
        raised to the number of warm sources per estimator so the grant
        arithmetic stays consistent with a real request history (no
        over-allocation)."""
        warm: dict[int, set[int]] = {}
        for sender in list(self.flows.values()) + list(self.adversaries.values()):
            if not isinstance(sender, (ReservationFlow, RequestFlood)):
                continue
            for hop in sender.plan.hops:
                node = self.nodes[hop.as_id]
                if node.router is None:
                    continue
                for pair in ((hop.ingress, hop.egress), (hop.egress, hop.ingress)):
                    est = node.router.policy.estimator_for(*pair)
                    est.granted.add(sender.src)
                    est.previous.add(sender.src)
                    est.current.add(sender.src)
                    warm.setdefault(id(est), set()).add(sender.src)
                    est.requesters = max(est.requesters, len(warm[id(est)]))

    def plan_for(self, route: tuple[int, ...], backward: bool, name: str = "") -> source.PathPlan:
        if len(route) < 2:
            raise ConfigError(f"path {list(route)} needs a source AS and at least one more")
        hops = []
        for k in range(1, len(route)):
            as_id = route[k]
            node = self.nodes.get(as_id)
            if node is None:
                raise ConfigError(f"unknown AS {as_id} in path")
            ingress = node.if_to.get(route[k - 1])
            if ingress is None:
                raise ConfigError(f"no link {route[k-1]} -> {as_id}")
            egress = node.if_to.get(route[k + 1]) if k + 1 < len(route) else 0
            if egress is None:
                raise ConfigError(f"no link {as_id} -> {route[k+1]}")
            hops.append(source.PathHop(as_id, ingress, egress))
        # non-participating ASes get no reservation entries; they just forward
        fwd = frozenset(i for i, h in enumerate(hops) if self.nodes[h.as_id].router)
        bwd = fwd if backward else frozenset()
        return source.PathPlan(tuple(hops), fwd, bwd, name=name)

    # frame machinery ------------------------------------------------------

    def next_uid(self) -> int:
        self._uid += 1
        return self._uid

    def new_frame(self, msg, plan, route, cls, origin, size: int | None = None) -> Frame:
        """A frame carrying ``msg`` and its encoding, the message's one encode
        in the run. ``size`` defaults to the encoding's length; filler (``msg``
        None) has no bytes and takes its sender's size."""
        payload = b"" if msg is None else wire.encode(msg)
        return Frame(self.next_uid(), msg, payload, len(payload) if size is None else size,
                     plan, route, 0, cls, origin, self.loop.now)

    def log(self, line: str) -> None:
        self.log_lines.append(f"{self.loop.now} {line}")

    def _frame_dropped(self, frame: Frame, why: str) -> None:
        flow = self.flows.get(frame.origin)
        if flow is not None:
            flow.stats.dropped += 1
        if self.log_verdicts:
            self.log(f"drop pkt={frame.uid} origin={frame.origin} why={why}")

    def arrive(self, link: Link, frame: Frame) -> None:
        for obs in link.observers:
            obs.on_frame(link, frame)
        frame.pos += 1
        self.process_at_node(frame)

    # node processing -------------------------------------------------------

    def _hop_context(self, frame: Frame) -> tuple[int, source.PathHop] | None:
        """(hop_index, hop) for the node at frame.pos, or None off the plan
        and for filler."""
        if frame.plan is None or frame.msg is None:
            return None
        backward = isinstance(frame.msg, wire.DataPacket) and frame.msg.d_flag
        # a reversed route's position 0 is the destination, the last hop
        hop_index = len(frame.plan.hops) - 1 - frame.pos if backward else frame.pos - 1
        if not 0 <= hop_index < len(frame.plan.hops):
            return None
        return hop_index, frame.plan.hops[hop_index]

    def process_at_node(self, frame: Frame) -> None:
        as_id = frame.route[frame.pos]
        node = self.nodes[as_id]
        msg = frame.msg
        ctx = None if node.router is None else self._hop_context(frame)

        if ctx is None:  # forwarded unprocessed
            cls = TrafficClass.BEST_EFFORT
        else:
            decision = self._router_process(node, frame, *ctx)
            cls = decision.traffic_class
            if cls is TrafficClass.DROP:
                adv = self.adversaries.get(frame.origin)
                if isinstance(adv, Replayer):
                    adv.copies_dropped += 1
                self._frame_dropped(frame, decision.verdict)
                return

        if isinstance(msg, wire.SetupRequest):
            frame.cls = TrafficClass.BEST_EFFORT  # requests travel best effort
            if ctx is not None and ctx[0] == msg.last_hop:
                self._turn_around(frame, msg.src, msg.ts_req)
                return
        else:
            if cls is TrafficClass.BEST_EFFORT and isinstance(msg, wire.DataPacket):
                frame.worst = TrafficClass.BEST_EFFORT
            frame.cls = cls
        if frame.pos == len(frame.route) - 1:
            self._deliver(frame)
        else:  # plan_for checked every link of a route
            self.links[as_id, frame.route[frame.pos + 1]].send(frame, self.loop.now)

    def _router_process(self, node: Node, frame: Frame, hop_index: int,
                        hop: source.PathHop) -> ForwardDecision:
        """Run the router on the frame's message: a setup request or a data
        packet, as every frame on a plan carries one or the other."""
        router = node.router
        now = node.local_time(self.loop.now)
        msg = frame.msg
        if isinstance(msg, wire.SetupRequest):
            decision, entries = router.handle_setup(msg, hop_index, hop.ingress,
                                                    hop.egress, now)
            frame.resp_entries.extend(entries)
            frame.size += wire.RESP_ENTRY_LEN * len(entries)
            if self.log_verdicts:
                self.log(f"as={node.as_id} pkt={frame.uid} kind=setup "
                         f"verdict={decision.verdict} class={decision.traffic_class.value}")
            return decision
        decision = router.handle_data(msg, hop_index, hop.ingress, hop.egress,
                                      now, wire_len=frame.size)
        adv = self.adversaries.get(frame.origin)
        if isinstance(adv, Spoofer) and decision.priority:
            adv.succeeded += 1
        if self.log_verdicts:
            self.log(f"as={node.as_id} pkt={frame.uid} kind=data "
                     f"verdict={decision.verdict} class={decision.traffic_class.value}")
        if decision.traffic_class is not TrafficClass.DROP and not msg.d_flag:
            self._maybe_embedded_setup(node, frame, msg, hop_index, hop, now)
        return decision

    def _maybe_embedded_setup(self, node: Node, frame: Frame, pkt: wire.DataPacket,
                              hop_index: int, hop: source.PathHop, now: int) -> None:
        """Renewal requests ride inside validated reservation packets; the
        router parses the payload, as a real one would."""
        if not pkt.payload or pkt.payload[0] not in (wire.MSG_SETUP_REQ,
                                                     wire.MSG_SETUP_REQ_DEMAND):
            return
        try:
            inner = wire.decode(pkt.payload)
        except wire.DecodeError:
            return
        _, entries = node.router.handle_setup(inner, hop_index, hop.ingress,
                                              hop.egress, now)
        frame.resp_entries.extend(entries)
        if hop_index == inner.last_hop:
            self._turn_around(frame, inner.src, inner.ts_req)

    def _turn_around(self, frame: Frame, src: int, ts_req: int) -> None:
        """Build the aggregated response to request (src, ts_req) and send it
        back to the source."""
        entries = tuple(sorted(frame.resp_entries, key=lambda e: (e.hop, e.direction)))
        back_route = tuple(reversed(frame.route[: frame.pos + 1]))  # two ASes or more
        resp_frame = self.new_frame(wire.SetupResponse(src, ts_req, entries), None,
                                    back_route, frame.resp_cls, frame.origin)
        self.links[back_route[0], back_route[1]].send(resp_frame, self.loop.now)

    def _deliver(self, frame: Frame) -> None:
        flow = self.flows.get(frame.origin)
        msg = frame.msg
        if isinstance(msg, wire.SetupResponse):
            if flow is not None:
                flow.on_response(msg)
            return
        adv = self.adversaries.get(frame.origin)
        if isinstance(adv, Replayer):
            adv.copies_delivered += 1
        if flow is None or isinstance(msg, wire.SetupRequest) or frame.is_control:
            return
        st = flow.stats
        is_data = msg is not None
        if is_data and msg.d_flag:
            st.replies_received += 1
            return
        st.delivered += 1
        delay = self.loop.now - frame.created
        st.delays.append(delay)
        if is_data:
            if frame.worst is TrafficClass.PRIORITY:
                st.delivered_priority += 1
            else:
                st.delivered_demoted += 1
        if self.log_verdicts:
            self.log(f"deliver pkt={frame.uid} flow={frame.origin} delay={delay} "
                     f"class={frame.worst.value}")
        if flow.backward and is_data:
            self._auto_reply(frame)

    def _auto_reply(self, frame: Frame) -> None:
        pkt = frame.msg  # a backward flow's packets carry backward fields
        budget = source.max_reply_payload(pkt)
        if budget < 0:
            return
        back = self.new_frame(source.build_reply(pkt, bytes(min(budget, 64))), frame.plan,
                              tuple(reversed(frame.route)), TrafficClass.PRIORITY, frame.origin)
        self.process_at_node(back)  # destination router validates its own egress

    # run ---------------------------------------------------------------------

    def run(self) -> "Network":
        """Run for the configured duration; the network is its own result."""
        for sender in list(self.flows.values()) + list(self.adversaries.values()):
            if isinstance(sender, _Sender):
                sender.start()
        self.loop.run_until(self.duration)
        return self

    def flow_summary_rows(self) -> list[tuple]:
        rows = []
        for name in sorted(self.flows):
            st = self.flows[name].stats
            rows.append((name, st.sent, st.delivered, st.delivered_priority,
                         st.delivered_demoted, st.dropped, st.max_delay))
        return rows

    def routers(self) -> list[tuple[int, Router]]:
        """(AS id, router) of each AS that speaks the protocol, in AS order."""
        return [(a, self.nodes[a].router) for a in sorted(self.nodes)
                if self.nodes[a].router is not None]

    def monitor_rows(self) -> list[tuple]:
        return [(as_id, *row) for as_id, router in self.routers()
                for row in router.monitor.report_rows()]

    def delay_bound_ns(self, flow_name: str, slack: float = 1.0) -> int:
        """Propagation + own transmission + one max-size serialization per hop."""
        flow = self.flows[flow_name]
        size = flow.packet_size + 64
        total = 0
        for k in range(len(flow.route) - 1):
            link = self.links[(flow.route[k], flow.route[k + 1])]
            total += link.delay + link.tx_time(size) + link.tx_time(1600)
        return int(total * slack)


# ---------------------------------------------------------------------------
# loading, running and requirement checks


def load_scenario(path: str) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad scenario file {path}: {exc}") from exc


def run_scenario(cfg: dict, seed: int | None = None) -> Network:
    cfg = dict(cfg)
    if seed is not None:
        cfg["seed"] = seed
    return Network(cfg).run()


def assert_requirement(result: Network, req: dict) -> tuple[bool, str]:
    """Evaluate one security requirement against a finished run.

    Returns (ok, detail); detail carries the counterexample on failure.
    """
    return _requirement_check(req)(result, req)


def _requirement_check(req: dict):
    """The check for ``req``'s kind, once the keys it reads are present."""
    kind = req.get("r")
    if kind not in _REQUIREMENTS:
        raise ConfigError(f"unknown requirement {kind!r}")
    check, required = _REQUIREMENTS[kind]
    for key in required:
        if key not in req:
            raise ConfigError(f"requirement {kind}: missing required key {key!r}")
    return check


def _check_single_reservation(result, req) -> tuple[bool, str]:
    src = req["src"]
    for as_id, router in result.routers():
        fwd_entries = [k for k in router.monitor.entries if k[0] == src and k[1] == wire.FORWARD]
        if len(fwd_entries) > 1:
            return False, f"AS {as_id} holds {len(fwd_entries)} entries for src {src}"
    return True, "one reservation per source at every monitor"


def _check_granted_within(result, req) -> tuple[bool, str]:
    """Per provider router: first valid request to first firm grant <= 2 intervals."""
    flow = result.flows[req["flow"]]
    bound = 2 * result.estimator_cfg.interval_ns
    if flow.granted_at is None:
        return False, f"flow {flow.name} never granted"
    worst = 0
    for hop in flow.plan.hops:
        router = result.nodes[hop.as_id].router
        if router is None:
            continue
        first = router.first_request_ts.get(flow.src)
        if first is None:
            return False, f"AS {hop.as_id} never saw a request from {flow.src}"
        firm = [ts for ts, src, tent in router.grant_request_ts
                if src == flow.src and not tent]
        if not firm:
            return False, f"AS {hop.as_id} never firmly granted src {flow.src}"
        took = min(firm) - first
        worst = max(worst, took)
        if took > bound:
            return False, f"AS {hop.as_id}: grant took {took} ns > bound {bound} ns"
    return True, f"granted at every hop within {worst} ns (bound {bound})"


def _check_forgeries(result, req) -> tuple[bool, str]:
    name = req["adversary"]
    adv = result.adversaries[name]
    limit = int(req.get("max_successes", 2))
    if adv.succeeded > limit:
        return False, f"spoofer landed {adv.succeeded} priority packets > {limit}"
    return True, f"{adv.succeeded} forged priority packets over {adv.sent} attempts"


def _check_delivery(result, req) -> tuple[bool, str]:
    flow = result.flows[req["flow"]]
    st = flow.stats
    if st.sent == 0:
        return False, f"flow {flow.name} sent nothing"
    if st.delivered < st.sent or st.delivered_priority < st.delivered:
        return False, (f"flow {flow.name}: sent={st.sent} delivered={st.delivered} "
                       f"priority={st.delivered_priority}")
    bound = result.delay_bound_ns(flow.name, float(req.get("delay_slack", 1.0)))
    if st.max_delay > bound:
        return False, f"max delay {st.max_delay} ns exceeds bound {bound} ns"
    return True, f"{st.delivered}/{st.sent} delivered priority, max delay {st.max_delay}"


def _check_policing(result, req) -> tuple[bool, str]:
    details = []
    if "overuser" in req:
        flow = result.flows[req["overuser"]]
        src = flow.src
        conform = overuse = 0
        for _, router in result.routers():
            if src not in router.monitor.counters:
                continue
            c = router.monitor.counters[src]
            conform += c.conform_bytes
            overuse += c.overuse_bytes
            break  # first policing AS decides the demotion share
        total = conform + overuse
        if total == 0:
            return False, "overuser was never policed"
        frac = overuse / total
        expected = float(req.get("expected_fraction", 0.5))
        tol = float(req.get("tolerance", 0.02))
        if abs(frac - expected) > tol:
            return False, f"demoted fraction {frac:.4f} not within {tol} of {expected}"
        details.append(f"demoted fraction {frac:.4f}")
    if "replayer" in req:
        adv = result.adversaries[req["replayer"]]
        if adv.injected == 0:
            return False, "replayer injected nothing"
        if adv.copies_delivered > 0 or adv.copies_dropped < adv.injected:
            return False, (f"replayed copies delivered={adv.copies_delivered} "
                           f"dropped={adv.copies_dropped}/{adv.injected}")
        details.append(f"all {adv.injected} replayed copies dropped")
    if "no_expired_conform" in req:
        window = result.router_cfg.bucket_window_ns
        for as_id, router in result.routers():
            for (src, _), entry in router.monitor.entries.items():
                if entry.bucket.ts > entry.ts_exp + window:
                    return False, f"AS {as_id} charged src {src} past expiry"
        details.append("no conform verdicts beyond expiry")
    return True, "; ".join(details) if details else "nothing to check"


# requirement kind -> (check, keys the check cannot do without)
_REQUIREMENTS = {
    "R1": (_check_single_reservation, ("src",)),
    "R2": (_check_granted_within, ("flow",)),
    "R3": (_check_forgeries, ("adversary",)),
    "R4": (_check_delivery, ("flow",)),
    "R5": (_check_policing, ()),
}


def observer_saw_plaintext_auth(result: Network, observer: str) -> bool:
    """True if any stored authenticator appears verbatim in observed bytes."""
    adv = result.adversaries[observer]
    blob = b"\x00".join(adv.captured)
    for flow in result.flows.values():
        if not isinstance(flow, ReservationFlow):
            continue
        for grant in flow.store.grants.values():
            if grant.auth and grant.auth in blob:
                return True
    return False
