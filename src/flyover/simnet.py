"""Deterministic discrete-event network of ASes and border routers.

Links are capacity-limited with strict priority queuing: the priority queue
is always served before best effort, and only the finite best-effort buffer
drops on overflow. Packets are discrete; service happens at departure
events. The event loop is single-threaded and fully determined by the
scenario seed, so two runs with the same configuration produce identical
event logs.

Scenario configurations are plain dicts (usually loaded from JSON): a
topology (ASes plus links with capacity and delay), reservation and
best-effort flows, adversaries, and the security requirements to evaluate
at the end of the run.
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
from .policing import DedupWindow
from .router import ForwardDecision, Router, RouterConfig, TrafficClass
from .units import parse_bandwidth, parse_duration


class ConfigError(ValueError):
    pass


def _required(spec: dict, key: str):
    """``spec[key]`` for a key a flow or adversary cannot do without."""
    if key not in spec:
        raise ConfigError(f"{spec['name']}: missing required key {key!r}")
    return spec[key]


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
    kind: str  # "setup" | "data" | "junk" | "resp"
    payload: bytes
    size: int
    plan: source.PathPlan | None
    route: tuple[int, ...]  # AS ids including the source AS
    pos: int  # index into route of the node currently holding the frame
    cls: TrafficClass
    origin: str  # flow or adversary name, for attribution
    claimed_src: int
    created: int
    backward: bool = False
    resp_entries: list = field(default_factory=list)
    resp_cls: TrafficClass = TrafficClass.BEST_EFFORT
    worst: TrafficClass = TrafficClass.PRIORITY
    is_replay_copy: bool = False
    is_control: bool = False  # renewal wrappers: not flow payload traffic


class Link:
    """Directed link with strict-priority service and a drop-tail BE buffer."""

    PRIO_GUARD = 100_000  # admission bounds priority load; this only guards bugs

    def __init__(self, net: "Network", a: int, b: int, capacity_bps: int, delay_ns: int,
                 be_buffer: int):
        self.net = net
        self.a, self.b = a, b
        self.capacity = capacity_bps
        self.delay = delay_ns
        self.be_buffer = be_buffer
        self.prio: deque[Frame] = deque()
        self.be: deque[Frame] = deque()
        self.busy = False
        self.be_dropped = 0
        self.delivered_bytes = 0
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
        nxt = None
        if self.prio:
            nxt = self.prio.popleft()
        elif self.be:
            nxt = self.be.popleft()
        if nxt is not None:
            self._start(nxt, self.net.loop.now)


# ---------------------------------------------------------------------------
# nodes


@dataclass
class Node:
    as_id: int
    router: Router | None  # None: AS does not speak the protocol
    skew_ns: int = 0
    if_to: dict[int, int] = field(default_factory=dict)  # neighbor AS -> interface
    capacities: list[int] = field(default_factory=list)

    def local_time(self, t: int) -> int:
        return t + self.skew_ns


# ---------------------------------------------------------------------------
# flows and adversaries


class FlowStats:
    def __init__(self):
        self.sent = 0
        self.sent_bytes = 0
        self.delivered = 0
        self.delivered_priority = 0
        self.delivered_demoted = 0
        self.dropped = 0
        self.delays: list[int] = []
        self.replies_received = 0

    @property
    def max_delay(self) -> int:
        return max(self.delays) if self.delays else 0


class ReservationFlow:
    """Honest source: handshake (with retries), then paced reservation traffic."""

    def __init__(self, net: "Network", spec: dict):
        self.net = net
        self.name = spec["name"]
        self.src = _required(spec, "src")
        route = tuple(_required(spec, "path"))
        self.route = route
        self.backward = bool(spec.get("backward", False))
        self.plan = net.plan_for(route, self.backward, name=self.name)
        self.packet_size = int(spec.get("packet_size", 1000))
        self.rate_cfg = spec.get("rate", "auto")
        self.len_b = int(spec.get("len_b", 120 if self.backward else 0))
        self.setup_at = parse_duration(spec.get("setup_at", 0))
        self.stop_at = parse_duration(spec["stop_at"]) if "stop_at" in spec else None
        self.renew = bool(spec.get("renew", False))
        self.ignore_expiry = bool(spec.get("ignore_expiry", False))
        self.overuse_factor = float(spec.get("overuse_factor", 1.0))
        self.store = source.GrantStore()
        self.keys = {h.as_id: crypto.derive_drkey(net.nodes[h.as_id].router.prepared_secret,
                                                  self.src)
                     for h in self.plan.hops if net.nodes[h.as_id].router}
        self.stats = FlowStats()
        self.first_request_at: int | None = None
        self.granted_at: int | None = None
        self.grant_expiry: int | None = None
        self.started = False
        self.gap = None
        self._emitted_ts: set[int] = set()

    def start(self) -> None:
        self.net.loop.schedule(self.setup_at, self._send_setup)
        eps = self.net.estimator_cfg.interval_ns
        # retry ladder: every eps/2, plus the guaranteed-success point at 2*eps
        for k in (1, 2, 3):
            self.net.loop.schedule(self.setup_at + k * eps // 2, self._retry)
        self.net.loop.schedule(self.setup_at + 2 * eps, self._retry)

    def _send_setup(self) -> None:
        t = self.net.loop.now
        if self.first_request_at is None:
            self.first_request_at = t
        node = self.net.nodes[self.src]
        req = source.build_setup_request(self.keys, self.plan, self.src,
                                         node.local_time(t))
        raw = wire.encode(req)
        frame = self.net.new_frame("setup", raw, len(raw), self.plan, self.route,
                                   TrafficClass.BEST_EFFORT, self.name, self.src)
        self.net.forward_from_source(frame)

    def _retry(self) -> None:
        if self.granted_at is None:
            self._send_setup()

    def _send_renewal(self) -> None:
        t = self.net.loop.now
        node = self.net.nodes[self.src]
        try:
            pkt = source.build_renewal(self.store, self.keys, self.plan, self.src,
                                       node.local_time(t))
        except source.MissingGrant:
            self._send_setup()  # expired: fall back to a best-effort request
            return
        raw = wire.encode(pkt)
        frame = self.net.new_frame("data", raw, len(raw), self.plan, self.route,
                                   TrafficClass.PRIORITY, self.name, self.src)
        frame.resp_cls = TrafficClass.PRIORITY
        frame.is_control = True
        self.net.forward_from_source(frame)

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
                self.net.loop.schedule(now + 1, self._emit)
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
        wire_size = self.packet_size + wire.DATA_FIXED_HEADER + \
            wire.FIELD_ENTRY_LEN * (len(self.plan.forward_hops) + len(self.plan.backward_hops))
        self.gap = max(1, int(wire_size * 8 * 10**9 / rate) + 1)

    def _emit(self) -> None:
        t = self.net.loop.now
        if self.stop_at is not None and t >= self.stop_at:
            return
        node = self.net.nodes[self.src]
        ts = node.local_time(t)
        while ts in self._emitted_ts:  # timestamps must be unique per packet
            ts += 1
        try:
            pkt = source.emit_packet(self.store, self.plan, self.src,
                                     bytes(self.packet_size), self.len_b, ts,
                                     allow_expired=self.ignore_expiry)
        except source.MissingGrant:
            self.net.log(f"emit_blocked flow={self.name} t={t}")
            return
        self._emitted_ts.add(ts)
        raw = wire.encode(pkt)
        frame = self.net.new_frame("data", raw, len(raw), self.plan, self.route,
                                   TrafficClass.PRIORITY, self.name, self.src)
        self.stats.sent += 1
        self.stats.sent_bytes += len(raw)
        self.net.forward_from_source(frame)
        self.net.loop.schedule(t + self.gap, self._emit)


class BestEffortFlow:
    def __init__(self, net: "Network", spec: dict):
        self.net = net
        self.name = spec["name"]
        self.src = _required(spec, "src")
        self.route = tuple(_required(spec, "path"))
        self.plan = net.plan_for(self.route, False, name=self.name)
        self.packet_size = int(spec.get("packet_size", 1000))
        rate = parse_bandwidth(_required(spec, "rate"))
        self.gap = max(1, (self.packet_size * 8 * 10**9) // rate)
        self.start_at = parse_duration(spec.get("start", 0))
        self.stop_at = parse_duration(spec["stop_at"]) if "stop_at" in spec else None
        self.stats = FlowStats()

    def start(self) -> None:
        self.net.loop.schedule(self.start_at, self._emit)

    def _emit(self) -> None:
        t = self.net.loop.now
        if self.stop_at is not None and t >= self.stop_at:
            return
        frame = self.net.new_frame("junk", b"", self.packet_size, self.plan, self.route,
                                   TrafficClass.BEST_EFFORT, self.name, self.src)
        self.stats.sent += 1
        self.stats.sent_bytes += self.packet_size
        self.net.forward_from_source(frame)
        self.net.loop.schedule(t + self.gap, self._emit)


class RequestFlood:
    """Adversary ASes hammering setup requests (authentic by default)."""

    def __init__(self, net: "Network", spec: dict):
        self.net = net
        self.name = spec["name"]
        self.src = _required(spec, "src")
        self.route = tuple(_required(spec, "path"))
        self.plan = net.plan_for(self.route, False, name=self.name)
        self.authentic = bool(spec.get("authentic", True))
        rate = float(spec.get("requests_per_s", 100.0))
        self.gap = max(1, int(10**9 / rate))
        self.count = 0
        self.max_requests = int(spec.get("max_requests", 10**9))
        self.keys = {}
        for h in self.plan.hops:
            node = net.nodes[h.as_id]
            if node.router:
                self.keys[h.as_id] = (crypto.derive_drkey(node.router.prepared_secret, self.src)
                                      if self.authentic else bytes(16))

    def start(self) -> None:
        self.net.loop.schedule(0, self._emit)

    def _emit(self) -> None:
        t = self.net.loop.now
        if self.count >= self.max_requests:
            return
        self.count += 1
        node = self.net.nodes[self.src]
        req = source.build_setup_request(self.keys, self.plan, self.src,
                                         node.local_time(t))
        raw = wire.encode(req)
        frame = self.net.new_frame("setup", raw, len(raw), self.plan, self.route,
                                   TrafficClass.BEST_EFFORT, self.name, self.src)
        self.net.forward_from_source(frame)
        self.net.loop.schedule(t + self.gap, self._emit)


class Spoofer:
    """Forges the victim's AS id with random validation fields."""

    def __init__(self, net: "Network", spec: dict):
        self.net = net
        self.name = spec["name"]
        self.src = _required(spec, "src")
        self.victim = _required(spec, "victim")
        self.route = tuple(_required(spec, "path"))
        self.plan = net.plan_for(self.route, False, name=self.name)
        self.count = int(spec.get("count", 1000))
        self.packet_size = int(spec.get("packet_size", 100))
        self.gap = parse_duration(spec.get("gap", 100))
        self.sent = 0
        self.succeeded = 0  # frames some router classified as priority

    def start(self) -> None:
        self.net.loop.schedule(0, self._emit)

    def _emit(self) -> None:
        t = self.net.loop.now
        if self.sent >= self.count:
            return
        self.sent += 1
        rng = self.net.rng
        ts = self.net.nodes[self.src].local_time(t)
        rvfs = tuple((i, rng.randbytes(3)) for i in range(len(self.plan.hops)))
        pkt = wire.DataPacket(self.victim, False, ts, 0, rvfs, (), bytes(self.packet_size))
        raw = wire.encode(pkt)
        frame = self.net.new_frame("data", raw, len(raw), self.plan, self.route,
                                   TrafficClass.PRIORITY, self.name, self.victim)
        self.net.forward_from_source(frame)
        self.net.loop.schedule(t + self.gap, self._emit)


class Replayer:
    """On-link adversary duplicating every data frame it observes."""

    def __init__(self, net: "Network", spec: dict):
        self.net = net
        self.name = spec["name"]
        self.link = tuple(_required(spec, "link"))
        self.copies = int(spec.get("copies", 1))
        self.delay = parse_duration(spec.get("delay", 1000))
        self.injected = 0
        self.copies_dropped = 0
        self.copies_delivered = 0

    def on_frame(self, link: Link, frame: Frame) -> None:
        if frame.kind != "data" or frame.is_replay_copy:
            return
        for _ in range(self.copies):
            self.injected += 1
            copy = self.net.new_frame(frame.kind, frame.payload, frame.size, frame.plan,
                                      frame.route, frame.cls, self.name, frame.claimed_src)
            copy.pos = frame.pos + 1  # injected at the link's receiving end
            copy.backward = frame.backward
            copy.is_replay_copy = True
            copy.is_control = frame.is_control
            self.net.loop.schedule(self.net.loop.now + self.delay,
                                   self.net.process_at_node, copy)


class LinkObserver:
    """Passive wiretap recording every byte crossing a link."""

    def __init__(self, net: "Network", spec: dict):
        self.net = net
        self.name = spec["name"]
        self.link = tuple(_required(spec, "link"))
        self.captured: list[bytes] = []

    def on_frame(self, link: Link, frame: Frame) -> None:
        self.captured.append(frame.payload)
        for entry in frame.resp_entries:
            self.captured.append(wire.encode(wire.SetupResponse(0, 0, (entry,))))


_ADVERSARIES = {
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
        for spec in list(cfg.get("flows", ())) + list(cfg.get("adversaries", ())):
            if "name" not in spec:
                raise ConfigError(f"flow or adversary without a name: {spec}")
            if spec.get("rate", "auto") != "auto" and parse_bandwidth(spec["rate"]) <= 0:
                raise ConfigError(f"{spec['name']}: rate must be positive, got {spec['rate']!r}")
        self.log_verdicts = bool(cfg.get("log_verdicts", True))
        self.lines: list[str] = []
        self._uid = 0

        est = cfg.get("estimator", {})
        self.estimator_cfg = EstimatorConfig(
            interval_ns=parse_duration(est.get("interval", "10s")),
            min_requesters=int(est.get("min_requesters", 1)),
            reserved_fraction=Fraction(str(est.get("reserved_fraction", "0.8"))),
            tentative_slots=int(est.get("tentative_slots", 8)),
            filter_bits=int(est.get("filter_bits", 95_851)),
            hash_count=int(est.get("hash_count", 7)),
            exact=bool(est.get("exact", True)),
        )
        self.router_cfg = RouterConfig(
            delta_ns=parse_duration(cfg.get("delta", "500ms")),
            lifetime_ns=parse_duration(cfg.get("lifetime", "1s")),
            bucket_window_ns=parse_duration(cfg.get("bucket_window", "50ms")),
            self_renew=bool(cfg.get("self_renew", False)),
            estimator=self.estimator_cfg,
        )

        self.nodes: dict[int, Node] = {}
        self.links: dict[tuple[int, int], Link] = {}
        self._build_topology(cfg.get("topology"))
        if bool(cfg.get("warm_start", False)):
            self._warm_start_sources(cfg)

        self.flows: dict[str, ReservationFlow | BestEffortFlow] = {}
        self.adversaries: dict[str, object] = {}
        for spec in cfg.get("flows", ()):
            kind = spec.get("type", "reservation")
            if kind == "reservation":
                flow = ReservationFlow(self, spec)
            elif kind == "best_effort":
                flow = BestEffortFlow(self, spec)
            else:
                raise ConfigError(f"unknown flow type {kind!r}")
            self.flows[flow.name] = flow
        for spec in cfg.get("adversaries", ()):
            kind = _required(spec, "kind")
            if kind == "best_effort_flood":
                spec = dict(spec, type="best_effort")
                flow = BestEffortFlow(self, spec)
                self.flows[flow.name] = flow
                continue
            if kind == "overuser":
                spec = dict(spec, type="reservation",
                            overuse_factor=spec.get("factor", 2.0))
                flow = ReservationFlow(self, spec)
                self.flows[flow.name] = flow
                continue
            cls = _ADVERSARIES.get(kind)
            if cls is None:
                raise ConfigError(f"unknown adversary kind {kind!r}")
            adv = cls(self, spec)
            self.adversaries[adv.name] = adv
            if hasattr(adv, "link"):
                if adv.link not in self.links:
                    raise ConfigError(f"{adv.name}: no link {adv.link}")
                self.links[adv.link].observers.append(adv)
        for req in cfg.get("requirements", ()):
            self._check_requirement(req)

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
            neighbors[a].append((b, cap))
            neighbors[b].append((a, cap))
            self.links[(a, b)] = Link(self, a, b, cap, delay, be_buffer)
            self.links[(b, a)] = Link(self, b, a, cap, delay, be_buffer)
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
            self.nodes[as_id] = Node(as_id, router, skews.get(as_id, 0), if_to, caps)
        crypto.ops.reset()  # secrets derivation above must not skew MAC counts

    def _warm_start_sources(self, cfg) -> None:
        """Pre-register flow sources as grantable, as if they had requested
        two intervals ago. The requester count is raised to the number of
        warm sources per estimator so the grant arithmetic stays consistent
        with a real request history (no over-allocation)."""
        warm: dict[int, set[int]] = {}
        for spec in list(cfg.get("flows", ())) + list(cfg.get("adversaries", ())):
            src = spec.get("src")
            path = spec.get("path")
            if src is None or path is None:
                continue
            if spec.get("type") == "best_effort" or spec.get("kind") in (
                    "best_effort_flood", "spoofer", "replayer", "link_observer"):
                continue
            plan = self.plan_for(tuple(path), True)
            for hop in plan.hops:
                node = self.nodes[hop.as_id]
                if node.router is None:
                    continue
                for pair in ((hop.ingress, hop.egress), (hop.egress, hop.ingress)):
                    est = node.router.policy.estimator_for(*pair)
                    est.granted.add(src)
                    est.previous.add(src)
                    est.current.add(src)
                    warm.setdefault(id(est), set()).add(src)
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

    def new_frame(self, kind, payload, size, plan, route, cls, origin, claimed_src) -> Frame:
        self._uid += 1
        return Frame(self._uid, kind, payload, size, plan, route, 0, cls,
                     origin, claimed_src, self.loop.now)

    def log(self, line: str) -> None:
        self.lines.append(f"{self.loop.now} {line}")

    def _frame_dropped(self, frame: Frame, why: str) -> None:
        flow = self.flows.get(frame.origin)
        if flow is not None:
            flow.stats.dropped += 1
        if self.log_verdicts:
            self.log(f"drop pkt={frame.uid} origin={frame.origin} why={why}")

    def forward_from_source(self, frame: Frame) -> None:
        """Source AS hands the frame to its first link; no self-validation."""
        link = self.links.get((frame.route[0], frame.route[1]))
        if link is None:
            raise ConfigError(f"no link {frame.route[0]} -> {frame.route[1]}")
        link.send(frame, self.loop.now)

    def send_reply_frame(self, fwd_frame: Frame, reply: wire.DataPacket) -> None:
        raw = wire.encode(reply)
        frame = self.new_frame("data", raw, len(raw), fwd_frame.plan,
                               tuple(reversed(fwd_frame.route)),
                               TrafficClass.PRIORITY, fwd_frame.origin, reply.src)
        frame.backward = True
        self.process_at_node(frame)  # destination router validates its own egress

    def arrive(self, link: Link, frame: Frame) -> None:
        link.delivered_bytes += frame.size
        for obs in link.observers:
            obs.on_frame(link, frame)
        frame.pos += 1
        self.process_at_node(frame)

    # node processing -------------------------------------------------------

    def _hop_context(self, frame: Frame) -> tuple[int, source.PathHop] | None:
        """(hop_index, hop) for the node at frame.pos, or None off the plan."""
        if frame.plan is None:
            return None
        if frame.backward:
            # reversed route: position 0 is the destination, the last hop
            hop_index = len(frame.plan.hops) - 1 - frame.pos
        else:
            hop_index = frame.pos - 1
        if not 0 <= hop_index < len(frame.plan.hops):
            return None
        return hop_index, frame.plan.hops[hop_index]

    def process_at_node(self, frame: Frame) -> None:
        as_id = frame.route[frame.pos]
        node = self.nodes[as_id]
        at_end = frame.pos == len(frame.route) - 1
        ctx = self._hop_context(frame)

        msg = None
        if node.router is None or ctx is None or frame.kind == "junk":
            decision = ForwardDecision(TrafficClass.BEST_EFFORT, 0, "not_processed")
        else:
            msg = self._decode(frame.payload)
            decision = self._router_process(node, frame, msg, *ctx)

        if decision.traffic_class is TrafficClass.DROP:
            adv = self.adversaries.get(frame.origin)
            if isinstance(adv, Replayer):
                adv.copies_dropped += 1
            self._frame_dropped(frame, decision.verdict)
            return
        if decision.traffic_class is TrafficClass.BEST_EFFORT and frame.kind == "data":
            frame.worst = TrafficClass.BEST_EFFORT
        frame.cls = decision.traffic_class if frame.kind != "setup" else TrafficClass.BEST_EFFORT

        if frame.kind == "setup" and isinstance(msg, wire.SetupRequest) \
                and ctx[0] == msg.last_hop:
            self._turn_around(frame, msg.src, msg.ts_req)
            return
        if at_end:
            self._deliver(frame)
            return
        nxt = frame.route[frame.pos + 1]
        link = self.links.get((as_id, nxt))
        if link is None:
            self._frame_dropped(frame, "no_link")
            return
        link.send(frame, self.loop.now)

    def _decode(self, payload: bytes):
        try:
            return wire.decode(payload)
        except wire.DecodeError:
            return None

    def _router_process(self, node: Node, frame: Frame, msg, hop_index: int,
                        hop: source.PathHop) -> ForwardDecision:
        """Run the router on ``msg``, the frame's payload decoded (None if it
        does not decode)."""
        router = node.router
        now = node.local_time(self.loop.now)
        if msg is None:
            return ForwardDecision(TrafficClass.BEST_EFFORT, hop.egress, "undecodable")
        if isinstance(msg, wire.SetupRequest):
            decision, entries = router.handle_setup(msg, hop_index, hop.ingress,
                                                    hop.egress, now)
            frame.resp_entries.extend(entries)
            frame.size += wire.RESP_ENTRY_LEN * len(entries)
            if self.log_verdicts:
                self.log(f"as={node.as_id} pkt={frame.uid} kind=setup "
                         f"verdict={decision.verdict} class={decision.traffic_class.value}")
            return decision
        if isinstance(msg, wire.DataPacket):
            decision = router.handle_data(msg, hop_index, hop.ingress, hop.egress,
                                          now, wire_len=frame.size)
            adv = self.adversaries.get(frame.origin)
            if isinstance(adv, Spoofer) and decision.priority:
                adv.succeeded += 1
            if self.log_verdicts:
                self.log(f"as={node.as_id} pkt={frame.uid} kind=data "
                         f"verdict={decision.verdict} class={decision.traffic_class.value}")
            if decision.traffic_class is not TrafficClass.DROP and not frame.backward:
                self._maybe_embedded_setup(node, frame, msg, hop_index, hop, now)
            return decision
        return ForwardDecision(TrafficClass.BEST_EFFORT, hop.egress, "unexpected_msg")

    def _maybe_embedded_setup(self, node: Node, frame: Frame, pkt: wire.DataPacket,
                              hop_index: int, hop: source.PathHop, now: int) -> None:
        """Renewal requests ride inside validated reservation packets."""
        if not pkt.payload or pkt.payload[0] not in (wire.MSG_SETUP_REQ,
                                                     wire.MSG_SETUP_REQ_DEMAND):
            return
        inner = self._decode(pkt.payload)
        if not isinstance(inner, wire.SetupRequest):
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
        resp = wire.SetupResponse(src, ts_req, entries)
        raw = wire.encode(resp)
        back_route = tuple(reversed(frame.route[: frame.pos + 1]))
        resp_frame = self.new_frame("resp", raw, len(raw), None, back_route,
                                    frame.resp_cls, frame.origin, src)
        if len(back_route) == 1:
            self._deliver(resp_frame)
            return
        link = self.links.get((back_route[0], back_route[1]))
        if link is not None:
            link.send(resp_frame, self.loop.now)

    def _deliver(self, frame: Frame) -> None:
        flow = self.flows.get(frame.origin)
        if frame.kind == "resp":
            msg = self._decode(frame.payload)
            if flow is not None and isinstance(msg, wire.SetupResponse):
                flow.on_response(msg)
            return
        adv = self.adversaries.get(frame.origin)
        if isinstance(adv, Replayer):
            adv.copies_delivered += 1
        if flow is None or frame.kind not in ("data", "junk") or frame.is_control:
            return
        st = flow.stats
        if frame.backward:
            st.replies_received += 1
            return
        st.delivered += 1
        delay = self.loop.now - frame.created
        st.delays.append(delay)
        if frame.kind == "data":
            if frame.worst is TrafficClass.PRIORITY:
                st.delivered_priority += 1
            else:
                st.delivered_demoted += 1
        if self.log_verdicts:
            self.log(f"deliver pkt={frame.uid} flow={frame.origin} delay={delay} "
                     f"class={frame.worst.value}")
        if getattr(flow, "backward", False) and frame.kind == "data":
            self._auto_reply(flow, frame)

    def _auto_reply(self, flow: ReservationFlow, frame: Frame) -> None:
        pkt = self._decode(frame.payload)
        if not isinstance(pkt, wire.DataPacket) or not pkt.bvfs:
            return
        budget = source.max_reply_payload(pkt)
        if budget < 0:
            return
        reply = source.build_reply(pkt, bytes(min(budget, 64)))
        self.send_reply_frame(frame, reply)

    # run ---------------------------------------------------------------------

    def run(self) -> "ScenarioResult":
        for flow in self.flows.values():
            flow.start()
        for adv in self.adversaries.values():
            if hasattr(adv, "start"):
                adv.start()
        self.loop.run_until(self.duration)
        return ScenarioResult(self)


# ---------------------------------------------------------------------------
# results and requirement checks


class ScenarioResult:
    def __init__(self, net: Network):
        self.net = net
        self.log_lines = list(net.lines)
        self.flows = net.flows
        self.adversaries = net.adversaries

    def flow_summary_rows(self) -> list[tuple]:
        rows = []
        for name in sorted(self.flows):
            st = self.flows[name].stats
            rows.append((name, st.sent, st.delivered, st.delivered_priority,
                         st.delivered_demoted, st.dropped, st.max_delay))
        return rows

    def monitor_rows(self) -> list[tuple]:
        rows = []
        for as_id in sorted(self.net.nodes):
            router = self.net.nodes[as_id].router
            if router is None:
                continue
            for row in router.monitor.report_rows():
                rows.append((as_id, *row))
        return rows

    def delay_bound_ns(self, flow_name: str, slack: float = 1.0) -> int:
        """Propagation + own transmission + one max-size serialization per hop."""
        flow = self.flows[flow_name]
        size = flow.packet_size + 64
        total = 0
        for k in range(len(flow.route) - 1):
            link = self.net.links[(flow.route[k], flow.route[k + 1])]
            total += link.delay + link.tx_time(size) + link.tx_time(1600)
        return int(total * slack)


def load_scenario(path: str) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad scenario file {path}: {exc}") from exc


def run_scenario(cfg: dict, seed: int | None = None) -> ScenarioResult:
    cfg = dict(cfg)
    if seed is not None:
        cfg["seed"] = seed
    return Network(cfg).run()


def assert_requirement(result: ScenarioResult, req: dict) -> tuple[bool, str]:
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
    for as_id in sorted(result.net.nodes):
        router = result.net.nodes[as_id].router
        if router is None:
            continue
        fwd_entries = [k for k in router.monitor.entries if k[0] == src and k[1] == wire.FORWARD]
        if len(fwd_entries) > 1:
            return False, f"AS {as_id} holds {len(fwd_entries)} entries for src {src}"
    return True, "one reservation per source at every monitor"


def _check_granted_within(result, req) -> tuple[bool, str]:
    """Per provider router: first valid request to first firm grant <= 2 intervals."""
    flow = result.flows[req["flow"]]
    bound = 2 * result.net.estimator_cfg.interval_ns
    if flow.granted_at is None:
        return False, f"flow {flow.name} never granted"
    worst = 0
    for hop in flow.plan.hops:
        router = result.net.nodes[hop.as_id].router
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
        for as_id in sorted(result.net.nodes):
            router = result.net.nodes[as_id].router
            if router is None or src not in router.monitor.counters:
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
        ok, msg = _check_no_expired_conform(result)
        if not ok:
            return False, msg
        details.append(msg)
    return True, "; ".join(details) if details else "nothing to check"


# requirement kind -> (check, keys the check cannot do without)
_REQUIREMENTS = {
    "R1": (_check_single_reservation, ("src",)),
    "R2": (_check_granted_within, ("flow",)),
    "R3": (_check_forgeries, ("adversary",)),
    "R4": (_check_delivery, ("flow",)),
    "R5": (_check_policing, ()),
}


def _check_no_expired_conform(result) -> tuple[bool, str]:
    for as_id in sorted(result.net.nodes):
        router = result.net.nodes[as_id].router
        if router is None:
            continue
        for (src, direction), entry in router.monitor.entries.items():
            if entry.bucket.ts > entry.ts_exp + result.net.router_cfg.bucket_window_ns:
                return False, f"AS {as_id} charged src {src} past expiry"
    return True, "no conform verdicts beyond expiry"


def observer_saw_plaintext_auth(result: ScenarioResult, observer: str) -> bool:
    """True if any stored authenticator appears verbatim in observed bytes."""
    adv = result.adversaries[observer]
    blob = b"\x00".join(adv.captured)
    for flow in result.flows.values():
        store = getattr(flow, "store", None)
        if store is None:
            continue
        for grant in store.grants.values():
            if grant.auth and grant.auth in blob:
                return True
    return False
