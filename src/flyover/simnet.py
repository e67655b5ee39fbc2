"""Deterministic discrete-event network of ASes and border routers.

Links are capacity-limited with strict priority queuing: the priority queue
is always served before best effort, and only the finite best-effort buffer
drops on overflow. Packets are discrete; service happens at departure
events. The event loop is single-threaded and fully determined by the
scenario seed, so two runs with the same configuration produce identical
event logs.

A frame is the message its sender built and that message's size on the
wire, its ``total_len``; no frame is encoded to be sized. Routers read the
message; a link observer encodes what it captures, the bytes an on-path
adversary sees. The one parse is a router reading the setup request a
renewal carries as its payload. A bare request and a renewal's take one
path through admission, and the response to either returns best effort,
as no router can validate a bare response.

Scenario configurations are plain dicts (usually loaded from JSON): a
topology (ASes plus links with capacity and delay), reservation and
best-effort flows, adversaries, and the security requirements to evaluate
on the network that ``Network.run()`` returns once the run is over. The
scenario schema section is the one definition of that format.
"""

from __future__ import annotations

import difflib
import heapq
import json
import random
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from . import crypto, source, topo, wire
from .admission import AllocationMatrix, EstimatorConfig, RequesterEstimator
from .router import Decision, Router, RouterConfig, TrafficClass
from .units import parse_bandwidth, parse_duration


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
    size: int
    plan: source.PathPlan | None
    route: tuple[int, ...]  # AS ids including the source AS
    pos: int  # index into route of the node currently holding the frame
    cls: TrafficClass
    origin: str  # flow or adversary name, for attribution
    created: int
    resp_entries: list = field(default_factory=list)
    worst: TrafficClass = TrafficClass.PRIORITY
    is_replay_copy: bool = False


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
        self.max_delay = 0
        self.replies_received = 0


def _counted(msg) -> bool:
    """Whether a flow's ``sent``, ``delivered`` and ``dropped`` count a frame of
    ``msg``: data packets and filler, not setup messages, renewals or replies."""
    return msg is None or (isinstance(msg, wire.DataPacket) and not msg.d_flag
                           and not wire.is_renewal(msg))


class _Sender:
    """A flow or adversary that injects frames at its source AS.

    The first ``_emit`` runs at ``start`` (ns, >= 0). ``_emit(t)``
    sends at most one frame and returns whether to send again, ``gap`` ns
    later; sending ends at ``stop`` if one is given. The path must start at
    ``src``, visit no AS twice and take only links of the topology, and a
    sender that stamps timestamps (``STAMPS``) needs its AS's clock at or
    past 0 from ``start``; a sender checks both before it plans.
    """

    STAMPS = True

    def __init__(self, net: "Network", spec: dict, backward: bool = False, start: int = 0,
                 stop: int | None = None):
        self.net = net
        self.name = spec["name"]
        self.src = spec["src"]
        self.route = route = spec["path"]
        _refuse(f"{self.name}: path {list(route)}",
                (route[0] != self.src, "does not start at src"),
                (len(set(route)) < len(route), "visits an AS twice"),
                (not all(ln in net.links for ln in zip(route, route[1:])),
                 "takes a link not in links"))
        self.node = net.nodes[self.src]
        _refuse(self.name, (self.STAMPS and self.node.local_time(start) < 0,
                            f"AS {self.src}'s clock is below 0 at the start"))
        self.backward = backward
        self.plan = net.plan_for(self.route, backward, name=self.name)
        self._first_link = net.links[self.route[0], self.route[1]]
        self.start_at = start
        self.stop_at = stop

    def _drkeys(self) -> dict[int, bytes]:
        """The source's DRKey at each router on the path."""
        nodes = self.net.nodes
        return {as_id: crypto.derive_drkey(nodes[as_id].router.prepared_secret, self.src)
                for _, (as_id, *_) in self.plan.forward_keys}

    def _data_len(self, fields: int, payload: int) -> int:
        """The size of this sender's data packets, which must fit in 16 bits."""
        size = wire.data_packet_len(fields, payload)
        _refuse(self.name, (size > wire.MAX_LEN, f"packet_size {payload} makes {size}-byte "
                                                 f"data packets, over {wire.MAX_LEN}"))
        return size

    def _send(self, msg, cls: TrafficClass, size: int | None = None) -> None:
        """Hand a new frame to the source AS's first link; no self-validation."""
        frame = self.net.new_frame(msg, self.plan, self.route, cls, self.name, size)
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
    """Source of a reservation: handshake (with retries), then paced
    reservation traffic at ``factor`` times its rate, which only the
    overuser kind sets."""

    def __init__(self, net: "Network", spec: dict):
        super().__init__(net, spec, spec["backward"], spec["setup_at"], spec["stop_at"])
        self.factor = spec.get("factor", 1)  # send rate / granted rate
        self.packet_size = spec["packet_size"]
        self.wire_size = self._data_len(
            len(self.plan.forward_hops) + len(self.plan.backward_hops), self.packet_size)
        self.rate = spec["rate"]  # bps; None sends at the rate the grants compose to
        self.len_b = spec["len_b"]
        self.renew = spec["renew"]
        self.ignore_expiry = spec["ignore_expiry"]
        self.store = source.GrantStore()
        self.keys = self._drkeys()
        self.stats = FlowStats()
        self.granted_at: int | None = None
        self.grant_expiry: int | None = None
        self.started = False
        self.ladder: int | None = None  # start of the newest retry ladder

    def start(self) -> None:
        self._request(self.start_at)

    def _request(self, t: int) -> None:
        """Request at ``t``, then climb the retry ladder until a usable grant
        starts the sending: every eps/2, plus the guaranteed-success point
        at 2*eps. A new ladder supersedes the rungs of an older one."""
        self.ladder = t
        self.net.loop.schedule(t, self._send_setup)
        eps = self.net.estimator_cfg.interval_ns
        for k in (1, 2, 3):
            self.net.loop.schedule(t + k * eps // 2, self._retry, t)
        self.net.loop.schedule(t + 2 * eps, self._retry, t)

    def _send_setup(self) -> None:
        req = source.build_setup_request(self.keys, self.plan, self.src,
                                         self.node.local_time(self.net.loop.now))
        self._send(req, TrafficClass.BEST_EFFORT)

    def _retry(self, ladder: int) -> None:
        if not self.started and ladder == self.ladder:
            self._send_setup()

    def _send_renewal(self) -> None:
        try:
            pkt = source.build_renewal(self.store, self.keys, self.plan, self.src,
                                       self.node.local_time(self.net.loop.now))
        except source.MissingGrant:
            self._send_setup()  # expired: fall back to a best-effort request
            return
        self._send(pkt, TrafficClass.PRIORITY)

    def on_response(self, resp: wire.SetupResponse) -> None:
        accepted = source.ingest_response(self.store, self.keys, resp, self.plan)
        if not accepted:
            return
        needed = [fkey for _, fkey in self.plan.forward_keys]
        now = self.net.loop.now
        if needed and all(self.store.get(k, now) is not None for k in needed):
            exp = min(self.store.get(k, now).ts_exp for k in needed)
            extends = self.grant_expiry is None or exp > self.grant_expiry
            self.grant_expiry = exp
            if self.granted_at is None:
                # granting happened at the routers when they stamped the
                # expiry, one validity period before it
                self.granted_at = exp - self.net.estimator_cfg.interval_ns
                self.net.log(f"granted flow={self.name} t={self.granted_at}")
            self._configure_rate()  # a renewal may change the composed rate
            if not self.started:
                self.started = True
                self.net.loop.schedule(now + 1, self._tick)
            if self.renew and extends:  # a same-expiry response renews nothing
                eps = self.net.estimator_cfg.interval_ns
                renew_at = max(now + 1, exp - eps // 5)
                self.net.loop.schedule(renew_at, self._send_renewal)

    def _configure_rate(self) -> None:
        if self.rate is None:
            comp = source.compose(self.store, [self.plan], source.CONCURRENT,
                                  self.net.loop.now)
            rate = comp.path_rates[self.name]
            if rate <= 0:
                raise ConfigError(f"flow {self.name}: no usable composed rate")
        else:
            rate = Fraction(self.rate)
        rate = rate * self.factor
        self.gap = max(1, int(self.wire_size * 8 * 10**9 / rate) + 1)

    def _emit(self, t: int) -> bool:
        try:
            pkt = source.emit_packet(self.store, self.plan, self.src,
                                     bytes(self.packet_size), self.len_b,
                                     self.node.local_time(t),
                                     allow_expired=self.ignore_expiry)
        except source.MissingGrant:
            self.net.log(f"emit_blocked flow={self.name} t={t}")
            if self.renew:  # the grant lapsed: request again, resume on a usable grant
                self.started = False
                self._request(t)
            return False
        self.stats.sent += 1
        self._send(pkt, TrafficClass.PRIORITY)
        return True


class BestEffortFlow(_Sender):
    """Unreserved frames at a constant rate; routers never validate them."""

    STAMPS = False

    def __init__(self, net: "Network", spec: dict):
        super().__init__(net, spec, start=spec["start"], stop=spec["stop_at"])
        self.packet_size = spec["packet_size"]
        self.gap = max(1, (self.packet_size * 8 * 10**9) // spec["rate"])
        self.stats = FlowStats()

    def _emit(self, t: int) -> bool:
        self.stats.sent += 1
        self._send(None, TrafficClass.BEST_EFFORT, size=self.packet_size)
        return True


class RequestFlood(_Sender):
    """Adversary ASes hammering authentic setup requests."""

    def __init__(self, net: "Network", spec: dict):
        super().__init__(net, spec)
        self.gap = max(1, int(10**9 / spec["requests_per_s"]))
        self.count = 0
        self.keys = self._drkeys()

    def _emit(self, t: int) -> bool:
        self.count += 1
        req = source.build_setup_request(self.keys, self.plan, self.src,
                                         self.node.local_time(t))
        self._send(req, TrafficClass.BEST_EFFORT)
        return True


class Spoofer(_Sender):
    """Forges the victim's AS id with random validation fields."""

    def __init__(self, net: "Network", spec: dict):
        super().__init__(net, spec)
        self.victim = spec["victim"]
        self.count = spec["count"]
        self.packet_size = spec["packet_size"]
        self._data_len(len(self.plan.hops), self.packet_size)  # it forges every hop's field
        self.gap = spec["gap"]
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
        self.link = spec["link"]
        self.copies = spec["copies"]
        self.delay = spec["delay"]
        self.injected = 0
        self.copies_dropped = 0
        self.copies_delivered = 0

    def on_frame(self, link: Link, frame: Frame) -> None:
        if not isinstance(frame.msg, wire.DataPacket) or frame.is_replay_copy:
            return
        net = self.net
        for _ in range(self.copies):
            self.injected += 1
            # the message it saw, injected at the link's receiving end
            copy = Frame(net.next_uid(), frame.msg, frame.size, frame.plan, frame.route,
                         frame.pos + 1, frame.cls, self.name, net.loop.now, is_replay_copy=True)
            net.loop.schedule(net.loop.now + self.delay, net.process_at_node, copy)


class LinkObserver:
    """Passive wiretap recording every byte crossing a link, encoded at capture."""

    def __init__(self, net: "Network", spec: dict):
        self.name = spec["name"]
        self.link = spec["link"]
        self.captured: list[bytes] = []

    def on_frame(self, link: Link, frame: Frame) -> None:
        self.captured.append(b"" if frame.msg is None else wire.encode(frame.msg))
        for entry in frame.resp_entries:
            self.captured.append(wire.encode(wire.SetupResponse(0, 0, (entry,))))


# ---------------------------------------------------------------------------
# requirement checks


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
    for _, (as_id, *_) in flow.plan.forward_keys:
        router = result.nodes[as_id].router
        first = router.first_request_ts.get(flow.src)
        if first is None:
            return False, f"AS {as_id} never saw a request from {flow.src}"
        firm = [ts for ts, src, tent in router.grant_request_ts
                if src == flow.src and not tent]
        if not firm:
            return False, f"AS {as_id} never firmly granted src {flow.src}"
        took = min(firm) - first
        worst = max(worst, took)
        if took > bound:
            return False, f"AS {as_id}: grant took {took} ns > bound {bound} ns"
    return True, f"granted at every hop within {worst} ns (bound {bound})"


def _check_forgeries(result, req) -> tuple[bool, str]:
    name = req["adversary"]
    adv = result.adversaries[name]
    limit = req["max_successes"]
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
    bound = result.delay_bound_ns(flow.name)
    if st.max_delay > bound:
        return False, f"max delay {st.max_delay} ns exceeds bound {bound} ns"
    return True, f"{st.delivered}/{st.sent} delivered priority, max delay {st.max_delay}"


def _check_policing(result, req) -> tuple[bool, str]:
    details = []
    if req["overuser"] is not None:
        flow = result.flows[req["overuser"]]
        src = flow.src
        conform = overuse = 0
        for _, (as_id, *_) in flow.plan.forward_keys:
            counters = result.nodes[as_id].router.monitor.counters
            if src not in counters:
                continue
            c = counters[src]
            conform += c.conform_bytes
            overuse += c.overuse_bytes
            break  # the first policing AS on the path decides the demotion share
        total = conform + overuse
        if total == 0:
            return False, "overuser was never policed"
        frac = overuse / total
        expected, tol = req["expected_fraction"], req["tolerance"]
        if abs(frac - expected) > tol:
            return False, f"demoted fraction {frac:.4f} not within {tol} of {expected}"
        details.append(f"demoted fraction {frac:.4f}")
    if req["replayer"] is not None:
        adv = result.adversaries[req["replayer"]]
        if adv.injected == 0:
            return False, "replayer injected nothing"
        if adv.copies_delivered > 0 or adv.copies_dropped < adv.injected:
            return False, (f"replayed copies delivered={adv.copies_delivered} "
                           f"dropped={adv.copies_dropped}/{adv.injected}")
        details.append(f"all {adv.injected} replayed copies dropped")
    if req["no_expired_conform"]:
        window = result.router_cfg.bucket_window_ns
        for as_id, router in result.routers():
            for (src, _), entry in router.monitor.entries.items():
                if entry.bucket.ts > entry.ts_exp + window:
                    return False, f"AS {as_id} charged src {src} past expiry"
        details.append("no conform verdicts beyond expiry")
    return True, "; ".join(details) if details else "nothing to check"


# ---------------------------------------------------------------------------
# scenario schema: one table per section maps each key the section allows to
# (parser, range, default). A parser in _JSON takes only values of that type
# (float also integers); others raise TypeError or ValueError. A range names
# a test in _RANGES. A default is parsed like a given value: ``...`` marks a
# required key, None an optional one, and a function computes the default from
# the keys before it. Network parses the scenario first and reads only parsed
# values; each reference to another part of the scenario (an AS, a link, a
# sender's name) is checked where the network builds what it names.


class ConfigError(ValueError):
    pass


_JSON = (int, float, bool, str, list, dict)
_RANGES = {">= 0": lambda v: v >= 0, "> 0": lambda v: v > 0,
           "[0, 1]": lambda v: 0 <= v <= 1, "(0, 1]": lambda v: 0 < v <= 1,
           "[0, 65535]": lambda v: 0 <= v <= wire.MAX_LEN, "[0, 2^64)": lambda v: 0 <= v < 2**64,
           "16 bytes": lambda v: len(v) == 16}


def _parse(raw, table: dict, where: str) -> dict:
    """``raw`` with every key of ``table`` parsed and ranged, or defaulted."""
    if type(raw) is not dict:
        raise ConfigError(f"{where}: expected an object, got {raw!r}")
    for key in raw:
        if key not in table:
            near = difflib.get_close_matches(str(key), table, n=1, cutoff=0)
            raise ConfigError(f"{where}: unknown key {key!r}; the closest known key is "
                              f"{near[0]!r}")
    out = {}
    for key, (parse, rng, default) in table.items():
        if key in raw:
            value = raw[key]
        elif default is ...:
            raise ConfigError(f"{where}: missing required key {key!r}")
        elif default is None:
            out[key] = None
            continue
        else:
            value = default(out) if callable(default) else default
        try:
            out[key] = _json(value, parse) if parse in _JSON else parse(value)
            if rng is not None and out[key] is not None and not _RANGES[rng](out[key]):
                raise ValueError(f"must be {rng}, got {value!r}")
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: {key}: {exc}") from exc
    return out


def _json(value, kind: type):
    """``value`` if it has JSON type ``kind``, where a float may be an integer."""
    if type(value) is kind or (kind is float and type(value) is int):
        return kind(value)
    raise TypeError(f"expected {kind.__name__}, got {value!r}")


def _route(value, length: int | None = None) -> tuple[int, ...]:
    """Two AS ids or more, or exactly ``length``."""
    if (type(value) is not list or any(type(a) is not int for a in value) or len(value) < 2
            or length not in (None, len(value))):
        raise ValueError(f"expected a list of {length or 'two or more'} AS ids, got {value!r}")
    return tuple(value)


def _sections(where: str, tables: dict, tag: str | None = None, default=None):
    """A parser of a list of objects. Without a ``tag``, ``tables`` holds the
    keys of every object; with one, it maps each value of the tag to a pair
    (class or check, keys), and each object is parsed by its pair's keys."""
    def parse(value) -> list[dict]:
        out = []
        for i, raw in enumerate(_json(value, list)):
            kind = raw.get(tag, default) if tag and type(raw) is dict else None
            if tag and kind not in tables:
                raise ConfigError(f"{where}[{i}]: {tag} must be one of {', '.join(tables)}, "
                                  f"got {kind!r}")
            out.append(_parse(raw, tables[kind][1] if tag else tables, f"{where}[{i}]"))
        return out
    return parse


def _topology(value) -> dict:
    """An inline topology, a `topo gen` document, or the path of a file
    holding either, parsed to the inline form."""
    if type(value) is str:
        with open(value) as fh:
            value = json.load(fh)
    if type(value) is dict and "n" in value and "ases" not in value:
        gen = _parse(value, _TOPO_GEN_KEYS, "topology")
        ids, matrices = [str(i) for i in range(gen["n"])], gen["matrices"]
        if matrices.keys() - set(ids):
            raise ConfigError(f"topology: matrices for ASes not in 0..{gen['n'] - 1}")
        value = {"ases": [{"id": int(i), **({"matrix": matrices[i]} if i in matrices else {})}
                          for i in ids], "links": gen["links"]}
    return _parse(value, _TOPOLOGY_KEYS, "topology")


_AS_KEYS = {"id": (int, "[0, 2^64)", ...),
            "enabled": (bool, None, True),  # false: the AS forwards unaware of the protocol
            "matrix": (AllocationMatrix, None, None),  # None: from the link capacities
            "secret": (bytes.fromhex, "16 bytes", None)}  # None: derived from the AS id
_LINK_KEYS = {"a": (int, None, ...), "b": (int, None, ...),
              "capacity": (parse_bandwidth, "> 0", "10Gbps"),
              "delay": (parse_duration, ">= 0", "1ms")}
_TOPOLOGY_KEYS = {"ases": (_sections("topology.ases", _AS_KEYS), None, ...),
                  "links": (_sections("topology.links", _LINK_KEYS), None, ...)}
_TOPO_GEN_KEYS = {"n": (int, "> 0", ...), "links": (list, None, ...),
                  "matrices": (dict, None, {}),  # str(AS id) -> matrix
                  # how `topo gen` made the file; not read
                  "seed": (int, None, None), "attachment": (int, None, None)}
_ESTIMATOR_KEYS = {
    "interval": (parse_duration, "> 0", "10s"), "min_requesters": (int, "> 0", 1),
    "reserved_fraction": (lambda v: Fraction(str(v)), "(0, 1]", "0.8"),
    "tentative_slots": (int, ">= 0", 8), "filter_bits": (int, "> 0", 95_851),
    "hash_count": (int, "> 0", 7), "exact": (bool, None, True)}
_SENDER_KEYS = {"name": (str, None, ...), "src": (int, None, ...), "path": (_route, None, ...)}
_RESERVATION_KEYS = {
    **_SENDER_KEYS, "setup_at": (parse_duration, ">= 0", 0),
    "stop_at": (parse_duration, None, None), "packet_size": (int, ">= 0", 1000),
    # None: the rate the grants compose to
    "rate": (lambda v: None if v == "auto" else parse_bandwidth(v), "> 0", "auto"),
    "backward": (bool, None, False),
    "len_b": (int, "[0, 65535]", lambda spec: 120 if spec["backward"] else 0),
    "renew": (bool, None, False), "ignore_expiry": (bool, None, False)}
_BEST_EFFORT_KEYS = {
    **_SENDER_KEYS, "start": (parse_duration, ">= 0", 0),
    "stop_at": (parse_duration, None, None),
    "packet_size": (int, "> 0", 1000),  # the send gap is size / rate
    "rate": (parse_bandwidth, "> 0", ...)}
_TYPE, _KIND = {"type": (str, None, "reservation")}, {"kind": (str, None, ...)}
_ON_LINK = {"name": (str, None, ...), "link": (lambda v: _route(v, 2), None, ...)}
# ``type`` -> (class, keys) and ``kind`` -> (class, keys). An object of a flow
# class is a flow wherever it is configured: its frames count in its ``stats``.
_FLOW_TYPES = {"reservation": (ReservationFlow, {**_TYPE, **_RESERVATION_KEYS}),
               "best_effort": (BestEffortFlow, {**_TYPE, **_BEST_EFFORT_KEYS})}
_ADVERSARY_KINDS = {
    "best_effort_flood": (BestEffortFlow, {**_KIND, **_BEST_EFFORT_KEYS}),
    "overuser": (ReservationFlow, {**_KIND, **_RESERVATION_KEYS,
                                   "factor": (lambda v: Fraction(str(v)), "> 0", "2.0")}),
    "request_flood": (RequestFlood, {**_KIND, **_SENDER_KEYS,
                                     "requests_per_s": (float, "> 0", 100.0)}),
    "spoofer": (Spoofer, {**_KIND, **_SENDER_KEYS, "victim": (int, "[0, 2^64)", ...),
                          "count": (int, ">= 0", 1000), "packet_size": (int, ">= 0", 100),
                          "gap": (parse_duration, ">= 0", 100)}),
    "replayer": (Replayer, {**_KIND, **_ON_LINK, "copies": (int, "> 0", 1),
                            "delay": (parse_duration, ">= 0", 1000)}),
    "link_observer": (LinkObserver, {**_KIND, **_ON_LINK})}
_R, _FLOW = {"r": (str, None, ...)}, {"flow": (str, None, ...)}
_REQUIREMENTS = {  # ``r`` -> (check, keys)
    "R1": (_check_single_reservation, {**_R, "src": (int, None, ...)}),
    "R2": (_check_granted_within, {**_R, **_FLOW}),
    "R3": (_check_forgeries, {**_R, "adversary": (str, None, ...),
                              "max_successes": (int, ">= 0", 2)}),
    "R4": (_check_delivery, {**_R, **_FLOW}),
    "R5": (_check_policing, {**_R, "overuser": (str, None, None), "replayer": (str, None, None),
                             "expected_fraction": (float, "[0, 1]", 0.5),
                             "tolerance": (float, ">= 0", 0.02),
                             "no_expired_conform": (bool, None, False)})}
# requirement key -> the class of sender it must name
_NAMED = {"flow": ReservationFlow, "overuser": ReservationFlow, "adversary": Spoofer,
          "replayer": Replayer}
_SCENARIO_KEYS = {
    "seed": (int, None, 0), "duration": (parse_duration, "> 0", "5s"),
    "log_verdicts": (bool, None, True), "warm_start": (bool, None, False),
    "delta": (parse_duration, ">= 0", "500ms"), "lifetime": (parse_duration, ">= 0", "1s"),
    "bucket_window": (parse_duration, "> 0", "50ms"), "be_buffer": (int, ">= 0", 100),
    # AS id (a string, as JSON object keys are) -> clock offset
    "clock_skew": (lambda v: {int(a): parse_duration(t) for a, t in _json(v, dict).items()},
                   None, {}),
    "estimator": (lambda v: _parse(v, _ESTIMATOR_KEYS, "estimator"), None, {}),
    "topology": (_topology, None, ...),
    "flows": (_sections("flows", _FLOW_TYPES, "type", "reservation"), None, []),
    "adversaries": (_sections("adversaries", _ADVERSARY_KINDS, "kind"), None, []),
    "requirements": (_sections("requirements", _REQUIREMENTS, "r"), None, [])}


def _refuse(where: str, *checks: tuple[bool, str]) -> None:
    """ConfigError for the first check whose condition holds."""
    for wrong, why in checks:
        if wrong:
            raise ConfigError(f"{where}: {why}")


# ---------------------------------------------------------------------------
# the network


class Network:
    def __init__(self, cfg: dict):
        cfg = _parse(cfg, _SCENARIO_KEYS, "scenario")
        self.seed = cfg["seed"]
        self.rng = random.Random(self.seed)
        self.loop = EventLoop()
        self.duration = cfg["duration"]
        self.log_verdicts = cfg["log_verdicts"]
        self.log_lines: list[str] = []
        self._uid = 0

        est = cfg["estimator"]
        self.estimator_cfg = EstimatorConfig(
            est["interval"], est["min_requesters"], est["reserved_fraction"],
            est["tentative_slots"], est["filter_bits"], est["hash_count"], est["exact"])
        self.router_cfg = RouterConfig(cfg["delta"], cfg["lifetime"], cfg["bucket_window"],
                                       self.estimator_cfg)

        self.nodes: dict[int, Node] = {}
        self.links: dict[tuple[int, int], Link] = {}
        self._build_topology(cfg["topology"], cfg["be_buffer"], cfg["clock_skew"])

        self.flows: dict[str, ReservationFlow | BestEffortFlow] = {}
        self.adversaries: dict[str, object] = {}
        for spec in cfg["flows"]:
            self._add(_FLOW_TYPES[spec["type"]][0](self, spec))
        for spec in cfg["adversaries"]:
            self._add(_ADVERSARY_KINDS[spec["kind"]][0](self, spec))
        self.requirements: list[dict] = cfg["requirements"]
        for req in self.requirements:
            self._check_names(req)
        if cfg["warm_start"]:
            self._warm_start_sources()

    def _senders(self) -> dict[str, object]:
        """Every flow and adversary by name, flows first."""
        return {**self.flows, **self.adversaries}

    def _add(self, obj) -> None:
        # frames are traced back to their sender by this name
        _refuse(obj.name, (obj.name in self._senders(), "is used by another flow or adversary"))
        if isinstance(obj, (Replayer, LinkObserver)):
            _refuse(obj.name, (obj.link not in self.links, "observes no link"))
            self.links[obj.link].observers.append(obj)
        if isinstance(obj, tuple(cls for cls, _ in _FLOW_TYPES.values())):
            self.flows[obj.name] = obj
        else:
            self.adversaries[obj.name] = obj

    def _check_names(self, req: dict) -> None:
        """Refuse a requirement that names an AS, or a sender of the kind its
        check reads, that the run does not have."""
        where = f"requirement {req['r']}"
        _refuse(where, ("src" in req and req["src"] not in self.nodes,
                        "src names an AS not in ases"))
        senders = self._senders()
        for key, cls in _NAMED.items():
            name = req[key] if key in req else None
            wrong = name is not None and not isinstance(senders.get(name), cls)
            _refuse(where, (wrong, f"{key} {name!r} names no {cls.__name__} of the run"))

    # topology -----------------------------------------------------------

    def _build_topology(self, topology: dict, be_buffer: int, skews: dict[int, int]) -> None:
        ids = [spec["id"] for spec in topology["ases"]]
        links: dict[int, dict[int, int]] = {a: {} for a in ids}  # AS -> neighbour -> capacity
        _refuse("topology", (len(links) < len(ids), f"lists an AS id twice: {ids}"))
        for ln in topology["links"]:
            a, b, cap = ln["a"], ln["b"], ln["capacity"]
            _refuse(f"topology: link {a}-{b}", (a == b, "is a self-loop"),
                    ((a, b) in self.links, "is listed twice"),
                    (not {a, b} <= links.keys(), "ends at an AS not in ases"))
            links[a][b] = links[b][a] = cap
            self.links[(a, b)] = Link(self, cap, ln["delay"], be_buffer)
            self.links[(b, a)] = Link(self, cap, ln["delay"], be_buffer)
        for spec in topology["ases"]:
            as_id = spec["id"]
            if_to, caps = topo.interfaces(links[as_id])
            size, matrix = len(caps), spec["matrix"]  # a row per interface
            _refuse(f"topology: AS {as_id}", (matrix is not None and matrix.n_interfaces != size,
                                              f"matrix must be {size}x{size}"))
            router = None
            if spec["enabled"]:
                matrix = matrix or AllocationMatrix.from_capacities(caps)
                secret = spec["secret"] or \
                    crypto.cbc_mac(b"topology-secret-", as_id.to_bytes(8, "big") * 2)
                router = Router(as_id, secret, matrix, self.router_cfg, now=0,
                                rng=random.Random((self.seed << 16) ^ as_id))
            self.nodes[as_id] = Node(as_id, router, skews.get(as_id, 0), if_to)
        _refuse("clock_skew", (not skews.keys() <= self.nodes.keys(), "names an AS not in ases"))

    def _warm_start_sources(self) -> None:
        """Warm up every estimator on a reservation requester's path with
        the requesters that cross it (see ``RequesterEstimator.warm_up``)."""
        warm: dict[RequesterEstimator, set[int]] = {}
        for sender in self._senders().values():
            if not isinstance(sender, (ReservationFlow, RequestFlood)):
                continue
            for _, (as_id, ingress, egress, _) in sender.plan.forward_keys:
                policy = self.nodes[as_id].router.policy
                for direction in (wire.FORWARD, wire.BACKWARD):
                    est = policy.estimator_for(*wire.directed_pair(ingress, egress, direction))
                    warm.setdefault(est, set()).add(sender.src)
        for est, sources in warm.items():
            est.warm_up(sources)

    def plan_for(self, route: tuple[int, ...], backward: bool, name: str = "") -> source.PathPlan:
        """The plan of a route whose every link exists, as each sender checks."""
        hops = []
        for k in range(1, len(route)):
            as_id = route[k]
            node = self.nodes[as_id]
            egress = node.if_to[route[k + 1]] if k + 1 < len(route) else 0
            hops.append(source.PathHop(as_id, node.if_to[route[k - 1]], egress))
        # non-participating ASes get no reservation entries; they just forward
        fwd = frozenset(i for i, h in enumerate(hops) if self.nodes[h.as_id].router)
        bwd = fwd if backward else frozenset()
        return source.PathPlan(tuple(hops), fwd, bwd, name=name)

    # frame machinery ------------------------------------------------------

    def next_uid(self) -> int:
        self._uid += 1
        return self._uid

    def new_frame(self, msg, plan, route, cls, origin, size: int | None = None) -> Frame:
        """A frame carrying ``msg``, sized by its ``total_len``. Filler
        (``msg`` None) takes its sender's ``size``."""
        if size is None:
            size = msg.total_len
        return Frame(self.next_uid(), msg, size, plan, route, 0, cls, origin, self.loop.now)

    def log(self, line: str) -> None:
        self.log_lines.append(f"{self.loop.now} {line}")

    def _frame_dropped(self, frame: Frame, why: str) -> None:
        flow = self.flows.get(frame.origin)
        if flow is not None and _counted(frame.msg):
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
            frame.cls = TrafficClass.BEST_EFFORT
        else:
            decision, req = self._router_process(node, frame, *ctx)
            if decision is Decision.REPLAY:
                adv = self.adversaries.get(frame.origin)
                if isinstance(adv, Replayer):
                    adv.copies_dropped += 1
                self._frame_dropped(frame, decision.verdict)
                return
            frame.cls = decision.traffic_class
            if req is not None and ctx[0] == req.last_hop:
                self._turn_around(frame, req)
                if req is msg:  # a bare request ends at its last hop
                    return
        if frame.cls is TrafficClass.BEST_EFFORT and isinstance(msg, wire.DataPacket):
            frame.worst = TrafficClass.BEST_EFFORT
        if frame.pos == len(frame.route) - 1:
            self._deliver(frame)
        else:  # its sender checked every link of the route
            self.links[as_id, frame.route[frame.pos + 1]].send(frame, self.loop.now)

    def _router_process(self, node: Node, frame: Frame, hop_index: int, hop: source.PathHop
                        ) -> tuple[Decision, wire.SetupRequest | None]:
        """Run the router on the frame's message and admit the setup request
        the frame carries, if any: the message, or a renewal's in the payload
        of a forward data packet that is no replay. Returns the decision and
        that request."""
        router = node.router
        now = node.local_time(self.loop.now)
        msg = frame.msg
        if isinstance(msg, wire.SetupRequest):
            decision, req = None, msg
        else:
            req = None
            decision = router.handle_data(msg, hop_index, hop.ingress, hop.egress, now,
                                          wire_len=frame.size)
            adv = self.adversaries.get(frame.origin)
            if isinstance(adv, Spoofer) and decision is Decision.OK:
                adv.succeeded += 1
            if decision is not Decision.REPLAY and wire.is_renewal(msg):
                try:
                    req = wire.decode(msg.payload)
                except wire.DecodeError:
                    pass
        if req is not None:
            admitted, entries = router.handle_setup(req, hop_index, hop.ingress, hop.egress, now)
            frame.resp_entries.extend(entries)
            if decision is None:  # a bare request grows by its entries; a renewal does not
                decision = admitted
                frame.size += wire.RESP_ENTRY_LEN * len(entries)
        if self.log_verdicts:
            self.log(f"as={node.as_id} pkt={frame.uid} kind={'setup' if req is msg else 'data'} "
                     f"verdict={decision.verdict} class={decision.traffic_class.value}")
        return decision, req

    def _turn_around(self, frame: Frame, req: wire.SetupRequest) -> None:
        """Build the aggregated response to ``req`` and send it back to the
        source, best effort: no router can validate a bare response."""
        entries = tuple(sorted(frame.resp_entries, key=lambda e: (e.hop, e.direction)))
        back_route = tuple(reversed(frame.route[: frame.pos + 1]))  # two ASes or more
        resp_frame = self.new_frame(wire.SetupResponse(req.src, req.ts_req, entries), None,
                                    back_route, TrafficClass.BEST_EFFORT, frame.origin)
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
        if flow is None:
            return
        st = flow.stats
        if not _counted(msg):
            if isinstance(msg, wire.DataPacket) and msg.d_flag:
                st.replies_received += 1
            return
        is_data = msg is not None
        st.delivered += 1
        delay = self.loop.now - frame.created
        st.max_delay = max(st.max_delay, delay)
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
        for sender in self._senders().values():
            if isinstance(sender, _Sender):
                sender.start()
        self.loop.run_until(self.duration)
        return self

    def verdicts(self) -> list[tuple[str, bool, str]]:
        """(kind, ok, detail) of each requirement the scenario lists."""
        return [(req["r"], *_REQUIREMENTS[req["r"]][0](self, req)) for req in self.requirements]

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

    def delay_bound_ns(self, flow_name: str) -> int:
        """Per link: propagation, the transmission of the flow's own data
        packet, and of one 1600-byte frame already in service."""
        flow = self.flows[flow_name]
        total = 0
        for a, b in zip(flow.route, flow.route[1:]):
            link = self.links[a, b]
            total += link.delay + link.tx_time(flow.wire_size) + link.tx_time(1600)
        return total


# ---------------------------------------------------------------------------
# loading and running


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
    """Evaluate one security requirement, as a scenario would list it,
    against a finished run.

    Returns (ok, detail); detail carries the counterexample on failure.
    """
    req, = _sections("requirement", _REQUIREMENTS, "r")([req])
    result._check_names(req)
    return _REQUIREMENTS[req["r"]][0](result, req)


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
