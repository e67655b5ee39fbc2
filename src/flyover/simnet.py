"""Deterministic discrete-event network of ASes and border routers.

Links are capacity-limited with strict priority queuing: the priority queue
is always served before best effort, and only the finite best-effort buffer
drops on overflow. Packets are discrete; a frame's departure from a link
starts the next queued frame. The event loop is single-threaded and fully
determined by the scenario seed, so two runs with the same configuration
produce identical event logs.

A departure is an event only when a frame waits for it. Its place in the
event order is reserved when its frame starts, and a frame reaching the
link in the departure's nanosecond finds the link busy or free by that
place (see ``Link``). So every event, and every tie between two events at
one nanosecond, runs in the order it would if each departure were pushed
when its frame starts: a run's log does not depend on how many departures
were pushed.

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
from itertools import chain

from . import crypto, source, topo, wire
from .admission import EstimatorConfig, RequesterEstimator
from .router import Decision, Router, RouterConfig, TrafficClass
from .units import parse_bandwidth, parse_duration


# ---------------------------------------------------------------------------
# event loop


class EventLoop:
    """Events run in (time, seq) order. seq numbers the events in the order
    they were scheduled, so events at one nanosecond run in that order: a
    run's log, and which frame a full link drops, depend on how such ties
    break. ``now`` and ``seq`` are the key of the running event.

    ``reserve`` hands out the next seq without pushing an event. A link
    reserves its departure's seq when a frame starts, and pushes the
    departure under it (``schedule(..., seq=...)``) only once a frame waits
    (see ``Link``): the departure then runs exactly where it would have run
    had it been pushed at once.
    """

    def __init__(self):
        self._heap: list = []
        self.issued = 0  # the last seq handed out
        self.now = 0
        self.seq = 0

    def reserve(self) -> int:
        self.issued += 1
        return self.issued

    def schedule(self, t: int, fn, *args, seq: int | None = None) -> None:
        if t < self.now:
            raise AssertionError("cannot schedule into the past")
        if seq is None:
            self.issued += 1
            seq = self.issued
        heapq.heappush(self._heap, (t, seq, fn, args))

    def run_until(self, t_end: int) -> None:
        heap, pop = self._heap, heapq.heappop
        while heap and heap[0][0] <= t_end:
            t, seq, fn, args = pop(heap)
            self.now, self.seq = t, seq
            fn(*args)
        # every event at or before t_end has run, reserved ones included
        self.now, self.seq = t_end, self.issued


# ---------------------------------------------------------------------------
# frames and links

# Enum members bound once: reading one off its class costs several dict lookups
_PRIORITY, _BEST_EFFORT = TrafficClass.PRIORITY, TrafficClass.BEST_EFFORT
_OK, _REPLAY = Decision.OK, Decision.REPLAY
# a verdict's log text, by the decision's verdict string
_VERDICT_LOG = {d.verdict: f"verdict={d.verdict} class={d.traffic_class.value}" for d in Decision}
# a data verdict's column in its monitor row: bytes for ok and overuse,
# packets for expired and replay
_MONITOR_COLUMN = {"ok": 0, "overuse": 1, "expired": 2, "replay": 3}


def tx_time(size: int, bps: int) -> int:
    """Nanoseconds to put ``size`` bytes on a wire of ``bps`` bits per second,
    floored, and at least 1: a link serves a frame for this long, and a
    best-effort flow sends one frame per this long at its rate."""
    return max(1, size * 8 * 10**9 // bps)


@dataclass(slots=True)
class Frame:
    uid: int
    # the message the frame was built from; None for best-effort filler
    msg: wire.SetupRequest | wire.SetupResponse | wire.DataPacket | None
    size: int
    plan: source.PathPlan | None
    steps: tuple  # (node, link to the next AS or None) per AS of the route, source first
    pos: int  # index into steps of the node holding the frame, or of the one it travels to
    cls: TrafficClass
    sender: object  # the flow or adversary that built it, for attribution
    created: int
    resp_entries: tuple = ()
    worst: TrafficClass = _PRIORITY
    books: FlowStats | None = None  # the sending flow's, if they count the frame


class Link:
    """Directed link with strict-priority service and a drop-tail BE buffer.

    The frame in service leaves the link at its departure, key (``free_at``,
    ``free_seq``), and that departure starts the next queued frame. The
    departure's seq is reserved when the frame starts, but the departure is
    pushed only when a frame queues behind it: most departures find no
    frame waiting, and a departure with nothing to start is no event. The
    link is busy while the running event's key is before the departure's,
    so a frame that reaches the link at the departure's very nanosecond
    queues (or, with a full buffer, drops) exactly when the departure, had
    it been pushed, would not yet have run. Every event keeps the key it
    would have if every departure were pushed when its frame starts, and
    every tie breaks as it would then.
    """

    PRIO_GUARD = 100_000  # admission bounds priority load; this only guards bugs
    BE_BUFFER = 100  # best-effort frames the link queues

    def __init__(self, net: "Network", capacity_bps: int, delay_ns: int):
        self.net = net
        self.loop = net.loop
        self.capacity = capacity_bps
        self.delay = delay_ns
        self.prio: deque[Frame] = deque()
        self.be: deque[Frame] = deque()
        self.free_at = -1
        self.free_seq = 0
        self.be_dropped = 0
        self.largest = 1600  # bytes: the largest frame put in service, at least 1600
        self.observers: list = []

    def send(self, frame: Frame, t: int) -> None:
        """Hand ``frame`` to the link at ``t``, the running event's time."""
        frame.pos += 1  # it travels to the link's receiving end
        loop = self.loop
        if t < self.free_at or (t == self.free_at and loop.seq < self.free_seq):
            prio, be = self.prio, self.be
            if frame.cls is _PRIORITY:
                if len(prio) >= self.PRIO_GUARD:
                    raise AssertionError("priority queue overflow: admission broken")
                queue = prio
            elif len(be) >= self.BE_BUFFER:
                self.be_dropped += 1
                self.net._frame_dropped(frame, "be_buffer_full")
                return
            else:
                queue = be
            if not (prio or be):  # the first frame to wait: the departure must run
                loop.schedule(self.free_at, self._done, seq=self.free_seq)
            queue.append(frame)
            return
        self._start(frame, t)

    def _start(self, frame: Frame, t: int) -> None:
        if frame.size > self.largest:
            self.largest = frame.size
        loop = self.loop
        self.free_at = done = t + tx_time(frame.size, self.capacity)
        self.free_seq = loop.reserve()
        if self.prio or self.be:  # a frame already waits for this departure
            loop.schedule(done, self._done, seq=self.free_seq)
        loop.schedule(done + self.delay,
                      self._arrive if self.observers else self.net.process_at_node, frame)

    def _done(self) -> None:
        queue = self.prio or self.be  # pushed only when a frame waits
        self._start(queue.popleft(), self.free_at)

    def _arrive(self, frame: Frame) -> None:
        """The frame reaches the far end of an observed link."""
        for obs in self.observers:
            obs.on_frame(self, frame)
        self.net.process_at_node(frame)


# ---------------------------------------------------------------------------
# nodes


@dataclass
class Node:
    as_id: int
    router: Router | None  # None: AS does not speak the protocol
    skew_ns: int = 0
    if_to: dict[int, int] = field(default_factory=dict)  # neighbor AS -> interface
    last_stamp: int = field(default=-1, init=False)

    def local_time(self, t: int) -> int:
        return t + self.skew_ns

    def stamp(self, t: int) -> int:
        """Local time at ``t``, yet past this AS's last stamp: senders never share one."""
        self.last_stamp = max(self.local_time(t), self.last_stamp + 1)
        return self.last_stamp


# ---------------------------------------------------------------------------
# flows and adversaries


class FlowStats:
    """A flow's books. ``sent``, ``delivered`` and ``dropped`` count the
    frames the flow marks as it sends them: its data packets and filler,
    not its setup messages, renewals or replies. ``delivered_priority`` and
    ``delivered_demoted`` split ``delivered`` by whether a frame kept
    priority at every hop."""

    def __init__(self):
        self.sent = 0
        self.delivered = 0
        self.delivered_priority = 0
        self.delivered_demoted = 0
        self.dropped = 0
        self.max_delay = 0


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
        self.steps = net.steps(route)
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

    def _send(self, msg, cls: TrafficClass, size: int | None = None,
              counted: bool = False) -> None:
        """Hand a new frame to the source AS's first link; no self-validation.
        A ``counted`` frame is one of a flow's data packets or filler: it
        adds to the flow's ``sent`` here and carries the flow's books, which
        its delivery or drop adds to where it ends."""
        frame = self.net.new_frame(msg, self.plan, self.steps, cls, self, size)
        if counted:
            self.stats.sent += 1
            frame.books = self.stats
        self.steps[0][1].send(frame, self.net.loop.now)

    def _send_setup(self) -> None:
        """Send an authentic setup request for the plan's hops, best effort."""
        req = source.build_setup_request(self.keys, self.plan, self.src,
                                         self.node.stamp(self.net.loop.now))
        self._send(req, _BEST_EFFORT)

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
        # the earliest expiry of the grants it requested, once the source holds every one
        self.grant_expiry: int | None = None
        # the start of the retry ladder the flow climbs; None while it sends
        self.ladder: int | None = None

    def start(self) -> None:
        self._request(self.start_at)

    def _request(self, t: int) -> None:
        """Request at ``t``, then climb the retry ladder until a usable grant
        starts the sending: a rung every eps/2 up to the guaranteed-success
        point at 2*eps, the fourth. A new ladder supersedes the rungs of an
        older one."""
        self.ladder = t
        loop = self.net.loop
        loop.schedule(t, self._send_setup)
        eps = self.net.router_cfg.estimator.interval_ns
        for k in range(1, 5):
            loop.schedule(t + k * eps // 2, self._retry, t)

    def _retry(self, ladder: int) -> None:
        if ladder == self.ladder:
            self._send_setup()

    def _send_renewal(self) -> None:
        try:
            pkt = source.build_renewal(self.store, self.keys, self.plan, self.src,
                                       self.node.stamp(self.net.loop.now))
        except source.MissingGrant:
            self._send_setup()  # expired: fall back to a best-effort request
            return
        self._send(pkt, TrafficClass.PRIORITY)

    def on_response(self, resp: wire.SetupResponse) -> None:
        accepted = source.ingest_response(self.store, self.keys, resp, self.plan)
        if not accepted:
            return
        now = self.net.loop.now
        local = self.node.local_time(now)  # the source holds its grants on its own clock
        grants = [self.store.get(fkey, local) for fkey in self.plan.requested.values()]
        if grants and None not in grants:
            exp = min(grant.ts_exp for grant in grants)
            if self.grant_expiry is None:
                self.net.log(f"granted flow={self.name}")
            extends = self.grant_expiry is None or exp > self.grant_expiry
            self.grant_expiry = exp
            self._configure_rate()  # a renewal may change the composed rate
            if self.ladder is not None:
                self.ladder = None
                self.net.loop.schedule(now + 1, self._tick)
            if self.renew and extends:  # a same-expiry response renews nothing
                # when the source's clock, which gates its sending, or the
                # network's, which the routers expire by, reads exp - eps/5
                eps = self.net.router_cfg.estimator.interval_ns
                renew_at = max(now + 1, exp - eps // 5 - max(self.node.skew_ns, 0))
                self.net.loop.schedule(renew_at, self._send_renewal)

    def _configure_rate(self) -> None:
        if self.rate is None:
            comp = source.compose(self.store, [self.plan], source.CONCURRENT,
                                  self.node.local_time(self.net.loop.now))
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
                                     self.node.stamp(t), allow_expired=self.ignore_expiry)
        except source.MissingGrant:
            self.net.log(f"emit_blocked flow={self.name}")
            if self.renew:  # the grant lapsed: request again, resume on a usable grant
                self._request(t)
            return False
        self._send(pkt, _PRIORITY, counted=True)
        return True


class BestEffortFlow(_Sender):
    """Unreserved frames at a constant rate; routers never validate them."""

    STAMPS = False

    def __init__(self, net: "Network", spec: dict):
        super().__init__(net, spec, start=spec["start"], stop=spec["stop_at"])
        self.packet_size = spec["packet_size"]
        self.gap = tx_time(self.packet_size, spec["rate"])
        self.stats = FlowStats()

    def _emit(self, t: int) -> bool:
        self._send(None, _BEST_EFFORT, size=self.packet_size, counted=True)
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
        self._send_setup()
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
        self.landed_uids: set[int] = set()  # uids of the forged frames some router gave priority

    @property
    def succeeded(self) -> int:
        return len(self.landed_uids)

    def _emit(self, t: int) -> bool:
        if self.sent >= self.count:
            return False
        self.sent += 1
        rng = self.net.rng
        ts = self.node.local_time(t)
        rvfs = tuple((i, rng.randbytes(crypto.VALIDATION_FIELD_LEN))
                     for i in range(len(self.plan.hops)))
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
        if not isinstance(frame.msg, wire.DataPacket) or isinstance(frame.sender, Replayer):
            return
        net = self.net
        for _ in range(self.copies):
            self.injected += 1
            # the message it saw, injected at the link's receiving end
            copy = net.new_frame(frame.msg, frame.plan, frame.steps, frame.cls, self, frame.size,
                                 frame.pos)
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


def _check_grants_policed(result, req) -> tuple[bool, str]:
    """Each grant a reservation flow of ``src`` holds is policed at its AS, under
    (src, pair_in, pair_out), until the grant's expiry or later."""
    src = req["src"]
    for flow in result.flows.values():
        if not isinstance(flow, ReservationFlow) or flow.src != src:
            continue
        for (as_id, pair_in, pair_out), grant in flow.store.grants.items():
            entry = result.nodes[as_id].router.monitor.entries.get((src, pair_in, pair_out))
            if entry is None or entry.ts_exp < grant.ts_exp:
                return False, (f"AS {as_id} polices no grant of src {src} on pair "
                               f"({pair_in}, {pair_out}) until {grant.ts_exp}")
    return True, "one reservation per source at every monitor"


def _check_granted_within(result, req) -> tuple[bool, str]:
    """Per provider router: first valid request to first firm grant <= 2 intervals."""
    flow = result.flows[req["flow"]]
    bound = 2 * result.router_cfg.estimator.interval_ns
    if flow.grant_expiry is None:
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
        st = result.flows[req["overuser"]].stats
        total = st.delivered_priority + st.delivered_demoted
        if total == 0:
            return False, "overuser was never policed"
        frac = st.delivered_demoted / total
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
            for (src, *_), entry in router.monitor.entries.items():
                # a packet that conformed at ``now`` left the bucket's end at
                # most ``now + window``: the latest one came no earlier than this
                if wire.expired(entry.ts_exp, entry.ts - window):
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
_RANGES = {">= 0": lambda v: v >= 0, "> 0": lambda v: v > 0, "[0, 1]": lambda v: 0 <= v <= 1,
           "[0, 65535]": lambda v: 0 <= v <= wire.MAX_LEN, "[0, 2^64)": lambda v: 0 <= v < 2**64}


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
        value = _read_json(value, "topology")
    if type(value) is dict and "n" in value and "ases" not in value:
        gen = _parse(value, _TOPO_GEN_KEYS, "topology")
        value = {"ases": [{"id": i} for i in range(gen["n"])], "links": gen["links"]}
    return _parse(value, _TOPOLOGY_KEYS, "topology")


_AS_KEYS = {"id": (int, "[0, 2^64)", ...),
            "enabled": (bool, None, True)}  # false: the AS forwards unaware of the protocol
_LINK_KEYS = {"a": (int, None, ...), "b": (int, None, ...),
              "capacity": (parse_bandwidth, "> 0", "10Gbps"),
              "delay": (parse_duration, ">= 0", "1ms")}
_TOPOLOGY_KEYS = {"ases": (_sections("topology.ases", _AS_KEYS), None, ...),
                  "links": (_sections("topology.links", _LINK_KEYS), None, ...)}
_TOPO_GEN_KEYS = {"n": (int, "> 0", ...), "links": (list, None, ...),
                  # how `topo gen` made the file; not read
                  "seed": (int, None, None), "attachment": (int, None, None)}
_DEFAULTS = RouterConfig()
_EST = _DEFAULTS.estimator
_ESTIMATOR_KEYS = {
    "interval": (parse_duration, "> 0", _EST.interval_ns),
    "min_requesters": (int, "> 0", _EST.min_requesters),
    "tentative_slots": (int, ">= 0", _EST.tentative_slots), "exact": (bool, None, _EST.exact)}
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
_FLOW_CLASSES = tuple(cls for cls, _ in _FLOW_TYPES.values())
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
    "R1": (_check_grants_policed, {**_R, "src": (int, None, ...)}),
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
    "seed": (int, ">= 0", 0), "duration": (parse_duration, "> 0", "5s"),
    "log_verdicts": (bool, None, True), "warm_start": (bool, None, False),
    "bucket_window": (parse_duration, "> 0", _DEFAULTS.bucket_window_ns),
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
        # (AS, packet src) -> [conform bytes, overuse bytes, expired packets,
        # replayed packets]: what its router decided on the source's data
        self.monitor_tally: dict[tuple[int, int], list[int]] = {}
        self._uid = 0
        self._steps: dict[tuple[int, ...], tuple] = {}

        est = cfg["estimator"]
        self.router_cfg = RouterConfig(
            bucket_window_ns=cfg["bucket_window"],
            estimator=EstimatorConfig(
                interval_ns=est["interval"], min_requesters=est["min_requesters"],
                tentative_slots=est["tentative_slots"], exact=est["exact"]))

        self.nodes: dict[int, Node] = {}
        self.links: dict[tuple[int, int], Link] = {}
        self._build_topology(cfg["topology"], cfg["clock_skew"])

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

    def _add(self, obj) -> None:
        # frames are traced back to their sender by this name
        _refuse(obj.name, (obj.name in self.flows or obj.name in self.adversaries,
                           "is used by another flow or adversary"))
        if isinstance(obj, (Replayer, LinkObserver)):
            _refuse(obj.name, (obj.link not in self.links, "observes no link"))
            self.links[obj.link].observers.append(obj)
        if isinstance(obj, _FLOW_CLASSES):
            self.flows[obj.name] = obj
        else:
            self.adversaries[obj.name] = obj

    def _check_names(self, req: dict) -> None:
        """Refuse a requirement that names an AS, or a sender of the kind its
        check reads, that the run does not have."""
        where = f"requirement {req['r']}"
        _refuse(where, ("src" in req and req["src"] not in self.nodes,
                        "src names an AS not in ases"))
        for key, cls in _NAMED.items():
            name = req[key] if key in req else None
            sender = self.flows[name] if name in self.flows else self.adversaries.get(name)
            wrong = name is not None and not isinstance(sender, cls)
            _refuse(where, (wrong, f"{key} {name!r} names no {cls.__name__} of the run"))

    # topology -----------------------------------------------------------

    def _build_topology(self, topology: dict, skews: dict[int, int]) -> None:
        ids = [spec["id"] for spec in topology["ases"]]
        links: dict[int, dict[int, int]] = {a: {} for a in ids}  # AS -> neighbour -> capacity
        _refuse("topology", (len(links) < len(ids), f"lists an AS id twice: {ids}"))
        for ln in topology["links"]:
            a, b, cap = ln["a"], ln["b"], ln["capacity"]
            _refuse(f"topology: link {a}-{b}", (a == b, "is a self-loop"),
                    ((a, b) in self.links, "is listed twice"),
                    (not {a, b} <= links.keys(), "ends at an AS not in ases"))
            links[a][b] = links[b][a] = cap
            self.links[(a, b)] = Link(self, cap, ln["delay"])
            self.links[(b, a)] = Link(self, cap, ln["delay"])
        for spec in topology["ases"]:
            as_id = spec["id"]
            if_to, caps = topo.interfaces(links[as_id])
            router = None
            if spec["enabled"]:
                secret = crypto.cbc_mac(b"topology-secret-", as_id.to_bytes(8, "big") * 2)
                matrix = topo.AllocationMatrix.from_capacities(caps)  # a row per interface
                router = Router(as_id, secret, matrix, self.router_cfg, now=0,
                                rng=random.Random((self.seed << 16) ^ as_id))
            self.nodes[as_id] = Node(as_id, router, skews.get(as_id, 0), if_to)
        _refuse("clock_skew", (not skews.keys() <= self.nodes.keys(), "names an AS not in ases"))

    def _warm_start_sources(self) -> None:
        """Warm up the estimator of every flyover a reservation requester
        asks for, at its directed pair, with the requesters that ask for it
        (see ``RequesterEstimator.warm_up``)."""
        warm: dict[RequesterEstimator, set[int]] = {}
        for sender in chain(self.flows.values(), self.adversaries.values()):
            if not isinstance(sender, (ReservationFlow, RequestFlood)):
                continue
            plan = sender.plan
            for _, (as_id, pair_in, pair_out) in plan.forward_keys + plan.backward_keys:
                est = self.nodes[as_id].router.policy.estimator_for(pair_in, pair_out)
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

    def steps(self, route: tuple[int, ...]) -> tuple:
        """(node, link to the next AS or None) at each AS of ``route``, whose
        every link exists; built once per route."""
        steps = self._steps.get(route)
        if steps is None:
            nodes, links = self.nodes, self.links
            steps = self._steps[route] = tuple(
                (nodes[a], links[a, b] if b is not None else None)
                for a, b in zip(route, route[1:] + (None,)))
        return steps

    def new_frame(self, msg, plan, steps, cls, sender, size: int | None = None,
                  pos: int = 0) -> Frame:
        """A frame carrying ``msg``, sized by its ``total_len``. Filler
        (``msg`` None) takes its sender's ``size``."""
        if size is None:
            size = msg.total_len
        self._uid += 1
        return Frame(self._uid, msg, size, plan, steps, pos, cls, sender, self.loop.now)

    def log(self, line: str) -> None:
        self.log_lines.append(f"{self.loop.now} {line}")

    def _frame_dropped(self, frame: Frame, why: str) -> None:
        if frame.books is not None:
            frame.books.dropped += 1
        if self.log_verdicts:
            self.log_lines.append(f"{self.loop.now} drop pkt={frame.uid} "
                                  f"origin={frame.sender.name} why={why}")

    # node processing -------------------------------------------------------

    def process_at_node(self, frame: Frame) -> None:
        """Run the frame through the router of the AS at ``frame.pos``, where
        the frame's plan has a hop there, then forward it on the route's next
        link or deliver it at the route's end. A setup request the frame
        carries, the message or a renewal's in the payload of a forward data
        packet that is no replay, is admitted too."""
        node, link = frame.steps[frame.pos]
        msg, plan, router = frame.msg, frame.plan, node.router
        hop_index = -1
        if router is not None and plan is not None and msg is not None:
            # a reversed route's position 0 is the destination, the last hop
            if isinstance(msg, wire.DataPacket) and msg.d_flag:
                hop_index = len(plan.hops) - 1 - frame.pos
            else:
                hop_index = frame.pos - 1
        if hop_index < 0:  # forwarded unprocessed
            frame.cls = _BEST_EFFORT
        else:
            hop = plan.hops[hop_index]
            now = node.local_time(self.loop.now)
            if isinstance(msg, wire.SetupRequest):
                decision, req = None, msg
            else:
                req = None
                decision = router.handle_data(msg, hop_index, hop.ingress, hop.egress, now,
                                              wire_len=frame.size)
                column = _MONITOR_COLUMN.get(decision.verdict)
                if column is not None:
                    row = self.monitor_tally.get((node.as_id, msg.src))
                    if row is None:
                        row = self.monitor_tally[node.as_id, msg.src] = [0, 0, 0, 0]
                    row[column] += frame.size if column < 2 else 1
                if decision is _OK and isinstance(frame.sender, Spoofer):
                    frame.sender.landed_uids.add(frame.uid)
                if decision is not _REPLAY and wire.is_renewal(msg):
                    try:
                        req = wire.decode(msg.payload)
                    except wire.DecodeError:
                        pass
            if req is not None:
                admitted, entries = router.handle_setup(req, hop_index, hop.ingress, hop.egress,
                                                        now)
                frame.resp_entries += tuple(entries)
                if decision is None:  # a bare request grows by its entries; a renewal does not
                    decision = admitted
                    frame.size += wire.RESP_ENTRY_LEN * len(entries)
            if self.log_verdicts:
                self.log_lines.append(f"{self.loop.now} as={node.as_id} pkt={frame.uid} "
                                      f"kind={'setup' if req is msg else 'data'} "
                                      f"{_VERDICT_LOG[decision.verdict]}")
            if decision is _REPLAY:
                if isinstance(frame.sender, Replayer):
                    frame.sender.copies_dropped += 1
                self._frame_dropped(frame, decision.verdict)
                return
            frame.cls = decision.traffic_class
            if req is not None and hop_index == req.last_hop:
                # the aggregated response returns best effort: no router can
                # validate a bare response, so it has no plan
                self._send_back(frame, wire.SetupResponse(req.src, req.ts_req,
                                                          frame.resp_entries), None, _BEST_EFFORT)
                if req is msg:  # a bare request ends at its last hop
                    return
        if frame.cls is _BEST_EFFORT:
            frame.worst = _BEST_EFFORT
        if link is None:
            self._deliver(frame)
        else:
            link.send(frame, self.loop.now)

    def _send_back(self, frame: Frame, msg, plan, cls: TrafficClass) -> None:
        """Send ``msg`` as a new frame of the frame's sender, from the frame's
        AS back along its route to the route's first AS. The new frame starts
        at this AS, whose router validates it where ``plan`` has a hop here;
        a frame without a plan is forwarded best effort."""
        back = self.steps(tuple(node.as_id for node, _ in frame.steps[frame.pos::-1]))
        self.process_at_node(self.new_frame(msg, plan, back, cls, frame.sender))

    def _deliver(self, frame: Frame) -> None:
        sender, msg, st = frame.sender, frame.msg, frame.books
        if st is None:  # a frame no flow's books count
            if isinstance(msg, wire.SetupResponse):
                if isinstance(sender, ReservationFlow):
                    sender.on_response(msg)
            elif isinstance(sender, Replayer):
                sender.copies_delivered += 1
            return
        st.delivered += 1
        delay = self.loop.now - frame.created
        st.max_delay = max(st.max_delay, delay)
        if frame.worst is _PRIORITY:
            st.delivered_priority += 1
        else:
            st.delivered_demoted += 1
        if self.log_verdicts:
            self.log_lines.append(f"{self.loop.now} deliver pkt={frame.uid} flow={sender.name} "
                                  f"delay={delay} class={'P' if frame.worst is _PRIORITY else 'B'}")
        if sender.backward:  # a backward flow sends data packets only
            self._auto_reply(frame)

    def _auto_reply(self, frame: Frame) -> None:
        pkt = frame.msg  # a backward flow's packets carry backward fields
        budget = source.max_reply_payload(pkt)
        if budget < 0:
            return
        # the destination's router validates its own egress first
        self._send_back(frame, source.build_reply(pkt, bytes(min(budget, 64))), frame.plan,
                        _PRIORITY)

    # run ---------------------------------------------------------------------

    def run(self) -> "Network":
        """Run for the configured duration; the network is its own result."""
        # flows, then adversaries: the start order fixes every event's seq
        for sender in chain(self.flows.values(), self.adversaries.values()):
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
        """(AS, src, conform bytes, overuse bytes, expired packets, replayed
        packets) per (AS, src) pair whose router gave the source's data an
        ok, overuse, expired or replay verdict, in (AS, src) order."""
        return [(*key, *row) for key, row in sorted(self.monitor_tally.items())]

    def delay_bound_ns(self, flow_name: str) -> int:
        """Per link: propagation, the transmission of the flow's own data
        packet, and of one frame already in service, as large as the largest
        the link served (at least 1600 bytes)."""
        flow = self.flows[flow_name]
        total = 0
        for a, b in zip(flow.route, flow.route[1:]):
            link = self.links[a, b]
            total += (link.delay + tx_time(flow.wire_size, link.capacity)
                      + tx_time(link.largest, link.capacity))
        return total


# ---------------------------------------------------------------------------
# loading and running


def _read_json(path: str, what: str):
    """The JSON document in the file at ``path``; a ConfigError naming the
    file and ``what`` it should hold if it is not JSON."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad {what} file {path}: {exc}") from exc


def load_scenario(path: str) -> dict:
    return _read_json(path, "scenario")


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
