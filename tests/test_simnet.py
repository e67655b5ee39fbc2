"""Scenario engine: determinism, priority protection, adversaries, skew."""

import hashlib
import json
import os
import re
from collections import Counter
from itertools import chain

import pytest

from flyover import crypto, simnet, source, topo, wire
from flyover.admission import BloomFilter
from flyover.policing import TrafficMonitor
from flyover.router import Router, RouterConfig, TrafficClass

SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _load(name):
    return simnet.load_scenario(os.path.join(SCENARIOS, name))


def _run(name, seed=None):
    return simnet.run_scenario(_load(name), seed=seed)


def _require(result, req):
    ok, detail = simnet.assert_requirement(result, req)
    assert ok, detail
    return detail


# determinism -----------------------------------------------------------------

def test_same_seed_identical_logs():
    r1 = _run("baseline.json", seed=7)
    r2 = _run("baseline.json", seed=7)
    assert r1.log_lines == r2.log_lines
    assert r1.flow_summary_rows() == r2.flow_summary_rows()


def test_different_seed_still_functional():
    r = _run("baseline.json", seed=8)
    assert r.flows["critical"].stats.delivered > 0


# clean network ----------------------------------------------------------------

def test_baseline_full_priority_delivery():
    r = _run("baseline.json")
    st = r.flows["critical"].stats
    assert st.sent > 100
    assert st.delivered == st.sent
    assert st.delivered_priority == st.delivered
    assert st.dropped == 0
    _require(r, {"r": "R4", "flow": "critical"})
    _require(r, {"r": "R1", "src": 1})


def test_unwarmed_setup_uses_tentative_slot_immediately():
    cfg = _load("baseline.json")
    cfg["warm_start"] = False
    cfg["estimator"]["tentative_slots"] = 4
    r = simnet.run_scenario(cfg)
    flow = r.flows["critical"]
    assert flow.grant_expiry is not None
    assert flow.stats.delivered_priority > 0


# best-effort flood (R4) ---------------------------------------------------------

def test_flood_cannot_touch_reservation_traffic():
    r = _run("best_effort_flood.json")
    st = r.flows["critical"].stats
    assert st.delivered == st.sent and st.delivered_priority == st.sent
    _require(r, {"r": "R4", "flow": "critical"})
    flood = r.flows["flood"].stats
    assert flood.dropped > 0  # the flood itself saturates and loses packets


def test_a_deliver_line_reads_class_p_only_for_a_frame_kept_at_priority():
    """Each flow's deliver lines read class=P as often as its summary counts
    packets delivered at priority, and class=B for the rest: the flood's
    filler, which no router validates, is best effort at every hop."""
    r = _run("best_effort_flood.json")
    classes = Counter(tuple(re.search(r" flow=(\S+) .* class=([PB])$", line).groups())
                      for line in r.log_lines if line.split()[1] == "deliver")
    rows = r.flow_summary_rows()
    assert all(delivered > 0 for _, _, delivered, *_ in rows)
    for name, _, delivered, priority, *_ in rows:
        assert (classes[name, "P"], classes[name, "B"]) == (priority, delivered - priority), name


def test_r4_bound_counts_the_largest_frame_a_link_served():
    """R4 allows one frame in service per link: at least 1600 bytes, and the
    flood's 9000-byte frames on the two links it shares with the flow."""
    r = _run("jumbo_flood.json")
    route = r.flows["critical"].route
    assert [r.links[ln].largest for ln in zip(route, route[1:])] == [1600, 9000, 9000]
    _require(r, {"r": "R4", "flow": "critical"})


# request flood (R2) --------------------------------------------------------------

def test_request_flood_grant_within_two_intervals():
    r = _run("request_flood.json")
    detail = _require(r, {"r": "R2", "flow": "honest"})
    assert "within" in detail
    # honest traffic then flows at priority
    assert r.flows["honest"].stats.delivered_priority > 0


# spoofing (R3) --------------------------------------------------------------------

def test_spoofer_never_rides_priority():
    cfg = _load("spoofer.json")
    cfg["adversaries"][0]["count"] = 5000  # unit-test size; acceptance runs 1e6
    r = simnet.run_scenario(cfg)
    _require(r, {"r": "R3", "adversary": "forger", "max_successes": 1})
    _require(r, {"r": "R4", "flow": "victim"})
    adv = r.adversaries["forger"]
    assert adv.sent == 5000


# replay + overuse (R5) -------------------------------------------------------------

def test_replayed_packets_dropped_and_originals_delivered():
    r = _run("replay_overuse.json")
    _require(r, {"r": "R5", "replayer": "echo"})
    st = r.flows["honest"].stats
    assert st.delivered == st.sent and st.dropped == 0


def test_overuser_half_demoted_honest_unharmed():
    r = _run("replay_overuse.json")
    detail = _require(r, {"r": "R5", "overuser": "greedy",
                          "expected_fraction": 0.5, "tolerance": 0.02})
    _require(r, {"r": "R4", "flow": "honest"})
    _require(r, {"r": "R5", "no_expired_conform": True})


def test_relabelling_the_ases_keeps_every_r5_verdict():
    """Relabelling transit AS 2 as AS 5, above the destination AS 3, keeps
    every verdict: R5 reads what the overuser's packets were delivered as,
    whatever the AS ids."""
    def relabel(a):
        return 5 if a == 2 else a

    cfg = _load("replay_overuse.json")
    topo = cfg["topology"]
    topo["ases"] = [{"id": relabel(a["id"])} for a in topo["ases"]]
    topo["links"] = [{**ln, "a": relabel(ln["a"]), "b": relabel(ln["b"])} for ln in topo["links"]]
    for sender in cfg["flows"] + cfg["adversaries"]:
        for key in ("path", "link"):
            if key in sender:
                sender[key] = [relabel(a) for a in sender[key]]
    assert simnet.run_scenario(cfg).verdicts() == _run("replay_overuse.json").verdicts()


def test_monitor_rows_tally_each_data_verdict(monkeypatch):
    """Each hop's ok and overuse verdict adds its frame's size to its (AS,
    src) row, and each expired and replay verdict adds one packet; a forgery
    or a request adds to no row."""
    decided = []
    handle_data = Router.handle_data

    def recording(router, pkt, *args, **kw):
        decision = handle_data(router, pkt, *args, **kw)
        decided.append((router.as_id, pkt.src, decision.verdict))
        return decision

    monkeypatch.setattr(Router, "handle_data", recording)
    cfg = _load("replay_overuse.json")
    cfg["estimator"]["interval"] = "2s"  # the grants expire inside the run
    _sender(cfg, "honest")["ignore_expiry"] = True  # and honest sends on past them
    cfg["adversaries"].append({"kind": "spoofer", "name": "forger", "src": 8, "victim": 5,
                               "path": [8, 2, 3], "count": 50})
    r = simnet.run_scenario(cfg)
    sizes = {1: r.flows["honest"].wire_size, 8: r.flows["greedy"].wire_size}
    seen = Counter(decided)
    assert seen[2, 5, "bad_mac"] == 50
    columns = ("ok", "overuse", "expired", "replay")
    want = {}
    for (as_id, src, verdict), n in seen.items():
        if verdict in columns:
            row = want.setdefault((as_id, src), [as_id, src, 0, 0, 0, 0])
            row[2 + columns.index(verdict)] += n * sizes[src] if verdict in columns[:2] else n
    assert r.monitor_rows() == [tuple(want[key]) for key in sorted(want)]
    honest, greedy = want[2, 1], want[2, 8]
    assert honest[2] and honest[4] and honest[5]  # ok, expired, replay
    assert greedy[2] and greedy[3]  # ok, overuse


# confidentiality + skew -------------------------------------------------------------

def test_observer_never_sees_plaintext_authenticator():
    r = _run("observer_skew.json")
    assert r.adversaries["tap"].captured  # it did observe traffic
    assert not simnet.observer_saw_plaintext_auth(r, "tap")


def test_observer_that_captured_an_authenticator_is_caught():
    r = _run("observer_skew.json")
    grant = next(iter(r.flows["critical"].store.grants.values()))
    r.adversaries["tap"].captured.append(b"prefix" + grant.auth)  # edit: the tap saw it
    assert simnet.observer_saw_plaintext_auth(r, "tap")


def test_observer_capture_is_pinned():
    """A wiretap records the encoding of every message that crosses its link,
    and a response entry per entry a request has collected there."""
    tap = _run("observer_skew.json").adversaries["tap"]
    assert len(tap.captured) == 371
    assert hashlib.sha256(b"\x00".join(tap.captured)).hexdigest() == (
        "cf6a7a4fb54e13cf36d0834a07d9d8dcfdf2d35fd7d2f98dbd5ce8a5e3af6625")


def test_clock_skew_within_bound_no_false_demotion():
    """Clocks skewed within the bound demote nothing: every packet arrives
    at priority, and each router polices the forward packets and the
    replies as conforming."""
    r = _run("observer_skew.json")
    st = r.flows["critical"].stats
    assert st.delivered == st.delivered_priority == st.sent == 368
    # 368 forward packets of 846 bytes and 368 replies of 98
    assert r.monitor_rows() == [(as_id, 1, 368 * (846 + 98), 0, 0, 0) for as_id in (2, 3, 4)]


def test_no_reply_when_len_b_leaves_no_room():
    """A backward flow whose ``len_b`` cannot hold a reply's header gets none,
    and its forward packets still arrive at priority."""
    cfg = _load("baseline.json")
    cfg["flows"][0].update(backward=True, len_b=0)
    r = simnet.run_scenario(cfg)
    flow = r.flows["critical"]
    st = flow.stats
    assert (st.sent, st.delivered, st.delivered_priority) == (592, 592, 592)
    # the routers police the forward packets alone
    assert r.monitor_rows() == [(as_id, 1, 592 * flow.wire_size, 0, 0, 0)
                                for as_id in (2, 3, 4, 5)]


# renewal ----------------------------------------------------------------------------

def _renewing_baseline():
    cfg = _load("baseline.json")
    cfg["duration"] = "6s"
    cfg["estimator"]["interval"] = "4s"
    cfg["flows"][0].update(renew=True, stop_at="5500ms")
    return cfg


def test_renewal_rides_priority_under_flood():
    cfg = _load("best_effort_flood.json")
    cfg["duration"] = "14s"
    cfg["estimator"]["interval"] = "4s"
    cfg["flows"][0]["renew"] = True
    cfg["flows"][0]["stop_at"] = "13s"
    cfg["adversaries"][0]["stop_at"] = "13s"
    cfg["adversaries"][0]["rate"] = "100Mbps"  # still 2x the contested link
    r = simnet.run_scenario(cfg)
    flow = r.flows["critical"]
    # reservation outlived the first validity period under attack
    assert flow.grant_expiry > 2 * r.router_cfg.estimator.interval_ns
    st = flow.stats
    assert st.delivered == st.sent and st.delivered_priority == st.sent


def test_setup_responses_travel_best_effort(monkeypatch):
    """The response to a renewal leaves the turn-around AS best effort, like
    the response to a bare request: no router can validate either."""
    sent = []
    send = simnet.Link.send

    def recording(link, frame, t):
        if isinstance(frame.msg, wire.SetupResponse):
            sent.append(frame.cls)
        return send(link, frame, t)

    monkeypatch.setattr(simnet.Link, "send", recording)
    r = simnet.run_scenario(_renewing_baseline())
    assert r.flows["critical"].grant_expiry > r.router_cfg.estimator.interval_ns  # it renewed
    assert len(sent) >= 2 and set(sent) == {TrafficClass.BEST_EFFORT}


def _lapsing_baseline(renew):
    """A cold start whose first grants are tentative: every response before
    the estimator's rotation at 4 s returns the same 4 s expiry."""
    cfg = _load("baseline.json")
    cfg.update(warm_start=False, duration="10s")
    cfg["estimator"] = {"interval": "4s", "min_requesters": 1, "tentative_slots": 8,
                        "exact": True}
    cfg["flows"][0].update(renew=renew, stop_at="9500ms")
    return cfg


def test_renewing_flow_renews_on_extension_and_requests_again_after_a_lapse(monkeypatch):
    """A response that does not extend the grant schedules no renewal, so
    same-expiry responses cannot storm; a renewing flow whose grant lapsed
    requests again and sends until its stop once a response restores it.
    Here both tentative grants, to 4 s and to 8 s, lapse; the request after
    the second rotation is granted firmly."""
    renewals = []
    build_renewal = source.build_renewal

    def counting(*args):
        renewals.append(args[-1])
        return build_renewal(*args)

    monkeypatch.setattr(source, "build_renewal", counting)
    r = simnet.run_scenario(_lapsing_baseline(renew=True))
    flow = r.flows["critical"]
    assert len(renewals) == 2  # at 3.2 s and 7.2 s, each answered with the same expiry
    assert flow.grant_expiry > simnet.parse_duration("9500ms")
    lapses = [int(line.split()[0]) for line in r.log_lines if "emit_blocked" in line]
    assert [t // 10**9 for t in lapses] == [4, 8]
    st = flow.stats
    assert st.sent > 2200  # ~2290 at 2 Mbps from 0 to 9.5 s, less two round trips
    # the packet sent as each tentative grant ends expires on its way
    assert st.delivered == st.sent and st.delivered_priority == st.sent - len(lapses)


def test_flow_without_renew_stops_at_its_lapse():
    r = simnet.run_scenario(_lapsing_baseline(renew=False))
    st = r.flows["critical"].stats
    assert r.flows["critical"].grant_expiry == simnet.parse_duration("4s")
    assert st.sent == 962 and st.delivered == st.sent
    assert [line.split()[1] for line in r.log_lines if "emit_blocked" in line] == ["emit_blocked"]


def test_a_backward_flow_sends_once_it_holds_every_grant_it_requested():
    """Flow ``rev`` takes AS 2's one tentative slot on the pair that flow
    A's backward reservation asks for, so A's first response holds every
    forward grant but not that backward one. A waits for it, on its retry
    ladder, rather than starting to send and blocking at once."""
    cfg = {"seed": 1, "duration": "12s",
           "estimator": {"interval": "10s", "min_requesters": 1, "tentative_slots": 1,
                         "exact": True},
           "topology": {"ases": [{"id": 1}, {"id": 2}, {"id": 3}],
                        "links": [{"a": 1, "b": 2, "capacity": "10Gbps", "delay": "1ms"},
                                  {"a": 2, "b": 3, "capacity": "10Gbps", "delay": "1ms"}]},
           "flows": [{"name": "rev", "src": 3, "path": [3, 2, 1], "rate": "1Mbps"},
                     {"name": "A", "src": 1, "path": [1, 2, 3], "rate": "1Mbps",
                      "backward": True, "setup_at": "10ms", "stop_at": "11s"}]}
    r = simnet.run_scenario(cfg)
    flow = r.flows["A"]
    (line,) = [line for line in r.log_lines if line.endswith(" flow=A")]
    at, event = line.split(maxsplit=1)
    assert event == "granted flow=A"
    assert int(at) > r.router_cfg.estimator.interval_ns  # after the rotation freed the slot
    node = r.nodes[2]
    assert flow.store.get((2, node.if_to[3], node.if_to[1]), r.loop.now) is not None
    st = flow.stats
    assert st.sent == st.delivered == st.delivered_priority == 119
    _require(r, {"r": "R4", "flow": "A"})


def _reverse_flood_renewal():
    """A renewing flow under a forward flood on 2 -> 3 and, from 4 s, a
    reverse flood on 3 -> 2 -> 1 that drops its renewal's response, so the
    grant lapses at 7.2 s and the flow requests again, best effort."""
    cfg = _load("best_effort_flood.json")
    cfg["duration"] = "14s"
    cfg["estimator"]["interval"] = "4s"
    cfg["flows"][0].update(renew=True, stop_at="13s")
    cfg["adversaries"][0].update(stop_at="13s", rate="100Mbps")
    cfg["topology"]["ases"].append({"id": 8})
    cfg["topology"]["links"].append({"a": 8, "b": 3, "capacity": "500Mbps", "delay": "1ms"})
    cfg["adversaries"].append({"kind": "best_effort_flood", "name": "reverse", "src": 8,
                               "path": [8, 3, 2, 1], "rate": "100Mbps", "packet_size": 1500,
                               "start": "4s", "stop_at": "13s"})
    return cfg


def test_a_new_retry_ladder_supersedes_the_old_one(monkeypatch):
    """After a lapse only the newest ladder's rungs request: the first
    ladder's 2*eps rung at 8 s stays silent."""
    requests = []
    send_setup = simnet.ReservationFlow._send_setup

    def recording(flow):
        requests.append(flow.net.loop.now)
        send_setup(flow)

    monkeypatch.setattr(simnet.ReservationFlow, "_send_setup", recording)
    simnet.run_scenario(_reverse_flood_renewal())
    lapse = 7_202_186_812  # the first renewal's response died in the reverse flood
    eps = 4 * 10**9
    assert requests == [0] + [lapse + k * eps // 2 for k in range(4)]


def test_dropped_counts_only_the_packets_sent_counts(monkeypatch):
    """The reverse flood drops four of the flow's control frames: the
    renewal's response and three best-effort requests. None is a packet
    that ``sent`` counts, so the summary's ``dropped`` stays 0."""
    drops = []
    frame_dropped = simnet.Network._frame_dropped

    def recording(net, frame, why):
        if frame.sender.name == "critical":
            drops.append((net.loop.now // 10**6, type(frame.msg).__name__))
        frame_dropped(net, frame, why)

    monkeypatch.setattr(simnet.Network, "_frame_dropped", recording)
    r = simnet.run_scenario(_reverse_flood_renewal())
    assert drops == [(6406, "SetupResponse"), (7203, "SetupRequest"), (9203, "SetupRequest"),
                     (11203, "SetupRequest")]
    st = r.flows["critical"].stats
    assert (st.sent, st.delivered, st.dropped) == (1657, 1657, 0)


@pytest.mark.parametrize("skew, setup_at", [("0ms", "0ms"), ("300ms", "0ms"),
                                             ("-300ms", "400ms")],
                         ids=["in_time", "ahead", "behind"])
def test_a_skewed_source_renews_before_its_grant_lapses(skew, setup_at):
    """A renewing source reads its grants on its own clock and renews when
    that clock or the network's reads exp - eps/5, whichever is first. With
    its clock 300 ms off either way (eps/5 is 200 ms), no grant lapses before
    the stop, no packet is demoted, and every renewal rides a data packet:
    the one bare request is the first."""
    cfg = _load("skewed_renewal.json")
    cfg["clock_skew"] = {"1": skew}
    cfg["flows"][0]["setup_at"] = setup_at  # a clock behind must not start below 0
    r = simnet.run_scenario(cfg)
    flow = r.flows["critical"]
    assert [line for line in r.log_lines if "emit_blocked" in line] == []
    assert {line.split()[2] for line in r.log_lines if "kind=setup" in line} == {"pkt=1"}
    assert flow.grant_expiry > flow.stop_at  # renewed past its stop
    _require(r, {"r": "R4", "flow": "critical"})


def test_a_renewal_that_finds_no_grant_falls_back_to_a_request(monkeypatch):
    """A renewal whose grant is gone when it fires (a late response to an
    older request can shorten it) sends a best-effort request instead, and
    that response extends the grant."""
    requests = []
    send_setup = simnet.ReservationFlow._send_setup

    def recording(flow):
        requests.append(flow.net.loop.now)
        send_setup(flow)

    def gone(*args):
        raise source.MissingGrant("forward hop 0")

    monkeypatch.setattr(simnet.ReservationFlow, "_send_setup", recording)
    monkeypatch.setattr(source, "build_renewal", gone)
    cfg = _load("skewed_renewal.json")
    cfg.update(duration="1500ms", clock_skew={})
    cfg["flows"][0]["stop_at"] = "100ms"  # stopped: no emit sees the lapse
    flow = simnet.run_scenario(cfg).flows["critical"]
    assert requests == [0, 801_000_072]  # eps/5 before the first grant's expiry
    assert flow.grant_expiry > simnet.parse_duration("1800ms")


def test_traffic_on_an_expired_grant_is_demoted():
    cfg = _load("baseline.json")
    cfg["duration"] = "26s"
    cfg["estimator"]["interval"] = "4s"
    cfg["flows"][0]["stop_at"] = "25s"
    cfg["flows"][0]["ignore_expiry"] = True  # keeps sending on the stale grant
    r = simnet.run_scenario(cfg)
    st = r.flows["critical"].stats
    assert st.delivered_demoted > 0  # packets after expiry fell to best effort
    assert st.delivered_priority > 0  # the pre-expiry stretch was protected


# frames carry their message ----------------------------------------------------------------

def _counting_decodes(monkeypatch):
    """The messages ``wire.decode`` returns from here on, in order."""
    decoded = []
    decode = wire.decode

    def counting(data):
        msg = decode(data)
        decoded.append(msg)
        return msg

    monkeypatch.setattr(wire, "decode", counting)
    return decoded


def _replay_through_a_legacy_as():
    # AS 2 forwards blindly, so the replayer's copies cross the 2 -> 3 link
    cfg = _load("replay_overuse.json")
    cfg["topology"]["ases"][1]["enabled"] = False
    cfg["adversaries"] = [adv for adv in cfg["adversaries"] if adv["name"] == "echo"]
    cfg["requirements"] = []
    return cfg


def _checking_frames(monkeypatch):
    """The frames handed to a link (first list) or a node (second) from here
    on. Each one's message encodes, and its size is that encoding's length,
    plus a response entry's for every entry a bare request has collected."""
    sent, visited = [], []

    def checking(method, seen):
        def wrapper(owner, frame, *args):
            if frame.msg is not None:
                grown = isinstance(frame.msg, wire.SetupRequest) and len(frame.resp_entries)
                want = len(wire.encode(frame.msg)) + wire.RESP_ENTRY_LEN * grown
                assert frame.size == want, frame.uid
            seen.append(frame)
            return method(owner, frame, *args)
        return wrapper

    monkeypatch.setattr(simnet.Link, "send", checking(simnet.Link.send, sent))
    monkeypatch.setattr(simnet.Network, "process_at_node",
                        checking(simnet.Network.process_at_node, visited))
    return sent, visited


@pytest.mark.parametrize("make_cfg", [
    lambda: _load("baseline.json"),
    lambda: _load("observer_skew.json"),
    _replay_through_a_legacy_as,
], ids=["baseline", "backward_replies", "replay_copies_forwarded"])
def test_frames_carry_their_bytes_and_no_hop_parses_them(monkeypatch, make_cfg):
    """Every frame on a link or at a node is sized as its message's
    encoding, and no AS decodes a frame to route it."""
    decoded = _counting_decodes(monkeypatch)
    sent, visited = _checking_frames(monkeypatch)
    r = simnet.run_scenario(make_cfg())
    assert decoded == []
    assert sent and visited
    kinds = {type(f.msg) for f in sent}
    assert {wire.SetupRequest, wire.SetupResponse, wire.DataPacket} <= kinds
    if "echo" in r.adversaries:
        copies = [f for f in sent if isinstance(f.sender, simnet.Replayer)]
        assert len(copies) == r.adversaries["echo"].injected > 0
        # a copy holds the very message of the frame the replayer saw, at its size
        originals = {id(f.msg): f for f in sent if not isinstance(f.sender, simnet.Replayer)}
        assert all(originals[id(c.msg)].msg is c.msg and originals[id(c.msg)].size == c.size
                   for c in copies)


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(SCENARIOS) if f.endswith(".json")))
def test_every_scenario_frame_encodes_to_its_size(monkeypatch, name):
    """The codec's range checks hold over all simulated traffic: in every
    committed scenario, every message a frame carries encodes, to the
    frame's size. And each flow's books balance: every frame it sent was
    delivered, dropped, or is still in flight when the run ends, in a link
    queue or in a pending event."""
    sent, visited = _checking_frames(monkeypatch)
    r = _run(name)
    assert sent and visited
    queued = (f for link in r.links.values() for f in chain(link.prio, link.be))
    pending = (arg for *_, args in r.loop._heap for arg in args)
    in_flight = Counter(f.books for f in chain(queued, pending) if isinstance(f, simnet.Frame))
    for flow in r.flows.values():
        st = flow.stats
        assert st.sent == st.delivered + st.dropped + in_flight[st], flow.name


def test_request_frames_are_sized_without_encoding(monkeypatch):
    """A request flood's frames take their size from ``total_len``; with no
    link observer and no renewal, nothing in the run is encoded."""
    encoded = []
    encode = wire.encode

    def counting(msg):
        encoded.append(msg)
        return encode(msg)

    monkeypatch.setattr(wire, "encode", counting)
    r = _run("request_flood.json")
    assert encoded == []
    assert sum(adv.count for adv in r.adversaries.values()) > 0


def test_only_a_renewal_payload_is_parsed(monkeypatch):
    """A router parses the setup request a renewal carries, once per router
    that admits it; nothing else in a run is decoded."""
    decoded = _counting_decodes(monkeypatch)
    admitted = []
    handle_setup = Router.handle_setup

    def recording(router, req, *args):
        admitted.append(req)
        return handle_setup(router, req, *args)

    monkeypatch.setattr(Router, "handle_setup", recording)
    r = simnet.run_scenario(_renewing_baseline())
    assert r.flows["critical"].grant_expiry > r.router_cfg.estimator.interval_ns  # it renewed
    embedded = [req for req in admitted if any(req is msg for msg in decoded)]
    assert decoded and all(isinstance(msg, wire.SetupRequest) for msg in decoded)
    assert len(decoded) == len(embedded) == 4  # one renewal, four routers


def test_a_renewal_whose_request_does_not_decode_is_forwarded_as_data(monkeypatch):
    """A forward data packet whose payload starts as a setup request but
    does not decode keeps its data verdict and its route: every router
    passes it at priority, none admits anything or answers it."""
    net = simnet.Network(_load("baseline.json"))
    net.run()
    flow, now = net.flows["critical"], net.loop.now
    payload = bytes([wire.MSG_SETUP_REQ])  # a request's kind byte, then nothing
    pkt = source.emit_packet(flow.store, flow.plan, flow.src, payload, 0, flow.node.stamp(now))
    assert wire.is_renewal(pkt)
    with pytest.raises(wire.DecodeError):
        wire.decode(payload)
    admitted, answered = [], []
    monkeypatch.setattr(Router, "handle_setup", lambda *args: admitted.append(args))
    monkeypatch.setattr(simnet.Network, "_send_back", lambda *args: answered.append(args))
    frame = net.new_frame(pkt, flow.plan, flow.steps, TrafficClass.PRIORITY, flow)
    frame.books = flow.stats
    flow.steps[0][1].send(frame, now)
    net.loop.run_until(now + 10**9)
    seen = [line.split(maxsplit=1)[1] for line in net.log_lines if f" pkt={frame.uid} " in line]
    assert seen[:-1] == [f"as={as_id} pkt={frame.uid} kind=data verdict=ok class=P"
                         for as_id in (2, 3, 4, 5)]
    assert seen[-1].startswith(f"deliver pkt={frame.uid} flow=critical ") and \
        seen[-1].endswith(" class=P")
    assert admitted == answered == []


# incremental deployment ----------------------------------------------------------------

def test_partial_deployment_still_delivers():
    r = _run("partial_deployment.json")  # AS 3 does not participate
    st = r.flows["critical"].stats
    assert st.delivered == st.sent
    # AS 3 forwards blindly: packets arrive but not at priority end to end
    assert st.delivered_demoted == st.delivered
    enabled_routers = [n.router for n in r.nodes.values() if n.router]
    assert any(1 in {k[0] for k in rt.monitor.entries} for rt in enabled_routers)


def test_auto_rate_flow_across_an_unreserved_hop_is_granted():
    cfg = _load("baseline.json")
    cfg["topology"]["ases"][2]["enabled"] = False  # AS 3 reserves nothing
    for ln in cfg["topology"]["links"]:
        ln["capacity"] = "10Mbps"
    cfg["flows"][0]["rate"] = "auto"  # composed from the grants of the other hops
    flow = simnet.run_scenario(cfg).flows["critical"]
    assert flow.grant_expiry is not None
    assert flow.stats.sent == flow.stats.delivered == 1205


def _set_matrix(net, as_id, rows):
    """Set every entry of AS ``as_id``'s allocation matrix before the run,
    through the update path an AS changes its policy by."""
    matrix = net.nodes[as_id].router.matrix
    for a, row in enumerate(rows):
        for b, value in enumerate(row):
            matrix.update(a, b, value, now=0, validity_ns=0)


def test_zero_composed_rate_is_refused():
    cfg = _load("baseline.json")
    cfg["flows"][0]["rate"] = "auto"
    net = simnet.Network(cfg)
    _set_matrix(net, 2, [[0, 0, 0], [0, 0, 0], [0, 0, 0]])  # AS 2 grants 0
    with pytest.raises(simnet.ConfigError, match="^flow critical: no usable composed rate$"):
        net.run()


def test_an_as_numbers_its_interfaces_by_neighbour_id_whatever_the_links_order():
    """AS 2's matrix reads interface 1 as its link to AS 1 and interface 2
    as its link to AS 3, however ``links`` lists them: the flow 1 -> 3 is
    granted 0.8 of entry [1][2], never of [2][1], and both orders give the
    same run."""
    links = [{"a": 1, "b": 2, "capacity": "10Mbps"}, {"a": 2, "b": 3, "capacity": "10Mbps"}]
    matrix = [[0, 4_000_000, 4_000_000], [4_000_000, 0, 3_000_000], [4_000_000, 6_000_000, 0]]
    runs = []
    for order in (links, links[::-1]):
        net = simnet.Network({
            "seed": 1, "duration": "1s", "warm_start": True,
            "estimator": {"min_requesters": 1, "tentative_slots": 0, "exact": True},
            "topology": {"ases": [{"id": 1}, {"id": 2}, {"id": 3}], "links": order},
            "flows": [{"name": "f", "src": 1, "path": [1, 2, 3], "stop_at": "900ms"}]})
        _set_matrix(net, 2, matrix)
        r = net.run()
        assert r.flows["f"].store.grants[(2, 1, 2)].bw == 2_400_000
        runs.append((r.flow_summary_rows(), r.monitor_rows(), r.log_lines))
    assert runs[0] == runs[1]


# config validation -----------------------------------------------------------------------

def test_bad_flow_type_rejected():
    cfg = _load("baseline.json")
    cfg["flows"][0]["type"] = "warp"
    with pytest.raises(simnet.ConfigError):
        simnet.run_scenario(cfg)


def test_missing_topology_rejected():
    with pytest.raises(simnet.ConfigError):
        simnet.run_scenario({"flows": []})


def test_largest_data_packet_is_accepted():
    """packet_size may fill a data packet up to its 16-bit length, no further."""
    cfg = _load("baseline.json")
    largest = 0xFFFF - wire.DATA_FIXED_HEADER - wire.FIELD_ENTRY_LEN * 4  # 4 hops
    cfg["flows"][0]["packet_size"] = largest
    assert simnet.Network(cfg).flows["critical"].wire_size == 0xFFFF
    cfg["flows"][0]["packet_size"] = largest + 1
    with pytest.raises(simnet.ConfigError):
        simnet.Network(cfg)


@pytest.mark.parametrize("backward, disabled, fields", [
    (True, (), 8), (True, (3,), 6), (False, (2, 3, 4, 5), 0)],
    ids=["backward", "backward_past_a_legacy_as", "no_enabled_hop"])
def test_schema_counts_the_fields_a_flow_sends(backward, disabled, fields):
    """A flow bounds packet_size by a field per enabled AS after the
    source, each way: the largest it accepts makes 65535-byte packets."""
    cfg = _load("baseline.json")
    cfg["flows"][0]["backward"] = backward
    for spec in cfg["topology"]["ases"]:
        spec["enabled"] = spec["id"] not in disabled
    largest = 0xFFFF - wire.data_packet_len(fields)
    cfg["flows"][0]["packet_size"] = largest
    assert simnet.Network(cfg).flows["critical"].wire_size == 0xFFFF
    cfg["flows"][0]["packet_size"] = largest + 1
    with pytest.raises(simnet.ConfigError, match="65536-byte data packets"):
        simnet.Network(cfg)


def test_unknown_path_rejected():
    cfg = _load("baseline.json")
    cfg["flows"][0]["path"] = [1, 99]
    with pytest.raises(simnet.ConfigError):
        simnet.run_scenario(cfg)


# link mechanics ---------------------------------------------------------------------------

def test_no_overallocation_assertion_holds_on_all_runs():
    for name in ("baseline.json", "best_effort_flood.json", "replay_overuse.json"):
        r = _run(name)
        for node in r.nodes.values():
            if node.router is None:
                continue
            for pair, grants in node.router.active_grants.items():
                total = sum(bw for bw, _ in grants.values())
                cap = node.router.matrix.capacity_value(pair[0], pair[1], 0)
                assert total <= cap


def _one_link():
    """A network of one 8 Mbps, 1 ms link from AS 1 to AS 2, driven by hand:
    (network, link, a maker of 1000-byte filler frames, 1 ms on the wire)."""
    net = simnet.Network({
        "seed": 1,
        "topology": {"ases": [{"id": 1}, {"id": 2}],
                     "links": [{"a": 1, "b": 2, "capacity": "8Mbps"}]},
        "flows": [{"type": "best_effort", "name": "be", "src": 1, "path": [1, 2],
                   "rate": "1Mbps"}]})
    flow = net.flows["be"]

    def frame():
        f = net.new_frame(None, None, flow.steps, TrafficClass.BEST_EFFORT, flow, size=1000)
        f.books = flow.stats  # counted, as the flow's own filler is
        return f

    return net, net.links[1, 2], frame


def test_a_frame_at_the_departure_nanosecond_meets_the_link_by_event_order():
    """With no best-effort buffer, a frame that reaches the link at the very
    nanosecond the frame in service leaves is dropped if its event runs
    before the departure's reserved key, and served if it runs after, as
    with every departure pushed when its frame starts."""
    net, link, frame = _one_link()
    link.BE_BUFFER = 0
    loop = net.loop
    done = simnet.tx_time(1000, link.capacity)
    early, first, late = frame(), frame(), frame()

    def send(f):
        link.send(f, loop.now)

    loop.schedule(done, send, early)  # keyed before the departure, reserved below
    loop.schedule(0, send, first)  # in service from 0 to done
    loop.schedule(0, lambda: loop.schedule(done, send, late))  # keyed after the departure
    loop.run_until(10**9)
    assert link.be_dropped == 1
    assert f"{done} drop pkt={early.uid} origin=be why=be_buffer_full" in net.log_lines
    assert [line for line in net.log_lines if "deliver" in line] == [
        f"{done + link.delay} deliver pkt={first.uid} flow=be delay={done + link.delay} class=B",
        f"{2 * done + link.delay} deliver pkt={late.uid} flow=be "
        f"delay={2 * done + link.delay} class=B"]


def test_a_departure_is_an_event_only_when_a_frame_waits():
    """A frame on an idle link adds one heap event, its arrival. A frame that
    queues behind it pushes the departure that will start it."""
    net, link, frame = _one_link()
    loop = net.loop
    done = simnet.tx_time(1000, link.capacity)
    pushed = []
    schedule = loop.schedule

    def recording(t, fn, *args, **kw):
        pushed.append((t, fn.__name__))
        schedule(t, fn, *args, **kw)

    loop.schedule = recording
    link.send(frame(), 0)
    assert pushed == [(done + link.delay, "process_at_node")]
    link.send(frame(), 0)
    assert pushed[1:] == [(done, "_done")]
    loop.run_until(10**9)
    # the second frame's own departure finds no frame waiting
    assert pushed[2:] == [(2 * done + link.delay, "process_at_node")]
    assert net.flows["be"].stats.delivered == 2


def test_scheduling_before_now_is_refused():
    loop = simnet.EventLoop()
    loop.run_until(10)
    loop.schedule(10, lambda: None)  # the current nanosecond is still allowed
    with pytest.raises(AssertionError, match="into the past"):
        loop.schedule(9, lambda: None)


def test_a_full_priority_queue_refuses_the_next_priority_frame():
    net, link, frame = _one_link()
    link.PRIO_GUARD = 2
    link.send(frame(), 0)  # in service: what follows waits

    def priority():
        f = frame()
        f.cls = TrafficClass.PRIORITY
        return f

    link.send(priority(), 0)
    link.send(priority(), 0)
    assert len(link.prio) == 2
    with pytest.raises(AssertionError, match="priority queue overflow"):
        link.send(priority(), 0)


# kinds and warm start -------------------------------------------------------------------

_SENDER = {"name": "x", "src": 2, "path": [2, 3, 4]}
_PACED = dict(_SENDER, rate="1Mbps")


@pytest.mark.parametrize("section, spec, lands_in, warm", [
    ("flows", dict(_PACED, type="reservation"), "flows", True),
    ("flows", dict(_PACED, type="best_effort"), "flows", False),
    ("adversaries", dict(_PACED, kind="best_effort_flood"), "flows", False),
    ("adversaries", dict(_PACED, kind="overuser"), "flows", True),
    ("adversaries", dict(_SENDER, kind="request_flood"), "adversaries", True),
    ("adversaries", dict(_SENDER, kind="spoofer", victim=1), "adversaries", False),
    ("adversaries", {"name": "x", "kind": "replayer", "link": [1, 2]}, "adversaries", None),
    ("adversaries", {"name": "x", "kind": "link_observer", "link": [1, 2]}, "adversaries",
     None),
], ids=["reservation", "best_effort", "best_effort_flood", "overuser", "request_flood",
        "spoofer", "replayer", "link_observer"])
def test_kind_table_and_warm_start(section, spec, lands_in, warm):
    """Each flow type and adversary kind lands in one of the network's two
    dicts; warm start pre-registers exactly the sources that request
    reservations, at the directed pairs they request and no other."""
    cfg = _load("baseline.json")
    cfg["warm_start"] = True
    cfg.setdefault(section, []).append(spec)
    net = simnet.Network(cfg)
    other = "adversaries" if lands_in == "flows" else "flows"
    assert "x" in getattr(net, lands_in) and "x" not in getattr(net, other)
    if warm is None:
        return
    plan = net.plan_for(tuple(spec["path"]), False)
    for _, (as_id, pair_in, pair_out) in plan.forward_keys:
        policy = net.nodes[as_id].router.policy
        assert (2 in policy.estimator_for(pair_in, pair_out).granted) is warm, (as_id, pair_in)
        # every spec here asks for forward reservations only
        assert 2 not in policy.estimator_for(pair_out, pair_in).granted, (as_id, pair_out)


class _CountingRegistry(dict):
    """A sender registry that counts the entries read out of it, one by one
    or by a walk over all of them. Overriding ``__iter__`` also sends a
    ``{**registry}`` copy through ``keys`` and ``__getitem__``."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)

    def __iter__(self):
        self.reads += len(self)
        return super().__iter__()

    def keys(self):
        self.reads += len(self)
        return super().keys()

    def values(self):
        self.reads += len(self)
        return super().values()

    def items(self):
        self.reads += len(self)
        return super().items()


def test_adding_a_sender_reads_no_other():
    """Adding n senders reads O(n) registry entries, not a copy of both
    registries per sender."""
    net = simnet.Network({"topology": {"ases": [{"id": 1}, {"id": 2}],
                                       "links": [{"a": 1, "b": 2}]}})
    net.flows, net.adversaries = _CountingRegistry(), _CountingRegistry()
    n = 200
    stub = type("Stub", (), {})
    for i in range(n):
        flow = simnet.BestEffortFlow.__new__(simnet.BestEffortFlow)  # a flow class: in flows
        flow.name = f"f{i}"
        net._add(flow)
        adversary = stub()
        adversary.name = f"a{i}"
        net._add(adversary)
    assert len(net.flows) == len(net.adversaries) == n
    assert net.flows.reads + net.adversaries.reads <= 2 * n
    adversary.name = "f0"
    with pytest.raises(simnet.ConfigError, match="f0: is used by another flow or adversary"):
        net._add(adversary)


def _opposite_flows(backward: bool) -> dict:
    """Flows east 1->3 and west 3->1 over AS 2, warm-started, with an exact
    estimator that counts every requester from the first request on."""
    flows = [{"name": "east", "src": 1, "path": [1, 2, 3], "rate": "1Mbps"},
             {"name": "west", "src": 3, "path": [3, 2, 1], "rate": "1Mbps",
              "backward": backward}]
    return {"seed": 1, "duration": "100ms", "warm_start": True,
            "estimator": {"min_requesters": 1, "tentative_slots": 0, "exact": True},
            "topology": {"ases": [{"id": 1}, {"id": 2}, {"id": 3}],
                         "links": [{"a": 1, "b": 2}, {"a": 2, "b": 3}]},
            "flows": flows}


@pytest.mark.parametrize("backward, east_bw", [(False, 4 * 10**9), (True, 2 * 10**9)],
                         ids=["forward_only", "west_asks_backward"])
def test_warm_start_counts_a_requester_only_where_it_asks(backward, east_bw):
    """Opposite forward flows share no flyover at AS 2: each is the one
    requester of its pair and gets the pair's whole reserved share, 4/5 of
    the 5 Gbps entry. When west also asks for backward reservations, it
    requests east's pair too, and the two split that pair's share."""
    r = simnet.run_scenario(_opposite_flows(backward))
    node = r.nodes[2]
    east, west = (node.if_to[1], node.if_to[3]), (node.if_to[3], node.if_to[1])
    grants = node.router.active_grants
    assert grants[east][1][0] == east_bw
    assert grants[west][3][0] == 4 * 10**9
    if backward:
        assert grants[east][3][0] == 2 * 10**9


@pytest.mark.parametrize("n, seed, r", [(30, 1, 0.3), (40, 2, 0.5)])
def test_protocol_grants_equal_the_study_shares(n, seed, r):
    """The protocol reproduces the topology study grant for grant: on a
    study graph, with one flow per demand along its study path, every grant
    a source stores is the study's per-pair share, 4/5 of the pair's entry
    split among the sources the study counts there. The flows send no data;
    only their handshakes run."""
    g = topo.generate_topology(n, seed=seed)
    demands = topo.build_demands(g, r, seed)
    study = topo.ReservationStudy(g, topo.build_matrices(g), demands)
    flows = []
    for src, dests in demands.items():
        parent, _ = topo.shortest_path_tree(g, src)
        for dst in dests:
            path = [dst]
            while path[-1] != src:
                path.append(parent[path[-1]])
            flows.append({"name": f"{src}-{dst}", "src": src, "path": path[::-1], "stop_at": 0})
    net = simnet.run_scenario({
        "duration": "20ms", "warm_start": True,
        "estimator": {"exact": True, "min_requesters": 1, "tentative_slots": 0},
        "topology": {"n": n, "links": [{"a": a, "b": b, "capacity": cap}
                                       for (a, b), cap in g.edge_capacity.items()]},
        "flows": flows})
    for flow in net.flows.values():
        grants = flow.store.grants
        assert grants.keys() == {key for _, key in flow.plan.forward_keys}, flow.name
        for (as_id, pair_in, pair_out), grant in grants.items():
            entry = study.matrices[as_id].admission_value(pair_in, pair_out)
            assert grant.bw == entry * 4 // (5 * study.pair_requesters[as_id, pair_in, pair_out]), \
                (flow.name, as_id)


def test_assert_requirement_refuses_a_name_the_run_lacks():
    r = _run("baseline.json")
    for req in ({"r": "R4", "flow": "nobody"}, {"r": "R1", "src": 99}, {"r": "R4"},
                {"r": "R3", "adversary": "critical"}, {"r": "R4", "flow": "critical", "x": 1}):
        with pytest.raises(simnet.ConfigError):
            simnet.assert_requirement(r, req)


def test_r5_reads_no_expired_conform():
    r = _run("baseline.json")
    assert _require(r, {"r": "R5", "no_expired_conform": False}) == "nothing to check"
    assert _require(r, {"r": "R5", "no_expired_conform": True}) == \
        "no conform verdicts beyond expiry"


# requirement checks that fail --------------------------------------------------------
# Each failure is built from a configuration where one can be; otherwise the
# finished network is edited to what the check must refuse.

def _refused(result, req, detail):
    assert simnet.assert_requirement(result, req) == (False, detail)


def _sender(cfg, name):
    return next(s for s in cfg["flows"] + cfg.get("adversaries", []) if s["name"] == name)


def test_a_flow_that_never_starts_fails_r2_and_r4():
    cfg = _load("baseline.json")
    _sender(cfg, "critical")["setup_at"] = "4s"  # after the 3 s run
    r = simnet.run_scenario(cfg)
    _refused(r, {"r": "R2", "flow": "critical"}, "flow critical never granted")
    _refused(r, {"r": "R4", "flow": "critical"}, "flow critical sent nothing")


def test_r2_fails_on_a_tentative_grant_alone():
    cfg = _load("baseline.json")
    cfg["warm_start"] = False
    cfg["estimator"]["tentative_slots"] = 4  # the 3 s run ends inside the first interval
    _refused(simnet.run_scenario(cfg), {"r": "R2", "flow": "critical"},
             "AS 2 never firmly granted src 1")


def test_r2_fails_at_an_as_that_saw_no_request():
    r = _run("baseline.json")
    r.nodes[3].router.first_request_ts.clear()  # edit: AS 3 forgets the request
    _refused(r, {"r": "R2", "flow": "critical"}, "AS 3 never saw a request from 1")


def test_r2_fails_past_two_intervals():
    r = _run("baseline.json")
    # edit: the request arrived 1 ns more than two intervals before its grant
    r.nodes[2].router.first_request_ts[1] -= 20_000_000_001
    _refused(r, {"r": "R2", "flow": "critical"},
             "AS 2: grant took 20000000001 ns > bound 20000000000 ns")


def test_r3_fails_past_its_allowance():
    cfg = _load("spoofer.json")
    cfg["adversaries"][0]["count"] = 100
    r = simnet.run_scenario(cfg)
    r.adversaries["forger"].landed_uids.update({-1, -2, -3})  # edit: three forgeries rode priority
    _refused(r, {"r": "R3", "adversary": "forger"}, "spoofer landed 3 priority packets > 2")


def test_r4_fails_on_demoted_packets():
    cfg = _load("replay_overuse.json")
    _sender(cfg, "honest")["rate"] = "10Mbps"  # past its grant: the excess is demoted
    _refused(simnet.run_scenario(cfg), {"r": "R4", "flow": "honest"},
             "flow honest: sent=5457 delivered=5457 priority=1976")


def test_r4_fails_past_its_delay_bound():
    r = _run("baseline.json")
    r.flows["critical"].stats.max_delay = r.delay_bound_ns("critical") + 1  # edit
    _refused(r, {"r": "R4", "flow": "critical"},
             "max delay 4008441 ns exceeds bound 4008440 ns")


def test_r5_fails_on_an_overuser_never_policed():
    cfg = _load("replay_overuse.json")
    _sender(cfg, "greedy")["setup_at"] = "6s"  # after the 5 s run
    _refused(simnet.run_scenario(cfg), {"r": "R5", "overuser": "greedy"},
             "overuser was never policed")


@pytest.mark.parametrize("change, detail", [
    ({"link": [2, 1]}, "replayer injected nothing"),  # only setup responses go this way
    ({"delay": "10s"}, "replayed copies delivered=0 dropped=0/1092"),  # still in flight
], ids=["nothing_injected", "copies_in_flight"])
def test_r5_fails_on_replayed_copies_not_dropped(change, detail):
    cfg = _load("replay_overuse.json")
    _sender(cfg, "echo").update(change)
    _refused(simnet.run_scenario(cfg), {"r": "R5", "replayer": "echo"}, detail)


def test_r5_fails_on_a_charge_past_expiry():
    r = _run("baseline.json")
    node = r.nodes[3]
    entry = node.router.monitor.entries[(1, node.if_to[2], node.if_to[4])]
    # edit: a full bucket charged at ts_exp, where the grant is already dead
    entry.ts = entry.ts_exp + r.router_cfg.bucket_window_ns
    _refused(r, {"r": "R5", "no_expired_conform": True}, "AS 3 charged src 1 past expiry")


def test_r5_reads_the_overusers_delivered_share():
    r = _run("replay_overuse.json")
    r.flows["greedy"].stats.delivered_demoted = 0  # edit: every packet arrived at priority
    _refused(r, {"r": "R5", "overuser": "greedy"},
             "demoted fraction 0.0000 not within 0.02 of 0.5")


@pytest.mark.parametrize("edit", [
    lambda entries, key: entries.pop(key),
    lambda entries, key: setattr(entries[key], "ts_exp", entries[key].ts_exp - 1),
], ids=["no_entry", "entry_expires_first"])
def test_r1_fails_on_a_grant_its_router_does_not_police(edit):
    r = _run("two_flyovers.json")
    node = r.nodes[2]
    pair = (node.if_to[1], node.if_to[4])  # to4's flyover at AS 2
    edit(node.router.monitor.entries, (1, *pair))
    _refused(r, {"r": "R1", "src": 1},
             f"AS 2 polices no grant of src 1 on pair {pair} until 10001043200")


def _readme_key_tables() -> dict[str, set[str]]:
    """Each label a ``####`` heading of README's Scenarios section gives in
    backticks -> the keys of the table under it, plus those of a label a
    "The keys of `label`" line names."""
    with open(README) as fh:
        text = fh.read()
    tables: dict[str, set[str]] = {}
    keys: set[str] = set()
    for line in text[text.index("## Scenarios"):text.index("## Demos")].splitlines():
        if line.startswith("#### "):
            keys = set()
            tables.update((label, keys) for label in re.findall(r"`([^`]+)`", line))
        elif line.startswith("The keys of `"):
            keys |= tables[line.split("`")[1]]
        elif line.startswith("| `"):
            keys.add(line.split("`")[1])
    return tables


def test_readme_key_tables_match_the_schema():
    """README documents every section of the scenario schema, and every key
    of each, and no key the schema does not accept."""
    schema = {"scenario": simnet._SCENARIO_KEYS, "estimator": simnet._ESTIMATOR_KEYS,
              "topology": simnet._TOPOLOGY_KEYS, "topo gen": simnet._TOPO_GEN_KEYS,
              "ases[]": simnet._AS_KEYS, "links[]": simnet._LINK_KEYS}
    # README names the key that picks a table in its heading, not in the table
    for tag, tables in (("type", simnet._FLOW_TYPES), ("kind", simnet._ADVERSARY_KINDS),
                        ("r", simnet._REQUIREMENTS)):
        schema.update({f"{tag}: {kind}": {k: v for k, v in keys.items() if k != tag}
                       for kind, (_, keys) in tables.items()})
    readme = _readme_key_tables()
    assert readme.keys() == schema.keys()
    for label, keys in schema.items():
        assert readme[label] == set(keys), label


def _shape(line: str) -> tuple[str, ...]:
    """A log line's kind and field names: its words after the time, each
    up to its ``=``."""
    return tuple(word.split("=")[0] for word in line.split()[1:])


def test_readme_documents_every_event_log_line():
    """Every kind of line the baseline and the best-effort flood log, with
    its fields, is a row of README's event-log table; without
    ``log_verdicts`` only the ``granted`` and ``emit_blocked`` lines stay."""
    with open(README) as fh:
        text = fh.read()
    section = text[text.index("### The event log"):text.index("## Scenarios")]
    documented = {_shape("0 " + line.split("`")[1])
                  for line in section.splitlines() if line.startswith("| `")}
    assert len(documented) == 5
    for name in ("baseline.json", "best_effort_flood.json"):
        cfg = _load(name)
        logged = simnet.run_scenario(cfg).log_lines
        assert {_shape(line) for line in logged} <= documented, name
        cfg["log_verdicts"] = False
        quiet = simnet.run_scenario(cfg).log_lines
        assert quiet == [line for line in logged
                         if _shape(line)[0] in ("granted", "emit_blocked")], name
    assert any(_shape(line)[0] == "granted" for line in quiet)


def test_the_protocol_defaults_are_the_configs():
    """A scenario that sets no protocol key runs RouterConfig's and
    EstimatorConfig's defaults; the filter and the monitor take their sizes
    from the caller."""
    net = simnet.Network({"topology": {"ases": [{"id": 1}, {"id": 2}],
                                       "links": [{"a": 1, "b": 2}]}})
    assert net.router_cfg == RouterConfig()
    with pytest.raises(TypeError):
        BloomFilter()
    with pytest.raises(TypeError):
        TrafficMonitor()


def test_building_a_network_keeps_the_op_counters(monkeypatch):
    monkeypatch.setattr(crypto, "ops", crypto.OpCounter())
    crypto.cbc_mac(bytes(16), bytes(16))
    simnet.Network(_load("baseline.json"))
    assert crypto.ops.macs >= 1
