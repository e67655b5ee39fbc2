"""Scenario engine: determinism, priority protection, adversaries, skew."""

import hashlib
import json
import os
import re

import pytest

from flyover import crypto, simnet, source, wire
from flyover.router import Router, TrafficClass

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
    assert flow.granted_at is not None
    assert flow.stats.delivered_priority > 0


# best-effort flood (R4) ---------------------------------------------------------

def test_flood_cannot_touch_reservation_traffic():
    r = _run("best_effort_flood.json")
    st = r.flows["critical"].stats
    assert st.delivered == st.sent and st.delivered_priority == st.sent
    _require(r, {"r": "R4", "flow": "critical"})
    flood = r.flows["flood"].stats
    assert flood.dropped > 0  # the flood itself saturates and loses packets


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


def test_r5_reads_the_first_policing_as_on_the_path():
    """Relabelling transit AS 2 as AS 5, above the destination AS 3, keeps
    every verdict: R5 reads the overuser's first policing hop, whatever the
    AS ids."""
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
    r = _run("observer_skew.json")
    st = r.flows["critical"].stats
    assert st.delivered == st.sent and st.delivered_priority == st.sent
    assert st.replies_received > 0  # bidirectional replies also validated


def test_no_reply_when_len_b_leaves_no_room():
    """A backward flow whose ``len_b`` cannot hold a reply's header gets none,
    and its forward packets still arrive at priority."""
    cfg = _load("baseline.json")
    cfg["flows"][0].update(backward=True, len_b=0)
    st = simnet.run_scenario(cfg).flows["critical"].stats
    assert (st.sent, st.delivered, st.delivered_priority, st.replies_received) == (592, 592, 592, 0)


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
    assert flow.grant_expiry > 2 * r.estimator_cfg.interval_ns
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
    assert r.flows["critical"].grant_expiry > r.estimator_cfg.interval_ns  # it renewed
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
        if frame.origin == "critical":
            drops.append((net.loop.now // 10**6, type(frame.msg).__name__))
        frame_dropped(net, frame, why)

    monkeypatch.setattr(simnet.Network, "_frame_dropped", recording)
    r = simnet.run_scenario(_reverse_flood_renewal())
    assert drops == [(6406, "SetupResponse"), (7203, "SetupRequest"), (9203, "SetupRequest"),
                     (11203, "SetupRequest")]
    st = r.flows["critical"].stats
    assert (st.sent, st.delivered, st.dropped) == (1657, 1657, 0)


@pytest.mark.parametrize("skew, requests", [("0ms", [0]), ("300ms", [0, 801_000_072])],
                         ids=["in_time", "past_the_local_expiry"])
def test_a_renewal_past_its_grant_falls_back_to_a_request(monkeypatch, skew, requests):
    """The renewal fires eps/5 before the grant's expiry by the network's
    clock. A source clock 300 ms ahead is already past that expiry, so the
    renewal finds no usable grant and the flow sends a best-effort request
    instead; either way the response extends the grant."""
    sent = []
    send_setup = simnet.ReservationFlow._send_setup

    def recording(flow):
        sent.append(flow.net.loop.now)
        send_setup(flow)

    monkeypatch.setattr(simnet.ReservationFlow, "_send_setup", recording)
    cfg = _load("baseline.json")
    cfg.update(duration="1500ms", clock_skew={"1": skew})
    cfg["estimator"]["interval"] = "1s"
    cfg["flows"][0].update(renew=True, stop_at="100ms")  # stopped: no emit sees the lapse
    flow = simnet.run_scenario(cfg).flows["critical"]
    assert sent == requests
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
        copies = [f for f in sent if f.is_replay_copy]
        assert len(copies) == r.adversaries["echo"].injected > 0
        # a copy holds the very message of the frame the replayer saw, at its size
        originals = {id(f.msg): f for f in sent if not f.is_replay_copy}
        assert all(originals[id(c.msg)].msg is c.msg and originals[id(c.msg)].size == c.size
                   for c in copies)


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(SCENARIOS) if f.endswith(".json")))
def test_every_scenario_frame_encodes_to_its_size(monkeypatch, name):
    """The codec's range checks hold over all simulated traffic: in every
    committed scenario, every message a frame carries encodes, to the
    frame's size."""
    sent, visited = _checking_frames(monkeypatch)
    _run(name)
    assert sent and visited


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
    assert r.flows["critical"].grant_expiry > r.estimator_cfg.interval_ns  # it renewed
    embedded = [req for req in admitted if any(req is msg for msg in decoded)]
    assert decoded and all(isinstance(msg, wire.SetupRequest) for msg in decoded)
    assert len(decoded) == len(embedded) == 4  # one renewal, four routers


# incremental deployment ----------------------------------------------------------------

def test_partial_deployment_still_delivers():
    cfg = _load("baseline.json")
    cfg["topology"]["ases"][2]["enabled"] = False  # AS 3 does not participate
    cfg["flows"][0]["rate"] = "2Mbps"
    r = simnet.run_scenario(cfg)
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
    assert flow.granted_at is not None
    assert flow.stats.sent == flow.stats.delivered == 1205


def test_zero_composed_rate_is_refused():
    cfg = _load("baseline.json")
    cfg["topology"]["ases"][1]["matrix"] = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]  # AS 2 grants 0
    cfg["flows"][0]["rate"] = "auto"
    with pytest.raises(simnet.ConfigError, match="^flow critical: no usable composed rate$"):
        simnet.run_scenario(cfg)


def test_an_as_numbers_its_interfaces_by_neighbour_id_whatever_the_links_order():
    """AS 2's matrix reads interface 1 as its link to AS 1 and interface 2
    as its link to AS 3, however ``links`` lists them: the flow 1 -> 3 is
    granted 0.8 of entry [1][2], never of [2][1], and both orders give the
    same run."""
    links = [{"a": 1, "b": 2, "capacity": "10Mbps"}, {"a": 2, "b": 3, "capacity": "10Mbps"}]
    matrix = [[0, 4_000_000, 4_000_000], [4_000_000, 0, 3_000_000], [4_000_000, 6_000_000, 0]]
    runs = []
    for order in (links, links[::-1]):
        r = simnet.run_scenario({
            "seed": 1, "duration": "1s", "warm_start": True,
            "estimator": {"min_requesters": 1, "tentative_slots": 0},
            "topology": {"ases": [{"id": 1}, {"id": 2, "matrix": matrix}, {"id": 3}],
                         "links": order},
            "flows": [{"name": "f", "src": 1, "path": [1, 2, 3], "stop_at": "900ms"}]})
        assert r.flows["f"].store.grants[(2, 1, 2, wire.FORWARD)].bw == 2_400_000
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
    reservations."""
    cfg = _load("baseline.json")
    cfg["warm_start"] = True
    cfg.setdefault(section, []).append(spec)
    net = simnet.Network(cfg)
    other = "adversaries" if lands_in == "flows" else "flows"
    assert "x" in getattr(net, lands_in) and "x" not in getattr(net, other)
    if warm is None:
        return
    plan = net.plan_for(tuple(spec["path"]), False)
    for hop in plan.hops:
        policy = net.nodes[hop.as_id].router.policy
        for pair in ((hop.ingress, hop.egress), (hop.egress, hop.ingress)):
            assert (2 in policy.estimator_for(*pair).granted) is warm, (hop, pair)


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
    r.adversaries["forger"].succeeded = 3  # edit: three forgeries rode priority
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
    entry = r.nodes[3].router.monitor.entries[(1, wire.FORWARD)]
    entry.bucket.ts = entry.ts_exp + r.router_cfg.bucket_window_ns + 1  # edit
    _refused(r, {"r": "R5", "no_expired_conform": True}, "AS 3 charged src 1 past expiry")


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


def test_building_a_network_keeps_the_op_counters():
    crypto.ops.reset()
    crypto.cbc_mac(bytes(16), bytes(16))
    simnet.Network(_load("baseline.json"))
    assert crypto.ops.macs >= 1
