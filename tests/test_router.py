"""Border router: admission paths, validation verdicts, demotion rules."""

import os
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flyover import admission, crypto, source, wire
from flyover.admission import DefaultPolicy, Grant
from flyover.router import Decision, Router, RouterConfig, TrafficClass
from flyover.policing import DedupWindow, Verdict
from flyover.topo import AllocationMatrix

from helpers import GBPS, S, estimator_cfg, full_setup, line_path, make_router, router_cfg, warm_router

SRC = 7
EPOCH_NS = 1_700_000_000_000_000_000  # a deployed clock: ns since 1970, late 2023
PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _single_hop(now=0, warm=True, **cfg_kw):
    r = make_router(as_id=20, config=router_cfg(**cfg_kw), now=now)
    plan = line_path([r], SRC)
    if warm:
        warm_router(r, SRC, [(1, 0), (0, 1)])
    return r, plan


# setup handling ---------------------------------------------------------------

def test_setup_valid_request_grants_and_unseals():
    r, plan = _single_hop()
    store, keys, plan = full_setup([r], plan, SRC, now=1000)
    g = store.get((r.as_id, 1, 0), now=1000)
    assert g is not None
    assert g.auth == crypto.compute_authenticator(r.secret, SRC, 1, 0)
    assert g.bw == 80 * GBPS  # 0.8 * 100G / 1 requester
    assert (SRC, 1, 0) in r.monitor.entries


def test_setup_stale_timestamp_no_entries_but_forwarded():
    r, plan = _single_hop(now=10 * S)
    keys = {r.as_id: crypto.derive_drkey(r.secret, SRC)}
    req = source.build_setup_request(keys, plan, SRC, ts_req=1 * S)  # 9 s old
    decision, entries = r.handle_setup(req, 0, 1, 0, now=10 * S)
    assert entries == []
    assert decision.traffic_class is TrafficClass.BEST_EFFORT  # still forwarded


def test_setup_bad_auth_no_entries():
    r, plan = _single_hop()
    keys = {r.as_id: bytes(16)}  # wrong key
    req = source.build_setup_request(keys, plan, SRC, ts_req=0)
    _, entries = r.handle_setup(req, 0, 1, 0, now=0)
    assert entries == []


def test_setup_replay_blocked_by_dedup():
    r, plan = _single_hop()
    keys = {r.as_id: crypto.derive_drkey(r.secret, SRC)}
    req = source.build_setup_request(keys, plan, SRC, ts_req=500)
    _, first = r.handle_setup(req, 0, 1, 0, now=1000)
    _, replayed = r.handle_setup(req, 0, 1, 0, now=2000)
    assert len(first) == 1 and replayed == []


def test_setup_forward_and_backward_entries_swap_interfaces():
    r, plan = _single_hop()
    store, keys, plan = full_setup([r], plan, SRC, now=0, backward=True)
    fwd = store.get((r.as_id, 1, 0), 0)
    bwd = store.get((r.as_id, 0, 1), 0)
    assert fwd is not None and bwd is not None
    assert fwd.auth == crypto.compute_authenticator(r.secret, SRC, 1, 0)
    assert bwd.auth == crypto.compute_authenticator(r.secret, SRC, 0, 1)
    assert fwd.auth != bwd.auth


def test_repeated_requests_same_alpha_single_monitor_entry():
    r, plan = _single_hop()
    auths = set()
    for k in range(3):
        store, keys, plan = full_setup([r], plan, SRC, now=1000 + k)
        auths.add(store.get((r.as_id, 1, 0), 2000).auth)
    assert len(auths) == 1
    assert len(r.monitor.entries) == 1


def test_hop_without_entry_forwards_without_work(monkeypatch):
    r, plan = _single_hop()
    monkeypatch.setattr(crypto, "ops", crypto.OpCounter())
    req = wire.SetupRequest(SRC, 0, ())  # no entry for this hop
    _, entries = r.handle_setup(req, 0, 1, 0, now=0)
    assert entries == [] and crypto.ops.macs == 0


def test_demand_aware_request_granted_with_demands_ignored():
    """The demand-carrying request variant verifies and is admitted; the
    default policy grants the same share as a demandless request."""
    r, plan = _single_hop()
    keys = {r.as_id: crypto.derive_drkey(r.secret, SRC)}
    plain = source.build_setup_request(keys, plan, SRC, ts_req=100)
    demand = source.build_setup_request(keys, plan, SRC, ts_req=200,
                                        bw_demand=5 * GBPS, bw_min=1 * GBPS)
    assert demand.bw_demand == 5 * GBPS
    _, e1 = r.handle_setup(plain, 0, 1, 0, now=150)
    _, e2 = r.handle_setup(demand, 0, 1, 0, now=250)
    assert len(e1) == len(e2) == 1
    assert e1[0].bw == e2[0].bw  # default policy ignores the demand fields


def test_demand_fields_are_bound_into_the_request_tag():
    r, plan = _single_hop()
    keys = {r.as_id: crypto.derive_drkey(r.secret, SRC)}
    demand = source.build_setup_request(keys, plan, SRC, ts_req=200,
                                        bw_demand=5 * GBPS, bw_min=1 * GBPS)
    e = demand.entries[0]
    tampered = wire.SetupRequest(demand.src, demand.ts_req, (e,), 6 * GBPS, 1 * GBPS)
    _, entries = r.handle_setup(tampered, 0, 1, 0, now=250)
    assert entries == []


# data validation ----------------------------------------------------------------

def _emit(store, plan, now, payload=b"x" * 100, len_b=0):
    return source.emit_packet(store, plan, SRC, payload, len_b, now)


def test_valid_packet_priority():
    r, plan = _single_hop()
    store, *_ = full_setup([r], plan, SRC, now=0)
    pkt = _emit(store, plan, now=100)
    d = r.handle_data(pkt, 0, 1, 0, now=150)
    assert d.traffic_class is TrafficClass.PRIORITY and d.verdict == "ok"


def test_every_decision_pins_its_verdict_and_class():
    P, B, D = TrafficClass.PRIORITY, TrafficClass.BEST_EFFORT, TrafficClass.DROP
    assert {m.name: (m.verdict, m.traffic_class) for m in Decision} == {
        "OK": ("ok", P),
        "STALE_TS": ("stale_ts", B),
        "MISSING_FIELD": ("missing_field", B),
        "REPLY_TOO_LONG": ("reply_too_long", B),
        "BAD_MAC": ("bad_mac", B),
        "OVERUSE": ("overuse", B),
        "EXPIRED": ("expired", B),
        "UNKNOWN": ("unknown", B),
        "REPLAY": ("replay", D),
        "GRANTED": ("granted", B),
        "NO_GRANT": ("no_grant", B),
    }
    # the log and the benchmark's digest read the verdict as a plain string
    assert all(type(m.verdict) is str for m in Decision)


def _flip_field(pkt):
    return wire.DataPacket(pkt.src, pkt.d_flag, pkt.ts_pkt, pkt.len_b,
                           ((0, bytes([pkt.rvfs[0][1][0] ^ 1]) + pkt.rvfs[0][1][1:]),),
                           pkt.bvfs, pkt.payload)


def test_different_packets_share_one_decision_object():
    r, plan = _single_hop()
    store, *_ = full_setup([r], plan, SRC, now=0)
    pkts = [_emit(store, plan, now=100 + k, payload=bytes([k]) * 10) for k in range(4)]
    got = [r.handle_data(p, 0, 1, 0, now=150) for p in pkts[:2]]
    got += [r.handle_data(_flip_field(p), 0, 1, 0, now=150) for p in pkts[2:]]
    assert got[0] is got[1] is Decision.OK
    assert got[2] is got[3] is Decision.BAD_MAC


def test_flipped_field_byte_demotes():
    r, plan = _single_hop()
    store, *_ = full_setup([r], plan, SRC, now=0)
    pkt = _emit(store, plan, now=100)
    d = r.handle_data(_flip_field(pkt), 0, 1, 0, now=150)
    assert d.traffic_class is TrafficClass.BEST_EFFORT and d.verdict == "bad_mac"


def test_stale_timestamp_demotes_without_crypto(aes_contexts, monkeypatch):
    r, plan = _single_hop()
    store, *_ = full_setup([r], plan, SRC, now=0)
    pkt = _emit(store, plan, now=0)
    monkeypatch.setattr(crypto, "ops", crypto.OpCounter())
    aes_contexts.clear()
    d = r.handle_data(pkt, 0, 1, 0, now=2 * S)  # 2 s old vs window 1.5 s
    assert d.traffic_class is TrafficClass.BEST_EFFORT and d.verdict == "stale_ts"
    assert crypto.ops.macs == 0 and aes_contexts["aes"] == 0


_DELTA, _LIFETIME = wire.DELTA_NS, wire.LIFETIME_NS


@pytest.mark.parametrize("age, accepted", [
    (-_DELTA - 1, False), (-_DELTA, True), (_LIFETIME + _DELTA, True),
    (_LIFETIME + _DELTA + 1, False)], ids=["ahead_past_delta", "ahead_by_delta",
                                           "oldest_accepted", "too_old"])
def test_setup_and_data_share_the_validity_window_edges(age, accepted):
    ts = 10 * S
    r, plan = _single_hop()
    store, keys, plan = full_setup([r], plan, SRC, now=ts - _DELTA - 1)
    pkt = _emit(store, plan, now=ts)
    req = source.build_setup_request(keys, plan, SRC, ts_req=ts)
    assert r.handle_data(pkt, 0, 1, 0, now=ts + age) is (
        Decision.OK if accepted else Decision.STALE_TS)
    _, entries = r.handle_setup(req, 0, 1, 0, now=ts + age)
    assert bool(entries) is accepted


def test_missing_field_demotes_without_crypto(aes_contexts, monkeypatch):
    r, plan = _single_hop()
    monkeypatch.setattr(crypto, "ops", crypto.OpCounter())
    aes_contexts.clear()
    pkt = wire.DataPacket(SRC, False, 100, 0, (), (), b"best effort only")
    d = r.handle_data(pkt, 0, 1, 0, now=100)
    assert d.traffic_class is TrafficClass.BEST_EFFORT and d.verdict == "missing_field"
    assert crypto.ops.macs == 0 and aes_contexts["aes"] == 0


def test_replay_drops_and_charges_no_bucket():
    r, plan = _single_hop()
    store, *_ = full_setup([r], plan, SRC, now=0)
    pkt = _emit(store, plan, now=100)
    assert r.handle_data(pkt, 0, 1, 0, now=150).traffic_class is TrafficClass.PRIORITY
    charged = r.monitor.entries[(SRC, 1, 0)].ts
    d = r.handle_data(pkt, 0, 1, 0, now=160)
    assert d.traffic_class is TrafficClass.DROP and d.verdict == "replay"
    assert r.monitor.entries[(SRC, 1, 0)].ts == charged


def test_expired_reservation_demotes_despite_valid_alpha():
    r, plan = _single_hop()
    store, *_ = full_setup([r], plan, SRC, now=0)
    g = store.get((r.as_id, 1, 0), 0)
    late = g.ts_exp + 100
    # model a misbehaving sender that keeps using the authenticator
    store.grants[(r.as_id, 1, 0)].ts_exp = late + 10 * S
    pkt = source.emit_packet(store, plan, SRC, b"y", 0, late)
    d = r.handle_data(pkt, 0, 1, 0, now=late + 1)
    assert d.traffic_class is TrafficClass.BEST_EFFORT and d.verdict == "expired"


def test_unknown_source_demotes():
    r, plan = _single_hop()
    alpha = crypto.compute_authenticator(r.secret, 999, 1, 0)
    pkt = wire.DataPacket(999, False, 100, 0,
                          ((0, crypto.compute_validation_field(alpha, 100, 126)),),
                          (), b"z" * 100)
    assert pkt.total_len == 126
    d = r.handle_data(pkt, 0, 1, 0, now=120)
    assert d.traffic_class is TrafficClass.BEST_EFFORT and d.verdict == "unknown"


def test_overuse_demotes_excess():
    # tiny 10 us burst window: ~97 packets of burst, the rest overuse
    r, plan = _single_hop(bucket_window_ns=10_000)
    store, *_ = full_setup([r], plan, SRC, now=0)
    classes = []
    t = 100
    for k in range(400):
        pkt = source.emit_packet(store, plan, SRC, bytes(1000), 0, t)
        classes.append(r.handle_data(pkt, 0, 1, 0, now=t).traffic_class)
        t += 1  # absurd rate: everything beyond the burst demotes
    assert classes.count(TrafficClass.PRIORITY) > 50
    assert classes.count(TrafficClass.BEST_EFFORT) > 200
    assert TrafficClass.DROP not in classes


def test_exactly_two_macs_per_validated_packet(aes_contexts, monkeypatch):
    """C8 at the router: each validated hop costs 2 MACs, 0 PRFs and one
    fresh AES context, for the recomputed authenticator (alpha). Every
    packet of the same source and pair builds it again: nothing caches
    alpha."""
    r, plan = _single_hop()
    store, *_ = full_setup([r], plan, SRC, now=0)
    for k in range(5):
        pkt = _emit(store, plan, now=100 + k)
        monkeypatch.setattr(crypto, "ops", crypto.OpCounter())
        aes_contexts.clear()
        d = r.handle_data(pkt, 0, 1, 0, now=100 + k)
        assert d.traffic_class is TrafficClass.PRIORITY
        assert crypto.ops.macs == 2 and crypto.ops.prf_calls == 0
        assert aes_contexts["aes"] == 1


@pytest.mark.parametrize("forged", [False, True], ids=["admitted", "forged"])
def test_one_setup_admission_costs_one_derivation_and_one_hash(aes_contexts, monkeypatch,
                                                               forged):
    """The setup-path counterpart of C8, at one router in Bloom mode: a
    forward+backward request costs 1 key derivation, 1 AES context (the
    DRKey's), 1 request-auth MAC and 1 hash of the source into Bloom
    positions, which both directions' estimators share, plus 1
    authenticator MAC and 1 seal per grant. A forged auth stops after the
    request-auth MAC: no hash, no seal."""
    r, plan = _single_hop(now=S, estimator_kw={"exact": False})
    plan = source.PathPlan(plan.hops, plan.forward_hops, frozenset({0}), plan.name)
    key = bytes(16) if forged else crypto.derive_drkey(r.secret, SRC)
    req = source.build_setup_request({r.as_id: key}, plan, SRC, ts_req=S)
    calls = Counter()
    for owner, name in ((crypto, "derive_drkey"), (crypto, "compute_request_auth"),
                        (crypto, "compute_authenticator"), (crypto, "seal_grant"),
                        (admission.hashlib, "blake2b")):
        def counting(*args, _fn=getattr(owner, name), _name=name, **kw):
            calls[_name] += 1
            return _fn(*args, **kw)
        monkeypatch.setattr(owner, name, counting)
    monkeypatch.setattr(crypto, "ops", crypto.OpCounter())
    aes_contexts.clear()
    _, entries = r.handle_setup(req, 0, 1, 0, now=S)
    grants = 0 if forged else 2
    assert len(entries) == grants
    assert calls == Counter({"derive_drkey": 1, "compute_request_auth": 1,
                             "compute_authenticator": grants, "seal_grant": grants,
                             "blake2b": 0 if forged else 1})
    assert (crypto.ops.macs, crypto.ops.prf_calls) == (1 + grants, 1)
    assert aes_contexts["aes"] == 1


def test_validation_is_stateless_beyond_monitor_entry():
    r, plan = _single_hop()
    store, *_ = full_setup([r], plan, SRC, now=0)
    entry = r.monitor.entries[(SRC, 1, 0)]
    bw, exp = entry.bw, entry.ts_exp
    decisions = []
    for k in range(6):
        pkt = _emit(store, plan, now=1000 + k * 10_000)
        if k == 3:  # wipe and re-register identical terms mid-stream
            del r.monitor.entries[(SRC, 1, 0)]
            r.monitor.register(SRC, bw, exp, 1, 0, now=1000 + k * 10_000)
        decisions.append(r.handle_data(pkt, 0, 1, 0, now=1000 + k * 10_000).traffic_class)
    assert decisions == [TrafficClass.PRIORITY] * 6


# backward direction ---------------------------------------------------------------

def _bidir_setup():
    r, plan = _single_hop()
    store, keys, plan = full_setup([r], plan, SRC, now=0, backward=True)
    return r, plan, store


def test_backward_reply_within_budget_priority():
    r, plan, store = _bidir_setup()
    fwd = source.emit_packet(store, plan, SRC, b"ping", 200, now=100)
    reply = source.build_reply(fwd, b"pong")
    d = r.handle_data(reply, 0, 1, 0, now=150)
    assert d.traffic_class is TrafficClass.PRIORITY


def test_backward_reply_exactly_at_budget():
    r, plan, store = _bidir_setup()
    fwd = source.emit_packet(store, plan, SRC, b"ping", 200, now=100)
    reply = source.build_reply(fwd, bytes(source.max_reply_payload(fwd)))
    assert reply.total_len == fwd.len_b
    assert r.handle_data(reply, 0, 1, 0, now=150).traffic_class is TrafficClass.PRIORITY


def test_backward_reply_over_budget_demoted(aes_contexts, monkeypatch):
    r, plan, store = _bidir_setup()
    fwd = source.emit_packet(store, plan, SRC, b"ping", 60, now=100)
    with pytest.raises(source.ReplyTooLong):
        source.build_reply(fwd, bytes(200))
    # a forged oversized reply is demoted at the router by the length
    # check, before any crypto
    forged = wire.DataPacket(SRC, True, fwd.ts_pkt, fwd.len_b, (), fwd.bvfs, bytes(200))
    monkeypatch.setattr(crypto, "ops", crypto.OpCounter())
    aes_contexts.clear()
    d = r.handle_data(forged, 0, 1, 0, now=150)
    assert d.traffic_class is TrafficClass.BEST_EFFORT
    assert d.verdict == "reply_too_long"
    assert crypto.ops.macs == 0 and aes_contexts["aes"] == 0


def test_backward_replay_drops():
    r, plan, store = _bidir_setup()
    fwd = source.emit_packet(store, plan, SRC, b"ping", 200, now=100)
    reply = source.build_reply(fwd, b"pong")
    assert r.handle_data(reply, 0, 1, 0, now=150).traffic_class is TrafficClass.PRIORITY
    assert r.handle_data(reply, 0, 1, 0, now=160).traffic_class is TrafficClass.DROP


def test_forward_and_its_reply_are_distinct_for_dedup():
    r, plan, store = _bidir_setup()
    fwd = source.emit_packet(store, plan, SRC, b"ping", 200, now=100)
    assert r.handle_data(fwd, 0, 1, 0, now=120).traffic_class is TrafficClass.PRIORITY
    reply = source.build_reply(fwd, b"pong")  # same src and timestamp, D=1
    assert r.handle_data(reply, 0, 1, 0, now=140).traffic_class is TrafficClass.PRIORITY


# demotion-never-drop fuzz -----------------------------------------------------------

def test_corruption_never_causes_drop():
    """A corrupted never-seen packet demotes, never drops; a validating
    corruption with an unchanged dedup key makes the original the replay
    (same header, different payload is exactly the replay defense)."""
    rng = random.Random(5)
    r, plan = _single_hop()
    store, *_ = full_setup([r], plan, SRC, now=0)
    for trial in range(300):
        now = 10_000 + trial * 1000
        pkt = source.emit_packet(store, plan, SRC, rng.randbytes(rng.randrange(200)), 0, now)
        raw = bytearray(wire.encode(pkt))
        pos = rng.randrange(1, len(raw))  # keep the type byte
        raw[pos] ^= 1 << rng.randrange(8)
        try:
            mutated = wire.decode(bytes(raw))
        except wire.DecodeError:
            continue  # malformed frames are best-effort junk upstream
        if not isinstance(mutated, wire.DataPacket) or mutated == pkt:
            continue
        d = r.handle_data(mutated, 0, 1, 0, now=now)
        assert d.traffic_class is not TrafficClass.DROP
        d2 = r.handle_data(pkt, 0, 1, 0, now=now)
        same_key = (mutated.src, mutated.ts_pkt, mutated.d_flag) == (pkt.src, pkt.ts_pkt, pkt.d_flag)
        if d.traffic_class is TrafficClass.PRIORITY and same_key:
            assert d2.traffic_class is TrafficClass.DROP and d2.verdict == "replay"
        else:
            assert d2.traffic_class is TrafficClass.PRIORITY


# data validation never calls admission ---------------------------------------------

def _no_admission(*args):
    raise AssertionError("data validation called admission")


def test_data_validation_never_calls_admission(monkeypatch):
    """Packets on a grant, before and after its expiry, reach neither the
    policy nor the guard, and leave the reservation's expiry as it is: only
    the source's setup request renews a reservation."""
    r, plan = _single_hop()
    store, *_ = full_setup([r], plan, SRC, now=0)
    exp = r.monitor.entries[(SRC, 1, 0)].ts_exp
    monkeypatch.setattr(DefaultPolicy, "get_bandwidth", _no_admission)
    monkeypatch.setattr(Router, "note_grant", _no_admission)
    for now, decision in ((S, Decision.OK), (exp - S, Decision.OK),
                          (exp + S, Decision.EXPIRED), (exp + 2 * S, Decision.EXPIRED)):
        pkt = source.emit_packet(store, plan, SRC, b"x" * 100, 0, now, allow_expired=True)
        assert r.handle_data(pkt, 0, 1, 0, now=now) is decision, now
    assert r.monitor.entries[(SRC, 1, 0)].ts_exp == exp


# no-over-allocation guard ------------------------------------------------------------

PAIRS = ((0, 1), (1, 2))


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(0, 30),
       steps=st.lists(st.tuples(st.sampled_from(PAIRS), st.integers(0, 5), st.integers(0, 10),
                                st.integers(-3, 12), st.integers(-6, 6)), max_size=60))
def test_guard_total_matches_resum_under_any_clock(capacity, steps):
    """The running total equals a re-sum of the live holders after every
    grant, through replacements, expiries and a clock that runs backwards:
    the guard raises exactly when that sum exceeds the capacity, and names
    it."""
    r = Router(1, bytes(16), AllocationMatrix.from_capacities([2 * capacity] * 3), router_cfg())
    held: dict = {}
    now = 100
    for pair, src, bw, life, dt in steps:
        now += dt
        held.setdefault(pair, {})[src] = (bw, now + life)
        expected = sum(b for b, exp in held[pair].values() if exp > now)
        try:
            r.note_grant(src, pair, Grant(bw, now + life), now, ts_req=now)
        except AssertionError as exc:
            assert str(exc) == f"over-allocation on pair {pair}: {expected} > {capacity}"
        else:
            assert expected <= capacity
    assert r.active_grants == held


@pytest.mark.parametrize("before, live", [(1, True), (0, False)], ids=["ts_exp-1", "ts_exp"])
def test_the_source_the_monitor_and_the_guard_end_a_grant_together(before, live):
    """A grant is live for the source's store, the monitor and the
    over-allocation guard at ``ts_exp - 1``, and dead for all three from
    ``ts_exp`` on."""
    ts_exp, cap = 5 * S, 10 * GBPS
    now = ts_exp - before
    r = Router(20, bytes(16), AllocationMatrix.from_capacities([cap, cap]), router_cfg())
    r.monitor.register(SRC, cap, ts_exp, 0, 1, now=0)
    r.note_grant(SRC, (0, 1), Grant(cap, ts_exp), 0, ts_req=0)
    store = source.GrantStore()
    store.grants[r.as_id, 0, 1] = source.FlyoverGrant(cap, ts_exp, bytes(16))
    assert (store.get((r.as_id, 0, 1), now) is not None) is live
    assert r.monitor.police(SRC, 1, 0, 1, now) is (Verdict.CONFORM if live else Verdict.EXPIRED)
    # another source's 1 bps overfills the pair only while the full grant counts
    try:
        r.note_grant(SRC + 1, (0, 1), Grant(1, ts_exp + S), now, ts_req=now)
    except AssertionError:
        counted = True
    else:
        counted = False
    assert counted is live


def test_the_grants_the_monitor_passes_never_sum_past_the_capacity():
    """A tentative grant ends at the rotation where the next interval's
    tentative grant starts. It stops conforming at that nanosecond, as the
    guard stops counting it, so the grants whose traffic conforms hold the
    pair's capacity, not 1.2 times it."""
    cap = GBPS
    cfg = router_cfg(estimator_kw=dict(interval_ns=1000, min_requesters=2, tentative_slots=1))
    r = Router(20, bytes(16), AllocationMatrix.from_capacities([cap, cap]), cfg)
    r.policy.estimator_for(0, 1).warm_up({10, 11})
    plan = source.PathPlan((source.PathHop(r.as_id, 0, 1),))
    grants = {}
    for src, t in ((10, 1), (11, 1), (20, 5), (21, 1000)):
        keys = {r.as_id: crypto.derive_drkey(r.secret, src)}
        _, (entry,) = r.handle_setup(source.build_setup_request(keys, plan, src, t), 0, 0, 1, t)
        grants[src] = (entry.bw, entry.ts_exp)
    assert grants == {10: (cap * 2 // 5, 1001), 11: (cap * 2 // 5, 1001),
                      20: (cap // 5, 1000), 21: (cap // 5, 2000)}
    conforming = {src for src in grants
                  if r.monitor.police(src, 1, 0, 1, 1000) is Verdict.CONFORM}
    assert sum(grants[src][0] for src in conforming) <= cap
    assert conforming == {10, 11, 21}


def test_a_raise_after_a_decrease_keeps_the_capacity_the_live_grants_hold():
    """Capacity keeps every value an update replaced until one validity
    period after it: a decrease then a smaller raise leave the grant made
    under the first entry counted against that entry, so a correctly
    admitted grant under the raised entry does not trip the guard."""
    cfg = router_cfg(estimator_kw=dict(interval_ns=S, min_requesters=1, tentative_slots=0))
    r = Router(20, bytes(16), AllocationMatrix.from_capacities([100, 100]), cfg)
    r.policy.estimator_for(1, 0).warm_up({7, 8})
    plan = source.PathPlan((source.PathHop(r.as_id, 1, 0),))

    def setup(src, t):
        keys = {r.as_id: crypto.derive_drkey(r.secret, src)}
        _, entries = r.handle_setup(source.build_setup_request(keys, plan, src, t), 0, 1, 0, t)
        return [(e.bw, e.ts_exp) for e in entries]

    assert setup(7, 0) == [(40, S)]
    r.matrix.update(1, 0, 50, now=10, validity_ns=S)
    r.matrix.update(1, 0, 60, now=20, validity_ns=S)
    assert r.matrix.capacity_value(1, 0, 30) == 100  # src 7's 40 lives until S
    assert setup(8, 30) == [(24, 30 + S)]
    assert r.matrix.capacity_value(1, 0, S + 20) == 60


def _over_grant(policy, src, member, ingress, egress, now):
    return Grant(policy.matrix.capacity_value(ingress, egress, now) + 1, now + S)


def test_over_granting_policy_trips_the_guard(monkeypatch):
    r, plan = _single_hop()
    monkeypatch.setattr(DefaultPolicy, "get_bandwidth", _over_grant)
    with pytest.raises(AssertionError, match="over-allocation"):
        full_setup([r], plan, SRC, now=0)


def test_over_granting_policy_fails_the_control_benchmark(monkeypatch):
    """The control workload's oracle reports the guard's assertion as a
    failed handshake."""
    monkeypatch.syspath_prepend(PERFBENCH)
    from wl_control import Control

    wl = Control(seed=3, size="tiny")
    state = wl.setup()
    monkeypatch.setattr(DefaultPolicy, "get_bandwidth", _over_grant)
    out = wl.run_batch(state, 0)
    assert out.failed > 0
    assert any("over-allocation" in f for f in out.failures)


def test_router_built_at_zero_admits_at_deployed_clock():
    """Estimator catch-up over ~1.7e8 idle intervals is bounded."""
    r = make_router(config=RouterConfig(), now=0)
    plan = line_path([r], SRC)
    t0 = time.perf_counter()
    store, *_ = full_setup([r], plan, SRC, now=EPOCH_NS)
    assert time.perf_counter() - t0 < 1.0
    assert len(store.grants) == 1


@pytest.mark.parametrize("bad", [dict(bucket_window_ns=0), dict(bucket_window_ns=-1)],
                         ids=["zero_bucket_window", "negative_bucket_window"])
def test_router_config_rejects_out_of_range_times(bad):
    RouterConfig(bucket_window_ns=1)  # the smallest valid
    with pytest.raises(ValueError):
        RouterConfig(**bad)
