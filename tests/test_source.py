"""Source service: request building, grant handling, composition, emission."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from flyover import crypto, source, wire
from flyover.router import TrafficClass

from aes_ref import ref_cbc_mac
from helpers import GBPS, S, full_setup, line_path, make_router, warm_router

SRC = 7


def _chain(n, entry_bw=100 * GBPS, warm=True):
    routers = [make_router(as_id=20 + i, entry_bw=entry_bw) for i in range(n)]
    plan = line_path(routers, SRC)
    if warm:
        for i, r in enumerate(routers):
            hop = plan.hops[i]
            warm_router(r, SRC, [(hop.ingress, hop.egress), (hop.egress, hop.ingress)])
    return routers, plan


# build_setup_request --------------------------------------------------------------

def test_build_setup_all_hops_forward():
    routers, plan = _chain(5)
    keys = {r.as_id: crypto.derive_drkey(r.secret, SRC) for r in routers}
    req = source.build_setup_request(keys, plan, SRC, ts_req=1000)
    assert len(req.entries) == 5
    assert all(e.flag_r and not e.flag_b for e in req.entries)
    assert [e.hop for e in req.entries] == [0, 1, 2, 3, 4]


def test_build_setup_single_hop_subset():
    routers, plan = _chain(5)
    partial = source.PathPlan(plan.hops, frozenset({3}))
    keys = {r.as_id: crypto.derive_drkey(r.secret, SRC) for r in routers}
    req = source.build_setup_request(keys, partial, SRC, ts_req=1000)
    assert len(req.entries) == 1 and req.entries[0].hop == 3
    # other routers see no entry for themselves and just forward
    _, entries = routers[0].handle_setup(req, 0, 1, 2, now=1000)
    assert entries == []
    hop = plan.hops[3]
    _, entries3 = routers[3].handle_setup(req, 3, hop.ingress, hop.egress, now=1000)
    assert len(entries3) == 1


def test_build_setup_missing_key():
    routers, plan = _chain(2)
    keys = {routers[0].as_id: crypto.derive_drkey(routers[0].secret, SRC)}
    with pytest.raises(source.MissingKey):
        source.build_setup_request(keys, plan, SRC, ts_req=0)


def test_tampered_flag_fails_verification():
    routers, plan = _chain(1)
    keys = {routers[0].as_id: crypto.derive_drkey(routers[0].secret, SRC)}
    req = source.build_setup_request(keys, plan, SRC, ts_req=1000)
    entry = req.entries[0]
    tampered = wire.SetupRequest(
        req.src, req.ts_req,
        (wire.ReqEntry(entry.hop, entry.flag_r, not entry.flag_b, entry.auth),),
    )
    hop = plan.hops[0]
    _, entries = routers[0].handle_setup(tampered, 0, hop.ingress, hop.egress, now=1000)
    assert entries == []


# ingest_response ------------------------------------------------------------------

def test_ingest_well_formed_three_hops():
    routers, plan = _chain(3)
    store, keys, plan = full_setup(routers, plan, SRC, now=0)
    assert len(store.grants) == 3


def test_ingest_isolates_corrupted_entry():
    routers, plan = _chain(3)
    keys = {r.as_id: crypto.derive_drkey(r.secret, SRC) for r in routers}
    req = source.build_setup_request(keys, plan, SRC, ts_req=0)
    entries = []
    for i, r in enumerate(routers):
        hop = plan.hops[i]
        _, es = r.handle_setup(req, i, hop.ingress, hop.egress, now=0)
        entries.extend(es)
    bad = entries[1]
    entries[1] = wire.RespEntry(bad.hop, bad.direction, bad.nonce,
                                bytes(16), bad.tag, bad.bw, bad.ts_exp)
    resp = wire.SetupResponse(SRC, 0, tuple(entries))
    store = source.GrantStore()
    accepted = source.ingest_response(store, keys, resp, plan)
    assert len(accepted) == 2 and len(store.grants) == 2


def test_renewal_keeps_alpha_updates_terms():
    routers, plan = _chain(1)
    store, keys, plan = full_setup(routers, plan, SRC, now=0)
    key = (routers[0].as_id, 1, 0, wire.FORWARD)
    alpha0, exp0 = store.grants[key].auth, store.grants[key].ts_exp
    store2, *_ = full_setup(routers, plan, SRC, now=5 * S)
    assert store2.grants[key].auth == alpha0
    assert store2.grants[key].ts_exp == exp0 + 5 * S


# compose ---------------------------------------------------------------------------

def _store_with(grants: dict[tuple, int], exp=10**15) -> source.GrantStore:
    st = source.GrantStore()
    for key, bw in grants.items():
        st.put(key, source.FlyoverGrant(bw, exp, bytes(16)))
    return st


def _plan(name, hops):
    return source.PathPlan(tuple(source.PathHop(*h) for h in hops), name=name)


def test_compose_shared_flyover_concurrent_and_maximum():
    # two paths share transit AS 50's pair (1, 2) with bw 10; other hops huge
    shared = (50, 1, 2)
    p1 = _plan("p1", [shared, (61, 1, 0)])
    p2 = _plan("p2", [shared, (62, 1, 0)])
    st = _store_with({
        (50, 1, 2, wire.FORWARD): 10,
        (61, 1, 0, wire.FORWARD): 100,
        (62, 1, 0, wire.FORWARD): 100,
    })
    conc = source.compose(st, [p1, p2], source.CONCURRENT, now=0)
    assert conc.path_rates == {"p1": Fraction(5), "p2": Fraction(5)}
    maxi = source.compose(st, [p1, p2], source.MAXIMUM, now=0)
    assert maxi.path_rates == {"p1": Fraction(10), "p2": Fraction(10)}
    assert len(maxi.schedule) == 2  # mutually exclusive use


def test_compose_single_path_min_rule():
    p = _plan("p", [(50, 1, 2), (51, 1, 2), (52, 1, 0)])
    st = _store_with({
        (50, 1, 2, wire.FORWARD): 8,
        (51, 1, 2, wire.FORWARD): 4,
        (52, 1, 0, wire.FORWARD): 6,
    })
    for strategy in (source.CONCURRENT, source.MAXIMUM):
        plan = source.compose(st, [p], strategy, now=0)
        assert plan.path_rates["p"] == Fraction(4)


def test_compose_expired_grant_flags_path():
    p = _plan("p", [(50, 1, 2), (51, 1, 0)])
    st = _store_with({(50, 1, 2, wire.FORWARD): 8, (51, 1, 0, wire.FORWARD): 9}, exp=100)
    plan = source.compose(st, [p], source.CONCURRENT, now=200)
    assert plan.path_rates["p"] == 0 and plan.flagged == {"p"}


def test_compose_concurrent_feasible_randomized():
    """For every flyover, the path shares sum to at most its bandwidth."""
    rng = random.Random(9)
    for _ in range(100):
        n_fly = rng.randrange(2, 8)
        fly = [(100 + i, 1, 2) for i in range(n_fly)]
        bws = {(*f, wire.FORWARD): rng.randrange(1, 10**12) for f in fly}
        st = _store_with(bws)
        paths = []
        for p in range(rng.randrange(1, 6)):
            hops = rng.sample(fly, rng.randrange(1, n_fly + 1))
            paths.append(_plan(f"p{p}", hops))
        plan = source.compose(st, paths, source.CONCURRENT, now=0)
        per_fly: dict[tuple, Fraction] = {}
        for (fkey, pname), share in plan.flyover_shares.items():
            per_fly[fkey] = per_fly.get(fkey, Fraction(0)) + share
        for fkey, total in per_fly.items():
            assert total <= Fraction(bws[fkey])


def test_compose_maximum_schedule_exclusive():
    fly = (50, 1, 2)
    paths = [_plan(f"p{i}", [fly]) for i in range(4)]
    st = _store_with({(*fly, wire.FORWARD): 10})
    plan = source.compose(st, paths, source.MAXIMUM, now=0)
    slots = [slot for slot, _ in plan.schedule]
    assert len(slots) == len(set(slots)) == 4  # one path per slot, ever


def test_compose_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        source.compose(source.GrantStore(), [], "fastest", now=0)


# emit + cross-module validation ----------------------------------------------------

def test_emit_five_hop_packet_validates_everywhere():
    routers, plan = _chain(5)
    store, keys, plan = full_setup(routers, plan, SRC, now=0)
    pkt = source.emit_packet(store, plan, SRC, bytes(1000), 0, now=500)
    assert pkt.total_len == 1042
    for i, r in enumerate(routers):
        hop = plan.hops[i]
        d = r.handle_data(pkt, i, hop.ingress, hop.egress, now=600)
        assert d.traffic_class is TrafficClass.PRIORITY, i


def test_emit_timestamps_change_fields():
    routers, plan = _chain(2)
    store, keys, plan = full_setup(routers, plan, SRC, now=0)
    p1 = source.emit_packet(store, plan, SRC, b"same", 0, now=100)
    p2 = source.emit_packet(store, plan, SRC, b"same", 0, now=101)
    assert all(a[1] != b[1] for a, b in zip(p1.rvfs, p2.rvfs))


def test_emit_missing_grant_raises():
    routers, plan = _chain(2)
    store, keys, plan = full_setup(routers, plan, SRC, now=0)
    del store.grants[(routers[1].as_id, 1, 0, wire.FORWARD)]
    with pytest.raises(source.MissingGrant):
        source.emit_packet(store, plan, SRC, b"x", 0, now=100)


def test_bidirectional_reply_validates_on_backward_hops():
    routers, plan = _chain(3)
    store, keys, plan = full_setup(routers, plan, SRC, now=0, backward=True)
    fwd = source.emit_packet(store, plan, SRC, b"request", 200, now=100)
    reply = source.build_reply(fwd, b"response")
    assert reply.total_len <= 200
    for i, r in enumerate(routers):
        hop = plan.hops[i]
        d = r.handle_data(reply, i, hop.ingress, hop.egress, now=150)
        assert d.traffic_class is TrafficClass.PRIORITY, i


def test_build_reply_requires_bvfs():
    routers, plan = _chain(1)
    store, keys, plan = full_setup(routers, plan, SRC, now=0)
    fwd = source.emit_packet(store, plan, SRC, b"q", 0, now=100)
    with pytest.raises(source.MissingGrant):
        source.build_reply(fwd, b"a")


# renewal ----------------------------------------------------------------------------

def test_renewal_rides_reservation_and_refreshes():
    routers, plan = _chain(2)
    store, keys, plan = full_setup(routers, plan, SRC, now=0)
    wrapper = source.build_renewal(store, keys, plan, SRC, now=4 * S)
    inner = wire.decode(wrapper.payload)
    assert isinstance(inner, wire.SetupRequest)
    entries = []
    for i, r in enumerate(routers):
        hop = plan.hops[i]
        d = r.handle_data(wrapper, i, hop.ingress, hop.egress, now=4 * S)
        assert d.traffic_class is TrafficClass.PRIORITY  # rides priority
        _, es = r.handle_setup(inner, i, hop.ingress, hop.egress, now=4 * S)
        entries.extend(es)
    resp = wire.SetupResponse(SRC, inner.ts_req, tuple(entries))
    accepted = source.ingest_response(store, keys, resp, plan)
    assert len(accepted) == 2
    key = (routers[0].as_id, 1, 2, wire.FORWARD)
    assert store.grants[key].ts_exp == 4 * S + 10 * S


def test_renewal_after_expiry_needs_best_effort_path():
    routers, plan = _chain(1)
    store, keys, plan = full_setup(routers, plan, SRC, now=0)
    exp = store.grants[(routers[0].as_id, 1, 0, wire.FORWARD)].ts_exp
    with pytest.raises(source.MissingGrant):
        source.build_renewal(store, keys, plan, SRC, now=exp + 1)


# store dump/load -------------------------------------------------------------------

def test_store_roundtrip(tmp_path):
    routers, plan = _chain(3)
    store, keys, plan = full_setup(routers, plan, SRC, now=0, backward=True)
    path = tmp_path / "grants.txt"
    store.dump(str(path))
    loaded = source.GrantStore.load(str(path))
    assert loaded.grants == store.grants


def test_store_roundtrip_emits_identical_packets(tmp_path):
    """Prepared keys are not part of the dump; a loaded store rebuilds them
    and emits the same bytes as the store it was dumped from."""
    routers, plan = _chain(3)
    store, keys, plan = full_setup(routers, plan, SRC, now=0, backward=True)
    source.emit_packet(store, plan, SRC, b"warm", 300, now=50)
    path = tmp_path / "grants.txt"
    store.dump(str(path))
    loaded = source.GrantStore.load(str(path))
    for now in (100, 101):
        packets = [wire.encode(source.emit_packet(s, plan, SRC, b"payload", 300, now))
                   for s in (store, loaded)]
        assert packets[0] == packets[1]


def test_service_recovery_single_round_trip():
    """Losing the store is survivable: one fresh handshake restores the
    same authenticators."""
    routers, plan = _chain(2)
    store, keys, plan = full_setup(routers, plan, SRC, now=0)
    alphas = {k: g.auth for k, g in store.grants.items()}
    fresh, *_ = full_setup(routers, plan, SRC, now=3 * S)  # one round trip
    assert {k: g.auth for k, g in fresh.grants.items()} == alphas


# sender-side MAC cost ----------------------------------------------------------------

@pytest.fixture
def contexts(monkeypatch):
    """Counts AES contexts as they are built: every one under "aes", the
    prepared keys among them under "prepared"."""
    built = Counter()
    cipher, prepare = crypto.Cipher, crypto.PreparedKey.__init__

    def counting_cipher(*args):
        built["aes"] += 1
        return cipher(*args)

    def counting_prepare(self, key):
        built["prepared"] += 1
        prepare(self, key)

    monkeypatch.setattr(crypto, "Cipher", counting_cipher)
    monkeypatch.setattr(crypto.PreparedKey, "__init__", counting_prepare)
    return built


def test_ingest_prepares_no_key(contexts):
    routers, plan = _chain(3)
    contexts.clear()
    store, keys, plan = full_setup(routers, plan, SRC, now=0, backward=True)
    assert len(store.grants) == 6
    assert contexts["prepared"] == 0


def test_emit_one_mac_per_field_and_one_context_per_grant(contexts):
    """The source-side counterpart of C8: each validation field costs one
    MAC and no PRF, on the first packet as on later ones; only the first
    packet builds AES contexts, one per grant it uses."""
    routers, plan = _chain(3)
    store, keys, plan = full_setup(routers, plan, SRC, now=0, backward=True)
    fields = len(plan.forward_hops) + len(plan.backward_hops)
    for k, now in enumerate((100, 101, 102)):
        contexts.clear()
        crypto.ops.reset()
        pkt = source.emit_packet(store, plan, SRC, bytes(k * 100), 300, now)
        assert len(pkt.rvfs) + len(pkt.bvfs) == fields
        assert (crypto.ops.macs, crypto.ops.prf_calls) == (fields, 0)
        assert contexts["aes"] == contexts["prepared"] == (fields if k == 0 else 0)


def test_emit_fields_match_reference_mac():
    """Forward and backward fields, from a fresh and from a prepared grant
    key, equal the reference CBC-MAC over the raw authenticator."""
    routers, plan = _chain(3)
    store, keys, plan = full_setup(routers, plan, SRC, now=0, backward=True)

    def field(fkey, ts, length):
        msg = ts.to_bytes(8, "big") + length.to_bytes(2, "big")
        return ref_cbc_mac(store.grants[fkey].auth, msg)[:crypto.VALIDATION_FIELD_LEN]

    for now, payload, len_b in ((100, b"", 0), (101, bytes(900), 1500),
                                (1_700_000_000_000_000_000, b"q", 0xFFFF)):
        pkt = source.emit_packet(store, plan, SRC, payload, len_b, now, allow_expired=True)
        assert list(pkt.rvfs) == [(i, field(fkey, now, pkt.total_len))
                                  for i, fkey in plan.forward_keys]
        assert list(pkt.bvfs) == [(i, field(fkey, now, len_b))
                                  for i, fkey in plan.backward_keys]


def test_renewal_keeps_prepared_key_of_same_auth(contexts):
    routers, plan = _chain(2)
    store, keys, plan = full_setup(routers, plan, SRC, now=0)
    source.emit_packet(store, plan, SRC, b"x", 0, now=100)
    prepared = {k: g.key for k, g in store.grants.items()}
    old = dict(store.grants)
    contexts.clear()
    full_setup(routers, plan, SRC, now=4 * S, store=store)
    source.emit_packet(store, plan, SRC, b"x", 0, now=4 * S + 100)
    assert all(store.grants[k] is not old[k] for k in old)  # renewed terms
    assert {k: g.key for k, g in store.grants.items()} == prepared
    assert contexts["prepared"] == 0
    # a grant under another authenticator prepares its own key
    fkey = plan.forward_keys[0][1]
    g = store.grants[fkey]
    store.put(fkey, source.FlyoverGrant(g.bw, g.ts_exp, bytes(16)))
    source.emit_packet(store, plan, SRC, b"x", 0, now=4 * S + 200)
    assert contexts["prepared"] == 1
    assert store.grants[fkey].key is not prepared[fkey]


# end-to-end soundness ----------------------------------------------------------------

def test_composed_rate_always_priority_in_clean_network():
    """Packets paced at the composed rate validate as priority everywhere."""
    rng = random.Random(31)
    for trial in range(10):
        n = rng.randrange(1, 5)
        routers, plan = _chain(n, entry_bw=rng.choice([10, 50, 100]) * GBPS)
        store, keys, plan = full_setup(routers, plan, SRC, now=0)
        comp = source.compose(store, [plan], source.CONCURRENT, now=0)
        rate_bps = comp.path_rates[plan.name or "path0"]
        size = rng.choice([200, 1000, 1400])
        gap = int((size + 42) * 8 * S / rate_bps) + 1
        t = 1000
        for _ in range(40):
            pkt = source.emit_packet(store, plan, SRC, bytes(size), 0, now=t)
            for i, r in enumerate(routers):
                hop = plan.hops[i]
                d = r.handle_data(pkt, i, hop.ingress, hop.egress, now=t)
                assert d.traffic_class is TrafficClass.PRIORITY
            t += gap
