"""Source service: request building, grant handling, composition, emission."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flyover import crypto, source, wire
from flyover.router import TrafficClass

from aes_ref import ref_cbc_mac
from helpers import GBPS, S, full_setup, line_path, make_router, warm_router
from oracles import ref_compose

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


def _response(routers, plan):
    """Each router's answer to one request over ``plan``: (keys, response)."""
    keys = {r.as_id: crypto.derive_drkey(r.secret, SRC) for r in routers}
    req = source.build_setup_request(keys, plan, SRC, ts_req=0)
    entries = [e for i, (r, hop) in enumerate(zip(routers, plan.hops))
               for e in r.handle_setup(req, i, hop.ingress, hop.egress, now=0)[1]]
    return keys, wire.SetupResponse(SRC, 0, tuple(entries))


def test_ingest_isolates_corrupted_entry():
    routers, plan = _chain(3)
    keys, resp = _response(routers, plan)
    entries = list(resp.entries)
    bad = entries[1]
    entries[1] = wire.RespEntry(bad.hop, bad.direction, bad.nonce,
                                bytes(16), bad.tag, bad.bw, bad.ts_exp)
    resp = wire.SetupResponse(SRC, 0, tuple(entries))
    store = source.GrantStore()
    accepted = source.ingest_response(store, keys, resp, plan)
    assert len(accepted) == 2 and len(store.grants) == 2


def test_ingest_skips_an_entry_outside_the_plan():
    routers, plan = _chain(3)
    keys, resp = _response(routers, plan)
    short = source.PathPlan(plan.hops[:2])  # the third hop's entry names no hop of it
    accepted = source.ingest_response(source.GrantStore(), keys, resp, short)
    assert accepted == [short.flyover_key(0, wire.FORWARD), short.flyover_key(1, wire.FORWARD)]


def test_ingest_skips_an_entry_the_plan_never_requested(monkeypatch):
    """Hop 1 forward and every backward entry answer no request of a plan
    that asks for hops 0 and 2 forward: each is skipped before it is
    unsealed, though its hop is on the path and its AS's key is held."""
    routers, plan = _chain(3)
    both = source.PathPlan(plan.hops, backward_hops=frozenset(range(3)))
    keys, resp = _response(routers, both)
    assert len(resp.entries) == 6
    unsealed = []
    unseal = crypto.unseal_grant

    def counting(key, nonce, *args):
        unsealed.append(nonce)
        return unseal(key, nonce, *args)

    monkeypatch.setattr(crypto, "unseal_grant", counting)
    partial = source.PathPlan(plan.hops, frozenset({0, 2}))
    accepted = source.ingest_response(source.GrantStore(), keys, resp, partial)
    assert accepted == [partial.flyover_key(0, wire.FORWARD), partial.flyover_key(2, wire.FORWARD)]
    assert len(unsealed) == 2


def test_ingest_skips_an_entry_without_a_key():
    routers, plan = _chain(3)
    keys, resp = _response(routers, plan)
    del keys[routers[1].as_id]
    accepted = source.ingest_response(source.GrantStore(), keys, resp, plan)
    assert accepted == [plan.flyover_key(0, wire.FORWARD), plan.flyover_key(2, wire.FORWARD)]


def test_renewal_keeps_alpha_updates_terms():
    routers, plan = _chain(1)
    store, keys, plan = full_setup(routers, plan, SRC, now=0)
    key = (routers[0].as_id, 1, 0)
    alpha0, exp0 = store.grants[key].auth, store.grants[key].ts_exp
    store2, *_ = full_setup(routers, plan, SRC, now=5 * S)
    assert store2.grants[key].auth == alpha0
    assert store2.grants[key].ts_exp == exp0 + 5 * S


# compose ---------------------------------------------------------------------------

def _store_with(grants: dict[tuple, int], exp=10**15) -> source.GrantStore:
    st = source.GrantStore()
    for key, bw in grants.items():
        st.grants[key] = source.FlyoverGrant(bw, exp, bytes(16))
    return st


def _plan(name, hops):
    return source.PathPlan(tuple(source.PathHop(*h) for h in hops), name=name)


def test_compose_shared_flyover_concurrent_and_maximum():
    # two paths share transit AS 50's pair (1, 2) with bw 10; other hops huge
    shared = (50, 1, 2)
    p1 = _plan("p1", [shared, (61, 1, 0)])
    p2 = _plan("p2", [shared, (62, 1, 0)])
    st = _store_with({
        (50, 1, 2): 10,
        (61, 1, 0): 100,
        (62, 1, 0): 100,
    })
    conc = source.compose(st, [p1, p2], source.CONCURRENT, now=0)
    assert conc.path_rates == {"p1": Fraction(5), "p2": Fraction(5)}
    maxi = source.compose(st, [p1, p2], source.MAXIMUM, now=0)
    assert maxi.path_rates == {"p1": Fraction(10), "p2": Fraction(10)}


def test_compose_single_path_min_rule():
    p = _plan("p", [(50, 1, 2), (51, 1, 2), (52, 1, 0)])
    st = _store_with({
        (50, 1, 2): 8,
        (51, 1, 2): 4,
        (52, 1, 0): 6,
    })
    for strategy in (source.CONCURRENT, source.MAXIMUM):
        plan = source.compose(st, [p], strategy, now=0)
        assert plan.path_rates["p"] == Fraction(4)


def test_compose_expired_grant_flags_path():
    """A path with an expired or missing grant reads rate 0 and leaves its
    share of a flyover it would cross to the usable paths."""
    p = _plan("p", [(50, 1, 2), (51, 1, 0)])
    st = _store_with({(50, 1, 2): 8, (51, 1, 0): 9}, exp=100)
    plan = source.compose(st, [p], source.CONCURRENT, now=200)
    assert plan.path_rates == {"p": 0}
    shared = (50, 1, 2)
    ok, missing = _plan("ok", [shared, (61, 1, 0)]), _plan("missing", [shared, (62, 1, 0)])
    st = _store_with({(50, 1, 2): 10, (61, 1, 0): 100})
    for strategy in (source.CONCURRENT, source.MAXIMUM):
        plan = source.compose(st, [ok, missing], strategy, now=0)
        assert plan.path_rates == {"ok": Fraction(10), "missing": 0}


def test_compose_reads_only_the_reserved_hops():
    hops = tuple(source.PathHop(*h) for h in [(50, 1, 2), (51, 1, 2), (52, 1, 2), (53, 1, 0)])
    p = source.PathPlan(hops, frozenset({3}), name="p")  # only the last hop is reserved
    st = _store_with({(53, 1, 0): 7})
    for strategy in (source.CONCURRENT, source.MAXIMUM):
        plan = source.compose(st, [p], strategy, now=0)
        assert plan.path_rates == {"p": Fraction(7)}


def test_compose_concurrent_feasible_randomized():
    """For every flyover, the rates of the paths through it sum to at most
    its bandwidth."""
    rng = random.Random(9)
    for _ in range(100):
        n_fly = rng.randrange(2, 8)
        fly = [(100 + i, 1, 2) for i in range(n_fly)]
        bws = {f: rng.randrange(1, 10**12) for f in fly}
        st = _store_with(bws)
        paths = []
        for p in range(rng.randrange(1, 6)):
            hops = rng.sample(fly, rng.randrange(1, n_fly + 1))
            paths.append(_plan(f"p{p}", hops))
        plan = source.compose(st, paths, source.CONCURRENT, now=0)
        per_fly: dict[tuple, Fraction] = {}
        for p in paths:
            assert plan.path_rates[p.name] > 0
            for _, fkey in p.forward_keys:
                per_fly[fkey] = per_fly.get(fkey, Fraction(0)) + plan.path_rates[p.name]
        for fkey, total in per_fly.items():
            assert total <= bws[fkey]


def test_path_plan_rejects_hops_outside_the_path():
    _, plan = _chain(3, warm=False)
    for kw in (dict(forward_hops=frozenset({3})), dict(forward_hops=frozenset({-1})),
               dict(backward_hops=frozenset({0, 3}))):
        with pytest.raises(ValueError, match="requested hop outside the path"):
            source.PathPlan(plan.hops, **kw)
    source.PathPlan(plan.hops, backward_hops=frozenset({0, 2}))  # the ends are inside


# a flyover is stored live, stored expired or missing from the store
_LIVE, _EXPIRED, _MISSING = "live", "expired", "missing"


@settings(max_examples=300, deadline=None)
@given(data=st.data(), strategy=st.sampled_from([source.CONCURRENT, source.MAXIMUM]),
       n_fly=st.integers(1, 8))
def test_compose_equals_least_fraction_share(data, strategy, n_fly):
    """Each path's rate is the least of its exact shares, on paths that share
    flyovers, with grants live, expired or missing, and bandwidths up to
    2^64 so cross-multiplication runs past 64 bits."""
    now = 1_000
    fly = [(100 + i, 1, 2) for i in range(n_fly)]
    bws = data.draw(st.lists(st.one_of(st.integers(0, 50), st.integers(0, 2**64 - 1)),
                             min_size=n_fly, max_size=n_fly))
    kinds = data.draw(st.lists(st.sampled_from([_LIVE, _LIVE, _LIVE, _EXPIRED, _MISSING]),
                               min_size=n_fly, max_size=n_fly))
    store = source.GrantStore()
    for key, bw, kind in zip(fly, bws, kinds):
        if kind != _MISSING:
            store.grants[key] = source.FlyoverGrant(bw, now + 1 if kind == _LIVE else now - 1,
                                                    bytes(16))
    paths = []
    for p in range(data.draw(st.integers(1, 5))):
        hops = data.draw(st.lists(st.sampled_from(fly), max_size=n_fly, unique=True))
        reserved = data.draw(st.sets(st.sampled_from(range(len(hops))))) if hops else set()
        paths.append(source.PathPlan(tuple(source.PathHop(*h) for h in hops),
                                     frozenset(reserved), name=f"p{p}"))
    live = {k: bw for k, bw, kind in zip(fly, bws, kinds) if kind == _LIVE}
    expected = ref_compose(live, {p.name: [k for _, k in p.forward_keys] for p in paths},
                           strategy)
    rates = source.compose(store, paths, strategy, now).path_rates
    assert rates == expected
    assert all(type(r) is Fraction for r in rates.values())


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


def test_emit_rejects_packet_over_the_length_ceiling(monkeypatch):
    """The size is checked before any grant is read or any MAC computed."""
    _, plan = _chain(3, warm=False)
    room = wire.MAX_LEN - wire.data_packet_len(len(plan.forward_keys))
    monkeypatch.setattr(crypto, "ops", crypto.OpCounter())
    with pytest.raises(ValueError, match="packet too large"):
        source.emit_packet(source.GrantStore(), plan, SRC, bytes(room + 1), 0, now=0)
    assert crypto.ops.macs == 0
    with pytest.raises(source.MissingGrant):  # one byte less passes the check
        source.emit_packet(source.GrantStore(), plan, SRC, bytes(room), 0, now=0)


def test_emit_timestamps_change_fields():
    routers, plan = _chain(2)
    store, keys, plan = full_setup(routers, plan, SRC, now=0)
    p1 = source.emit_packet(store, plan, SRC, b"same", 0, now=100)
    p2 = source.emit_packet(store, plan, SRC, b"same", 0, now=101)
    assert all(a[1] != b[1] for a, b in zip(p1.rvfs, p2.rvfs))


def test_emit_missing_grant_raises():
    routers, plan = _chain(2)
    store, keys, plan = full_setup(routers, plan, SRC, now=0)
    del store.grants[(routers[1].as_id, 1, 0)]
    with pytest.raises(source.MissingGrant):
        source.emit_packet(store, plan, SRC, b"x", 0, now=100)


def test_emit_missing_backward_grant_raises():
    routers, plan = _chain(2)
    store, keys, plan = full_setup(routers, plan, SRC, now=0, backward=True)
    del store.grants[plan.flyover_key(1, wire.BACKWARD)]
    with pytest.raises(source.MissingGrant, match="^backward hop 1$"):
        source.emit_packet(store, plan, SRC, b"x", 100, now=100)


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
    key = (routers[0].as_id, 1, 2)
    assert store.grants[key].ts_exp == 4 * S + 10 * S


def test_renewal_after_expiry_needs_best_effort_path():
    routers, plan = _chain(1)
    store, keys, plan = full_setup(routers, plan, SRC, now=0)
    exp = store.grants[(routers[0].as_id, 1, 0)].ts_exp
    with pytest.raises(source.MissingGrant):
        source.build_renewal(store, keys, plan, SRC, now=exp + 1)


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
def contexts(aes_contexts, monkeypatch):
    """Counts AES contexts as they are built: every one under "aes", the
    grants' authenticator keys among them under "prepared"."""
    mac_key = source.FlyoverGrant.mac_key

    def counting_mac_key(self):
        if self.key is None:
            aes_contexts["prepared"] += 1
        return mac_key(self)

    monkeypatch.setattr(source.FlyoverGrant, "mac_key", counting_mac_key)
    return aes_contexts


def test_ingest_prepares_no_key(contexts):
    """Ingesting a response prepares no grant's authenticator: that is left
    to the first packet that uses the grant."""
    routers, plan = _chain(3)
    contexts.clear()
    store, keys, plan = full_setup(routers, plan, SRC, now=0, backward=True)
    assert len(store.grants) == 6
    assert contexts["prepared"] == 0
    assert all(g.key is None for g in store.grants.values())


def test_setup_op_count_and_one_context_per_drkey_use(contexts, monkeypatch):
    """The setup-path counterpart of C8: a 3-hop bidirectional handshake
    makes 12 MACs, 6 key derivations, 6 seals and 6 unseals, and builds one
    AES context per DRKey use: 3 derivations from raw secrets in the test
    helper, 3 request authentications at the source, one per admitting
    router, and one per hop at ingest."""
    calls = Counter()
    for name in ("seal_grant", "unseal_grant"):
        def counting(*args, _fn=getattr(crypto, name), _name=name, **kw):
            calls[_name] += 1
            return _fn(*args, **kw)
        monkeypatch.setattr(crypto, name, counting)
    routers, plan = _chain(3)
    contexts.clear()
    monkeypatch.setattr(crypto, "ops", crypto.OpCounter())
    store, keys, plan = full_setup(routers, plan, SRC, now=0, backward=True)
    assert len(store.grants) == 6
    assert (crypto.ops.macs, crypto.ops.prf_calls) == (12, 6)
    assert (calls["seal_grant"], calls["unseal_grant"]) == (6, 6)
    assert contexts["aes"] == 12


def test_emit_one_mac_per_field_and_one_context_per_grant(contexts, monkeypatch):
    """The source-side counterpart of C8: each validation field costs one
    MAC and no PRF, on the first packet as on later ones; only the first
    packet builds AES contexts, one per grant it uses."""
    routers, plan = _chain(3)
    store, keys, plan = full_setup(routers, plan, SRC, now=0, backward=True)
    fields = len(plan.forward_hops) + len(plan.backward_hops)
    for k, now in enumerate((100, 101, 102)):
        contexts.clear()
        monkeypatch.setattr(crypto, "ops", crypto.OpCounter())
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


def test_a_renewed_grant_prepares_its_own_key(contexts):
    """A renewal stores new grants under the same authenticators. The first
    packet after it prepares one key per grant, and its fields still equal
    the reference CBC-MAC over the raw authenticator."""
    routers, plan = _chain(2)
    store, keys, plan = full_setup(routers, plan, SRC, now=0)
    source.emit_packet(store, plan, SRC, b"x", 0, now=100)
    old = dict(store.grants)
    full_setup(routers, plan, SRC, now=4 * S, store=store)
    assert all(store.grants[k] is not g and store.grants[k].auth == g.auth
               for k, g in old.items())
    contexts.clear()
    now = 4 * S + 100
    pkt = source.emit_packet(store, plan, SRC, b"x", 0, now)
    assert contexts["prepared"] == len(old) == len(pkt.rvfs)
    msg = now.to_bytes(8, "big") + pkt.total_len.to_bytes(2, "big")
    assert list(pkt.rvfs) == [
        (i, ref_cbc_mac(store.grants[fkey].auth, msg)[:crypto.VALIDATION_FIELD_LEN])
        for i, fkey in plan.forward_keys]


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
