"""Shared builders for router/source/simnet tests."""

import random
from fractions import Fraction

from flyover import source, wire
from flyover.admission import AllocationMatrix, EstimatorConfig
from flyover.router import Router, RouterConfig

S = 1_000_000_000
GBPS = 10**9


def estimator_cfg(**kw):
    defaults = dict(interval_ns=10 * S, min_requesters=1,
                    reserved_fraction=Fraction(4, 5), tentative_slots=8, exact=True)
    defaults.update(kw)
    return EstimatorConfig(**defaults)


def router_cfg(**kw):
    est_kw = kw.pop("estimator_kw", {})
    defaults = dict(estimator=estimator_cfg(**est_kw))
    defaults.update(kw)
    return RouterConfig(**defaults)


def make_router(as_id=10, n_if=3, entry_bw=100 * GBPS, seed=1, config=None, now=0):
    secret = bytes([as_id & 0xFF]) * 16
    entries = [[0 if a == b else entry_bw for b in range(n_if)] for a in range(n_if)]
    return Router(as_id, secret, AllocationMatrix(entries),
                  config or router_cfg(), now=now, rng=random.Random(seed))


def warm_router(router, src, pairs):
    """Pre-register ``src`` as grantable on the given interface pairs."""
    for ing, egr in pairs:
        est = router.policy.estimator_for(ing, egr)
        est.granted.add(src)
        est.previous.add(src)


def line_path(routers, src):
    """PathPlan over a chain of routers: src -> r0 -> r1 ... (last is dst).

    Interfaces: 1 faces the previous AS, 2 faces the next; the final hop
    egresses into its internal interface 0.
    """
    hops = []
    for i, r in enumerate(routers):
        egress = 2 if i < len(routers) - 1 else 0
        hops.append(source.PathHop(r.as_id, 1, egress))
    return source.PathPlan(tuple(hops))


def full_setup(routers, plan, src, now, backward=False, store=None):
    """Run the setup handshake against each router and ingest the response
    into ``store`` (a new one by default); returns (store, keys, plan)."""
    keys = {r.as_id: None for r in routers}
    for r in routers:
        from flyover import crypto
        keys[r.as_id] = crypto.derive_drkey(r.secret, src)
    if backward:
        plan = source.PathPlan(plan.hops, plan.forward_hops,
                               frozenset(range(len(plan.hops))), plan.name)
    req = build = source.build_setup_request(keys, plan, src, now)
    entries = []
    for hop_index, r in enumerate(routers):
        hop = plan.hops[hop_index]
        _, es = r.handle_setup(req, hop_index, hop.ingress, hop.egress, now)
        entries.extend(es)
    resp = wire.SetupResponse(src, now, tuple(sorted(entries, key=lambda e: (e.hop, e.direction))))
    if store is None:
        store = source.GrantStore()
    source.ingest_response(store, keys, resp, plan)
    return store, keys, plan
