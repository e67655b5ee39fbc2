"""Shared builders for router/source/simnet tests."""

import random

from flyover import source, wire
from flyover.admission import EstimatorConfig
from flyover.router import Router, RouterConfig
from flyover.topo import AllocationMatrix

S = 1_000_000_000
GBPS = 10**9


def estimator_cfg(**kw):
    defaults = dict(interval_ns=10 * S, min_requesters=1, tentative_slots=8, exact=True)
    defaults.update(kw)
    return EstimatorConfig(**defaults)


def router_cfg(**kw):
    est_kw = kw.pop("estimator_kw", {})
    defaults = dict(estimator=estimator_cfg(**est_kw))
    defaults.update(kw)
    return RouterConfig(**defaults)


def make_router(as_id=10, n_if=3, entry_bw=100 * GBPS, seed=1, config=None, now=0):
    secret = bytes([as_id & 0xFF]) * 16
    # every entry off the diagonal is entry_bw
    matrix = AllocationMatrix.from_capacities([(n_if - 1) * entry_bw] * n_if)
    return Router(as_id, secret, matrix, config or router_cfg(), now=now, rng=random.Random(seed))


def matrix_rows(matrix):
    """The admission entries of ``matrix``, one row per ingress interface."""
    n = matrix.n_interfaces
    return [[matrix.admission_value(a, b) for b in range(n)] for a in range(n)]


def request(est, src, entry_bw, now):
    """``est.request`` with ``src``'s filter member, as admission passes it."""
    return est.request(src, est.config.member(src), entry_bw, now)


def warm_router(router, src, pairs):
    """Pre-register ``src`` as grantable on the given interface pairs."""
    for ing, egr in pairs:
        router.policy.estimator_for(ing, egr).warm_up([src])


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
