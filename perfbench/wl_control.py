"""control: one op is one full reservation handshake over a 4-hop path.

Why: this is the write path. It inserts into and rotates the requester
estimators, registers monitor entries, and seals and unseals grants, so it
exercises ``admission`` and ``source`` and reaches ``crypto`` and
``policing`` through other functions than ``datapath`` does. No packet
validation runs.

Every request asks for forward and backward reservations at all four hops.
Renewing sources re-request on a fixed cadence shorter than the estimator
interval, mixed with first-time requesters, forged requests (bad auth under
a renewing source's id) and replays of recent requests. Estimators run in
the default Bloom mode, and simulated time crosses several estimator
intervals, so rotations land inside timed ops.

First-time requesters come from a fixed pool, in turn; a pool source asks
again only after more than three estimator intervals, when its grants have
lapsed and the estimators have forgotten it. So once the pool has been
used, the routers' per-source state stops growing.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from flyover import crypto, source, wire
from flyover.admission import AllocationMatrix
from flyover.router import Router, RouterConfig

from common import BatchOutcome
from wl_datapath import EPOCH_NS, HOP_DELAY_NS, HOPS, router_state_entries

GAP_NS = 10_000_000  # simulated spacing of handshakes
REPLAY_HORIZON = 50  # replays re-send one of the last N honest requests
FIRST_POOL = 400  # first-time requesters: ~33 s of simulated time between turns

# op mix (cumulative shares)
MIX = (("renew", 0.70), ("first", 0.82), ("forged", 0.91), ("replay", 1.0))
DEMAND_SHARE = 0.2

SIZES = {
    # renewing sources, ops per batch
    "full": (300, 100),
    "tiny": (24, 60),
}


@dataclass
class Src:
    sid: int
    keys: dict
    store: source.GrantStore = field(default_factory=source.GrantStore)


@dataclass
class State:
    routers: list
    plan: source.PathPlan
    renewers: list
    first_pool: list
    t_start: int
    t_timed: int
    requested: dict  # (hop, src) -> estimator intervals with a valid request
    batch: list = None
    batch_k: int = -1
    renew_next: int = 0
    first_next: int = 0


class Control:
    name = "control"
    per_op_latency = True
    setup_reps = 3
    setup_inner = 1
    batches_per_s = 4.0
    trace_setup = False
    max_batches = 10**6

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.n_renewers, self.batch_ops = SIZES[size]
        self.cfg = RouterConfig()
        self.interval = self.cfg.estimator.interval_ns
        self.tracer = None

    def setup(self) -> State:
        rng = random.Random(self.seed)
        t_start = EPOCH_NS + rng.randrange(10**15)
        routers = []
        for h in range(HOPS):
            caps = [0] + [rng.choice((10, 40, 100)) * 10**9 for _ in range(2)]
            caps[0] = max(caps)
            # built at the workload's start time: an estimator built at t=0
            # catches up one interval per loop iteration (a known defect)
            routers.append(Router(200 + h, rng.randbytes(16),
                                  AllocationMatrix.from_capacities(caps), self.cfg,
                                  now=t_start, rng=random.Random(rng.getrandbits(64))))
        hops = tuple(source.PathHop(200 + h, 1, 2 if h < HOPS - 1 else 0)
                     for h in range(HOPS))
        plan = source.PathPlan(hops, backward_hops=frozenset(range(HOPS)))
        renewers = [self._source(routers, 10_000 + i) for i in range(self.n_renewers)]
        rng.shuffle(renewers)
        pool = [self._source(routers, 1_000_000 + i) for i in range(FIRST_POOL)]
        st = State(routers, plan, renewers, pool, t_start, 0, {})

        # warm-up: every renewer asks once in each of estimator intervals 0, 1
        # and 2, so the timed phase starts with firm grants held and requests
        # arriving continuously
        warm = BatchOutcome(0)
        for rnd in range(3):
            t0 = t_start + rnd * self.interval + 500_000_000
            for i, s in enumerate(renewers):
                rec = self._handshake(("renew", t0 + i * GAP_NS, s, None), plan, st.routers,
                                      warm)
                if rec is not None:
                    self._check(st, rec, warm)
        if warm.failed:
            raise RuntimeError(f"warm-up handshakes failed: {warm.failures[:3]}")
        st.t_timed = t_start + 2 * self.interval + 500_000_000 + len(renewers) * GAP_NS
        self.prepare(st, 0)
        return st

    def _source(self, routers, sid: int) -> Src:
        return Src(sid, {r.as_id: crypto.derive_drkey(r.secret, sid) for r in routers})

    def prepare(self, st: State, k: int) -> None:
        if st.batch_k == k:
            return
        rng = random.Random(self.seed * 1_000_003 + k)
        n = self.batch_ops
        t0 = st.t_timed + k * n * GAP_NS
        batch = []
        honest = []  # indexes of honest requests in this batch: replay targets
        for i in range(n):
            ts = t0 + i * GAP_NS + rng.randrange(GAP_NS // 2)
            x = rng.random()
            kind = next(name for name, cum in MIX if x < cum)
            if kind == "replay" and not honest:
                kind = "renew"
            demand = None
            if kind in ("renew", "first") and rng.random() < DEMAND_SHARE:
                bw_min = rng.randrange(1, 10**6)
                demand = (bw_min + rng.randrange(10**9), bw_min)
            if kind == "renew":
                s = st.renewers[st.renew_next % len(st.renewers)]
                st.renew_next += 1
            elif kind == "first":
                s = st.first_pool[st.first_next % len(st.first_pool)]
                st.first_next += 1
            elif kind == "forged":
                victim = rng.choice(st.renewers).sid
                s = Src(victim, {r.as_id: rng.randbytes(16) for r in st.routers})
            else:
                s = rng.choice(honest[-REPLAY_HORIZON:])
            if kind in ("renew", "first"):
                honest.append(i)
            batch.append((kind, ts, s, demand))
        st.batch, st.batch_k = batch, k

    def run_batch(self, st: State, k: int) -> BatchOutcome:
        out = BatchOutcome(len(st.batch))
        clock = time.perf_counter_ns
        tr = self.tracer
        plan, routers = st.plan, st.routers
        raws: dict[int, bytes] = {}
        records = []  # per op: what _check needs, or None
        base_id = k * self.batch_ops
        for i, op in enumerate(st.batch):
            if tr is not None:
                tr.op = base_id + i
            if op[0] == "replay":
                if op[2] not in raws:  # its original failed and is already reported
                    records.append(("replay", "no original"))
                    continue
                op = ("replay", op[1], Src(0, {}), raws[op[2]])  # the replayer holds no keys
            t_begin = clock()
            rec = self._handshake(op, plan, routers, out)
            out.latencies_ns.append(clock() - t_begin)
            if rec is not None:
                raws[i] = rec[1]
            records.append(rec or (op[0], "error"))
        out.verify = lambda o: self._verify(st, records, o)
        return out

    def _handshake(self, op, plan, routers, out: BatchOutcome):
        """One handshake: the timed work only.

        Returns (kind, request bytes, arrival, src, hop times, entries,
        accepted, composition), or None if it raised.
        """
        kind, arrival, s, extra = op
        try:
            if kind == "replay":
                raw = extra
            else:
                dem, mn = extra if extra else (None, None)
                raw = wire.encode(source.build_setup_request(s.keys, plan, s.sid, arrival,
                                                             dem, mn))
            entries = []
            nows = []
            for h, r in enumerate(routers):
                hop = plan.hops[h]
                now = arrival + h * HOP_DELAY_NS
                nows.append(now)
                req = wire.decode(raw)
                _, got = r.handle_setup(req, h, hop.ingress, hop.egress, now)
                entries.extend(got)
            entries.sort(key=lambda e: (e.hop, e.direction))
            resp = wire.decode(wire.encode(wire.SetupResponse(req.src, req.ts_req,
                                                              tuple(entries))))
            accepted = source.ingest_response(s.store, s.keys, resp, plan)
            comp = source.compose(s.store, [plan], source.CONCURRENT, nows[-1])
        except AssertionError as exc:  # the routers' no-over-allocation guard
            out.failed += 1
            out.failures.append(f"{kind} at {arrival}: over-allocation: {exc}")
            return None
        except Exception as exc:
            out.failed += 1
            out.failures.append(f"{kind} at {arrival}: {type(exc).__name__}: {exc}")
            return None
        return kind, raw, arrival, req.src, nows, entries, accepted, comp

    def _verify(self, st: State, records, out: BatchOutcome) -> None:
        for rec in records:
            if len(rec) == 2:  # a failed op, reported when it ran
                out.outcomes.append(rec)
                continue
            out.outcomes.append(self._check(st, rec, out))

    def _check(self, st: State, rec, out: BatchOutcome):
        """The oracle for one handshake; returns its outcome for the digest."""
        kind, _, arrival, src, nows, entries, accepted, comp = rec
        problems = []
        if kind in ("forged", "replay"):
            if entries:
                problems.append(f"{len(entries)} grants to a {kind} request")
        else:
            if len(accepted) != len(entries):
                problems.append(f"{len(entries) - len(accepted)} entries failed to unseal")
            for h, now in enumerate(nows):
                j = (now - st.t_start) // self.interval
                seen = st.requested.setdefault((h, src), set())
                if j - 2 in seen:
                    firm = sum(1 for e in entries
                               if e.hop == h and e.ts_exp == now + self.interval)
                    if firm != 2:
                        problems.append(f"R2: hop {h}: {firm}/2 firm grants two intervals "
                                        f"after a request")
                seen.add(j)
        if problems:
            out.failed += 1
            out.failures.append(f"{kind} src {src} at {arrival}: " + "; ".join(problems))
        rate = comp.path_rates[st.plan.name or "path0"]
        return (kind, src, tuple((e.hop, e.direction, e.bw, e.ts_exp - arrival)
                                 for e in entries), str(rate))

    def finish(self, st: State) -> dict:
        return {
            "dedup_entries": sum(len(r.dedup) for r in st.routers),
            "monitor_entries": sum(len(r.monitor.entries) for r in st.routers),
            "router_state_entries": sum(router_state_entries(r) for r in st.routers),
        }
