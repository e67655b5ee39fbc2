"""datapath: one op is one data packet crossing a 4-hop reservation path.

Why: this is the paper's per-packet claim (two MACs per validated packet
per hop). ``crypto``, ``wire``, ``policing`` and ``router`` do nearly all
the work; ``admission``, ``simnet`` and ``topo`` do none in the timed phase.

Set-up builds four routers at an epoch-scale start time, gives every source
firm grants through real handshakes (two request rounds two estimator
intervals apart), and fills each router's replay window to the occupancy
that the timed phase's own arrival rate sustains, ~10^5 entries, so the
window holds that size from the first batch on. Per batch, the attacker's frames are built before the
timer starts: forgeries under a victim's id, over-profile bursts from grant
holders, packets on expired grants, and stale timestamps. Replays re-send
bytes captured from honest packets earlier in the batch.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from flyover import crypto, source, wire
from flyover.admission import AllocationMatrix
from flyover.policing import DedupWindow
from flyover.router import Router, RouterConfig, TrafficClass

from common import BatchOutcome

EPOCH_NS = 1_700_000_000_000_000_000  # 2023-11-14, as deployed clocks read
HOPS = 4
HOP_DELAY_NS = 1_000_000
GAP_NS = 12_000  # packet spacing: ~10^5 entries in a 1.5 s replay window
BURST = 48  # packets per over-profile burst
MAX_WIRE = 1500

# op mix outside the over-profile bursts (cumulative shares)
MIX = (("fwd", 0.62), ("reply", 0.74), ("forged", 0.83), ("replay", 0.90),
       ("expired", 0.95), ("stale", 1.0))

SIZES = {
    # sources, ops per batch, bursts per batch
    "full": (1000, 500, 1),
    "tiny": (60, 200, 1),
}


def window_share(batch_ops: int, bursts: int) -> float:
    """Share of ops that enter each router's replay window.

    Every over-profile packet enters; outside the bursts, honest packets,
    replies and packets on expired grants do. Forgeries fail the MAC check
    and stale packets the time check before the window; replays are in it.
    """
    shares, low = {}, 0.0
    for name, cum in MIX:
        shares[name], low = cum - low, cum
    burst = bursts * BURST / batch_ops
    return burst + (1 - burst) * (shares["fwd"] + shares["reply"] + shares["expired"])


@dataclass
class Src:
    sid: int
    role: str  # "fwd" | "bwd" | "over" | "expired"
    plan: source.PathPlan
    keys: dict
    store: source.GrantStore = field(default_factory=source.GrantStore)


@dataclass
class State:
    routers: list
    sources: list
    by_role: dict
    t_timed: int  # simulated start of the timed phase
    exact_buckets: dict  # (hop, src) -> (exact bucket timestamp, float rounding bound)
    batch: list = None
    batch_k: int = -1
    over_next: int = 0
    router_macs: dict = field(default_factory=dict)  # batch -> MACs counted in routers


class Datapath:
    name = "datapath"
    per_op_latency = True
    setup_reps = 3
    setup_inner = 1
    batches_per_s = 4.0
    trace_setup = False

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.n_sources, self.batch_ops, self.bursts = SIZES[size]
        self.cfg = RouterConfig()
        self.tracer = None
        self.max_batches = 1

    # set-up ------------------------------------------------------------------

    def setup(self) -> State:
        rng = random.Random(self.seed)
        cfg = self.cfg
        interval = cfg.estimator.interval_ns
        t_start = EPOCH_NS + rng.randrange(10**15)
        routers = []
        for h in range(HOPS):
            caps = [0] + [rng.choice((10, 40, 100)) * 10**9 for _ in range(2)]
            caps[0] = max(caps)
            routers.append(Router(100 + h, rng.randbytes(16),
                                  AllocationMatrix.from_capacities(caps), cfg,
                                  now=t_start, rng=random.Random(rng.getrandbits(64))))
        hops = tuple(source.PathHop(100 + h, 1, 2 if h < HOPS - 1 else 0)
                     for h in range(HOPS))
        fwd_plan = source.PathPlan(hops)
        bwd_plan = source.PathPlan(hops, backward_hops=frozenset(range(HOPS)))

        n = self.n_sources
        roles = (["expired"] * max(1, n // 20) + ["over"] * max(1, n // 20)
                 + ["bwd"] * (n // 4))
        roles += ["fwd"] * (n - len(roles))
        rng.shuffle(roles)
        sources = []
        for i, role in enumerate(roles):
            sid = 10_000 + i
            keys = {r.as_id: crypto.derive_drkey(r.secret, sid) for r in routers}
            sources.append(Src(sid, role, bwd_plan if role == "bwd" else fwd_plan, keys))
        by_role = {r: [s for s in sources if s.role == r] for r in ("fwd", "bwd", "over",
                                                                   "expired")}

        # round A in estimator interval 0 registers every source as a requester;
        # round B in interval 2 returns firm grants. Expired-role sources ask
        # first, so their grants lapse before the timed phase starts.
        t_a = t_start + 1_000_000_000
        for i, s in enumerate(sources):
            self._handshake(routers, s, t_a + i * 100_000)
        t_b = t_start + 2 * interval + 100_000_000
        late = t_b + 8_000_000_000
        order = by_role["expired"] + [s for s in sources if s.role != "expired"]
        valid_until = None
        for i, s in enumerate(order):
            t = (t_b if s.role == "expired" else late) + i * 100_000
            self._handshake(routers, s, t)
            if not self._holds_all(s, t):
                raise RuntimeError(f"source {s.sid} holds no firm grant after set-up")
            if s.role != "expired":
                exp = min(g.ts_exp for g in s.store.grants.values())
                valid_until = exp if valid_until is None else min(valid_until, exp)
        t_timed = t_b + interval + 500_000_000

        # steady-state replay window: the last 1.5 s of traffic before t_timed,
        # at the rate at which the timed phase's packets enter it
        window = routers[0].dedup.window_ns
        batch_span = self.batch_ops * GAP_NS  # batches follow each other without a gap
        entries = round(window * window_share(self.batch_ops, self.bursts)
                        * self.batch_ops / batch_span)
        step = window // entries
        for h, r in enumerate(routers):
            for j in range(entries):
                ts = t_timed - window + j * step
                s = sources[j % n]
                r.dedup.check(s.sid, ts, DedupWindow.KIND_DATA_FWD, ts + h * HOP_DELAY_NS)

        self.max_batches = max(1, (valid_until - t_timed - 100_000_000) // batch_span)
        st = State(routers, sources, by_role, t_timed, {})
        self.prepare(st, 0)
        return st

    def _handshake(self, routers, s: Src, ts: int) -> None:
        req = source.build_setup_request(s.keys, s.plan, s.sid, ts)
        raw = wire.encode(req)
        entries = []
        for h, r in enumerate(routers):
            hop = s.plan.hops[h]
            _, got = r.handle_setup(wire.decode(raw), h, hop.ingress, hop.egress,
                                    ts + h * HOP_DELAY_NS)
            entries.extend(got)
        resp = wire.SetupResponse(s.sid, ts, tuple(sorted(entries,
                                                          key=lambda e: (e.hop, e.direction))))
        source.ingest_response(s.store, s.keys, wire.decode(wire.encode(resp)), s.plan)

    def _holds_all(self, s: Src, now: int) -> bool:
        keys = [s.plan.flyover_key(h, wire.FORWARD) for h in s.plan.forward_hops]
        keys += [s.plan.flyover_key(h, wire.BACKWARD) for h in s.plan.backward_hops]
        return all(s.store.get(k, now) is not None for k in keys)

    # batch inputs ------------------------------------------------------------

    def prepare(self, st: State, k: int) -> None:
        """Build batch k's schedule and the attacker's frames."""
        if st.batch_k == k:
            return
        rng = random.Random(self.seed * 1_000_003 + k)
        n = self.batch_ops
        t0 = st.t_timed + k * n * GAP_NS
        kinds = [None] * n
        seg = n // self.bursts
        for b in range(self.bursts):
            start = b * seg + rng.randrange(seg - BURST)
            src = st.by_role["over"][st.over_next % len(st.by_role["over"])]
            st.over_next += 1
            for j in range(start, start + BURST):
                kinds[j] = ("over", src)
        fwd_sources = st.by_role["fwd"] + st.by_role["bwd"]
        batch = []
        sent_fwd, sent_bwd = [], []  # earlier honest ops: replay and reply targets
        for i in range(n):
            arrival = t0 + i * GAP_NS + rng.randrange(GAP_NS // 2)
            kind = kinds[i]
            if kind is None:
                x = rng.random()
                kind = next(name for name, cum in MIX if x < cum)
                if kind == "reply" and not sent_bwd or kind == "replay" and not sent_fwd:
                    kind = "fwd"
            else:
                kind, over_src = kind
            if kind == "fwd":
                s = rng.choice(fwd_sources)
                payload = rng.randrange(MAX_WIRE - wire.DATA_FIXED_HEADER
                                        - wire.FIELD_ENTRY_LEN * 2 * HOPS + 1)
                len_b = rng.randrange(200, MAX_WIRE + 1) if s.role == "bwd" else 0
                (sent_bwd if s.role == "bwd" else sent_fwd).append(i)
                batch.append(("fwd", arrival, s, payload, len_b))
            elif kind == "reply":
                j = sent_bwd.pop(rng.randrange(len(sent_bwd)))
                batch.append(("reply", arrival, j, rng.random()))
            elif kind == "replay":
                batch.append(("replay", arrival, rng.choice(sent_fwd)))
            elif kind == "over":
                batch.append(("over", arrival, over_src,
                              self._frame(over_src, rng, arrival)))
            elif kind == "expired":
                s = rng.choice(st.by_role["expired"])
                batch.append(("expired", arrival, s, self._frame(s, rng, arrival)))
            elif kind == "stale":
                s = rng.choice(st.by_role["fwd"])
                batch.append(("stale", arrival, s,
                              self._frame(s, rng, arrival - 2_000_000_000)))
            else:  # forged fields under a victim's id
                victim = rng.choice(fwd_sources).sid
                rvfs = [rng.randbytes(3) for _ in range(HOPS)]
                payload = bytes(rng.randrange(MAX_WIRE - 40))
                wire_len = wire.DATA_FIXED_HEADER + wire.FIELD_ENTRY_LEN * HOPS + len(payload)
                for h, r in enumerate(st.routers):
                    # a random field matches the true one with odds 2^-24: that
                    # packet is valid, not forged, so draw again
                    alpha = crypto.compute_authenticator(r.secret, victim, 1,
                                                         2 if h < HOPS - 1 else 0)
                    while rvfs[h] == crypto.compute_validation_field(alpha, arrival, wire_len):
                        rvfs[h] = rng.randbytes(3)
                pkt = wire.DataPacket(victim, False, arrival, 0, tuple(enumerate(rvfs)), (),
                                      payload)
                batch.append(("forged", arrival, victim, wire.encode(pkt)))
        st.batch, st.batch_k = batch, k

    def _frame(self, s: Src, rng, ts: int) -> bytes:
        payload = bytes(rng.randrange(MAX_WIRE - wire.DATA_FIXED_HEADER
                                      - wire.FIELD_ENTRY_LEN * HOPS + 1))
        pkt = source.emit_packet(s.store, s.plan, s.sid, payload, 0, ts, allow_expired=True)
        return wire.encode(pkt)

    # timed work --------------------------------------------------------------

    def run_batch(self, st: State, k: int) -> BatchOutcome:
        routers = st.routers
        fwd_order = [(h, routers[h], 1, 2 if h < HOPS - 1 else 0, h * HOP_DELAY_NS)
                     for h in range(HOPS)]
        bwd_order = [(h, routers[h], 1, 2 if h < HOPS - 1 else 0, (HOPS - 1 - h) * HOP_DELAY_NS)
                     for h in reversed(range(HOPS))]
        ops = crypto.ops
        clock = time.perf_counter_ns
        decode, encode = wire.decode, wire.encode
        drop = TrafficClass.DROP
        tr = self.tracer
        out = BatchOutcome(len(st.batch))
        lat = out.latencies_ns
        sent_pkt = {}  # op index -> (DataPacket, raw) for replies and replays
        records = []  # per op: (op, order, wire length, per-hop results) or None
        base_id = k * self.batch_ops
        macs = 0

        for i, op in enumerate(st.batch):
            if tr is not None:
                tr.op = base_id + i
            kind, arrival = op[0], op[1]
            order = fwd_order
            hops = []
            t_begin = clock()
            try:
                if kind == "fwd":
                    _, _, s, payload, len_b = op
                    pkt = source.emit_packet(s.store, s.plan, s.sid, bytes(payload), len_b,
                                             arrival)
                    raw = encode(pkt)
                elif kind == "reply":
                    fwd_pkt = sent_pkt[op[2]][0]
                    budget = source.max_reply_payload(fwd_pkt)
                    pkt = source.build_reply(fwd_pkt, bytes(int(budget * op[3])))
                    raw = encode(pkt)
                    order = bwd_order
                elif kind == "replay":
                    raw = sent_pkt[op[2]][1]
                else:
                    raw = op[3]
                wire_len = len(raw)
                for h, r, ing, eg, off in order:
                    m0, p0 = ops.macs, ops.prf_calls
                    d = r.handle_data(decode(raw), h, ing, eg, arrival + off, wire_len=wire_len)
                    hops.append((d.traffic_class.value, d.verdict, ops.macs - m0,
                                 ops.prf_calls - p0))
                    if d.traffic_class is drop:
                        break
            except Exception as exc:  # an exception is a failed op, not a crashed run
                lat.append(clock() - t_begin)
                out.failed += 1
                out.failures.append(f"{kind} at {arrival}: {type(exc).__name__}: {exc}")
                records.append(None)
                continue
            lat.append(clock() - t_begin)
            if kind == "fwd":
                sent_pkt[i] = (pkt, raw)
            records.append((op, order, wire_len, hops))
            macs += sum(x[2] for x in hops)
        st.router_macs[k] = macs
        out.verify = lambda o: self._verify(st, records, o)
        return out

    def _verify(self, st: State, records, out: BatchOutcome) -> None:
        for rec in records:
            if rec is None:
                out.outcomes.append("error")
                continue
            op, order, wire_len, hops = rec
            verdicts = tuple((c, v) for c, v, _, _ in hops)
            out.outcomes.append((op[0], wire_len, verdicts))
            self._check(st, op, order, wire_len, hops, verdicts, out)

    def _check(self, st: State, op, order, wire_len, hops, verdicts, out: BatchOutcome) -> None:
        kind, arrival = op[0], op[1]
        for c, v, macs, prfs in hops:
            if prfs or macs > 2 or (c == "P" and macs != 2):
                out.failed += 1
                out.failures.append(f"C8: {kind} at {arrival}: {macs} MACs, {prfs} PRFs, "
                                    f"verdict {v}")
                return
        if kind == "over":
            self._check_policing(st, op[2], order, wire_len, arrival, verdicts, out)
            return
        expected = EXPECTED[kind]
        if verdicts != expected:
            out.failed += 1
            out.failures.append(f"{kind} at {arrival}: {verdicts} != {expected}")

    def _check_policing(self, st: State, s: Src, order, wire_len: int, arrival: int,
                        verdicts, out: BatchOutcome) -> None:
        """Each hop's verdict against an exact-rational token bucket.

        The router's bucket keeps float64 nanoseconds; at epoch-scale
        timestamps each of its additions rounds by up to half an ulp (128 ns
        at 1.7e18 ns), and the rounding adds up until the bucket runs empty.
        The oracle carries, next to the exact bucket, a bound on that
        accumulated rounding. A verdict that differs from the exact bucket's
        while the exact end lies within that bound of the limit is the known
        float-bucket defect: it is listed in ``known_defects`` and counted in
        ``policing.bucket_float_flips``, not failed. Any other difference is
        a failed op. The exact bucket is charged whenever the router admitted,
        so every verdict is judged on the history the router saw.
        """
        legal = (("P", "ok"), ("B", "overuse"))
        if len(verdicts) != HOPS or any(v not in legal for v in verdicts):
            out.failed += 1
            out.failures.append(f"over-profile at {arrival}: verdicts {verdicts}")
            return
        window = self.cfg.bucket_window_ns
        for (h, _, _, _, off), got in zip(order, verdicts):
            now = arrival + off
            limit = now + window
            bw = s.store.get(s.plan.flyover_key(h, wire.FORWARD), now).bw
            ts, err = st.exact_buckets.get((h, s.sid), (0, 0.0))
            end = (ts if ts > now else now) + Fraction(wire_len * 8 * 10**9, bw)
            # the float bucket adds the packet time to its timestamp, which is
            # one rounding, or, if it ran empty, to now, which is rounded too;
            # from its bound alone it may be unclear which (the packet time's
            # own rounding, below 1e-6 ns, is left out)
            half_ulp = math.ulp(float(limit)) / 2
            err = ((err if ts + err > now else 0.0)
                   + (half_ulp if ts - err > now else 2 * half_ulp))
            admit = end <= limit
            admitted = got[0] == "P"
            if admit != admitted:
                miss = f"over-profile at {arrival} hop {h}: {got}, exact bucket " \
                       f"{'admits' if admit else 'refuses'}, " \
                       f"{float(abs(end - limit)):.0f} ns from its limit"
                if abs(end - limit) > err:
                    out.failed += 1
                    out.failures.append(miss)
                    return
                out.known_defects.append(f"{miss}, within the {err:.0f} ns float rounding")
            if admitted:
                st.exact_buckets[(h, s.sid)] = (end, err)

    def finish(self, st: State) -> dict:
        return {
            "dedup_entries": sum(len(r.dedup) for r in st.routers),
            "monitor_entries": sum(len(r.monitor.entries) for r in st.routers),
            "router_state_entries": sum(router_state_entries(r) for r in st.routers),
        }


EXPECTED = {
    "fwd": (("P", "ok"),) * HOPS,
    "reply": (("P", "ok"),) * HOPS,
    "forged": (("B", "bad_mac"),) * HOPS,
    "replay": (("D", "replay"),),
    "expired": (("B", "expired"),) * HOPS,
    "stale": (("B", "stale_ts"),) * HOPS,
}


def router_state_entries(r: Router) -> int:
    return (len(r.grant_log) + len(r.grant_request_ts) + len(r.first_request_ts)
            + sum(len(v) for v in r.active_grants.values()))
