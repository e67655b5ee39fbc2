"""scenario: one simnet scenario generated from the seed, run for a fixed
simulated duration. One op is one packet injected by any flow or adversary.

Why: this is the only workload that runs the event loop, the link queues
and the per-hop frame decode (today up to three decodes per setup hop).

The scenario has a bottleneck link shared by three honest reservation
flows (one with backward replies, one renewing its reservation), a
best-effort flood at twice the bottleneck's capacity, a spoofer under the
first flow's id, a replayer on that flow's access link, an overuser at 2x
its grant, and a request flood. Requirements R1-R5 are evaluated after
every run; any FAIL fails the run.
"""

from __future__ import annotations

import random

from flyover import simnet

from common import BatchOutcome, outcome_digest
from wl_datapath import router_state_entries

SIZES = {
    # bottleneck Mbps, spoofed packets, request-flood rate per AS
    "full": (10, 1000, 25),
    "tiny": (4, 100, 5),
}
DURATION = "4s"  # long enough for R5's 2% tolerance on the overuser's demoted share
# the estimator interval equals the duration: grants last the whole run, and the
# renewing flow renews at 4/5 of it


def scenario_config(seed: int, size: str = "full") -> dict:
    """The seed's scenario.

    Every flow and adversary crosses AS 2. The honest "plain" flow shares the
    2->3 bottleneck with the best-effort flood, the spoofer and the request
    floods; the other honest flows and the overuser leave AS 2 on links of
    their own, so R4's delay bound (one foreign frame in service per hop)
    applies to every honest flow. The seed varies link delays only, so every
    seed's scenario carries the same traffic mix.
    """
    rng = random.Random(seed)
    bottleneck, spoofs, req_rate = SIZES[size]
    stop = simnet.parse_duration(DURATION) * 9 // 10
    access = f"{4 * bottleneck}Mbps"
    links = [{"a": a, "b": 2, "capacity": access, "delay": f"{rng.randint(1, 3)}ms"}
             for a in (1, 5, 6, 8, 9, 10, 11, 12)]
    links += [{"a": 2, "b": 3, "capacity": f"{bottleneck}Mbps", "delay": "2ms"},
              {"a": 3, "b": 4, "capacity": access, "delay": "1ms"}]
    links += [{"a": 2, "b": b, "capacity": f"{bottleneck}Mbps", "delay": "1ms"}
              for b in (13, 14, 15)]

    def honest(name, src, dst, **extra):
        return {"type": "reservation", "name": name, "src": src, "path": [src, 2, dst],
                "packet_size": 1000, "rate": "auto",
                "stop_at": f"{stop}ns", **extra}

    plain = honest("plain", 1, 3)
    plain["path"] = [1, 2, 3, 4]
    return {
        "seed": seed,
        "duration": DURATION,
        "warm_start": True,
        "bucket_window": "50ms",
        "estimator": {"interval": "4s", "min_requesters": 1, "tentative_slots": 0,
                      "exact": True},
        "topology": {"ases": [{"id": a} for a in (1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12,
                                                   13, 14, 15)],
                     "links": links},
        "flows": [
            plain,
            honest("replies", 5, 13, backward=True, len_b=200),
            honest("renewing", 6, 14, renew=True),
        ],
        "adversaries": [
            {"kind": "best_effort_flood", "name": "flood", "src": 9, "path": [9, 2, 3, 4],
             "rate": f"{2 * bottleneck}Mbps", "packet_size": 1500, "stop_at": f"{stop}ns"},
            {"kind": "spoofer", "name": "forger", "src": 10, "victim": 1,
             "path": [10, 2, 3, 4], "count": spoofs, "gap": "2ms", "packet_size": 200},
            {"kind": "replayer", "name": "echo", "link": [1, 2], "copies": 1,
             "delay": "300us"},
            {"kind": "overuser", "name": "greedy", "src": 8, "path": [8, 2, 15],
             "packet_size": 1000, "rate": "auto", "factor": 2.0, "stop_at": f"{stop}ns"},
            {"kind": "request_flood", "name": "reqflood11", "src": 11, "path": [11, 2, 3, 4],
             "requests_per_s": req_rate},
            {"kind": "request_flood", "name": "reqflood12", "src": 12, "path": [12, 2, 3, 4],
             "requests_per_s": req_rate},
        ],
        "requirements": [
            {"r": "R1", "src": 1},
            {"r": "R2", "flow": "renewing"},
            {"r": "R3", "adversary": "forger", "max_successes": 0},
            {"r": "R4", "flow": "plain"},
            {"r": "R4", "flow": "replies"},
            {"r": "R4", "flow": "renewing"},
            {"r": "R5", "overuser": "greedy", "expected_fraction": 0.5, "tolerance": 0.02,
             "replayer": "echo", "no_expired_conform": True},
        ],
    }


class Scenario:
    name = "scenario"
    per_op_latency = False
    setup_reps = 9
    setup_inner = 40  # one set-up takes ~5 ms; a sample of 40 lasts ~0.2 s
    batches_per_s = 0.8
    trace_setup = False
    max_batches = 10**6

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.size = size
        self.tracer = None

    def setup(self) -> dict:
        cfg = scenario_config(self.seed, self.size)
        net = simnet.Network(cfg)  # validates the configuration
        return {"cfg": cfg, "net": net, "k": 0, "last": net}

    def prepare(self, st: dict, k: int) -> None:
        if st["k"] != k:
            st["net"], st["k"] = simnet.Network(st["cfg"]), k

    def run_batch(self, st: dict, k: int) -> BatchOutcome:
        net = st["net"]
        result = net.run()
        st["last"] = net
        injected = injected_packets(result)
        out = BatchOutcome(injected)
        out.verify = lambda o: self._verify(st["cfg"], result, o)
        return out

    def _verify(self, cfg: dict, result, out: BatchOutcome) -> None:
        for name in ("plain", "replies", "renewing"):
            st = result.flows[name].stats
            missed = st.sent - st.delivered_priority
            if missed:
                out.failed += missed
                out.failures.append(f"flow {name}: {missed}/{st.sent} honest packets not "
                                    f"delivered as priority")
        forger = result.adversaries["forger"]
        if forger.succeeded:
            out.failed += forger.succeeded
            out.failures.append(f"{forger.succeeded} forged packets given priority")
        echo = result.adversaries["echo"]
        if echo.copies_delivered:
            out.failed += echo.copies_delivered
            out.failures.append(f"{echo.copies_delivered} replayed copies delivered")
        verdicts = []
        for req in cfg["requirements"]:
            ok, detail = simnet.assert_requirement(result, req)
            verdicts.append((req["r"], ok, detail))
            if not ok:
                out.failed += 1
                out.failures.append(f"{req['r']} FAIL: {detail}")
        out.outcomes = [outcome_digest(result.log_lines), result.flow_summary_rows(),
                        result.monitor_rows(), verdicts]

    def finish(self, st: dict) -> dict:
        net = st["last"]
        routers = [n.router for n in net.nodes.values() if n.router is not None]
        return {
            "dedup_entries": sum(len(r.dedup) for r in routers),
            "monitor_entries": sum(len(r.monitor.entries) for r in routers),
            "router_state_entries": sum(router_state_entries(r) for r in routers),
            "be_drops": sum(link.be_dropped for link in net.links.values()),
        }


def injected_packets(result) -> int:
    """Packets injected by flows and adversaries, from the run's per-sender tallies.

    Injection times depend on handshakes inside the simulation, so the
    count is read from the result rather than from the configuration.
    """
    n = sum(f.stats.sent for f in result.flows.values())
    for adv in result.adversaries.values():
        if isinstance(adv, simnet.Spoofer):
            n += adv.sent
        elif isinstance(adv, simnet.RequestFlood):
            n += adv.count
        elif isinstance(adv, simnet.Replayer):
            n += adv.injected
    return n
