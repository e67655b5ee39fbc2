#!/usr/bin/env python3
"""Walk through one reservation end to end: keys, setup, data, reply.

Three ASes sit between a source (AS 7) and its destination. The source
derives no state at the routers: every router recomputes its keys and
tokens from a 16-byte local secret.
"""

import random

from flyover import crypto, source, wire
from flyover.admission import EstimatorConfig
from flyover.router import Router, RouterConfig
from flyover.topo import AllocationMatrix

S = 1_000_000_000
SRC = 7

cfg = RouterConfig(estimator=EstimatorConfig(min_requesters=1, tentative_slots=4,
                                             exact=True))
routers = []
for as_id in (21, 22, 23):
    matrix = AllocationMatrix.from_capacities([100 * 10**9] * 3)
    routers.append(Router(as_id, bytes([as_id]) * 16, matrix, cfg,
                          rng=random.Random(as_id)))

# hop list: (AS, ingress interface, egress interface); the last hop exits
# into its internal interface 0
plan = source.PathPlan(
    hops=(source.PathHop(21, 1, 2), source.PathHop(22, 1, 2), source.PathHop(23, 1, 0)),
    backward_hops=frozenset({0, 1, 2}),
)

print("== key derivation (out-of-band in this demo) ==")
keys = {r.as_id: crypto.derive_drkey(r.secret, SRC) for r in routers}
for as_id, k in keys.items():
    print(f"  AS {as_id} <-> AS {SRC}: {k.hex()}")

print("\n== setup request ==")
req = source.build_setup_request(keys, plan, SRC, ts_req=1000)
print(f"  {len(req.entries)} authenticated entries, wire size "
      f"{len(wire.encode(req))} bytes")

entries = []
for hop_index, r in enumerate(routers):
    hop = plan.hops[hop_index]
    decision, es = r.handle_setup(req, hop_index, hop.ingress, hop.egress, now=2000)
    print(f"  AS {r.as_id}: {decision.verdict}, appended {len(es)} sealed entries")
    entries.extend(es)

print("\n== response ingestion ==")
resp = wire.SetupResponse(SRC, req.ts_req,
                          tuple(sorted(entries, key=lambda e: (e.hop, e.direction))))
store = source.GrantStore()
accepted = source.ingest_response(store, keys, resp, plan)
for key in accepted:
    g = store.grants[key]
    print(f"  grant {key}: {g.bw/1e9:.2f} Gbps until t={g.ts_exp/1e9:.0f}s")

print("\n== reservation traffic ==")
pkt = source.emit_packet(store, plan, SRC, b"critical payload", len_b=120, now=5000)
print(f"  packet: {pkt.total_len} bytes, {len(pkt.rvfs)} forward and "
      f"{len(pkt.bvfs)} backward fields")
for hop_index, r in enumerate(routers):
    hop = plan.hops[hop_index]
    d = r.handle_data(pkt, hop_index, hop.ingress, hop.egress, now=5500)
    print(f"  AS {r.as_id}: verdict={d.verdict} class={d.traffic_class.name}")

print("\n== bounded reply ==")
reply = source.build_reply(pkt, b"ack")
print(f"  reply {reply.total_len} bytes <= budget {pkt.len_b}")
for hop_index in reversed(range(len(routers))):
    r = routers[hop_index]
    hop = plan.hops[hop_index]
    d = r.handle_data(reply, hop_index, hop.ingress, hop.egress, now=6000)
    print(f"  AS {r.as_id}: verdict={d.verdict} class={d.traffic_class.name}")

print("\n== tampering is demoted, replays are dropped ==")
bad = wire.DataPacket(pkt.src, pkt.d_flag, pkt.ts_pkt, pkt.len_b,
                      ((0, b"\x00\x00\x00"),) + pkt.rvfs[1:], pkt.bvfs, pkt.payload)
d = routers[0].handle_data(bad, 0, 1, 2, now=6500)
print(f"  corrupted field: {d.verdict} -> {d.traffic_class.name}")
d = routers[0].handle_data(pkt, 0, 1, 2, now=6600)
print(f"  replayed packet: {d.verdict} -> {d.traffic_class.name}")
