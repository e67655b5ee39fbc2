#!/usr/bin/env python3
"""Requester counting with rotating filters: denial, promotion, fairness.

A first-time requester either takes a tentative slot from the unreserved
remainder or is denied; two rotation intervals later it is guaranteed a
firm share. The sum of firm grants never exceeds the reserved fraction of
the allocation entry, whatever the request schedule does.
"""

from fractions import Fraction

from flyover.admission import RESERVED_DEN, RESERVED_NUM, EstimatorConfig, RequesterEstimator

S = 1_000_000_000
EPS = 10 * S
ENTRY = 100 * 10**9  # matrix entry for this interface pair

cfg = EstimatorConfig(interval_ns=EPS, min_requesters=1, tentative_slots=2, exact=True)
est = RequesterEstimator(cfg, now=0)

print("== first requests land in tentative slots ==")
for src in (101, 102, 103):
    g = est.request(src, cfg.member(src), ENTRY, now=1 * S)
    outcome = "denied" if g is None else \
        f"{g.bw/1e9:.2f} Gbps ({'tentative' if g.tentative else 'firm'})"
    print(f"  src {src}: {outcome}")

print("\n== two intervals later the same sources are firm ==")
est.rotate(2 * EPS + 1)
for src in (101, 102, 103):
    g = est.request(src, cfg.member(src), ENTRY, now=2 * EPS + 1)
    print(f"  src {src}: {g.bw/1e9:.2f} Gbps firm={not g.tentative}; "
          f"requester count = {est.requesters}")

print("\n== firm grants always fit the reserved fraction ==")
import random
rng = random.Random(1)
est = RequesterEstimator(cfg, now=0)
latest = {}
worst = Fraction(0)
t = 0
for _ in range(4000):
    t += rng.randrange(1, EPS // 3)
    est.rotate(t)
    src = rng.randrange(12)
    g = est.request(src, cfg.member(src), ENTRY, t)
    if g:
        latest[src] = g
        firm = sum(x.bw for x in latest.values() if x.ts_exp > t and not x.tentative)
        worst = max(worst, Fraction(firm, ENTRY))
print(f"  max concurrent firm allocation over a random schedule: "
      f"{float(worst):.4f} of the entry (bound {RESERVED_NUM / RESERVED_DEN})")

print("\n== allocation-matrix updates take effect asymmetrically ==")
from flyover.topo import AllocationMatrix
m = AllocationMatrix.from_capacities([100, 100])
m.update(0, 1, 50, now=1000, validity_ns=EPS)
print(f"  decrease 100->50 at t=1000: admission={m.admission_value(0, 1)}, "
      f"capacity@t+1={m.capacity_value(0, 1, 1001)}, "
      f"capacity@t+interval={m.capacity_value(0, 1, 1000 + EPS)}")
