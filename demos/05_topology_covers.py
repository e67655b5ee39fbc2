#!/usr/bin/env python3
"""Reservation sizes and coverage on scale-free graphs.

Generates a preferential-attachment topology with degree-gravity link
capacities, computes per-pair shares from exact requester counts, and
reports the median coverage for both composition strategies across
thresholds — the maximum strategy holds full 100 kbps coverage while the
concurrent strategy thins out as the threshold grows.
"""

from flyover import topo

N, SEED = 400, 3

g = topo.generate_topology(N, attachment=2, seed=SEED)
print(f"graph: {g.n} nodes, {g.n_edges} edges, max degree {max(g.degrees)}, "
      f"connected={g.is_connected()}")
caps = sorted(set(g.edge_capacity.values()))
print(f"link capacities: {caps[0]/1e9:.0f}..{caps[-1]/1e9:.0f} Gbps "
      f"in {len(caps)} buckets")

mats = topo.build_matrices(g)
for r in (0.1, 1.0):
    demands = topo.build_demands(g, r, SEED)
    study = topo.ReservationStudy(g, mats, demands, min_requesters=1)
    print(f"\nsampling rate r={r}: {sum(map(len, demands.values()))} demands, "
          f"{len(study.pair_requesters)} interface pairs in use, "
          f"max requester count {max(study.pair_requesters.values())}")
    sizes = sorted(v for _, _, v in study.reservation_rows(topo.CONCURRENT))
    print(f"  concurrent sizes: min={sizes[0]/1e3:.0f}k median={sizes[len(sizes)//2]/1e6:.2f}M "
          f"max={sizes[-1]/1e9:.2f}G bps")
    print("  threshold     maximum  concurrent")
    for gamma in (10_000, 100_000, 1_000_000, 10_000_000, 100_000_000):
        covers = study.covers(float(gamma))
        print(f"  {gamma/1e3:9.0f}k   {covers[topo.MAXIMUM].median:7.3f}  "
              f"{covers[topo.CONCURRENT].median:10.3f}")

print("\nper-pair shares never over-allocate their matrix entry:")
bw = study.pair_bandwidth()  # the loop's last study: r=1.0
worst = max((bw[p] * c) / mats[p[0]].admission_value(p[1], p[2])
            for p, c in study.pair_requesters.items())
print(f"  max utilization of any entry: {float(worst):.4f} (<= 1 exactly)")
