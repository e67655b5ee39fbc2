"""topo_cover: the C5/C6 study on one Barabasi-Albert graph at r in {0.1, 1.0}.

Why: only ``topo`` and ``admission.AllocationMatrix`` do work here; the
protocol path does nothing. The graph is sized so that the per-source tree
walks dominate graph generation.

Set-up runs generate_topology, build_matrices and build_demands for both
rates; these inputs are the same in every batch. One batch runs the study
on them in the order the experiments do: ReservationStudy; covers at three
thresholds for both strategies; reservation_rows for both strategies;
pair_bandwidth. One op is one (src, dst) demand evaluated.
"""

from __future__ import annotations

from flyover import topo

from common import BatchOutcome

RATES = (0.1, 1.0)
GAMMAS = (1e7, 1e8, 1e9)  # cover thresholds, bps
STRATEGIES = (topo.MAXIMUM, topo.CONCURRENT)

SIZES = {"full": 200, "tiny": 40}


class TopoCover:
    name = "topo_cover"
    per_op_latency = False
    setup_reps = 9
    setup_inner = 1
    batches_per_s = 1.0
    trace_setup = True  # generate_topology, build_matrices and build_demands run here
    max_batches = 10**6

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.n = SIZES[size]
        self.tracer = None

    def setup(self) -> dict:
        """The study's inputs: the graph, its matrices and both rates' demands."""
        g = topo.generate_topology(self.n, 2, self.seed)
        if not g.is_connected():
            raise RuntimeError("generated topology is not connected")
        return {"g": g, "matrices": topo.build_matrices(g),
                "demands": {r: topo.build_demands(g, r, self.seed) for r in RATES}}

    def prepare(self, st: dict, k: int) -> None:
        pass

    def run_batch(self, st: dict, k: int) -> BatchOutcome:
        g, matrices = st["g"], st["matrices"]
        results = []
        ops = 0
        for r in RATES:
            demands = st["demands"][r]
            study = topo.ReservationStudy(g, matrices, demands)
            covers = {gamma: study.covers(gamma) for gamma in GAMMAS}
            rows = {s: list(study.reservation_rows(s)) for s in STRATEGIES}
            shares = study.pair_bandwidth()
            ops += sum(len(d) for d in demands.values())
            results.append((r, demands, covers, rows, shares))
        out = BatchOutcome(ops)
        out.verify = lambda o: self._verify(results, o)
        return out

    def _verify(self, results, out: BatchOutcome) -> None:
        for r, demands, covers, rows, shares in results:
            for s in STRATEGIES:
                sizes = {(src, dst): size for src, dst, size in rows[s]}
                for gamma in GAMMAS:
                    expected = topo.gamma_cover(sizes, demands, gamma).per_node
                    got = covers[gamma][s].per_node
                    bad = [src for src in demands if got.get(src) != expected.get(src)]
                    if bad:
                        out.failed += sum(len(demands[src]) for src in bad)
                        out.failures.append(f"r={r} {s} gamma={gamma:g}: covers() differs "
                                            f"from reservation_rows at {len(bad)} sources")
                out.outcomes.append((r, s, [covers[gamma][s].median for gamma in GAMMAS],
                                     sum(sizes.values())))
        low, high = results[0][4], results[-1][4]
        grown = [key for key, share in low.items() if high[key] > share]
        if grown:
            out.failed += len(grown)
            out.failures.append(f"C6: {len(grown)} pair shares grow from r={RATES[0]} "
                                f"to r={RATES[-1]}")

    def finish(self, st: dict) -> dict:
        return {"study_sources": self.n}
