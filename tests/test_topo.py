"""Topology experiments: generation, matrices, sampling, reservations, cover."""

import hashlib
import math
import os
import random
from collections import Counter
from fractions import Fraction

import pytest

from flyover import topo
from flyover.topo import AllocationMatrix

from helpers import matrix_rows
from oracles import per_path_reservations, ref_destination_order

GBPS = 10**9
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


# generation ------------------------------------------------------------------

def test_ba_edge_count_and_connectivity():
    g = topo.generate_topology(500, attachment=2, seed=1)
    assert g.n_edges == 2 * (500 - 2)  # m * (n - m)
    assert g.is_connected()


def test_generated_graphs_match_the_golden():
    """The C5 sweep's and topo_cover's graphs, pinned by a hash of their
    capacities: the generator draws them itself, so they move only with it."""
    with open(os.path.join(GOLDEN, "topology_edges.txt")) as fh:
        rows = [line.split() for line in fh if not line.startswith("#")]
    assert len(rows) == 20
    for n, m, seed, digest in rows:
        items = sorted(topo.generate_topology(int(n), int(m), int(seed)).edge_capacity.items())
        assert hashlib.sha256(repr(items).encode()).hexdigest() == digest, (n, m, seed)


def test_interfaces_one_per_edge_plus_internal():
    g = topo.generate_topology(60, attachment=2, seed=3)
    for u in range(g.n):
        assert len(g.capacities[u]) == len(g.adj[u]) + 1
        assert sorted(g.if_index[u].values()) == list(range(1, len(g.adj[u]) + 1))
        assert g.capacities[u][0] == max(g.capacities[u][1:])  # internal link


def test_interfaces_number_neighbours_by_ascending_id():
    assert topo.interfaces({7: 10, 2: 30, 5: 20}) == ({2: 1, 5: 2, 7: 3}, [30, 30, 20, 10])
    assert topo.interfaces({}) == ({}, [0])  # an AS without links keeps its internal interface


def test_equal_degree_graph_all_lowest_bucket():
    # the seed star of 3 nodes: both edges have degree product 2 -> both in
    # bucket 0 (ranked apart, the second edge would land in bucket 5)
    g = topo.generate_topology(3, attachment=2, seed=1)
    assert g.edge_capacity == {(0, 1): 40 * GBPS, (0, 2): 40 * GBPS}
    # on a larger graph, equal degree products always share one capacity
    g = topo.generate_topology(300, attachment=2, seed=7)
    by_product = {}
    for (u, v), cap in g.edge_capacity.items():
        by_product.setdefault(g.degrees[u] * g.degrees[v], set()).add(cap)
    assert all(len(caps) == 1 for caps in by_product.values())


def test_capacities_monotone_in_degree_product():
    g = topo.generate_topology(300, attachment=2, seed=7)
    deg = g.degrees
    pairs = sorted(g.edge_capacity.items(), key=lambda kv: deg[kv[0][0]] * deg[kv[0][1]])
    caps = [c for _, c in pairs]
    assert all(a <= b for a, b in zip(caps, caps[1:]))
    assert min(caps) >= 40 * GBPS and max(caps) <= 400 * GBPS


def test_build_matrices_shapes_and_bounds():
    g = topo.generate_topology(80, attachment=2, seed=5)
    mats = topo.build_matrices(g)
    for u, m in enumerate(mats):
        n = len(g.capacities[u])
        assert m.n_interfaces == n
        rows = matrix_rows(m)
        for b in range(n):
            assert sum(rows[a][b] for a in range(n)) <= g.capacities[u][b]
        for a in range(n):
            assert sum(rows[a]) <= g.capacities[u][a]


# sampling ---------------------------------------------------------------------

def test_sample_rate_one_is_all_other_nodes():
    g = topo.generate_topology(40, seed=2)
    s = topo.build_demands(g, 1.0, seed=2)[5]
    assert sorted(s) == [v for v in range(40) if v != 5]


def test_sample_never_contains_source():
    g = topo.generate_topology(50, seed=4)
    for src, dests in topo.build_demands(g, 0.2, seed=4).items():
        assert src not in dests


def test_samples_nested_across_rates():
    g = topo.generate_topology(100, seed=9)
    small, large = topo.build_demands(g, 0.1, seed=9), topo.build_demands(g, 0.6, seed=9)
    for src in (0, 17, 99):
        assert set(small[src]) <= set(large[src])


def test_single_draw_frequencies_proportional_to_degree():
    """Chi-square over 10^4 single draws against the degree weights."""
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]
    g = topo.TopologyGraph(5, edges, {topo._ekey(u, v): 40 * GBPS for u, v in edges})
    deg = g.degrees  # src 4 excluded; candidates 0..3 with degrees 4,2,2,1
    counts = {v: 0 for v in range(4)}
    for trial in range(10_000):
        counts[topo.destination_order(g, 4, seed=trial)[0]] += 1  # a single draw
    total_w = sum(deg[v] for v in range(4))
    chi2 = 0.0
    for v in range(4):
        expect = 10_000 * deg[v] / total_w
        chi2 += (counts[v] - expect) ** 2 / expect
    assert chi2 < 21.1  # chi-square 99.99% critical value, df=3


def test_destination_order_matches_the_reference():
    """Every source's order equals the (key, node) tuple-sort reference that
    draws each key with ``expovariate``, on small and mid-size graphs, and
    for 50 sources of one n=1000 graph."""
    for n in (2, 3, 60, 200):
        for seed in (1, 2, 11):
            g = topo.generate_topology(n, attachment=min(2, n - 1), seed=seed)
            for src in range(n):
                assert topo.destination_order(g, src, seed) == \
                    ref_destination_order(g, src, seed), (n, seed, src)
    g = topo.generate_topology(1000, seed=3)
    for src in range(0, 1000, 20):
        assert topo.destination_order(g, src, 3) == ref_destination_order(g, src, 3), src


def test_demands_are_prefixes_of_the_reference_order():
    for n, seed in ((60, 2), (200, 11)):
        g = topo.generate_topology(n, seed=seed)
        orders = [ref_destination_order(g, src, seed) for src in range(n)]
        for r in (0.001, 0.1, 0.5, 1.0):  # 0.001 and 1.0 meet the clamp's two ends
            d = max(1, min(n - 1, round(r * n)))
            assert topo.build_demands(g, r, seed) == \
                {src: order[:d] for src, order in enumerate(orders)}, (n, seed, r)


def test_tied_keys_order_by_ascending_id(monkeypatch):
    """With every draw equal on a ring (all degrees 2) every key ties, and
    both the order and its reference list the other nodes by ascending id."""
    class Constant(random.Random):
        def random(self):
            return 0.375

    edges = [(v, (v + 1) % 6) for v in range(6)]
    g = topo.TopologyGraph(6, edges, {topo._ekey(u, v): 40 * GBPS for u, v in edges})
    monkeypatch.setattr(topo.random, "Random", Constant)
    for src in range(6):
        others = [v for v in range(6) if v != src]
        assert topo.destination_order(g, src, 1) == others
        assert ref_destination_order(g, src, 1) == others


# reservations -----------------------------------------------------------------

def _line3() -> tuple[topo.TopologyGraph, list[AllocationMatrix]]:
    edges = [(0, 1), (1, 2)]
    g = topo.TopologyGraph(3, edges, {e: 40 * GBPS for e in map(tuple, edges)})
    return g, topo.build_matrices(g)


def _rows(study, strategy) -> dict[tuple[int, int], float]:
    return {(src, dst): size for src, dst, size in study.reservation_rows(strategy)}


def _assert_study_matches_oracle(study, g, mats, demands, min_requesters=1):
    """The study's requester counts and exact shares equal the per-path
    oracle's, both in (node, ingress, egress) order, and each strategy's
    rows equal the oracle's sizes over the float shares the rows are
    computed from, at float equality."""
    requesters, sizes = per_path_reservations(g, mats, demands, min_requesters,
                                              float_shares=True)
    assert study.pair_requesters == requesters
    bandwidth = study.pair_bandwidth()
    assert bandwidth == {(node, a, b): Fraction(mats[node].admission_value(a, b),
                                                max(count, min_requesters))
                         for (node, a, b), count in requesters.items()}
    assert list(study.pair_requesters) == list(bandwidth) == sorted(requesters)
    for strategy in (topo.MAXIMUM, topo.CONCURRENT):
        assert _rows(study, strategy) == {k: float(v) for k, v in sizes[strategy].items()}, \
            strategy


def test_three_node_line_single_demand():
    """Hand-computed chain: min over source egress, transit, and delivery."""
    g, mats = _line3()
    # interfaces: node0 {1:1}, node1 {0:1, 2:2}, node2 {1:1}
    assert mats[0].admission_value(0, 1) == 40 * GBPS
    assert mats[1].admission_value(1, 2) == 20 * GBPS  # 3-port node halves
    assert mats[2].admission_value(1, 0) == 40 * GBPS
    study = topo.ReservationStudy(g, mats, {0: [2]}, min_requesters=1)
    assert study.pair_requesters == {(0, 0, 1): 1, (1, 1, 2): 1, (2, 1, 0): 1}
    requesters, sizes = per_path_reservations(g, mats, {0: [2]})
    assert requesters == study.pair_requesters
    assert sizes[topo.MAXIMUM] == sizes[topo.CONCURRENT] == {(0, 2): Fraction(20 * GBPS)}
    for strategy in (topo.MAXIMUM, topo.CONCURRENT):  # single path
        assert list(study.reservation_rows(strategy)) == [(0, 2, 20e9)]


def test_two_sources_split_shared_pair():
    g, mats = _line3()
    study = topo.ReservationStudy(g, mats, {0: [2], 1: [2]}, min_requesters=1)
    # both sources traverse node2's delivery pair (1, 0)
    assert study.pair_requesters[(2, 1, 0)] == 2
    bw = study.pair_bandwidth()
    assert bw[(2, 1, 0)] == Fraction(40 * GBPS, 2)


def test_min_requesters_floor_shrinks_shares():
    g, mats = _line3()
    study = topo.ReservationStudy(g, mats, {0: [2]}, min_requesters=4)
    _, sizes = per_path_reservations(g, mats, {0: [2]}, min_requesters=4)
    assert sizes[topo.MAXIMUM] == {(0, 2): Fraction(20 * GBPS, 4)}
    assert list(study.reservation_rows(topo.MAXIMUM)) == [(0, 2, 5e9)]
    _assert_study_matches_oracle(study, g, mats, {0: [2]}, min_requesters=4)


def test_maximum_dominates_concurrent_pointwise():
    cfg_seed = 11
    g = topo.generate_topology(120, seed=cfg_seed)
    mats = topo.build_matrices(g)
    demands = topo.build_demands(g, 0.3, cfg_seed)
    study = topo.ReservationStudy(g, mats, demands)
    _assert_study_matches_oracle(study, g, mats, demands)
    conc, maxi = _rows(study, topo.CONCURRENT), _rows(study, topo.MAXIMUM)
    assert set(conc) == set(maxi)
    assert all(maxi[k] >= conc[k] for k in conc)
    assert any(maxi[k] > conc[k] for k in conc)


def test_streamed_rows_match_exact():
    """Against the exact sizes, a maximum row is the nearest float. A
    concurrent row divides an already rounded share by the path count, so
    it may sit one ulp from the nearest float (on 64 of the 4320 demands of
    the n=120 graph), never further."""
    for n, r, seed in ((60, 0.2, 13), (120, 0.3, 11)):
        g = topo.generate_topology(n, seed=seed)
        mats = topo.build_matrices(g)
        demands = topo.build_demands(g, r, seed)
        study = topo.ReservationStudy(g, mats, demands)
        _assert_study_matches_oracle(study, g, mats, demands)
        _, exact = per_path_reservations(g, mats, demands)
        assert _rows(study, topo.MAXIMUM) == {k: float(v) for k, v in exact[topo.MAXIMUM].items()}
        conc = _rows(study, topo.CONCURRENT)
        assert conc.keys() == exact[topo.CONCURRENT].keys()
        for key, size in exact[topo.CONCURRENT].items():
            assert abs(conc[key] - float(size)) <= math.ulp(float(size)), key


def test_cached_shares_survive_caller_mutation():
    """What the study hands out is the caller's to change: a later query
    still answers as a fresh study does."""
    g = topo.generate_topology(60, seed=7)
    mats = topo.build_matrices(g)
    demands = topo.build_demands(g, 0.3, 7)
    study, fresh = (topo.ReservationStudy(g, mats, demands) for _ in range(2))
    study.pair_bandwidth().clear()
    for key in list(study.pair_requesters)[:10]:
        study.pair_requesters[key] += 1000
    assert study.pair_bandwidth() == fresh.pair_bandwidth()
    assert study.covers(1e8) == fresh.covers(1e8)
    for strategy in (topo.MAXIMUM, topo.CONCURRENT):
        assert list(study.reservation_rows(strategy)) == list(fresh.reservation_rows(strategy))
    assert study.pair_bandwidth() is not study.pair_bandwidth()


def test_concurrent_divides_shared_egress_among_paths():
    """Hand-computed split: source 0's egress pair carries both its paths."""
    edges = [(0, 1), (1, 2), (1, 3)]
    g = topo.TopologyGraph(4, edges, {e: 40 * GBPS for e in edges})
    mats = topo.build_matrices(g)
    mats[1] = AllocationMatrix.from_capacities([400 * GBPS] * 4)  # ample transit
    # interfaces: node0 {1:1}, node1 {0:1, 2:2, 3:3}, node2 {1:1}, node3 {1:1}
    assert mats[0].admission_value(0, 1) == 40 * GBPS
    assert mats[1].admission_value(1, 2) == mats[1].admission_value(1, 3) == 133_333_333_333
    assert mats[2].admission_value(1, 0) == mats[3].admission_value(1, 0) == 40 * GBPS
    study = topo.ReservationStudy(g, mats, {0: [2, 3]})
    # one requester per pair: every share is the admission value itself
    assert set(study.pair_requesters.values()) == {1}
    # maximum: min(40G egress, 133.3G transit, 40G delivery) = 40G per path;
    # concurrent: the egress share is halved over the source's two paths
    _, sizes = per_path_reservations(g, mats, {0: [2, 3]})
    assert sizes[topo.MAXIMUM] == {(0, 2): 40 * GBPS, (0, 3): 40 * GBPS}
    assert sizes[topo.CONCURRENT] == {(0, 2): 20 * GBPS, (0, 3): 20 * GBPS}
    assert list(study.reservation_rows(topo.MAXIMUM)) == [(0, 2, 40e9), (0, 3, 40e9)]
    assert list(study.reservation_rows(topo.CONCURRENT)) == [(0, 2, 20e9), (0, 3, 20e9)]
    covers = study.covers(30e9)
    assert covers[topo.MAXIMUM].per_node == {0: 1.0}
    assert covers[topo.CONCURRENT].per_node == {0: 0.0}


def test_study_walks_each_source_once(monkeypatch):
    """Each source's tree is walked exactly once per study, through the
    module-level ``shortest_path_tree`` (the benchmark's tracer counts that)."""
    walked = Counter()
    walk = topo.shortest_path_tree

    def counting_walk(g, src):
        walked[src] += 1
        return walk(g, src)

    monkeypatch.setattr(topo, "shortest_path_tree", counting_walk)
    g = topo.generate_topology(40, seed=29)
    study = topo.ReservationStudy(g, topo.build_matrices(g), topo.build_demands(g, 0.5, 29))
    for gamma in (1e7, 1e8, 1e9):
        study.covers(gamma)
    for strategy in (topo.MAXIMUM, topo.CONCURRENT):
        assert len(list(study.reservation_rows(strategy))) == 40 * 20
    study.pair_bandwidth()
    assert walked == Counter(range(40))


def test_study_reads_each_admission_entry_once(monkeypatch):
    """Every query reads a pair's admission entry from one cache: one
    ``admission_value`` call per pair in use, however many queries follow."""
    g = topo.generate_topology(40, seed=29)
    mats = topo.build_matrices(g)
    node_of = {id(m): node for node, m in enumerate(mats)}
    read = Counter()
    entry = AllocationMatrix.admission_value

    def counting_entry(matrix, ingress, egress):
        read[node_of[id(matrix)], ingress, egress] += 1
        return entry(matrix, ingress, egress)

    monkeypatch.setattr(AllocationMatrix, "admission_value", counting_entry)
    study = topo.ReservationStudy(g, mats, topo.build_demands(g, 0.5, 29))
    for gamma in (1e7, 1e8, 1e9):
        study.covers(gamma)
    for strategy in (topo.MAXIMUM, topo.CONCURRENT):
        list(study.reservation_rows(strategy))
    study.pair_bandwidth()
    study.pair_bandwidth()
    assert read == dict.fromkeys(study.pair_requesters, 1)


def test_star_hub_uses_every_pair_of_its_widest_row():
    """A hub with six leaves and every leaf-to-leaf and hub demand: the hub's
    pairs are all 42 (ingress, egress) pairs with ingress != egress, among
    them its source pairs (0, e) and delivery pairs (i, 0), so every slot of
    its table but the diagonal is in use."""
    leaves = range(1, 7)
    edges = [(0, v) for v in leaves]
    g = topo.TopologyGraph(7, edges, {(0, v): 40 * GBPS * v for v in leaves})
    mats = topo.build_matrices(g)
    demands = {src: [v for v in range(7) if v != src] for src in range(7)}
    study = topo.ReservationStudy(g, mats, demands)
    _assert_study_matches_oracle(study, g, mats, demands)
    hub = {(a, b) for node, a, b in study.pair_requesters if node == 0}
    assert hub == {(a, b) for a in range(7) for b in range(7) if a != b}
    # the hub's transit pair (i, e) carries leaf i's path to leaf e only
    assert study.pair_requesters[0, 2, 5] == 1
    # a leaf's source and delivery pairs carry its own six paths and all six others'
    assert study.pair_requesters[3, 0, 1] == 1 and study.pair_requesters[3, 1, 0] == 6


def test_covers_and_rows_repeat_in_either_order():
    g = topo.generate_topology(50, seed=31)
    mats = topo.build_matrices(g)
    demands = topo.build_demands(g, 0.3, 31)
    gamma = 1e8
    strategies = (topo.MAXIMUM, topo.CONCURRENT)
    covers_first = topo.ReservationStudy(g, mats, demands)
    rows_first = topo.ReservationStudy(g, mats, demands)
    results = []
    for _ in range(2):
        results.append((covers_first.covers(gamma),
                        [list(covers_first.reservation_rows(s)) for s in strategies]))
    for _ in range(2):
        rows = [list(rows_first.reservation_rows(s)) for s in strategies]
        results.append((rows_first.covers(gamma), rows))
    assert all(r == results[0] for r in results[1:])


def test_no_overallocation_per_pair():
    """Sum of per-source shares through any pair never exceeds its entry."""
    g = topo.generate_topology(150, seed=17)
    mats = topo.build_matrices(g)
    demands = topo.build_demands(g, 0.4, 17)
    study = topo.ReservationStudy(g, mats, demands)
    bw = study.pair_bandwidth()
    for (node, a, b), count in study.pair_requesters.items():
        total = bw[(node, a, b)] * count
        assert total <= mats[node].admission_value(a, b)


def test_requesters_nondecreasing_with_rate():
    g = topo.generate_topology(100, seed=19)
    mats = topo.build_matrices(g)
    lo = topo.ReservationStudy(g, mats, topo.build_demands(g, 0.1, 19))
    hi = topo.ReservationStudy(g, mats, topo.build_demands(g, 1.0, 19))
    for pair, count in lo.pair_requesters.items():
        assert hi.pair_requesters[pair] >= count
    # hence per-pair shares shrink (or hold) as the sampling rate grows
    bw_lo, bw_hi = lo.pair_bandwidth(), hi.pair_bandwidth()
    assert all(bw_hi[p] <= bw_lo[p] for p in bw_lo)


# cover ---------------------------------------------------------------------------

def test_cover_all_above_threshold():
    g, mats = _line3()
    study = topo.ReservationStudy(g, mats, {0: [2], 2: [0]})
    cover = topo.gamma_cover(_rows(study, topo.MAXIMUM), {0: [2], 2: [0]}, gamma=1)
    assert cover.per_node == {0: 1.0, 2: 1.0} and cover.median == 1.0


def test_cover_zero_when_gamma_above_everything():
    g, mats = _line3()
    study = topo.ReservationStudy(g, mats, {0: [2]})
    cover = topo.gamma_cover(_rows(study, topo.MAXIMUM), {0: [2]}, gamma=10**15)
    assert cover.median == 0.0


def test_cover_skips_a_source_without_demands():
    cover = topo.gamma_cover({(0, 2): 5.0, (2, 1): 0.5}, {0: [2], 1: [], 2: [0, 1]}, gamma=1)
    assert cover.per_node == {0: 1.0, 2: 0.0}


def test_integrated_covers_match_enumeration_oracle():
    """The single-sweep cover equals the direct set-based computation."""
    g = topo.generate_topology(90, seed=23)
    mats = topo.build_matrices(g)
    demands = topo.build_demands(g, 0.25, 23)
    study = topo.ReservationStudy(g, mats, demands)
    _assert_study_matches_oracle(study, g, mats, demands)
    _, exact = per_path_reservations(g, mats, demands)
    gamma = 100_000.0
    fast = study.covers(gamma)
    for strategy in (topo.MAXIMUM, topo.CONCURRENT):
        oracle = topo.gamma_cover(exact[strategy], demands, gamma)
        assert fast[strategy].per_node == pytest.approx(oracle.per_node)
        assert fast[strategy].median == pytest.approx(oracle.median)


def test_topology_and_sampling_arguments_rejected():
    for n, m in [(1, 1), (0, 1), (20, 0), (20, -1), (20, 20)]:
        with pytest.raises(ValueError):
            topo.generate_topology(n, m, seed=1)
    # random.Random seeds from an int's absolute value: -1 would build seed 1's graph
    with pytest.raises(ValueError, match="seed=-1"):
        topo.generate_topology(30, 2, -1)
    g = topo.generate_topology(10, seed=1)
    for r in [0, -0.5, 1.5, 3]:
        with pytest.raises(ValueError):
            topo.build_demands(g, r, 1)
    # a source outside 0..9 has no order (-1 would otherwise drop node 9)
    for src in (-1, 10):
        with pytest.raises(ValueError, match=f"source {src}:"):
            topo.destination_order(g, src, 1)
    for floor in (0, -1):
        with pytest.raises(ValueError, match="min_requesters"):
            topo.ReservationStudy(g, topo.build_matrices(g), {0: [1]}, min_requesters=floor)
    # no destination, the source itself, a repeated destination, and nodes
    # outside 0..9: each is refused before any walk, naming its source
    for demands in ({1: []}, {0: [0, 3]}, {0: [9, 9]}, {0: [-1]}, {0: [10]}):
        src, = demands
        with pytest.raises(ValueError, match=f"source {src}:"):
            topo.ReservationStudy(g, topo.build_matrices(g), {2: [1, 3], **demands})
    # a destination in another component than its source
    edges = [(0, 1), (2, 3)]
    split = topo.TopologyGraph(4, edges, {e: 40 * GBPS for e in edges})
    with pytest.raises(ValueError, match="source 0: destination 2 is unreachable"):
        topo.ReservationStudy(split, topo.build_matrices(split), {0: [1, 2]})
