"""Topology experiments: reservation sizes and coverage on scale-free graphs.

Graphs are preferential-attachment (Barabási–Albert), grown in this
module from ``random.Random(seed)``, with degree-gravity link capacities:
each edge lands in one of ten 40 Gbps buckets (40..400 Gbps) by the
quantile of its endpoint degree product, ties toward the lower bucket.
Every node gets an internal interface 0 with the capacity of its largest
link, then one per incident edge by ascending neighbour id (``interfaces``,
which scenarios share), and an allocation matrix from those capacities.

Reservation sizes between node pairs follow the per-pair share formula
with the requester count taken as the exact number of sources whose
shortest paths cross the pair; paths are BFS shortest paths with
lowest-node-id tie-breaking, which makes every run reproducible. A study
walks each source's tree once and records the tree edges that carry
demand as integer columns; the requester counts, both strategies' sizes
and every cover and row query read those columns. Per-pair arithmetic is
exact (integers and rationals); the per-destination minima use floats
for speed, which is safe because dividing by an integer count never
increases a float. The rational reference is an independent per-path
oracle in the test suite (``tests/oracles.py``), which shares no code
with the study.
"""

from __future__ import annotations

import math
import operator
import random
from array import array
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain, compress, islice, repeat
from statistics import median

from .admission import AllocationMatrix
from .source import CONCURRENT, MAXIMUM

GBPS = 10**9


class TopologyGraph:
    """Undirected scale-free graph with interfaces and link capacities."""

    def __init__(self, n: int, edges: list[tuple[int, int]],
                 edge_capacity: dict[tuple[int, int], int]):
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            self.adj[u].append(v)
            self.adj[v].append(u)
        for lst in self.adj:
            lst.sort()  # ascending ids give the deterministic BFS tie-break
        self.edge_capacity = edge_capacity
        ifs = [interfaces({v: edge_capacity[_ekey(u, v)] for v in self.adj[u]}) for u in range(n)]
        self.if_index: list[dict[int, int]] = [if_to for if_to, _ in ifs]
        self.capacities: list[list[int]] = [caps for _, caps in ifs]
        self.degrees: list[int] = [len(a) for a in self.adj]

    @property
    def n_edges(self) -> int:
        return sum(self.degrees) // 2

    def is_connected(self) -> bool:
        return self.n == 0 or len(shortest_path_tree(self, 0)[1]) == self.n


def interfaces(links: dict[int, int]) -> tuple[dict[int, int], list[int]]:
    """An AS's interfaces from its links (neighbour -> capacity): the interface
    of each neighbour, from 1 by ascending id, and each interface's capacity,
    where interface 0 is internal and has the capacity of the largest link."""
    nbrs = sorted(links)
    ext = [links[v] for v in nbrs]
    return {v: i for i, v in enumerate(nbrs, 1)}, [max(ext, default=0), *ext]


def _ekey(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def generate_topology(n: int, attachment: int = 2, seed: int = 1) -> TopologyGraph:
    """Preferential-attachment graph with degree-gravity capacities:
    ten 40 Gbps buckets. Needs n >= 2 and 1 <= attachment < n."""
    if n < 2:
        raise ValueError(f"need at least two nodes, got n={n}")
    if not 1 <= attachment < n:
        raise ValueError(f"attachment must be in [1, n), got m={attachment} with n={n}")
    # from the star on attachment + 1 nodes, each new node links to
    # ``attachment`` distinct targets drawn from the list that holds every
    # node once per edge end; the draws and the set order fix the graph
    rng = random.Random(seed)
    edges = [(0, v) for v in range(1, attachment + 1)]
    ends = [0] * attachment + list(range(1, attachment + 1))
    for new in range(attachment + 1, n):
        targets: set[int] = set()
        while len(targets) < attachment:
            targets.add(rng.choice(ends))
        edges += ((t, new) for t in targets)
        ends += targets
        ends += [new] * attachment
    edges.sort()
    deg = Counter(ends)
    products = {e: deg[e[0]] * deg[e[1]] for e in edges}
    # rank of the first occurrence: equal products share the lower bucket
    first_rank: dict[int, int] = {}
    for i, p in enumerate(sorted(products.values())):
        first_rank.setdefault(p, i)
    m = len(edges)
    return TopologyGraph(n, edges, {e: 40 * GBPS * (first_rank[products[e]] * 10 // m + 1)
                                    for e in edges})


def build_matrices(g: TopologyGraph) -> list[AllocationMatrix]:
    return [AllocationMatrix.from_capacities(caps) for caps in g.capacities]


# ---------------------------------------------------------------------------
# destination sampling


def destination_order(g: TopologyGraph, src: int, seed: int) -> list[int]:
    """All other nodes in weighted sampling order for this source.

    Keys are exponential draws scaled by inverse degree weight; taking the
    d smallest is distribution-identical to d sequential draws with
    renormalization, and prefixes are nested across sampling rates.
    """
    rng = random.Random(seed * 1_000_003 + src)
    deg = g.degrees
    keyed = []
    for v in range(g.n):
        if v == src:
            continue
        keyed.append((rng.expovariate(1.0) / deg[v], v))
    keyed.sort()
    return [v for _, v in keyed]


def sample_count(r: float, n: int) -> int:
    return max(1, min(n - 1, round(r * n)))


def sample_destinations(g: TopologyGraph, src: int, r: float, seed: int) -> list[int]:
    """Sample round(r*N) distinct destinations, degree-weighted, without
    replacement; never includes the source itself."""
    return destination_order(g, src, seed)[: sample_count(r, g.n)]


def build_demands(g: TopologyGraph, r: float, seed: int) -> dict[int, list[int]]:
    """Each source's sampled destinations at sampling rate ``r`` in (0, 1]."""
    if not 0 < r <= 1:
        raise ValueError(f"sampling rate must be in (0, 1], got r={r}")
    return {src: sample_destinations(g, src, r, seed) for src in range(g.n)}


# ---------------------------------------------------------------------------
# shortest-path trees


def shortest_path_tree(g: TopologyGraph, src: int) -> tuple[list[int], list[int]]:
    """BFS tree with lowest-id tie-breaking: (parents, visit order)."""
    parent = [-1] * g.n
    parent[src] = src
    order = [src]
    queue = deque([src])
    adj = g.adj
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if parent[v] < 0:
                parent[v] = u
                order.append(v)
                queue.append(v)
    return parent, order


# ---------------------------------------------------------------------------
# reservation study


class ReservationStudy:
    """Per-pair requester counts and end-to-end reservation sizes.

    ``demands`` maps each source to its destination list. The requester
    count of an interface pair is the number of distinct sources whose
    selected paths traverse it, including the source's own internal-to-
    egress pair and the destination's ingress-to-internal pair.

    The constructor walks each source's tree once and keeps the tree edges
    that carry demand as flat columns, with dense pair ids in first-seen
    order. Every query reads those columns: each demand's float sizes
    under both strategies are computed in one pass on first use and kept
    for ``covers`` and ``reservation_rows``; ``pair_bandwidth`` computes
    the exact rational shares on each call. The exact per-demand sizes
    are the test suite's per-path oracle (``tests/oracles.py``).
    """

    def __init__(self, g: TopologyGraph, matrices: list[AllocationMatrix],
                 demands: dict[int, list[int]], min_requesters: int = 1):
        if min_requesters < 1:
            raise ValueError("min_requesters must be >= 1")
        self.g = g
        self.matrices = matrices
        self.demands = demands
        self.min_requesters = min_requesters
        ids: dict[tuple[int, int, int], int] = {}  # (node, ingress, egress) -> pair id
        # one row per tree edge that carries demand, parents first: the
        # child's parent, the child, the parent's pair id toward the child,
        # the child's delivery pair id (-1 when it is no destination) and
        # the number of the source's paths through the child
        self._edges = parents, children, pair_ids, deliveries, through = tuple(
            array("i") for _ in range(5))
        self._spans: list[tuple[int, int, int]] = []  # (src, first edge, end)
        if_index = g.if_index
        for src, dests in demands.items():
            parent, order = shortest_path_tree(g, src)
            paths = [0] * g.n
            for d in dests:
                paths[d] += 1
            for v in reversed(order):
                if v != src and paths[v]:
                    paths[parent[v]] += paths[v]
            dest_set = set(dests)
            start = len(children)
            for v in islice(order, 1, None):  # order[0] is the source
                if paths[v]:
                    u = parent[v]
                    a = 0 if u == src else if_index[u][parent[u]]
                    parents.append(u)
                    children.append(v)
                    pair_ids.append(ids.setdefault((u, a, if_index[u][v]), len(ids)))
                    deliveries.append(ids.setdefault((v, if_index[v][u], 0), len(ids))
                                      if v in dest_set else -1)
                    through.append(paths[v])
            self._spans.append((src, start, len(children)))
        self._pairs = list(ids)  # pair id -> (node, ingress, egress)
        self._counts = Counter(chain(pair_ids, deliveries))  # pair id -> requesters

    @cached_property
    def pair_requesters(self) -> dict[tuple[int, int, int], int]:
        """Requester count per (node, ingress, egress) pair in use."""
        return {key: self._counts[i] for i, key in enumerate(self._pairs)}

    def _shares(self, divide) -> list:
        """divide(admission entry, requesters floored at min_requesters) per pair id."""
        floor = self.min_requesters
        return [divide(self.matrices[node].admission_value(a, b), max(self._counts[i], floor))
                for i, (node, a, b) in enumerate(self._pairs)]

    @cached_property
    def _float_columns(self) -> tuple[array, array, array, array]:
        """(src, dst, maximum size, concurrent size) for every demand, in
        tree order.

        A size is the minimum over the on-path pair shares, then the
        delivery share; the concurrent strategy divides each on-path share
        by the number of this source's paths through the pair, the maximum
        strategy uses the full share per path. Int true division is
        correctly rounded, so each float share is float() of the exact one.
        """
        shares = self._shares(operator.truediv)
        srcs, dsts, maxima, concs = columns = array("i"), array("i"), array("d"), array("d")
        top = [math.inf] * self.g.n
        parents, children, pair_ids, deliveries, through = self._edges
        for src, start, end in self._spans:
            best_max, best_conc = top[:], top[:]
            for u, v, pair, delivery, paths in zip(
                    parents[start:end], children[start:end], pair_ids[start:end],
                    deliveries[start:end], through[start:end]):
                share = shares[pair]
                up = best_max[u]
                best_max[v] = size_max = share if share < up else up
                share = share / paths
                up = best_conc[u]
                best_conc[v] = size_conc = share if share < up else up
                if delivery >= 0:
                    term = shares[delivery]
                    srcs.append(src)
                    dsts.append(v)
                    maxima.append(term if term < size_max else size_max)
                    concs.append(term if term < size_conc else size_conc)
        return columns

    # derived quantities -----------------------------------------------------

    def pair_bandwidth(self) -> dict[tuple[int, int, int], Fraction]:
        """Exact per-source share for every used interface pair, computed on
        each call."""
        return dict(zip(self._pairs, self._shares(Fraction)))

    def covers(self, gamma: float) -> dict[str, "CoverResult"]:
        """Coverage under both composition strategies, from the cached sizes.

        A destination is covered when its end-to-end reservation exceeds
        ``gamma``; a source's cover is the covered share of its demands.
        """
        srcs, _, maxima, concs = self._float_columns
        out = {}
        for strategy, sizes in ((MAXIMUM, maxima), (CONCURRENT, concs)):
            # per source, the number of its sizes above gamma (gamma < size)
            covered = Counter(compress(srcs, map(operator.lt, repeat(gamma), sizes)))
            out[strategy] = CoverResult(
                {src: covered[src] / len(dests) for src, dests in self.demands.items()})
        return out

    def reservation_rows(self, strategy: str):
        """(src, dst, size_bps_float) for every demand, read from the cached
        columns in tree order; the iterator can be consumed once."""
        srcs, dsts, maxima, concs = self._float_columns
        return zip(srcs, dsts, concs if strategy == CONCURRENT else maxima)


@dataclass(frozen=True)
class CoverResult:
    per_node: dict[int, float]

    @property
    def median(self) -> float:
        return median(self.per_node.values())


def gamma_cover(reservations: dict[tuple[int, int], Fraction | float],
                dest_sets: dict[int, list[int]], gamma: float) -> CoverResult:
    """Cover from explicit reservation sizes; the direct-enumeration form."""
    per_node = {}
    for src, dests in dest_sets.items():
        if not dests:
            continue
        covered = sum(1 for d in dests if reservations.get((src, d), 0) > gamma)
        per_node[src] = covered / len(dests)
    return CoverResult(per_node)
