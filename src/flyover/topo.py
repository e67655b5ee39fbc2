"""Topology experiments: reservation sizes and coverage on scale-free graphs.

An AS's interfaces and reservable bandwidth follow from its links here
(``interfaces``, ``AllocationMatrix``), beside the names of the two
composition strategies; the protocol modules read all three from here.
This module imports no other flyover module, nor the crypto backend.

Graphs are preferential-attachment (Barabási–Albert), grown in this
module from ``random.Random(seed)``, with degree-gravity link capacities:
each edge lands in one of ten 40 Gbps buckets (40..400 Gbps) by the
quantile of its endpoint degree product, ties toward the lower bucket.
Every node gets an internal interface 0 with the capacity of its largest
link, then one per incident edge by ascending neighbour id, and an
allocation matrix from those capacities.

Reservation sizes between node pairs follow the per-pair share formula
with the requester count taken as the exact number of sources whose
shortest paths cross the pair; paths are BFS shortest paths with
lowest-node-id tie-breaking, which makes every run reproducible. A study
gives each (node, ingress, egress) triple a fixed slot in one flat table,
ordered by node, then ingress, then egress. It walks each source's tree
once, counts requesters in that table during the walk and records the
tree edges that carry demand as integer columns of slots; both
strategies' sizes and every cover and row query read those columns, and
the per-pair dicts come out in slot order. Per-pair arithmetic is
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
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import compress, islice, repeat
from statistics import median

GBPS = 10**9
# the two ways a source composes hop reservations into path sizes
CONCURRENT = "concurrent"
MAXIMUM = "maximum"


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


class AllocationMatrix:
    """Reservable bandwidth between interface pairs of one AS, built from
    its interfaces' capacities (``from_capacities``); interface 0 is the
    AS-internal interface.

    Admission reads each entry as it stands. The capacity plane, which the
    router's over-allocation guard checks, reads the larger of the entry and
    every value an ``update`` replaced less than one validity period ago:
    each replaced value is a floor that lapses at the update's time plus
    ``validity_ns``, where ``wire.expired`` ends a grant made under it. So
    an increase applies to both at once and a decrease reaches capacity one
    validity period later, whatever updates follow it.
    """

    def __init__(self, rows: list[list[int]]):
        self.n_interfaces = len(rows)
        self._admission = rows
        # pair -> [(lapse, value)] of the values updates replaced, in update order
        self._floors: dict[tuple[int, int], list[tuple[int, int]]] = {}

    @classmethod
    def from_capacities(cls, capacities: list[int]) -> "AllocationMatrix":
        """Build from per-interface link capacities.

        Each entry (a, b) starts at the capacity of the egress link b, then
        columns are scaled so they sum to that capacity, and any row whose
        sum exceeds the ingress link capacity is scaled down to equality;
        the exact rationals are floored to integer bit rates.

        In closed form: column b holds n-1 copies of cap_b, so its scaling
        makes every entry cap_b / (n-1). Row a then sums to rest / (n-1),
        with rest the sum of the other capacities; when rest > (n-1)·cap_a
        it is scaled by cap_a·(n-1) / rest, leaving cap_b·cap_a / rest.
        Each entry is the floor of that same rational, taken by one integer
        division (rest > 0 wherever it divides), so no Fraction is built.
        """
        total, k = sum(capacities), max(len(capacities) - 1, 1)  # n = 1 has no off-diagonal
        rows = []
        for a, cap_a in enumerate(capacities):
            rest = total - cap_a
            if rest > k * cap_a:
                row = [cap_b * cap_a // rest for cap_b in capacities]
            else:
                row = [cap_b // k for cap_b in capacities]
            row[a] = 0
            rows.append(row)
        return cls(rows)

    def admission_value(self, ingress: int, egress: int) -> int:
        n = self.n_interfaces
        if 0 <= ingress < n and 0 <= egress < n:
            return self._admission[ingress][egress]
        raise IndexError("interface out of range")

    def capacity_value(self, ingress: int, egress: int, now: int) -> int:
        value = self.admission_value(ingress, egress)
        if self._floors:  # no update yet: no floors to look up
            for lapse, floor in self._floors.get((ingress, egress), ()):
                if now < lapse and floor > value:
                    value = floor
        return value

    def update(self, ingress: int, egress: int, new_value: int, now: int,
               validity_ns: int) -> None:
        """Change one entry, which admission reads from ``now`` on; the value
        it replaces stays a capacity floor until ``now + validity_ns``."""
        replaced = self.admission_value(ingress, egress)
        if new_value < 0:
            raise ValueError("entry must be >= 0")
        if ingress == egress and new_value != 0:
            raise ValueError("diagonal entries must stay 0")
        pair = (ingress, egress)
        floors = [f for f in self._floors.get(pair, ()) if now < f[0]]
        floors.append((now + validity_ns, replaced))
        self._floors[pair] = floors
        self._admission[ingress][egress] = new_value


def _ekey(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def generate_topology(n: int, attachment: int = 2, seed: int = 1) -> TopologyGraph:
    """Preferential-attachment graph with degree-gravity capacities:
    ten 40 Gbps buckets. Needs n >= 2, 1 <= attachment < n and seed >= 0
    (``random.Random`` seeds from an int's absolute value)."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got seed={seed}")
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

    Each other node v, in ascending id, draws the key
    ``-log(1.0 - random()) / deg[v]`` from ``random.Random(seed * 1_000_003
    + src)``: an exponential draw scaled by inverse degree weight
    (Efraimidis-Spirakis). The order sorts the nodes by key, and equal keys
    keep ascending id. Taking the d smallest is distribution-identical to d
    sequential draws with renormalization, and prefixes are nested across
    sampling rates. The keys are the float operations of
    ``Random.expovariate(1.0)`` written out, so the order depends only on
    ``Random.random`` and ``math.log``, not on ``expovariate`` staying as
    it is. A source outside 0..n-1 raises ``ValueError``.
    """
    if not 0 <= src < g.n:
        raise ValueError(f"source {src}: must be a node of 0..{g.n - 1}")
    draw, log, deg = random.Random(seed * 1_000_003 + src).random, math.log, g.degrees
    others = list(range(g.n))
    del others[src]
    keys = [-log(1.0 - draw()) / deg[v] for v in others]
    # a stable argsort: equal keys keep ascending id, as a (key, v) sort does
    return [others[i] for i in sorted(range(len(keys)), key=keys.__getitem__)]


def build_demands(g: TopologyGraph, r: float, seed: int) -> dict[int, list[int]]:
    """Each source's sampled destinations at sampling rate ``r`` in (0, 1]:
    the first round(r*n) of its destination order, at least one and at most
    every other node, so degree-weighted, without replacement and never the
    source itself."""
    if not 0 < r <= 1:
        raise ValueError(f"sampling rate must be in (0, 1], got r={r}")
    d = max(1, min(g.n - 1, round(r * g.n)))
    return {src: destination_order(g, src, seed)[:d] for src in range(g.n)}


# ---------------------------------------------------------------------------
# shortest-path trees


def shortest_path_tree(g: TopologyGraph, src: int) -> tuple[list[int], list[int]]:
    """BFS tree with lowest-id tie-breaking: (parents, visit order)."""
    parent = [-1] * g.n
    parent[src] = src
    order = [src]
    adj = g.adj
    for u in order:  # the visit order is the FIFO queue: the loop reads what it appends
        for v in adj[u]:
            if parent[v] < 0:
                parent[v] = u
                order.append(v)
    return parent, order


# ---------------------------------------------------------------------------
# reservation study


class ReservationStudy:
    """Per-pair requester counts and end-to-end reservation sizes.

    ``demands`` maps each source to its destination list: at least one
    destination, each a node of ``g`` other than the source, listed once
    and reachable from it; anything else raises ``ValueError``. The
    requester count of an interface pair is the number of distinct sources
    whose selected paths traverse it, including the source's own
    internal-to-egress pair and the destination's ingress-to-internal pair.

    Every (node, ingress, egress) triple has a fixed slot in one flat
    table: node u's rows start at ``first[u]``, one row of ``degree + 1``
    slots per ingress, so the slot is ``first[u] + ingress * (degree + 1)
    + egress`` and slot order is (node, ingress, egress) order. The
    constructor walks each source's tree once, carries each tree node's
    ingress row down the walk, counts requesters in the table and keeps
    the tree edges that carry demand as flat columns of slots. Every query
    reads those columns: each pair's admission entry and requester count
    are read once, on first use; each demand's float sizes under both
    strategies are computed in one pass on first use and kept for
    ``covers`` and ``reservation_rows``; ``pair_bandwidth`` builds the
    exact rational shares on each call. The exact per-demand sizes are
    the test suite's per-path oracle (``tests/oracles.py``).
    """

    def __init__(self, g: TopologyGraph, matrices: list[AllocationMatrix],
                 demands: dict[int, list[int]], min_requesters: int = 1):
        if min_requesters < 1:
            raise ValueError("min_requesters must be >= 1")
        self.g = g
        self.matrices = matrices
        self.demands = demands
        self.min_requesters = min_requesters
        n, if_index, widths = g.n, g.if_index, [d + 1 for d in g.degrees]
        first = [0]  # node -> its first slot; the last entry is the table size
        for w in widths:
            first.append(first[-1] + w * w)
        counts = [0] * first[-1]  # slot -> requesters
        # node -> neighbour -> first slot of the node's row for what enters from it
        ingress_row = [{nbr: lo + i * w for nbr, i in ifs.items()}
                       for lo, w, ifs in zip(first, widths, if_index)]
        row = [0] * n  # tree node -> first slot of its ingress row, for the current source
        # one row per tree edge that carries demand, parents first: the
        # child's parent, the child, the parent's slot toward the child,
        # the child's delivery slot (0 when it is no destination: a
        # delivery enters on an interface >= 1, so its slot is never 0)
        # and the number of the source's paths through the child
        self._edges = parents, children, pair_slots, deliveries, through = tuple(
            array("i") for _ in range(5))
        self._spans: list[tuple[int, int, int]] = []  # (src, first edge, end)
        add_parent, add_child, add_slot, add_delivery, add_through = (
            column.append for column in self._edges)
        for src, dests in demands.items():
            dest_set = set(dests)
            if not dests or len(dest_set) != len(dests) or src in dest_set \
                    or not 0 <= src < n or min(dests) < 0 or max(dests) >= n:
                raise ValueError(f"source {src}: destinations must be distinct nodes of "
                                 f"0..{n - 1} other than the source, at least one")
            parent, order = shortest_path_tree(g, src)
            if len(order) < n:  # only a graph that is not connected leaves a node unvisited
                for d in dests:
                    if parent[d] < 0:
                        raise ValueError(f"source {src}: destination {d} is unreachable")
            paths = [0] * n
            for d in dests:
                paths[d] = 1
            for v in islice(reversed(order), len(order) - 1):  # all but order[0], the source
                if paths[v]:
                    paths[parent[v]] += paths[v]
            row[src] = first[src]  # the source sends from its internal interface 0
            start = len(children)
            for v in islice(order, 1, None):
                if paths[v]:
                    u = parent[v]
                    slot = row[u] + if_index[u][v]
                    counts[slot] += 1
                    row[v] = delivery = ingress_row[v][u]
                    if v in dest_set:
                        counts[delivery] += 1
                    else:
                        delivery = 0
                    add_parent(u)
                    add_child(v)
                    add_slot(slot)
                    add_delivery(delivery)
                    add_through(paths[v])
            self._spans.append((src, start, len(children)))
        self._counts = counts
        self._pairs = pairs = {}  # slot in use -> (node, ingress, egress)
        for u, (lo, hi, width) in enumerate(zip(first, first[1:], widths)):
            for slot in compress(range(lo, hi), counts[lo:hi]):
                a, b = divmod(slot - lo, width)
                pairs[slot] = (u, a, b)

    @cached_property
    def pair_requesters(self) -> dict[tuple[int, int, int], int]:
        """Requester count per (node, ingress, egress) pair in use, in
        (node, ingress, egress) order."""
        counts = self._counts
        return {key: counts[slot] for slot, key in self._pairs.items()}

    @cached_property
    def _pair_terms(self) -> tuple[list[int], list[int]]:
        """(admission entry, requesters floored at min_requesters) per pair
        in use, in slot order: each read once per study."""
        floor, counts, matrices = self.min_requesters, self._counts, self.matrices
        return ([matrices[node].admission_value(a, b) for node, a, b in self._pairs.values()],
                [max(counts[slot], floor) for slot in self._pairs])

    @cached_property
    def _float_columns(self) -> tuple[tuple[array, array, array, array], list[tuple[int, int]]]:
        """(src, dst, maximum size, concurrent size) for every demand, in
        tree order, and each source's span of rows, in ``demands`` order.

        A size is the minimum over the on-path pair shares, then the
        delivery share; the concurrent strategy divides each on-path share
        by the number of this source's paths through the pair, the maximum
        strategy uses the full share per path. Int true division is
        correctly rounded, so each float share is float() of the exact one.
        """
        shares = [0.0] * len(self._counts)  # slot -> float share
        for slot, share in zip(self._pairs, map(operator.truediv, *self._pair_terms)):
            shares[slot] = share
        srcs, dsts, maxima, concs = columns = array("i"), array("i"), array("d"), array("d")
        spans = []
        top = [math.inf] * self.g.n
        parents, children, pair_slots, deliveries, through = self._edges
        for src, start, end in self._spans:
            best_max, best_conc = top[:], top[:]
            lo = len(maxima)
            kids, delivered = children[start:end], deliveries[start:end]
            for u, v, pair, delivery, paths in zip(
                    parents[start:end], kids, pair_slots[start:end], delivered,
                    through[start:end]):
                share = shares[pair]
                up = best_max[u]
                best_max[v] = size_max = share if share < up else up
                share = share / paths
                up = best_conc[u]
                best_conc[v] = size_conc = share if share < up else up
                if delivery:
                    term = shares[delivery]
                    maxima.append(term if term < size_max else size_max)
                    concs.append(term if term < size_conc else size_conc)
            hi = len(maxima)
            srcs.extend(repeat(src, hi - lo))
            dsts.extend(compress(kids, delivered))
            spans.append((lo, hi))
        return columns, spans

    # derived quantities -----------------------------------------------------

    def pair_bandwidth(self) -> dict[tuple[int, int, int], Fraction]:
        """Exact per-source share for every used interface pair, in
        (node, ingress, egress) order, built on each call."""
        return dict(zip(self._pairs.values(), map(Fraction, *self._pair_terms)))

    def covers(self, gamma: float) -> dict[str, "CoverResult"]:
        """Coverage under both composition strategies, from the cached sizes.

        A destination is covered when its end-to-end reservation exceeds
        ``gamma``; a source's cover is the covered share of its demands.
        """
        (_, _, maxima, concs), spans = self._float_columns
        out = {}
        for strategy, sizes in ((MAXIMUM, maxima), (CONCURRENT, concs)):
            # per source, the number of its sizes above gamma (gamma < size)
            out[strategy] = CoverResult(
                {src: sum(map(operator.lt, repeat(gamma), sizes[lo:hi])) / len(dests)
                 for (src, dests), (lo, hi) in zip(self.demands.items(), spans)})
        return out

    def reservation_rows(self, strategy: str):
        """(src, dst, size_bps_float) for every demand, read from the cached
        columns in tree order; the iterator can be consumed once."""
        (srcs, dsts, maxima, concs), _ = self._float_columns
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
