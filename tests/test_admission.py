"""Admission: share formula, rotating estimator, guarantees, matrix updates."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flyover.admission import (
    BloomFilter,
    DefaultPolicy,
    EstimatorConfig,
    ExactSetFilter,
    RequesterEstimator,
)
from flyover.topo import AllocationMatrix, generate_topology

from helpers import matrix_rows
from oracles import IntMaskBloom, double_hash_positions, fraction_allocation_rows, ref_capacity

GBPS = 10**9
EPS = 10_000_000_000  # default rotation interval, ns


def exact_cfg(**kw):
    defaults = dict(interval_ns=EPS, min_requesters=1, tentative_slots=8, exact=True)
    defaults.update(kw)
    return EstimatorConfig(**defaults)


# estimator basics ----------------------------------------------------------

def test_first_request_gets_tentative_slot():
    est = RequesterEstimator(exact_cfg(tentative_slots=4))
    g = est.request(src=9, entry_bw=100 * GBPS, now=0)
    assert g is not None and g.tentative
    assert g.bw == int(Fraction(1, 5) * 100 * GBPS / 4)


def test_denied_then_granted_after_two_intervals():
    est = RequesterEstimator(exact_cfg(tentative_slots=0))
    assert est.request(5, 100 * GBPS, 0) is None
    est.rotate(2 * EPS)
    g = est.request(5, 100 * GBPS, 2 * EPS)
    assert g is not None and not g.tentative
    assert g.bw == int(Fraction(4, 5) * 100 * GBPS)  # sole requester
    assert g.ts_exp == 2 * EPS + EPS


def test_idle_estimator_count_clamps_to_floor():
    est = RequesterEstimator(exact_cfg(min_requesters=16))
    est.rotate(5 * EPS)
    assert est.requesters == 16


def test_rotation_union_cardinality():
    est = RequesterEstimator(exact_cfg())
    est.current.add(1)
    est.current.add(2)
    est.previous.add(2)
    est.previous.add(3)
    est.rotate(EPS)
    assert est.requesters == 3


def test_rotation_moves_filters():
    est = RequesterEstimator(exact_cfg(tentative_slots=0))
    est.request(src=7, entry_bw=GBPS, now=1)
    assert 7 in est.current and 7 not in est.previous and 7 not in est.granted
    est.rotate(EPS)
    assert 7 in est.previous and 7 not in est.granted
    est.rotate(2 * EPS)
    assert 7 in est.granted


def test_multiple_elapsed_intervals_apply_repeatedly():
    est = RequesterEstimator(exact_cfg())
    est.request(src=7, entry_bw=GBPS, now=0)
    est.rotate(10 * EPS)  # many intervals with no traffic: 7 rotated out
    assert 7 not in est.granted and 7 not in est.previous and 7 not in est.current
    assert est.next_rotation == 11 * EPS


def test_tentative_slots_exhaust_and_repeat_holder_keeps_slot():
    est = RequesterEstimator(exact_cfg(tentative_slots=2))
    g1 = est.request(1, 100 * GBPS, 0)
    g1_again = est.request(1, 100 * GBPS, 1)
    g2 = est.request(2, 100 * GBPS, 2)
    g3 = est.request(3, 100 * GBPS, 3)
    assert g1.tentative and g2.tentative and g3 is None
    assert g1_again == g1  # same holder, same slot, no extra slot burned
    assert len(est._tentative_holders) == 2


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "bloom"])
def test_warm_up_grants_firmly_at_once_and_counts_each_source_once(exact):
    est = RequesterEstimator(exact_cfg(exact=exact, min_requesters=2))
    est.warm_up([5, 6, 7, 5])
    assert est.requesters == 3  # 5 counted once
    est.warm_up([5])
    assert est.requesters == 3  # never lowered below an earlier count
    g = est.request(5, 90 * GBPS, 0)
    assert not g.tentative and g.bw == 90 * GBPS * 4 // (5 * 3)
    est.rotate(EPS)  # warm sources requested in both collection filters
    assert 5 in est.granted and est.request(6, 90 * GBPS, EPS).tentative is False
    low = RequesterEstimator(exact_cfg(exact=exact, min_requesters=4))
    low.warm_up([1])
    assert low.requesters == 4  # the floor still holds


def test_tentative_grant_expires_at_interval_end():
    est = RequesterEstimator(exact_cfg(tentative_slots=1))
    g = est.request(1, 100 * GBPS, now=EPS - 5)
    assert g.tentative and g.ts_exp == EPS  # not now + interval


# admission guarantees --------------------------------------------------------

def test_bounded_time_to_grant_randomized():
    """A request sent exactly two intervals after the first is always granted."""
    rng = random.Random(42)
    for _ in range(300):
        est = RequesterEstimator(exact_cfg(tentative_slots=0,
                                           min_requesters=rng.choice([1, 4, 16])))
        # background traffic from other ASes
        t = 0
        for _ in range(rng.randrange(40)):
            t += rng.randrange(EPS // 4)
            est.rotate(t)
            est.request(rng.randrange(100), GBPS, t)
        first = t + rng.randrange(EPS)
        est.rotate(first)
        est.request(1_000_001, 100 * GBPS, first)
        retry = first + 2 * EPS
        est.rotate(retry)
        g = est.request(1_000_001, 100 * GBPS, retry)
        assert g is not None and not g.tentative


def test_persistent_requester_granted_forever_after_two_intervals():
    est = RequesterEstimator(exact_cfg(tentative_slots=0))
    cadence = EPS // 3
    t0 = 12345
    granted_times = []
    for k in range(30):
        t = t0 + k * cadence
        est.rotate(t)
        if est.request(77, 100 * GBPS, t) is not None:
            granted_times.append(t)
    assert granted_times and granted_times[0] <= t0 + 2 * EPS
    # once granted, every later request in the trace is granted too
    first = granted_times[0]
    expected = [t0 + k * cadence for k in range(30) if t0 + k * cadence >= first]
    assert granted_times == expected


def _active_sums(events, at):
    """events: (t_grant, src, bw, exp, tentative); replacement per src."""
    latest: dict[int, tuple[int, int, bool]] = {}
    for t, src, bw, exp, tent in events:
        if t <= at:
            latest[src] = (bw, exp, tent)
    firm = sum(bw for bw, exp, tent in latest.values() if exp > at and not tent)
    every = sum(bw for bw, exp, tent in latest.values() if exp > at)
    return firm, every


def test_no_overallocation_randomized_schedules():
    """Σ firm grants <= reserved fraction of the entry; with tentative <= entry."""
    rng = random.Random(7)
    entry = 97 * GBPS + 31  # deliberately not divisible
    for trial in range(200):
        cfg = exact_cfg(tentative_slots=rng.choice([0, 3, 8]),
                        min_requesters=rng.choice([1, 2, 16]))
        est = RequesterEstimator(cfg)
        events = []
        t = 0
        check_points = set()
        for _ in range(rng.randrange(5, 120)):
            t += rng.randrange(1, EPS // 2)
            est.rotate(t)
            src = rng.randrange(12)
            g = est.request(src, entry, t)
            if g is not None:
                events.append((t, src, g.bw, g.ts_exp, g.tentative))
                check_points.update((t, g.ts_exp - 1))
        bound_firm = Fraction(4, 5) * entry
        for at in sorted(check_points):
            firm, every = _active_sums(events, at)
            assert firm <= bound_firm
            assert every <= entry


# Bloom filter ---------------------------------------------------------------

def test_bloom_membership_and_reset():
    bf = BloomFilter(4096, 4)
    for x in range(50):
        bf.add(x)
    assert all(x in bf for x in range(50))
    bf.reset()
    assert not any(x in bf for x in range(50))


def test_bloom_union_cardinality_close_and_conservative_here():
    bf1, bf2 = EstimatorConfig().make_filter(), EstimatorConfig().make_filter()  # the default size
    for x in range(400):
        bf1.add(x)
    for x in range(200, 700):
        bf2.add(x)
    est = bf1.union_cardinality(bf2)
    assert 700 * 0.97 <= est <= 700 * 1.05


def test_bloom_vs_exact_agree_without_false_positives():
    """Same trace through both filter modes: decisions agree whenever the
    bloom filters report no false positive (none occur at this sizing)."""
    rng = random.Random(99)
    cfg_exact = exact_cfg(tentative_slots=2)
    cfg_bloom = exact_cfg(tentative_slots=2, exact=False)
    e1 = RequesterEstimator(cfg_exact)
    e2 = RequesterEstimator(cfg_bloom)
    false_positives = 0
    t = 0
    for _ in range(3000):
        t += rng.randrange(EPS // 50)
        src = rng.randrange(200)
        e1.rotate(t)
        e2.rotate(t)
        in_exact, in_bloom = src in e1.granted, src in e2.granted
        if in_bloom and not in_exact:
            false_positives += 1
            continue
        g1 = e1.request(src, 100 * GBPS, t)
        g2 = e2.request(src, 100 * GBPS, t)
        assert (g1 is None) == (g2 is None)
        if g1 is not None:
            assert g1.tentative == g2.tentative
    assert false_positives == 0


# allocation matrix ----------------------------------------------------------

def test_matrix_invariants_checked():
    m = AllocationMatrix.from_capacities([5, 5])
    for a, b in ((2, 0), (0, 2), (-1, 1), (1, -1)):
        with pytest.raises(IndexError):
            m.admission_value(a, b)
        with pytest.raises(IndexError):
            m.update(a, b, 1, now=0, validity_ns=EPS)
    with pytest.raises(ValueError, match=">= 0"):
        m.update(0, 1, -1, now=0, validity_ns=EPS)
    with pytest.raises(ValueError, match="diagonal"):
        m.update(1, 1, 5, now=0, validity_ns=EPS)
    assert matrix_rows(m) == [[0, 5], [5, 0]]  # a refused update changes nothing
    m.update(1, 1, 0, now=0, validity_ns=EPS)  # a zero diagonal is kept


def test_matrix_from_capacities_worked_example():
    caps = [100, 100, 40]
    m = AllocationMatrix.from_capacities(caps)
    assert m.admission_value(2, 0) == 20 and m.admission_value(2, 1) == 20
    assert m.admission_value(0, 1) == 50 and m.admission_value(1, 0) == 50
    assert m.admission_value(0, 2) == 20 and m.admission_value(1, 2) == 20
    rows = matrix_rows(m)
    for b in range(3):
        assert sum(rows[a][b] for a in range(3)) <= caps[b]
    for a in range(3):
        assert sum(rows[a]) <= caps[a]


def test_matrix_from_capacities_symmetric_two_port():
    m = AllocationMatrix.from_capacities([70, 70])
    assert matrix_rows(m) == [[0, 70], [70, 0]]


def test_matrix_from_capacities_random_sums_bounded():
    rng = random.Random(3)
    for _ in range(100):
        caps = [rng.randrange(1, 10**12) for _ in range(rng.randrange(2, 9))]
        rows = matrix_rows(AllocationMatrix.from_capacities(caps))
        n = len(caps)
        for b in range(n):
            assert sum(rows[a][b] for a in range(n)) <= caps[b]
        for a in range(n):
            assert sum(rows[a]) <= caps[a]
        assert all(rows[i][i] == 0 for i in range(n))
        assert all(v >= 0 for r in rows for v in r)


_CAPACITY = st.one_of(st.just(0), st.integers(1, 10**3), st.integers(0, 10**12))


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.lists(_CAPACITY, min_size=1, max_size=12),
    st.integers(1, 12).map(lambda n: [0] * n),
    st.tuples(st.integers(1, 12), st.integers(0, 10**12)).map(lambda t: [t[1]] * t[0])))
def test_matrix_from_capacities_matches_fraction_oracle(caps):
    assert matrix_rows(AllocationMatrix.from_capacities(caps)) == fraction_allocation_rows(caps)


def test_matrix_closed_form_takes_both_row_branches():
    """Rows that column scaling leaves above their ingress capacity and rows
    it leaves within it; then every node's matrix of three generated graphs."""
    cases = [[10, 400, 400, 40], [5, 7], [10**12, 1, 0, 10**12], [3]]
    cases += [caps for seed in (1, 2, 3) for caps in generate_topology(200, 2, seed).capacities]
    row_scaled = set()
    for caps in cases:
        row_scaled.update(sum(caps) - c > (len(caps) - 1) * c for c in caps)
        assert matrix_rows(AllocationMatrix.from_capacities(caps)) == fraction_allocation_rows(caps)
    assert row_scaled == {True, False}


def test_matrix_update_decrease_semantics():
    m = AllocationMatrix.from_capacities([200, 200, 200])
    t = 1_000
    m.update(0, 1, 50, t, validity_ns=EPS)
    assert m.admission_value(0, 1) == 50  # admission sees it at once
    assert m.capacity_value(0, 1, t + 1) == 100  # capacity lags one period
    assert m.capacity_value(0, 1, t + EPS - 1) == 100
    assert m.capacity_value(0, 1, t + EPS) == 50
    # untouched entries unaffected
    assert m.admission_value(0, 2) == 100 and m.capacity_value(0, 2, t + EPS) == 100


def test_matrix_update_increase_semantics():
    m = AllocationMatrix.from_capacities([50, 50])
    m.update(0, 1, 100, 500, validity_ns=EPS)
    assert m.admission_value(0, 1) == 100
    assert m.capacity_value(0, 1, 500) == 100  # effective immediately
    assert m.capacity_value(0, 1, 500 + EPS) == 100


@settings(max_examples=300, deadline=None)
@given(entry=st.integers(0, 100), validity=st.integers(0, 50),
       updates=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 100)),
                        min_size=1, max_size=3),
       after=st.lists(st.integers(0, 60), min_size=1, max_size=5))
def test_matrix_capacity_keeps_each_replaced_value_for_one_validity_period(
        entry, validity, updates, after):
    """At or after the last update, an entry's capacity is the larger of the
    entry and every value an update replaced within ``validity_ns``."""
    m = AllocationMatrix.from_capacities([entry, entry])
    t, timed = 0, []
    for gap, value in updates:
        t += gap
        m.update(0, 1, value, now=t, validity_ns=validity)
        timed.append((t, value))
    for dt in after:
        assert m.capacity_value(0, 1, t + dt) == ref_capacity(entry, timed, validity, t + dt)
    assert m.capacity_value(1, 0, t) == entry  # the other direction is untouched


def test_matrix_update_then_grant_uses_new_value():
    m = AllocationMatrix.from_capacities([100 * GBPS] * 2)
    policy = DefaultPolicy(m, exact_cfg(tentative_slots=0))
    t = 0
    policy.get_bandwidth(5, 0, 1, t)
    g = None
    t = 2 * EPS
    m.update(0, 1, 50 * GBPS, t - 1, validity_ns=EPS)
    g = policy.get_bandwidth(5, 0, 1, t)
    assert g is not None
    assert g.bw == int(Fraction(4, 5) * 50 * GBPS)


# policy plumbing -------------------------------------------------------------

def test_policy_keeps_one_estimator_per_interface_pair():
    m = AllocationMatrix.from_capacities([2 * GBPS] * 3)
    policy = DefaultPolicy(m, exact_cfg())
    assert policy.estimator_for(0, 1) is not policy.estimator_for(0, 2)
    assert policy.estimator_for(0, 1) is policy.estimator_for(0, 1)


def test_policy_auto_rotates():
    m = AllocationMatrix.from_capacities([100 * GBPS] * 2)
    policy = DefaultPolicy(m, exact_cfg(tentative_slots=0))
    assert policy.get_bandwidth(3, 0, 1, 0) is None
    g = policy.get_bandwidth(3, 0, 1, 2 * EPS)  # rotations applied internally
    assert g is not None and g.bw == int(Fraction(4, 5) * 100 * GBPS)


@pytest.mark.parametrize("kw", [dict(interval_ns=0), dict(interval_ns=-EPS),
                                dict(tentative_slots=-1), dict(min_requesters=0)],
                         ids=["zero_interval", "negative_interval", "negative_slots",
                              "no_min_requesters"])
def test_config_rejects_degenerate_estimator(kw):
    with pytest.raises(ValueError):
        EstimatorConfig(**kw)


# packed Bloom filter against the int-mask reference ---------------------------------

@settings(max_examples=300, deadline=None)
@given(item=st.integers(0, 2**64 - 1),
       n_bits=st.one_of(st.integers(1, 64), st.integers(1, 2**20)),
       n_hashes=st.integers(1, 12))
def test_positions_are_textbook_double_hashing(item, n_bits, n_hashes):
    """Reducing h1 and h2 mod n_bits first gives the textbook positions."""
    bf = BloomFilter(n_bits, n_hashes)
    assert bf._positions(item) == double_hash_positions(item, n_bits, n_hashes)


@settings(max_examples=150, deadline=None)
@given(n_bits=st.integers(1, 400), n_hashes=st.integers(1, 9),
       mine=st.lists(st.integers(0, 2**64 - 1), max_size=30),
       theirs=st.lists(st.integers(0, 2**64 - 1), max_size=30),
       probes=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20))
def test_add_and_test_sets_every_position_and_tests_every_one(n_bits, n_hashes, mine,
                                                              theirs, probes):
    """One pass sets all of an item's bits here and answers whether every one
    of them is set there, on small filters where a probe is often held by
    chance; a filter tested against itself holds what it has just added."""
    here, there = BloomFilter(n_bits, n_hashes), BloomFilter(n_bits, n_hashes)
    for f, items in ((here, mine), (there, theirs)):
        for x in items:
            f.add(x)
    for x in probes:
        positions = double_hash_positions(x, n_bits, n_hashes)
        before = int.from_bytes(here.bits, "little")
        held = all(int.from_bytes(there.bits, "little") >> p & 1 for p in positions)
        assert here.add_and_test(x, there) is held
        assert int.from_bytes(here.bits, "little") == before | sum({1 << p for p in positions})
        assert there.add_and_test(x, there) is True


@settings(max_examples=150, deadline=None)
@given(n_bits=st.integers(1, 3000), n_hashes=st.integers(1, 9),
       left=st.lists(st.integers(0, 2**64 - 1), max_size=60),
       right=st.lists(st.integers(0, 2**64 - 1), max_size=60),
       probes=st.lists(st.integers(0, 2**64 - 1), max_size=40))
def test_packed_bloom_matches_int_mask_reference(n_bits, n_hashes, left, right, probes):
    packed = [BloomFilter(n_bits, n_hashes) for _ in range(2)]
    ref = [IntMaskBloom(n_bits, n_hashes) for _ in range(2)]
    for items, bf, rf in zip((left, right), packed, ref):
        for x in items:
            bf.add(x)
            rf.add(x)
        assert int.from_bytes(bf.bits, "little") == rf.bits
        assert len(bf.bits) == (n_bits + 7) // 8
    for x in probes + left + right:
        assert (x in packed[0]) == (x in ref[0])
        assert (x in packed[1]) == (x in ref[1])
    assert packed[0].union_cardinality(packed[1]) == ref[0].union_cardinality(ref[1])
    exact = [ExactSetFilter() for _ in range(2)]
    for f, items in zip(exact, (left, right)):
        f.items.update(items)
    for x in probes:  # one request's insert into ``current`` and test of ``granted``
        assert packed[0].add_and_test(x, packed[1]) == (x in ref[1])
        assert exact[0].add_and_test(x, exact[1]) == (x in right)
        ref[0].add(x)
    assert int.from_bytes(packed[0].bits, "little") == ref[0].bits
    assert exact[0].items == set(left + probes)
    packed[0].reset()
    assert not any(packed[0].bits)


# integer shares against the rational formulas -----------------------------------------

@settings(max_examples=300, deadline=None)
@given(entry_bw=st.integers(0, 10**20), requesters=st.integers(1, 10**6),
       slots=st.integers(1, 64))
def test_integer_shares_equal_fraction_formulas(entry_bw, requesters, slots):
    frac = Fraction(4, 5)  # the protocol's reserved fraction
    cfg = exact_cfg(tentative_slots=slots)
    est = RequesterEstimator(cfg)
    tentative = est.request(1, entry_bw, 0)
    assert tentative.tentative
    assert tentative.bw == int((1 - frac) * entry_bw / slots)
    est.granted.add(2)
    est.requesters = requesters
    firm = est.request(2, entry_bw, 0)
    assert not firm.tentative
    assert firm.bw == int(frac * entry_bw / requesters)


# bounded catch-up against the one-interval-per-step loop ----------------------------------

def _rotate_stepwise(est, now):
    """Estimator rotation as one loop iteration per elapsed interval."""
    while now >= est.next_rotation:
        union = est.current.union_cardinality(est.previous)
        est.requesters = max(union, est.config.min_requesters)
        est.granted, est.previous, est.current = est.previous, est.current, est.granted.reset()
        est._tentative_holders.clear()
        est.next_rotation += est.config.interval_ns


def _contents(f):
    return frozenset(f.items) if isinstance(f, ExactSetFilter) else bytes(f.bits)


def _state(est):
    return (est.requesters, est.next_rotation, dict(est._tentative_holders),
            _contents(est.granted), _contents(est.previous), _contents(est.current))


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "bloom"])
def test_rotation_catch_up_matches_stepwise_loop(exact):
    rng = random.Random(5)
    cfg = exact_cfg(exact=exact, tentative_slots=3, min_requesters=2)
    for trial in range(10):
        for elapsed in range(8):
            start = rng.randrange(10**12)
            fast, slow = RequesterEstimator(cfg, start), RequesterEstimator(cfg, start)
            t = start
            for _ in range(rng.randrange(40)):  # a history over a few intervals
                t += rng.randrange(EPS // 8)
                src = rng.randrange(20)
                fast.rotate(t)
                _rotate_stepwise(slow, t)
                assert fast.request(src, 100 * GBPS, t) == slow.request(src, 100 * GBPS, t)
            assert _state(fast) == _state(slow)
            # then a jump past exactly ``elapsed`` rotation times
            now = slow.next_rotation + (elapsed - 1) * EPS + rng.randrange(EPS)
            fast.rotate(now)
            _rotate_stepwise(slow, now)
            assert _state(fast) == _state(slow), (trial, elapsed)
