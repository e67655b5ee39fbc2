"""Policing: bucket-vs-oracle equivalence, monitor semantics, dedup window."""

import pickle
import random
import struct
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flyover.policing import DedupWindow, TokenBucket, TrafficMonitor, Verdict

from oracles import CounterBucket, HeapDedupWindow

MS = 1_000_000
S = 1_000_000_000
PAIR = (1, 2)  # a directed (ingress, egress) interface pair


def test_fresh_bucket_admits_up_to_burst():
    b = TokenBucket(rate_bytes_per_ns=1.0, window_ns=50 * MS, now=0)
    assert b.check(50 * MS, 0)  # exactly one burst worth
    assert not b.check(1, 0)


def test_old_timestamp_clamps_to_now():
    b = TokenBucket(1.0, 50 * MS, now=0)
    b.ts = 0
    # long idle: bucket cannot be "more than full"
    assert b.check(50 * MS, now=10 * S)
    assert not b.check(1, now=10 * S)


def test_back_to_back_burst_count():
    # window 50 ms at 1.25 B/ns -> burst 62.5e6 bytes; 1000-byte packets
    b = TokenBucket(1.25, 50 * MS, now=0)
    allowed = 0
    while b.check(1000, 0):
        allowed += 1
    assert allowed == 62_500_000 // 1000


def test_denial_leaves_state_unchanged():
    b = TokenBucket(1.0, 1000, now=0)
    b.check(600, 0)
    ts_before = b.ts
    assert not b.check(600, 0)
    assert b.ts == ts_before
    assert b.check(400, 0)


def _random_trace(rng, n):
    t = 0
    out = []
    for _ in range(n):
        t += rng.randrange(0, 2_000_000)
        out.append((t, rng.randrange(1, 5000)))
    return out


@pytest.mark.parametrize("rate", [0.5, 1.0, 2.0, 0.25, 4.0])
def test_bucket_matches_counter_oracle(rate):
    """Decision-for-decision equivalence with a classic counter bucket."""
    rng = random.Random(int(rate * 100))
    for _ in range(200):
        window = rng.choice([10 * MS, 50 * MS, 100 * MS])
        b = TokenBucket(rate, window, now=0)
        oracle = CounterBucket(rate, rate * window)
        for now, length in _random_trace(rng, 50):
            assert b.check(length, now) == oracle.check(length, now)


def test_bucket_serializes_to_eight_bytes():
    b = TokenBucket(1.0, 1000, now=123.5)
    raw = b.serialize()
    assert len(raw) == 8
    assert struct.unpack(">d", raw)[0] == b.ts


@pytest.mark.parametrize("rate", [0, 0.0, -1e-9, -2])
def test_bucket_rejects_non_positive_rate(rate):
    with pytest.raises(ValueError, match="rate must be positive"):
        TokenBucket(rate, 1000)


# monitor ---------------------------------------------------------------------

def test_register_rejects_negative_bandwidth():
    mon = TrafficMonitor(window_ns=50 * MS)
    with pytest.raises(ValueError, match="bandwidth must be >= 0"):
        mon.register(5, -1, 10 * S, *PAIR, now=0)
    assert mon.entries == {}
    mon.register(5, 0, 10 * S, *PAIR, now=0)  # zero is a (useless) valid grant


def test_register_twice_keeps_single_entry_and_bucket_state():
    mon = TrafficMonitor(window_ns=50 * MS)
    mon.register(5, 8_000_000_000, 10 * S, *PAIR, now=0)
    entry = mon.entries[(5, *PAIR)]
    mon.police(5, 1000, *PAIR, now=0)
    ts_after_traffic = entry.ts
    mon.register(5, 8_000_000_000, 12 * S, *PAIR, now=1)  # repeated request
    assert mon.entries[(5, *PAIR)] is entry
    assert entry.ts == ts_after_traffic  # burst not refilled
    assert entry.ts_exp == 12 * S
    assert len(mon.entries) == 1


def test_register_update_changes_rate():
    mon = TrafficMonitor(window_ns=50 * MS)
    mon.register(5, 8_000_000_000, 10 * S, *PAIR, now=0)
    mon.register(5, 16_000_000_000, 10 * S, *PAIR, now=0)
    assert mon.entries[(5, *PAIR)].bw == 16_000_000_000
    assert mon.entries[(5, *PAIR)].rate == 2.0  # bytes per ns


def test_flyovers_of_one_source_are_policed_apart():
    """Each directed pair a source holds a grant on has its own entry, at
    its own rate: filling one bucket leaves the other's burst untouched."""
    mon = TrafficMonitor(window_ns=1 * MS)
    mon.register(5, 8_000_000_000, 10 * S, 1, 2, now=0)
    mon.register(5, 16_000_000_000, 10 * S, 1, 3, now=0)
    assert [(k, e.bw) for k, e in mon.entries.items()] == [
        ((5, 1, 2), 8_000_000_000), ((5, 1, 3), 16_000_000_000)]
    while mon.police(5, 1000, 1, 2, now=0) is Verdict.CONFORM:
        pass
    assert mon.police(5, 1000, 1, 3, now=0) is Verdict.CONFORM
    assert mon.police(5, 1000, 2, 1, now=0) is Verdict.UNKNOWN


def test_a_monitor_entry_is_one_slotted_bucket():
    """Each policed flyover is one object: a token bucket that also holds its
    grant's rate and expiry, with no per-instance dict."""
    mon = TrafficMonitor(window_ns=50 * MS)
    mon.register(5, 8_000_000_000, 10 * S, *PAIR, now=0)
    entry = mon.entries[(5, *PAIR)]
    assert isinstance(entry, TokenBucket)
    assert not hasattr(entry, "__dict__") and not hasattr(entry, "bucket")
    assert (entry.rate, entry.window, entry.ts, entry.bw, entry.ts_exp) == (
        1.0, 50 * MS, 0, 8_000_000_000, 10 * S)


def test_monitor_footprint_100k():
    mon = TrafficMonitor(window_ns=50 * MS)
    for src in range(100_000):
        mon.register(src, 1_000_000, 10 * S, *PAIR, now=0)
    assert len(mon.serialized_bucket_state()) == 800_000


def test_police_verdicts():
    mon = TrafficMonitor(window_ns=50 * MS)
    assert mon.police(9, 1000, *PAIR, 0) is Verdict.UNKNOWN
    mon.register(9, 8_000_000_000, 5 * S, *PAIR, now=0)
    assert mon.police(9, 1000, *PAIR, 100) is Verdict.CONFORM
    assert mon.police(9, 1000, *PAIR, 5 * S + 1) is Verdict.EXPIRED


def test_police_conforming_rate_never_flags():
    # send exactly at the granted rate for ten full burst windows
    mon = TrafficMonitor(window_ns=1 * MS)
    bw = 8_000_000_000  # 1 B/ns
    mon.register(3, bw, 10**12, *PAIR, now=0)
    gap = 1000  # ns per 1000-byte packet at 1 B/ns
    for k in range(10 * MS // gap):
        assert mon.police(3, 1000, *PAIR, k * gap) is Verdict.CONFORM


def test_police_double_rate_flags_half():
    # 1 ms burst window; the 50 ms trace spans 50 windows so the initial
    # burst contributes ~1% slack, inside the 2% tolerance
    mon = TrafficMonitor(window_ns=1 * MS)
    mon.register(4, 8_000_000_000, 10**12, *PAIR, now=0)
    verdicts = []
    for k in range(100_000):
        verdicts.append(mon.police(4, 1000, *PAIR, k * 500))  # 2x rate
    over = sum(v is Verdict.OVERUSE for v in verdicts)
    assert abs(over / len(verdicts) - 0.5) < 0.02


def test_policing_soundness_bound():
    """Conform bytes can never exceed burst + rate * elapsed."""
    rng = random.Random(11)
    for _ in range(50):
        window = 50 * MS
        bw = rng.choice([8_000_000_000, 4_000_000_000, 1_000_000_000])
        rate = bw / 8 / 1e9
        mon = TrafficMonitor(window_ns=window)
        mon.register(1, bw, 10**15, *PAIR, now=0)
        conform = 0
        t = 0
        for _ in range(400):
            t += rng.randrange(0, 1_000_000)
            length = rng.randrange(1, 9000)
            if mon.police(1, length, *PAIR, t) is Verdict.CONFORM:
                conform += length
            assert conform <= rate * window + rate * t + 1e-6


def test_sweep_evicts_lazily():
    mon = TrafficMonitor(window_ns=50 * MS)
    mon.register(1, 1000, 100, *PAIR, now=0)
    mon.register(2, 1000, 10**9, *PAIR, now=0)
    assert mon.sweep(now=200) == 1
    assert list(mon.entries) == [(2, *PAIR)]


@pytest.mark.parametrize("k", [1, 1000])
def test_a_swept_monitor_keeps_nothing_of_the_sources_it_policed(k):
    """K sources register, are policed to each verdict, expire and are
    swept: the monitor is then in a fresh one's state, whatever K."""
    mon = TrafficMonitor(window_ns=50 * MS)
    for src in range(k):
        mon.register(src, 8_000_000, S, *PAIR, now=0)  # 1 MB/s: a 50 kB burst
        assert mon.police(src, 1000, *PAIR, 0) is Verdict.CONFORM
        assert mon.police(src, 50_000, *PAIR, 0) is Verdict.OVERUSE
        assert mon.police(src, 1000, *PAIR, S) is Verdict.EXPIRED
    assert mon.sweep(now=S) == k
    assert pickle.dumps(mon) == pickle.dumps(TrafficMonitor(window_ns=50 * MS))


# dedup ------------------------------------------------------------------------

def test_dedup_fresh_then_replay():
    w = DedupWindow(window_ns=1500 * MS)
    assert w.check(1, 1000, DedupWindow.KIND_DATA_FWD, now=1000)
    assert not w.check(1, 1000, DedupWindow.KIND_DATA_FWD, now=1001)


def test_dedup_distinct_sources_share_timestamp():
    w = DedupWindow(window_ns=1500 * MS)
    assert w.check(1, 42, 0, now=42)
    assert w.check(2, 42, 0, now=43)


def test_dedup_direction_in_key():
    w = DedupWindow(window_ns=1500 * MS)
    assert w.check(1, 42, DedupWindow.KIND_DATA_FWD, now=42)
    assert w.check(1, 42, DedupWindow.KIND_DATA_BWD, now=43)
    assert w.check(1, 42, DedupWindow.KIND_SETUP, now=44)


def test_dedup_eviction_after_window():
    w = DedupWindow(window_ns=1000)
    assert w.check(1, 100, 0, now=100)
    # re-sent long after the original's window: fresh again
    assert w.check(1, 100, 0, now=5000)
    assert len(w) == 1


@pytest.mark.parametrize("window_ns", [1500 * MS, 2**70])
def test_dedup_packed_keys_distinct_at_u64_extremes(window_ns):
    # 2**70 puts every timestamp in one bucket, so only the packing tells them apart
    w = DedupWindow(window_ns)
    extremes = (0, 1, 2**64 - 1)
    keys = [(src, ts, kind) for src in extremes for ts in extremes
            for kind in (DedupWindow.KIND_DATA_FWD, DedupWindow.KIND_DATA_BWD,
                         DedupWindow.KIND_SETUP)]
    assert all(w.check(*key, now=0) for key in keys)
    assert len(w) == len(keys)
    assert not any(w.check(*key, now=0) for key in keys)


WINDOW = 1000  # ns: buckets of 125 ns, so a few hundred ns of clock crosses several


# one check: (clock step or absolute clock, src, ts - clock, kind, earlier check to repeat)
_DEDUP_STEPS = st.lists(st.tuples(st.integers(0, 6 * WINDOW), st.integers(0, 2),
                                  st.integers(-2 * WINDOW, 300), st.integers(0, 2),
                                  st.none() | st.integers(0, 79)),
                        min_size=1, max_size=80)


def _dedup_ops(steps, *, monotone: bool):
    """Checks as (src, ts, kind, now); a step naming an earlier check repeats its key."""
    ops, now = [], 2 * WINDOW
    for clock, src, offset, kind, repeat in steps:
        now = now + clock % 300 if monotone else clock
        if ops and repeat is not None:
            src, ts, kind, _ = ops[repeat % len(ops)]
        else:
            ts = max(0, now + offset)
        ops.append((src, ts, kind, now))
    return ops


@settings(max_examples=300, deadline=None)
@given(_DEDUP_STEPS)
def test_dedup_matches_heap_window_under_monotone_clock(steps):
    new, old = DedupWindow(WINDOW), HeapDedupWindow(WINDOW)
    for src, ts, kind, now in _dedup_ops(steps, monotone=True):
        fresh, ref = new.check(src, ts, kind, now), old.check(src, ts, kind, now)
        if ts >= now - WINDOW:  # the domain routers let through
            assert fresh == ref, (src, ts, kind, now)


@settings(max_examples=300, deadline=None)
@given(_DEDUP_STEPS)
def test_dedup_exact_under_backward_clock(steps):
    w = DedupWindow(WINDOW)
    seen, latest = set(), 0
    for src, ts, kind, now in _dedup_ops(steps, monotone=False):
        latest = max(latest, now)
        fresh = w.check(src, ts, kind, now)
        if (src, ts, kind) not in seen:
            assert fresh, "first-seen key refused"
        elif ts >= latest - WINDOW:
            assert not fresh, "duplicate inside the window let through"
        seen.add((src, ts, kind))


def test_dedup_memory_per_entry():
    window = 1500 * MS
    w = DedupWindow(window)
    base = 1_700_000_000_000_000_000
    tracemalloc.start()
    try:
        for j in range(100_000):
            ts = base + j * 15_000  # all within one window
            assert w.check(j % 1000, ts, DedupWindow.KIND_DATA_FWD, ts)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(w) == 100_000
    assert held / len(w) <= 128
