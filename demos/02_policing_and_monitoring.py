#!/usr/bin/env python3
"""The deterministic traffic monitor: one 8-byte timestamp per flyover.

Shows the bucket admitting a burst, throttling a 2x sender to half its
bytes, a per-source tally of the monitor's verdicts, and the 800 kB
footprint for 100k flyovers. The monitor only decides; whoever asks it
counts, as a scenario's network does for its ``--summary`` table.
"""

from collections import Counter

from flyover.policing import TokenBucket, TrafficMonitor, Verdict
from flyover.router import RouterConfig

MS = 1_000_000

print("== single bucket: burst then steady state ==")
bucket = TokenBucket(rate_bytes_per_ns=1.0, window_ns=10_000, now=0)  # 8 Gbps, 10us
burst = 0
while bucket.check(1000, now=0):
    burst += 1
print(f"  burst capacity at t=0: {burst} packets of 1000 B")
print(f"  state is a single timestamp: {bucket.serialize().hex()} ({len(bucket.serialize())} bytes)")

print("\n== a source sending at twice its rate ==")
mon = TrafficMonitor(window_ns=1 * MS)
mon.register(src=4, bw=8_000_000_000, ts_exp=10**15, pair_in=1, pair_out=2, now=0)
verdicts = [mon.police(4, 1000, 1, 2, now=k * 500) for k in range(40_000)]
over = sum(v is Verdict.OVERUSE for v in verdicts)
print(f"  {over}/{len(verdicts)} packets demoted ({over/len(verdicts):.1%}),"
      f" ~half, deterministically")

print("\n== per-source accounting, tallied from the verdicts ==")
verdicts += [mon.police(4, 1000, 1, 2, now=10**15)]  # the grant has expired
tally = Counter(verdicts)  # replays never reach the monitor: the router drops them first
conform, overuse = tally[Verdict.CONFORM] * 1000, tally[Verdict.OVERUSE] * 1000
print(f"  src=4 conform={conform}B overuse={overuse}B expired={tally[Verdict.EXPIRED]}")

print("\n== memory for 100000 monitored flyovers ==")
big = TrafficMonitor(RouterConfig().bucket_window_ns)
for src in range(100_000):
    big.register(src, 1_000_000, 10**15, 1, 2, now=0)
print(f"  serialized bucket state: {len(big.serialized_bucket_state())} bytes")
