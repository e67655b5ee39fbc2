"""Shared harness: the timed closed loop, statistics, the outcome digest and
the reproducibility record.

A workload object provides:

* ``setup()`` -> state: builds inputs and program state; timed as ``setup_s``.
* ``prepare(state, k)``: builds the inputs of batch ``k`` (attacker frames,
  schedules). Runs outside the timed region.
* ``run_batch(state, k)`` -> :class:`BatchOutcome`: the timed work. The
  batch's oracle goes into ``BatchOutcome.verify``, which runs after the
  batch's clock has stopped.
* ``finish(state)`` -> dict: end-of-run state readings for the traced run.
* ``per_op_latency``: True when single operations are timed one by one.
* ``setup_reps``, ``setup_inner``: set-up is timed ``setup_reps`` times, each
  sample the mean of ``setup_inner`` back-to-back set-ups.
* ``batches_per_s``: a run of ``--seconds s`` runs ``round(s * batches_per_s)``
  batches, so every run with the same arguments does the same work.
* ``max_batches``: batches the generated inputs stay valid for.

Every workload is a single-thread closed loop: one caller, and the next
operation starts after the previous one completes.

Host speed. A shared host moves between speed states up to ~2x apart, for
anything from a fraction of a second to a whole run. A fixed pure-Python
probe (:func:`speed_probe`) runs before and after every timed sample (a
batch, or a set-up sample), and the sample's times are scaled by
``PROBE_REF_S`` over the mean of its two probes: times are reported at the
host speed at which the probe takes ``PROBE_REF_S``. The probe is part of
the benchmark, so a change to the program moves the scaled times and a
change of host speed mostly does not.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")


@dataclass
class BatchOutcome:
    """What one batch did: ops attempted, per-op latencies, oracle results."""

    ops: int
    latencies_ns: list[int] = field(default_factory=list)
    failed: int = 0  # ops whose outcome differs from the oracle's
    failures: list[str] = field(default_factory=list)  # what went wrong, for the log
    # outcomes that differ from the oracle's only as a documented defect of
    # the program predicts: printed and counted, not failed
    known_defects: list[str] = field(default_factory=list)
    outcomes: list = field(default_factory=list)  # per-op results for the digest
    verify: object = None  # the oracle, run after the batch's clock stops


def nearest_rank(sorted_values: list, q: float):
    """Nearest-rank percentile of an ascending list (q in (0, 1])."""
    if not sorted_values:
        raise ValueError("no samples")
    idx = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[min(idx, len(sorted_values) - 1)]


def outcome_digest(outcomes: list) -> str:
    """SHA-256 over the repr of every op's verdict or result, in order."""
    h = hashlib.sha256()
    for item in outcomes:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _source_revision() -> str:
    """Git revision of the checkout, or a hash of the package sources."""
    if os.path.isdir(os.path.join(REPO_ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    pkg = os.path.join(SRC_DIR, "flyover")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def repro_record(seed: int) -> dict:
    import cryptography
    import networkx

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "networkx": networkx.__version__,
        "revision": _source_revision(),
        "seed": seed,
        "argv": sys.argv,
    }


# times are reported at the host speed at which the probe takes this long: about
# its time in the fastest speed state of the 2 GHz Xeon host the benchmark was sized on
PROBE_REF_S = 0.010
_PROBE_TABLE = dict.fromkeys(range(1 << 16), 1)  # ~5 MB: larger than a core's own caches


def speed_probe() -> float:
    """Seconds taken by a fixed pure-Python task (10-25 ms on a 2 GHz Xeon).

    The task mixes the interpreter work the workloads do: integer
    arithmetic, dict updates, tuple building and a sort, plus random reads
    from a table larger than a core's own caches, so that it slows down
    both when a neighbour shares the core and when it shares the memory
    system. The garbage collector is off while it runs, so the size of the
    workload's heap does not reach into it.
    """
    gc.disable()
    t0 = time.perf_counter()
    table = _PROBE_TABLE
    d: dict[int, int] = {}
    rows = []
    x = 1
    hits = 0
    for i in range(16_000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        key = x & 4095
        d[key] = d.get(key, 0) + i
        hits += table[x >> 16]
        if i & 15 == 0:
            rows.append((key, i))
    rows.sort()
    dt = time.perf_counter() - t0
    gc.enable()
    return dt


def speed_scale(before: float, after: float) -> float:
    """Factor that takes a sample's time, between these two probes, to the
    reference host speed."""
    return PROBE_REF_S / ((before + after) / 2)


@dataclass
class LoopResult:
    batch_walls_s: list[float]
    batch_ops: list[int]
    batch_latencies_ns: list[list[int]]
    scales: list[float]  # per batch: speed_scale of the probes around it
    failed: int
    failures: list[str]
    known_defects: list[str]
    first_outcomes: list

    @property
    def ops(self) -> int:
        return sum(self.batch_ops)


def timed_loop(workload, state, batches: int, first_probe: float,
               on_batch_start=None, on_batch_end=None) -> LoopResult:
    """Run ``batches`` batches, each between two speed probes.

    Batch inputs are prepared outside the timer, and the batch's oracle runs
    after it. The garbage collector is run between batches and left enabled
    inside them, as in normal use.
    """
    res = LoopResult([], [], [], [], 0, [], [], [])
    before = first_probe
    for k in range(batches):
        workload.prepare(state, k)
        gc.collect()
        if on_batch_start:
            on_batch_start(k)
        t0 = time.perf_counter()
        out = workload.run_batch(state, k)
        dt = time.perf_counter() - t0
        if on_batch_end:
            on_batch_end(k)
        after = speed_probe()
        if out.verify is not None:
            out.verify(out)
        res.batch_walls_s.append(dt)
        res.batch_ops.append(out.ops)
        res.batch_latencies_ns.append(out.latencies_ns)
        res.scales.append(speed_scale(before, after))
        res.failed += out.failed
        res.failures.extend(out.failures)
        res.known_defects.extend(out.known_defects)
        if k == 0:
            res.first_outcomes = out.outcomes
        before = after
    return res


def latency_metrics(loop: LoopResult, per_op: bool) -> tuple[float, float, int]:
    """(p50 us, p99 us, sample count) of single operations, speed-scaled.

    p50 and p99 are each batch's 50th and 99th percentile op latency,
    averaged over the batches: a burst of host slowness then moves the
    batches it lands in, not the whole run's tail. Workloads
    without a per-op timing have no single-op latency: both values are the
    median over batches of the batch wall time divided by its op count, and
    the sample count is the number of batches.
    """
    if per_op:
        batches = [(sorted(b), f) for b, f in zip(loop.batch_latencies_ns, loop.scales)]
        p50 = statistics.mean(nearest_rank(b, 0.5) * f for b, f in batches)
        p99 = statistics.mean(nearest_rank(b, 0.99) * f for b, f in batches)
        return p50 / 1e3, p99 / 1e3, sum(len(b) for b, _ in batches)
    amortised = statistics.median(w * f / n * 1e6 for w, f, n in
                                  zip(loop.batch_walls_s, loop.scales, loop.batch_ops))
    return amortised, amortised, len(loop.batch_ops)


def print_result(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    sys.stdout.flush()
    print(json.dumps(line), flush=True)
