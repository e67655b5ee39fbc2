"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import common  # noqa: E402
import run  # noqa: E402
from tracer import self_times  # noqa: E402

WORKLOADS = run.WORKLOADS


def _first_batches(name: str, seed: int, batches: int = 2):
    wl = run.make_workload(name, seed, "tiny")
    state = wl.setup()
    outs = []
    for k in range(batches):
        wl.prepare(state, k)
        out = wl.run_batch(state, k)
        if out.verify is not None:
            out.verify(out)
        outs.append(out)
    return wl, state, outs


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_workload_passes_its_oracle(name):
    wl, state, outs = _first_batches(name, seed=3)
    for out in outs:
        assert out.ops > 0
        assert out.failed == 0, out.failures[:5]
        assert out.outcomes
        if wl.per_op_latency:
            assert len(out.latencies_ns) == out.ops
    assert isinstance(wl.finish(state), dict)


@pytest.mark.parametrize("name", WORKLOADS)
def test_digest_depends_only_on_the_seed(name):
    digests = [common.outcome_digest(_first_batches(name, seed, 1)[2][0].outcomes)
               for seed in (5, 5, 6)]
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_self_time_subtracts_children_once():
    # span: 0 = [0, 100) root; 1 = [10, 40) and 2 = [30, 60) overlap inside 0;
    # 3 = [90, 120) runs past its parent's end; 4 = [15, 20) nests in 1
    starts = [0, 10, 30, 90, 15]
    ends = [100, 40, 60, 120, 20]
    parents = [-1, 0, 0, 0, 1]
    assert self_times(starts, ends, parents) == [100 - 50 - 10, 30 - 5, 30, 30, 5]


def test_self_time_of_a_leaf_is_its_duration():
    assert self_times([5], [17], [-1]) == [12]


def test_datapath_warm_window_matches_the_timed_entry_rate():
    # the share of ops that enter a router's replay window, from the verdicts
    # at the first hop, is the share set-up warms the window with
    import wl_datapath

    wl, _, outs = _first_batches("datapath", seed=4, batches=3)
    entering = (("P", "ok"), ("B", "expired"), ("B", "overuse"))
    verdicts = [o[2][0] for out in outs for o in out.outcomes]
    share = sum(v in entering for v in verdicts) / len(verdicts)
    assert share == pytest.approx(wl_datapath.window_share(wl.batch_ops, wl.bursts), abs=0.05)


def test_over_profile_oracle_allows_only_the_float_rounding():
    # an over-profile verdict that differs from the exact bucket is the known
    # float-bucket defect only within the float rounding bound; beyond it, a failure
    from fractions import Fraction

    import wl_datapath
    from flyover import wire

    wl = run.make_workload("datapath", 4, "tiny")
    st = wl.setup()
    s = st.by_role["over"][0]
    arrival, wire_len = st.t_timed, 600
    order = [(h, None, 1, 2, h * wl_datapath.HOP_DELAY_NS) for h in range(wl_datapath.HOPS)]
    bw = s.store.get(s.plan.flyover_key(0, wire.FORWARD), arrival).bw
    limit = arrival + wl.cfg.bucket_window_ns
    admitted = (("P", "ok"),) * wl_datapath.HOPS
    outcomes = []
    for past_limit in (100, 1000):  # ns; one addition rounds by up to 128 ns here
        st.exact_buckets = {(0, s.sid): (limit + past_limit
                                         - Fraction(wire_len * 8 * 10**9, bw), 0.0)}
        out = common.BatchOutcome(1)
        wl._check_policing(st, s, order, wire_len, arrival, admitted, out)
        outcomes.append((out.failed, len(out.known_defects)))
    assert outcomes == [(0, 1), (1, 0)]


def test_times_are_scaled_by_the_probes_around_them():
    loop = common.LoopResult([2.0, 4.0], [10, 10], [[100, 300], [200, 200]],
                             [0.5, 2.0], 0, [], [], [])
    p50, p99, n = common.latency_metrics(loop, per_op=True)
    assert n == 4
    assert p50 == pytest.approx((100 * 0.5 + 200 * 2.0) / 2 / 1e3)
    assert p99 == pytest.approx((300 * 0.5 + 200 * 2.0) / 2 / 1e3)
    p50, p99, n = common.latency_metrics(loop, per_op=False)
    assert (p50, p99, n) == (pytest.approx(4.5e5), pytest.approx(4.5e5), 2)
    probe = common.PROBE_REF_S
    assert common.speed_scale(probe, 3 * probe) == pytest.approx(0.5)


def _run(*args):
    return subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                          capture_output=True, text=True, cwd=ROOT, timeout=300)


def test_result_line_carries_every_end_to_end_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = _run("--workload", "control", "--seed", "2", "--seconds", "0.3", "--trace", "0",
             "--size", "tiny")
    assert p.returncode == 0, p.stderr
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert set(res["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0


def test_traced_datapath_reports_per_layer_metrics_and_c8():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = _run("--workload", "datapath", "--seed", "2", "--seconds", "1", "--trace", "1",
             "--size", "tiny")
    assert p.returncode == 0, p.stdout[-2000:] + p.stderr
    res = json.loads(p.stdout.strip().splitlines()[-1])
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert metrics["crypto.macs_per_validated_hop"] == 2
    assert metrics["crypto.prf_per_validated_hop"] == 0
    assert metrics["wire.decodes_per_hop_visit"] == 1
    assert metrics["admission.admit_setup.calls"] == 0
    shares = sum(v for k, v in metrics.items() if k.endswith(".self_share"))
    assert shares == pytest.approx(1.0)


def test_the_benchmark_fails_without_the_package(tmp_path):
    # a directory holding only the benchmark: no flyover sources to import
    dst = tmp_path / "perfbench"
    dst.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            (dst / name).write_bytes(open(os.path.join(BENCH, name), "rb").read())
    p = subprocess.run([sys.executable, str(dst / "run.py"), "--workload", "datapath",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       capture_output=True, text=True, cwd=tmp_path, timeout=120,
                       env={**os.environ, "PYTHONPATH": ""})
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
