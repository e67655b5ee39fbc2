"""The benchmark's hooks into the package stay in place.

``perfbench`` patches named functions and methods of ``flyover`` for its
traced run, and its tests live outside this suite; these checks keep a
rename in the package from passing here while breaking the benchmark.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
BENCH = os.path.join(ROOT, "perfbench")


def test_every_traced_boundary_resolves():
    sys.path.insert(0, BENCH)
    try:
        from tracer import BOUNDARIES
    finally:
        sys.path.remove(BENCH)
    missing = []
    for mod, boundary, cls, attr, *_ in BOUNDARIES:
        module = importlib.import_module(f"flyover.{mod}")
        # the tracer patches a function of the module or an attribute its class defines
        owner = module if cls is None else getattr(module, cls, None)
        found = vars(owner).get(attr) if owner is not None else None
        if not callable(found):
            missing.append(f"{mod}.{boundary}")
    assert missing == []


# the boundary each workload's ops cross, so a run that did no work fails
_WORK = {"datapath": "router.Router.handle_data", "control": "router.Router.handle_setup",
         "scenario": "simnet.Network.process_at_node", "topo_cover": "topo.ReservationStudy"}


def _golden_digests() -> dict[str, str]:
    with open(os.path.join(ROOT, "tests", "golden", "bench_digests.txt")) as fh:
        return dict(line.split() for line in fh if line.strip() and not line.startswith("#"))


@pytest.mark.parametrize("workload", sorted(_WORK))
def test_traced_tiny_run_is_correct(workload):
    """A traced tiny run passes its oracle, does its work and repeats the
    committed first-batch digest, so its outcomes are those of every run
    before it."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--size", "tiny",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    digest = f"# digest {workload} seed=1 first-batch {_golden_digests()[workload]}"
    assert digest in proc.stdout.splitlines()
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics[f"{_WORK[workload]}.calls"] > 0
    if workload in ("datapath", "scenario"):  # C8, read from the tracer's priority tags
        assert metrics["crypto.macs_per_validated_hop"] == 2
        assert metrics["crypto.prf_per_validated_hop"] == 0
