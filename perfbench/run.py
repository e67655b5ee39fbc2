"""flyover benchmark: one workload per process, closed loop, single thread.

    python3 perfbench/run.py --workload datapath --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 10          # every workload, one table

With ``--trace 0`` the last stdout line is a JSON object whose metrics are
the end-to-end metrics; with ``--trace 1`` they are the per-layer metrics
of a traced run. The exit code is 1 when an oracle finds a wrong outcome.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402

WORKLOADS = ("datapath", "control", "scenario", "topo_cover")
END_TO_END = ("setup_s", "wall_s", "ops_per_s", "op_p50_us", "op_p99_us", "peak_rss_mb")
# printed by every run but left out of the JSON line and of BENCHMARK.json: on a
# shared host, op_p99_us moves with host noise by more than any usable bound
UNBOUNDED = ("op_p99_us",)
UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "op/s", "op_p50_us": "us",
         "op_p99_us": "us", "peak_rss_mb": "MB", "failed_frac": "ratio"}


def import_flyover():
    """Import the package from this checkout's ``src``; nothing else will do."""
    sys.path.insert(0, common.SRC_DIR)
    import flyover

    where = os.path.dirname(os.path.abspath(flyover.__file__))
    if where != os.path.join(common.SRC_DIR, "flyover"):
        raise ImportError(f"flyover imported from {where}, not from this checkout")


def make_workload(name: str, seed: int, size: str):
    if name == "datapath":
        from wl_datapath import Datapath as cls
    elif name == "control":
        from wl_control import Control as cls
    elif name == "scenario":
        from wl_scenario import Scenario as cls
    else:
        from wl_topo import TopoCover as cls
    return cls(seed, size)


def batch_count(wl, seconds: float) -> int:
    n = max(2, round(seconds * wl.batches_per_s))
    if n > wl.max_batches:
        raise ValueError(f"{wl.name}: {n} batches asked, its inputs stay valid for "
                         f"{wl.max_batches}")
    return n


def run_one(args) -> int:
    import_flyover()
    wl = make_workload(args.workload, args.seed, args.size)
    record = common.repro_record(args.seed)
    print("# repro " + json.dumps(record))
    if args.trace:
        metrics, loop = run_traced(wl, args)
    else:
        metrics, loop = run_untraced(wl, args)
    for line in loop.failures[:20]:
        print(f"# FAIL {line}")
    for line in loop.known_defects[:20]:
        print(f"# KNOWN DEFECT {line}")
    if loop.known_defects:
        print(f"# {wl.name}: {len(loop.known_defects)} outcomes differ from the oracle only as "
              f"a known defect predicts; they are not counted as failed")
    print(f"# {wl.name}: failed_frac={loop.failed / loop.ops:.6g} ({loop.failed}/{loop.ops})")
    print(f"# digest {wl.name} seed={args.seed} first-batch "
          f"{common.outcome_digest(loop.first_outcomes)}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    correct = loop.failed == 0
    common.print_result(correct, loop.ops, loop.failed,
                        {k: v for k, v in metrics.items() if k not in UNBOUNDED})
    return 0 if correct else 1


def run_untraced(wl, args):
    """Time repeated set-ups, then the batches, each scaled to the reference
    host speed by the probes around it."""
    probe = common.speed_probe()
    setups = []
    state = None
    for _ in range(wl.setup_reps):
        spent = 0.0
        for _ in range(wl.setup_inner):
            state = None  # let the previous state go before building the next
            t0 = time.perf_counter()
            state = wl.setup()
            spent += time.perf_counter() - t0
        after = common.speed_probe()
        setups.append(spent / wl.setup_inner * common.speed_scale(probe, after))
        probe = after

    loop = common.timed_loop(wl, state, batch_count(wl, args.seconds), probe)
    walls = [w * f for w, f in zip(loop.batch_walls_s, loop.scales)]
    p50, p99, n_lat = common.latency_metrics(loop, wl.per_op_latency)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.mean(walls), "s"),
        "ops_per_s": (loop.ops / sum(walls), "op/s"),
        "op_p50_us": (p50, "us"),
        "op_p99_us": (p99, "us"),
        "peak_rss_mb": (common.peak_rss_mb(), "MB"),
    }
    raw = sum(loop.batch_walls_s) / len(walls)
    print(f"# {wl.name}: {len(walls)} batches, {loop.ops} ops, {n_lat} latency samples "
          f"({'per op' if wl.per_op_latency else 'per batch, amortised over its ops'}); "
          f"set-up x{len(setups)} of {wl.setup_inner}; unscaled wall_s {raw:.4g} s, "
          f"speed scale {statistics.median(loop.scales):.3f} (median over batches)")
    return metrics, loop


def run_traced(wl, args):
    """Alternate untraced and traced batches, then derive per-layer metrics.

    The wrappers are installed only around odd batches, so both halves see
    the same program state; their per-op times give the tracing overhead.
    A workload whose set-up runs traced boundaries (``trace_setup``) also
    has its one set-up traced.
    """
    from tracer import Tracer, layer_metrics

    tr = Tracer()
    if wl.trace_setup:
        tr.install()
    try:
        state = wl.setup()
    finally:
        tr.uninstall()
    setup_spans = len(tr)
    wl.tracer = tr

    def start(k):
        if k % 2:
            tr.install()

    def stop(k):
        if k % 2:
            tr.uninstall()

    loop = common.timed_loop(wl, state, batch_count(wl, args.seconds),
                             common.speed_probe(), on_batch_start=start, on_batch_end=stop)
    wl.tracer = None
    walls, ops = loop.batch_walls_s, loop.batch_ops
    traced_wall, traced_ops = sum(walls[1::2]), sum(ops[1::2])
    plain_wall, plain_ops = sum(walls[0::2]), sum(ops[0::2])
    overhead = (traced_wall / traced_ops) / (plain_wall / plain_ops)
    readings = {**wl.finish(state), "bucket_float_flips": len(loop.known_defects)}
    metrics, c8 = layer_metrics(tr, setup_spans, traced_wall, traced_ops, readings, overhead)
    if wl.name == "datapath":
        # C8 from the tracer, cross-checked against crypto.ops read around the
        # same router calls
        counted = sum(n for k, n in state.router_macs.items() if k % 2)
        problems = [f"C8 (tracer): {v}" for v in c8["violations"]]
        if c8["macs"] != counted or c8["prfs"]:
            problems.append(f"C8: tracer saw {c8['macs']} MACs and {c8['prfs']} PRFs under "
                            f"Router.handle_data, crypto.ops counted {counted} MACs")
        if metrics["crypto.macs_per_validated_hop"][0] != 2:
            problems.append("C8: priority verdicts did not average exactly 2 MACs per hop")
        print(f"# C8 cross-check: {c8['macs']} MACs under Router.handle_data spans, "
              f"{counted} from crypto.ops")
        loop.failed += len(problems)
        loop.failures.extend(problems)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{wl.name}.tsv")  # one file per workload
    tr.write(path)
    print(f"# traced {wl.name}: {len(walls) // 2} of {len(walls)} batches traced"
          f"{' and the set-up' if wl.trace_setup else ''}, {traced_ops} ops, "
          f"{len(tr)} spans written to {os.path.relpath(path)}")
    print(f"# tracing overhead: traced {traced_wall / traced_ops * 1e6:.1f} us/op vs "
          f"untraced {plain_wall / plain_ops * 1e6:.1f} us/op = {overhead:.3f}x")
    return metrics, loop


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    rows = {}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "0", "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write("".join(f"[{name}] {line}\n" for line in proc.stdout.splitlines()
                                 if line.startswith("# ")))
        sys.stderr.write(proc.stderr)
        try:
            rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            rows[name] = None
        if proc.returncode != 0 or rows[name] is None:
            rows[name] = None
            status = 1
            continue
        for line in proc.stdout.splitlines():  # "# <metric> = <value> <unit>"
            parts = line.split()
            if len(parts) == 5 and parts[0] == "#" and parts[2] == "=":
                rows[name]["metrics"][parts[1]] = {"value": float(parts[3])}
    names = END_TO_END + ("failed_frac",)
    print()
    print(f"{'metric':<22}" + "".join(f"{w:>16}" for w in WORKLOADS))
    for m in names:
        cells = []
        for w in WORKLOADS:
            res = rows[w]
            if res is None:
                cells.append("error")
            elif m == "failed_frac":
                cells.append(f"{res['failed'] / res['attempted']:.3g}")
            else:
                value = f"{res['metrics'][m]['value']:.4g}"
                if m in ("op_p50_us", "op_p99_us") and w in ("scenario", "topo_cover"):
                    value = f"n/a [{value}]"
                cells.append(value)
        print(f"{m + ' (' + UNITS[m] + ')':<22}" + "".join(f"{c:>16}" for c in cells))
    print("n/a [x]: no single-op latency on this workload; x is the batch wall time "
          "divided by its ops (median over batches).")
    print(f"Not in the JSON line nor bounded in BENCHMARK.json: {', '.join(UNBOUNDED)}, "
          f"failed_frac (the JSON line's failed / attempted).")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true", help="run every workload and print a table")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: smoke-test inputs")
    args = p.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        p.error("--workload or --all is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
