"""Command-line entry point: topology runs, scenarios, crypto vectors.

Subcommands::

    topo gen          write a topology file (nodes and links)
    sim reservations  per-(src, dst) reservation sizes as CSV
    sim cover         median cover per (seed, rate, strategy) as CSV
    sim plot          SVG line chart of median cover vs threshold or size
    scenario run      run a scenario file and evaluate its requirements
    vectors           print the crypto test-vector lines

Every run prints its resolved configuration and seed as a ``#`` line on
stdout, or on stderr when the data goes to stdout (``-o -``); every file
written gets a ``# wrote`` line on stdout. With the same seed any command is
bit-reproducible. Exit codes: 0 success, 1 a scenario requirement failed,
2 usage or configuration error, 141 (SIGPIPE) when the reader closes the
pipe. The ``sim`` commands share their graph flags and build each seed's
study in one place. Throughput is measured by ``perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import signal
import sys
from multiprocessing import Pool

from . import crypto, simnet, topo
from .units import parse_bandwidth


def _seed(text: str) -> int:
    """A seed, which must be >= 0: ``random.Random`` seeds from an int's
    absolute value, so -3 would run seed 3's draws."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return int(text)


def _parse_seeds(text: str) -> list[int]:
    seeds = [_seed(s) for s in str(text).split(",") if s != ""]
    if not seeds:
        raise argparse.ArgumentTypeError("need at least one seed")
    return seeds


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def _positive_bandwidth(text: str) -> int:
    bps = parse_bandwidth(text)
    if bps < 1:
        raise argparse.ArgumentTypeError(f"must be a positive bandwidth, got {text}")
    return bps


def _positive_bandwidths(text: str) -> list[int]:
    return [_positive_bandwidth(x) for x in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="flyover", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)

    topo_sub = sub.add_parser("topo", help="topology generation").add_subparsers(
        dest="sub", required=True)
    gen = topo_sub.add_parser("gen", help="generate a topology file")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--m", type=int, default=2, help="attachment parameter")
    gen.add_argument("--seed", type=_seed, default=1)
    gen.add_argument("-o", "--output", default="-")
    gen.set_defaults(run=cmd_topo_gen)

    graph = argparse.ArgumentParser(add_help=False)  # the flags of every sim command
    graph.add_argument("--n", type=int, required=True)
    graph.add_argument("--m", type=int, default=2)
    graph.add_argument("--min-requesters", type=_positive_int, default=1)
    sim_sub = sub.add_parser("sim", help="topology experiments").add_subparsers(
        dest="sub", required=True)
    for name, help_, rows, columns in (
            ("reservations", "per-pair reservation sizes CSV", _reservation_rows,
             ["seed", "n", "r", "strategy", "src", "dst", "a_ij_bps"]),
            ("cover", "median cover CSV", _cover_rows,
             ["seed", "n", "r", "strategy", "gamma_bps", "median_cover"])):
        sp = sim_sub.add_parser(name, parents=[graph], help=help_)
        sp.add_argument("--r", type=float, required=True, help="sampling rate in (0,1]")
        sp.add_argument("--strategy", choices=["max", "concurrent", "both"], default="both")
        sp.add_argument("--seeds", type=_parse_seeds, default=[1])
        sp.add_argument("--jobs", type=_positive_int, default=1,
                        help="parallel workers across seeds (each seed deterministic)")
        sp.add_argument("-o", "--output", default="-")
        sp.set_defaults(run=cmd_sim_csv, rows=rows, columns=columns)
    sp.add_argument("--gamma", type=_positive_bandwidth, default="100kbps",  # sp: cover
                    help="cover threshold, e.g. 100kbps")
    plot = sim_sub.add_parser("plot", parents=[graph],
                              help="SVG chart of median cover vs threshold")
    plot.add_argument("--r", type=float, default=0.1)
    plot.add_argument("--seed", type=_seed, default=1)
    plot.add_argument("--gammas", default="1kbps,10kbps,100kbps,1Mbps,10Mbps,100Mbps",
                      type=_positive_bandwidths)
    plot.add_argument("-o", "--output", required=True)
    plot.set_defaults(run=cmd_sim_plot)

    scen = sub.add_parser("scenario", help="adversarial scenario runs").add_subparsers(
        dest="sub", required=True).add_parser("run", help="run one scenario file")
    scen.add_argument("config")
    scen.add_argument("--seed", type=_seed, default=None)
    scen.add_argument("--log", default=None, help="write the event log here")
    scen.add_argument("--summary", default=None, help="write flow/monitor CSV here")
    scen.set_defaults(run=cmd_scenario_run)

    vec = sub.add_parser("vectors", help="print crypto test vectors")
    vec.add_argument("-o", "--output", default="-")
    vec.set_defaults(run=cmd_vectors)

    return p


@contextlib.contextmanager
def _output(path: str, header: str | None = None):
    """The stream for ``path``, stdout for "-". ``header``, the run's
    configuration line, goes to stdout unless the data does, then to stderr;
    a written file is announced on stdout once it is closed."""
    if header is not None:
        print(header, file=sys.stderr if path == "-" else sys.stdout)
    if path == "-":
        yield sys.stdout
        return
    with open(path, "w", newline="") as fh:
        yield fh
    print(f"# wrote {path}")


# -- topo gen ----------------------------------------------------------------


def cmd_topo_gen(args) -> int:
    g = topo.generate_topology(args.n, args.m, args.seed)
    doc = {"n": g.n, "seed": args.seed, "attachment": args.m,
           "links": [{"a": a, "b": b, "capacity": cap}
                     for (a, b), cap in sorted(g.edge_capacity.items())]}
    with _output(args.output, f"# topo gen n={args.n} m={args.m} seed={args.seed}") as out:
        json.dump(doc, out, indent=1)
        out.write("\n")
    return 0


# -- sim ----------------------------------------------------------------------


def _strategies(name: str) -> list[str]:
    return {"max": [topo.MAXIMUM], "concurrent": [topo.CONCURRENT],
            "both": [topo.MAXIMUM, topo.CONCURRENT]}[name]


def _study(args, seed: int) -> topo.ReservationStudy:
    """One seed's study; ``generate_topology`` and ``build_demands`` check
    the graph size and the sampling rate."""
    g = topo.generate_topology(args.n, args.m, seed)
    return topo.ReservationStudy(g, topo.build_matrices(g), topo.build_demands(g, args.r, seed),
                                 args.min_requesters)


def _reservation_rows(args, seed: int) -> list[list]:
    study = _study(args, seed)
    return [[seed, args.n, args.r, strategy, src, dst, f"{size:.6g}"]
            for strategy in _strategies(args.strategy)
            for src, dst, size in study.reservation_rows(strategy)]


def _cover_rows(args, seed: int) -> list[list]:
    covers = _study(args, seed).covers(float(args.gamma))
    return [[seed, args.n, args.r, s, args.gamma, f"{covers[s].median:.6f}"]
            for s in _strategies(args.strategy)]


def cmd_sim_csv(args) -> int:
    """``args.columns`` then ``args.rows`` of each seed, in seed order."""
    gamma = f"gamma={args.gamma} " if "gamma" in args else ""
    header = (f"# sim {args.sub} n={args.n} m={args.m} r={args.r} {gamma}"
              f"strategy={args.strategy} seeds={args.seeds} min_requesters={args.min_requesters}")
    work = [(args, seed) for seed in args.seeds]
    if args.jobs > 1 and len(work) > 1:
        with Pool(min(args.jobs, len(work))) as pool:
            per_seed = pool.starmap(args.rows, work)  # ordered: output stays seed-sorted
    else:
        per_seed = [args.rows(*item) for item in work]
    with _output(args.output, header) as out:
        w = csv.writer(out)
        w.writerow(args.columns)
        for seed_rows in per_seed:
            w.writerows(seed_rows)
    return 0


def _svg_chart(series: dict[str, list[tuple[float, float]]], x_label: str,
               y_label: str) -> str:
    """Minimal deterministic SVG line chart (log-x, covers on y)."""
    width, height, pad = 640, 400, 60
    xs = [x for pts in series.values() for x, _ in pts]
    lo, hi = math.log10(min(xs)), math.log10(max(xs))
    span = hi - lo or 1.0

    def sx(x: float) -> float:
        return pad + (math.log10(x) - lo) / span * (width - 2 * pad)

    def sy(y: float) -> float:
        return height - pad - y * (height - 2 * pad)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" y2="{height-pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" stroke="black"/>',
        f'<text x="{width//2}" y="{height-16}" text-anchor="middle" font-size="13">{x_label}</text>',
        f'<text x="18" y="{height//2}" font-size="13" transform="rotate(-90 18 {height//2})" '
        f'text-anchor="middle">{y_label}</text>',
    ]
    for i, (name, pts) in enumerate(sorted(series.items())):
        color = colors[i % len(colors)]
        coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in sorted(pts))
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{width-pad+4}" y="{pad+16*i+10}" font-size="12" '
                     f'fill="{color}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def cmd_sim_plot(args) -> int:
    study = _study(args, args.seed)
    series: dict[str, list[tuple[float, float]]] = {"maximum": [], "concurrent": []}
    for gamma in args.gammas:
        covers = study.covers(float(gamma))
        for strategy in series:
            series[strategy].append((float(gamma), covers[strategy].median))
    svg = _svg_chart(series, "cover threshold (bps)", "median cover")
    with _output(args.output, f"# sim plot n={args.n} r={args.r} seed={args.seed} "
                              f"gammas={args.gammas}") as out:
        out.write(svg + "\n")
    return 0


# -- scenario -------------------------------------------------------------------


def cmd_scenario_run(args) -> int:
    cfg = simnet.load_scenario(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    net = simnet.Network(cfg)
    print(f"# scenario {args.config} seed={net.seed} duration={net.duration}ns")
    result = net.run()
    failures = 0
    for kind, ok, detail in result.verdicts():
        print(f"{kind}: {'PASS' if ok else 'FAIL'} - {detail}")
        failures += 0 if ok else 1
    if args.log:
        with _output(args.log) as out:
            out.write("\n".join(result.log_lines) + "\n")
    if args.summary:
        with _output(args.summary) as out:
            w = csv.writer(out)
            w.writerow(["flow", "sent", "delivered", "priority", "demoted",
                        "dropped", "max_delay_ns"])
            w.writerows(result.flow_summary_rows())
            w.writerow([])
            w.writerow(["as", "src", "conform_bytes", "overuse_bytes",
                        "expired_pkts", "replay_pkts"])
            w.writerows(result.monitor_rows())
    return 1 if failures else 0


# -- vectors ----------------------------------------------------------------------


def vector_lines() -> list[str]:
    """Crypto test vectors from the production implementation."""
    lines = []
    k0 = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    k1 = bytes.fromhex("ffeeddccbbaa99887766554433221100")
    k2 = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    for k, a in [(k0, 42), (k0, 43), (k1, 7), (k2, 0xFFFFFFFFFFFFFFFF), (k2, 0)]:
        lines.append(f"drkey {k.hex()} {a:016x} {crypto.derive_drkey(k, a).hex()}")
    for k, s, i, e in [(k0, 7, 1, 2), (k0, 7, 2, 1), (k1, 0xABCDEF, 0, 5), (k2, 1, 65535, 1)]:
        lines.append(f"auth {k.hex()} {s:016x} {i:04x} {e:04x} "
                     f"{crypto.compute_authenticator(k, s, i, e).hex()}")
    for k, t, ln in [(k0, 10**18, 1040), (k0, 10**18, 1041), (k1, 0, 0),
                     (k2, 2**64 - 1, 65535)]:
        lines.append(f"vf {k.hex()} {t:016x} {ln:04x} "
                     f"{crypto.compute_validation_field(k, t, ln).hex()}")
    for k, t, r, b in [(k0, 10**18, 1, 0), (k0, 10**18, 1, 1), (k1, 123456789, 0, 1)]:
        tag = crypto.compute_request_auth(k, t, bool(r), bool(b))
        lines.append(f"reqauth {k.hex()} {t:016x} {r:02x} {b:02x} {tag.hex()}")
    for k, t, r, b, bd, bm in [(k0, 10**18, 1, 0, 5 * 10**9, 10**9)]:
        tag = crypto.compute_request_auth(k, t, bool(r), bool(b), bd, bm)
        lines.append(f"reqauth2 {k.hex()} {t:016x} {r:02x} {b:02x} {bd:016x} "
                     f"{bm:016x} {tag.hex()}")
    for k, nonce, bw, exp in [(k0, bytes(range(12)), 10**9, 2 * 10**18),
                              (k1, bytes(12), 0, 0)]:
        alpha = crypto.compute_authenticator(k, 7, 1, 2)
        _, ct, tag = crypto.seal_grant(k, alpha, bw, exp, nonce=nonce)
        lines.append(f"seal {k.hex()} {nonce.hex()} {bw:016x} {exp:016x} "
                     f"{alpha.hex()} {ct.hex()} {tag.hex()}")
    return lines


def cmd_vectors(args) -> int:
    with _output(args.output, "# vectors") as out:
        out.write("\n".join(vector_lines()) + "\n")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except (simnet.ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    # a reader that closes the pipe ends the run silently, as it ends coreutils
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
