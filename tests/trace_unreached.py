"""List the lines of ``src/flyover`` that no program reaches.

    PYTHONPATH=src python tests/trace_unreached.py [-o tests/unreached_lines.txt]

Runs, in one process under ``sys.settrace`` started before ``flyover`` is
imported: every committed scenario through ``cli.main`` (with ``--log`` and
``--summary``, and the baseline once more at ``--seed 7``), the demos,
``vectors`` through the ``flyover`` entry point, ``topo gen``, ``sim
reservations``, ``sim cover`` (once more with two worker processes, whose
own lines are not traced) and ``sim plot`` at n=40, one usage error and one
configuration error (the CLI's exit code 2), and the four perfbench
workloads at ``--size tiny --trace 0``. Nothing under ``perfbench/`` is
changed; its outputs go to a temporary directory or are discarded. It takes
about 70 s on a 2-core x86-64 machine.

A line is executable if some code object of its module lists it in
``co_lines()``. Each executable line that no event reached is written as
``file<TAB>function<TAB>stripped text``, keyed by text rather than by
number so that the list survives edits elsewhere, and sorted. A note after
a fourth tab, a ROADMAP.md item number for a line that is no refusal, is
kept from the file being rewritten. ``tests/test_unreached.py`` checks the
list; rerun this script and diff the list when programs change.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import io
import os
import runpy
import sys
import tempfile

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
SRC = os.path.join(ROOT, "src", "flyover")
DEFAULT_OUT = os.path.join(ROOT, "tests", "unreached_lines.txt")
WORKLOADS = ("datapath", "control", "scenario", "topo_cover")


def code_objects(code):
    """``code`` and every code object nested in its constants."""
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from code_objects(const)


def executable_lines(path: str) -> set[tuple[str, int]]:
    """(function, line number) of every line a code object of ``path`` lists."""
    with open(path) as fh:
        module = compile(fh.read(), path, "exec")
    return {(code.co_qualname, line) for code in code_objects(module)
            for _, _, line in code.co_lines() if line is not None}


def run_programs(workdir: str) -> None:
    """Every program the list speaks for, in one process."""
    from flyover import cli

    for path in sorted(glob.glob(os.path.join(ROOT, "scenarios", "*.json"))):
        name = os.path.splitext(os.path.basename(path))[0]
        cli.main(["scenario", "run", path, "--log", os.path.join(workdir, name + ".log"),
                  "--summary", os.path.join(workdir, name + ".csv")])
    cli.main(["scenario", "run", os.path.join(ROOT, "scenarios", "baseline.json"), "--seed", "7"])
    for path in sorted(glob.glob(os.path.join(ROOT, "demos", "*.py"))):
        runpy.run_path(path, run_name="__main__")
    argv, sys.argv = sys.argv, ["flyover", "vectors"]
    try:
        runpy.run_module("flyover.cli", run_name="__main__")
    except SystemExit:
        pass
    finally:
        sys.argv = argv
    cli.main(["topo", "gen", "--n", "40", "--seed", "1", "-o", os.path.join(workdir, "topo.json")])
    cli.main(["sim", "reservations", "--n", "40", "--r", "0.1", "--seeds", "1,2"])
    cli.main(["sim", "cover", "--n", "40", "--r", "0.1"])
    cli.main(["sim", "cover", "--n", "40", "--r", "0.1", "--seeds", "1,2", "--jobs", "2"])
    cli.main(["sim", "plot", "--n", "40", "--seed", "1", "-o", os.path.join(workdir, "plot.svg")])
    cli.main(["topo", "gen", "--n", "40", "--seed", "-1"])
    cli.main(["scenario", "run", os.path.join(workdir, "missing.json")])
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import run as perfbench

    for name in WORKLOADS:
        perfbench.main(["--workload", name, "--size", "tiny", "--trace", "0",
                        "--seconds", "1"])


def trace(workdir: str) -> set[tuple[str, str, int]]:
    """(file, function, line number) of every ``src/flyover`` line an event reached."""
    reached = set()
    prefix = SRC + os.sep

    def local(frame, event, arg):
        if event == "line":
            code = frame.f_code
            reached.add((code.co_filename, code.co_qualname, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            # a function's first line (its ``def``) is in its co_lines but
            # gets no line event, only this call event
            return local(frame, "line", arg)
        return None

    sys.settrace(calls)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            run_programs(workdir)
    finally:
        sys.settrace(None)
    return {(os.path.basename(path), func, line) for path, func, line in reached}


def read_notes(path: str) -> dict[tuple[str, str, str], str]:
    """The note of each listed line of the list at ``path``, if it has one."""
    notes = {}
    if os.path.exists(path):
        with open(path) as fh:
            for row in fh.read().splitlines():
                fields = row.split("\t")
                if len(fields) == 4:
                    notes[tuple(fields[:3])] = fields[3]
    return notes


def unreached(reached: set[tuple[str, str, int]]) -> list[tuple[str, str, str]]:
    rows = set()
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        name = os.path.basename(path)
        with open(path) as fh:
            text = fh.read().splitlines()
        for func, line in executable_lines(path):
            if (name, func, line) not in reached:
                rows.add((name, func, text[line - 1].strip()))
    return sorted(rows)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("-o", "--output", default=DEFAULT_OUT)
    args = p.parse_args(argv)
    if "flyover" in sys.modules:
        raise SystemExit("flyover is imported already: its module lines would not be traced")
    with tempfile.TemporaryDirectory() as workdir:
        reached = trace(workdir)
    notes = read_notes(args.output)
    with open(args.output, "w") as fh:
        for key in unreached(reached):
            fh.write("\t".join(key + ((notes[key],) if key in notes else ())) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
