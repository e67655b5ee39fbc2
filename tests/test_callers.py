"""Every function, class and method defined in flyover, and every name a
module assigns at its top level, has a caller: its name is referenced
somewhere outside its own definition."""

import ast
import os
from collections import Counter

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SRC = os.path.join(ROOT, "src", "flyover")
# where a caller may live; perfbench patches some names given as dotted strings
SEARCHED = ("src", "tests", "perfbench", "demos")
PROGRAM = ("src", "perfbench", "demos")  # the callers that are not tests
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _trees(top: str):
    for dirpath, _, files in os.walk(top):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path) as fh:
                    yield path, ast.parse(fh.read(), path)


def _references(node: ast.AST) -> Counter:
    """Each name, each attribute and each part of a string that is a dotted
    name (a quoted annotation, a patch point) under ``node``, counted. Prose
    in docstrings is no reference."""
    refs = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            refs[n.id] += 1
        elif isinstance(n, ast.Attribute):
            refs[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            parts = n.value.split(".")
            if all(part.isidentifier() for part in parts):
                refs.update(parts)
    return refs


def _definitions(tree: ast.Module):
    """(name, defining node) for every def and class, and for every name
    assigned by a top-level statement of the module."""
    for node in ast.walk(tree):
        if isinstance(node, _DEFS):
            yield node.name, node
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield n.id, node


def _uncalled(searched=SEARCHED) -> list[tuple[str, int, str]]:
    """(file, line, name) of every definition that nothing under
    ``searched`` refers to."""
    refs = Counter()
    for top in searched:
        for _, tree in _trees(os.path.join(ROOT, top)):
            refs.update(_references(tree))
    uncalled = []
    for path, tree in _trees(SRC):
        for name, node in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            # a recursive call, a class naming itself inside or the
            # assignment's own target is no caller
            if refs[name] - _references(node)[name] <= 0:
                uncalled.append((os.path.basename(path), node.lineno, name))
    return uncalled


def test_every_definition_has_a_caller():
    assert _uncalled() == []


def test_only_sweep_waits_for_a_program_caller():
    """With tests not counted as callers, the one definition left is
    ``TrafficMonitor.sweep``, which the router is to run on estimator
    rotation (ROADMAP item 3); move this pin when it does. Test oracles
    live in ``tests/oracles.py``, not in ``src``."""
    assert [(path, name) for path, _, name in _uncalled(PROGRAM)] == [("policing.py", "sweep")]
