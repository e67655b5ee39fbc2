"""Every function, class and method defined in flyover, and every name a
module assigns at its top level, has a caller: its name is referenced
somewhere outside its own definition, a method's as an attribute or in a
dotted string. Every key of the scenario schema has a setter: a committed
run sets it. So has every field of the router's and estimator's configs."""

import ast
import dataclasses
import glob
import json
import os
from collections import Counter

from flyover import simnet
from flyover.admission import EstimatorConfig
from flyover.router import RouterConfig

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


def _references(node: ast.AST) -> tuple[Counter, Counter]:
    """(bare, dotted) under ``node``: each name, and each attribute and each
    part of a string that is a dotted name (a quoted annotation, a patch
    point), counted. Prose in docstrings is no reference."""
    bare, dotted = Counter(), Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            bare[n.id] += 1
        elif isinstance(n, ast.Attribute):
            dotted[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            parts = n.value.split(".")
            if all(part.isidentifier() for part in parts):
                dotted.update(parts)
    return bare, dotted


def _definitions(tree: ast.Module):
    """(name, defining node, whether it is a class member) for every def
    and class, and for every name assigned by a top-level statement of the
    module."""
    members = {id(d) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for d in c.body if isinstance(d, _DEFS)}
    for node in ast.walk(tree):
        if isinstance(node, _DEFS):
            yield node.name, node, id(node) in members
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield n.id, node, False


def _uncalled(searched=SEARCHED) -> list[tuple[str, int, str]]:
    """(file, line, name) of every definition that nothing under
    ``searched`` refers to. A class member is referred to only as an
    attribute (``x.name``) or in a dotted string, never by a bare name,
    which is some other function's or a local variable's."""
    bare, dotted = Counter(), Counter()
    for top in searched:
        for _, tree in _trees(os.path.join(ROOT, top)):
            tree_bare, tree_dotted = _references(tree)
            bare.update(tree_bare)
            dotted.update(tree_dotted)
    uncalled = []
    for path, tree in _trees(SRC):
        for name, node, member in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            # a recursive call, a class naming itself inside or the
            # assignment's own target is no caller
            own_bare, own_dotted = _references(node)
            calls = dotted[name] - own_dotted[name]
            if not member:
                calls += bare[name] - own_bare[name]
            if calls <= 0:
                uncalled.append((os.path.basename(path), node.lineno, name))
    return uncalled


def test_a_bare_name_calls_no_class_member():
    bare, dotted = _references(ast.parse("entry = mon.police(x)\npatch('a.sweep')"))
    assert bare == Counter(entry=1, mon=1, x=1, patch=1)
    assert dotted == Counter(police=1, a=1, sweep=1)


def test_every_definition_has_a_caller():
    assert _uncalled() == []


def test_only_sweep_waits_for_a_program_caller():
    """With tests not counted as callers, the one definition left is
    ``TrafficMonitor.sweep``, which the router is to run on estimator
    rotation (ROADMAP item 3); move this pin when it does. Test oracles
    live in ``tests/oracles.py``, not in ``src``."""
    assert [(path, name) for path, _, name in _uncalled(PROGRAM)] == [("policing.py", "sweep")]


# the scenario keys that no scenario, demo, benchmark or `topo gen` file sets
# yet; move a key out of this pin when a committed run sets it
KEYS_WAITING_FOR_A_SETTER = {"start"}


def _set_keys(node: ast.AST) -> set[str]:
    """Each quoted key under ``node`` that a dict literal or an assignment
    to a subscript sets."""
    keys = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Dict):
            keys.update(k.value for k in n.keys
                        if isinstance(k, ast.Constant) and isinstance(k.value, str))
        elif (isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Store)
              and isinstance(n.slice, ast.Constant) and isinstance(n.slice.value, str)):
            keys.add(n.slice.value)
    return keys


def _json_keys(doc) -> set[str]:
    if isinstance(doc, dict):
        return set(doc).union(*map(_json_keys, doc.values()))
    if isinstance(doc, list):
        return set().union(*map(_json_keys, doc))
    return set()


def test_only_these_scenario_keys_wait_for_a_setter():
    """Every key of the scenario schema is set by a committed scenario, a
    demo, the benchmark or the `topo gen` writer, but the pinned ones: a key
    that no run sets is a setting no run has tried."""
    tables = [simnet._SCENARIO_KEYS, simnet._ESTIMATOR_KEYS, simnet._TOPOLOGY_KEYS,
              simnet._TOPO_GEN_KEYS, simnet._AS_KEYS, simnet._LINK_KEYS]
    tables += [keys for tagged in (simnet._FLOW_TYPES, simnet._ADVERSARY_KINDS,
                                   simnet._REQUIREMENTS) for _, keys in tagged.values()]
    schema = set().union(*tables)
    set_keys = set()
    for path in glob.glob(os.path.join(ROOT, "scenarios", "*.json")):
        with open(path) as fh:
            set_keys |= _json_keys(json.load(fh))
    for path in glob.glob(os.path.join(ROOT, "demos", "*.py")) + \
            glob.glob(os.path.join(ROOT, "perfbench", "*.py")):
        with open(path) as fh:
            set_keys |= _set_keys(ast.parse(fh.read(), path))
    with open(os.path.join(SRC, "cli.py")) as fh:
        cli = ast.parse(fh.read())
    set_keys |= _set_keys(next(n for n in ast.walk(cli)
                               if isinstance(n, ast.FunctionDef) and n.name == "cmd_topo_gen"))
    assert schema - set_keys == KEYS_WAITING_FOR_A_SETTER


def test_every_config_field_has_a_program_setter():
    """Every field of ``RouterConfig`` and ``EstimatorConfig`` is passed by
    keyword somewhere in the simulator, the benchmark or a demo: a parameter
    that no run sets is a protocol constant, which lives in its module."""
    configs = {cls.__name__: {f.name for f in dataclasses.fields(cls)}
               for cls in (RouterConfig, EstimatorConfig)}
    set_fields = {name: set() for name in configs}
    for top in PROGRAM:
        for _, tree in _trees(os.path.join(ROOT, top)):
            for n in ast.walk(tree):
                if (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                        and n.func.id in set_fields):
                    set_fields[n.func.id].update(k.arg for k in n.keywords)
    assert set_fields == configs
