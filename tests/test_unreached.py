"""The lines of ``src/flyover`` that no program reaches, as
``tests/trace_unreached.py`` lists them in ``tests/unreached_lines.txt``.
Each listed line still exists in its function, and is either a refusal or
carries the number of the ROADMAP.md open item that will give it a run or
delete it. The list is checked statically; rerun the script to refresh it."""

import ast
import importlib
import os
import re

from trace_unreached import DEFAULT_OUT, ROOT, SRC, code_objects

from flyover.router import Decision


def _global(expr: ast.expr | None, module):
    """What ``expr`` names among the module's globals, by a name or a dotted
    one; None for anything else."""
    if isinstance(expr, ast.Name):
        return vars(module).get(expr.id)
    if isinstance(expr, ast.Attribute):
        return getattr(_global(expr.value, module), expr.attr, None)
    return None


def _refuses(stmt: ast.stmt, module) -> bool:
    """A ``raise``, or a ``return`` of a ``Decision`` other than OK."""
    if isinstance(stmt, ast.Return):
        value = _global(stmt.value, module)
        return isinstance(value, Decision) and value is not Decision.OK
    return isinstance(stmt, ast.Raise)


def _refusing(block: list[ast.stmt], module) -> bool:
    """A block that ends by refusing: its last statement refuses, or is an
    ``if`` or a loop whose body ends by refusing."""
    last = block[-1]
    if isinstance(last, (ast.If, ast.For, ast.While)):
        return _refusing(last.body, module)
    return _refuses(last, module)


def _refusal_lines(tree: ast.Module, module) -> set[int]:
    """The lines of every refusing statement, and of every branch, loop or
    ``except`` clause, header included, whose body ends by refusing."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and _refuses(node, module):
            lines.update(range(node.lineno, node.end_lineno + 1))
        if isinstance(node, (ast.If, ast.For, ast.While, ast.ExceptHandler)) \
                and _refusing(node.body, module):
            lines.update(range(node.lineno, node.body[-1].end_lineno + 1))
        if isinstance(node, ast.If) and node.orelse and _refusing(node.orelse, module):
            lines.update(range(node.orelse[0].lineno, node.orelse[-1].end_lineno + 1))
    return lines


def _read(name: str) -> tuple[list[str], dict[str, set[int]], set[int]]:
    """A module of ``src/flyover``: its lines, the executable lines of each
    function by qualified name, and its refusal lines."""
    path = os.path.join(SRC, name)
    with open(path) as fh:
        source = fh.read()
    module = importlib.import_module(f"flyover.{name[:-3]}")
    funcs = {}
    for code in code_objects(compile(source, path, "exec")):
        funcs.setdefault(code.co_qualname, set()).update(
            line for _, _, line in code.co_lines() if line is not None)
    return source.splitlines(), funcs, _refusal_lines(ast.parse(source, path), module)


def _open_items() -> set[int]:
    with open(os.path.join(ROOT, "ROADMAP.md")) as fh:
        text = fh.read()
    section = text[text.index("## Open items"):text.index("## Recent")]
    return {int(n) for n in re.findall(r"^(\d+)\. \*\*", section, re.M)}


def test_every_unreached_line_exists_and_refuses_or_names_an_item():
    with open(DEFAULT_OUT) as fh:
        rows = [row.split("\t") for row in fh.read().splitlines()]
    keys = [tuple(row[:3]) for row in rows]
    assert keys == sorted(set(keys)), "the list is sorted, one row per line"
    items = _open_items()
    files = {}
    for row in rows:
        name, func, text = row[:3]
        if name not in files:
            files[name] = _read(name)
        lines, funcs, refusals = files[name]
        found = [n for n in funcs.get(func, ()) if lines[n - 1].strip() == text]
        assert found, f"{name} {func}: no line {text!r}"
        if any(n in refusals for n in found):  # a text may stand on several lines
            continue
        note = row[3] if len(row) > 3 else ""
        item = re.match(r"item (\d+)\b", note)
        assert item and int(item.group(1)) in items, \
            f"{name} {func}: {text!r} is no refusal and names no open ROADMAP item"
