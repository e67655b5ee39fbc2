"""Every name a flyover module imports is used in that module, and every
module it imports is the standard library's or a declared dependency."""

import ast
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SRC = os.path.join(ROOT, "src", "flyover")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py") and f != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line for every import in the module, nested ones too."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _referenced(tree: ast.Module) -> set[str]:
    """Names read anywhere, including inside quoted annotations."""
    used = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(SRC, module)) as fh:
        tree = ast.parse(fh.read(), module)
    used = _referenced(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{module}: imported but never used: {unused}"


def _dependencies() -> set[str]:
    """The names in pyproject's ``[project].dependencies``, read by pattern:
    Python 3.10 has no ``tomllib``."""
    with open(os.path.join(ROOT, "pyproject.toml")) as fh:
        project = fh.read().split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    listed = re.search(r"^dependencies = \[(.*?)\]", project, re.M | re.S)[1]
    return {re.match(r"[\w.-]+", spec)[0] for spec in re.findall(r'"([^"]+)"', listed)}


def test_imports_are_the_standard_library_or_declared():
    third_party = {}
    for module in MODULES + ["__init__.py"]:
        with open(os.path.join(SRC, module)) as fh:
            tree = ast.parse(fh.read(), module)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue  # a relative import stays inside flyover
            third_party.update((top, f"{module}:{node.lineno}") for top in tops
                               if top not in sys.stdlib_module_names and top != "flyover")
    assert third_party.keys() <= {"cryptography"}, third_party
    assert third_party.keys() <= _dependencies(), third_party


def _fresh(code: str) -> list[str]:
    """The words ``code`` prints in a fresh interpreter that imports this
    checkout's flyover."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.abspath(os.path.join(ROOT, "src")), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout.split()


def test_the_cli_loads_no_networkx():
    out = _fresh("import sys, flyover.cli; print(flyover.cli.__file__, 'networkx' in sys.modules)")
    assert out == [os.path.join(os.path.abspath(SRC), "cli.py"), "False"]


def test_the_topology_study_loads_no_protocol_module():
    """``topo`` is the study half of the paper: it loads no other flyover
    module and so no crypto backend."""
    out = _fresh("import sys, flyover.topo; print(flyover.topo.__file__, *sorted("
                 "m for m in sys.modules if m.split('.')[0] in ('flyover', 'cryptography')))")
    assert out == [os.path.join(os.path.abspath(SRC), "topo.py"), "flyover", "flyover.topo"]
