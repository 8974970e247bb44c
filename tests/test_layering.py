"""Static layering rules of the package, read from the source with ast:
no module imports another module's private names, the intra-package
import graph has no cycle, the sampling layers sit on core and util, the
one log-sum-exp is util's, no module imports scipy, every public
function and class has a caller that is not a unit test, and frozen types
are written only while they are validated."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pottsglass"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
# where a public name may be called from: the package itself (its
# re-exports in __init__ do not count), the benchmark and the acceptance battery
CALLERS = [PACKAGE / f"{m}.py" for m in MODULES] + sorted((ROOT / "bench").glob("*.py")) + [
    ROOT / "tests" / "test_acceptance.py"
]


def relative_imports(module):
    """(imported module, names) for each `from .x import ...` in a module."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return [
        (node.module, [alias.name for alias in node.names])
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
    ]


def graph():
    return {m: {target for target, _ in relative_imports(m)} for m in MODULES}


@pytest.mark.parametrize("module", MODULES)
def test_no_private_imports(module):
    private = [
        f"{target}.{name}"
        for target, names in relative_imports(module)
        for name in names
        if name.startswith("_")
    ]
    assert private == []


def test_import_graph_is_acyclic():
    edges = graph()
    done, active = set(), []

    def visit(m):
        assert m not in active, "import cycle: " + " -> ".join(active + [m])
        if m in done:
            return
        active.append(m)
        for target in sorted(edges[m]):
            visit(target)
        active.pop()
        done.add(m)

    for m in MODULES:
        visit(m)


def test_model_does_not_import_functional():
    assert "functional" not in graph()["model"]


@pytest.mark.parametrize("module", ["model", "cascade"])
def test_sampling_layers_import_only_core_and_util(module):
    assert graph()[module] <= {"core", "util"}


@pytest.mark.parametrize("module", MODULES + ["__init__"])
def test_logsumexp_is_util_only(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    from_scipy = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy")
        for alias in node.names
        if alias.name in ("logsumexp", "*")
    ]
    attributes = [  # such as scipy.special.logsumexp or special.logsumexp
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "logsumexp"
        and ast.unparse(node.value) != "util"
    ]
    assert from_scipy == [] and attributes == []


@pytest.mark.parametrize("module", MODULES + ["__init__"])
def test_no_scipy_import(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    imported = [
        alias.name if isinstance(node, ast.Import) else node.module
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "level", 0) == 0
        for alias in node.names
    ]
    assert [name for name in imported if name.split(".")[0] == "scipy"] == []


def test_import_loads_no_scipy():
    code = "import sys, pottsglass; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def references(path):
    """(name, enclosing top-level definition or None) for each name or
    attribute a file reads; imports are not references."""
    out = []
    for top in ast.parse(path.read_text()).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.append((node.id, owner))
            elif isinstance(node, ast.Attribute):
                out.append((node.attr, owner))
    return out


def test_every_public_name_has_a_caller():
    reads = [(name, path, owner) for path in CALLERS for name, owner in references(path)]
    unused = [
        f"{module}.{node.name}"
        for module in MODULES
        for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not any(
            name == node.name and (path, owner) != (PACKAGE / f"{module}.py", node.name)
            for name, path, owner in reads
        )
    ]
    assert unused == []


def setattr_owners(tree):
    """The innermost function (None at module level) around each
    object.__setattr__ call in a module's syntax tree."""
    owners = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and ast.unparse(child.func) == "object.__setattr__":
                owners.append(owner)
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)

    visit(tree, None)
    return owners


@pytest.mark.parametrize("module", MODULES + ["__init__"])
def test_frozen_types_are_set_only_in_post_init(module):
    # core promises that its frozen types are immutable after validation and
    # safe to share across threads
    owners = setattr_owners(ast.parse((PACKAGE / f"{module}.py").read_text()))
    assert [owner for owner in owners if owner != "__post_init__"] == []
