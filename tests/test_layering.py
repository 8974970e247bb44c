"""Static layering rules of the package, read from the source with ast:
no module imports another module's private names, the intra-package
import graph has no cycle, and the sampling layers sit on core and util."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pottsglass"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


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
