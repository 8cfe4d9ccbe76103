"""Every module-level import in the package is used where it is imported.

A name counts as used when the module reads it anywhere outside its import
statements, annotations included.  The one exception is a name the
benchmark tracer wraps under this module (a TARGETS entry in
benchmarks/tracing.py): the module imports it so that the tracer can find
it there.  The package's __init__ re-exports its imports, so it is skipped.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from test_tracer_targets import _targets

SRC = Path(__file__).resolve().parent.parent / "src" / "cperturb"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each module-level import, with its line number."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out[name] = node.lineno
    return out


def _read_names(tree: ast.Module) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("module", MODULES)
def test_imports_are_used(module):
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    traced = {path.split(".")[0] for mod, path, _ in _targets() if mod == module}
    unused = {
        name: line
        for name, line in _imported_names(tree).items()
        if name not in _read_names(tree) and name not in traced
    }
    assert not unused, f"unused imports in cperturb/{module}.py (name: line): {unused}"
