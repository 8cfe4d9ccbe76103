"""Every name the benchmark tracer wraps must exist in the program.

The tracer (benchmarks/tracing.py) wraps each (module, attribute path) in
its TARGETS at run time; a refactor that drops or moves one of these names
would silently lose that span.  This test reads TARGETS without running the
tracer and resolves each name on the imported package.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TARGETS


@pytest.mark.parametrize("module,path,span", _targets(), ids=lambda v: str(v))
def test_target_resolves(module, path, span):
    obj = importlib.import_module(f"cperturb.{module}")
    for part in path.split("."):
        assert hasattr(obj, part), f"cperturb.{module}.{path} is missing (span {span})"
        obj = getattr(obj, part)
    assert callable(obj)
