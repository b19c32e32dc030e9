"""The benchmark tracer's wrap targets exist in the package.

``bench/trace_runner.py`` wraps functions by module and attribute name; a
target that disappears silently drops its per-layer metrics (and the
layer's self time) from traced benchmark runs.  This reads the target list
from the file without importing the benchmark.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACE_RUNNER = ROOT / "bench" / "trace_runner.py"


def _targets():
    tree = ast.parse(TRACE_RUNNER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS list in {TRACE_RUNNER}")


@pytest.mark.parametrize(
    "module,attr", [(module, attr) for module, attr, _ in _targets()]
)
def test_trace_target_is_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_contribution_cache_statistics_exist():
    from swdesign import model

    assert callable(model._cached_contributions.cache_info)
