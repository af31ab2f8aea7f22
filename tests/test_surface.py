"""Public surface: exported names exist and the benchmark's wrap targets resolve."""

import ast
import importlib
from pathlib import Path

import pytest

import toricsim

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def benchmark_targets():
    """The ``TARGETS`` table of the benchmark worker, read without importing it."""
    tree = ast.parse(WORKER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS table in {WORKER}")


@pytest.mark.parametrize("name", toricsim.__all__)
def test_all_names_exist(name):
    module = getattr(toricsim, name)
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"{name}.__all__ lists missing {attr!r}"


def test_benchmark_targets_resolve():
    targets = benchmark_targets()
    assert targets
    for span, (module, path) in targets.items():
        owner = importlib.import_module(f"toricsim.{module}")
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), span
