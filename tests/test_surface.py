"""Public surface: exported names exist, have callers, and the benchmark's wrap targets resolve."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toricsim

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "perfbench" / "worker.py"
# The code that the exports serve: the package itself (the CLI included),
# the benchmark and the acceptance gate. Other tests do not count.
CALLERS = (
    sorted((ROOT / "src" / "toricsim").glob("*.py"))
    + sorted((ROOT / "perfbench").glob("*.py"))
    + [ROOT / "tests" / "test_acceptance.py"]
)


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


def _referenced(module, name, trees, targets):
    """Whether ``module.name`` is used anywhere but in its own definition.

    A use is ``module.name`` (also as ``pkg.module.name``), an import of
    ``name`` from ``module``, a bare ``name`` in the module's own file
    outside the statement that defines it, or a benchmark wrap target.
    """
    if any(m == module and path.split(".")[0] == name for m, path in targets.values()):
        return True
    for key, tree in trees.items():
        own = key == module
        skip = set()
        if own:
            for node in tree.body:
                if getattr(node, "name", None) == name:
                    skip = set(range(node.lineno, node.end_lineno + 1))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == name:
                value = node.value
                owner = value.id if isinstance(value, ast.Name) else getattr(value, "attr", None)
                if owner == module:
                    return True
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.module.split(".")[-1] == module and any(
                    alias.name == name for alias in node.names
                ):
                    return True
            elif own and isinstance(node, ast.Name) and node.id == name:
                if node.lineno not in skip:
                    return True
    return False


def test_every_export_has_a_caller_outside_the_tests():
    # Package files are keyed by module name, the rest by path.
    trees = {
        p.stem if p.parent.name == "toricsim" else str(p): ast.parse(p.read_text(encoding="utf-8"))
        for p in CALLERS
    }
    targets = benchmark_targets()
    unused = [
        f"{module}.{name}"
        for module in toricsim.__all__
        for name in getattr(getattr(toricsim, module), "__all__", ())
        if not _referenced(module, name, trees, targets)
    ]
    assert not unused, f"exported but only the tests use them: {unused}"


def test_surface_guard_flags_a_name_only_tests_use():
    src = """
__all__ = ["used", "lonely", "recursive"]
def used(): return 1
def lonely(): return used()
def recursive(n): return recursive(n - 1) if n else 0
"""
    trees = {"mod": ast.parse(src), "caller": ast.parse("from .mod import lonely\n")}
    assert _referenced("mod", "used", trees, {})
    assert _referenced("mod", "lonely", trees, {})
    del trees["caller"]
    assert not _referenced("mod", "lonely", trees, {})
    assert not _referenced("mod", "recursive", trees, {})
    assert _referenced("mod", "lonely", trees, {"span": ("mod", "lonely")})
    trees["other"] = ast.parse("import mod\nmod.lonely()\n")
    assert _referenced("mod", "lonely", trees, {})


def foreign_private_reads(tree) -> list[str]:
    """Underscore attributes a module reads without defining them itself.

    A module defines a name by a ``def`` or ``class`` of it, or by assigning
    it, as a plain name or as an attribute. Dunders are not private.
    """
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
    return [
        f"line {node.lineno}: .{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and node.attr.startswith("_") and not node.attr.endswith("__")
        and node.attr not in defined
    ]


def test_no_module_reads_another_modules_private_attributes():
    # Each module reaches the others through their public names only, so a
    # basis's internals, such as how it places states, stay in stabilizer.
    found = {
        p.stem: reads
        for p in sorted((ROOT / "src" / "toricsim").glob("*.py"))
        if (reads := foreign_private_reads(ast.parse(p.read_text(encoding="utf-8"))))
    }
    assert not found, f"private attributes read across modules: {found}"


def test_private_read_guard_flags_a_foreign_underscore_attribute():
    src = """
class Box:
    _size = 1
    def grow(self):
        self._extra = other._hidden + self._size + self.__dict__["x"]
        return self._extra
"""
    assert foreign_private_reads(ast.parse(src)) == ["line 5: ._hidden"]


def test_cli_and_quench_imports_skip_package_metadata():
    # The version is a literal: reading it through importlib.metadata cost
    # 17-20 ms of every command-line start, and gave "unknown" in a checkout.
    code = (
        "import sys, toricsim.cli, toricsim.quench\n"
        "print(sorted(m for m in ('importlib.metadata', 'email') if m in sys.modules))\n"
        "print(toricsim.__version__)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (
        str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n0.1.0\n"
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert 'dynamic = ["version"]' in pyproject
    assert 'version = { attr = "toricsim.__version__" }' in pyproject
