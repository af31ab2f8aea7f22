"""The benchmark's independent oracle, run as part of the test suite.

``perfbench/reference.py`` checks outputs against closed forms and against
a Chebyshev propagator that does not import toricsim, so it guards the
block propagation route from outside the package.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from toricsim import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "selftest.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def benchmark_run(monkeypatch):
    """The benchmark's ``run`` module, importable from ``perfbench``."""
    # The benchmark's modules pin the BLAS thread variables on import; the
    # monkeypatch restores them afterwards.
    for var in cli._THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run

    return run


def workload_errors(w, tmp_path):
    """Errors of the reference check on the output of the workload's CLI call."""
    out = tmp_path / f"{w.command}.csv"
    assert cli.main(w.argv(str(out))) == 0
    return w.check(out.read_text(encoding="utf-8"))


def test_krylov_workload_quench_passes_the_reference_check(tmp_path, monkeypatch, capsys):
    run = benchmark_run(monkeypatch)
    w = run.draw("quench-krylov-3x3", 7)
    assert not w.sector and w.field_mode == "split_HV"
    assert workload_errors(w, tmp_path) == []


@pytest.mark.parametrize("name", ["quench-sector-3x3", "sweep-sector-3x3"])
def test_spectral_workload_passes_the_reference_check(name, tmp_path, monkeypatch, capsys):
    # Both run the spectral path, one eigh on the quench state's orbits of
    # its block: the quench through one trajectory, the sweep through one
    # trajectory per beta over window and long horizon.
    run = benchmark_run(monkeypatch)
    w = run.draw(name, 7)
    assert w.sector and w.command == name.split("-")[0]
    assert workload_errors(w, tmp_path) == []


def test_verify_workload_passes_the_reference_check(monkeypatch, capsys):
    # The benchmark counts verify's PASS lines; a change to that count
    # shows here first.
    run = benchmark_run(monkeypatch)
    w = run.draw("verify-sector-3x3", 7)
    assert w.command == "verify" and w.sector
    assert cli.main(w.argv("")) == 0
    assert run.reference.check_verify(w, capsys.readouterr().out) == []
