"""The benchmark's independent oracle, run as part of the test suite.

``perfbench/reference.py`` checks outputs against closed forms and against
a Chebyshev propagator that does not import toricsim, so it guards the
block propagation route from outside the package.
"""

import subprocess
import sys
from pathlib import Path

from toricsim import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "selftest.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_krylov_workload_quench_passes_the_reference_check(tmp_path, monkeypatch, capsys):
    # The benchmark's modules pin the BLAS thread variables on import; the
    # monkeypatch restores them afterwards.
    for var in cli._THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run

    w = run.draw("quench-krylov-3x3", 7)
    assert not w.sector and w.field_mode == "split_HV"
    out = tmp_path / "quench.csv"
    assert cli.main(w.argv(str(out))) == 0
    assert run.reference.check_quench(w, out.read_text(encoding="utf-8")) == []


def test_verify_workload_passes_the_reference_check(monkeypatch, capsys):
    # The benchmark counts verify's PASS lines; a change to that count
    # shows here first.
    for var in cli._THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run

    w = run.draw("verify-sector-3x3", 7)
    assert w.command == "verify" and w.sector
    assert cli.main(w.argv("")) == 0
    assert run.reference.check_verify(w, capsys.readouterr().out) == []
