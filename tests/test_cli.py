"""Command-line behavior: exit codes, outputs, and config merging."""

import json
import shlex
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from toricsim import cli, quench, stabilizer

README = Path(__file__).resolve().parents[1] / "README.md"


def test_ground_reports_energy(capsys):
    assert cli.main(["ground", "--l1", "2", "--l2", "2"]) == 0
    out = capsys.readouterr().out
    energy_line = next(l for l in out.splitlines() if l.startswith("energy"))
    assert abs(float(energy_line.split()[1]) - (-8.0)) < 1e-10
    assert "(expected -8)" in energy_line
    assert "worst stabilizer residual" in out


def test_ground_writes_state(tmp_path, capsys):
    path = tmp_path / "psi.npz"
    code = cli.main(
        ["ground", "--l1", "2", "--l2", "2", "--sector", "1,0", "--out", str(path)]
    )
    assert code == 0
    from toricsim import lattice

    want = stabilizer.ground_state(lattice.build_lattice(2, 2), (1, 0))
    with np.load(path) as data:
        assert np.array_equal(data["amplitudes"], want.amplitudes)


def test_ground_bad_sector_is_config_error(capsys):
    assert cli.main(["ground", "--l1", "2", "--l2", "2", "--sector", "5,0"]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("size", ["4", "20"])
def test_ground_refuses_oversized_lattice_before_allocating(size, capsys):
    tracemalloc.start()
    start = time.monotonic()
    try:
        code = cli.main(["ground", "--l1", size, "--l2", size])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert time.monotonic() - start < 5.0
    assert peak < 16 << 20  # the 4x4 state alone would be 64 GiB
    err = capsys.readouterr().err
    assert "configuration error" in err and "cap" in err


@pytest.mark.parametrize("argv", [
    ["ground"],
    ["entropy"],
    ["verify"],
    ["verify", "--sector-restrict"],
    ["quench", "--t-max", "0"],
    ["sweep", "--beta-grid", "0.5"],
])
def test_oversize_lattice_is_refused_before_it_is_built(argv, monkeypatch, capsys):
    # The lattice build is linear in sites: 10^10 sites would never finish.
    from toricsim import lattice

    def unreachable(L1, L2):
        raise AssertionError("lattice built before the cap check")

    monkeypatch.setattr(lattice, "build_lattice", unreachable)
    start = time.monotonic()
    code = cli.main([*argv, "--l1", "100000", "--l2", "100000"])
    assert code == 2
    assert time.monotonic() - start < 1.0
    err = capsys.readouterr().err
    assert "configuration error" in err and "cap" in err


def test_repeated_renyi_index_is_config_error(tmp_path, capsys):
    # Reports are keyed by index, so a repeat would fill one key twice.
    with pytest.raises(ValueError, match="repeat"):
        quench.QuenchConfig(L1=2, L2=2, alpha_list=(1, 1.0))
    out = tmp_path / "q.csv"
    argv = ["quench", "--l1", "2", "--l2", "2", "--h", "0.5", "--t-max", "1", "--dt", "0.5",
            "--out", str(out)]
    assert cli.main([*argv, "--alpha", "1,1"]) == 2
    assert "Renyi indices must not repeat" in capsys.readouterr().err
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"alpha_list": [2, 1, 2.0]}))
    assert cli.main([*argv, "--config", str(cfg)]) == 2
    assert "Renyi indices must not repeat" in capsys.readouterr().err
    # CSV columns are tagged by the index's {:g} form, so 2 and 2.0000001
    # would write every s*[alpha=2] column twice.
    assert cli.main([*argv, "--alpha", "2,2.0000001"]) == 2
    assert "tags ['2', '2']" in capsys.readouterr().err
    assert not out.exists()


def test_missing_required_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["ground", "--l1", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_verify_passes(capsys):
    assert cli.main(["verify", "--l1", "2", "--l2", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 8
    assert "all checks passed" in out


def test_quench_csv_rerun_is_byte_identical(tmp_path, capsys):
    args = [
        "quench",
        "--l1", "2", "--l2", "2",
        "--h", "0.3",
        "--t-max", "1.0",
        "--dt", "0.5",
        "--alpha", "1,2",
    ]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(p1)]) == 0
    assert cli.main(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    assert "samples written" in capsys.readouterr().out
    header = p1.read_text().splitlines()[0]
    assert header.startswith("t,fidelity,energy,s1[alpha=1]")


def test_quench_json_output(tmp_path):
    path = tmp_path / "run.json"
    code = cli.main(
        [
            "quench",
            "--l1", "2", "--l2", "2",
            "--t-max", "1.0",
            "--dt", "0.5",
            "--format", "json",
            "--out", str(path),
        ]
    )
    assert code == 0
    payload = json.loads(path.read_text())
    assert len(payload["times"]) == 3
    assert payload["metadata"]["config"]["h"] == 0.1


def test_quench_without_out_prints_summary(capsys):
    code = cli.main(["quench", "--l1", "2", "--l2", "2", "--t-max", "0.5", "--dt", "0.5"])
    assert code == 0
    assert "pass --out" in capsys.readouterr().out


def test_quench_rejects_bad_dt(capsys):
    code = cli.main(["quench", "--l1", "2", "--l2", "2", "--dt", "0"])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_quench_rejects_unknown_preset(capsys):
    code = cli.main(["quench", "--l1", "2", "--l2", "2", "--preset", "nope"])
    assert code == 2
    assert "nope" in capsys.readouterr().err


def test_physics_failure_exits_one(monkeypatch, tmp_path, capsys):
    # No config can loosen or tighten a run's tolerances; a check that
    # fails in the library still ends the CLI with exit 1.
    monkeypatch.setattr(quench, "NORM_DRIFT_TOL", -1.0)
    out = tmp_path / "run.csv"
    code = cli.main(
        ["quench", "--l1", "2", "--l2", "2", "--t-max", "1.0", "--dt", "0.5", "--out", str(out)]
    )
    assert code == 1
    assert "check failed: norm drifted" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--l1", "3", "--l2", "3", "--full-space", "--field-mode", "split_HV",
     "--h", "1e200", "--kappa", "1e200"],
    ["--l1", "2", "--l2", "2", "--h", "1e308"],
], ids=["field-weight", "diagonal"])
def test_non_finite_hamiltonian_is_config_error(argv, tmp_path, capsys):
    # kappa*h overflows to inf; eight -h sigma^z terms sum to -inf on all-up
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy may print no overflow warning
        assert cli.main(["quench", *argv, "--t-max", "0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "not finite" in err
    assert not out.exists()


def nan_after_first(fn):
    """``fn`` whose calls after the first return NaN."""
    calls = []

    def wrapped(*args):
        calls.append(1)
        return fn(*args) if len(calls) == 1 else float("nan")

    return wrapped


@pytest.mark.parametrize("check", ["energy", "fidelity", "norm"])
def test_nan_fails_the_conservation_checks(check, monkeypatch, tmp_path, capsys):
    # Every check is written so that a NaN fails it, wherever it falls.
    from toricsim import ed, entanglement

    if check == "energy":
        expectation = ed.HamiltonianOperator.expectation
        monkeypatch.setattr(ed.HamiltonianOperator, "expectation", nan_after_first(expectation))
        message = "energy drifted by nan"
    elif check == "fidelity":
        monkeypatch.setattr(entanglement, "fidelity", lambda a, b: float("nan"))
        message = "initial fidelity nan"
    else:
        trajectory = ed.trajectory

        def nan_states(state, op, times):
            for s in trajectory(state, op, times):
                yield stabilizer.StateVector(s.amplitudes * np.nan, s.basis)

        monkeypatch.setattr(ed, "trajectory", nan_states)
        message = "norm drifted by nan"
    with pytest.raises(RuntimeError, match=message):
        quench.run_quench(quench.QuenchConfig(L1=2, L2=2, t_max=1.0, dt=0.5))
    out = tmp_path / "run.csv"
    argv = ["quench", "--l1", "2", "--l2", "2", "--t-max", "1.0", "--dt", "0.5"]
    assert cli.main([*argv, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_quench_json_is_independent_of_the_output_path(tmp_path):
    args = ["quench", "--l1", "2", "--l2", "2", "--t-max", "1.0", "--dt", "0.5",
            "--format", "json"]
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(args + ["--out", str(p1)]) == 0
    assert cli.main(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    assert str(p1) not in p1.read_text()


def test_config_file_with_flag_override(tmp_path):
    cfg = {"L1": 2, "L2": 2, "h": 0.5, "t_max": 1.0, "dt": 0.5}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out.json"
    code = cli.main(
        [
            "quench",
            "--config", str(cfg_path),
            "--h", "0.25",
            "--format", "json",
            "--out", str(out),
        ]
    )
    assert code == 0
    echoed = json.loads(out.read_text())["metadata"]["config"]
    assert echoed["h"] == 0.25
    assert echoed["t_max"] == 1.0


def test_config_file_errors(tmp_path, capsys):
    assert cli.main(["quench", "--config", str(tmp_path / "missing.json")]) == 2
    assert "not found" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["quench", "--config", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"L1": 2, "L2": 2, "coupling": 3}))
    assert cli.main(["quench", "--config", str(unknown)]) == 2
    assert "bad config field" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        '{"L1": 2, "L2": 2, "alpha_list": 2}',
        '{"L1": "2", "L2": 2}',
        '{"L1": 2, "L2": 2, "h": "x"}',
        '{"L1": 2, "L2": 2, "t_max": 1e400}',
        '{"L1": 2, "L2": 2, "dt": NaN}',
        '{"L1": 2, "L2": 2, "alpha_list": [Infinity]}',
        '{"L1": 2, "L2": 2, "tolerances": {"energy_drfit": 1}}',
        '{"L1": 2, "L2": 2, "t_max": 0.5, "dt": 0.5, "output_path": true}',
        '{"L1": 2, "L2": 2, "t_max": 0.5, "dt": 0.5, "output_path": 3}',
        # run tolerances are fixed and quench writes only to --out
        '{"L1": 2, "L2": 2, "tolerances": {"energy_drift": 1e-6}}',
        '{"L1": 2, "L2": 2, "t_max": 0.5, "dt": 0.5, "output_path": "o.csv"}',
        '{"L1": 2, "L2": 2, "partition_preset": []}',
        '{"L1": 2, "L2": 2, "sector_restrict": "no"}',
        '{"L1": 2, "L2": 2, "sector_restrict": 1}',
        '{"L1": 2, "L2": 2, "t_max": 1e300, "dt": 1e-300}',
        '{"L1": 2, "L2": 2, "alpha_list": [1, 1.0]}',
    ],
)
def test_bad_config_values_are_config_errors(tmp_path, monkeypatch, capfd, text):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "bad.json"
    path.write_text(text)
    argv = ["quench", "--config", str(path)]
    if "output_path" not in text:  # --out would override the bad value
        argv += ["--out", str(tmp_path / "o.csv")]
    assert cli.main(argv) == 2
    # capfd sees writes to the file descriptors, where open(1) would land.
    out, err = capfd.readouterr()
    assert "configuration error" in err
    assert "Traceback" not in err
    assert out == ""
    assert not (tmp_path / "o.csv").exists()


def test_sweep_infinite_window_is_config_error(tmp_path, capfd):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--l1", "2", "--l2", "2", "--beta-grid", "0.5", "--window", "0", "inf",
            "--out", str(out)]
    assert cli.main(argv) == 2
    _, err = capfd.readouterr()
    assert "configuration error: time grid exceeds" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_lattice_size_required(capsys):
    assert cli.main(["quench", "--h", "0.1"]) == 2
    assert "lattice size missing" in capsys.readouterr().err


def test_sector_flags_mutually_exclusive():
    with pytest.raises(SystemExit) as exc:
        cli.main(["quench", "--l1", "2", "--l2", "2", "--sector-restrict", "--full-space"])
    assert exc.value.code == 2


def test_sweep_writes_rows(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    code = cli.main(
        [
            "sweep",
            "--l1", "2", "--l2", "2",
            "--dt", "0.5",
            "--beta-grid", "0.1,0.5",
            "--window", "5", "10",
            "--out", str(path),
        ]
    )
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "beta,h,mean_s_top,std_s_top,eigenbasis_mean_s_top"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.1
    assert first[4] != ""


def test_entropy_prints_unit_topological_entropy(capsys):
    code = cli.main(["entropy", "--l1", "3", "--l2", "3", "--preset", "levinwen-ring"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "region_label,alpha,entropy_bits"
    stop_rows = [l for l in lines if "S_top" in l]
    assert len(stop_rows) == 2
    for row in stop_rows:
        assert abs(float(row.split(",")[2]) - 1.0) < 1e-8


def test_entropy_unknown_preset(capsys):
    assert cli.main(["entropy", "--l1", "2", "--l2", "2", "--preset", "huh"]) == 2
    err = capsys.readouterr().err
    assert "levinwen-small" in err


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_entropy_non_finite_alpha_is_config_error(alpha, capsys):
    args = ["entropy", "--l1", "2", "--l2", "2", "--alpha", f"1,{alpha}"]
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Renyi index must be positive and finite" in captured.err


def test_thread_configuration(monkeypatch):
    for var in cli._THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("TORICSIM_THREADS", "3")
    cli._configure_threads()
    import os

    assert all(os.environ[var] == "3" for var in cli._THREAD_VARS)


def readme_commands():
    """The argv of each example in the README's command-line block."""
    text = README.read_text(encoding="utf-8")
    block = next(b for b in text.split("```sh\n")[1:] if "toricsim ground" in b)
    lines = block.split("```")[0].replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("toricsim ")]


def test_readme_cli_examples_run(tmp_path, capsys):
    commands = readme_commands()
    assert [argv[0] for argv in commands] == ["ground", "verify", "quench", "sweep", "entropy"]
    for argv in commands:
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv[i] = str(tmp_path / argv[i])
        assert cli.main(argv) == 0, argv
    assert sorted(p.name for p in tmp_path.iterdir()) == ["psi.npz", "quench.csv", "sweep.csv"]
