"""Command-line behavior: exit codes, outputs, and config merging."""

import json
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from toricsim import cli, entanglement, lattice, quench, stabilizer

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


@pytest.mark.parametrize("command", [["quench", "--t-max", "0"], ["sweep", "--beta-grid", "0.5"],
                                     ["verify"]])
@pytest.mark.parametrize("space", ["--full-space", "--sector-restrict"])
def test_5x5_is_refused_on_its_star_span_before_the_lattice_is_built(
        command, space, monkeypatch, capsys):
    # Every block holds the 2^24-state star span, above the cap whatever
    # the field or the sector flag.
    def unreachable(L1, L2):
        raise AssertionError("lattice built before the cap check")

    monkeypatch.setattr(lattice, "build_lattice", unreachable)
    assert cli.main([*command, space, "--l1", "5", "--l2", "5"]) == 2
    err = capsys.readouterr().err
    assert "configuration error: the 5x5 star span has 2^24 basis states" in err


def test_verify_refuses_a_whole_space_above_the_cap_before_any_check(monkeypatch, capsys):
    # A 4x4 quench runs on its block, but verify's full-space reference has
    # 2^32 states: it is built first, so no sector check runs.
    def unreachable(*args):
        raise AssertionError("a check ran before the reference was built")

    monkeypatch.setattr(quench, "_check", unreachable)
    monkeypatch.setattr(stabilizer, "ground_state", unreachable)
    start = time.monotonic()
    assert cli.main(["verify", "--l1", "4", "--l2", "4", "--full-space"]) == 2
    assert time.monotonic() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert "configuration error: the full space of 32 spins has 2^32 basis states" in err


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


@pytest.mark.parametrize("argv,fault,sample", [
    ("quench --l1 3 --l2 3 --full-space --field-mode split_HV --h 0.3 --kappa 1 --t-max 0.2",
     "krylov", ("0", 1.5)),
    ("quench --l1 3 --l2 3 --sector-restrict --t-max 0.2", "eigh", ("0", 2.25)),
    ("sweep --l1 3 --l2 3 --sector-restrict --beta-grid 0.5 --window 50 55 --dt 0.5", "eigh",
     ("50", 2.25)),
    ("verify --l1 3 --l2 3 --sector-restrict", "eigh", ("1", 2.25)),
], ids=["krylov-quench", "sector-quench", "sweep", "verify"])
def test_a_propagation_fault_that_breaks_the_norm_exits_one(
        argv, fault, sample, monkeypatch, tmp_path, capsys):
    # The evolved state passed the StateVector norm check, so a sample that
    # fails it is a failed physics check, not a configuration error. Above
    # the dense cap each Krylov sample is scaled by 1.5; within it the orbit
    # eigenvectors are, so each sample is scaled by 2.25.
    from toricsim import ed

    if fault == "krylov":
        steps = ed._steps
        monkeypatch.setattr(ed, "_steps", lambda *args: (1.5 * y for y in steps(*args)))
    else:
        eigensystem = ed._OrbitOperator.eigensystem

        def scaled(self):
            w, vecs = eigensystem(self)
            return w, 1.5 * vecs

        monkeypatch.setattr(ed._OrbitOperator, "eigensystem", scaled)
    out = tmp_path / "out.csv"
    assert cli.main([*shlex.split(argv), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    found = re.fullmatch(r"toricsim: check failed: propagation broke the norm at t=(\S+): "
                         r"state is not normalized: \|psi\| = (\S+)\n", err)
    assert found, err
    assert found[1] == sample[0] and abs(float(found[2]) - sample[1]) < 1e-12
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--l1", "3", "--l2", "3", "--full-space", "--field-mode", "split_HV",
     "--h", "1e200", "--kappa", "1e200"],
    ["--l1", "2", "--l2", "2", "--h", "1e308"],
    ["--l1", "3", "--l2", "3", "--full-space", "--field-mode", "split_HV",
     "--kappa", "1", "--h", "1e160"],
    ["--l1", "2", "--l2", "2", "--h", "1e300"],
], ids=["field-weight", "diagonal", "split_HV-norm", "uniform_z-norm"])
def test_non_finite_hamiltonian_is_config_error(argv, tmp_path, capsys):
    # kappa*h overflows to inf; eight -h sigma^z terms sum to -inf on all-up;
    # the last two have finite weights, but their sum W, whose square bounds
    # |H v|^2 for a unit v, has W*W = inf, so a Lanczos norm could overflow
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy may print no overflow warning
        assert cli.main(["quench", *argv, "--t-max", "0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "not finite" in err
    assert not out.exists()


@pytest.mark.parametrize("check", ["energy", "fidelity", "norm"])
def test_nan_fails_the_conservation_checks(check, monkeypatch, tmp_path, capsys):
    # Every check is written so that a NaN fails it, wherever it falls: the
    # energy of every sample after the first, or the fidelity or the norm
    # of every sample, as ``ed.observed_trajectory`` reads them.
    from toricsim import ed

    observed = ed.observed_trajectory
    field = {"norm": 1, "fidelity": 2, "energy": 3}[check]

    def nan_samples(state, op, times):
        for i, sample in enumerate(observed(state, op, times)):
            if i or check != "energy":
                sample = sample[:field] + (float("nan"),) + sample[field + 1:]
            yield sample

    monkeypatch.setattr(ed, "observed_trajectory", nan_samples)
    message = {"energy": "energy drifted by nan", "fidelity": "initial fidelity nan",
               "norm": "norm drifted by nan"}[check]
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
    assert capsys.readouterr().out == f"2 sweep rows written to {path}\n"
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


def test_entropy_prints_the_full_space_entropies_from_the_sector(tmp_path, capsys):
    # The CLI builds its ground states on the plaquette sector; the full
    # space's four regions give the same bytes for every preset and sector.
    alphas = (1.0, 2.0, 3.0, 0.5)
    for l1, l2 in [(2, 2), (2, 3), (3, 3)]:
        geo = lattice.build_lattice(l1, l2)
        full = stabilizer.Basis(geo.n_spins)
        for name in lattice.partition_presets(geo):
            part = lattice.build_partition(geo, name)
            for w1, w2 in [(0, 0), (0, 1), (1, 0), (1, 1)]:
                psi = stabilizer.ground_state(geo, (w1, w2), full)
                series = entanglement.entropy_series((psi,), part, alphas)
                want = entanglement.entropy_report_csv([series[a][0] for a in alphas], part)
                argv = ["entropy", "--l1", str(l1), "--l2", str(l2), "--preset", name,
                        "--sector", f"{w1},{w2}", "--alpha", "1,2,3,0.5"]
                assert cli.main(argv) == 0
                assert capsys.readouterr().out == want, (l1, l2, name, w1, w2)
    path = tmp_path / "entropy.csv"
    assert cli.main(argv + ["--out", str(path)]) == 0
    assert path.read_bytes() == want.encode()
    assert capsys.readouterr().out == f"entropies written to {path}\n"


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

    assert all(os.environ[var] == "3" for var in cli._THREAD_VARS)


def test_split_hv_quench_csv_does_not_depend_on_the_blas_thread_count(tmp_path):
    # The benchmark's 3x3 split_HV quench, run at one and two BLAS threads
    # in fresh processes. Its fidelity and energy are read from the 1,110
    # orbit amplitudes; 32,768-entry block products, which OpenBLAS splits
    # across threads, would differ in their last digits.
    argv = shlex.split("quench --l1 3 --l2 3 --full-space --field-mode split_HV --h 0.3 "
                       "--kappa 1 --t-max 0.2 --dt 0.1 --alpha 1,2")
    texts = []
    for threads in ("1", "2"):
        env = {**os.environ, "TORICSIM_THREADS": threads,
               **{var: threads for var in cli._THREAD_VARS},
               "PYTHONPATH": os.pathsep.join(filter(None, (
                   str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
        out = tmp_path / f"threads-{threads}.csv"
        subprocess.run([sys.executable, "-m", "toricsim.cli", *argv, "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=120)
        texts.append(out.read_bytes())
    assert texts[0].count(b"\n") == 4
    assert texts[0] == texts[1]


def readme_commands():
    """The argv of each command in the fenced ``sh`` block under the
    README's "Command line" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("toricsim ")]


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    # Every command of the block exits 0, run in tmp_path, and writes the
    # files it names there; each subcommand has one.
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"ground", "verify", "quench", "sweep", "entropy"}
    assert ["quench", "--l1", "4", "--l2", "4", "--full-space"] in [argv[:6] for argv in commands]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv) == 0, argv
    written = [argv[argv.index("--out") + 1] for argv in commands if "--out" in argv]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(written)


def test_readme_python_sketches_run(tmp_path, monkeypatch, capsys):
    # The second sketch reuses the first one's names, so they run as one.
    text = README.read_text(encoding="utf-8")
    blocks = [b.split("```")[0] for b in text.split("```python\n")[1:]]
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    exec(compile("".join(blocks), str(README), "exec"), {})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["quench.csv"]
    assert len(capsys.readouterr().out.splitlines()) == 3
