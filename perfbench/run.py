"""End-to-end and per-layer benchmark of the toricsim command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload quench-sector-3x3 --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload in turn. Each operation is one call
of ``toricsim.cli.main`` in a fresh worker process, followed by checks of
its output against closed forms and against ``reference.py``, which does not
use toricsim. With ``--trace 0`` the run reports ``run_s``, ``setup_s`` and
``peak_rss_mb``, its times scaled to a reference machine speed measured by
``speed.py`` in the same run; with ``--trace 1`` it alternates untraced and traced calls
and reports the per-layer metrics. The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402  (first: it caps numpy's threads in this process)
import reference  # noqa: E402

SETUP_REPS = 9
PROBE_ROUNDS = 16  # speed probes for run_s: two before each call, the rest after the last
WORKER_THREADS = 1
DEADLINE_S = 170.0  # a run must end well inside three minutes

# The shipped levinwen-small quadruple for 3x3, the README's region preset.
LEVINWEN_SMALL_3X3 = ((3, 8, 9, 14), (3, 8, 9), (5, 10, 11, 16), (5, 10, 11))

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric -> unit. "<span>.calls|s|self_s" come from the traced
# worker's spans; s is inclusive time, self_s excludes wrapped children.
PER_LAYER = {
    "ed.eigensystem.s": "s",
    "ed.eigensystem.calls": "count",
    "ed.evolve.spectrum.calls": "count",
    "ed.evolve.spectrum.self_s": "s",
    "ed.evolve.krylov.calls": "count",
    "ed.evolve.krylov.self_s": "s",
    "ed.matvec.calls": "count",
    "ed.matvec.s": "s",
    "ed.expectation.s": "s",
    "ed.build_sector.s": "s",
    "ed.build_hamiltonian.s": "s",
    "entanglement.topological_entropy.calls": "count",
    "entanglement.topological_entropy.self_s": "s",
    "entanglement.fidelity.s": "s",
    "entanglement.reduce.s": "s",
    "entanglement.region_spectrum.s": "s",
    "stabilizer.apply_pauli.calls": "count",
    "stabilizer.apply_pauli.s": "s",
    "stabilizer.expectation.self_s": "s",
    "stabilizer.ground_state.s": "s",
    "lattice.build_lattice.s": "s",
    "lattice.build_partition.s": "s",
    "quench.run_quench.self_s": "s",
    "quench.long_time_average.self_s": "s",
    "quench.verify.self_s": "s",
    "quench.emit.s": "s",
    "quench.emit.bytes": "bytes",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    L1: int = 3
    L2: int = 3
    sector: bool = True
    field_mode: str = "uniform_z"
    h: float = 0.1
    kappa: float = 0.0
    t_max: float = 0.0
    dt: float = 0.1
    alphas: tuple = (1.0,)
    betas: tuple = ()
    window: tuple = ()
    preset: str = "levinwen-small"
    regions: tuple = LEVINWEN_SMALL_3X3

    @property
    def first_h(self) -> float:
        return self.betas[0] / (1.0 - self.betas[0]) if self.betas else self.h

    def argv(self, out: str) -> list[str]:
        space = "--sector-restrict" if self.sector else "--full-space"
        size = ["--l1", str(self.L1), "--l2", str(self.L2), space, "--preset", self.preset]
        if self.command == "verify":
            return ["verify", *size, "--h", repr(self.h)]
        if self.command == "sweep":
            beta_grid = ",".join(repr(b) for b in self.betas)
            window = [repr(t) for t in self.window]
            return ["sweep", *size, "--dt", repr(self.dt), "--beta-grid", beta_grid,
                    "--window", *window, "--out", out]
        alphas = ",".join(f"{a:g}" for a in self.alphas)
        return ["quench", *size, "--field-mode", self.field_mode, "--h", repr(self.h),
                "--kappa", repr(self.kappa), "--t-max", repr(self.t_max), "--dt",
                repr(self.dt), "--alpha", alphas, "--out", out]

    def check(self, text: str) -> list[str]:
        check = {"quench": reference.check_quench, "sweep": reference.check_sweep,
                 "verify": reference.check_verify}[self.command]
        try:
            return check(self, text)
        except (KeyError, IndexError, ValueError) as exc:  # missing column, bad number
            return [f"output does not parse: {exc!r}"]


def _near(rng: random.Random, nominal: float, half_width: float) -> float:
    return round(nominal + half_width * rng.uniform(-1.0, 1.0), 6)


def draw(name: str, seed: int) -> Workload:
    """The workload's flags, with its field values drawn from ``seed``."""
    rng = random.Random(f"{name}/{seed}")
    if name == "quench-sector-3x3":
        return Workload(name, "quench", h=_near(rng, 0.1, 0.005), t_max=1.0)
    if name == "sweep-sector-3x3":
        return Workload(name, "sweep", betas=(_near(rng, 0.9, 0.005),), dt=0.5,
                        window=(50.0, 55.0), alphas=(2.0,))
    if name == "quench-krylov-3x3":
        return Workload(name, "quench", sector=False, field_mode="split_HV",
                        h=_near(rng, 0.3, 0.015), kappa=1.0, t_max=0.2, alphas=(1.0, 2.0))
    if name == "verify-sector-3x3":
        return Workload(name, "verify", h=_near(rng, 0.1, 0.005))
    raise KeyError(name)


WORKLOADS = ("quench-sector-3x3", "sweep-sector-3x3", "quench-krylov-3x3", "verify-sector-3x3")


class Bench:
    """Workers, outputs and checks of one benchmark invocation."""

    def __init__(self, root: str, workload: Workload):
        self.root = root
        self.src = os.path.join(root, "src")
        self.w = workload
        self.out_dir = os.path.join(root, ".perfbench")
        self.tmp = os.path.join(self.out_dir, f"tmp-{os.getpid()}")
        os.makedirs(self.tmp, exist_ok=True)
        # One thread, well under the cap of nproc: with two BLAS threads on two
        # shared cores, one busy neighbour process made a call 2.5 times slower,
        # while a single thread kept its time.
        threads = str(WORKER_THREADS)
        self.env = dict(os.environ, TORICSIM_THREADS=threads, OMP_NUM_THREADS=threads,
                        OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        self.started = time.monotonic()
        self.ops = 0

    def worker(self, mode: str, **extra) -> dict:
        workload = dict(asdict(self.w), first_h=self.w.first_h)
        req = dict(mode=mode, src=self.src, workload=workload, **extra)
        left = DEADLINE_S - (time.monotonic() - self.started)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(req)],
            cwd=self.tmp, env=self.env, capture_output=True, text=True, timeout=max(left, 1.0),
        )
        if proc.returncode != 0 or not proc.stdout.strip():
            raise RuntimeError(f"{mode} worker failed ({proc.returncode}): {proc.stderr.strip()}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def operation(self, mode: str = "run") -> dict:
        """One CLI call; keeps its output bytes for the checks."""
        self.ops += 1
        out = os.path.join(self.tmp, f"op{self.ops}.csv")
        spans = os.path.join(self.out_dir, f"{self.w.name}.spans.json")
        res = self.worker(mode, argv=self.w.argv(out), spans_path=spans)
        data = res["stdout"].encode()
        if self.w.command != "verify" and res["rc"] == 0:
            with open(out, "rb") as fh:
                data = fh.read()
            os.remove(out)
        res["output"] = data
        return res

    def failures(self, results: list[dict]) -> int:
        """Operations whose exit code, bytes or reference check is wrong."""
        first = results[0]
        errors = ["operation 1 failed, so no output was checked"]
        if first["rc"] == 0:
            errors = self.w.check(first["output"].decode())
        for msg in errors:
            print(f"check failed: {msg}", file=sys.stderr)
        bad = 0
        for i, res in enumerate(results, start=1):
            if res["rc"] != 0:
                print(f"operation {i} exited with code {res['rc']}", file=sys.stderr)
            elif res["output"] != first["output"]:
                print(f"operation {i} output differs from operation 1", file=sys.stderr)
            elif not errors:
                continue
            bad += 1
        return bad

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


def _median(values) -> float:
    return float(statistics.median(values))


def _another(start: float, done: int, seconds: float) -> bool:
    """Whether one more operation, as long as the mean so far, ends within ``seconds``."""
    elapsed = time.monotonic() - start
    return done == 0 or elapsed + elapsed / done <= seconds


def measure(bench: Bench, seconds: float) -> tuple[list[dict], dict, dict, dict]:
    """End-to-end metrics; each time is scaled by the probes taken around it."""
    setup_probes, probes, setups, results = [], [], [], []
    for _ in range(SETUP_REPS):
        setup_probes.append(speed.probe())
        setups.append(bench.worker("setup"))
    setup_probes.append(speed.probe())
    start = time.monotonic()
    while _another(start, len(results), seconds):
        probes += [speed.probe(), speed.probe()]
        results.append(bench.operation())
    probes += [speed.probe() for _ in range(max(PROBE_ROUNDS - len(probes), 1))]
    wall = {
        "setup_probe_s": _median(setup_probes),
        "probe_s": _median(probes),
        "wall_run_s": _median(r["run_s"] for r in results),
        "wall_setup_s": _median(s["setup_s"] for s in setups),
    }
    metrics = {
        "run_s": wall["wall_run_s"] * speed.REFERENCE_PROBE_S / wall["probe_s"],
        "setup_s": wall["wall_setup_s"] * speed.REFERENCE_PROBE_S / wall["setup_probe_s"],
        "peak_rss_mb": _median(r["rss_kb"] for r in results) / 1024.0,
    }
    return results, metrics, setups[0], wall


def measure_traced(bench: Bench, seconds: float) -> tuple[list[dict], dict, dict, dict]:
    env = bench.worker("setup")
    plain, traced = [], []
    start = time.monotonic()
    while _another(start, len(plain), seconds):
        plain.append(bench.operation("run"))
        traced.append(bench.operation("trace"))
    metrics = {}
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            value = _median(t["run_s"] - p["run_s"] for p, t in zip(plain, traced))
        elif name == "quench.emit.bytes":
            value = _median(t["emit_bytes"] for t in traced)
        else:
            span, kind = name.rsplit(".", 1)
            value = _median(t["layers"].get(span, {}).get(kind, 0) for t in traced)
        if PER_LAYER[name] in ("count", "bytes"):
            value = int(value)
        metrics[name] = value
    return plain + traced, metrics, env, {}


def run_one(root: str, name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = draw(name, seed)
    bench = Bench(root, w)
    try:
        results, values, env, wall = (measure_traced if trace else measure)(bench, seconds)
        failed = bench.failures(results)
    finally:
        bench.close()
    units = PER_LAYER if trace else END_TO_END
    summary = {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "argv": w.argv("<out>"),
        "environment": {
            "nproc": len(os.sched_getaffinity(0)),
            "TORICSIM_THREADS": bench.env["TORICSIM_THREADS"],
            "python": platform.python_version(),
            "numpy": env["numpy"],
            "blas": env["blas"],
        },
        "run_s_per_operation": [r["run_s"] for r in results],
        **wall,
        **summary,
    }
    path = os.path.join(bench.out_dir, f"{name}.{'trace' if trace else 'result'}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print(f"# {name} seed={seed} env={json.dumps(record['environment'])}")
    for key, m in summary["metrics"].items():
        print(f"{name} {key} {m['value']:.6g} {m['unit']}")
    for key, value in wall.items():
        print(f"{name} {key} {value:.6g} s (not scaled)")
    print(f"{name} attempted {summary['attempted']} failed {summary['failed']}")
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "toricsim", "cli.py")):
        print("perfbench: run from the root of a toricsim checkout (no src/toricsim here)",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = {n: run_one(root, n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(names) == 1:
        final = summaries[names[0]]
    else:
        final = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{n}:{k}": m for n, s in summaries.items() for k, m in s["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
