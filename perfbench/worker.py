"""One benchmark measurement in a fresh interpreter.

Usage: python3 worker.py '<json request>'

The request names a mode, the checkout's ``src`` directory and the
workload. The worker prints one JSON line with its result.

- ``setup``: import numpy and toricsim, then build the workload's first
  operator through the public constructors; reports ``setup_s``.
- ``run``: call ``toricsim.cli.main`` with the workload's flags; reports
  its wall time, exit code, captured stdout and the worker's peak RSS.
- ``trace``: as ``run`` with spans recorded around the package's public
  functions; also reports per-span calls, time and self time, and writes
  the spans to ``spans_path``.
"""

import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _import_toricsim(src):
    sys.path.insert(0, src)
    import toricsim

    where = os.path.dirname(os.path.abspath(toricsim.__file__))
    if os.path.dirname(where) != os.path.abspath(src):
        raise SystemExit(f"toricsim was imported from {where}, not from {src}")
    return toricsim


def setup(req):
    _import_toricsim(req["src"])
    import numpy  # noqa: F401

    from toricsim import ed, lattice, stabilizer

    w = req["workload"]
    geo = lattice.build_lattice(w["L1"], w["L2"])
    lattice.build_partition(geo, w["preset"])
    psi = stabilizer.ground_state(geo, (0, 0))
    basis = None
    if w["sector"]:
        basis = ed.build_sector(geo)
        psi = basis.project(psi)
    spec = ed.HamiltonianSpec(
        geometry=geo, h=w["first_h"], kappa=w["kappa"], field_mode=w["field_mode"]
    )
    op = ed.build_hamiltonian(spec, basis)
    setup_s = time.perf_counter() - T_START
    if op.dimension != psi.amplitudes.size:
        raise SystemExit("operator and initial state dimensions differ")
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "setup_s": setup_s,
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


# Span name -> (module, attribute path) of each wrapped callable.
TARGETS = {
    "cli.main": ("cli", "main"),
    "quench.run_quench": ("quench", "run_quench"),
    "quench.long_time_average": ("quench", "long_time_average"),
    "quench.verify": ("quench", "verify"),
    "quench.emit": ("quench", "emit"),
    "ed.build_sector": ("ed", "build_sector"),
    "ed.build_hamiltonian": ("ed", "build_hamiltonian"),
    "ed.evolve": ("ed", "evolve"),
    "ed.eigensystem": ("ed", "HamiltonianOperator.eigensystem"),
    "ed.matvec": ("ed", "HamiltonianOperator.matvec"),
    "ed.expectation": ("ed", "HamiltonianOperator.expectation"),
    "entanglement.topological_entropy": ("entanglement", "topological_entropy"),
    "entanglement.fidelity": ("entanglement", "fidelity"),
    "entanglement.reduce": ("entanglement", "reduce"),
    "entanglement.region_spectrum": ("entanglement", "region_spectrum"),
    "stabilizer.apply_pauli": ("stabilizer", "apply_pauli"),
    "stabilizer.expectation": ("stabilizer", "expectation"),
    "stabilizer.ground_state": ("stabilizer", "ground_state"),
    "lattice.build_lattice": ("lattice", "build_lattice"),
    "lattice.build_partition": ("lattice", "build_partition"),
}


def _install(tracer, emitted):
    import importlib

    from toricsim import ed

    def evolve_name(args, kwargs):
        op = args[1] if len(args) > 1 else kwargs["op"]
        method = kwargs.get("method", args[4] if len(args) > 4 else "auto")
        if method == "auto":
            method = "spectrum" if op.dimension <= ed.FULL_SPECTRUM_CAP else "krylov"
        return f"ed.evolve.{method}"

    for name, (module, path) in TARGETS.items():
        owner = importlib.import_module(f"toricsim.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        fn = getattr(owner, attr)
        setattr(owner, attr, tracer.wrap(evolve_name if name == "ed.evolve" else name, fn))

    quench = importlib.import_module("toricsim.quench")
    traced_emit = quench.emit

    def emit(report, format, path):
        traced_emit(report, format, path)
        emitted.append(os.path.getsize(path))

    quench.emit = emit


def run(req, traced=False):
    toricsim = _import_toricsim(req["src"])
    import toricsim.cli
    import toricsim.quench  # noqa: F401  (imports numpy and every layer)

    emitted = []
    tracer = None
    if traced:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer, summarize

        tracer = Tracer()
        _install(tracer, emitted)
    main = toricsim.cli.main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t0 = time.perf_counter()
        try:
            rc = main(req["argv"])
        except SystemExit as exc:  # argparse rejects flags this way
            rc = exc.code
        except Exception:  # an uncaught error ends the real CLI with exit 1
            traceback.print_exc()
            rc = 1
        run_s = time.perf_counter() - t0
    result = {
        "rc": rc,
        "run_s": run_s,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "stdout": out.getvalue(),
    }
    if traced:
        result["layers"] = summarize(tracer.spans)
        result["emit_bytes"] = sum(emitted)
        with open(req["spans_path"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return result


def main():
    req = json.loads(sys.argv[1])
    mode = req["mode"]
    if mode == "setup":
        result = setup(req)
    elif mode in ("run", "trace"):
        result = run(req, traced=mode == "trace")
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
