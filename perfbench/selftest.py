"""Fast self-test of the benchmark's own parts; needs numpy only.

    python3 perfbench/selftest.py

Checks the tracer's self-time arithmetic on a scripted clock, that the
metric names in run.py match BENCHMARK.json, that the speed probe runs on
one thread without toricsim, and the reference physics on
a 2x2 torus, where the full-space Chebyshev propagator and the sector
``eigh`` must agree and the ground state carries exactly one bit.
"""

import itertools
import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402


def test_self_time():
    tracer = Tracer(clock=itertools.count().__next__)  # each reading advances by 1
    leaf = tracer.wrap("leaf", lambda: None)

    def inner_body(deep):
        if deep:
            leaf()

    inner = tracer.wrap(lambda args, kwargs: "inner", inner_body)

    def outer_body():
        inner(True)
        inner(False)
        raise ValueError("spans close on the way out")

    outer = tracer.wrap("outer", outer_body)
    try:
        outer()
    except ValueError:
        pass
    # Clock readings: outer 0..7, inner 1..4 around leaf 2..3, inner 5..6.
    got = summarize(tracer.spans)
    assert got == {
        "outer": {"calls": 1, "s": 7, "self_s": 3},
        "inner": {"calls": 2, "s": 4, "self_s": 3},
        "leaf": {"calls": 1, "s": 1, "self_s": 1},
    }, got
    assert not tracer._stack


def test_metric_names_match_benchmark_json():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_reference_on_2x2():
    geo = reference.torus(2, 2)
    h, t = 0.37, 0.9
    model = reference.SectorModel(geo, h)
    assert model.kept.size == 1 << (geo.n - 3)
    sector_state = model.states([t])[0]
    matvec, bound = reference.full_hamiltonian(geo, "uniform_z", h, 0.0)
    full0 = np.zeros(1 << geo.n, dtype=complex)
    full0[model.kept] = model.psi0
    full = reference.chebyshev_propagate(matvec, bound, full0, t)
    assert np.max(np.abs(full[model.kept] - sector_state)) < 1e-12
    assert abs(np.vdot(full, matvec(full)).real + 2 * 2 * 2) < 1e-12
    regions = ((0, 3, 6), (0, 3), (2, 4, 7), (4, 7))  # shipped 2x2 levinwen-small
    table = reference.entropy_table(model.kept, model.psi0[None, :], regions, (1.0, 2.0))
    for a in (1.0, 2.0):
        assert abs(table[a][0, 4] - 1.0) < 1e-12, table[a]


def test_draw_is_seeded():
    for name in run.WORKLOADS:
        assert run.draw(name, 7) == run.draw(name, 7)
        assert run.draw(name, 7).argv("x") != run.draw(name, 8).argv("x")


def test_unreadable_output_is_a_failure():
    for name in ("quench-sector-3x3", "sweep-sector-3x3"):
        assert run.draw(name, 1).check("t,fidelity\nnot-a-number,1\n")


def test_speed_probe_is_apart_from_the_program():
    assert not any(name.split(".")[0] == "toricsim" for name in sys.modules)
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    assert 0.0 < speed.probe() < 60.0


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
