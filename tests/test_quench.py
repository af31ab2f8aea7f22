"""Quench driver: conservation checks, serialization, and the verify suite."""

import dataclasses
import json
import sys
import tracemalloc

import numpy as np
import pytest

from toricsim import cli, ed, entanglement, lattice, quench, stabilizer
from toricsim.pauli import single


def small_config(**overrides):
    base = dict(L1=2, L2=2, h=0.3, t_max=2.0, dt=0.5, alpha_list=(1.0, 2.0))
    base.update(overrides)
    return quench.QuenchConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(dt=0.0)
    with pytest.raises(ValueError):
        small_config(dt=-0.1)
    with pytest.raises(ValueError):
        small_config(t_max=-1.0)
    with pytest.raises(ValueError):
        small_config(alpha_list=())
    with pytest.raises(ValueError):
        small_config(alpha_list=(1.0, -2.0))
    # Only split_HV's vertical sigma^x field, kappa * h, leaves the sector.
    with pytest.raises(ValueError, match="kappa = 0"):
        small_config(field_mode="split_HV", kappa=1.0, sector_restrict=True)
    small_config(field_mode="split_HV", kappa=0.0, sector_restrict=True)
    for bad in ({"partition_preset": []}, {"sector_restrict": "no"}, {"sector_restrict": 1}):
        with pytest.raises(ValueError):
            small_config(**bad)
    # the run tolerances are module constants and the output path a CLI flag
    for gone in ({"tolerances": {"energy_drift": 1e-6}}, {"output_path": "run.csv"}):
        with pytest.raises(TypeError):
            small_config(**gone)
    cfg = small_config(alpha_list=[1, 2])
    assert cfg.alpha_list == (1.0, 2.0)


def test_config_refuses_a_basis_above_the_cap():
    # 2^20 states is the cap. A config refuses only the star span,
    # 2^(L1 L2 - 1) states, which every block and the plaquette sector hold;
    # its whole space is only reported. So 4x4 passes with or without the
    # sector (2^32 and 2^17 whole, 2^15 stars), and so do 5x4 (2^19) and
    # 3x7 (2^20, at the cap).
    for sector_restrict in (False, True):
        for l1, l2 in ((4, 4), (5, 4), (3, 7)):
            cfg = quench.QuenchConfig(L1=l1, L2=l2, sector_restrict=sector_restrict)
            assert cfg.space_bits() == (l1 * l2 + 1 if sector_restrict else 2 * l1 * l2)
        for l1, l2, bits in ((5, 5, 24), (2, 11, 21)):
            with pytest.raises(ValueError, match=f"{l1}x{l2} star span has 2\\^{bits} "):
                quench.QuenchConfig(L1=l1, L2=l2, sector_restrict=sector_restrict)


def test_config_is_hashable_and_immutable():
    assert hash(quench.QuenchConfig(L1=2, L2=2)) == hash(quench.QuenchConfig(L1=2, L2=2))
    cfg = small_config(t_max=0.5, alpha_list=[2, 1])
    assert cfg == small_config(t_max=0.5, alpha_list=(2.0, 1.0))
    assert len({cfg, small_config(t_max=0.5)}) == 2
    with pytest.raises(TypeError):
        cfg.alpha_list[0] = 3.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.h = 0.5
    moved = dataclasses.replace(cfg, h=0.5)
    assert moved.alpha_list == cfg.alpha_list and moved.h == 0.5
    echo = quench.run_quench(cfg).metadata["config"]
    assert sorted(echo) == sorted(f.name for f in dataclasses.fields(quench.QuenchConfig))
    assert quench.QuenchConfig(**echo) == cfg


def test_time_grid_includes_endpoint():
    report = quench.run_quench(small_config(t_max=1.0, dt=0.25, alpha_list=(1.0,)))
    assert report.times == (0.0, 0.25, 0.5, 0.75, 1.0)


def test_zero_field_run_is_stationary():
    report = quench.run_quench(small_config(h=0.0, t_max=3.0, dt=1.0))
    assert all(abs(f - 1.0) < 1e-12 for f in report.fidelity)
    assert all(abs(e + 8.0) < 1e-10 for e in report.energy)
    for reps in report.entropy.values():
        assert all(abs(r.s_top - 1.0) < 1e-8 for r in reps)


def test_quench_conservation_invariants():
    report = quench.run_quench(small_config())
    assert abs(report.fidelity[0] - 1.0) < 1e-10
    assert max(report.energy) - min(report.energy) < 1e-8
    assert len(report.times) == len(report.fidelity) == len(report.energy)
    for reps in report.entropy.values():
        assert len(reps) == len(report.times)
    # the field mixes states, so fidelity genuinely moves
    assert min(report.fidelity) < 1.0 - 1e-6
    assert report.metadata["propagation"] == "spectrum"
    assert report.metadata["basis_dimension"] == 256
    assert report.metadata["initial_sector"] == [0, 0]


def test_sector_run_matches_full_run():
    full = quench.run_quench(small_config(alpha_list=(2.0,)))
    sec = quench.run_quench(small_config(alpha_list=(2.0,), sector_restrict=True))
    assert sec.metadata["basis_dimension"] == 32
    for a, b in zip(full.fidelity, sec.fidelity):
        assert abs(a - b) < 1e-9
    for ra, rb in zip(full.entropy[2.0], sec.entropy[2.0]):
        assert abs(ra.s_top - rb.s_top) < 1e-9


def test_conservation_failure_raises(monkeypatch):
    quench.run_quench(small_config())
    checks = {
        "NORM_DRIFT_TOL": "norm drifted",
        "INITIAL_FIDELITY_TOL": "initial fidelity",
        "ENERGY_DRIFT_TOL": "energy drifted",
    }
    for name, message in checks.items():
        with monkeypatch.context() as patch:
            patch.setattr(quench, name, -1.0)
            with pytest.raises(RuntimeError, match=message):
                quench.run_quench(small_config())


def test_time_grid_sample_cap():
    assert len(quench._time_grid(quench.MAX_SAMPLES - 1.0, 1.0)) == quench.MAX_SAMPLES
    for t_max, dt in ((float(quench.MAX_SAMPLES), 1.0), (1e300, 1e-300), (float("inf"), 1.0)):
        with pytest.raises(ValueError, match="time grid exceeds"):
            quench._time_grid(t_max, dt)


def test_config_echo_reproduces_run():
    first = quench.run_quench(small_config())
    echo = first.metadata["config"]
    again = quench.run_quench(quench.QuenchConfig(**echo))
    assert first == again


def test_csv_emit_deterministic(tmp_path):
    cfg = small_config()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    quench.emit(quench.run_quench(cfg), "csv", p1)
    quench.emit(quench.run_quench(cfg), "csv", p2)
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    header = b1.decode().splitlines()[0]
    assert header == (
        "t,fidelity,energy,"
        "s1[alpha=1],s2[alpha=1],s3[alpha=1],s4[alpha=1],s_top[alpha=1],"
        "s1[alpha=2],s2[alpha=2],s3[alpha=2],s4[alpha=2],s_top[alpha=2]"
    )
    rows = b1.decode().splitlines()[1:]
    assert len(rows) == 5
    first = rows[0].split(",")
    assert first[0] == "0"
    assert abs(float(first[1]) - 1.0) < 1e-10


def test_json_round_trip(tmp_path):
    report = quench.run_quench(small_config())
    path = tmp_path / "run.json"
    quench.emit(report, "json", path)
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["metadata"] == report.metadata
    assert payload["metadata"]["config"]["h"] == 0.3
    for key in ("times", "fidelity", "energy"):
        assert payload[key] == list(getattr(report, key))
    assert payload["entropy"] == {
        str(a): {"alpha": a, **{s: [getattr(r, s) for r in reps] for s in ("s1", "s2", "s3", "s4")}}
        for a, reps in report.entropy.items()
    }


def test_emit_unknown_format(tmp_path):
    report = quench.run_quench(small_config(t_max=0.0))
    with pytest.raises(ValueError, match="format"):
        quench.emit(report, "yaml", tmp_path / "x")


def test_emit_empty_report(tmp_path):
    empty = quench.QuenchReport(
        times=(), fidelity=(), energy=(), entropy={1.0: ()}, metadata={}
    )
    path = tmp_path / "empty.csv"
    quench.emit(empty, "csv", path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("t,fidelity,energy")


def test_long_time_average_window_validation():
    cfg = small_config(dt=0.5)
    with pytest.raises(ValueError, match="window"):
        quench.long_time_average(cfg, [0.5], (5.0, 2.0))
    with pytest.raises(ValueError, match="shorter than 10 sampling"):
        quench.long_time_average(cfg, [0.5], (0.0, 4.0))
    with pytest.raises(ValueError, match="beta"):
        quench.long_time_average(cfg, [1.0], (0.0, 10.0))
    with pytest.raises(ValueError, match="beta"):
        quench.long_time_average(cfg, [0.0], (0.0, 10.0))


def test_long_time_average_small_beta_stays_topological():
    cfg = small_config(dt=0.5, alpha_list=(2.0,))
    rows = quench.long_time_average(cfg, [0.05], (5.0, 10.0))
    (row,) = rows
    assert row.beta == 0.05
    assert abs(row.h - 0.05 / 0.95) < 1e-15
    assert abs(row.mean_s_top - 1.0) < 0.05
    assert row.std_s_top < 0.05
    assert row.eigenbasis_mean_s_top is not None
    assert abs(row.eigenbasis_mean_s_top - 1.0) < 0.05


def test_full_space_3x3_quench_and_sweep_run_one_spectral_block(monkeypatch):
    # Under uniform_z the 3x3 quench state lies in a block of 256 of the
    # 2^18 full-space states. The run builds only that block, so it is
    # spectral, and the sweep reports the eigenbasis mean from all its
    # long-time samples without a 2^18-entry array. Each trajectory takes
    # one eigh on the quench state's 13 orbits of the block.
    routes = recording_spectral_routes(monkeypatch)
    dims = recording_operators(monkeypatch)
    report = quench.run_quench(quench.QuenchConfig(L1=3, L2=3, h=0.1, t_max=0.2))
    assert report.metadata["basis_dimension"] == 1 << 18
    assert report.metadata["block_dimension"] == 256
    assert report.metadata["propagation"] == "spectrum"
    assert eigh_sizes(routes) == [13] and dims == [256]
    config = quench.QuenchConfig(L1=3, L2=3, dt=0.5)
    tracemalloc.start()
    try:
        (row,) = quench.long_time_average(config, [0.05], (5.0, 10.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The block's operator and one chunk of 2^14 sample amplitudes peak
    # at about 0.9 MiB. A complex 2^18-entry state alone is 4 MiB; a
    # float or index array of 2^18 entries, as the whole space's diagonal or
    # positions, is 2 MiB.
    assert peak < 3 << 20
    assert eigh_sizes(routes) == [13, 13] and dims == [256, 256]
    assert row.eigenbasis_mean_s_top is not None
    assert abs(row.eigenbasis_mean_s_top - 1.0) < 0.05


def two_call_sweep_row(config, beta, window):
    """A sweep row from two ``ed.trajectory`` calls, one over the window and
    one over the golden-ratio horizon: the oracle of the sweep's one call."""
    t0, t1 = window
    h = beta / (1.0 - beta)
    _, partition, psi0, op = quench._prepare(
        dataclasses.replace(config, h=h, alpha_list=(2.0,))
    )
    stride = (t1 - t0) * quench._GOLDEN

    def s_top(times):
        return [entanglement.topological_entropy(s, partition, 2.0).s_top
                for s in ed.trajectory(psi0, op, times)]

    values = s_top([t0 + t for t in quench._time_grid(t1 - t0, config.dt)])
    long_run = s_top([t0 + j * stride for j in range(1, quench._EIG_SAMPLES + 1)])
    return quench.SweepRow(beta=beta, h=h, mean_s_top=float(np.mean(values)),
                           std_s_top=float(np.std(values)),
                           eigenbasis_mean_s_top=float(np.mean(long_run)))


def test_sweep_takes_one_eigensystem_per_beta(monkeypatch):
    # The window and the long horizon share one trajectory, so each beta
    # takes one eigh on the quench state's orbits of its 256-state block,
    # and the rows are bit for bit those of two separate calls.
    config = quench.QuenchConfig(L1=3, L2=3, dt=0.5, sector_restrict=True)
    betas, window = [0.3, 0.9], (50.0, 55.0)
    want = [two_call_sweep_row(config, beta, window) for beta in betas]
    routes = recording_spectral_routes(monkeypatch)
    assert quench.long_time_average(config, betas, window) == want
    assert eigh_sizes(routes) == [13, 13]


def test_verify_passes_on_shipped_configs():
    ok, lines = quench.verify(small_config())
    assert ok
    assert len(lines) == 8
    assert all(line.startswith("PASS") for line in lines)


def test_verify_sector_mode():
    for l1, l2 in ((2, 2), (2, 3)):
        ok, lines = quench.verify(small_config(L1=l1, L2=l2, sector_restrict=True))
        assert ok, lines
        assert all(line.startswith("PASS") for line in lines) and len(lines) == 8
        assert lines[-1].startswith("PASS block vs whole-basis propagation")


def recording_operators(monkeypatch):
    """Record the basis dimension of every ``HamiltonianOperator`` built."""
    dims = []
    init = ed.HamiltonianOperator.__init__

    def recording(self, terms, basis, symmetries=()):
        dims.append(basis.dimension)
        init(self, terms, basis, symmetries)

    monkeypatch.setattr(ed.HamiltonianOperator, "__init__", recording)
    return dims


@pytest.mark.parametrize("field", [{}, {"field_mode": "split_HV", "kappa": 0.0}],
                         ids=["uniform_z", "split_HV-kappa0"])
def test_4x4_full_space_runs_on_its_star_block(monkeypatch, field):
    # The 4x4 full space has 2^32 states, 64 GiB for one state vector; it is
    # only reported. The quench and the sweep each build one operator, on the
    # 2^15-state star span: no field term flips a spin under uniform_z, and
    # split_HV's vertical sigma^x field has weight kappa * h = 0.
    dims = recording_operators(monkeypatch)
    cfg = quench.QuenchConfig(L1=4, L2=4, h=1.0, t_max=1.0, **field)
    tracemalloc.start()
    try:
        report = quench.run_quench(cfg)
        (row,) = quench.long_time_average(cfg, [0.1], (50.0, 55.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dims == [1 << 15, 1 << 15]
    geo = lattice.build_lattice(4, 4)
    spec = ed.HamiltonianSpec(geometry=geo, h=1.0, **field)
    stars = stabilizer.Basis(geo.n_spins, (op.x_mask for op in stabilizer.star_operators(geo)))
    assert ed.build_block(spec) == stars
    assert report.metadata["basis_dimension"] == 1 << 32
    assert report.metadata["block_dimension"] == 1 << 15
    assert len(report.times) == 11 and 0 < row.mean_s_top < 1
    assert peak < 64 << 20


def test_4x4_split_hv_block_with_kappa_is_refused_by_its_builder():
    # With kappa != 0 the vertical sigma^x field joins the flips: 2^28 states.
    cfg = quench.QuenchConfig(L1=4, L2=4, field_mode="split_HV", kappa=1.0)
    with pytest.raises(ValueError, match="4x4 block of the all-up state has 2\\^28 "):
        quench.run_quench(cfg)


def test_verify_4x4_sector_and_3x3_split_hv_at_kappa_zero():
    # Every split_HV term but the kappa * h field commutes with the
    # plaquettes, so at kappa = 0 the sector is a valid reference.
    for cfg in (quench.QuenchConfig(L1=4, L2=4, sector_restrict=True),
                quench.QuenchConfig(L1=3, L2=3, field_mode="split_HV", kappa=0.0, h=0.7,
                                    sector_restrict=True)):
        ok, lines = quench.verify(cfg)
        assert ok and len(lines) == 8, lines
    report = quench.run_quench(dataclasses.replace(cfg, t_max=0.5))
    assert report.metadata["basis_dimension"] == 1024
    assert report.metadata["block_dimension"] == 256


def recording_spectral_routes(monkeypatch):
    """Record the route of every propagation: ["eigh", dimension] for a
    trajectory's one eigensystem within the dense cap, on the state's
    orbits or its whole block, and ["krylov", dimension, vectors] for each
    space ``ed._steps`` builds, the state's and each restart's, above the
    cap and in ``ed.evolve``."""
    routes = []
    lanczos = ed._lanczos

    def recording_lanczos(matvec, v, size):
        route = ["krylov", matvec.__self__.dimension, 0]
        routes.append(route)
        for space in lanczos(matvec, v, size):
            route[2] += 1
            yield space

    def recording(cls):
        eigensystem = cls.eigensystem

        def recording_eigensystem(self):
            routes.append(["eigh", self.dimension])
            return eigensystem(self)

        monkeypatch.setattr(cls, "eigensystem", recording_eigensystem)

    monkeypatch.setattr(ed, "_lanczos", recording_lanczos)
    recording(ed.HamiltonianOperator)
    recording(ed._OrbitOperator)
    return routes


def eigh_sizes(routes):
    """The dimensions of ``routes``, each checked to be one eigensystem."""
    assert all(r[0] == "eigh" for r in routes), routes
    return [r[1] for r in routes]


def test_verify_sector_check_crosses_bases_and_methods(monkeypatch):
    # The run's 256-state block operator and the 1024-state sector
    # reference are built. The trajectory takes one eigh on the quench
    # state's orbits of the block; evolve's one Krylov space runs on the
    # whole sector.
    dims = recording_operators(monkeypatch)
    routes = recording_spectral_routes(monkeypatch)
    ok, lines = quench.verify(quench.QuenchConfig(L1=3, L2=3, h=0.1, sector_restrict=True))
    assert ok, lines
    assert dims == [256, 1024]
    assert routes == [["eigh", 13], ["krylov", 1024, 13]]
    assert lines[-1].startswith("PASS block vs whole-basis propagation")


@pytest.mark.parametrize("h", [0.285, 0.3, 0.315])
def test_krylov_quench_reads_every_sample_from_one_space(monkeypatch, h):
    # The benchmark's 3x3 full-space split_HV quench (h within 5 % of 0.3,
    # to t = 0.2): its 32,768-state block is above the dense cap, and one
    # Krylov space of at most 16 vectors, on the block's 1,110 orbits under
    # the lattice maps that fix the state, serves every sample, with no
    # restart.
    routes = recording_spectral_routes(monkeypatch)
    report = quench.run_quench(quench.QuenchConfig(
        L1=3, L2=3, h=h, kappa=1.0, field_mode="split_HV", t_max=0.2, dt=0.1,
        alpha_list=(1.0, 2.0)))
    assert report.metadata["block_dimension"] == 32768
    assert report.metadata["propagation"] == "krylov"
    assert len(report.times) == 3
    ((route, orbits, vectors),) = routes
    assert route == "krylov" and orbits == 1110 and vectors <= 16


def test_verify_flags_defective_partition(monkeypatch):
    from toricsim import lattice

    bad = lattice.RegionPartition(regions=((0,), (1,), (2,), (3,)), label="bad")
    monkeypatch.setattr(lattice, "build_partition", lambda geometry, preset: bad)
    ok, lines = quench.verify(small_config())
    assert not ok
    fails = [line for line in lines if line.startswith("FAIL")]
    assert len(fails) == 1
    assert "topological entropy" in fails[0]


SECTORS = [(w1, w2) for w1 in (0, 1) for w2 in (0, 1)]


@pytest.mark.parametrize("l1,l2", [(2, 2), (2, 3), (3, 3)])
def test_verify_quantities_on_sector_states_match_full_space(l1, l2):
    # verify runs its invariants on the sector states; the same calls on the
    # full-space states are the oracle.
    geo = lattice.build_lattice(l1, l2)
    partition = lattice.build_partition(geo, "levinwen-small")
    basis = ed.build_sector(geo)
    native = {s: stabilizer.ground_state(geo, s, basis) for s in SECTORS}
    full = {s: stabilizer.ground_state(geo, s) for s in SECTORS}
    n = geo.n_spins
    for s in SECTORS:
        a, b = native[s], full[s]
        assert abs(stabilizer.residual(geo, a) - stabilizer.residual(geo, b)) <= 1e-12
        for op in (single(n, kind, j) for kind in "XYZ" for j in range(n)):
            assert abs(stabilizer.expectation(a, op) - stabilizer.expectation(b, op)) <= 1e-12
        for region in partition.regions:
            spec_a = entanglement.region_spectrum(a, region)
            spec_b = entanglement.region_spectrum(b, region)
            assert spec_a.shape == spec_b.shape
            assert np.max(np.abs(spec_a - spec_b)) <= 1e-12
            rho_a = entanglement.reduce(a, region)
            rho_b = entanglement.reduce(b, region)
            assert np.max(np.abs(rho_a - rho_b)) <= 1e-12
        for alpha in (1.0, 2.0):
            top_a = entanglement.topological_entropy(a, partition, alpha).s_top
            top_b = entanglement.topological_entropy(b, partition, alpha).s_top
            assert abs(top_a - top_b) <= 1e-12
    gram_a = np.array([[np.vdot(native[x].amplitudes, native[y].amplitudes)
                        for y in SECTORS] for x in SECTORS])
    gram_b = np.array([[np.vdot(full[x].amplitudes, full[y].amplitudes)
                        for y in SECTORS] for x in SECTORS])
    assert np.max(np.abs(gram_a - gram_b)) <= 1e-12


def test_verify_runs_its_invariants_on_the_sector(monkeypatch):
    # Every state handed to the Pauli and region kernels is a sector state,
    # and nothing of 2^18 entries is allocated before the propagation check.
    seen = []

    def tripwire(module, name, state_arg):
        fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            seen.append((name, args[state_arg].basis.dimension == 1 << 10))
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    tripwire(stabilizer, "apply_pauli", 1)
    tripwire(stabilizer, "expectation", 0)
    tripwire(entanglement, "reduce", 0)
    tripwire(entanglement, "region_spectrum", 0)

    peaks = []
    build_hamiltonian = ed.build_hamiltonian

    def first_build(*args, **kwargs):
        if not peaks:  # the propagation check starts with the operator
            peaks.append(tracemalloc.get_traced_memory()[1])
        return build_hamiltonian(*args, **kwargs)

    monkeypatch.setattr(ed, "build_hamiltonian", first_build)
    tracemalloc.start()
    try:
        ok, lines = quench.verify(quench.QuenchConfig(L1=3, L2=3, h=0.1, sector_restrict=True))
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert ok, lines
    assert {name for name, _ in seen} == {"apply_pauli", "expectation", "reduce",
                                          "region_spectrum"}
    assert all(on_sector for _, on_sector in seen)
    # one complex 2^18 state is 4 MiB, its index array 2 MiB; the
    # propagation check on the sector adds a 30-vector Krylov basis (0.5 MiB)
    assert peaks[0] < 1 << 20
    assert peaks[1] < 4 << 20


@pytest.mark.parametrize("l1,l2,field,block", [
    (2, 3, {}, 32),
    (3, 3, {}, 256),
    (3, 3, {"field_mode": "split_HV", "kappa": 1.0}, 32768),
], ids=["2x3-uniform_z", "3x3-uniform_z", "3x3-split_HV"])
def test_verify_checks_propagation_on_the_full_space(monkeypatch, l1, l2, field, block):
    # A full-space config checks its block's propagation against Krylov
    # spaces on the whole 2^N basis, above the dense cap too. Under split_HV
    # the block is above the cap as well; the t = 1 sample still comes from
    # the state's one Krylov space, on the block's 1,110 orbits, with no
    # restart, and so does the whole basis's, which has no lattice maps.
    routes = recording_spectral_routes(monkeypatch)
    dims = recording_operators(monkeypatch)
    callers = recording_matvec_callers(monkeypatch)
    ok, lines = quench.verify(quench.QuenchConfig(L1=l1, L2=l2, h=0.1, **field))
    assert ok, lines
    assert len(lines) == 8 and all(line.startswith("PASS") for line in lines)
    assert lines[-1].startswith("PASS block vs whole-basis propagation")
    assert dims == [block, 1 << 2 * l1 * l2]
    # Every matvec is a Krylov space's: verify reads no observable of a sample.
    assert callers and {name for name, _ in callers} == {"_lanczos"}
    kinds = ["krylov" if field else "eigh", "krylov"]
    spaces = [1110 if field else {32: 8, 256: 13}[block], dims[1]]
    assert [route[:2] for route in routes] == [list(pair) for pair in zip(kinds, spaces)]


@pytest.mark.parametrize("config,orbits", [
    (quench.QuenchConfig(L1=2, L2=2, h=0.3), 4),
    (quench.QuenchConfig(L1=3, L2=3, h=0.1, sector_restrict=True), 13),
    (quench.QuenchConfig(L1=3, L2=3, h=0.1, field_mode="split_HV", kappa=1.0), 1110),
], ids=["2x2-full", "3x3-sector", "3x3-split_HV"])
def test_verify_fails_on_perturbed_block_propagation(monkeypatch, config, orbits):
    # Eigenphases on the state's orbits off by 1e-7 to 2e-7 are seen by the
    # propagation check and by no other: the orbit eigensystem within the
    # dense cap, and under split_HV the Krylov space on the 1,110 orbits of
    # the 32,768-state block. Only spectra on orbits, the block's, are
    # perturbed; the whole-space reference has no lattice maps.
    lanczos, eigensystem = ed._lanczos, ed._OrbitOperator.eigensystem
    spaces = []  # the operator of each perturbed spectrum

    def shifted(theta):
        return theta + 1e-7 * np.linspace(1.0, 2.0, theta.size)

    def perturbed_lanczos(matvec, v, size):
        op = matvec.__self__
        if not isinstance(op, ed._OrbitOperator):
            yield from lanczos(matvec, v, size)
            return
        spaces.append(op)
        for Q, theta, S, beta in lanczos(matvec, v, size):
            yield Q, shifted(theta), S, beta

    def perturbed_eigensystem(self):
        spaces.append(self)
        w, vecs = eigensystem(self)
        return shifted(w), vecs

    monkeypatch.setattr(ed, "_lanczos", perturbed_lanczos)
    monkeypatch.setattr(ed._OrbitOperator, "eigensystem", perturbed_eigensystem)
    ok, lines = quench.verify(config)
    assert not ok
    fails = [line for line in lines if line.startswith("FAIL")]
    assert len(fails) == 1 and len(lines) == 8
    assert fails[0].startswith("FAIL block vs whole-basis propagation")
    (op,) = spaces
    assert op.dimension == orbits


def recording_matvec_callers(monkeypatch):
    """Record each matvec, of the block operator or of an orbit operator, as
    the name of the function that calls it and the operator's dimension."""
    callers = []
    for cls in (ed.HamiltonianOperator, ed._OrbitOperator):
        def recording_matvec(self, v, matvec=cls.matvec):
            callers.append((sys._getframe(1).f_code.co_name, self.dimension))
            return matvec(self, v)

        monkeypatch.setattr(cls, "matvec", recording_matvec)
    return callers


def test_only_run_quench_takes_matvecs_outside_the_propagation(monkeypatch):
    # A sweep reads no observable of a sample, so within the cap it takes
    # no matvec at all, and above it only its Krylov spaces' (``_lanczos``);
    # so does verify (the full-space configs are checked in
    # test_verify_checks_propagation_on_the_full_space). run_quench takes
    # one more per sample for its energy, on the 1,110-orbit operator.
    callers = recording_matvec_callers(monkeypatch)
    sector = quench.QuenchConfig(L1=3, L2=3, dt=0.5, sector_restrict=True)
    quench.long_time_average(sector, [0.3, 0.9], (50.0, 55.0))
    assert callers == []
    split = quench.QuenchConfig(L1=3, L2=3, field_mode="split_HV", kappa=1.0, dt=0.1)
    quench.long_time_average(split, [0.1], (1.0, 2.0))
    assert callers and {name for name, _ in callers} == {"_lanczos"}
    callers.clear()
    ok, lines = quench.verify(sector)
    assert ok, lines
    assert callers and {name for name, _ in callers} == {"_lanczos"}
    callers.clear()
    report = quench.run_quench(dataclasses.replace(split, h=0.3, t_max=0.2))
    observed = [dim for name, dim in callers if name != "_lanczos"]
    assert observed == [1110] * len(report.times) == [1110] * 3
    assert {name for name, _ in callers} == {"_lanczos", "observed_trajectory"}


@pytest.mark.parametrize("config", [
    quench.QuenchConfig(L1=3, L2=3, h=0.1, sector_restrict=True),
    quench.QuenchConfig(L1=3, L2=3, h=0.1, field_mode="split_HV", kappa=1.0),
], ids=["3x3-sector", "3x3-split_HV"])
def test_verify_fails_on_a_norm_keeping_expand_fault(monkeypatch, config):
    # A quench reads its norm, fidelity and energy from the orbit amplitudes,
    # before the one gather that expands them, so a fault there that keeps
    # the norm, each state taking its neighbour's orbit, passes the run's
    # own checks. verify's propagation check compares the expanded block
    # state with the whole space's, and fails, within the dense cap (13
    # orbits) and above it (1,110), and no other check does.
    expand = ed._OrbitOperator.expand

    def misplaced(self, y):
        return np.roll(expand(self, y), 1)

    monkeypatch.setattr(ed._OrbitOperator, "expand", misplaced)
    quench.run_quench(dataclasses.replace(config, t_max=0.2))
    ok, lines = quench.verify(config)
    assert not ok
    fails = [line for line in lines if line.startswith("FAIL")]
    assert len(fails) == 1 and len(lines) == 8
    assert fails[0].startswith("FAIL block vs whole-basis propagation")


def test_verify_fails_on_a_defective_ground_state(monkeypatch, capsys):
    ground_state = stabilizer.ground_state

    def defective(geometry, sector=(0, 0), basis=None):
        state = ground_state(geometry, sector, basis)
        if tuple(sector) == (1, 1):
            state.amplitudes[np.flatnonzero(state.amplitudes)[0]] *= -1
        return state

    monkeypatch.setattr(stabilizer, "ground_state", defective)
    ok, lines = quench.verify(small_config())
    assert not ok
    assert next(ln for ln in lines if "stabilizer eigenvalues" in ln).startswith("FAIL")
    assert cli.main(["verify", "--l1", "2", "--l2", "2"]) == 1
    out = capsys.readouterr().out
    assert "FAIL stabilizer eigenvalues" in out
    assert out.endswith("verify: FAILURES above\n")
