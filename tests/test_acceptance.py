"""Acceptance gate: one test per release criterion, pinned tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
asserts afterward, so a red run still shows the measured numbers.
"""

import time

import numpy as np

from toricsim import ed, entanglement, lattice, pauli, quench, stabilizer

SECTORS = [(0, 0), (0, 1), (1, 0), (1, 1)]


def _report(n, name, ok, detail):
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {n} failed: {detail}"


def _shipped_partitions():
    out = []
    for l1, l2 in [(2, 2), (2, 3), (3, 3)]:
        geo = lattice.build_lattice(l1, l2)
        for name in lattice.partition_presets(geo):
            out.append((geo, lattice.build_partition(geo, name)))
    return out


def test_criterion_1_ground_state_exactness():
    t_start = time.monotonic()
    worst_energy = 0.0
    worst_stab = 0.0
    worst_gram = 0.0
    for l1, l2 in [(2, 2), (2, 3)]:
        geo = lattice.build_lattice(l1, l2)
        for U, J in [(1.0, 1.0), (1.3, 0.7)]:
            op = ed.build_hamiltonian(ed.HamiltonianSpec(geo, U=U, J=J))
            states = [stabilizer.ground_state(geo, s) for s in SECTORS]
            target = -l1 * l2 * (U + J)
            for psi in states:
                worst_energy = max(
                    worst_energy, abs(op.expectation(psi.amplitudes) - target)
                )
        gens = stabilizer.star_operators(geo) + stabilizer.plaquette_operators(geo)
        for psi in states:
            for g in gens:
                worst_stab = max(
                    worst_stab,
                    float(
                        np.linalg.norm(stabilizer.apply_pauli(g, psi) - psi.amplitudes)
                    ),
                )
        gram = np.array(
            [[np.vdot(a.amplitudes, b.amplitudes) for b in states] for a in states]
        )
        worst_gram = max(worst_gram, float(np.max(np.abs(gram - np.eye(4)))))
    elapsed = time.monotonic() - t_start
    ok = (
        worst_energy < 1e-10
        and worst_stab < 1e-12
        and worst_gram < 1e-12
        and elapsed < 1.0
    )
    _report(
        1,
        "ground-state exactness (2x2, 2x3, all sectors)",
        ok,
        f"energy {worst_energy:.2e} (<1e-10), stabilizer {worst_stab:.2e} (<1e-12), "
        f"gram {worst_gram:.2e} (<1e-12), {elapsed:.2f} s (<1 s)",
    )


def test_criterion_2_gap_is_4j():
    t_start = time.monotonic()
    geo = lattice.build_lattice(2, 2)
    worst = 0.0
    for U, J in [(1.0, 1.0), (1.0, 0.7)]:
        w = np.linalg.eigvalsh(ed.build_hamiltonian(ed.HamiltonianSpec(geo, U=U, J=J)).dense())
        assert np.all(np.abs(w[:4] - w[0]) < 1e-8)
        worst = max(worst, abs((w[4] - w[0]) - 4 * J))
    elapsed = time.monotonic() - t_start
    ok = worst < 1e-8 and elapsed < 10.0
    _report(
        2,
        "gap above the 4-fold ground manifold equals 4J (2x2 full spectrum)",
        ok,
        f"gap residual {worst:.2e} (<1e-8), {elapsed:.2f} s (<10 s)",
    )


def test_criterion_3_local_indistinguishability():
    t_start = time.monotonic()
    geo33 = lattice.build_lattice(3, 3)
    states = {s: stabilizer.ground_state(geo33, s) for s in SECTORS}
    worst_local = 0.0
    for psi in states.values():
        for kind in "XYZ":
            for j in range(geo33.n_spins):
                worst_local = max(
                    worst_local,
                    abs(stabilizer.expectation(psi, pauli.single(geo33.n_spins, kind, j))),
                )
    worst_rdm = 0.0
    for geo, part in _shipped_partitions():
        sector_states = [stabilizer.ground_state(geo, s) for s in SECTORS]
        for region in part.regions:
            mats = [entanglement.reduce(s, region) for s in sector_states]
            for m in mats[1:]:
                worst_rdm = max(worst_rdm, float(np.max(np.abs(m - mats[0]))))
    elapsed = time.monotonic() - t_start
    ok = worst_local < 1e-10 and worst_rdm < 1e-10 and elapsed < 30.0
    _report(
        3,
        "local expectations vanish and sector RDMs agree on shipped regions",
        ok,
        f"sigma expectation {worst_local:.2e} (<1e-10), "
        f"RDM max-norm {worst_rdm:.2e} (<1e-10), {elapsed:.2f} s (<30 s)",
    )


def test_criterion_4_flat_spectrum_alpha_independence():
    t_start = time.monotonic()
    worst_flat = 0.0
    worst_alpha = 0.0
    worst_oracle = 0.0
    for geo, part in _shipped_partitions():
        psi = stabilizer.ground_state(geo)
        for region in part.regions:
            spec = entanglement.region_spectrum(psi, region)
            top = spec[spec > entanglement.RANK_CUTOFF * spec.max()]
            worst_flat = max(worst_flat, float(top.max() - top.min()))
            s123 = [entanglement.renyi(spec, a) for a in (1.0, 2.0, 3.0)]
            worst_alpha = max(worst_alpha, max(s123) - min(s123))
            worst_oracle = max(
                worst_oracle,
                abs(s123[0] - stabilizer.analytic_region_entropy(geo, region)),
            )
    elapsed = time.monotonic() - t_start
    ok = (
        worst_flat < 1e-10
        and worst_alpha < 1e-10
        and worst_oracle < 1e-10
        and elapsed < 60.0
    )
    _report(
        4,
        "flat spectra, alpha-independent entropies, GF(2) oracle agreement",
        ok,
        f"flatness {worst_flat:.2e}, S_1=S_2=S_3 spread {worst_alpha:.2e}, "
        f"oracle residual {worst_oracle:.2e} (all <1e-10), {elapsed:.2f} s (<1 min)",
    )


def test_criterion_5_topological_entropy_one_bit():
    t_start = time.monotonic()
    geo = lattice.build_lattice(3, 3)
    psi = stabilizer.ground_state(geo)
    worst = 0.0
    for preset in lattice.partition_presets(geo):
        part = lattice.build_partition(geo, preset)
        for alpha in (1.0, 2.0):
            report = entanglement.topological_entropy(psi, part, alpha)
            worst = max(worst, abs(report.s_top - 1.0))
    elapsed = time.monotonic() - t_start
    ok = worst < 1e-8 and elapsed < 60.0
    _report(
        5,
        "topological entropy is 1 bit on the 3x3 presets (alpha in {1,2})",
        ok,
        f"|S_top - 1| {worst:.2e} (<1e-8), {elapsed:.2f} s (<1 min)",
    )


def test_criterion_6_propagator_cross_check():
    t_start = time.monotonic()
    geo = lattice.build_lattice(2, 2)
    op = ed.build_hamiltonian(ed.HamiltonianSpec(geo, h=0.3))
    psi0 = stabilizer.ground_state(geo)
    e0 = op.expectation(psi0.amplitudes)
    worst_deficit = 0.0
    worst_drift = 0.0
    state_k = psi0
    dt = 0.5
    spectral = ed.trajectory(psi0, op, [k * dt for k in range(1, 21)])
    for state_s in spectral:
        state_k = ed.evolve(state_k, op, dt, tol=1e-10)
        worst_deficit = max(
            worst_deficit, abs(1.0 - entanglement.fidelity(state_s, state_k))
        )
        for s in (state_k, state_s):
            worst_drift = max(worst_drift, abs(op.expectation(s.amplitudes) - e0))
    elapsed = time.monotonic() - t_start
    ok = worst_deficit < 1e-8 and worst_drift < 1e-8 and elapsed < 60.0
    _report(
        6,
        "Krylov vs full-diagonalization propagation (8 spins, t in [0,10])",
        ok,
        f"fidelity deficit {worst_deficit:.2e} (<1e-8), "
        f"energy drift {worst_drift:.2e} (<1e-8), {elapsed:.2f} s (<1 min)",
    )


def test_criterion_7_size_ordering_of_quench_response():
    t_start = time.monotonic()
    sizes = [(2, 2, False), (2, 3, False), (3, 3, True)]
    mean_fid = []
    mean_dev = []
    dims = []
    for l1, l2, sector in sizes:
        cfg = quench.QuenchConfig(
            L1=l1,
            L2=l2,
            h=0.1,
            t_max=10.0,
            dt=0.1,
            alpha_list=(1.0,),
            sector_restrict=sector,
        )
        report = quench.run_quench(cfg)
        dims.append(report.metadata["basis_dimension"])
        s0 = report.entropy[1.0][0].s_top
        mean_fid.append(float(np.mean(report.fidelity)))
        mean_dev.append(
            float(np.mean([abs(r.s_top - s0) for r in report.entropy[1.0]]))
        )
    elapsed = time.monotonic() - t_start
    fid_ordered = mean_fid[0] > mean_fid[1] > mean_fid[2]
    dev_ordered = mean_dev[0] > mean_dev[1] > mean_dev[2]
    ok = fid_ordered and dev_ordered and dims[2] == 1024 and elapsed < 900.0
    _report(
        7,
        "quench response orders with size (8/12/18 spins, h=0.1)",
        ok,
        f"mean fidelity {mean_fid[0]:.4f} > {mean_fid[1]:.4f} > {mean_fid[2]:.4f}: "
        f"{fid_ordered}; mean |S_top - S_top(0)| {mean_dev[0]:.4f} > "
        f"{mean_dev[1]:.4f} > {mean_dev[2]:.4f}: {dev_ordered}; "
        f"18-spin sector dim {dims[2]} (=1024), {elapsed:.1f} s (<15 min)",
    )


def test_criterion_8_beta_sweep_shape():
    t_start = time.monotonic()
    cfg = quench.QuenchConfig(
        L1=3, L2=3, h=0.1, dt=0.1, alpha_list=(2.0,), sector_restrict=True
    )
    grid = [round(0.1 * k, 1) for k in range(1, 10)]
    rows = quench.long_time_average(cfg, grid, (50.0, 100.0))
    means = [row.mean_s_top for row in rows]
    elapsed = time.monotonic() - t_start
    near_one = abs(means[0] - 1.0) < 0.1
    k_min = int(np.argmin(means))
    interior = 0 < k_min < len(means) - 1
    ok = near_one and interior and elapsed < 1800.0
    _report(
        8,
        "long-time S_top over beta (18 spins, sector, alpha=2)",
        ok,
        f"mean at beta=0.1 is {means[0]:.3f} (|.-1|<0.1: {near_one}); "
        f"minimum {means[k_min]:.3f} at beta={rows[k_min].beta:g} "
        f"(interior: {interior}); full curve "
        + " ".join(f"{m:.3f}" for m in means)
        + f"; {elapsed:.1f} s (<30 min)",
    )


def test_criterion_9_csv_determinism(tmp_path):
    t_start = time.monotonic()
    identical = True
    for name, cfg in [
        (
            "full",
            quench.QuenchConfig(
                L1=2, L2=2, h=0.25, t_max=2.0, dt=0.5, alpha_list=(1.0, 2.0)
            ),
        ),
        (
            "sector",
            quench.QuenchConfig(
                L1=2, L2=3, h=0.2, t_max=1.0, dt=0.5, sector_restrict=True
            ),
        ),
    ]:
        p1 = tmp_path / f"{name}_1.csv"
        p2 = tmp_path / f"{name}_2.csv"
        quench.emit(quench.run_quench(cfg), "csv", p1)
        quench.emit(quench.run_quench(cfg), "csv", p2)
        identical &= p1.read_bytes() == p2.read_bytes()
    geo = lattice.build_lattice(3, 3)
    part = lattice.build_partition(geo, "levinwen-ring")
    psi = stabilizer.ground_state(geo)
    reports = [entanglement.topological_entropy(psi, part, a) for a in (1.0, 2.0)]
    identical &= entanglement.entropy_report_csv(
        reports, part
    ) == entanglement.entropy_report_csv(
        [entanglement.topological_entropy(psi, part, a) for a in (1.0, 2.0)], part
    )
    elapsed = time.monotonic() - t_start
    _report(
        9,
        "reruns produce byte-identical CSV",
        bool(identical),
        f"quench CSVs and entropy CSVs identical: {bool(identical)}, {elapsed:.2f} s",
    )
