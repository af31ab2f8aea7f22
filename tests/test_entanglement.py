"""Reduced matrices and entropies against a bit-packing partial-trace oracle."""

import tracemalloc

import numpy as np
import pytest

from toricsim import ed, entanglement, gf2, lattice, quench, stabilizer


def rho_oracle(amps, n, region):
    """Partial trace by explicit index packing, entry by entry.

    Bit i of a row index is region spin region[i] (ascending), matching the
    documented packing of the library.
    """
    region = sorted(region)
    rest = sorted(set(range(n)) - set(region))

    def pack(a, c):
        idx = 0
        for i, s in enumerate(region):
            if a >> i & 1:
                idx |= 1 << s
        for j, s in enumerate(rest):
            if c >> j & 1:
                idx |= 1 << s
        return idx

    d_a, d_b = 1 << len(region), 1 << len(rest)
    rho = np.zeros((d_a, d_a), dtype=np.complex128)
    for a in range(d_a):
        for b in range(d_a):
            acc = 0.0 + 0.0j
            for c in range(d_b):
                acc += amps[pack(a, c)] * np.conj(amps[pack(b, c)])
            rho[a, b] = acc
    return rho


def expanded_split(state, region):
    """Amplitudes as a (region x complement) matrix.

    Sector states are expanded to the full 2^N basis first. Row r holds the
    amplitudes with the region spins in configuration r, region spins
    packed ascending and least significant first.
    """
    n_spins = state.n_spins
    region = sorted(region)
    if not region:
        raise ValueError("region is empty")
    if len(region) >= n_spins:
        raise ValueError("region must be a proper subset of the spins")
    if region[0] < 0 or region[-1] >= n_spins:
        raise ValueError("region contains an out-of-range spin")
    if len(set(region)) != len(region):
        raise ValueError("region repeats a spin")
    amplitudes = np.zeros(1 << n_spins, dtype=np.complex128)
    amplitudes[state.basis.kept_indices] = state.amplitudes
    rest = sorted(set(range(n_spins)) - set(region))
    # Axis n-1-s of the reshaped tensor is spin s (axis 0 is the most
    # significant bit of the basis index).
    axes = [n_spins - 1 - s for s in reversed(region)]
    axes += [n_spins - 1 - s for s in reversed(rest)]
    tensor = amplitudes.reshape((2,) * n_spins).transpose(axes)
    return np.ascontiguousarray(tensor).reshape(1 << len(region), 1 << len(rest))


def assert_matches_expanded_split(state, region, tol=1e-12):
    """Basis-native reduce and region_spectrum against the 2^N split."""
    mat = expanded_split(state, region)
    rho = mat @ mat.conj().T
    got = entanglement.reduce(state, region)
    assert np.max(np.abs(got - rho)) < tol, region
    side = mat if mat.shape[0] <= mat.shape[1] else mat.T
    want = np.maximum(np.linalg.eigvalsh(side @ side.conj().T)[::-1], 0.0)
    lam = entanglement.region_spectrum(state, region)
    k = min(lam.size, want.size)
    assert np.max(np.abs(lam[:k] - want[:k])) < tol, region
    assert np.all(np.abs(lam[k:]) < tol) and np.all(np.abs(want[k:]) < tol), region


def random_state(rng, n):
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    v /= np.linalg.norm(v)
    return stabilizer.StateVector(v, stabilizer.Basis(n))


def product_state(n):
    v = np.zeros(1 << n, dtype=np.complex128)
    v[0] = 1.0
    return stabilizer.StateVector(v, stabilizer.Basis(n))


def test_reduce_product_state_is_pure():
    state = product_state(6)
    rho = entanglement.reduce(state, (1, 4))
    want = np.zeros((4, 4))
    want[0, 0] = 1.0
    assert np.allclose(rho, want, atol=1e-15)
    assert rho.shape == (4, 4)
    assert entanglement.renyi(np.linalg.eigvalsh(rho), 1.0) == 0.0


def test_reduce_single_spin_of_ground_state(geo22):
    state = stabilizer.ground_state(geo22)
    rho = entanglement.reduce(state, (0,))
    assert np.allclose(rho, 0.5 * np.eye(2), atol=1e-14)


def test_reduce_matches_packing_oracle():
    rng = np.random.default_rng(97)
    state = random_state(rng, 6)
    for region in [(0,), (5,), (0, 1), (2, 5), (0, 3, 4), (1, 2, 5)]:
        got = entanglement.reduce(state, region)
        want = rho_oracle(state.amplitudes, 6, region)
        assert np.max(np.abs(got - want)) < 1e-13, region


def test_reduce_region_order_is_canonical():
    rng = np.random.default_rng(101)
    state = random_state(rng, 5)
    a = entanglement.reduce(state, (3, 1))
    b = entanglement.reduce(state, (1, 3))
    assert stabilizer.check_region((3, 1), 5) == (1, 3)
    assert np.array_equal(a, b)


def test_reduced_matrix_is_a_state():
    rng = np.random.default_rng(103)
    state = random_state(rng, 7)
    rho = entanglement.reduce(state, (0, 2, 6))
    assert np.allclose(rho, rho.conj().T, atol=1e-14)
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho).min() > -1e-13


def test_sector_state_reduces_like_full(geo22):
    basis = ed.build_sector(geo22)
    full = stabilizer.ground_state(geo22)
    sec = basis.project(full)
    region = (0, 3, 6)
    a = entanglement.reduce(full, region)
    b = entanglement.reduce(sec, region)
    assert np.max(np.abs(a - b)) < 1e-14


def test_entanglement_spectrum_descending_and_normalized():
    rng = np.random.default_rng(107)
    state = random_state(rng, 6)
    lam = entanglement.region_spectrum(state, (1, 3, 4))
    assert np.all(np.diff(lam) <= 1e-15)
    assert abs(lam.sum() - 1.0) < 1e-12
    want = np.linalg.eigvalsh(rho_oracle(state.amplitudes, 6, (1, 3, 4)))[::-1]
    assert np.allclose(lam, want, atol=1e-12)


def test_region_spectrum_matches_dense_route(geo22):
    state = stabilizer.ground_state(geo22)
    rng = np.random.default_rng(109)
    rand = random_state(rng, 8)
    for psi, region in [(state, (0, 3, 6)), (rand, (1, 2, 7)), (rand, (0, 4))]:
        fast = np.sort(entanglement.region_spectrum(psi, region))[::-1]
        dense = np.linalg.eigvalsh(entanglement.reduce(psi, region))[::-1]
        assert np.allclose(fast, dense[: fast.size], atol=1e-12)
        assert np.all(np.abs(dense[fast.size :]) < 1e-12)


def test_ground_state_spectra_are_flat(geo23):
    state = stabilizer.ground_state(geo23)
    part = lattice.build_partition(geo23, "levinwen-small")
    for region in part.regions:
        lam = entanglement.region_spectrum(state, region)
        r = int(np.sum(lam > entanglement.RANK_CUTOFF * lam.max()))
        assert r == 2 ** round(stabilizer.analytic_region_entropy(geo23, region))
        nonzero = lam[lam > 1e-12 * lam.max()]
        assert np.max(np.abs(nonzero - 1.0 / r)) < 1e-10


def test_renyi_flat_spectrum_counts_bits():
    for r in (1, 2, 4, 8):
        lam = np.full(r, 1.0 / r)
        for alpha in (0.5, 1.0, 2.0, 3.0, 7.0):
            assert abs(entanglement.renyi(lam, alpha) - np.log2(r)) < 1e-12


def test_renyi_known_values_and_clipping():
    lam = np.array([0.5, 0.25, 0.25])
    assert abs(entanglement.renyi(lam, 1.0) - 1.5) < 1e-12
    assert abs(entanglement.renyi(lam, 2.0) - np.log2(1 / 0.375)) < 1e-12
    noisy = np.array([0.5, 0.25, 0.25, 1e-16, -3e-17])
    for alpha in (0.5, 1.0, 2.0):
        assert abs(
            entanglement.renyi(noisy, alpha) - entanglement.renyi(lam, alpha)
        ) < 1e-10
    assert entanglement.renyi(np.array([1.0]), 1.0) == 0.0
    with pytest.raises(ValueError):
        entanglement.renyi(lam, 0.0)
    with pytest.raises(ValueError):
        entanglement.renyi(lam, -2.0)


@pytest.mark.parametrize("alpha", [300.0, 1e300])
def test_renyi_large_index_gives_the_rank_bits_of_a_flat_spectrum(geo33, alpha):
    # lambda^alpha underflows to zero at these indices, and the entropy was
    # inf; the powers of lambda / lambda_max keep their largest term at 1.
    # A flat ground-state spectrum gives its GF(2) rank bits, and a spectrum
    # that is not flat tends to the min-entropy, -log2 lambda_max.
    psi = stabilizer.ground_state(geo33, (0, 0), ed.build_sector(geo33))
    part = lattice.build_partition(geo33, "levinwen-small")
    for region in part.regions:
        spectrum = entanglement.region_spectrum(psi, region)
        bits = stabilizer.analytic_region_entropy(geo33, region)
        assert abs(entanglement.renyi(spectrum, alpha) - bits) < 1e-12
    assert abs(entanglement.topological_entropy(psi, part, alpha).s_top - 1.0) < 1e-12
    lam = np.array([0.5, 0.25, 0.25])
    want = 1.0 + (np.log2(1.0 + 2.0 ** (1.0 - alpha)) - 1.0) / (1.0 - alpha)
    assert abs(entanglement.renyi(lam, alpha) - want) < 1e-12


def test_renyi_continuous_at_alpha_one():
    rng = np.random.default_rng(113)
    lam = rng.random(6)
    lam /= lam.sum()
    s1 = entanglement.renyi(lam, 1.0)
    assert abs(entanglement.renyi(lam, 1.0 + 1e-6) - s1) < 1e-4
    assert abs(entanglement.renyi(lam, 1.0 - 1e-6) - s1) < 1e-4


def all_preset_cases():
    cases = []
    for l1, l2 in [(2, 2), (2, 3), (3, 3)]:
        geo = lattice.build_lattice(l1, l2)
        for name in lattice.partition_presets(geo):
            cases.append((geo, lattice.build_partition(geo, name)))
    return cases


def test_topological_entropy_is_one_bit_everywhere():
    for geo, part in all_preset_cases():
        for sector in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            state = stabilizer.ground_state(geo, sector)
            for alpha in (1.0, 2.0):
                report = entanglement.topological_entropy(state, part, alpha)
                assert abs(report.s_top - 1.0) < 1e-8, (part.label, sector, alpha)
                for i, region in enumerate(part.regions):
                    want = stabilizer.analytic_region_entropy(geo, region)
                    got = (report.s1, report.s2, report.s3, report.s4)[i]
                    assert abs(got - want) < 1e-10


def test_topological_entropy_vanishes_for_product_state(geo22):
    part = lattice.build_partition(geo22, "levinwen-small")
    report = entanglement.topological_entropy(product_state(8), part, 1.0)
    assert report.s1 == report.s2 == report.s3 == report.s4 == 0.0
    assert report.s_top == 0.0


def test_topological_entropy_collapses_when_polarized(geo22):
    # a strong uniform field drives the ground state toward a product state
    op = ed.build_hamiltonian(ed.HamiltonianSpec(geo22, h=6.0))
    _, vecs = np.linalg.eigh(op.dense())
    state = stabilizer.StateVector(vecs[:, 0], stabilizer.Basis(geo22.n_spins))
    part = lattice.build_partition(geo22, "levinwen-small")
    report = entanglement.topological_entropy(state, part, 1.0)
    assert abs(report.s_top) < 0.05


def test_entropy_report_combination():
    report = entanglement.EntropyReport(alpha=2.0, s1=2.0, s2=1.0, s3=2.0, s4=2.0)
    assert report.s_top == 0.5


def test_fidelity_properties(geo22):
    a = stabilizer.ground_state(geo22, (0, 0))
    b = stabilizer.ground_state(geo22, (1, 0))
    assert abs(entanglement.fidelity(a, a) - 1.0) < 1e-14
    assert entanglement.fidelity(a, b) < 1e-14
    shifted = stabilizer.StateVector(
        np.exp(0.7j) * a.amplitudes, stabilizer.Basis(geo22.n_spins)
    )
    assert abs(entanglement.fidelity(a, shifted) - 1.0) < 1e-14
    sec = ed.build_sector(geo22).project(a)
    with pytest.raises(ValueError):
        entanglement.fidelity(a, sec)


def test_region_size_caps(geo33):
    state = product_state(geo33.n_spins)
    with pytest.raises(ValueError, match="cap"):
        entanglement.reduce(state, tuple(range(15)))
    # the spectrum forms no dense rho: a 15-spin region is a 2^15 x 8 split
    part = lattice.RegionPartition(
        regions=(tuple(range(15)), (0,), (1,), (2,)), label="big"
    )
    report = entanglement.topological_entropy(state, part, 1.0)
    assert report.s1 == report.s2 == report.s3 == report.s4 == 0.0


def test_split_validation_errors():
    state = product_state(4)
    with pytest.raises(ValueError):
        entanglement.reduce(state, ())
    with pytest.raises(ValueError):
        entanglement.reduce(state, (0, 1, 2, 3))
    with pytest.raises(ValueError):
        entanglement.reduce(state, (0, 9))
    with pytest.raises(ValueError):
        entanglement.reduce(state, (0, 0, 1))


@pytest.mark.parametrize("sector", [False, True])
def test_topological_entropy_of_complement_regions(geo33, sector):
    # The complements of the 3x3 levinwen-small regions hold 14 and 15 spins.
    # A pure state has S(A) = S(complement of A), so S_top stays one bit.
    psi = stabilizer.ground_state(geo33)
    if sector:
        psi = ed.build_sector(geo33).project(psi)
    part = lattice.build_partition(geo33, "levinwen-small")
    rest = tuple(tuple(sorted(set(range(geo33.n_spins)) - set(r))) for r in part.regions)
    assert sorted({len(r) for r in rest}) == [14, 15]
    complement = lattice.RegionPartition(regions=rest, label="complement")
    for alpha in (1.0, 2.0):
        got = entanglement.topological_entropy(psi, complement, alpha)
        want = entanglement.topological_entropy(psi, part, alpha)
        assert abs(got.s_top - 1.0) < 1e-10
        for name in ("s1", "s2", "s3", "s4"):
            assert abs(getattr(got, name) - getattr(want, name)) < 1e-10


def test_entropy_report_csv_format(geo22):
    part = lattice.build_partition(geo22, "levinwen-small")
    r1 = entanglement.EntropyReport(alpha=1.0, s1=2.0, s2=1.0, s3=2.0, s4=1.0)
    r2 = entanglement.EntropyReport(alpha=2.0, s1=0.125, s2=0.0, s3=0.0, s4=0.0)
    text = entanglement.entropy_report_csv([r1], part)
    lines = text.splitlines()
    assert lines[0] == "region_label,alpha,entropy_bits"
    assert lines[1] == "levinwen-small:R1,1,2"
    assert lines[5] == "levinwen-small:S_top,1,1"
    assert len(lines) == 6
    both = entanglement.entropy_report_csv([r1, r2], part).splitlines()
    assert len(both) == 11
    assert both[6] == "levinwen-small:R1,2,0.125"
    assert both[10] == "levinwen-small:S_top,2,0.0625"


def random_in_basis(rng, basis):
    v = rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(basis.dimension)
    return stabilizer.StateVector(v / np.linalg.norm(v), basis)


def test_sector_split_matches_expanded_route_at_strong_field(geo33):
    basis = ed.build_sector(geo33)
    psi0 = basis.project(stabilizer.ground_state(geo33))
    op = ed.build_hamiltonian(ed.HamiltonianSpec(geo33, h=9.0), basis)
    presets = [lattice.build_partition(geo33, name) for name in lattice.partition_presets(geo33)]
    assert len(presets) == 2
    for state in ed.trajectory(psi0, op, [0.0, 50.0, 100.0]):
        for part in presets:
            spectra = []
            for region in part.regions:
                assert_matches_expanded_split(state, region)
                mat = expanded_split(state, region)
                spectra.append(np.linalg.eigvalsh(mat @ mat.conj().T))
            for alpha in (1.0, 2.0):
                got = entanglement.topological_entropy(state, part, alpha).s_top
                s1, s2, s3, s4 = (entanglement.renyi(lam, alpha) for lam in spectra)
                assert abs(got - 0.5 * (s1 + s3 - s2 - s4)) < 1e-12


def test_sector_split_matches_expanded_route_2x3_and_random(geo22, geo23, geo33):
    rng = np.random.default_rng(223)
    basis23 = ed.build_sector(geo23)
    psi0 = basis23.project(stabilizer.ground_state(geo23))
    op = ed.build_hamiltonian(ed.HamiltonianSpec(geo23, h=2.0), basis23)
    cases = [(geo23, s) for s in ed.trajectory(psi0, op, [0.0, 3.0])]
    for geo in (geo22, geo23, geo33):
        cases.append((geo, random_in_basis(rng, ed.build_sector(geo))))
    for geo, state in cases:
        regions = [r for name in lattice.partition_presets(geo)
                   for r in lattice.build_partition(geo, name).regions]
        regions += [tuple(sorted(rng.choice(geo.n_spins, size=k, replace=False)))
                    for k in (1, 3, geo.n_spins // 2, min(geo.n_spins - 1, 10))]
        for region in regions:
            assert_matches_expanded_split(state, region)


def test_bases_of_equal_size_keep_their_own_split_maps():
    rng = np.random.default_rng(227)
    n = 8
    a = stabilizer.Basis(n, rng.choice(1 << n, size=5, replace=False))
    b = stabilizer.Basis(n, rng.choice(1 << n, size=5, replace=False))
    assert a != b and a.dimension == b.dimension == 32
    region = (1, 4, 6)
    pos_a, (n_a, rows_a, cols_a) = a.split_positions(region)
    pos_b, (n_b, rows_b, cols_b) = b.split_positions(region)
    for basis, pos in ((a, pos_a), (b, pos_b)):
        state = random_in_basis(rng, basis)
        assert_matches_expanded_split(state, region)
        assert basis.split_positions(region)[0] is pos  # memoised on the instance
    assert not ((n_a, rows_a, cols_a) == (n_b, rows_b, cols_b)
                and np.array_equal(pos_a, pos_b))


def bit_permutation_split(n_spins, region):
    """The full basis's split map as a bit permutation: each spin adds a
    fixed weight to the flat position, region spins packed ascending above
    the complement spins. The oracle of the coset construction on 2^N."""
    rest = [s for s in range(n_spins) if s not in region]
    weight = [0] * n_spins
    for i, s in enumerate(region):
        weight[s] = 1 << (len(rest) + i)
    for j, s in enumerate(rest):
        weight[s] = 1 << j
    positions = np.zeros(1, dtype=np.int64)
    for w in weight:
        positions = np.concatenate([positions, positions + w])
    return positions, (1, 1 << len(region), 1 << len(rest))


def test_full_basis_split_is_the_bit_permutation():
    for geo, part in all_preset_cases():
        basis = stabilizer.Basis(geo.n_spins)
        for region in part.regions:
            split = basis.split_positions(region)
            want_positions, want_shape = bit_permutation_split(geo.n_spins, region)
            assert split[1] == want_shape, (part.label, region)
            assert np.array_equal(split[0], want_positions), (part.label, region)
            assert basis.split_positions(region) is split  # memoised on the instance


def test_split_runs_on_a_40_spin_basis_without_2_to_the_n():
    rng = np.random.default_rng(233)
    n = 40
    # Two flips inside the region make states share their complement, so the
    # spectra are not trivial.
    region = (0, 3, 17, 21, 39)
    flips = [int(x) for x in rng.integers(0, 1 << n, size=4, dtype=np.int64)]
    flips += [sum(1 << region[i] for i in range(5) if k >> i & 1) for k in (6, 19)]
    state = random_in_basis(rng, stabilizer.Basis(n, flips))
    kept = state.basis.kept_indices
    assert kept.size == 64
    region_mask = sum(1 << s for s in region)

    def row(k):
        return sum(1 << i for i, s in enumerate(region) if k >> s & 1)

    rho = np.zeros((32, 32), dtype=np.complex128)
    for k, ak in zip(kept.tolist(), state.amplitudes):
        for l, al in zip(kept.tolist(), state.amplitudes):
            if (k ^ l) & ~region_mask == 0:
                rho[row(k), row(l)] += ak * np.conj(al)
    got = entanglement.reduce(state, region)
    assert got.shape == (32, 32)
    assert np.max(np.abs(got - rho)) < 1e-14
    want = np.linalg.eigvalsh(rho)[::-1]
    lam = entanglement.region_spectrum(state, region)
    assert np.max(np.abs(lam - want[: lam.size])) < 1e-14
    assert np.all(np.abs(want[lam.size :]) < 1e-14)
    assert entanglement.renyi(lam, 1.0) > 0.1


def test_region_spectrum_of_a_40_spin_span_allocates_no_2_to_the_region():
    # A 30-spin region of a 64-state, 40-spin span: its coset classes hold
    # 64 entries, where the 2^|A| x n_c split would need 2^30 rows.
    rng = np.random.default_rng(239)
    flips = [int(x) for x in rng.integers(0, 1 << 40, size=6, dtype=np.int64)]
    state = random_in_basis(rng, stabilizer.Basis(40, flips))
    kept = state.basis.kept_indices
    assert kept.size == 64
    region = tuple(range(30))
    # Brute force over the region configurations that occur.
    configs = kept & ((1 << 30) - 1)
    labels, row = np.unique(configs, return_inverse=True)
    rho = np.zeros((labels.size, labels.size), dtype=np.complex128)
    for k in range(kept.size):
        for l in range(kept.size):
            if kept[k] >> 30 == kept[l] >> 30:
                rho[row[k], row[l]] += state.amplitudes[k] * np.conj(state.amplitudes[l])
    want = np.linalg.eigvalsh(rho)[::-1]
    tracemalloc.start()
    try:
        lam = entanglement.region_spectrum(state, region)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    assert lam.size <= want.size
    assert np.max(np.abs(lam - want[: lam.size])) < 1e-14
    assert np.all(np.abs(want[lam.size :]) < 1e-14)
    # the 3x3 full space splits into 2^18 entries
    geo = lattice.build_lattice(3, 3)
    lam = entanglement.region_spectrum(stabilizer.ground_state(geo), tuple(range(9)))
    assert abs(entanglement.renyi(lam, 2.0) - entanglement.renyi(lam, 1.0)) < 1e-12


def test_star_block_splits_into_coset_classes(geo33):
    # levinwen-small holds no star flip: every class is one row, rho_A diagonal.
    # levinwen-ring's R2 holds one, so its classes are cosets of 2.
    rng = np.random.default_rng(241)
    basis = ed.build_block(ed.HamiltonianSpec(geo33, h=9.0))
    assert basis.dimension == 256
    state = random_in_basis(rng, basis)
    small = lattice.build_partition(geo33, "levinwen-small")
    ring = lattice.build_partition(geo33, "levinwen-ring")
    rows = {}
    for part in (small, ring):
        for region in part.regions:
            assert_matches_expanded_split(state, region)
            n_classes, rows[part.label, region], cols = basis.split_positions(region)[1]
            assert n_classes * rows[part.label, region] * cols == basis.dimension
            # no more values than the smaller side of the 2^|A| x n_c split
            n_c = np.unique(basis.kept_indices & ~gf2.mask(region)).size
            lam = entanglement.region_spectrum(state, region)
            assert lam.size <= min(1 << len(region), n_c)
    assert {rows["levinwen-small", r] for r in small.regions} == {1}
    assert sorted(rows["levinwen-ring", r] for r in ring.regions) == [1, 1, 1, 2]


def test_split_hv_block_splits_into_cosets_of_four(geo33):
    # The vertical-spin flips inside each region make every class four rows.
    rng = np.random.default_rng(251)
    spec = ed.HamiltonianSpec(geo33, h=9.0, kappa=1.0, field_mode="split_HV")
    basis = ed.build_block(spec)
    assert basis.dimension == 1 << 15
    state = random_in_basis(rng, basis)
    for region in lattice.build_partition(geo33, "levinwen-small").regions:
        assert_matches_expanded_split(state, region)
        n_classes, rows, cols = basis.split_positions(region)[1]
        assert rows == 4 and n_classes * rows * cols == basis.dimension


def test_full_and_arbitrary_bases_split_like_the_expanded_route(geo23):
    rng = np.random.default_rng(257)
    full = random_state(rng, geo23.n_spins)
    # A random span of seven flips, with no relation to the lattice.
    flips = rng.choice(1 << geo23.n_spins, size=7, replace=False)
    odd = random_in_basis(rng, stabilizer.Basis(geo23.n_spins, flips))
    assert odd.basis.dimension == 64  # the seven flips have rank 6
    regions = list(lattice.build_partition(geo23, "levinwen-small").regions)
    regions += [tuple(sorted(rng.choice(geo23.n_spins, size=k, replace=False)))
                for k in (1, 4, 6, 9, 11)]
    for region in regions:
        assert_matches_expanded_split(full, region)
        assert full.basis.split_positions(region)[1] == (
            1, 1 << len(region), 1 << (geo23.n_spins - len(region)))
        assert_matches_expanded_split(odd, region)
        positions, (n_classes, rows, cols) = odd.basis.split_positions(region)
        assert positions.size == n_classes * rows * cols


def test_4x4_sector_regions_follow_the_group_rule():
    # The shipped 4x4 preset, validated as the 3x3 ones are, on the four
    # sector ground states: the 2^17-state sector splits into one-row
    # classes of 2^13 or 2^14 columns, each region's spectrum is flat with
    # the GF(2) rule's bits at every index, and S_top is 1 bit.
    geo = lattice.build_lattice(4, 4)
    basis = ed.build_sector(geo)
    assert basis.dimension == 1 << 17
    assert lattice.partition_presets(geo) == ("levinwen-small",)
    part = lattice.build_partition(geo, "levinwen-small")
    want = [stabilizer.analytic_region_entropy(geo, r) for r in part.regions]
    assert want == [4.0, 3.0, 4.0, 3.0]
    for region in part.regions:
        assert basis.split_positions(region)[1] == (1 << len(region), 1, 1 << (17 - len(region)))
    for sector in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        psi = stabilizer.ground_state(geo, sector, basis)
        for region, bits in zip(part.regions, want):
            spec = entanglement.region_spectrum(psi, region)
            top = spec[spec > entanglement.RANK_CUTOFF * spec.max()]
            assert top.size == 1 << int(bits) and top.max() - top.min() < 1e-10
            for alpha in (1.0, 2.0, 3.0):
                assert abs(entanglement.renyi(spec, alpha) - bits) < 1e-10
        for alpha in (1.0, 2.0):
            report = entanglement.topological_entropy(psi, part, alpha)
            got = [report.s1, report.s2, report.s3, report.s4]
            assert np.max(np.abs(np.subtract(got, want))) < 1e-10
            assert abs(report.s_top - 1.0) < 1e-10, (sector, alpha)


def region_rows_oracle(basis, spins):
    """``Basis.region_rows`` as first built: one pass over the kept indices
    per spin."""
    idx = basis.kept_indices
    rows = np.zeros_like(idx)
    for i, s in enumerate(spins):
        rows |= ((idx >> s) & 1) << i
    return rows


def split_positions_oracle(basis, region):
    """The kept-basis split map as first built: coset classes numbered by
    ``np.unique`` of their labels, columns ranked by a second stable sort."""
    rows = region_rows_oracle(basis, region)
    rest_mask = ((1 << basis.n_spins) - 1) ^ gf2.mask(region)
    _, column = np.unique(basis.kept_indices & rest_mask, return_inverse=True)
    ref = np.empty(column.max() + 1, dtype=np.int64)
    ref[column] = rows
    generators = []
    diff = rows ^ ref[column]
    while (diff := diff[diff != 0]).size:
        generators.append(int(diff.max()))
        diff = np.minimum(diff, diff ^ generators[-1])
    for g in generators:
        ref = np.minimum(ref, ref ^ g)
    _, col_cls = np.unique(ref, return_inverse=True)
    counts = np.bincount(col_cls)
    col_rank = np.empty_like(col_cls)
    col_rank[np.argsort(col_cls, kind="stable")] = (
        np.arange(col_cls.size) - np.repeat(np.cumsum(counts) - counts, counts))
    pivots = sorted(g.bit_length() - 1 for g in generators)
    slot = region_rows_oracle(basis, tuple(region[p] for p in pivots))
    shape = (int(counts.size), 1 << len(generators), int(counts.max()))
    return (col_cls[column] * shape[1] + slot) * shape[2] + col_rank[column], shape


def test_split_map_matches_the_two_sort_construction(geo23, geo33):
    rng = np.random.default_rng(263)

    def presets(geo):
        return [r for name in lattice.partition_presets(geo)
                for r in lattice.build_partition(geo, name).regions]

    split_hv = ed.HamiltonianSpec(geo33, h=0.3, kappa=1.0, field_mode="split_HV")
    odd = rng.choice(1 << geo23.n_spins, size=7, replace=False)
    cases = [
        (ed.build_sector(geo33), presets(geo33)),
        (ed.build_block(ed.HamiltonianSpec(geo33, h=0.3)), presets(geo33)),
        (ed.build_block(split_hv), presets(geo33)),
        (stabilizer.Basis(geo23.n_spins, odd), presets(geo23)),
        (stabilizer.Basis(geo33.n_spins), lattice.build_partition(geo33, "levinwen-small").regions),
    ]
    # Seeded random spans of 3 to 13 spins with random rank.
    for _ in range(24):
        n = int(rng.integers(3, 14))
        flips = rng.integers(0, 1 << n, size=int(rng.integers(1, n + 2))).tolist()
        cases.append((stabilizer.Basis(n, flips), []))
    for basis, regions in cases:
        n = basis.n_spins
        regions = list(regions)
        regions += [tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
                    for k in (1, min(5, n - 1), int(rng.integers(1, n)), n - 1)]
        # numpy-int spins place the states as plain ints do
        regions.append(tuple(np.sort(rng.choice(n, size=int(rng.integers(1, n)), replace=False))))
        for region in regions:
            positions, shape = basis.split_positions(region)
            want_positions, want_shape = split_positions_oracle(basis, region)
            assert shape == want_shape, region
            assert np.array_equal(positions, want_positions), region
            assert np.array_equal(basis.region_rows(region), region_rows_oracle(basis, region))
        assert np.array_equal(basis.region_rows(basis.pivots), np.arange(basis.dimension))


def test_split_map_is_linear_and_sorts_nothing(geo33, monkeypatch):
    # Every map of the split route is GF(2)-linear in the position, so it
    # is built by doubling over the generators, with no sort.
    basis = ed.build_block(ed.HamiltonianSpec(geo33, h=9.0, kappa=1.0, field_mode="split_HV"))
    assert basis.dimension == 1 << 15
    regions = lattice.build_partition(geo33, "levinwen-small").regions

    def refuse(*args, **kwargs):
        raise AssertionError("the split route sorts")

    with monkeypatch.context() as patch:
        for name in ("unique", "argsort", "sort"):
            patch.setattr(np, name, refuse)
        maps = [basis.split_positions(region)[0] for region in regions]
    rng = np.random.default_rng(269)
    a, b = rng.integers(0, basis.dimension, size=(2, 200))
    for f in [basis.kept_indices, *maps, *(basis.region_rows(r) for r in regions)]:
        assert np.array_equal(f[a ^ b], f[a] ^ f[b])


def per_state_reports(states, partition, alphas):
    """The per-state route: each state's region spectra by one ``eigvalsh``
    of its coset blocks, and the Renyi entropy of the spectrum compressed
    to its values above the cutoff, for each index. The oracle of
    ``entropy_series``."""

    def spectrum(state, region):
        positions, shape = state.basis.split_positions(region)
        stack = np.zeros(np.prod(shape), dtype=np.complex128)
        stack[positions] = state.amplitudes
        stack = stack.reshape(shape)
        if shape[1] > shape[2]:
            stack = stack.transpose(0, 2, 1)
        gram = stack @ stack.conj().transpose(0, 2, 1)
        return np.maximum(np.sort(np.linalg.eigvalsh(gram), axis=None)[::-1], 0.0)

    def renyi(lam, alpha):
        lam = lam[lam > entanglement.RANK_CUTOFF * max(lam.max(initial=0.0), 0.0)]
        if lam.size == 0:
            return 0.0
        if alpha == 1.0:
            return float(-np.sum(lam * np.log2(lam)))
        log_top = np.log2(lam.max())
        return float((np.log2(np.sum((lam / lam.max()) ** alpha)) + log_top) / (1.0 - alpha)
                     - log_top)

    reports = {alpha: [] for alpha in alphas}
    for state in states:
        spectra = [spectrum(state, region) for region in partition.regions]
        for alpha in alphas:
            reports[alpha].append(
                entanglement.EntropyReport(alpha, *(renyi(lam, alpha) for lam in spectra)))
    return {alpha: tuple(reps) for alpha, reps in reports.items()}


def test_entropy_series_matches_the_per_state_route_across_chunks():
    # 101 samples of the 256-state block fill one chunk of 64 states and
    # part of a second; both presets, four Renyi indices, bit for bit.
    config = quench.QuenchConfig(L1=3, L2=3, h=9.0, t_max=100.0, dt=1.0, sector_restrict=True)
    _, _, psi0, op = quench._prepare(config)
    assert op.dimension == 256 and entanglement.CHUNK_AMPLITUDES // 256 == 64
    states = list(ed.trajectory(psi0, op, quench._time_grid(config.t_max, config.dt)))
    assert len(states) == 101
    alphas = (1.0, 2.0, 3.0, 0.5)
    geo = lattice.build_lattice(3, 3)
    for name in lattice.partition_presets(geo):
        part = lattice.build_partition(geo, name)
        assert entanglement.entropy_series(states, part, alphas) == per_state_reports(
            states, part, alphas)


def test_entropy_series_on_the_split_hv_block_takes_one_state_per_chunk(geo33):
    # A 32,768-state state is more than a chunk's amplitudes, so each chunk
    # holds that one state.
    rng = np.random.default_rng(269)
    basis = ed.build_block(ed.HamiltonianSpec(geo33, h=9.0, kappa=1.0, field_mode="split_HV"))
    assert basis.dimension > entanglement.CHUNK_AMPLITUDES
    states = [random_in_basis(rng, basis) for _ in range(3)]
    part = lattice.build_partition(geo33, "levinwen-small")
    rows = []
    region_spectra = entanglement.region_spectra

    def recording(amplitudes, basis, region):
        rows.append(amplitudes.shape[0])
        return region_spectra(amplitudes, basis, region)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(entanglement, "region_spectra", recording)
        got = entanglement.entropy_series(states, part, (1.0, 2.0))
    assert rows == [1] * 12
    assert got == per_state_reports(states, part, (1.0, 2.0))


@pytest.mark.parametrize("alphas", [(2.0,), (1.0, 2.0, 3.0)])
def test_region_spectra_are_built_once_per_region_per_chunk(geo33, monkeypatch, alphas):
    basis = ed.build_block(ed.HamiltonianSpec(geo33, h=0.3))
    rng = np.random.default_rng(271)
    part = lattice.build_partition(geo33, "levinwen-small")
    pulled = []

    def states():
        for _ in range(130):
            pulled.append(1)
            yield random_in_basis(rng, basis)

    calls = []
    region_spectra = entanglement.region_spectra

    def recording(amplitudes, basis, region):
        calls.append((amplitudes.shape[0], len(pulled)))
        return region_spectra(amplitudes, basis, region)

    monkeypatch.setattr(entanglement, "region_spectra", recording)
    series = entanglement.entropy_series(states(), part, alphas)
    assert sorted(series) == sorted(alphas)
    assert all(len(reports) == 130 for reports in series.values())
    # chunks of 64, 64 and 2 states, each read only once it is needed
    assert calls == [(64, 64)] * 4 + [(64, 128)] * 4 + [(2, 130)] * 4


def test_entropy_series_refuses_bad_indices_and_mixed_bases(geo22):
    part = lattice.build_partition(geo22, "levinwen-small")
    psi = stabilizer.ground_state(geo22)
    pulled = []

    def states():
        pulled.append(1)
        yield psi

    for alpha in (0.0, -1.0, np.inf):
        with pytest.raises(ValueError, match="Renyi index"):
            entanglement.entropy_series(states(), part, (1.0, alpha))
    assert not pulled
    sector = ed.build_sector(geo22).project(psi)
    with pytest.raises(ValueError, match="bases"):
        entanglement.entropy_series([psi, sector], part, (1.0,))
    assert entanglement.entropy_series([], part, (1.0, 2.0)) == {1.0: (), 2.0: ()}


def test_renyi_rows_ignore_trailing_zeros():
    # Each row is summed over its kept values only, so zeros, round-off
    # negatives and order leave a row's entropy bit for bit unchanged.
    rng = np.random.default_rng(277)
    for k in (1, 3, 7, 8, 9, 16, 100, 129):
        lam = np.sort(rng.random(k))[::-1]
        lam /= lam.sum()
        padded = np.zeros((3, k + 40))
        padded[0, :k] = lam
        padded[1, 40:] = lam[::-1]
        padded[2, :k] = lam
        padded[2, k:] = -1e-17
        for alpha in (1.0, 2.0, 3.0, 0.5):
            want = entanglement.renyi(lam, alpha)
            assert isinstance(want, float)
            assert entanglement.renyi(padded, alpha).tolist() == [want] * 3
    assert entanglement.renyi(np.zeros((2, 4)), 2.0).tolist() == [0.0, 0.0]


def test_region_spectrum_is_one_row_of_region_spectra(geo33):
    rng = np.random.default_rng(281)
    basis = ed.build_sector(geo33)
    states = [random_in_basis(rng, basis) for _ in range(5)]
    amps = np.stack([s.amplitudes for s in states])
    for region in lattice.build_partition(geo33, "levinwen-ring").regions:
        spectra = entanglement.region_spectra(amps, basis, region)
        assert spectra.shape[0] == 5
        for state, row in zip(states, spectra):
            assert np.array_equal(entanglement.region_spectrum(state, region), row)
            assert np.all(np.diff(row) <= 0) and np.all(row >= 0)
    with pytest.raises(ValueError, match="rows"):
        entanglement.region_spectra(amps[0], basis, (0, 1))
