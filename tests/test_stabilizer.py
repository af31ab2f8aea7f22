"""Ground-state construction checked against brute-force group enumeration."""

import itertools

import numpy as np
import pytest

from basis_oracle import locate
from pauli_algebra import commutes, pauli_multiply
from toricsim import ed, entanglement, gf2, lattice, pauli, stabilizer


def star_masks(geo):
    return [sum(1 << s for s in sup) for sup in geo.star_supports]


def spanset(masks):
    span = {0}
    for m in masks:
        span |= {t ^ m for t in span}
    return span


def amps_dict(state):
    return {
        int(k): complex(a)
        for k, a in zip(state.basis.kept_indices, state.amplitudes)
        if a != 0
    }


def apply_scalar(op, amps):
    """Independent Pauli application on a sparse amplitude dict."""
    phase = (1 + 0j, 1j, -1 + 0j, -1j)[op.phase_exp % 4]
    out = {}
    for idx, a in amps.items():
        sign = -1.0 if (op.z_mask & idx).bit_count() % 2 else 1.0
        tgt = idx ^ op.x_mask
        out[tgt] = out.get(tgt, 0.0) + phase * sign * a
    return out


def dense_entropy_bits(state, region):
    """Schmidt entropy of a full-basis state via reshape and SVD."""
    n = state.n_spins
    psi = state.amplitudes.reshape([2] * n)
    raxes = [n - 1 - s for s in sorted(region)]
    oaxes = [ax for ax in range(n) if ax not in raxes]
    mat = np.transpose(psi, raxes + oaxes).reshape(1 << len(region), -1)
    lam = np.linalg.svd(mat, compute_uv=False) ** 2
    lam = lam[lam > 1e-12]
    return float(-(lam * np.log2(lam)).sum())


SECTORS = [(0, 0), (0, 1), (1, 0), (1, 1)]


@pytest.mark.parametrize("l1,l2", [(2, 2), (2, 3), (3, 3)])
def test_group_order_matches_enumeration(l1, l2):
    geo = lattice.build_lattice(l1, l2)
    r = gf2.rank(star_masks(geo))
    assert r == l1 * l2 - 1
    assert 1 << r == len(spanset(star_masks(geo)))


def test_ground_state_amplitudes_are_group_orbit(geo22):
    state = stabilizer.ground_state(geo22)
    orbit = spanset(star_masks(geo22))
    nonzero = amps_dict(state)
    assert set(nonzero) == orbit
    expected = 1.0 / np.sqrt(len(orbit))
    assert all(abs(a - expected) < 1e-15 for a in nonzero.values())


def test_sector_supports_are_shifted_orbits(geo22):
    orbit = spanset(star_masks(geo22))
    w1 = sum(1 << s for s in geo22.loop1_support)
    w2 = sum(1 << s for s in geo22.loop2_support)
    shifts = {(0, 0): 0, (1, 0): w1, (0, 1): w2, (1, 1): w1 ^ w2}
    for sector, shift in shifts.items():
        state = stabilizer.ground_state(geo22, sector)
        assert set(amps_dict(state)) == {e ^ shift for e in orbit}


@pytest.mark.parametrize("l1,l2", [(2, 2), (2, 3)])
def test_sectors_orthonormal(l1, l2):
    geo = lattice.build_lattice(l1, l2)
    states = [stabilizer.ground_state(geo, s) for s in SECTORS]
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            got = np.vdot(a.amplitudes, b.amplitudes)
            want = 1.0 if i == j else 0.0
            assert abs(got - want) < 1e-12


@pytest.mark.parametrize("sector", SECTORS)
def test_stabilizer_eigenvector(geo23, sector):
    state = stabilizer.ground_state(geo23, sector)
    psi = amps_dict(state)
    gens = stabilizer.star_operators(geo23) + stabilizer.plaquette_operators(geo23)
    for g in gens:
        image = apply_scalar(g, psi)
        assert set(image) == set(psi)
        assert all(abs(image[k] - psi[k]) < 1e-14 for k in psi)


def test_residual_vanishes_only_on_ground_states(geo22):
    for sector in SECTORS:
        assert stabilizer.residual(geo22, stabilizer.ground_state(geo22, sector)) < 1e-14
    # The all-up state satisfies every plaquette and no star: A_s flips it
    # to an orthogonal state, so the residual is sqrt(2).
    up = np.zeros(1 << geo22.n_spins, dtype=complex)
    up[0] = 1.0
    state = stabilizer.StateVector(up, stabilizer.Basis(geo22.n_spins))
    assert abs(stabilizer.residual(geo22, state) - np.sqrt(2.0)) < 1e-14


def test_local_expectations_vanish(geo22):
    state = stabilizer.ground_state(geo22, (1, 0))
    for j in range(geo22.n_spins):
        for kind in "XYZ":
            val = stabilizer.expectation(state, pauli.single(geo22.n_spins, kind, j))
            assert abs(val) < 1e-12


def test_stabilizer_expectations_are_one(geo22):
    state = stabilizer.ground_state(geo22, (0, 1))
    for g in stabilizer.star_operators(geo22) + stabilizer.plaquette_operators(geo22):
        assert abs(stabilizer.expectation(state, g) - 1.0) < 1e-12


def test_x_loop_expectation_vanishes(geo22):
    # the winding X loop maps one sector onto another, so it has no diagonal part
    for support in (geo22.loop1_support, geo22.loop2_support):
        w = pauli.pauli_x(geo22.n_spins, support)
        for sector in SECTORS:
            state = stabilizer.ground_state(geo22, sector)
            assert abs(stabilizer.expectation(state, w)) < 1e-12


def test_z_loop_expectations_label_sectors(geo22):
    # winding Z loops commute with everything and read out the sector bits
    # a row of horizontal bonds 2*x and a column of vertical bonds 2*y*L1 + 1
    z1 = pauli.pauli_z(geo22.n_spins, [2 * x for x in range(geo22.L1)])
    z2 = pauli.pauli_z(geo22.n_spins, [2 * y * geo22.L1 + 1 for y in range(geo22.L2)])
    for w1, w2 in SECTORS:
        state = stabilizer.ground_state(geo22, (w1, w2))
        assert abs(stabilizer.expectation(state, z1) - (-1.0) ** w2) < 1e-12
        assert abs(stabilizer.expectation(state, z2) - (-1.0) ** w1) < 1e-12


def test_loop_operator_properties(geo33):
    masks = star_masks(geo33)
    span = spanset(masks)
    for support in (geo33.loop1_support, geo33.loop2_support):
        w = pauli.pauli_x(geo33.n_spins, support)
        assert w.z_mask == 0 and w.phase_exp == 0
        assert pauli_multiply(w, w) == pauli.PauliOperator(geo33.n_spins)
        for g in stabilizer.star_operators(geo33) + stabilizer.plaquette_operators(
            geo33
        ):
            assert commutes(w, g)
        assert w.x_mask not in span


def test_ground_state_rejects_bad_sector(geo22):
    with pytest.raises(ValueError):
        stabilizer.ground_state(geo22, (2, 0))


@pytest.mark.parametrize("l1,l2", [(2, 2), (2, 3), (3, 3)])
def test_sector_ground_state_is_the_full_state_restricted(l1, l2):
    # The full-space construction is the oracle: the native state holds the
    # same amplitudes, bit for bit, at the kept indices, and nothing else.
    geo = lattice.build_lattice(l1, l2)
    basis = ed.build_sector(geo)
    for sector in SECTORS:
        full = stabilizer.ground_state(geo, sector)
        native = stabilizer.ground_state(geo, sector, basis)
        assert native.basis == basis
        assert np.array_equal(native.amplitudes, full.amplitudes[basis.kept_indices])
        assert amps_dict(native) == amps_dict(full)
        assert np.max(np.abs(native.amplitudes - basis.project(full).amplitudes)) <= 1e-16


def loop_masks(geo):
    return [gf2.mask(geo.loop1_support), gf2.mask(geo.loop2_support)]


def test_ground_state_refuses_a_basis_without_the_orbit(geo22):
    stars = star_masks(geo22)
    # Without two stars the span lacks both: a star is the product of all
    # the others, so one star fewer would span the same group.
    missing = stabilizer.Basis(geo22.n_spins, stars[2:] + loop_masks(geo22))
    for sector in SECTORS:
        with pytest.raises(ValueError, match="every configuration"):
            stabilizer.ground_state(geo22, sector, missing)
    # the star span holds the (0,0) orbit but no loop shift
    star_span = stabilizer.Basis(geo22.n_spins, stars)
    assert star_span.dimension == len(spanset(stars))
    psi = stabilizer.ground_state(geo22, (0, 0), star_span)
    assert amps_dict(psi) == amps_dict(stabilizer.ground_state(geo22))
    with pytest.raises(ValueError, match="every configuration"):
        stabilizer.ground_state(geo22, (1, 0), star_span)
    with pytest.raises(ValueError, match="spins"):
        stabilizer.ground_state(geo22, (0, 0), stabilizer.Basis(geo22.n_spins + 1, stars))
    # an explicit full basis is the default, cap included
    full = stabilizer.ground_state(geo22, (1, 1), stabilizer.Basis(geo22.n_spins))
    assert np.array_equal(full.amplitudes, stabilizer.ground_state(geo22, (1, 1)).amplitudes)
    geo44 = lattice.build_lattice(4, 4)
    with pytest.raises(ValueError, match="cap"):
        stabilizer.ground_state(geo44, (0, 0), stabilizer.Basis(geo44.n_spins))


def test_ground_state_4x4_on_the_sector():
    # 32 spins: the full space (2^32) is above the cap, the sector is 2^17.
    geo44 = lattice.build_lattice(4, 4)
    basis = ed.build_sector(geo44)
    assert basis.dimension == 1 << 17
    psi = stabilizer.ground_state(geo44, (1, 0), basis)
    assert np.count_nonzero(psi.amplitudes) == 1 << 15
    assert stabilizer.residual(geo44, psi) == 0.0
    region = (0, 1, 2)
    s_spec = entanglement.renyi(entanglement.region_spectrum(psi, region), 1.0)
    assert stabilizer.analytic_region_entropy(geo44, region) == 3.0
    assert abs(s_spec - 3.0) < 1e-12
    missing = stabilizer.Basis(geo44.n_spins, star_masks(geo44)[2:] + loop_masks(geo44))
    with pytest.raises(ValueError, match="every configuration"):
        stabilizer.ground_state(geo44, (1, 0), missing)


def test_apply_pauli_full_matches_scalar(geo22):
    state = stabilizer.ground_state(geo22, (1, 1))
    rng = np.random.default_rng(67)
    for _ in range(10):
        op = pauli.PauliOperator(
            geo22.n_spins,
            int(rng.integers(1 << geo22.n_spins)),
            int(rng.integers(1 << geo22.n_spins)),
            int(rng.integers(4)),
        )
        got = stabilizer.apply_pauli(op, state)
        want = apply_scalar(op, amps_dict(state))
        for idx, amp in want.items():
            assert abs(got[idx] - amp) < 1e-14
        assert abs(np.linalg.norm(got) - 1.0) < 1e-12


def test_apply_pauli_sector_projection(geo22):
    basis = ed.build_sector(geo22)
    full = stabilizer.ground_state(geo22)
    sector_state = basis.project(full)
    # plaquettes act diagonally inside the sector
    for g in stabilizer.plaquette_operators(geo22):
        out = stabilizer.apply_pauli(g, sector_state)
        assert np.allclose(out, sector_state.amplitudes, atol=1e-14)
    # sigma^z preserves the sector: results agree with the full-space route
    op = pauli.pauli_z(geo22.n_spins, [3])
    out_sector = stabilizer.apply_pauli(op, sector_state)
    out_full = stabilizer.apply_pauli(op, full)
    assert np.allclose(out_sector, out_full[basis.kept_indices], atol=1e-14)
    # a single flip leaves the sector entirely, so the projection is zero
    op = pauli.pauli_x(geo22.n_spins, [0])
    assert np.allclose(stabilizer.apply_pauli(op, sector_state), 0.0)


def random_sector_state(rng, basis):
    v = rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(basis.dimension)
    return stabilizer.StateVector(v / np.linalg.norm(v), basis)


def scatter_apply_pauli(op, state):
    """The scatter form of ``apply_pauli``: the oracle of its gather."""
    amps = state.amplitudes
    positions, signs = state.basis.pauli_action(op)
    out = np.zeros_like(amps)
    if positions is not None:
        out[positions] = op.phase * (amps if signs is None else signs * amps)
    return out


@pytest.mark.parametrize("sector", [False, True])
def test_apply_pauli_gather_equals_scatter_oracle(geo33, sector):
    # Bit-identical: the gather reads the same products the scatter writes.
    basis = ed.build_sector(geo33) if sector else stabilizer.Basis(geo33.n_spins)
    state = random_sector_state(np.random.default_rng(71), basis)
    n = geo33.n_spins
    ops = [pauli.single(n, kind, j) for kind in "XYZ" for j in range(n)]
    ops += stabilizer.star_operators(geo33) + stabilizer.plaquette_operators(geo33)
    for op in ops:
        assert np.array_equal(stabilizer.apply_pauli(op, state), scatter_apply_pauli(op, state))


def test_diagonal_strings_keep_states_in_place_without_a_lookup(geo33):
    # A string with no X part maps each state to itself: the identity
    # positions, the same as locating the basis in itself. Every such string
    # gets the basis's one read-only position array.
    n = geo33.n_spins
    ops = [pauli.single(n, "Z", j) for j in (0, 7)] + list(stabilizer.plaquette_operators(geo33))
    bases = [stabilizer.Basis(n), ed.build_sector(geo33),
             ed.build_block(ed.HamiltonianSpec(geo33, h=1.0, kappa=1.0, field_mode="split_HV"))]
    for basis in bases:
        positions, found = locate(basis, basis.kept_indices)
        assert found is None
        shared, _ = basis.pauli_action(ops[0])
        assert not shared.flags.writeable
        for op in ops:
            got, signs = basis.pauli_action(op)
            assert got is shared and np.array_equal(got, positions)
            assert np.array_equal(signs, np.where(
                np.bitwise_count(basis.kept_indices & op.z_mask) & 1, -1.0, 1.0))


def oracle_cases(geo22, geo23, geo33):
    """``(basis, flips)`` pairs: the full bases and sectors of 2x2, 2x3 and
    3x3, both 3x3 blocks, and random flip sets on up to 12 spins."""
    cases = []
    for geo in (geo22, geo23, geo33):
        n = geo.n_spins
        cases.append((stabilizer.Basis(n), [1 << s for s in range(n)]))
        cases.append((ed.build_sector(geo), star_masks(geo) + loop_masks(geo)))
    for field in ({}, {"field_mode": "split_HV", "kappa": 1.0}):
        spec = ed.HamiltonianSpec(geo33, h=1.0, **field)
        flips = [op.x_mask for c, op in spec.term_list() if c and op.x_mask]
        cases.append((ed.build_block(spec), flips))
    rng = np.random.default_rng(307)
    for n in (1, 4, 8, 12):
        for count in (0, 1, 3, n, 2 * n):
            flips = [int(x) for x in rng.integers(0, 1 << n, size=count)]
            cases.append((stabilizer.Basis(n, flips), flips))
    return cases


def oracle_operators(basis, rng):
    """Every single-spin X, Y and Z, every term of both field modes on a
    lattice basis, and random strings on the others."""
    n = basis.n_spins
    ops = [pauli.single(n, kind, j) for kind in "XYZ" for j in range(n)]
    geo = {8: lattice.build_lattice(2, 2), 12: lattice.build_lattice(2, 3),
           18: lattice.build_lattice(3, 3)}.get(n)
    if geo is not None:
        for field in ({}, {"field_mode": "split_HV", "kappa": 1.0}):
            ops += [op for _, op in ed.HamiltonianSpec(geo, h=1.0, **field).term_list()]
    ops += [pauli.PauliOperator(n, int(rng.integers(1 << n)), int(rng.integers(1 << n)),
                                int(rng.integers(4))) for _ in range(8)]
    return ops


def test_pivot_positions_match_the_search_oracle(geo22, geo23, geo33):
    # A basis is the span of its flips, ascending, and it places a Pauli
    # string's images by pivot bits where the oracle searches for them: the
    # same positions, None exactly when no state's image is found, and
    # never a partial image.
    rng = np.random.default_rng(311)
    for basis, flips in oracle_cases(geo22, geo23, geo33):
        kept = basis.kept_indices
        assert np.array_equal(kept, np.sort(gf2.span(flips)))
        assert basis == stabilizer.Basis(basis.n_spins, flips)
        for op in oracle_operators(basis, rng):
            positions, signs = basis.pauli_action(op)
            want, found = locate(basis, kept ^ op.x_mask)
            if positions is None:
                assert found is not None and not found.any(), op
            else:
                assert found is None and np.array_equal(positions, want), op
            if op.z_mask:
                assert np.array_equal(
                    signs, np.where(np.bitwise_count(kept & op.z_mask) & 1, -1.0, 1.0))
            else:
                assert signs is None


def test_expectation_matches_apply_pauli_route(geo22, geo23):
    rng = np.random.default_rng(211)
    states = [
        random_sector_state(rng, stabilizer.Basis(6)),
        random_sector_state(rng, stabilizer.Basis(geo22.n_spins)),
        random_sector_state(rng, ed.build_sector(geo22)),
        random_sector_state(rng, ed.build_sector(geo23)),
    ]
    for state in states:
        n = state.n_spins
        ops = [pauli.single(n, kind, j) for kind in "XYZ" for j in range(n)]
        ops += [
            pauli.PauliOperator(
                n, int(rng.integers(1 << n)), int(rng.integers(1 << n)), int(rng.integers(4))
            )
            for _ in range(10)
        ]
        for op in ops:
            want = complex(np.vdot(state.amplitudes, stabilizer.apply_pauli(op, state)))
            got = stabilizer.expectation(state, op)
            assert abs(got - want) < 1e-14, (n, str(op))


def test_expectation_dimension_mismatch(geo22):
    state = stabilizer.ground_state(geo22)
    with pytest.raises(ValueError):
        stabilizer.expectation(state, pauli.PauliOperator(4))


@pytest.mark.parametrize("sector", [(0, 0), (1, 1)])
def test_analytic_entropy_matches_dense(geo22, sector):
    state = stabilizer.ground_state(geo22, sector)
    regions = [
        (0,),
        (0, 3),
        geo22.star_supports[0],
        (0, 1, 2, 3, 4),
        tuple(range(geo22.n_spins - 1)),
    ]
    for region in regions:
        want = dense_entropy_bits(state, region)
        got = stabilizer.analytic_region_entropy(geo22, region)
        assert abs(got - want) < 1e-10, region


def test_analytic_entropy_matches_dense_3x3(geo33):
    state = stabilizer.ground_state(geo33)
    part = lattice.build_partition(geo33, "levinwen-small")
    for region in part.regions + (geo33.star_supports[4],):
        want = dense_entropy_bits(state, region)
        got = stabilizer.analytic_region_entropy(geo33, region)
        assert abs(got - want) < 1e-10, region


def test_analytic_entropy_sector_independent(geo23):
    part = lattice.build_partition(geo23, "levinwen-small")
    for region in part.regions:
        values = {
            dense_entropy_bits(stabilizer.ground_state(geo23, s), region)
            for s in SECTORS
        }
        ref = stabilizer.analytic_region_entropy(geo23, region)
        assert all(abs(v - ref) < 1e-10 for v in values)


def test_analytic_entropy_errors(geo22):
    with pytest.raises(ValueError):
        stabilizer.analytic_region_entropy(geo22, ())
    with pytest.raises(ValueError):
        stabilizer.analytic_region_entropy(geo22, tuple(range(geo22.n_spins)))
    with pytest.raises(ValueError):
        stabilizer.analytic_region_entropy(geo22, (0, 99))


@pytest.mark.parametrize(
    "region,message",
    [
        ((3, 3, 8), "repeats a spin"),
        ((0, 18), "out-of-range"),
        ((-1, 4), "out-of-range"),
        ((), "empty"),
        (tuple(range(18)), "proper subset"),
    ],
)
def test_group_rule_and_spectrum_reject_the_same_regions(geo33, region, message):
    psi = stabilizer.ground_state(geo33)
    with pytest.raises(ValueError, match=message):
        stabilizer.analytic_region_entropy(geo33, region)
    with pytest.raises(ValueError, match=message):
        entanglement.region_spectrum(psi, region)
    with pytest.raises(ValueError, match=message):
        entanglement.reduce(psi, region)


def test_check_region_sorts(geo33):
    assert stabilizer.check_region((9, 3, 8), geo33.n_spins) == (3, 8, 9)
    assert stabilizer.check_region(np.array([5, 0]), geo33.n_spins) == (0, 5)


def test_region_spins_are_plain_ints_and_a_float_is_refused(geo33):
    psi = stabilizer.ground_state(geo33)
    with pytest.raises(ValueError, match="integer spins"):
        entanglement.region_spectrum(psi, (1.5, 2))
    with pytest.raises(ValueError, match="integer spins"):
        stabilizer.check_region((np.float64(1.0), 2), geo33.n_spins)
    region = np.array([11, 2, 7, 8], dtype=np.int64)
    spins = stabilizer.check_region(region, geo33.n_spins)
    assert spins == (2, 7, 8, 11) and all(type(s) is int for s in spins)
    # Two instances of the sector, so each region builds its own split map.
    plain = stabilizer.ground_state(geo33, basis=ed.build_sector(geo33))
    numpy_int = stabilizer.ground_state(geo33, basis=ed.build_sector(geo33))
    assert np.array_equal(entanglement.region_spectrum(numpy_int, tuple(region)),
                          entanglement.region_spectrum(plain, spins))


def test_state_vector_validation(geo22):
    dim = 1 << geo22.n_spins
    with pytest.raises(ValueError):
        stabilizer.StateVector(np.zeros(dim), stabilizer.Basis(geo22.n_spins))
    with pytest.raises(ValueError):
        stabilizer.StateVector(
            np.ones(dim - 1) / np.sqrt(dim - 1), stabilizer.Basis(geo22.n_spins)
        )
    amps = np.full(dim, dim**-0.5)
    for bad in (np.nan, np.inf):
        amps[0] = bad
        with pytest.raises(ValueError, match="not normalized"):
            stabilizer.StateVector(amps, stabilizer.Basis(geo22.n_spins))


def test_basis_refuses_a_full_space_above_the_cap():
    with pytest.raises(ValueError, match="full space of 21 spins has 2\\^21"):
        stabilizer.Basis(stabilizer.BASIS_CAP_BITS + 1)
    with pytest.raises(ValueError, match="cap"):
        stabilizer.Basis(40, [1 << s for s in range(stabilizer.BASIS_CAP_BITS + 1)])
    assert stabilizer.Basis(40, [3, 1]).dimension == 4
    # a span of more spins than the cap is not taken for a full basis
    geo44 = lattice.build_lattice(4, 4)
    sector = ed.build_sector(geo44)
    psi = stabilizer.ground_state(geo44, (0, 0), sector)
    with pytest.raises(ValueError, match="can only project a full-basis state"):
        sector.project(psi)


def test_basis_refuses_a_flip_beyond_its_spins():
    # 1 << 5 on four spins would sit at position 1 beside the flip 1, so the
    # region split of (0, 1) would collide; -1 has every high bit set.
    for flips in ([1 << 5, 1], [1 << 4], [-1]):
        with pytest.raises(ValueError, match="a flip of 4 spins has a bit at or above bit 4"):
            stabilizer.Basis(4, flips)
    assert stabilizer.Basis(4, [1 << 3, 1]).kept_indices.tolist() == [0, 1, 8, 9]


def test_same_basis(geo22, geo23):
    a = stabilizer.ground_state(geo22)
    b = stabilizer.ground_state(geo22, (1, 0))
    c = stabilizer.ground_state(geo23)
    assert a.basis == b.basis
    assert a.basis != c.basis
    basis = ed.build_sector(geo22)
    s = basis.project(a)
    assert a.basis != s.basis
    assert s.basis == basis.project(b).basis
    # a span compares by its reduced generators, whatever flips gave it
    assert s.basis == stabilizer.Basis(geo22.n_spins, basis.kept_indices[::-1])
    assert s.basis != stabilizer.Basis(geo22.n_spins, basis.generators[1:])


def test_save_load_round_trip(tmp_path, geo22):
    state = stabilizer.ground_state(geo22, (0, 1))
    path = tmp_path / "state.npz"
    stabilizer.save_state(path, state)
    with np.load(path) as data:
        assert sorted(data.files) == ["amplitudes", "n_spins"]
        assert int(data["n_spins"]) == geo22.n_spins
        assert np.array_equal(data["amplitudes"], state.amplitudes)

    basis = ed.build_sector(geo22)
    sec = basis.project(stabilizer.ground_state(geo22))
    spath = tmp_path / "sector.npz"
    stabilizer.save_state(spath, sec)
    with np.load(spath) as data:
        assert sorted(data.files) == ["amplitudes", "kept_indices", "n_spins"]
        assert int(data["n_spins"]) == geo22.n_spins
        assert np.array_equal(data["kept_indices"], basis.kept_indices)
        assert np.array_equal(data["amplitudes"], sec.amplitudes)


def test_full_ground_states_share_one_basis(geo33):
    # Every full-space state and operator of one spin count runs on one
    # basis, so the sectors' entropies derive each region's split map once.
    a = stabilizer.ground_state(geo33, (0, 0))
    b = stabilizer.ground_state(geo33, (1, 1))
    assert a.basis is b.basis is stabilizer.full_basis(geo33.n_spins)
    assert ed.build_hamiltonian(ed.HamiltonianSpec(geo33)).basis is a.basis
    kept = a.basis.kept_indices
    assert not kept.flags.writeable and np.array_equal(kept, np.arange(1 << geo33.n_spins))
    part = lattice.build_partition(geo33, "levinwen-small")
    a.basis._split_cache.clear()
    maps = []
    for state in (a, b):
        assert entanglement.topological_entropy(state, part, 1.0).s_top == pytest.approx(1.0)
        maps.append([state.basis.split_positions(r) for r in part.regions])
    assert sorted(a.basis._split_cache) == sorted(part.regions)
    assert all(x is y for x, y in zip(*maps))
