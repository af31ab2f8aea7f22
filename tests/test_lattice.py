"""Torus geometry invariants and a brute-force homology oracle for presets."""

import itertools

import pytest

from gf2_kernel import kernel_basis
from toricsim import gf2, lattice


def spanset(masks):
    span = {0}
    for m in masks:
        span |= {t ^ m for t in span}
    return span


def oracle_winds(geo, region):
    """Exhaustive noncontractibility check.

    A subset of the region is a winding cycle when it meets every star
    (resp. plaquette) evenly but is not a GF(2) combination of plaquette
    (resp. star) supports, i.e. it is a cycle that is not a boundary.
    """
    star_masks = [gf2.mask(s) for s in geo.star_supports]
    plaq_masks = [gf2.mask(p) for p in geo.plaquette_supports]
    star_span = spanset(star_masks)
    plaq_span = spanset(plaq_masks)
    spins = sorted(region)
    for bits in range(1, 1 << len(spins)):
        c = gf2.mask(spins[i] for i in range(len(spins)) if bits >> i & 1)
        if all((c & sm).bit_count() % 2 == 0 for sm in star_masks):
            if c not in plaq_span:
                return True
        if all((c & pm).bit_count() % 2 == 0 for pm in plaq_masks):
            if c not in star_span:
                return True
    return False


def bond(geo, x, y, direction):
    """Spin on the bond leaving site (x, y) along 1 or 2, by the README formula."""
    return 2 * ((y % geo.L2) * geo.L1 + (x % geo.L1)) + (direction - 1)


def _cycles_within(region: tuple[int, ...], constraint_supports) -> list[int]:
    """Spin masks of cycles supported inside the region.

    A cycle is a spin set meeting every constraint support evenly. Each
    region spin becomes a GF(2) vector over constraints; kernel combinations
    are exactly the cycles.
    """
    vectors = [
        gf2.mask(k for k, sup in enumerate(constraint_supports) if s in sup)
        for s in region
    ]
    return [
        gf2.mask(s for i, s in enumerate(region) if c >> i & 1)
        for c in kernel_basis(vectors)
    ]


def complement_is_deformable(geometry, region) -> bool:
    """Whether the complement supports winding X loops of all three classes.

    When it does, every sector-changing loop operator can be deformed off
    the region by stabilizer moves, which forces the four sector states to
    share their reduced matrix on the region.
    """
    region = set(region)
    rest = tuple(s for s in range(geometry.n_spins) if s not in region)
    zrefs = (
        gf2.mask(bond(geometry, x, 0, 1) for x in range(geometry.L1)),
        gf2.mask(bond(geometry, 0, y, 2) for y in range(geometry.L2)),
    )
    # Classify each dual cycle in the complement by its winding parities
    # against the two Z reference loops; need the classes to span all of
    # (1,0), (0,1), (1,1).
    classes = []
    for cycle in _cycles_within(rest, geometry.plaquette_supports):
        w = ((cycle & zrefs[0]).bit_count() % 2) | (((cycle & zrefs[1]).bit_count() % 2) << 1)
        if w:
            classes.append(w)
    return gf2.rank(classes) == 2


@pytest.mark.parametrize("l1,l2", [(2, 2), (2, 3), (3, 3), (3, 4), (4, 2)])
def test_counts_and_supports(l1, l2):
    geo = lattice.build_lattice(l1, l2)
    n_sites = l1 * l2
    assert geo.n_spins == 2 * n_sites
    assert len(geo.star_supports) == n_sites
    assert len(geo.plaquette_supports) == n_sites
    for sup in geo.star_supports + geo.plaquette_supports:
        assert len(sup) == 4
        assert len(set(sup)) == 4
        assert all(0 <= s < geo.n_spins for s in sup)


@pytest.mark.parametrize("l1,l2", [(2, 2), (2, 3), (3, 3), (4, 3)])
def test_each_spin_in_two_stars_and_two_plaquettes(l1, l2):
    geo = lattice.build_lattice(l1, l2)
    for supports in (geo.star_supports, geo.plaquette_supports):
        counts = [0] * geo.n_spins
        for sup in supports:
            for s in sup:
                counts[s] += 1
        assert counts == [2] * geo.n_spins
        # consequence: the XOR of all supports vanishes
        acc = 0
        for sup in supports:
            acc ^= gf2.mask(sup)
        assert acc == 0


@pytest.mark.parametrize("l1,l2", [(2, 2), (2, 3), (3, 3)])
def test_star_plaquette_overlaps_even(l1, l2):
    geo = lattice.build_lattice(l1, l2)
    for s_sup, p_sup in itertools.product(geo.star_supports, geo.plaquette_supports):
        assert len(set(s_sup) & set(p_sup)) in (0, 2)


def test_sublattice_partition(geo33):
    h = set(geo33.horizontal_spins)
    v = set(geo33.vertical_spins)
    assert h | v == set(range(geo33.n_spins))
    assert not h & v
    assert all(s % 2 == 0 for s in h)


@pytest.mark.parametrize("l1,l2", [(2, 2), (2, 3), (3, 3), (3, 4)])
def test_loop_supports(l1, l2):
    geo = lattice.build_lattice(l1, l2)
    w1, w2 = set(geo.loop1_support), set(geo.loop2_support)
    assert len(w1) == l1 and len(w2) == l2
    # the X loops cross every plaquette evenly (dual-lattice cycles)
    for p_sup in geo.plaquette_supports:
        assert len(w1 & set(p_sup)) % 2 == 0
        assert len(w2 & set(p_sup)) % 2 == 0
    # pairing against direct Z loops: odd with the conjugate direction only
    z1 = {bond(geo, x, 0, 1) for x in range(l1)}
    z2 = {bond(geo, 0, y, 2) for y in range(l2)}
    for z in (z1, z2):
        for s_sup in geo.star_supports:
            assert len(z & set(s_sup)) % 2 == 0
    assert len(w1 & z1) % 2 == 0
    assert len(w1 & z2) % 2 == 1
    assert len(w2 & z1) % 2 == 1
    assert len(w2 & z2) % 2 == 0
    # and both winding families are flagged by the brute-force oracle
    for loop in (geo.loop1_support, geo.loop2_support, tuple(z1), tuple(z2)):
        assert oracle_winds(geo, loop)


def test_bond_indexing_wraps(geo23):
    l1, l2 = geo23.L1, geo23.L2
    assert bond(geo23, -1, 0, 1) == bond(geo23, l1 - 1, 0, 1)
    assert bond(geo23, 0, l2, 2) == bond(geo23, 0, 0, 2)
    assert bond(geo23, 1, 1, 1) == 2 * (1 * l1 + 1)
    # supports follow the documented formula, wrapping at the edges
    for y in range(l2):
        for x in range(l1):
            h = [bond(geo23, x, y, 1), bond(geo23, x - 1, y, 1), bond(geo23, x, y + 1, 1)]
            v = [bond(geo23, x, y, 2), bond(geo23, x, y - 1, 2), bond(geo23, x + 1, y, 2)]
            assert geo23.star_supports[y * l1 + x] == (h[0], h[1], v[0], v[1])
            assert geo23.plaquette_supports[y * l1 + x] == (h[0], h[2], v[0], v[2])
    assert geo23.loop1_support == tuple(bond(geo23, x, 0, 2) for x in range(l1))
    assert geo23.loop2_support == tuple(bond(geo23, 0, y, 1) for y in range(l2))


def test_build_lattice_rejects_degenerate_sizes():
    for l1, l2 in [(1, 2), (2, 1), (0, 3), (1, 1)]:
        with pytest.raises(ValueError):
            lattice.build_lattice(l1, l2)


def test_build_is_deterministic():
    assert lattice.build_lattice(3, 4) == lattice.build_lattice(3, 4)


def all_preset_partitions():
    out = []
    for l1, l2 in [(2, 2), (2, 3), (3, 3)]:
        geo = lattice.build_lattice(l1, l2)
        for name in lattice.partition_presets(geo):
            out.append((geo, lattice.build_partition(geo, name)))
    return out


def test_presets_shipped_for_small_sizes(geo22, geo23, geo33):
    assert "levinwen-small" in lattice.partition_presets(geo22)
    assert "levinwen-small" in lattice.partition_presets(geo23)
    assert set(lattice.partition_presets(geo33)) >= {"levinwen-small", "levinwen-ring"}
    assert lattice.partition_presets(lattice.build_lattice(4, 4)) == ()


def test_preset_regions_well_formed():
    for geo, part in all_preset_partitions():
        assert len(part.regions) == 4
        for region in part.regions:
            assert len(region) > 0
            assert len(set(region)) == len(region)
            assert all(0 <= s < geo.n_spins for s in region)
            assert tuple(sorted(region)) == region


def test_preset_regions_contractible_by_brute_force():
    for geo, part in all_preset_partitions():
        for region in part.regions:
            assert not oracle_winds(geo, region), (part.label, region)


def test_preset_complements_deformable():
    for geo, part in all_preset_partitions():
        for region in part.regions:
            assert complement_is_deformable(geo, region), (part.label, region)


def test_deformability_negative_cases(geo22):
    # complement of (everything but one winding loop) is just that loop:
    # it only winds one direction, so loops cannot be deformed off the region
    big = tuple(s for s in range(geo22.n_spins) if s not in set(geo22.loop1_support))
    assert not complement_is_deformable(geo22, big)
    assert not complement_is_deformable(geo22, tuple(range(geo22.n_spins)))


def test_partition_validation():
    with pytest.raises(ValueError):
        lattice.RegionPartition(regions=((0,), (1,), (2,)), label="x")
    with pytest.raises(ValueError):
        lattice.RegionPartition(regions=((0,), (), (2,), (3,)), label="x")


def test_build_partition_errors(geo22, geo33):
    with pytest.raises(ValueError, match="levinwen-small"):
        lattice.build_partition(geo22, "no-such-preset")
    with pytest.raises(ValueError):
        lattice.build_partition(geo22, "levinwen-ring")
    with pytest.raises(ValueError):
        lattice.build_partition(lattice.build_lattice(5, 5), "levinwen-small")


def generated_group(perms):
    """Every composition of the permutations, found by breadth-first search
    from the identity."""
    identity = tuple(range(len(perms[0])))
    group, frontier = {identity}, [identity]
    while frontier:
        frontier = [g for g in {tuple(p[i] for i in a) for a in frontier for p in perms}
                    if g not in group]
        group.update(frontier)
    return group


@pytest.mark.parametrize("l1,l2,order", [
    (2, 2, 32), (2, 3, 24), (3, 3, 72), (3, 4, 48), (4, 4, 128),
])
def test_symmetry_generators_are_lattice_maps(l1, l2, order):
    # Bijections of the spins that send the stars onto the stars and the
    # plaquettes onto the plaquettes, generating 4 * L1 * L2 maps, and twice
    # as many with the transpose of a square torus.
    geo = lattice.build_lattice(l1, l2)
    gens = lattice.symmetry_generators(geo)
    assert len(gens) == (5 if l1 == l2 else 4)
    stars = {frozenset(s) for s in geo.star_supports}
    plaquettes = {frozenset(p) for p in geo.plaquette_supports}
    for perm in gens:
        assert sorted(perm) == list(range(geo.n_spins))
        assert {frozenset(perm[s] for s in star) for star in stars} == stars
        assert {frozenset(perm[s] for s in p) for p in plaquettes} == plaquettes
    assert len(generated_group(gens)) == order
