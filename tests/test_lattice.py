"""Torus geometry invariants and a brute-force homology oracle for presets."""

import itertools
import random

import pytest

from toricsim import lattice


def mask(spins):
    m = 0
    for s in spins:
        m |= 1 << s
    return m


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
    star_masks = [mask(s) for s in geo.star_supports]
    plaq_masks = [mask(p) for p in geo.plaquette_supports]
    star_span = spanset(star_masks)
    plaq_span = spanset(plaq_masks)
    spins = sorted(region)
    for bits in range(1, 1 << len(spins)):
        c = mask(spins[i] for i in range(len(spins)) if bits >> i & 1)
        if all((c & sm).bit_count() % 2 == 0 for sm in star_masks):
            if c not in plaq_span:
                return True
        if all((c & pm).bit_count() % 2 == 0 for pm in plaq_masks):
            if c not in star_span:
                return True
    return False


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
            acc ^= mask(sup)
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
    z1 = {geo.horizontal_bond(x, 0) for x in range(l1)}
    z2 = {geo.vertical_bond(0, y) for y in range(l2)}
    for z in (z1, z2):
        for s_sup in geo.star_supports:
            assert len(z & set(s_sup)) % 2 == 0
    assert len(w1 & z1) % 2 == 0
    assert len(w1 & z2) % 2 == 1
    assert len(w2 & z1) % 2 == 1
    assert len(w2 & z2) % 2 == 0
    # and both winding families are flagged by the library
    assert lattice.region_winds(geo, geo.loop1_support)
    assert lattice.region_winds(geo, geo.loop2_support)
    assert lattice.region_winds(geo, tuple(z1))
    assert lattice.region_winds(geo, tuple(z2))


def test_bond_indexing_wraps(geo23):
    assert geo23.horizontal_bond(-1, 0) == geo23.horizontal_bond(geo23.L1 - 1, 0)
    assert geo23.vertical_bond(0, geo23.L2) == geo23.vertical_bond(0, 0)
    assert geo23.site_index(1, 1) == 1 * geo23.L1 + 1
    assert geo23.horizontal_bond(1, 1) == 2 * geo23.site_index(1, 1)
    assert geo23.vertical_bond(1, 1) == 2 * geo23.site_index(1, 1) + 1


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
            assert not lattice.region_winds(geo, region), (part.label, region)


def test_region_winds_agrees_with_oracle_on_random_regions(geo33):
    rng = random.Random(61)
    winding_seen = 0
    for _ in range(30):
        size = rng.randint(1, 7)
        region = tuple(sorted(rng.sample(range(geo33.n_spins), size)))
        expected = oracle_winds(geo33, region)
        assert lattice.region_winds(geo33, region) == expected, region
        winding_seen += expected
    # the sample should exercise both outcomes
    assert 0 < winding_seen < 30


def test_preset_complements_deformable():
    for geo, part in all_preset_partitions():
        for region in part.regions:
            assert lattice.complement_is_deformable(geo, region), (part.label, region)


def test_deformability_negative_cases(geo22):
    # complement of (everything but one winding loop) is just that loop:
    # it only winds one direction, so loops cannot be deformed off the region
    big = tuple(s for s in range(geo22.n_spins) if s not in set(geo22.loop1_support))
    assert not lattice.complement_is_deformable(geo22, big)
    assert not lattice.complement_is_deformable(geo22, tuple(range(geo22.n_spins)))


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
