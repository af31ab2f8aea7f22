"""Torus geometry for the toric code.

Spins live on the bonds of an L1 x L2 square lattice with periodic
boundaries in both directions, so there are 2*L1*L2 spins. Sites are indexed
row-major, ``site = y*L1 + x``; the horizontal bond leaving site (x, y) in
direction 1 gets spin index ``2*site`` and the vertical bond leaving it in
direction 2 gets ``2*site + 1``. This indexing is part of the on-disk
contract: golden files and shipped partitions rely on it.

A star support is the four bonds touching a site; a plaquette support is the
four bonds around a unit square. The two noncontractible loop supports wind
the torus once each and are the supports of the sector-changing X loops: a
column of vertical bonds for direction 1 and a row of horizontal bonds for
direction 2 (these are cycles of the dual lattice, crossing plaquettes
evenly, which is what a pure-X loop needs to commute with the Hamiltonian).

The lattice maps of the torus permute the spins and send stars to stars
and plaquettes to plaquettes. ``symmetry_generators`` gives the unit
translations, the two reflections and, on a square torus, the transpose,
which generate 8 * L1 * L2 maps when L1 == L2 and 4 * L1 * L2 otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "LatticeGeometry",
    "RegionPartition",
    "build_lattice",
    "build_partition",
    "partition_presets",
    "symmetry_generators",
]


@dataclass(frozen=True)
class LatticeGeometry:
    """Immutable bond indexing of an L1 x L2 torus."""

    L1: int
    L2: int
    n_spins: int
    star_supports: tuple[tuple[int, ...], ...]
    plaquette_supports: tuple[tuple[int, ...], ...]
    horizontal_spins: tuple[int, ...]
    vertical_spins: tuple[int, ...]
    loop1_support: tuple[int, ...]
    loop2_support: tuple[int, ...]


def build_lattice(L1: int, L2: int) -> LatticeGeometry:
    """Build the torus geometry for an L1 x L2 site lattice.

    Parameters
    ----------
    L1, L2 : int
        Sites along each direction, both at least 2 (below that the
        four-bond stabilizer supports would degenerate).

    Returns
    -------
    LatticeGeometry
    """
    if L1 < 2 or L2 < 2:
        raise ValueError(f"lattice must be at least 2x2, got {L1}x{L2}")
    n_sites = L1 * L2

    def h(x, y):
        return 2 * ((y % L2) * L1 + (x % L1))

    def v(x, y):
        return 2 * ((y % L2) * L1 + (x % L1)) + 1

    stars = []
    plaquettes = []
    for y in range(L2):
        for x in range(L1):
            # Star at site (x, y): the two horizontal and two vertical
            # bonds touching it.
            stars.append((h(x, y), h(x - 1, y), v(x, y), v(x, y - 1)))
            # Plaquette with (x, y) as its lower-left corner.
            plaquettes.append((h(x, y), h(x, y + 1), v(x, y), v(x + 1, y)))

    return LatticeGeometry(
        L1=L1,
        L2=L2,
        n_spins=2 * n_sites,
        star_supports=tuple(stars),
        plaquette_supports=tuple(plaquettes),
        horizontal_spins=tuple(range(0, 2 * n_sites, 2)),
        vertical_spins=tuple(range(1, 2 * n_sites, 2)),
        loop1_support=tuple(v(x, 0) for x in range(L1)),
        loop2_support=tuple(h(0, y) for y in range(L2)),
    )


def symmetry_generators(geometry: LatticeGeometry) -> tuple[tuple[int, ...], ...]:
    """Spin permutations that generate the lattice maps of the torus.

    Each is a tuple ``perm`` that sends spin s to spin ``perm[s]``: the unit
    translations along directions 1 and 2, the reflections x -> -x and
    y -> -y, and the transpose (x, y) -> (y, x) when L1 == L2, which swaps
    the horizontal and vertical bonds. A reflection x -> -x sends the
    horizontal bond from (x, y) to (x+1, y) to the one from (-x-1, y), and
    the vertical bond at (x, y) to the one at (-x, y); y -> -y likewise.
    """
    L1, L2 = geometry.L1, geometry.L2
    maps = [
        lambda x, y, k: (x + 1, y, k),
        lambda x, y, k: (x, y + 1, k),
        lambda x, y, k: (k - 1 - x, y, k),
        lambda x, y, k: (x, -k - y, k),
    ]
    if L1 == L2:
        maps.append(lambda x, y, k: (y, x, 1 - k))
    # Spin s is the bond of kind k = s % 2 (0 horizontal) leaving site s // 2.
    bonds = [(s // 2 % L1, s // 2 // L1, s % 2) for s in range(geometry.n_spins)]
    return tuple(
        tuple(2 * (y % L2 * L1 + x % L1) + k for x, y, k in (f(*b) for b in bonds))
        for f in maps
    )


@dataclass(frozen=True)
class RegionPartition:
    """Four subsystem choices whose entropies isolate the topological term.

    The combination S1 + S3 - S2 - S4 cancels boundary contributions and
    equals twice the topological entropy. Each region must be contractible;
    the cancellation itself is certified by the entropy tests rather than
    by geometric construction.
    """

    regions: tuple[tuple[int, ...], ...]
    label: str

    def __post_init__(self):
        if len(self.regions) != 4:
            raise ValueError("a partition has exactly four regions")
        if any(len(r) == 0 for r in self.regions):
            raise ValueError("regions must be nonempty")


# Shipped region quadruples, keyed by (L1, L2) then preset name. The small
# lattices are too cramped for one scalable geometric recipe, so these are
# explicit index sets, chosen contractible and validated by the acceptance
# tests (topological entropy exactly 1 bit in every sector).
#
# "levinwen-small" uses two nested region pairs of matched shape; sizes stay
# comparable across lattice sizes so cross-size quench comparisons probe the
# bath, not the region. "levinwen-ring" (3x3 only) is the annulus family:
# R1 a closed ring around one star, R2/R3 horseshoes, R4 the shared arcs.
_PRESETS: dict[tuple[int, int], dict[str, tuple[tuple[int, ...], ...]]] = {
    (2, 2): {
        "levinwen-small": ((0, 3, 6), (0, 3), (2, 4, 7), (4, 7)),
    },
    (2, 3): {
        "levinwen-small": ((3, 4, 5, 8), (4, 5, 8), (6, 7, 9, 10), (6, 7, 10)),
    },
    (3, 3): {
        "levinwen-small": ((3, 8, 9, 14), (3, 8, 9), (5, 10, 11, 16), (5, 10, 11)),
        "levinwen-ring": (
            (7, 8, 9, 10, 13, 15),
            (2, 4, 7, 8, 9, 10, 13, 15),
            (2, 4, 7, 9, 13, 15),
            (7, 9, 13, 15),
        ),
    },
}


def partition_presets(geometry: LatticeGeometry) -> tuple[str, ...]:
    """Preset names shipped for this lattice size."""
    return tuple(sorted(_PRESETS.get((geometry.L1, geometry.L2), {})))


def build_partition(geometry: LatticeGeometry, preset: str) -> RegionPartition:
    """Look up a shipped region quadruple by name.

    Raises ValueError if the preset name is unknown or no preset of that
    name ships for this lattice size.
    """
    known = _PRESETS.get((geometry.L1, geometry.L2))
    if not known:
        raise ValueError(f"no partitions shipped for {geometry.L1}x{geometry.L2}")
    if preset not in known:
        raise ValueError(
            f"unknown preset {preset!r} for {geometry.L1}x{geometry.L2}; "
            f"shipped: {', '.join(sorted(known))}"
        )
    return RegionPartition(regions=known[preset], label=preset)
