"""Analytic toric-code ground states and the group-theoretic entropy rule.

The model is H = -U sum_p B_p - J sum_s A_s with A_s the product of sigma^x
on the four bonds of site s and B_p the product of sigma^z around plaquette
p. All terms commute, the ground energy is -L1*L2*(U+J), and the ground
space is four-fold degenerate on the torus.

Products of star operators form a group G of order 2^(L1*L2 - 1); the one
relation is that the product of all stars is the identity. The sector (0,0)
ground state is the uniform superposition |G|^(-1/2) sum_g g|up...up>, and
the other three sectors are reached by the two noncontractible X loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .gf2 import mask, rank, span
from .lattice import LatticeGeometry
from .pauli import PauliOperator, pauli_x, pauli_z

__all__ = [
    "Basis",
    "StateVector",
    "ground_state",
    "apply_pauli",
    "residual",
    "expectation",
    "analytic_region_entropy",
    "save_state",
]

# Largest basis that ``ground_state`` and ``ed.build_sector`` will build is
# 2^BASIS_CAP_BITS states: 16 MiB per complex state vector. Past it the
# Hamiltonian's per-term index arrays alone run to gigabytes.
BASIS_CAP_BITS = 20

# Weight a state may carry outside the basis it is projected on.
PROJECT_TOL = 1e-10


def check_dimension(bits: int, what: str) -> None:
    """Refuse a basis of 2^bits states above the cap, before building it."""
    if bits > BASIS_CAP_BITS:
        raise ValueError(
            f"{what} has 2^{bits} basis states, above the cap of 2^{BASIS_CAP_BITS}"
        )


def check_region(region, n_spins: int) -> tuple[int, ...]:
    """The region's spins, ascending. Refuses an empty region, a repeated or
    out-of-range spin, and the whole set of spins."""
    spins = tuple(sorted(region))
    if not spins:
        raise ValueError("region is empty")
    if len(set(spins)) != len(spins):
        raise ValueError("region repeats a spin")
    if spins[0] < 0 or spins[-1] >= n_spins:
        raise ValueError("region contains an out-of-range spin")
    if len(spins) == n_spins:
        raise ValueError("region must be a proper subset of the spins")
    return spins


def _subset_sums(weights: list[int]) -> np.ndarray:
    """Entry i is the sum of ``weights[b]`` over the set bits b of i."""
    sums = np.zeros(1, dtype=np.int64)
    for w in weights:
        sums = np.concatenate([sums, sums + w])
    return sums


@lru_cache(maxsize=4)
def _full_indices(n_spins: int) -> np.ndarray:
    """0 .. 2^n - 1 as one read-only array, shared by every full basis of n spins."""
    indices = np.arange(1 << n_spins, dtype=np.int64)
    indices.flags.writeable = False
    return indices


@dataclass(frozen=True, eq=False)
class Basis:
    """Computational-basis states of N spins that a state vector runs over.

    ``kept_indices=None`` means all 2^N states in index order; otherwise
    the basis is the given subset of full-space indices, stored sorted, as
    for the plaquette-constrained sector. Bases compare by value.
    """

    n_spins: int
    kept_indices: np.ndarray | None = None
    _split_cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.kept_indices is not None:
            kept = np.sort(np.asarray(self.kept_indices, dtype=np.int64))
            object.__setattr__(self, "kept_indices", kept)

    @property
    def dimension(self) -> int:
        if self.kept_indices is None:
            return 1 << self.n_spins
        return int(self.kept_indices.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Basis):
            return NotImplemented
        if self.n_spins != other.n_spins:
            return False
        if self.kept_indices is None or other.kept_indices is None:
            return self.kept_indices is other.kept_indices
        return np.array_equal(self.kept_indices, other.kept_indices)

    def _indices(self) -> np.ndarray:
        """Full-space index of each basis state, in basis order."""
        if self.kept_indices is None:
            return _full_indices(self.n_spins)
        return self.kept_indices

    def project(self, state: "StateVector") -> "StateVector":
        """Restrict a full-space state that lives in this basis."""
        if state.basis != Basis(self.n_spins):
            raise ValueError("can only project a full-basis state of matching size")
        amps = state.amplitudes[self._indices()]
        lost = 1.0 - float(np.sum(np.abs(amps) ** 2))
        if lost > PROJECT_TOL:
            raise ValueError(f"state carries weight {lost:.3e} outside the sector")
        return StateVector(amps / np.linalg.norm(amps), self)

    def pauli_action(
        self, op: PauliOperator
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        """Where a Pauli string sends each basis state, and with what sign.

        Returns ``(positions, signs, valid)``: ``op`` maps basis state k to
        ``op.phase * signs[k]`` times basis state ``positions[k]``. ``signs``
        is None when ``op`` has no Z part (all signs +1), and ``valid`` is
        None when every image lies in the basis; otherwise it marks the
        states whose image does, and ``positions`` is meaningless elsewhere.
        """
        idx = self._indices()
        signs = None
        if op.z_mask:
            signs = np.where(np.bitwise_count(idx & op.z_mask) & 1, -1.0, 1.0)
        if not op.x_mask:  # a diagonal string keeps every state in place
            return (idx if self.kept_indices is None else np.arange(idx.size)), signs, None
        positions, valid = self._locate(idx ^ op.x_mask)
        return positions, signs, valid

    def _locate(self, configs: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Position in this basis of each full-space index in ``configs``.

        Returns ``(positions, found)``: ``found`` is None when the basis
        holds every config; otherwise it marks those it holds, and
        ``positions`` is meaningless elsewhere.
        """
        kept = self.kept_indices
        if kept is None:
            return configs, None
        positions = np.minimum(np.searchsorted(kept, configs), kept.size - 1)
        found = kept[positions] == configs
        return positions, None if found.all() else found

    def region_rows(self, spins: tuple[int, ...]) -> np.ndarray:
        """Each basis state's configuration of ``spins``, in basis order,
        packed in the given order, least significant first."""
        idx = self._indices()
        rows = np.zeros_like(idx)
        for i, s in enumerate(spins):
            rows |= ((idx >> s) & 1) << i
        return rows

    def split_positions(
        self, region: tuple[int, ...]
    ) -> tuple[np.ndarray, tuple[int, int, int]]:
        """Where each basis state sits in a stack of (region x complement) blocks.

        ``region`` is a tuple from ``check_region``. Returns
        ``(positions, (n_classes, rows, cols))``: basis state k belongs at
        flat position ``positions[k]`` of an ``n_classes x rows x cols``
        array. Two basis states share a complement configuration only when
        their region configurations differ by an element of F_A, the GF(2)
        span of those differences in this basis. So the region
        configurations fall into cosets of F_A, no complement configuration
        meets two cosets, and the reduced matrix is block diagonal with one
        block per coset class. Class j is the j-th coset in the order of its
        reduced representative. A state's row is its region configuration's
        bits at the pivots of F_A, so ``rows = 2^dim F_A``, and its column
        counts the class's complement configurations in ascending order.
        A GF(2) flip span tiles the stack exactly; other kept subsets leave
        zero slots. The full basis is one class, a bit permutation of 2^N
        entries with rows packed like ``region_rows``, derived on each call
        and not kept; a kept basis memoises its map per region.
        """
        if self.kept_indices is None:
            # A bit permutation: each spin adds a fixed weight to the flat
            # position. The low and the high half of the spins are summed
            # apart into two 2^(N/2) tables, which broadcasting adds.
            n = self.n_spins
            rest = [s for s in range(n) if s not in region]
            weight = [0] * n
            for i, s in enumerate(region):
                weight[s] = 1 << (len(rest) + i)
            for j, s in enumerate(rest):
                weight[s] = 1 << j
            half = n // 2
            positions = _subset_sums(weight[half:])[:, None] + _subset_sums(weight[:half])
            return positions.ravel(), (1, 1 << len(region), 1 << len(rest))
        cached = self._split_cache.get(region)
        if cached is None:
            rows = self.region_rows(region)
            rest_mask = ((1 << self.n_spins) - 1) ^ mask(region)
            # Only np.unique with an index output: a plain one imports numpy.ma,
            # about 15 ms in a fresh process.
            _, column = np.unique(self.kept_indices & rest_mask, return_inverse=True)
            ref = np.empty(column.max() + 1, dtype=np.int64)
            ref[column] = rows  # one region row of each column
            # F_A, in echelon form like gf2.row_reduce: each generator is the
            # largest difference to a column's row left after the ones before.
            generators = []
            diff = rows ^ ref[column]
            while (diff := diff[diff != 0]).size:
                generators.append(int(diff.max()))
                diff = np.minimum(diff, diff ^ generators[-1])
            for g in generators:  # gf2.reduce_mod: each column's coset label
                ref = np.minimum(ref, ref ^ g)
            # One stable sort of the labels numbers the classes in label order
            # and, columns being ascending within a class, ranks them in it.
            order = np.argsort(ref, kind="stable")
            labels = ref[order]
            first = np.ones(order.size, dtype=bool)
            first[1:] = labels[1:] != labels[:-1]
            starts = np.flatnonzero(first)
            counts = np.diff(starts, append=order.size)
            col_cls = np.empty_like(order)
            col_cls[order] = np.cumsum(first) - 1
            col_rank = np.empty_like(order)
            col_rank[order] = np.arange(order.size) - np.repeat(starts, counts)
            pivots = sorted(g.bit_length() - 1 for g in generators)
            slot = self.region_rows(tuple(region[p] for p in pivots))
            shape = (int(counts.size), 1 << len(generators), int(counts.max()))
            cached = ((col_cls[column] * shape[1] + slot) * shape[2] + col_rank[column], shape)
            self._split_cache[region] = cached
        return cached


@dataclass
class StateVector:
    """Dense amplitudes over a Basis, the full 2^N space or a sector."""

    amplitudes: np.ndarray
    basis: Basis

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (self.basis.dimension,):
            raise ValueError("amplitude length does not match basis dimension")
        norm = float(np.linalg.norm(self.amplitudes))
        if abs(norm - 1.0) > 1e-8:
            raise ValueError(f"state is not normalized: |psi| = {norm!r}")

    @property
    def n_spins(self) -> int:
        return self.basis.n_spins


def star_operators(geometry: LatticeGeometry) -> tuple[PauliOperator, ...]:
    n = geometry.n_spins
    return tuple(pauli_x(n, sup) for sup in geometry.star_supports)


def plaquette_operators(geometry: LatticeGeometry) -> tuple[PauliOperator, ...]:
    n = geometry.n_spins
    return tuple(pauli_z(n, sup) for sup in geometry.plaquette_supports)


def ground_state(
    geometry: LatticeGeometry, sector: tuple[int, int] = (0, 0), basis: Basis | None = None
) -> StateVector:
    """Analytic ground state of one topological sector, on ``basis``.

    The state is the uniform superposition over the star-group orbit of the
    all-up configuration, shifted by the winding loops selected by
    ``sector = (w1, w2)``. All amplitudes on the orbit equal
    ``group_order**-0.5`` and the four sectors are orthonormal.

    ``basis=None`` is the full 2^N space. A kept basis, such as the
    plaquette sector from ``ed.build_sector``, must hold every orbit
    configuration exactly; any other is refused with a ``ValueError``
    before the amplitudes are allocated, and no 2^N array is formed.
    """
    w1, w2 = sector
    if w1 not in (0, 1) or w2 not in (0, 1):
        raise ValueError("sector labels must be bits")
    n = geometry.n_spins
    if basis is None:
        basis = Basis(n)
    if basis.n_spins != n:
        raise ValueError(f"basis runs over {basis.n_spins} spins, the lattice has {n}")
    star_masks = [mask(sup) for sup in geometry.star_supports]
    kept = basis.kept_indices
    if kept is None:
        check_dimension(n, f"the {geometry.L1}x{geometry.L2} full space")
    elif 1 << rank(star_masks) > kept.size:
        raise ValueError("basis is smaller than the star-group orbit")
    shift = 0
    if w1:
        shift ^= mask(geometry.loop1_support)
    if w2:
        shift ^= mask(geometry.loop2_support)
    elements = span(star_masks)
    positions, found = basis._locate(np.fromiter((e ^ shift for e in elements), dtype=np.int64))
    if found is not None:
        raise ValueError("basis does not hold every configuration of the star-group orbit")
    amps = np.zeros(basis.dimension, dtype=np.complex128)
    amps[positions] = 1.0 / np.sqrt(len(elements))
    return StateVector(amps, basis)


def apply_pauli(op: PauliOperator, state: StateVector) -> np.ndarray:
    """Amplitudes of op|state| in the state's own basis.

    For a sector basis, weight sent outside the sector is dropped, so the
    result is the in-sector projection of the image.
    """
    amps = state.amplitudes
    positions, signs, valid = state.basis.pauli_action(op)
    values = op.phase * (amps if signs is None else signs * amps)
    # A Pauli string is an involution, and the states whose image stays in
    # the basis are closed under it, so the image is a gather.
    out = values[positions]
    if valid is not None:
        out[~valid] = 0
    return out


def residual(geometry: LatticeGeometry, state: StateVector) -> float:
    """Worst ||g|state> - |state>|| over every star and plaquette g."""
    gens = star_operators(geometry) + plaquette_operators(geometry)
    return max(float(np.linalg.norm(apply_pauli(g, state) - state.amplitudes)) for g in gens)


def expectation(state: StateVector, op: PauliOperator) -> complex:
    """Exact <psi|op|psi> as phase * sum_k conj(psi[pos_k]) * sign_k * psi[k].

    ``pos_k`` and ``sign_k`` come from ``Basis.pauli_action``; states whose
    image leaves the basis drop out. No image vector is formed.
    """
    if op.n_spins != state.n_spins:
        raise ValueError("operator and state act on different spin counts")
    amps = state.amplitudes
    positions, signs, valid = state.basis.pauli_action(op)
    values = amps if signs is None else signs * amps
    if valid is not None:
        positions, values = positions[valid], values[valid]
    return complex(op.phase * np.vdot(amps[positions], values))


def analytic_region_entropy(geometry: LatticeGeometry, region) -> float:
    """Entanglement entropy of a ground-state region, in bits, from GF(2).

    The reduced matrix of a stabilizer ground state is proportional to a
    projector, so the entropy is the base-2 log of its flat rank:
    rank(G) - d_A - d_B bits, where d_A counts independent group elements
    supported inside the region and d_B the same for the complement. Both
    counts reduce to ranks of the restricted star masks, giving
    S = rank(masks|region) + rank(masks|complement) - rank(masks).
    The value holds for every Renyi index and every sector.
    """
    region_mask = mask(check_region(region, geometry.n_spins))
    rest_mask = ((1 << geometry.n_spins) - 1) ^ region_mask
    masks = [mask(sup) for sup in geometry.star_supports]
    r = rank(masks)
    r_in = rank(m & region_mask for m in masks)
    r_out = rank(m & rest_mask for m in masks)
    return float(r_in + r_out - r)


def save_state(path, state: StateVector) -> None:
    """Binary amplitude dump for regression comparisons."""
    kept = state.basis.kept_indices
    extra = {} if kept is None else {"kept_indices": kept}
    np.savez(path, amplitudes=state.amplitudes, n_spins=state.n_spins, **extra)
