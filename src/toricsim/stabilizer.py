"""Analytic toric-code ground states and the group-theoretic entropy rule.

The model is H = -U sum_p B_p - J sum_s A_s with A_s the product of sigma^x
on the four bonds of site s and B_p the product of sigma^z around plaquette
p. All terms commute, the ground energy is -L1*L2*(U+J), and the ground
space is four-fold degenerate on the torus.

Products of star operators form a group G of order 2^(L1*L2 - 1); the one
relation is that the product of all stars is the identity. The sector (0,0)
ground state is the uniform superposition |G|^(-1/2) sum_g g|up...up>, and
the other three sectors are reached by the two noncontractible X loops.

Every state vector runs over a ``Basis``, a GF(2) span of flips applied to
all-up. A Pauli string's flip either lies in the span, moving every
position by one XOR, or sends the whole basis out of it.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable
from dataclasses import InitVar, dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .gf2 import mask, pack, permute, rank, reduce_mod, row_reduce, span
from .lattice import LatticeGeometry
from .pauli import PauliOperator, pauli_x, pauli_z

__all__ = [
    "Basis",
    "full_basis",
    "StateVector",
    "ground_state",
    "apply_pauli",
    "residual",
    "expectation",
    "analytic_region_entropy",
    "save_state",
]

# Largest span ``Basis`` admits, the full space included, is
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
    """The region's spins as Python ints, ascending. Refuses a non-integral,
    repeated or out-of-range spin, an empty region, and the whole set of spins."""
    try:
        spins = tuple(sorted(map(operator.index, region)))
    except TypeError:
        raise ValueError("region must be a collection of integer spins") from None
    if not spins:
        raise ValueError("region is empty")
    if len(set(spins)) != len(spins):
        raise ValueError("region repeats a spin")
    if spins[0] < 0 or spins[-1] >= n_spins:
        raise ValueError("region contains an out-of-range spin")
    if len(spins) == n_spins:
        raise ValueError("region must be a proper subset of the spins")
    return spins


@dataclass(frozen=True)
class Basis:
    """The computational states of N spins that a state vector runs over:
    the GF(2) span of ``flips`` applied to all-up.

    ``flips=None`` means every single-spin flip, the full space. The span
    is stored as its reduced echelon ``generators`` (``gf2.row_reduce``),
    which depend on the span alone, so bases compare by value. Basis states
    run in ascending index order: doubling over the generators in ascending
    leading-bit order enumerates them so, and a state's position is its
    index's bits at those leading bits, the ``pivots``. No index is ever
    searched for. A flip with a bit at or above ``n_spins`` is refused, as
    is a span above ``2^BASIS_CAP_BITS`` states.
    """

    n_spins: int
    flips: InitVar[Iterable[int] | None] = None
    generators: tuple[int, ...] = field(init=False)
    _split_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self, flips):
        what = f"the span of {self.n_spins}-spin flips"
        if flips is None:
            what = f"the full space of {self.n_spins} spins"
            flips = (1 << s for s in range(self.n_spins))
        flips = [int(x) for x in flips]
        # A negative int has every high bit set, so it is refused here too.
        if any(x >> self.n_spins for x in flips):
            raise ValueError(
                f"a flip of {self.n_spins} spins has a bit at or above bit {self.n_spins}"
            )
        generators = tuple(row_reduce(flips))
        check_dimension(len(generators), what)
        object.__setattr__(self, "generators", generators)

    @property
    def dimension(self) -> int:
        return 1 << len(self.generators)

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        """The generators' leading bits, ascending: position bit i is index bit
        pivots[i]. A coset of the span ascends as its elements' bits here do:
        the top bit where two differ leads their difference, in the span."""
        return tuple(g.bit_length() - 1 for g in reversed(self.generators))

    @cached_property
    def kept_indices(self) -> np.ndarray:
        """Full-space index of each basis state, ascending, as a read-only array."""
        kept = _linear_map(list(reversed(self.generators)))
        kept.flags.writeable = False
        return kept

    @cached_property
    def _arange(self) -> np.ndarray:
        """0 .. dimension - 1 as a read-only array: the positions a diagonal string keeps."""
        positions = np.arange(self.dimension, dtype=np.int64)
        positions.flags.writeable = False
        return positions

    def position(self, flip: int) -> int | None:
        """Position of the state ``flip`` (a full-space index), None outside the span.

        Flipping by an element x of the span sends the state at position k
        to the one at ``k ^ position(x)``.
        """
        if reduce_mod(self.generators, flip):
            return None
        return pack(flip, self.pivots)

    def project(self, state: "StateVector") -> "StateVector":
        """Restrict a full-space state that lives in this basis."""
        if state.basis.dimension != 1 << state.n_spins or state.n_spins != self.n_spins:
            raise ValueError("can only project a full-basis state of matching size")
        amps = state.amplitudes[self.kept_indices]
        lost = 1.0 - float(np.sum(np.abs(amps) ** 2))
        if lost > PROJECT_TOL:
            raise ValueError(f"state carries weight {lost:.3e} outside the sector")
        return StateVector(amps / np.linalg.norm(amps), self)

    def pauli_action(self, op: PauliOperator) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Where a Pauli string sends each basis state, and with what sign.

        Returns ``(positions, signs)``: ``op`` maps basis state k to
        ``op.phase * signs[k]`` times basis state ``positions[k]``. ``signs``
        is None when ``op`` has no Z part (all signs +1). The X part either
        lies in the span, and then maps the basis onto itself, or sends
        every state out of it: ``positions`` is then None.
        """
        signs = None
        if op.z_mask:
            signs = np.where(np.bitwise_count(self.kept_indices & op.z_mask) & 1, -1.0, 1.0)
        shift = self.position(op.x_mask)
        if shift is None:
            return None, signs
        # A diagonal string keeps every state in place.
        return (self._arange ^ shift if shift else self._arange), signs

    def permutation_positions(self, perm: tuple[int, ...]) -> np.ndarray | None:
        """Where a spin permutation sends each basis state: the state at
        position k, spin s of its configuration moved to spin ``perm[s]``,
        is the state at ``positions[k]``. The map is GF(2)-linear, so it is
        one doubling pass over the generators' images. None when the
        permutation moves the span off itself."""
        images = [self.position(permute(g, perm)) for g in reversed(self.generators)]
        return None if None in images else _linear_map(images)

    def region_rows(self, spins: tuple[int, ...]) -> np.ndarray:
        """Each basis state's configuration of ``spins``, in basis order,
        packed in the given order, least significant first. At another
        basis's ``pivots`` they are the states' positions in that basis."""
        return _linear_map([pack(g, spins) for g in reversed(self.generators)])

    def split_positions(
        self, region: tuple[int, ...]
    ) -> tuple[np.ndarray, tuple[int, int, int]]:
        """Where each basis state sits in a stack of (region x complement) blocks.

        Returns ``(positions, (n_classes, rows, cols))``: basis state k
        belongs at flat position ``positions[k]`` of an ``n_classes x rows x
        cols`` array. States share a complement configuration only when their
        region configurations differ by an element of F_A, the region parts
        of the span's elements with no complement part, so rho_A is block
        diagonal over the cosets of F_A (Fattal et al., quant-ph/0406168).
        Every field of a position is linear: a configuration's bits at the
        ``pivots`` of a span. The class is the label, the region configuration
        reduced mod F_A, at those of the labels' span L; the row is the region
        configuration at F_A's; the column is the complement configuration at
        those of K, the label-0 class's columns. The fields take 2^dim L x
        2^dim F_A x 2^dim K values, disjoint bit ranges whose dimensions sum
        to the span's, so no two states collide. Memoised per region.
        """
        cached = self._split_cache.get(region)
        if cached is None:
            spins = check_region(region, self.n_spins)
            n, w = self.n_spins, len(spins)
            inside = [pack(g, spins) for g in reversed(self.generators)]
            outside = [g & ~mask(spins) for g in reversed(self.generators)]
            # The echelon rows of (key << width | value) below 1 << width
            # span the values that occur with key 0.
            pairs = row_reduce(c << w | r for r, c in zip(inside, outside))
            flips = [v for v in pairs if v < 1 << w]
            labels = [reduce_mod(flips, r) for r in inside]
            pairs = row_reduce(l << n | c for l, c in zip(labels, outside))
            zero_class = [v for v in pairs if v < 1 << n]
            at = [sorted(v.bit_length() - 1 for v in echelon)
                  for echelon in (row_reduce(labels), flips, zero_class)]
            shape = tuple(1 << len(p) for p in at)
            images = [(pack(l, at[0]) * shape[1] + pack(r, at[1])) * shape[2] + pack(c, at[2])
                      for l, r, c in zip(labels, inside, outside)]
            cached = self._split_cache[region] = (_linear_map(images), shape)
        return cached


def _linear_map(images: list[int]) -> np.ndarray:
    """The GF(2)-linear map of positions that sends 1 << i to ``images[i]``,
    by doubling: the positions with top bit i are those below it XOR images[i]."""
    out = np.zeros(1 << len(images), dtype=np.int64)
    for i, image in enumerate(images):
        out[1 << i : 2 << i] = out[: 1 << i] ^ image
    return out


@lru_cache(maxsize=4)
def full_basis(n_spins: int) -> Basis:
    """The full basis of ``n_spins`` spins: one instance per spin count, one set of split maps."""
    return Basis(n_spins)


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
        if not abs(norm - 1.0) <= 1e-8:  # a NaN norm fails this too
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

    ``basis=None`` is the shared ``full_basis``, which ``Basis`` refuses
    above the cap. Any other basis, such as the plaquette sector from
    ``ed.build_sector``, must hold every orbit configuration: the star flips
    and the loop shift must lie in its span. The orbit is placed from their
    positions, ``span(star positions) ^ shift position``, and no 2^N array
    is formed.
    """
    w1, w2 = sector
    if w1 not in (0, 1) or w2 not in (0, 1):
        raise ValueError("sector labels must be bits")
    n = geometry.n_spins
    if basis is None:
        basis = full_basis(n)
    if basis.n_spins != n:
        raise ValueError(f"basis runs over {basis.n_spins} spins, the lattice has {n}")
    stars = [basis.position(mask(sup)) for sup in geometry.star_supports]
    shift = basis.position(w1 * mask(geometry.loop1_support) ^ w2 * mask(geometry.loop2_support))
    if shift is None or None in stars:
        raise ValueError("basis does not hold every configuration of the star-group orbit")
    positions = np.array(span(stars), dtype=np.int64) ^ shift
    amps = np.zeros(basis.dimension, dtype=np.complex128)
    amps[positions] = 1.0 / np.sqrt(positions.size)
    return StateVector(amps, basis)


def apply_pauli(op: PauliOperator, state: StateVector) -> np.ndarray:
    """Amplitudes of op|state| in the state's own basis.

    A string whose flip leaves the span sends every state out of the basis,
    so the in-basis projection of its image is zero.
    """
    amps = state.amplitudes
    positions, signs = state.basis.pauli_action(op)
    if positions is None:
        return np.zeros_like(amps)
    values = op.phase * (amps if signs is None else signs * amps)
    # A Pauli string is an involution, so the image is a gather.
    return values[positions]


def residual(geometry: LatticeGeometry, state: StateVector) -> float:
    """Worst ||g|state> - |state>|| over every star and plaquette g."""
    gens = star_operators(geometry) + plaquette_operators(geometry)
    return max(float(np.linalg.norm(apply_pauli(g, state) - state.amplitudes)) for g in gens)


def expectation(state: StateVector, op: PauliOperator) -> complex:
    """Exact <psi|op|psi> as phase * sum_k conj(psi[pos_k]) * sign_k * psi[k].

    ``pos_k`` and ``sign_k`` come from ``Basis.pauli_action``. A string
    whose flip leaves the span has expectation 0. No image vector is formed.
    """
    if op.n_spins != state.n_spins:
        raise ValueError("operator and state act on different spin counts")
    amps = state.amplitudes
    positions, signs = state.basis.pauli_action(op)
    if positions is None:
        return 0j
    values = amps if signs is None else signs * amps
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
    full = state.basis.dimension == 1 << state.n_spins
    extra = {} if full else {"kept_indices": state.basis.kept_indices}
    np.savez(path, amplitudes=state.amplitudes, n_spins=state.n_spins, **extra)
