"""Matrix-free Hamiltonian engine: assembly, spectra, and time evolution.

Hamiltonians are lists of weighted Pauli strings applied term by term, so a
matvec costs O(terms * dimension) with only vector-sized memory. Each term
is applied as a gather, which relies on every Pauli string being an
involution: it sends state k to state j exactly when it sends j to k. The same
engine drives any ``stabilizer.Basis``: the full 2^N space, or the
plaquette-constrained sector from ``build_sector``, whose basis states are
enumerated explicitly. H is block diagonal in its Z-symmetries, and a state
is propagated only in the blocks it touches: a block within the dense cap
through its eigendecomposition, taken once per ``trajectory`` call, and a
larger one through an adaptive Krylov approximation of exp(-iHt) on its own
operator. The 3x3 quench state touches 256 of the sector's 1024 states, and
32,768 of the 2^18 full-space states under the ``split_HV`` field.
Only ``trajectory`` applies this cap rule; ``evolve`` is Krylov on the
whole basis.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .gf2 import kernel_basis, mask, row_reduce, span
from .lattice import LatticeGeometry
from .pauli import PauliOperator, pauli_x, pauli_z, single
from .stabilizer import Basis, StateVector, check_dimension

__all__ = [
    "HamiltonianSpec",
    "HamiltonianOperator",
    "build_hamiltonian",
    "build_sector",
    "evolve",
    "propagation",
    "trajectory",
]

FULL_SPECTRUM_CAP = 4096
# Largest Krylov subspace one propagation step builds.
KRYLOV_DIM = 30

_FIELD_MODES = ("uniform_z", "split_HV")


@dataclass(frozen=True)
class HamiltonianSpec:
    """Couplings and field layout for the toric code with a magnetic field.

    The base model is -U sum_p B_p - J sum_s A_s. ``uniform_z`` adds
    -h sigma^z on every spin; ``split_HV`` adds -h sigma^z on the
    horizontal sublattice and -kappa*h sigma^x on the vertical one.
    """

    geometry: LatticeGeometry
    U: float = 1.0
    J: float = 1.0
    h: float = 0.0
    kappa: float = 0.0
    field_mode: str = "uniform_z"

    def __post_init__(self):
        if self.field_mode not in _FIELD_MODES:
            raise ValueError(
                f"unknown field mode {self.field_mode!r}; expected one of {_FIELD_MODES}"
            )
        for name in ("U", "J", "h", "kappa"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"coupling {name} is not finite")

    def term_list(self) -> tuple[tuple[float, PauliOperator], ...]:
        """Deterministic weighted Pauli terms: plaquettes, stars, fields."""
        geo = self.geometry
        n = geo.n_spins
        terms: list[tuple[float, PauliOperator]] = []
        for sup in geo.plaquette_supports:
            terms.append((-self.U, pauli_z(n, sup)))
        for sup in geo.star_supports:
            terms.append((-self.J, pauli_x(n, sup)))
        if self.field_mode == "uniform_z":
            for j in range(n):
                terms.append((-self.h, single(n, "Z", j)))
        else:
            for j in geo.horizontal_spins:
                terms.append((-self.h, single(n, "Z", j)))
            for j in geo.vertical_spins:
                terms.append((-self.kappa * self.h, single(n, "X", j)))
        return tuple(terms)


def build_sector(geometry: LatticeGeometry) -> Basis:
    """Enumerate the subspace with every plaquette eigenvalue +1.

    One plaquette is the product of all others, so the dimension is
    2^(N - (L1*L2 - 1)). The star flips and the two winding loops commute
    with every plaquette and span that many states, so the sector is their
    GF(2) span, enumerated without visiting the 2^N full space. A span
    above ``2^stabilizer.BASIS_CAP_BITS`` states is refused before enumeration.
    """
    flips = geometry.star_supports + (geometry.loop1_support, geometry.loop2_support)
    generators = row_reduce(mask(sup) for sup in flips)
    check_dimension(len(generators), f"the {geometry.L1}x{geometry.L2} plaquette sector")
    return Basis(geometry.n_spins, span(generators))


class HamiltonianOperator:
    """Matrix-free real symmetric operator from weighted Pauli terms.

    Diagonal terms are folded into one vector; every off-diagonal term keeps
    its precomputed target positions from ``Basis.pauli_action`` (plus
    per-state signs when it carries a Z part). A Pauli string is an
    involution, so ``perm[perm]`` is the identity and ``matvec`` reads each
    term as the gather ``(signs * v)[perm]``. Terms with imaginary matrix
    elements (an odd number of Y factors) are refused, so every weight is a
    float. On a sector basis each term must map the sector to itself; a
    full basis above ``2^stabilizer.BASIS_CAP_BITS`` states is refused first.
    """

    def __init__(self, terms: Sequence[tuple[float, PauliOperator]], basis: Basis):
        if basis.kept_indices is None:
            check_dimension(basis.n_spins, f"the full space of {basis.n_spins} spins")
        self.basis = basis
        self.terms = tuple((float(c), op) for c, op in terms)
        diag = np.zeros(basis.dimension)
        offdiag = []
        for coef, op in self.terms:
            if op.n_spins != basis.n_spins:
                raise ValueError("term size does not match basis")
            if not op.is_hermitian:
                raise ValueError(f"non-Hermitian term: {op}")
            if op.phase.imag:
                raise ValueError(f"term {op} has imaginary matrix elements")
            if coef == 0.0:
                continue
            perm, signs, valid = basis.pauli_action(op)
            if valid is not None:
                raise ValueError(
                    f"term {op} does not preserve the sector; "
                    "it fails to commute with a basis constraint"
                )
            weight = coef * op.phase.real
            if op.x_mask == 0:
                diag += weight if signs is None else weight * signs
                continue
            offdiag.append((weight, perm, signs))
        self._diag = diag
        self._offdiag = offdiag

    @property
    def dimension(self) -> int:
        return self.basis.dimension

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self._diag * v
        for weight, perm, signs in self._offdiag:
            out += weight * (v if signs is None else signs * v)[perm]
        return out

    def expectation(self, v: np.ndarray) -> float:
        return float(np.vdot(v, self.matvec(v)).real)

    def symmetries(self) -> list[int]:
        """Z-strings that commute with every term, as a GF(2) basis of spin masks.

        A Z-string commutes with a term when it overlaps the term's flips evenly.
        """
        flips = [op.x_mask for coef, op in self.terms if coef and op.x_mask]
        n = self.basis.n_spins
        columns = [sum((x >> s & 1) << t for t, x in enumerate(flips)) for s in range(n)]
        return kernel_basis(columns)

    def blocks(self, amplitudes: np.ndarray | None = None) -> list[np.ndarray]:
        """Ascending basis positions of every block, or of each block ``amplitudes`` touches.

        A block holds the basis states with equal parities under every
        symmetry, so every term maps a block into itself. A block is touched
        where ``amplitudes`` is nonzero; only the touched blocks are
        gathered, so a state in one of the 1024 blocks of the 3x3 full space
        costs one block, not 1024. Blocks come in ascending order of their
        parities, the first symmetry's most significant.
        """
        idx = self.basis._indices()
        labels = np.zeros(self.dimension, dtype=np.int64)
        for z in self.symmetries():
            labels = 2 * labels + (np.bitwise_count(idx & z) & 1)
        positions = np.arange(self.dimension)
        if amplitudes is not None:
            positions = np.flatnonzero(np.isin(labels, labels[amplitudes != 0]))
        positions = positions[np.argsort(labels[positions], kind="stable")]
        return np.split(positions, np.flatnonzero(np.diff(labels[positions])) + 1)

    def restrict(self, positions: np.ndarray) -> "HamiltonianOperator":
        """The operator on a block, over the basis of that block's states.

        ``positions`` must be ascending and a set that every term maps into
        itself, such as a block. The parent's term arrays are sliced, not
        rebuilt; the whole basis gives the operator itself.
        """
        if positions.size == self.dimension:
            return self
        local = np.empty(self.dimension, dtype=np.int64)
        local[positions] = np.arange(positions.size)
        block = copy.copy(self)
        block.basis = Basis(self.basis.n_spins, self.basis._indices()[positions])
        block._diag = self._diag[positions]
        block._offdiag = [
            (weight, local[perm[positions]], None if signs is None else signs[positions])
            for weight, perm, signs in self._offdiag
        ]
        return block

    def dense(self) -> np.ndarray:
        """Dense matrix over the operator's basis."""
        cols = np.arange(self.dimension)
        mat = np.diag(self._diag)
        for weight, perm, signs in self._offdiag:
            mat[perm, cols] += weight if signs is None else weight * signs
        return mat

    def eigensystem(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(w, vecs)`` of the block at ``positions``, from one real ``eigh``.

        The vectors are stored complex, like the states they act on. A block
        above the dense cap is refused before the ``eigh`` runs.
        """
        if positions.size > FULL_SPECTRUM_CAP:
            raise ValueError(
                f"block of {positions.size} states exceeds the dense cap {FULL_SPECTRUM_CAP}"
            )
        w, vecs = np.linalg.eigh(self.restrict(positions).dense())
        return w, vecs.astype(np.complex128)


def build_hamiltonian(spec: HamiltonianSpec, basis=None) -> HamiltonianOperator:
    """Assemble the matrix-free operator for a coupling spec.

    ``basis`` defaults to the full 2^N space; pass the ``build_sector``
    basis to restrict (only valid when every term commutes with the sector
    constraints, e.g. the uniform-z field).
    """
    if basis is None:
        basis = Basis(spec.geometry.n_spins)
    return HamiltonianOperator(spec.term_list(), basis)


def _expm_krylov_step(
    matvec: Callable[[np.ndarray], np.ndarray],
    v: np.ndarray,
    dt: float,
    target: float,
) -> tuple[np.ndarray, float]:
    """One Krylov approximation of exp(-i*H*dt) v with an error estimate.

    The subspace grows until the estimate |beta_m u_m| of the weight leaking
    past it is within ``target`` (zero on happy breakdown), or to ``KRYLOV_DIM``.
    Its vectors are the rows of one array; rows never reached are never
    written, so memory follows the subspace actually built.
    """
    Q = np.empty((KRYLOV_DIM, v.size), dtype=np.complex128)
    Q[0] = v
    T = np.zeros((KRYLOV_DIM, KRYLOV_DIM))
    for m in range(1, KRYLOV_DIM + 1):
        w = matvec(Q[m - 1])
        T[m - 1, m - 1] = np.vdot(Q[m - 1], w).real
        # Two classical Gram-Schmidt passes keep orthogonality near machine
        # precision. conj(Q @ conj(w)) gives the overlaps without copying Q.
        for _ in range(2):
            w -= np.conj(Q[:m] @ np.conj(w)) @ Q[:m]
        b = float(np.linalg.norm(w))
        evals, evecs = np.linalg.eigh(T[:m, :m])
        u = evecs @ (np.exp(-1j * dt * evals) * evecs[0].conj())
        err = 0.0 if b <= 1e-14 else abs(b * u[-1])
        if err <= target or m == KRYLOV_DIM:
            break
        T[m, m - 1] = T[m - 1, m] = b
        Q[m] = w / b
    return u @ Q[:m], float(err)


def propagation(dimension: int) -> str:
    """Propagation of a block of ``dimension`` states: "spectrum" within the
    dense cap, else "krylov"."""
    return "spectrum" if dimension <= FULL_SPECTRUM_CAP else "krylov"


def _block_samples(op: HamiltonianOperator, positions: np.ndarray, amps: np.ndarray, times):
    """A block's slice ``amps`` of the state at each time, by the cap rule.

    Within the cap the slice is projected once on the block's eigenbasis and
    each sample is built from the eigenphases. Above it ``evolve`` steps the
    slice from one sample to the next on the block's own operator. A slice
    of a state that touches several blocks is not normalized, so it is
    stepped as ``amps / |amps|`` and scaled back.
    """
    if propagation(positions.size) == "spectrum":
        w, vecs = op.eigensystem(positions)
        coef = vecs.conj().T @ amps
        for t in times:
            yield vecs @ (coef * np.exp(-1j * w * t))
        return
    norm = float(np.linalg.norm(amps))
    block = op.restrict(positions)
    state = StateVector(amps / norm, block.basis)
    for step in np.diff(times, prepend=0.0):
        state = evolve(state, block, step)
        yield norm * state.amplitudes


def trajectory(
    state: StateVector, op: HamiltonianOperator, times: Sequence[float]
) -> Iterator[StateVector]:
    """Yield exp(-iHt)|state> for each time of an ascending sequence, lazily.

    Only the blocks the state touches are propagated, each by
    ``propagation`` of its own size: within the dense cap from its
    eigenbasis coefficients, one ``eigh`` per block and call; above it by
    Krylov steps from one sample to the next on the block's operator. Each
    sample is scattered back into the operator's basis.
    """
    if state.basis != op.basis:
        raise ValueError("state and operator use different bases")
    amps = state.amplitudes
    streams = [(p, _block_samples(op, p, amps[p], times)) for p in op.blocks(amps)]
    for _ in times:
        out = np.zeros_like(amps)
        for positions, samples in streams:
            out[positions] = next(samples)
        yield StateVector(out, state.basis)


def evolve(
    state: StateVector, op: HamiltonianOperator, t: float, tol: float = 1e-10
) -> StateVector:
    """Propagate a state to exp(-iHt)|state> by Krylov steps on the whole basis.

    Substeps are adaptive, with subspaces of at most ``KRYLOV_DIM`` vectors,
    and the whole propagation is held to ``tol``. ``trajectory`` calls it
    on a block's own operator above the dense cap. Unitarity is inherited,
    not enforced: no renormalization happens.
    """
    if state.basis != op.basis:
        raise ValueError("state and operator use different bases")
    v = state.amplitudes.copy()
    remaining = abs(t)
    sign = 1.0 if t >= 0 else -1.0
    dt = remaining
    budget = tol / max(1.0, remaining)
    steps = 0
    while remaining > 1e-15:
        steps += 1
        if steps > 10000:
            raise RuntimeError("Krylov propagation exceeded the step limit")
        dt = min(dt, remaining)
        # The subspace stops where a step would grow dt, so growing stays reachable.
        out, err = _expm_krylov_step(op.matvec, v, sign * dt, 0.01 * budget * dt)
        if err > budget * dt and dt > 1e-12:
            dt *= 0.5
            continue
        v = out
        remaining -= dt
        if err < 0.01 * budget * dt:
            dt *= 1.5
    return StateVector(v, state.basis)
