"""Matrix-free Hamiltonian engine: assembly, spectra, and time evolution.

Hamiltonians are lists of weighted Pauli strings applied term by term, so a
matvec costs O(terms * dimension) with only vector-sized memory. Each term
is applied as a gather, which relies on every Pauli string being an
involution: it sends state k to state j exactly when it sends j to k. The same
engine drives any ``stabilizer.Basis``: the full 2^N space, or a GF(2)
span of flips enumerated explicitly, the plaquette sector (``build_sector``)
or a run's block (``build_block``), the states the Hamiltonian's flips reach
from all-up: 256 on 3x3, and 32,768 under the ``split_HV`` field.
``trajectory`` propagates within the dense cap through one
eigendecomposition per call, and above it through an adaptive Krylov
approximation of exp(-iHt), which ``evolve`` runs on any basis. Every
operator is real symmetric, so its eigenvectors stay real: a spectral
sample is one real product with the float view of its complex
coefficients, a quarter of the complex product's arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .gf2 import mask, row_reduce, span
from .lattice import LatticeGeometry
from .pauli import PauliOperator, pauli_x, pauli_z, single
from .stabilizer import Basis, StateVector, check_dimension

__all__ = [
    "HamiltonianSpec",
    "HamiltonianOperator",
    "build_block",
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
        if not np.isfinite(self.kappa * self.h):
            raise ValueError(f"term weight kappa*h = {self.kappa * self.h!r} is not finite")

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


def _flip_span(n_spins: int, flips, what: str) -> Basis:
    """The basis of every XOR of ``flips``, refused above the cap before enumeration."""
    generators = row_reduce(flips)
    check_dimension(len(generators), what)
    return Basis(n_spins, span(generators))


def build_sector(geometry: LatticeGeometry) -> Basis:
    """Enumerate the subspace with every plaquette eigenvalue +1.

    One plaquette is the product of all others, so the dimension is
    2^(N - (L1*L2 - 1)). The star flips and the two winding loops commute
    with every plaquette and span that many states, so the sector is their
    GF(2) span, enumerated without visiting the 2^N full space. A span
    above ``2^stabilizer.BASIS_CAP_BITS`` states is refused before enumeration.
    """
    flips = geometry.star_supports + (geometry.loop1_support, geometry.loop2_support)
    return _flip_span(geometry.n_spins, (mask(sup) for sup in flips),
                      f"the {geometry.L1}x{geometry.L2} plaquette sector")


def build_block(spec: HamiltonianSpec) -> Basis:
    """The states the Hamiltonian connects to the all-up configuration.

    Every term maps a computational state to one other, flipped by its X
    part, so the all-up state's block is the GF(2) span of the flips of the
    nonzero-weight terms, enumerated like ``build_sector``. It holds the
    sector-(0,0) ground state whenever the stars have weight, and it is
    where a quench from that state runs: on 3x3, the 256-state star span
    under ``uniform_z``, 32,768 states under ``split_HV`` with kappa != 0.
    """
    geo = spec.geometry
    flips = (op.x_mask for coef, op in spec.term_list() if coef and op.x_mask)
    return _flip_span(geo.n_spins, flips, f"the {geo.L1}x{geo.L2} block of the all-up state")


class HamiltonianOperator:
    """Matrix-free real symmetric operator from weighted Pauli terms.

    Diagonal terms are folded into one vector; every off-diagonal term keeps
    its precomputed target positions from ``Basis.pauli_action`` (plus
    per-state signs when it carries a Z part). A Pauli string is an
    involution, so ``perm[perm]`` is the identity and ``matvec`` reads each
    term as the gather ``(signs * v)[perm]``. Terms with imaginary matrix
    elements (an odd number of Y factors) are refused, so every weight is a
    float. On a kept basis each term must map the basis to itself, and a
    diagonal that overflows to a non-finite value is refused.
    """

    def __init__(self, terms: Sequence[tuple[float, PauliOperator]], basis: Basis):
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
                    f"term {op} does not preserve the basis; "
                    "it fails to commute with a basis constraint"
                )
            weight = coef * op.phase.real
            if op.x_mask == 0:
                # An overflow is refused below, after the sum, without a warning.
                with np.errstate(over="ignore", invalid="ignore"):
                    diag += weight if signs is None else weight * signs
                continue
            offdiag.append((weight, perm, signs))
        if not np.isfinite(diag).all():
            raise ValueError("the diagonal of the Hamiltonian is not finite")
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

    def dense(self) -> np.ndarray:
        """Dense matrix over the operator's basis."""
        cols = np.arange(self.dimension)
        mat = np.diag(self._diag)
        for weight, perm, signs in self._offdiag:
            mat[perm, cols] += weight if signs is None else weight * signs
        return mat

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """``(w, vecs)`` of the operator, from one real ``eigh`` of ``dense()``.

        The operator is real symmetric, so the eigenvectors are real and kept
        as the float64 columns ``eigh`` returns. A basis above the dense cap
        is refused before the ``eigh`` runs.
        """
        if self.dimension > FULL_SPECTRUM_CAP:
            raise ValueError(
                f"basis of {self.dimension} states exceeds the dense cap {FULL_SPECTRUM_CAP}"
            )
        return np.linalg.eigh(self.dense())


def build_hamiltonian(spec: HamiltonianSpec, basis=None) -> HamiltonianOperator:
    """Assemble the matrix-free operator for a coupling spec.

    ``basis`` defaults to the full 2^N space; pass ``build_block(spec)``,
    or the ``build_sector`` basis when every term commutes with the
    plaquettes (the uniform-z field), to restrict.
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
    """Propagation of a basis of ``dimension`` states: "spectrum" within the
    dense cap, else "krylov"."""
    return "spectrum" if dimension <= FULL_SPECTRUM_CAP else "krylov"


def _real_product(mat: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``mat @ v`` for a real matrix and a complex vector, as one real
    product with the ``(dim, 2)`` float view of ``v``."""
    pairs = np.ascontiguousarray(v).view(np.float64).reshape(-1, 2)
    return (mat @ pairs).view(np.complex128).ravel()


def trajectory(
    state: StateVector, op: HamiltonianOperator, times: Sequence[float]
) -> Iterator[StateVector]:
    """Yield exp(-iHt)|state> for each time of an ascending sequence, lazily.

    The operator is propagated by ``propagation`` of its dimension: within
    the dense cap the state is projected once on the real eigenbasis of one
    ``eigensystem`` call and each sample is built from the eigenphases;
    above it ``evolve`` steps from one sample to the next. The projection
    and each sample are real products with the ``(dim, 2)`` float view of
    a complex vector, one sample per product, so a sample's bits do not
    depend on how many times the call is given.
    """
    if state.basis != op.basis:
        raise ValueError("state and operator use different bases")
    if propagation(op.dimension) == "spectrum":
        w, vecs = op.eigensystem()
        coef = _real_product(vecs.T, state.amplitudes)
        for t in times:
            yield StateVector(_real_product(vecs, coef * np.exp(-1j * w * t)), state.basis)
        return
    for step in np.diff(times, prepend=0.0):
        state = evolve(state, op, step)
        yield state


def evolve(
    state: StateVector, op: HamiltonianOperator, t: float, tol: float = 1e-10
) -> StateVector:
    """Propagate a state to exp(-iHt)|state> by Krylov steps on the operator's basis.

    Substeps are adaptive, with subspaces of at most ``KRYLOV_DIM`` vectors,
    and the whole propagation is held to ``tol``. ``trajectory`` calls it
    above the dense cap. Unitarity is inherited, not enforced: no
    renormalization happens.
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
