"""Matrix-free Hamiltonian engine: assembly, spectra, and time evolution.

Hamiltonians are lists of weighted Pauli strings applied term by term, so a
matvec costs O(terms * dimension) with only vector-sized memory. The same
engine drives any ``stabilizer.Basis``: the full 2^N space, or the
plaquette-constrained sector from ``build_sector``, whose basis states are
enumerated explicitly. Small dimensions get a cached dense
eigendecomposition; larger ones are propagated with an adaptive Krylov
approximation of exp(-iHt).
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
    "build_hamiltonian",
    "build_sector",
    "full_spectrum",
    "lanczos_extremal",
    "evolve",
    "propagation",
    "trajectory",
]

FULL_SPECTRUM_CAP = 4096
LANCZOS_SEED = 20170831

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
    per-state signs when it carries a Z part). Terms with imaginary matrix
    elements (an odd number of Y factors) are refused, so every weight is a
    float. On a sector basis each term must map the sector to itself.
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
        self._eig: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def dimension(self) -> int:
        return self.basis.dimension

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self._diag * v
        for weight, perm, signs in self._offdiag:
            if signs is None:
                out[perm] += weight * v
            else:
                out[perm] += weight * (signs * v)
        return out

    def expectation(self, v: np.ndarray) -> float:
        return float(np.vdot(v, self.matvec(v)).real)

    def dense(self) -> np.ndarray:
        mat = np.diag(self._diag)
        rows = np.arange(self.dimension)
        for weight, perm, signs in self._offdiag:
            vals = weight if signs is None else weight * signs
            mat[perm, rows] += vals
        return mat

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached real eigendecomposition, vectors stored complex; refuses above the cap."""
        cap = FULL_SPECTRUM_CAP
        if self.dimension > cap:
            raise ValueError(f"dimension {self.dimension} exceeds the dense cap {cap}")
        if self._eig is None:
            w, vecs = np.linalg.eigh(self.dense())
            self._eig = (w, vecs.astype(np.complex128))
        return self._eig


def build_hamiltonian(spec: HamiltonianSpec, basis=None) -> HamiltonianOperator:
    """Assemble the matrix-free operator for a coupling spec.

    ``basis`` defaults to the full 2^N space; pass the ``build_sector``
    basis to restrict (only valid when every term commutes with the sector
    constraints, e.g. the uniform-z field).
    """
    if basis is None:
        basis = Basis(spec.geometry.n_spins)
    return HamiltonianOperator(spec.term_list(), basis)


def full_spectrum(op: HamiltonianOperator) -> tuple[np.ndarray, np.ndarray]:
    """Complete eigendecomposition (ascending) for small dimensions."""
    w, vecs = op.eigensystem()
    return w.copy(), vecs.copy()


def _orthogonalize(w: np.ndarray, against: list[np.ndarray]) -> np.ndarray:
    # Two Gram-Schmidt sweeps keep orthogonality near machine precision.
    for _ in range(2):
        for q in against:
            w = w - np.vdot(q, w) * q
    return w


def lanczos_extremal(
    op, k: int, tol: float = 1e-10, max_iter: int = 300, seed: int = LANCZOS_SEED
) -> list[tuple[float, np.ndarray]]:
    """Lowest k eigenpairs by Lanczos with full reorthogonalization.

    Degenerate levels are resolved by deflation: each converged eigenvector
    is projected out and the iteration restarts, so a four-fold ground
    manifold yields four orthonormal vectors. Start vectors come from a
    fixed seeded generator, making results deterministic. Every returned
    pair satisfies ||H v - lambda v|| <= tol, checked on the vector itself.

    Raises RuntimeError with the best achieved residual if any slot fails
    to converge within ``max_iter`` iterations.
    """
    matvec = op.matvec
    dim = op.dimension
    rng = np.random.default_rng(seed)
    found: list[tuple[float, np.ndarray]] = []
    deflate: list[np.ndarray] = []
    for slot in range(k):
        v0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v0 = _orthogonalize(v0, deflate)
        nrm = float(np.linalg.norm(v0))
        if nrm < 1e-12:
            raise RuntimeError("start vector vanished after deflation")
        basis_vecs = [v0 / nrm]
        alphas: list[float] = []
        betas: list[float] = []
        best_residual = np.inf
        converged = False
        for it in range(1, max_iter + 1):
            w = matvec(basis_vecs[-1])
            w = _orthogonalize(w, deflate)
            alphas.append(float(np.vdot(basis_vecs[-1], w).real))
            w = _orthogonalize(w, basis_vecs)
            b = float(np.linalg.norm(w))
            T = np.diag(alphas)
            if betas:
                T = T + np.diag(betas, 1) + np.diag(betas, -1)
            evals, evecs = np.linalg.eigh(T)
            exhausted = b <= 1e-13 or it >= min(dim, max_iter)
            # The tridiagonal estimate is cheap; confirm on the Ritz vector
            # once it claims convergence (or nothing more can be gained).
            if abs(b * evecs[-1, 0]) <= 0.1 * tol or exhausted:
                vec = np.zeros_like(basis_vecs[0])
                for coef, q in zip(evecs[:, 0], basis_vecs):
                    vec += coef * q
                vec = _orthogonalize(vec, deflate)
                vec /= np.linalg.norm(vec)
                lam = float(np.vdot(vec, matvec(vec)).real)
                true_res = float(np.linalg.norm(matvec(vec) - lam * vec))
                best_residual = min(best_residual, true_res)
                if true_res <= tol:
                    found.append((lam, vec))
                    deflate.append(vec)
                    converged = True
                    break
            if exhausted:
                break
            betas.append(b)
            basis_vecs.append(w / b)
        if not converged:
            raise RuntimeError(
                f"Lanczos slot {slot} did not converge: best residual "
                f"{best_residual:.3e} after {it} iterations (tol {tol:.1e})"
            )
    found.sort(key=lambda pair: pair[0])
    return found


def _expm_krylov_step(
    matvec: Callable[[np.ndarray], np.ndarray],
    v: np.ndarray,
    dt: float,
    target: float,
    m_max: int = 30,
) -> tuple[np.ndarray, float]:
    """One Krylov approximation of exp(-i*H*dt) v with an error estimate.

    The subspace grows until the estimate |beta_m u_m| of the weight leaking
    past it is within ``target`` (zero on happy breakdown), or to ``m_max``.
    """
    basis_vecs = [v]
    T = np.zeros((m_max + 1, m_max + 1))
    for m in range(1, m_max + 1):
        w = matvec(basis_vecs[-1])
        T[m - 1, m - 1] = np.vdot(basis_vecs[-1], w).real
        w = _orthogonalize(w, basis_vecs)
        b = float(np.linalg.norm(w))
        evals, evecs = np.linalg.eigh(T[:m, :m])
        u = evecs @ (np.exp(-1j * dt * evals) * evecs[0].conj())
        err = 0.0 if b <= 1e-14 else abs(b * u[-1])
        if err <= target:
            break
        T[m, m - 1] = T[m - 1, m] = b
        basis_vecs.append(w / b)
    out = np.zeros_like(v)
    for coef, q in zip(u, basis_vecs):
        out += coef * q
    return out, float(err)


def propagation(op: HamiltonianOperator) -> str:
    """How ``op`` propagates: "spectrum" within the dense cap, else "krylov"."""
    return "spectrum" if op.dimension <= FULL_SPECTRUM_CAP else "krylov"


def _spectral_samples(state: StateVector, op: HamiltonianOperator, times):
    w, vecs = op.eigensystem()
    coef = vecs.conj().T @ state.amplitudes
    for t in times:
        yield StateVector(vecs @ (coef * np.exp(-1j * w * t)), state.basis)


def trajectory(
    state: StateVector, op: HamiltonianOperator, times: Sequence[float]
) -> Iterator[StateVector]:
    """Yield exp(-iHt)|state> for each time of an ascending sequence, lazily.

    Within the dense cap each sample comes from eigenbasis coefficients
    computed once; above it the Krylov propagator of ``evolve`` steps from
    one sample to the next.
    """
    if state.basis != op.basis:
        raise ValueError("state and operator use different bases")
    if propagation(op) == "spectrum":
        yield from _spectral_samples(state, op, times)
        return
    for step in np.diff(times, prepend=0.0):
        state = evolve(state, op, step, method="krylov")
        yield state


def evolve(
    state: StateVector,
    op: HamiltonianOperator,
    t: float,
    tol: float = 1e-10,
    method: str = "auto",
) -> StateVector:
    """Propagate a state to exp(-iHt)|state>.

    ``method`` is "spectrum" (dense eigendecomposition, cached on the
    operator), "krylov" (adaptive substepping, subspace size <= 30), or
    "auto" (spectrum when the dimension is within the dense cap).
    Unitarity is inherited, not enforced: no renormalization happens.
    """
    if state.basis != op.basis:
        raise ValueError("state and operator use different bases")
    if method == "auto":
        method = propagation(op)
    if method == "spectrum":
        return next(_spectral_samples(state, op, (t,)))
    if method != "krylov":
        raise ValueError(f"unknown method {method!r}")
    if t == 0.0:
        return state.copy()
    v = state.amplitudes.copy()
    remaining = abs(t)
    sign = 1.0 if t >= 0 else -1.0
    dt = remaining
    budget = tol / max(1.0, remaining)
    steps = 0
    while remaining > 1e-15:
        dt = min(dt, remaining)
        # The subspace stops where a step would grow dt, so growing stays reachable.
        out, err = _expm_krylov_step(op.matvec, v, sign * dt, 0.01 * budget * dt)
        if err > budget * dt and dt > 1e-12:
            dt *= 0.5
            steps += 1
            if steps > 10000:
                raise RuntimeError("Krylov step control failed to converge")
            continue
        v = out
        remaining -= dt
        if err < 0.01 * budget * dt:
            dt *= 1.5
        steps += 1
        if steps > 10000:
            raise RuntimeError("Krylov propagation exceeded the step limit")
    return StateVector(v, state.basis)
