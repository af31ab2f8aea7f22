"""Matrix-free Hamiltonian engine: assembly, spectra, and time evolution.

Hamiltonians are lists of weighted Pauli strings applied term by term, so a
matvec costs O(terms * dimension) with only vector-sized memory. Each term
is applied as a gather, which relies on every Pauli string being an
involution: it sends state k to state j exactly when it sends j to k. The same
engine drives any ``stabilizer.Basis``, a GF(2) span of flips: the full 2^N
space, the plaquette sector (``build_sector``) or a run's block
(``build_block``), the states the Hamiltonian's flips reach from all-up: 256
on 3x3, and 32,768 under the ``split_HV`` field. A term's flip lies in the
span, and its gather XORs every position with one constant, or it is refused.
``trajectory`` reads its samples from the eigenphases of the initial
state's own Krylov space, the tridiagonal matrix of one Lanczos loop.
Within the dense cap the space is built until it is closed to round-off
(16 to 18 vectors for the 3x3 quench state on its 256-state block); a
state whose space is still open after ``CLOSURE_LIMIT`` vectors takes one
eigendecomposition of the whole operator instead. Above the cap it grows
until a bound on the weight leaking out of it by each sample time is
within ``evolve``'s tol, or to ``KRYLOV_DIM`` vectors (13 for the 3x3
``split_HV`` quench to t = 0.2 at h = 0.3), and the samples it does not
reach are stepped by ``evolve``, adaptive Krylov steps of exp(-iHt) on any
basis, on the same Lanczos loop. Every operator is real symmetric, so a
real state's space and the eigenvectors are real: a sample is then one
real product with the float view of its complex coefficients, a quarter
of the complex product's arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .gf2 import mask, row_reduce
from .lattice import LatticeGeometry
from .pauli import PauliOperator, pauli_x, pauli_z, single
from .stabilizer import Basis, StateVector, check_dimension, full_basis

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
# Largest Krylov space of a spectral trajectory's state; one still open
# there falls back to the operator's eigensystem.
CLOSURE_LIMIT = 64

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
    """The basis of every XOR of ``flips``, refused above the cap as ``what``."""
    generators = row_reduce(flips)
    check_dimension(len(generators), what)
    return Basis(n_spins, generators)


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
    float. A term whose flip leaves the basis's span, and so maps every
    state out of it, is refused, as is a diagonal that overflows.
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
            perm, signs = basis.pauli_action(op)
            if perm is None:
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
        basis = full_basis(spec.geometry.n_spins)
    return HamiltonianOperator(spec.term_list(), basis)


def _lanczos(
    matvec: Callable[[np.ndarray], np.ndarray], v: np.ndarray, size: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, float]]:
    """Lanczos from ``v``, taken as a unit vector, with full reorthogonalization.

    After the m-th vector it yields ``(Q, evals, evecs, beta)``: the m
    vectors as the rows of ``Q``, ``eigh`` of the tridiagonal T_m, and
    beta_m, the norm of what ``H`` sends out of their span. The caller
    stops the loop by its own rule; it ends by itself after ``size``
    vectors. The vectors are the rows of one array of ``v``'s dtype, so a
    real vector's space is built in real arithmetic; rows never reached are
    never written, so memory follows the subspace actually built.
    """
    Q = np.empty((size, v.size), dtype=v.dtype)
    Q[0] = v
    T = np.zeros((size, size))
    for m in range(1, size + 1):
        w = matvec(Q[m - 1])
        T[m - 1, m - 1] = np.vdot(Q[m - 1], w).real
        # Two classical Gram-Schmidt passes keep orthogonality near machine
        # precision. conj(Q @ conj(w)) gives the overlaps without copying Q.
        for _ in range(2):
            w -= np.conj(Q[:m] @ np.conj(w)) @ Q[:m]
        b = float(np.linalg.norm(w))
        evals, evecs = np.linalg.eigh(T[:m, :m])
        yield Q[:m], evals, evecs, b
        if m < size:
            T[m, m - 1] = T[m - 1, m] = b
            Q[m] = w / b


def _expm_krylov_step(
    matvec: Callable[[np.ndarray], np.ndarray],
    v: np.ndarray,
    dt: float,
    target: float,
) -> tuple[np.ndarray, float]:
    """One Krylov approximation of exp(-i*H*dt) v with an error estimate.

    The ``_lanczos`` subspace grows until the estimate |beta_m u_m| of the
    weight leaking past it is within ``target`` (zero on happy breakdown),
    or to ``KRYLOV_DIM``.
    """
    for Q, evals, evecs, b in _lanczos(matvec, v, KRYLOV_DIM):
        u = evecs @ (np.exp(-1j * dt * evals) * evecs[0].conj())
        err = 0.0 if b <= 1e-14 else abs(b * u[-1])
        if err <= target:
            break
    return u @ Q, float(err)


def propagation(dimension: int) -> str:
    """Propagation of a basis of ``dimension`` states: "spectrum" within the
    dense cap, else "krylov"."""
    return "spectrum" if dimension <= FULL_SPECTRUM_CAP else "krylov"


def _product(mat: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``mat @ v`` for a complex vector ``v``. A real ``mat`` multiplies the
    ``(dim, 2)`` float view of ``v``: one real product, a quarter of the
    complex product's arithmetic."""
    if np.iscomplexobj(mat):
        return mat @ v
    pairs = np.ascontiguousarray(v).view(np.float64).reshape(-1, 2)
    return (mat @ pairs).view(np.complex128).ravel()


def _reach(theta: np.ndarray, S: np.ndarray, beta: float, times: Sequence[float]) -> int:
    """How many leading times of an ascending sequence a Krylov space,
    ``eigh`` of its tridiagonal matrix and the norm ``beta`` of what leaves
    it, holds its state's sample at within ``evolve``'s default tol, 1e-10.

    The weight leaking out by time t is at most the integral of beta |u_m(s)|
    over [0, t], u(s) = S (S_1 exp(-i theta s)) (Hochbruck & Lubich, SIAM J.
    Numer. Anal. 34, 1911 (1997)), so at most t beta max |u_m| over [0, t].
    |u_m| oscillates at long times, so its value at t alone bounds nothing;
    the maximum is taken on a grid of spacing 1 / (max theta - min theta),
    on which no two eigenphases turn apart by more than a radian from one
    point to the next. The grid runs from 0 even when the first time is
    late, as a sweep's window at t = 50, in chunks of 4,096 points to keep
    its memory small. A closed space, beta = 0, holds every time.
    """
    if not beta:
        return len(times)
    c, peak, start = S[-1] * S[0], 0.0, 0.0
    for n, t in enumerate(times):
        s = np.linspace(start, t, int(abs(t - start) * np.ptp(theta)) + 2)
        for k in range(0, s.size, 4096):
            peak = max(peak, np.abs(np.exp(-1j * np.outer(s[k : k + 4096], theta)) @ c).max())
            if abs(t) * beta * peak > 1e-10:
                return n
        start = t
    return len(times)


def _krylov_space(
    op: HamiltonianOperator, v: np.ndarray, times: Sequence[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float] | None:
    """``(Q, theta, S, beta)`` of the Krylov space of the unit vector ``v``:
    its vectors as rows, ``eigh`` of its tridiagonal matrix, and the norm of
    what ``H`` sends out of it.

    Within the dense cap the space grows until it is closed to round-off,
    and its beta is returned as zero; ``times`` play no part. The weight
    leaking out of it is at most t * beta_m * sum_j |S_mj S_1j| after a time
    t, so a rate within ``8 * eps * max|theta|`` keeps it below an
    eigenphase's own round-off, t * |E| * eps, at any t. None if it is still
    open after ``CLOSURE_LIMIT`` vectors. Above the cap the space grows
    until ``_reach`` counts every one of ``times``, or to ``KRYLOV_DIM``
    vectors.
    """
    spectral = propagation(op.dimension) == "spectrum"
    size = min(op.dimension, CLOSURE_LIMIT if spectral else KRYLOV_DIM)
    for Q, theta, S, b in _lanczos(op.matvec, v, size):
        if not spectral:
            if _reach(theta, S, b, times) == len(times):
                break
        elif (b * np.abs(S[-1] * S[0]).sum() <= 8 * np.finfo(float).eps * np.abs(theta).max()
              or len(theta) == op.dimension):
            return Q, theta, S, 0.0
    return None if spectral else (Q, theta, S, b)


def trajectory(
    state: StateVector, op: HamiltonianOperator, times: Sequence[float]
) -> Iterator[StateVector]:
    """Yield exp(-iHt)|state> for each time of an ascending sequence, lazily.

    Each sample is read from the state's own Krylov space (``_krylov_space``,
    Park & Light, J. Chem. Phys. 85, 5870 (1986)) as
    ``|psi| Q^T S (S_1 * exp(-i theta t))``. A real state builds it in real
    arithmetic, and a sample is then one real product with the ``(dim, 2)``
    float view of its complex coefficients. Within the dense cap the space
    is closed to round-off and serves every time; a sample is within about
    2 * eps * t * max|E| of the exact one. A state whose space is still
    open after ``CLOSURE_LIMIT`` vectors is projected once on the real
    eigenbasis of one ``eigensystem`` call instead, and each sample is
    rebuilt from the eigenphases by real products. Either way a sample's
    bits do not depend on the other times of the call.

    Above the cap the space grows until ``_reach`` counts every time, or
    to ``KRYLOV_DIM`` vectors, and it serves the leading times it reaches: a
    bound on their leak, t * beta_m * max |u_m| over [0, t], is within
    1e-10. The rest are stepped by ``evolve`` from the last sample it
    served, or from the state, each call held to the same tol. Against
    ``evolve`` at tol 1e-13 the 3x3 ``split_HV`` quench samples differ by at
    most 7e-13 out to t = 1 at h from 0.1 to 9, and a seeded complex
    state's by 3e-16 at h = 0.3. On that block the tests hold every sample
    to 1e-10 of such an oracle to t = 1, and over the window (50, 55) at
    h = 1, which the quench state's 30-vector space serves whole, against a
    60-vector space. The fallback past t = 1 at h = 9, out to t = 100 and
    over a window that starts at t = 50, is tested on the 2x2 full space
    with the cap lowered below it, against its dense spectrum (8e-13 seen).
    """
    if state.basis != op.basis:
        raise ValueError("state and operator use different bases")
    norm = float(np.linalg.norm(state.amplitudes))
    v = state.amplitudes / norm
    space = _krylov_space(op, v if v.imag.any() else v.real, times)
    if space is None:
        w, vecs = op.eigensystem()
        coef = _product(vecs.T, state.amplitudes)
        for t in times:
            yield StateVector(_product(vecs, coef * np.exp(-1j * w * t)), state.basis)
        return
    Q, theta, S, beta = space
    coef = norm * S[0]
    served, last, t_last = _reach(theta, S, beta, times), state, 0.0
    for n, t in enumerate(times):
        if n < served:
            last = StateVector(_product(Q.T, S @ (coef * np.exp(-1j * theta * t))), state.basis)
        else:
            last = evolve(last, op, t - t_last)
        t_last = t
        yield last


def evolve(
    state: StateVector, op: HamiltonianOperator, t: float, tol: float = 1e-10
) -> StateVector:
    """Propagate a state to exp(-iHt)|state> by Krylov steps on the operator's basis.

    Substeps are adaptive, with subspaces of at most ``KRYLOV_DIM`` vectors,
    and the whole propagation is held to ``tol``. ``trajectory`` calls it
    for the samples its Krylov space does not reach. Unitarity is
    inherited, not enforced: no renormalization happens.
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
