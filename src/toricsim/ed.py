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
eigendecomposition of the whole operator instead. Above the cap the
samples come from the propagator ``evolve`` runs on any basis, restarted
spaces of the same Lanczos loop: a space grows until a bound on the
weight leaking out of it by each remaining time is within its share of
the tol, or to ``KRYLOV_DIM`` vectors, serves the times it holds and
restarts from the farthest it holds. A state fixed by some of the
operator's lattice maps runs those spaces on its orbits, one unit vector
per orbit (``_OrbitOperator``): the 3x3 ``split_HV`` block of 32,768
states has 1,110, and its quench to t = 0.2 at h = 0.3 takes one space
of 13 vectors on them. Every
operator is real symmetric, so a real state's space and the eigenvectors
are real: a sample is then one real product with the float view of its
complex coefficients, a quarter of the complex product's arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .gf2 import mask, permute, row_reduce
from .lattice import LatticeGeometry, symmetry_generators
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
# Largest Krylov space one propagation restart builds.
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

    ``symmetries`` are spin permutations, such as the lattice maps that
    ``build_hamiltonian`` passes from ``lattice.symmetry_generators``.
    ``symmetry_maps`` keeps, on first use, those that map the weighted terms
    and the basis's span onto themselves, as position maps. An operator
    built directly gets none, so it propagates on its whole basis.
    """

    def __init__(
        self,
        terms: Sequence[tuple[float, PauliOperator]],
        basis: Basis,
        symmetries: Sequence[tuple[int, ...]] = (),
    ):
        self.basis = basis
        self.terms = tuple((float(c), op) for c, op in terms)
        self._symmetries = tuple(symmetries)
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

    @cached_property
    def symmetry_maps(self) -> tuple[np.ndarray, ...]:
        """Position maps (``Basis.permutation_positions``) of the spin
        permutations given as ``symmetries`` that map the weighted terms and
        the basis's span onto themselves, in their given order. Each
        commutes with the operator. Built on first use."""
        if not self._symmetries:
            return ()

        def weighted(perm):
            return sorted((c, op.phase_exp, permute(op.x_mask, perm), permute(op.z_mask, perm))
                          for c, op in self.terms if c)

        terms = weighted(range(self.basis.n_spins))
        maps = (self.basis.permutation_positions(perm) for perm in self._symmetries
                if weighted(perm) == terms)
        return tuple(p for p in maps if p is not None)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self._diag * v
        for weight, perm, signs in self._offdiag:
            out += weight * (v if signs is None else signs * v)[perm]
        return out

    def expectation(self, v: np.ndarray) -> float:
        return float(np.vdot(v, self.matvec(v)).real)

    def _refuse_above_cap(self) -> None:
        if self.dimension > FULL_SPECTRUM_CAP:
            raise ValueError(
                f"basis of {self.dimension} states exceeds the dense cap {FULL_SPECTRUM_CAP}"
            )

    def dense(self) -> np.ndarray:
        """Dense matrix over the operator's basis, refused above the dense
        cap before it is allocated."""
        self._refuse_above_cap()
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
        self._refuse_above_cap()
        return np.linalg.eigh(self.dense())


def build_hamiltonian(spec: HamiltonianSpec, basis=None) -> HamiltonianOperator:
    """Assemble the matrix-free operator for a coupling spec, with the
    lattice's ``symmetry_generators`` as its candidate symmetries.

    ``basis`` defaults to the full 2^N space; pass ``build_block(spec)``,
    or the ``build_sector`` basis when every term commutes with the
    plaquettes (the uniform-z field), to restrict.
    """
    if basis is None:
        basis = full_basis(spec.geometry.n_spins)
    return HamiltonianOperator(spec.term_list(), basis, symmetry_generators(spec.geometry))


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


def _reach(
    theta: np.ndarray, S: np.ndarray, beta: float, times: Sequence[float], rate: float
) -> tuple[int, float]:
    """``(count, held)`` of a Krylov space, from ``eigh`` of its tridiagonal
    matrix and the norm ``beta`` of what leaves it: how many leading times
    of an ascending sequence it holds its state's sample at, and the
    farthest time of its grid it holds.

    The weight leaking out by time t is at most the integral of beta |u_m(s)|
    over [0, t], u(s) = S (S_1 exp(-i theta s)) (Hochbruck & Lubich, SIAM J.
    Numer. Anal. 34, 1911 (1997)), so at most |t| beta max |u_m| over [0, t].
    The space holds t when that is within ``rate * |t|``. |u_m| oscillates
    at long times, so its value at t alone bounds nothing; the maximum is
    taken on a grid of spacing 1 / (max theta - min theta), on which no two
    eigenphases turn apart by more than a radian from one point to the
    next. The grid runs from 0 even when the first time is late, as a
    sweep's window at t = 50, in chunks that double from 16 points to
    4,096, so a space that fails early pays little and memory stays small.
    A closed space, beta = 0, holds every time.
    """
    if not beta:
        return len(times), times[-1]
    c, held, start, size = S[-1] * S[0], 0.0, 0.0, 16
    for n, t in enumerate(times):
        grid = np.linspace(start, t, int(abs(t - start) * np.ptp(theta)) + 2)
        k = 0
        while k < grid.size:
            s = grid[k : k + size]
            # u_m(0) is zero but for a one-vector space, and any space holds t = 0.
            over = (beta * np.abs(np.exp(-1j * np.outer(s, theta)) @ c) > rate) & (s != 0)
            if over.any():
                i = int(over.argmax())
                return n, float(s[i - 1]) if i else held
            held, k, size = float(s[-1]), k + size, min(2 * size, 4096)
        start = t
    return len(times), held


def _krylov_space(
    op: HamiltonianOperator, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """``(Q, theta, S)`` of the Krylov space of the unit vector ``v``, closed
    to round-off: its vectors as rows and ``eigh`` of its tridiagonal matrix.

    The weight leaking out of it is at most t * beta_m * sum_j |S_mj S_1j|
    after a time t, so a rate within ``8 * eps * max|theta|`` keeps it below
    an eigenphase's own round-off, t * |E| * eps, at any t; a space of the
    whole basis is closed too. None if it is still open after
    ``CLOSURE_LIMIT`` vectors.
    """
    for Q, theta, S, b in _lanczos(op.matvec, v, min(op.dimension, CLOSURE_LIMIT)):
        if (b * np.abs(S[-1] * S[0]).sum() <= 8 * np.finfo(float).eps * np.abs(theta).max()
                or len(theta) == op.dimension):
            return Q, theta, S
    return None


class _OrbitOperator:
    """An operator on the orbits of its basis under position maps that
    commute with it, for the states those maps fix: one unit vector per
    orbit O_a, its n_a states summed over sqrt(n_a) (Sandvik,
    arXiv:1101.3281).

    Orbits are labelled by their least position, from a running minimum over
    the maps until it stops changing. The reduced operator is real
    symmetric, H_red[a, b] = sqrt(n_a / n_b) * sum_{j in O_b} H[rep_a, j],
    rep_a the label, and is kept as a table of columns and values, one per
    off-diagonal term and one for the diagonal in each row, so ``matvec`` is
    one gather, one product and one row sum, for real and complex vectors
    alike.
    """

    def __init__(self, op: HamiltonianOperator, maps: Sequence[np.ndarray]):
        self.maps = tuple(maps)
        positions = np.arange(op.dimension)
        labels, changed = positions, True
        while changed:
            new = labels
            for p in maps:
                new = np.minimum(new, new[p])
            labels, changed = new, not np.array_equal(new, labels)
        is_rep = labels == positions
        self._reps = reps = np.flatnonzero(is_rep)
        self._orbit = (np.cumsum(is_rep) - 1)[labels]
        self._root = np.sqrt(np.bincount(self._orbit))
        cols, vals = [np.arange(reps.size)], [op._diag[reps]]
        for weight, perm, signs in op._offdiag:
            j = perm[reps]
            cols.append(self._orbit[j])
            vals.append((weight if signs is None else weight * signs[j])
                        * self._root / self._root[cols[-1]])
        self._cols, self._vals = np.stack(cols, axis=1), np.stack(vals, axis=1)

    @property
    def dimension(self) -> int:
        return self._reps.size

    def matvec(self, y: np.ndarray) -> np.ndarray:
        return (self._vals * y[self._cols]).sum(axis=1)

    def restrict(self, v: np.ndarray) -> np.ndarray:
        """The orbit amplitudes of a block vector the maps fix."""
        return self._root * v[self._reps]

    def expand(self, y: np.ndarray) -> np.ndarray:
        """The block vector of orbit amplitudes: one gather."""
        return (y / self._root)[self._orbit]


def _orbit_space(op: HamiltonianOperator, v: np.ndarray) -> _OrbitOperator | None:
    """The orbit operator of the maps in ``op.symmetry_maps`` that fix ``v``
    exactly, None when none does."""
    maps = [p for p in op.symmetry_maps if np.array_equal(v[p], v)]
    return _OrbitOperator(op, maps) if maps else None


def _steps(
    state: StateVector, op: HamiltonianOperator, times: Sequence[float], tol: float
) -> Iterator[StateVector]:
    """Yield exp(-iHt)|state> for each time of an ascending sequence, from
    restarted Krylov spaces whose leaks sum to at most ``tol``.

    Each space grows from the current vector until ``_reach`` holds every
    remaining time, or to ``KRYLOV_DIM`` vectors. It holds t, counted from
    its start, when its leak bound over [0, t] is within tol * |t| / T, T
    the call's largest |time|, so spaces that cover [0, T] end to end leak
    at most tol in all. It serves the times it holds, and the next space
    starts from its vector at the farthest grid time it holds; a space that
    holds none past its start, as under a tol below round-off, raises
    RuntimeError. The norm is carried, never renormalized.

    The spaces run on the orbits of the operator's ``symmetry_maps`` that
    fix the initial state exactly, ``amps[p] == amps``: they fix its
    evolution too, so the loop starts from sqrt(n) * psi at the orbit
    representatives on the real symmetric ``_OrbitOperator`` and expands
    each sample with one gather, psi[k] = y[orbit k] / sqrt(n_orbit k). On
    the 3x3 ``split_HV`` block four maps are kept (the transpose swaps the
    horizontal and vertical fields), generating 36 maps and 1,110 orbits of
    the 32,768 states. A state no map fixes runs on ``op.matvec``.
    """
    span = max(map(abs, times), default=0.0)
    rate = tol / span if span else np.inf
    norm = float(np.linalg.norm(state.amplitudes))
    v, start, n = state.amplitudes / norm, 0.0, 0
    orbits = _orbit_space(op, v)
    space, v = (op, v) if orbits is None else (orbits, orbits.restrict(v))
    size = min(space.dimension, KRYLOV_DIM)
    while n < len(times):
        rest = [t - start for t in times[n:]]
        for Q, theta, S, beta in _lanczos(space.matvec, v if v.imag.any() else v.real, size):
            count, held = _reach(theta, S, beta, rest, rate)
            if count == len(rest):
                break
        coef = norm * S[0]
        for t in rest[:count]:
            y = _product(Q.T, S @ (coef * np.exp(-1j * theta * t)))
            yield StateVector(y if orbits is None else orbits.expand(y), state.basis)
        n += count
        if n < len(times):
            if not held:
                raise RuntimeError(
                    f"a Krylov space of {theta.size} vectors holds no time within tol {tol:g}"
                )
            v, start = _product(Q.T, S @ (S[0] * np.exp(-1j * theta * held))), start + held


def trajectory(
    state: StateVector, op: HamiltonianOperator, times: Sequence[float]
) -> Iterator[StateVector]:
    """Yield exp(-iHt)|state> for each time of an ascending sequence, lazily.

    Within the dense cap each sample is read from the state's own Krylov
    space, closed to round-off (``_krylov_space``, Park & Light, J. Chem.
    Phys. 85, 5870 (1986)), as ``|psi| Q^T S (S_1 * exp(-i theta t))``. A
    real state builds it in real arithmetic, and a sample is then one real
    product with the ``(dim, 2)`` float view of its complex coefficients. A
    sample is within about 2 * eps * t * max|E| of the exact one. A state
    whose space is still open after ``CLOSURE_LIMIT`` vectors is projected
    once on the real eigenbasis of one ``eigensystem`` call instead, and
    each sample is rebuilt from the eigenphases by real products. Either way
    a sample's bits do not depend on the other times of the call.

    Above the cap the samples come from ``_steps`` at tol 1e-10, the loop
    ``evolve`` runs: the state's Krylov space serves the times it holds and
    restarted spaces the rest, on the state's orbits under the operator's
    lattice maps when any map fixes it. The 3x3 ``split_HV`` quench state's
    first space, 13 real vectors on the 1,110 orbits of its block at
    h = 0.3, serves every sample to t = 0.2.
    """
    if state.basis != op.basis:
        raise ValueError("state and operator use different bases")
    if propagation(op.dimension) == "krylov":
        yield from _steps(state, op, times, 1e-10)
        return
    norm = float(np.linalg.norm(state.amplitudes))
    v = state.amplitudes / norm
    space = _krylov_space(op, v if v.imag.any() else v.real)
    if space is None:
        w, vecs = op.eigensystem()
        coef = _product(vecs.T, state.amplitudes)
        for t in times:
            yield StateVector(_product(vecs, coef * np.exp(-1j * w * t)), state.basis)
        return
    Q, theta, S = space
    coef = norm * S[0]
    for t in times:
        yield StateVector(_product(Q.T, S @ (coef * np.exp(-1j * theta * t))), state.basis)


def evolve(
    state: StateVector, op: HamiltonianOperator, t: float, tol: float = 1e-10
) -> StateVector:
    """Propagate a state to exp(-iHt)|state> by Krylov spaces on the operator's basis.

    The one sample of ``_steps`` at ``t``, the loop ``trajectory`` runs above
    the dense cap: restarted spaces of at most ``KRYLOV_DIM`` vectors whose
    leak bounds sum to at most ``tol``, on the state's orbits when the
    operator has lattice maps that fix it. Unitarity is inherited, not
    enforced.
    """
    if state.basis != op.basis:
        raise ValueError("state and operator use different bases")
    (out,) = _steps(state, op, [t], tol)
    return out
