"""Hamiltonian assembly, diagonalization, and propagation cross-checks."""

import tracemalloc

import numpy as np
import pytest

from basis_oracle import locate
from gf2_kernel import kernel_basis
from observable_oracle import observable_gaps
from pauli_algebra import apply_to_basis, commutes, pauli_multiply
from toricsim import ed, gf2, lattice, pauli, quench, stabilizer

# Start vectors of the Lanczos oracle come from this seed; the library
# itself draws no random numbers.
LANCZOS_SEED = 20170831


def one_hot(dim, i):
    v = np.zeros(dim, dtype=np.complex128)
    v[i] = 1.0
    return v


def column_oracle(terms, basis_index, dim):
    """H|b> assembled term by term from single-basis Pauli application."""
    col = np.zeros(dim, dtype=np.complex128)
    for coef, op in terms:
        tgt, amp = apply_to_basis(op, basis_index)
        col[tgt] += coef * amp
    return col


def orthogonalize(w: np.ndarray, against: list[np.ndarray]) -> np.ndarray:
    # Two Gram-Schmidt sweeps keep orthogonality near machine precision.
    for _ in range(2):
        for q in against:
            w = w - np.vdot(q, w) * q
    return w


def scatter_matvec(op, v: np.ndarray) -> np.ndarray:
    """The scatter form of ``HamiltonianOperator.matvec``: its gather's oracle."""
    out = op._diag * v
    for weight, perm, signs in op._offdiag:
        if signs is None:
            out[perm] += weight * v
        else:
            out[perm] += weight * (signs * v)
    return out


def list_lanczos(matvec, v, size):
    """Lanczos on a list of vectors, looped Gram-Schmidt: the oracle of
    ``ed._lanczos``, yielding its ``(vectors, evals, evecs, beta)`` after
    each vector."""
    vecs = [v]
    T = np.zeros((size, size))
    for m in range(1, size + 1):
        w = matvec(vecs[-1])
        T[m - 1, m - 1] = np.vdot(vecs[-1], w).real
        w = orthogonalize(w, vecs)
        b = float(np.linalg.norm(w))
        evals, evecs = np.linalg.eigh(T[:m, :m])
        yield list(vecs), evals, evecs, b
        if m < size:
            T[m, m - 1] = T[m - 1, m] = b
            vecs.append(w / b)


def list_krylov_step(matvec, v, dt, target):
    """One Krylov step exp(-i H dt) v on ``list_lanczos`` and its error
    estimate |beta_m u_m|: the space grows until the estimate is within
    ``target`` (zero on happy breakdown), or to ``ed.KRYLOV_DIM`` vectors."""
    for vecs, evals, evecs, b in list_lanczos(matvec, v, ed.KRYLOV_DIM):
        u = evecs @ (np.exp(-1j * dt * evals) * evecs[0].conj())
        err = 0.0 if b <= 1e-14 else abs(b * u[-1])
        if err <= target:
            break
    out = np.zeros_like(v, dtype=np.complex128)
    for coef, q in zip(u, vecs):
        out += coef * q
    return out, float(err)


def stepped_evolve(state, op, t, tol):
    """exp(-iHt)|state> by adaptive ``list_krylov_step`` substeps: the
    matrix-free differential oracle of ``ed.evolve``.

    A substep is accepted when its estimate is within its share of ``tol``,
    tol * dt / max(1, |t|), and its space stops at 1 % of that share; a
    rejected substep is halved down to dt = 1e-12, and one well inside its
    share lets the next grow by half. The estimate has a round-off floor of
    about 1e-15 to 1e-14, so at a tight tol on a hard state the substeps
    shrink until the step limit raises.
    """
    v = state.amplitudes.copy()
    remaining, sign = abs(t), 1.0 if t >= 0 else -1.0
    dt, budget = remaining, tol / max(1.0, remaining)
    for _ in range(10000):
        if remaining <= 1e-15:
            return stabilizer.StateVector(v, state.basis)
        dt = min(dt, remaining)
        out, err = list_krylov_step(op.matvec, v, sign * dt, 0.01 * budget * dt)
        if err > budget * dt and dt > 1e-12:
            dt *= 0.5
            continue
        v, remaining = out, remaining - dt
        if err < 0.01 * budget * dt:
            dt *= 1.5
    raise RuntimeError("Krylov propagation exceeded the step limit")


# Largest operator the dense oracle diagonalizes whole: a 4,096-state dense
# eigh takes about 17 s at one thread.
DENSE_ORACLE_CAP = 1024


def dense_eigh(op):
    """Ascending spectrum and eigenvectors of the whole operator, from one
    dense ``eigh`` that knows nothing of blocks."""
    assert op.dimension <= DENSE_ORACLE_CAP
    return np.linalg.eigh(op.dense())


def dense_samples(psi, op, times):
    """exp(-iHt)|psi> at each time from ``dense_eigh``: the oracle of the
    propagators."""
    w, vecs = dense_eigh(op)
    coef = vecs.T @ psi.amplitudes
    return [vecs @ (np.exp(-1j * w * t) * coef) for t in times]


def embed(state, space):
    """A state's amplitudes placed at their positions in ``space``, which
    holds every state of its basis."""
    positions, found = locate(space, state.basis.kept_indices)
    assert found is None
    out = np.zeros(space.dimension, dtype=np.complex128)
    out[positions] = state.amplitudes
    return out


def symmetries(terms, n):
    """Z-strings that overlap every weighted term's flips evenly, as a GF(2)
    basis of spin masks: each commutes with every term."""
    flips = [op.x_mask for coef, op in terms if coef and op.x_mask]
    columns = [sum((x >> s & 1) << t for t, x in enumerate(flips)) for s in range(n)]
    return kernel_basis(columns)


def touched_block(spec, space):
    """Indices of the states of ``space`` in the (0,0) ground state's symmetry
    block, found without ``ed.build_block``: each state is labelled by its
    parities under every symmetry, and the block is the states that share
    the ground state's label."""
    idx = space.kept_indices
    labels = np.zeros(idx.size, dtype=np.int64)
    for z in symmetries(spec.term_list(), spec.geometry.n_spins):
        labels = 2 * labels + (np.bitwise_count(idx & z) & 1)
    psi0 = stabilizer.ground_state(spec.geometry, (0, 0), space)
    (label,) = np.unique(labels[psi0.amplitudes != 0])
    return idx[labels == label]


def project_out(w: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """``w`` without its components along the orthonormal rows of ``Q``, in
    place: two classical Gram-Schmidt passes of one matrix-vector product
    pair each, as in ``ed._lanczos``."""
    for _ in range(2):
        w -= np.conj(Q @ np.conj(w)) @ Q
    return w


def lanczos_extremal(
    op, k: int, tol: float = 1e-10, max_iter: int = 300, seed: int = LANCZOS_SEED
) -> list[tuple[float, np.ndarray]]:
    """Lowest k eigenpairs by Lanczos with full reorthogonalization.

    The matrix-free oracle for the dense block spectra. Degenerate levels
    are resolved by deflation: each converged eigenvector is projected out
    and the iteration restarts, so a four-fold ground manifold yields four
    orthonormal vectors. Start vectors come from a fixed seeded generator,
    making results deterministic. Every returned pair satisfies
    ||H v - lambda v|| <= tol, checked on the vector itself.

    The Lanczos vectors are the rows of one preallocated array, and so are
    the converged ones; rows never reached are never written, so memory
    follows the subspace actually built.

    Raises RuntimeError with the best achieved residual if any slot fails
    to converge within ``max_iter`` iterations.
    """
    matvec = op.matvec
    dim = op.dimension
    rng = np.random.default_rng(seed)
    found: list[tuple[float, np.ndarray]] = []
    deflate = np.empty((k, dim), dtype=np.complex128)
    Q = np.empty((min(dim, max_iter), dim), dtype=np.complex128)
    for slot in range(k):
        D = deflate[: len(found)]
        v0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v0 = project_out(v0, D)
        nrm = float(np.linalg.norm(v0))
        if nrm < 1e-12:
            raise RuntimeError("start vector vanished after deflation")
        Q[0] = v0 / nrm
        alphas: list[float] = []
        betas: list[float] = []
        best_residual = np.inf
        converged = False
        for it in range(1, max_iter + 1):
            w = project_out(matvec(Q[it - 1]), D)
            alphas.append(float(np.vdot(Q[it - 1], w).real))
            w = project_out(w, Q[:it])
            b = float(np.linalg.norm(w))
            T = np.diag(alphas)
            if betas:
                T = T + np.diag(betas, 1) + np.diag(betas, -1)
            evals, evecs = np.linalg.eigh(T)
            exhausted = b <= 1e-13 or it >= min(dim, max_iter)
            # The tridiagonal estimate is cheap; confirm on the Ritz vector
            # once it claims convergence (or nothing more can be gained).
            if abs(b * evecs[-1, 0]) <= 0.1 * tol or exhausted:
                vec = project_out(evecs[:, 0] @ Q[:it], D)
                vec /= np.linalg.norm(vec)
                hv = matvec(vec)
                lam = float(np.vdot(vec, hv).real)
                true_res = float(np.linalg.norm(hv - lam * vec))
                best_residual = min(best_residual, true_res)
                if true_res <= tol:
                    found.append((lam, vec))
                    deflate[len(found) - 1] = vec
                    converged = True
                    break
            if exhausted:
                break
            betas.append(b)
            Q[it] = w / b
        if not converged:
            raise RuntimeError(
                f"Lanczos slot {slot} did not converge: best residual "
                f"{best_residual:.3e} after {it} iterations (tol {tol:.1e})"
            )
    found.sort(key=lambda pair: pair[0])
    return found


def test_term_list_uniform_z(geo23):
    spec = ed.HamiltonianSpec(geo23, U=1.2, J=0.8, h=0.3)
    terms = spec.term_list()
    n_sites = geo23.L1 * geo23.L2
    assert len(terms) == 2 * n_sites + geo23.n_spins
    plaq = terms[:n_sites]
    star = terms[n_sites : 2 * n_sites]
    field = terms[2 * n_sites :]
    assert all(c == -1.2 and op.x_mask == 0 for c, op in plaq)
    assert all(c == -0.8 and op.z_mask == 0 for c, op in star)
    assert all(c == -0.3 and op.x_mask == 0 for c, op in field)
    assert sorted(op.z_mask for _, op in field) == [1 << j for j in range(geo23.n_spins)]


def test_term_list_split_field(geo23):
    spec = ed.HamiltonianSpec(geo23, h=0.4, kappa=0.5, field_mode="split_HV")
    terms = spec.term_list()
    n_sites = geo23.L1 * geo23.L2
    field = terms[2 * n_sites :]
    z_terms = [t for t in field if t[1].x_mask == 0]
    x_terms = [t for t in field if t[1].z_mask == 0]
    assert {t[1].z_mask for t in z_terms} == {1 << j for j in geo23.horizontal_spins}
    assert {t[1].x_mask for t in x_terms} == {1 << j for j in geo23.vertical_spins}
    assert all(abs(c + 0.4) < 1e-15 for c, _ in z_terms)
    assert all(abs(c + 0.2) < 1e-15 for c, _ in x_terms)


def test_spec_validation(geo22):
    with pytest.raises(ValueError):
        ed.HamiltonianSpec(geo22, field_mode="diagonal")
    with pytest.raises(ValueError):
        ed.HamiltonianSpec(geo22, h=float("nan"))
    with pytest.raises(ValueError):
        ed.HamiltonianSpec(geo22, U=float("inf"))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"h": 0.3},
        {"h": 0.25, "kappa": 0.6, "field_mode": "split_HV"},
    ],
)
def test_operator_is_hermitian(geo22, kwargs):
    op = ed.build_hamiltonian(ed.HamiltonianSpec(geo22, **kwargs))
    rng = np.random.default_rng(71)
    for _ in range(5):
        u = rng.standard_normal(op.dimension) + 1j * rng.standard_normal(op.dimension)
        v = rng.standard_normal(op.dimension) + 1j * rng.standard_normal(op.dimension)
        left = np.vdot(u, op.matvec(v))
        right = np.vdot(v, op.matvec(u)).conjugate()
        assert abs(left - right) < 1e-10 * max(1.0, abs(left))


def test_matvec_matches_per_term_application(geo22):
    spec = ed.HamiltonianSpec(geo22, U=1.1, J=0.9, h=0.35)
    op = ed.build_hamiltonian(spec)
    terms = spec.term_list()
    rng = np.random.default_rng(73)
    for b in rng.integers(0, op.dimension, size=20):
        want = column_oracle(terms, int(b), op.dimension)
        got = op.matvec(one_hot(op.dimension, int(b)))
        assert np.allclose(got, want, atol=1e-14)


def test_dense_matches_matvec_columns(geo22):
    spec = ed.HamiltonianSpec(geo22, h=0.2, kappa=0.3, field_mode="split_HV")
    op = ed.build_hamiltonian(spec)
    mat = op.dense()
    assert np.allclose(mat, mat.conj().T, atol=1e-14)
    rng = np.random.default_rng(79)
    for b in rng.integers(0, op.dimension, size=12):
        assert np.allclose(mat[:, int(b)], op.matvec(one_hot(op.dimension, int(b))))


@pytest.mark.parametrize("U,J", [(1.0, 1.0), (1.5, 1.0), (1.0, 0.6)])
def test_ground_energy_degeneracy_and_gap(geo22, U, J):
    op = ed.build_hamiltonian(ed.HamiltonianSpec(geo22, U=U, J=J))
    w, vecs = dense_eigh(op)
    e0 = -geo22.L1 * geo22.L2 * (U + J)
    assert np.all(np.abs(w[:4] - e0) < 1e-10)
    # stars and plaquettes flip in pairs, so the gap is 4*min(U, J)
    assert abs((w[4] - w[0]) - 4 * min(U, J)) < 1e-10
    # eigenvectors diagonalize: residual of the first columns
    for i in range(5):
        r = op.matvec(vecs[:, i]) - w[i] * vecs[:, i]
        assert np.linalg.norm(r) < 1e-10


def test_lanczos_resolves_ground_degeneracy(geo22):
    op = ed.build_hamiltonian(ed.HamiltonianSpec(geo22))
    tol = 1e-9
    pairs = lanczos_extremal(op, k=4, tol=tol)
    assert len(pairs) == 4
    vecs = [v for _, v in pairs]
    for lam, v in pairs:
        assert abs(lam - (-8.0)) < 1e-8
        assert np.linalg.norm(op.matvec(v) - lam * v) <= tol
    gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
    assert np.allclose(gram, np.eye(4), atol=1e-9)


def test_lanczos_deterministic(geo22):
    op = ed.build_hamiltonian(ed.HamiltonianSpec(geo22, h=0.3))
    a = lanczos_extremal(op, k=1)
    b = lanczos_extremal(op, k=1)
    assert a[0][0] == b[0][0]
    assert np.array_equal(a[0][1], b[0][1])


def test_lanczos_on_diagonal_operator(geo22):
    n = geo22.n_spins
    terms = [(-0.5, pauli.single(n, "Z", j)) for j in range(n)]
    op = ed.HamiltonianOperator(terms, stabilizer.Basis(n))
    (lam, vec), = lanczos_extremal(op, k=1, tol=1e-10)
    # all spins up minimizes -0.5 * sum sigma^z
    assert abs(lam - (-0.5 * n)) < 1e-9
    assert abs(abs(vec[0]) - 1.0) < 1e-6


def test_lanczos_matches_full_spectrum(geo22):
    op = ed.build_hamiltonian(ed.HamiltonianSpec(geo22, h=0.3))
    w = np.linalg.eigvalsh(op.dense())
    pairs = lanczos_extremal(op, k=2, tol=1e-10)
    assert abs(pairs[0][0] - w[0]) < 1e-8
    assert abs(pairs[1][0] - w[1]) < 1e-8


def test_lanczos_nonconvergence_raises(geo22):
    op = ed.build_hamiltonian(ed.HamiltonianSpec(geo22, h=0.37))
    with pytest.raises(RuntimeError, match="did not converge"):
        lanczos_extremal(op, k=1, tol=1e-14, max_iter=2)


def test_build_hamiltonian_refuses_a_full_space_above_the_cap():
    # 4x4 has 2^32 states: the diagonal alone would be 32 GiB.
    spec = ed.HamiltonianSpec(lattice.build_lattice(4, 4))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="cap"):
            ed.build_hamiltonian(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    # the 2^17-state sector of the same lattice is within it
    assert ed.build_hamiltonian(spec, ed.build_sector(spec.geometry)).dimension == 1 << 17


def test_identity_operator_spectrum():
    op = ed.HamiltonianOperator([(2.5, pauli.PauliOperator(4))], stabilizer.Basis(4))
    w, vecs = op.eigensystem()
    assert np.allclose(w, 2.5)
    assert np.allclose(vecs.conj().T @ vecs, np.eye(16), atol=1e-14)
    # No term flips a spin, so the span of the flips is the all-up state alone.
    single = ed.HamiltonianOperator(op.terms, stabilizer.Basis(4, gf2.span([])))
    assert single.dimension == 1 and np.allclose(single.eigensystem()[0], 2.5)


@pytest.mark.parametrize(
    "kwargs", [{"h": 0.3}, {"h": 9.0, "kappa": 1.0, "field_mode": "split_HV"}]
)
def test_real_operator_matches_complex_oracle(geo22, kwargs):
    op = ed.build_hamiltonian(ed.HamiltonianSpec(geo22, **kwargs))
    mat = op.dense()
    assert mat.dtype == np.float64
    w_ref, v_ref = np.linalg.eigh(mat.astype(complex))
    assert np.max(np.abs(op.eigensystem()[0] - w_ref)) < 1e-12
    rng = np.random.default_rng(31)
    amps = rng.standard_normal(op.dimension) + 1j * rng.standard_normal(op.dimension)
    noise = stabilizer.StateVector(amps / np.linalg.norm(amps), op.basis)
    times = (0.5, 2.5, 10.0)
    for psi0 in (stabilizer.ground_state(geo22), noise):
        coef = v_ref.conj().T @ psi0.amplitudes
        for t, got in zip(times, ed.trajectory(psi0, op, times)):
            want = v_ref @ (coef * np.exp(-1j * w_ref * t))
            assert np.max(np.abs(got.amplitudes - want)) < 1e-12


def test_even_y_term_is_real():
    # Y0 Y1 carries phase -1 and real matrix elements.
    n = 3
    yy = pauli_multiply(pauli.single(n, "Y", 0), pauli.single(n, "Y", 1))
    assert yy.phase == -1
    op = ed.HamiltonianOperator([(0.7, yy)], stabilizer.Basis(n))
    y = np.array([[0.0, -1j], [1j, 0.0]])
    want = 0.7 * np.kron(np.eye(2), np.kron(y, y))
    assert op.dense().dtype == np.float64
    assert np.array_equal(op.dense(), want)


def test_operator_rejects_bad_terms(geo22):
    n = geo22.n_spins
    basis = stabilizer.Basis(n)
    with pytest.raises(ValueError, match="non-Hermitian"):
        ed.HamiltonianOperator([(1.0, pauli.PauliOperator(n, 1, 1, 0))], basis)
    with pytest.raises(ValueError, match="imaginary"):
        ed.HamiltonianOperator([(1.0, pauli.single(n, "Y", 3))], basis)
    with pytest.raises(ValueError):
        ed.HamiltonianOperator([(1.0, pauli.PauliOperator(4))], basis)


@pytest.mark.parametrize("l1,l2,dim", [(2, 2, 32), (2, 3, 128), (3, 3, 1024)])
def test_sector_dimension(l1, l2, dim):
    geo = lattice.build_lattice(l1, l2)
    basis = ed.build_sector(geo)
    assert basis.dimension == dim
    assert basis.dimension == 1 << (geo.n_spins - (l1 * l2 - 1))


def test_sector_membership_brute_force(geo23):
    basis = ed.build_sector(geo23)
    plaq_masks = [sum(1 << s for s in sup) for sup in geo23.plaquette_supports]
    members = [
        idx
        for idx in range(1 << geo23.n_spins)
        if all((idx & m).bit_count() % 2 == 0 for m in plaq_masks)
    ]
    assert list(basis.kept_indices) == members


def test_build_sector_refuses_oversized_span():
    # 5x5: the sector has 2^26 states, above the cap; refused before enumeration
    with pytest.raises(ValueError, match="cap"):
        ed.build_sector(lattice.build_lattice(5, 5))
    with pytest.raises(ValueError, match="cap"):
        ed.build_sector(lattice.build_lattice(20, 20))
    assert stabilizer.BASIS_CAP_BITS >= 18  # the 3x3 full space stays buildable


def test_sector_spot_checks(geo33):
    basis = ed.build_sector(geo33)
    plaq_masks = [sum(1 << s for s in sup) for sup in geo33.plaquette_supports]
    rng = np.random.default_rng(83)
    for idx in rng.choice(basis.kept_indices, size=50, replace=False):
        assert all((int(idx) & m).bit_count() % 2 == 0 for m in plaq_masks)
    assert 1 not in set(basis.kept_indices[:64].tolist())


def test_sector_positions_and_project(geo22):
    basis = ed.build_sector(geo22)
    kept = basis.kept_indices
    # a star maps the sector onto itself: positions locate each image
    star = stabilizer.star_operators(geo22)[0]
    pos, signs = basis.pauli_action(star)
    assert signs is None
    assert np.array_equal(kept[pos], kept ^ star.x_mask)
    # a single flip leaves the sector from every state
    pos, _ = basis.pauli_action(pauli.pauli_x(geo22.n_spins, [0]))
    assert pos is None

    full = stabilizer.ground_state(geo22)
    sec = basis.project(full)
    assert abs(np.linalg.norm(sec.amplitudes) - 1.0) < 1e-12
    assert np.allclose(sec.amplitudes, full.amplitudes[kept], atol=1e-14)
    assert np.allclose(np.delete(full.amplitudes, kept), 0.0)

    # a single spin flip violates two plaquettes and has no sector weight
    flipped = np.zeros(1 << geo22.n_spins, dtype=np.complex128)
    flipped[1] = 1.0
    bad = stabilizer.StateVector(flipped, stabilizer.Basis(geo22.n_spins))
    with pytest.raises(ValueError, match="outside the sector"):
        basis.project(bad)
    with pytest.raises(ValueError):
        basis.project(sec)


def test_sector_hamiltonian_requires_commuting_terms(geo22):
    basis = ed.build_sector(geo22)
    spec = ed.HamiltonianSpec(geo22, h=0.2, kappa=0.4, field_mode="split_HV")
    with pytest.raises(ValueError, match="does not preserve"):
        ed.build_hamiltonian(spec, basis)
    ed.build_hamiltonian(ed.HamiltonianSpec(geo22, h=0.2), basis)
    # The star span lacks the field's single-spin flips under split_HV.
    stars = ed.build_block(ed.HamiltonianSpec(geo22, h=0.2))
    split = ed.HamiltonianSpec(geo22, h=0.2, kappa=1.0, field_mode="split_HV")
    with pytest.raises(ValueError, match="does not preserve"):
        ed.build_hamiltonian(split, stars)
    assert ed.build_hamiltonian(split, ed.build_block(split)).dimension == 64


def test_sector_spectrum_contains_ground_state(geo22):
    spec = ed.HamiltonianSpec(geo22, h=0.4)
    full_op = ed.build_hamiltonian(spec)
    sec_op = ed.build_hamiltonian(spec, ed.build_sector(geo22))
    wf = np.linalg.eigvalsh(full_op.dense())
    ws = np.linalg.eigvalsh(sec_op.dense())
    assert abs(wf[0] - ws[0]) < 1e-10


def test_sector_ground_energy_matches_full_space_lanczos(geo33):
    # the sector computation at 1024 states reproduces the 262144-state result
    spec = ed.HamiltonianSpec(geo33, h=0.3)
    ws = np.linalg.eigvalsh(ed.build_hamiltonian(spec, ed.build_sector(geo33)).dense())
    pairs = lanczos_extremal(ed.build_hamiltonian(spec), k=1, tol=1e-9)
    assert abs(ws[0] - pairs[0][0]) < 1e-8


def test_evolve_t0_is_identity(geo22):
    op = ed.build_hamiltonian(ed.HamiltonianSpec(geo22, h=0.3))
    state = stabilizer.ground_state(geo22)
    out = ed.evolve(state, op, 0.0)
    assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-14)
    out.amplitudes[0] += 1.0
    assert state.amplitudes[0] != out.amplitudes[0]


def test_evolve_eigenstate_accumulates_pure_phase(geo22):
    op = ed.build_hamiltonian(ed.HamiltonianSpec(geo22))
    state = stabilizer.ground_state(geo22)
    t = 3.7
    for out in (ed.evolve(state, op, t), next(ed.trajectory(state, op, [t]))):
        expected = np.exp(-1j * (-8.0) * t) * state.amplitudes
        assert np.allclose(out.amplitudes, expected, atol=1e-8)


def test_krylov_matches_spectrum(geo22):
    op = ed.build_hamiltonian(ed.HamiltonianSpec(geo22, h=0.3))
    state = stabilizer.ground_state(geo22)
    e_ref = op.expectation(state.amplitudes)
    times = (0.7, 3.3, 10.0, -2.1)
    for t, exact in zip(times, dense_samples(state, op, times)):
        b = ed.evolve(state, op, t, tol=1e-10)
        overlap = abs(np.vdot(exact, b.amplitudes))
        assert 1.0 - overlap < 1e-8
        assert abs(np.linalg.norm(b.amplitudes) - 1.0) < 1e-10
        assert abs(op.expectation(b.amplitudes) - e_ref) < 1e-8


def test_sector_evolution_matches_full(geo22):
    spec = ed.HamiltonianSpec(geo22, h=0.2)
    basis = ed.build_sector(geo22)
    full_op = ed.build_hamiltonian(spec)
    sec_op = ed.build_hamiltonian(spec, basis)
    full0 = stabilizer.ground_state(geo22)
    sec0 = basis.project(full0)
    t = 1.7
    (full_t,) = dense_samples(full0, full_op, [t])
    sec_t = next(ed.trajectory(sec0, sec_op, [t]))
    assert np.max(np.abs(full_t[basis.kept_indices] - sec_t.amplitudes)) < 1e-9


@pytest.mark.parametrize("sector", [False, True])
def test_trajectory_spectral_branch_equals_evolve(geo22, sector):
    basis = ed.build_sector(geo22) if sector else None
    op = ed.build_hamiltonian(ed.HamiltonianSpec(geo22, h=0.3), basis)
    psi0 = stabilizer.ground_state(geo22)
    if sector:
        psi0 = basis.project(psi0)
    assert ed.propagation(op.dimension) == "spectrum"
    times = [0.25 * k for k in range(21)]
    count = 0
    for t, state in zip(times, ed.trajectory(psi0, op, times)):
        want = ed.evolve(psi0, op, t)
        assert np.linalg.norm(state.amplitudes - want.amplitudes) < 1e-9
        count += 1
    assert count == len(times)
    # as many single flips: on one more spin when the basis is the full space
    bits = op.dimension.bit_length() - 1
    foreign = stabilizer.Basis(geo22.n_spins + (not sector), [1 << s for s in range(bits)])
    assert foreign.dimension == op.dimension
    amps = np.full(op.dimension, op.dimension**-0.5)
    with pytest.raises(ValueError, match="bases"):
        next(ed.trajectory(stabilizer.StateVector(amps, foreign), op, times))


@pytest.mark.parametrize(
    "kwargs", [{"field_mode": "split_HV", "kappa": 1.0}, {"field_mode": "uniform_z"}]
)
def test_trajectory_krylov_branch_at_strong_field(geo22, monkeypatch, kwargs):
    # The hardest shipped regime: h = 9 (beta = 0.9) out to t = 100. The
    # quench state spans a small invariant subspace, so a seeded random
    # state, which needs full-size Krylov steps, runs too.
    op = ed.build_hamiltonian(ed.HamiltonianSpec(geo22, h=9.0, **kwargs))
    rng = np.random.default_rng(29)
    noise = rng.standard_normal(op.dimension) + 1j * rng.standard_normal(op.dimension)
    noise /= np.linalg.norm(noise)
    monkeypatch.setattr(ed, "propagation", lambda dimension: "krylov")
    assert ed.propagation(op.dimension) == "krylov"
    times = [2.5 * k for k in range(41)]
    for psi0 in (stabilizer.ground_state(geo22), stabilizer.StateVector(noise, op.basis)):
        e0 = op.expectation(psi0.amplitudes)
        exact = dense_samples(psi0, op, times)
        for want, state in zip(exact, ed.trajectory(psi0, op, times)):
            deficit = 1.0 - abs(np.vdot(want, state.amplitudes)) ** 2
            assert deficit < 1e-8
            assert abs(op.expectation(state.amplitudes) - e0) < 1e-8


def test_winding_loops_commute_with_bare_hamiltonian(geo22):
    op = ed.build_hamiltonian(ed.HamiltonianSpec(geo22))
    rng = np.random.default_rng(89)
    v = rng.standard_normal(op.dimension) + 1j * rng.standard_normal(op.dimension)
    v /= np.linalg.norm(v)
    state = stabilizer.StateVector(v, stabilizer.Basis(geo22.n_spins))
    for support in (geo22.loop1_support, geo22.loop2_support):
        w = pauli.pauli_x(geo22.n_spins, support)
        hw = op.matvec(stabilizer.apply_pauli(w, state))
        wh_state = stabilizer.StateVector(
            op.matvec(v) / np.linalg.norm(op.matvec(v)), state.basis
        )
        wh = stabilizer.apply_pauli(w, wh_state) * np.linalg.norm(op.matvec(v))
        assert np.allclose(hw, wh, atol=1e-10)


def test_evolve_errors(geo22):
    op = ed.build_hamiltonian(ed.HamiltonianSpec(geo22))
    state = stabilizer.ground_state(geo22)
    # evolve is Krylov only: trajectory alone picks a method, by the cap
    with pytest.raises(TypeError, match="method"):
        ed.evolve(state, op, 1.0, method="krylov")
    small = ed.build_hamiltonian(ed.HamiltonianSpec(geo22), ed.build_sector(geo22))
    with pytest.raises(ValueError, match="bases"):
        ed.evolve(state, small, 1.0)
    # same dimension as the sector, but a different span of flips
    foreign = stabilizer.Basis(geo22.n_spins, [1 << s for s in range(5)])
    assert foreign.dimension == small.dimension
    amps = np.full(small.dimension, small.dimension**-0.5)
    with pytest.raises(ValueError, match="bases"):
        ed.evolve(stabilizer.StateVector(amps, foreign), small, 1.0)


def test_no_times_yield_no_samples_on_either_side_of_the_cap(geo22, monkeypatch):
    op = ed.build_hamiltonian(ed.HamiltonianSpec(geo22, h=9.0))
    psi = stabilizer.ground_state(geo22)
    assert list(ed.trajectory(psi, op, [])) == []
    monkeypatch.setattr(ed, "FULL_SPECTRUM_CAP", 1)
    assert ed.propagation(op.dimension) == "krylov"
    assert list(ed.trajectory(psi, op, [])) == []


# (L1, L2, sector basis, couplings, block size), all at h = 9
BLOCK_CASES = {
    "2x2-full-uniform_z": (2, 2, False, {"h": 9.0}, 8),
    "2x2-full-split_HV": (2, 2, False, {"h": 9.0, "kappa": 1.0, "field_mode": "split_HV"}, 64),
    "2x3-sector": (2, 3, True, {"h": 9.0}, 32),
    "3x3-sector": (3, 3, True, {"h": 9.0}, 256),
}


def block_case(name):
    """The case's operator on its whole space, then the operator and the
    (0,0) ground state on the block that ``ed.build_block`` builds."""
    l1, l2, sector, kwargs, _ = BLOCK_CASES[name]
    geo = lattice.build_lattice(l1, l2)
    spec = ed.HamiltonianSpec(geo, **kwargs)
    whole = ed.build_hamiltonian(spec, ed.build_sector(geo) if sector else None)
    block = ed.build_hamiltonian(spec, ed.build_block(spec))
    return whole, block, stabilizer.ground_state(geo, (0, 0), block.basis)


# Every run config: three lattices, each on the full space under uniform_z
# and under split_HV with kappa 1 and 0, and on the plaquette sector.
RUN_CONFIGS = {
    f"{l1}x{l2}-{name}": (l1, l2, sector, field)
    for l1, l2 in ((2, 2), (2, 3), (3, 3))
    for name, sector, field in (
        ("full-uniform_z", False, {}),
        ("full-split_HV-kappa1", False, {"field_mode": "split_HV", "kappa": 1.0}),
        ("full-split_HV-kappa0", False, {"field_mode": "split_HV", "kappa": 0.0}),
        ("sector", True, {}),
    )
}


@pytest.mark.parametrize("name", RUN_CONFIGS)
def test_build_block_is_the_touched_symmetry_block(name):
    # The flip span against the block the ground state touches among the
    # parity labels of the config's whole space.
    l1, l2, sector, field = RUN_CONFIGS[name]
    geo = lattice.build_lattice(l1, l2)
    spec = ed.HamiltonianSpec(geo, h=0.3, **field)
    space = ed.build_sector(geo) if sector else stabilizer.Basis(geo.n_spins)
    block = ed.build_block(spec)
    assert np.array_equal(block.kept_indices, touched_block(spec, space))
    # the star span; with the vertical flips, every state whose L2 rows of
    # horizontal bonds each keep the even parity of the all-up state
    bits = geo.n_spins - l2 if field.get("kappa") == 1.0 else l1 * l2 - 1
    assert block.dimension == 1 << bits


def test_build_block_refuses_a_span_above_the_cap():
    # 5x5 split_HV: stars and vertical flips span 2^45 states
    spec = ed.HamiltonianSpec(lattice.build_lattice(5, 5), h=1.0, kappa=1.0,
                              field_mode="split_HV")
    with pytest.raises(ValueError, match="5x5 block of the all-up state has 2\\^45"):
        ed.build_block(spec)


@pytest.mark.parametrize("name", BLOCK_CASES)
def test_blocks_come_from_commuting_z_strings(name):
    whole, block, _ = block_case(name)
    n = whole.basis.n_spins
    kept = block.basis.kept_indices
    # every symmetry commutes with every term and is constant on the block
    for z in symmetries(whole.terms, n):
        string = pauli.pauli_z(n, [s for s in range(n) if z >> s & 1])
        assert all(commutes(string, term) for _, term in whole.terms)
        assert np.unique(np.bitwise_count(kept & z) & 1).size == 1
    assert block.dimension == BLOCK_CASES[name][-1]
    # no matrix element leaves the block, and its operator is its submatrix
    positions, _ = locate(whole.basis, kept)
    inside = np.zeros(whole.dimension, dtype=bool)
    inside[positions] = True
    mat = whole.dense()
    assert np.all(mat[np.ix_(~inside, inside)] == 0.0)
    assert np.array_equal(block.dense(), mat[np.ix_(positions, positions)])


def signed_flip_operator():
    n = 5
    yy = pauli_multiply(pauli.single(n, "Y", 0), pauli.single(n, "Y", 1))
    terms = [
        (0.7, yy),
        (-0.4, pauli.pauli_x(n, [1, 2])),
        (0.5, pauli.pauli_x(n, [3, 4])),
        (0.3, pauli.pauli_z(n, [0, 3])),
        (0.2, pauli.single(n, "Z", 4)),
    ]
    return ed.HamiltonianOperator(terms, stabilizer.Basis(n))


def test_blocks_of_signed_flip_terms():
    # Y0·Y1 flips with a sign, so each coset of the flip span takes its
    # slice of the signs. A basis is a span, so coset ``shift`` is the span
    # under the terms conjugated by the flip ``shift``: a term's Z part
    # picks up the sign of its overlap with the shift.
    op = signed_flip_operator()
    mat = op.dense()
    columns = [op.matvec(one_hot(op.dimension, j)) for j in range(op.dimension)]
    assert np.array_equal(mat, np.column_stack(columns).real)
    span = stabilizer.Basis(5, [term.x_mask for _, term in op.terms])
    assert span.kept_indices.tolist() == [0, 3, 5, 6, 24, 27, 29, 30]
    spectra = []
    for shift in (0, 4, 8, 12):
        terms = [((-1) ** (term.z_mask & shift).bit_count() * c, term) for c, term in op.terms]
        coset = ed.HamiltonianOperator(terms, span)
        kept = span.kept_indices ^ shift
        assert np.array_equal(coset.dense(), mat[np.ix_(kept, kept)])
        spectra.append(coset.eigensystem()[0])
    merged = np.sort(np.concatenate(spectra))
    assert np.max(np.abs(merged - np.linalg.eigvalsh(mat))) < 1e-12


@pytest.mark.parametrize("name", BLOCK_CASES)
def test_merged_block_spectrum_matches_dense_oracle(name):
    whole, block, _ = block_case(name)
    w_ref = np.linalg.eigvalsh(whole.dense())
    # Relative to the spectral radius (171 on the 3x3 sector at h = 9), as
    # the dense real and complex eigvalsh already differ by 1e-12 there.
    scale = 1e-12 * np.abs(w_ref).max()
    assert np.max(np.abs(whole.eigensystem()[0] - w_ref)) < scale
    w, vecs = block.eigensystem()
    assert np.all(np.diff(w) >= 0)
    assert vecs.dtype == np.float64
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(block.dimension))) < 1e-12
    # each block eigenpair is one of the whole operator's
    positions, _ = locate(whole.basis, block.basis.kept_indices)
    for i in range(0, block.dimension, max(1, block.dimension // 4)):
        v = np.zeros(whole.dimension, dtype=np.complex128)
        v[positions] = vecs[:, i]
        assert np.linalg.norm(whole.matvec(v) - w[i] * v) < 1e-11
    assert np.max(np.abs(w_ref[np.searchsorted(w_ref, w - scale)] - w)) < scale


@pytest.mark.parametrize("name", BLOCK_CASES)
def test_block_trajectory_matches_complex_oracle_to_t100(name):
    # Out to t = 100 at h = 9 an eigenphase carries about t*|E|*eps ~ 1e-12
    # of round-off in either route, so the budget is 1e-10 per amplitude.
    # The quench state runs on its block, a seeded random state on the whole
    # space; the oracle is the whole space's complex spectrum.
    whole, block, psi0 = block_case(name)
    w_ref, v_ref = np.linalg.eigh(whole.dense().astype(complex))
    rng = np.random.default_rng(37)
    amps = rng.standard_normal(whole.dimension) + 1j * rng.standard_normal(whole.dimension)
    noise = stabilizer.StateVector(amps / np.linalg.norm(amps), whole.basis)
    times = [12.5 * k for k in range(9)]
    for psi, op in ((psi0, block), (noise, whole)):
        coef = v_ref.conj().T @ embed(psi, whole.basis)
        for t, state in zip(times, ed.trajectory(psi, op, times)):
            want = v_ref @ (coef * np.exp(-1j * w_ref * t))
            assert np.max(np.abs(embed(state, whole.basis) - want)) < 1e-10


def recording_eigh(monkeypatch):
    """Record the size of every ``np.linalg.eigh`` call; any ``ed._lanczos``
    vector fails the test."""
    eigh = np.linalg.eigh
    sizes = []

    def counted(mat):
        sizes.append(mat.shape[0])
        return eigh(mat)

    def no_lanczos(matvec, v, size):
        raise AssertionError("a Lanczos vector was built")

    monkeypatch.setattr(np.linalg, "eigh", counted)
    monkeypatch.setattr(ed, "_lanczos", no_lanczos)
    return sizes


# The quench state's orbits under the lattice maps that keep its operator
ORBIT_COUNTS = {"2x2-full-uniform_z": 4, "2x2-full-split_HV": 21, "2x3-sector": 8,
                "3x3-sector": 13, "2x3-full-uniform_z": 8, "3x3-full-uniform_z": 13}


@pytest.mark.parametrize("name", [*BLOCK_CASES, "2x3-full-uniform_z", "3x3-full-uniform_z"])
def test_quench_state_triggers_one_block_eigh(name, monkeypatch):
    # The quench state is fixed by its operator's lattice maps, so the
    # trajectory takes one eigh of the operator on the state's orbits and
    # builds no Lanczos vector; the block's own eigensystem is never taken.
    if name in ("2x3-full-uniform_z", "3x3-full-uniform_z"):
        # the largest quench of criterion 7, and the star span of the 2^18 full space
        l1, size = (2, 32) if name.startswith("2x3") else (3, 256)
        spec = ed.HamiltonianSpec(lattice.build_lattice(l1, 3), h=0.3)
        op = ed.build_hamiltonian(spec, ed.build_block(spec))
        psi0 = stabilizer.ground_state(spec.geometry, (0, 0), op.basis)
    else:
        _, op, psi0 = block_case(name)
        size = BLOCK_CASES[name][-1]
    sizes = recording_eigh(monkeypatch)
    monkeypatch.setattr(ed.HamiltonianOperator, "eigensystem", None)
    *_, state = ed.trajectory(psi0, op, [0.0, 0.5, 1.0, 3.0])
    assert sizes == [ORBIT_COUNTS[name]]
    assert op.dimension == state.amplitudes.size == size
    assert ed.propagation(op.dimension) == "spectrum"


# Largest Krylov space of the closure oracle; one still open there is None.
CLOSURE_LIMIT = 64


def closed_space(op, v):
    """``(Q, theta, S)`` of the Krylov space of the unit vector ``v``, closed
    to round-off: its vectors as rows and ``eigh`` of its tridiagonal matrix
    (Park & Light, J. Chem. Phys. 85, 5870 (1986)). The oracle of the
    spectral samples.

    The weight leaking out of it is at most t * beta_m * sum_j |S_mj S_1j|
    after a time t, so a rate within ``8 * eps * max|theta|`` keeps it below
    an eigenphase's own round-off, t * |E| * eps, at any t; a space of the
    whole basis is closed too. None if it is still open after
    ``CLOSURE_LIMIT`` vectors.
    """
    for Q, theta, S, b in ed._lanczos(op.matvec, v, min(op.dimension, CLOSURE_LIMIT)):
        if (b * np.abs(S[-1] * S[0]).sum() <= 8 * np.finfo(float).eps * np.abs(theta).max()
                or len(theta) == op.dimension):
            return Q, theta, S
    return None


# Every field of the closure test; on 3x3 the split_HV blocks with
# kappa != 0 exceed the dense cap and are stepped by Krylov instead.
CLOSURE_FIELDS = {
    "uniform_z": {},
    "split_HV-kappa0": {"field_mode": "split_HV", "kappa": 0.0},
    "split_HV-kappa1": {"field_mode": "split_HV", "kappa": 1.0},
    "split_HV-kappa2.5": {"field_mode": "split_HV", "kappa": 2.5},
}
CLOSURE_CASES = [
    (l1, l2, field)
    for l1, l2 in ((2, 2), (2, 3), (3, 3))
    for field in CLOSURE_FIELDS
    if (l1, l2) != (3, 3) or field in ("uniform_z", "split_HV-kappa0")
]
# A spectral sample at time t is within SAMPLE_BUDGET * eps * t * max|E| of
# the exact one: an eigenphase theta*t carries about t*|E|*eps of round-off
# in either route. Up to 0.16 of it seen on the 3x3 quench state's orbits
# and 0.23 on its whole block out to t = 2,121, and up to 1.1 on 2x2 at
# t = 100, where the t-independent round-off of the complex oracle's own
# eigenvectors weighs more.
SAMPLE_BUDGET = 2.0


def sample_budget(w, t):
    return SAMPLE_BUDGET * np.finfo(float).eps * t * np.abs(w).max()


@pytest.mark.parametrize("l1,l2,field", CLOSURE_CASES)
def test_quench_state_space_closes_within_the_limit(l1, l2, field, monkeypatch):
    # From the weakest to the strongest shipped field the (0,0) state's
    # Krylov space closes within CLOSURE_LIMIT vectors (16 to 18 on the 3x3
    # block, up to 33 on the 512-state 2x3 split_HV block). Its samples, the
    # closure oracle's, agree with the trajectory's on the state's orbits
    # and with the block's complex dense spectrum within the budget.
    geo = lattice.build_lattice(l1, l2)
    monkeypatch.setattr(ed.HamiltonianOperator, "eigensystem", None)
    times = [50.0, 100.0]
    for h in (0.01, 0.1, 1.0, 9.0, 99.0):
        spec = ed.HamiltonianSpec(geo, h=h, **CLOSURE_FIELDS[field])
        op = ed.build_hamiltonian(spec, ed.build_block(spec))
        assert ed.propagation(op.dimension) == "spectrum"
        psi0 = stabilizer.ground_state(geo, (0, 0), op.basis)
        Q, theta, S = closed_space(op, psi0.amplitudes)
        assert theta.size <= CLOSURE_LIMIT and theta.size < op.dimension
        assert np.max(np.abs(Q @ Q.conj().T - np.eye(theta.size))) < 1e-12
        # A Ritz value lies within its residual beta_m |S_mj| of the
        # spectrum, so weighted by the state's overlap the distances sum to
        # at most the leak rate, 8 * eps * max|theta|, plus the dense eigh's
        # round-off (up to 9.4 * eps * max|E| seen, on 2x3 split_HV at h = 99).
        w, vecs = np.linalg.eigh(op.dense().astype(complex))
        near = w[np.abs(w[:, None] - theta).argmin(axis=0)]
        eps_e = np.finfo(float).eps * np.abs(w).max()
        assert np.sum(np.abs(S[0]) * np.abs(near - theta)) < 16 * eps_e
        coef = vecs.conj().T @ psi0.amplitudes
        for t, state in zip(times, ed.trajectory(psi0, op, times)):
            closure = Q.T @ (S @ (S[0] * np.exp(-1j * theta * t)))
            want = vecs @ (np.exp(-1j * w * t) * coef)
            assert np.max(np.abs(state.amplitudes - closure)) < sample_budget(w, t)
            assert np.max(np.abs(state.amplitudes - want)) < sample_budget(w, t)


def test_random_state_falls_back_to_the_eigensystem(geo33, monkeypatch):
    # A seeded random state touches nearly every eigenvalue of the 1,024-state
    # sector, so its Krylov space is still open at CLOSURE_LIMIT vectors, and
    # no lattice map fixes it. The trajectory takes one eigh of the whole
    # sector, and builds no Lanczos vector first.
    op = ed.build_hamiltonian(ed.HamiltonianSpec(geo33, h=9.0), ed.build_sector(geo33))
    rng = np.random.default_rng(647)
    amps = rng.standard_normal(op.dimension) + 1j * rng.standard_normal(op.dimension)
    psi = stabilizer.StateVector(amps / np.linalg.norm(amps), op.basis)
    assert closed_space(op, psi.amplitudes) is None
    assert ed._orbit_space(op, psi.amplitudes) is None
    w, vecs = op.eigensystem()
    sizes = recording_eigh(monkeypatch)
    (state,) = ed.trajectory(psi, op, [1.0])
    assert sizes == [1024]
    want = vecs @ (np.exp(-1j * w) * (vecs.T @ psi.amplitudes))
    assert np.max(np.abs(state.amplitudes - want)) < 1e-12


@pytest.mark.parametrize("route", ["orbits", "map-free"])
def test_reduced_observables_match_the_block_oracle_within_the_cap(route):
    # The 3x3 quench state at h = 9 out to t = 100, on its 13 orbits of the
    # 256-state block and, built without maps, on the whole block. Within
    # the observable_oracle budgets on the orbits, and exactly on the block,
    # where y is the block vector. The above-cap route, the 1,110 orbits of
    # the split_HV block, is checked in test_ising_rings.
    config = quench.QuenchConfig(L1=3, L2=3, h=9.0, sector_restrict=True)
    _, _, psi0, op = quench._prepare(config)
    if route == "map-free":
        op = ed.HamiltonianOperator(op.terms, op.basis)
    assert ed._space(psi0, op).dimension == {"orbits": 13, "map-free": 256}[route]
    times = [0.0, 0.5, 1.0, 10.0, 50.0, 99.5, 100.0]
    gaps, _ = observable_gaps(psi0, op, times)
    assert gaps.max() <= 1.0, gaps
    if route == "map-free":
        assert not gaps.any()
    # The samples are trajectory's, bit for bit: one loop serves both.
    pairs = zip(ed.observed_trajectory(psi0, op, times), ed.trajectory(psi0, op, times))
    assert all(np.array_equal(a[0].amplitudes, b.amplitudes) for a, b in pairs)


def test_spectral_trajectory_at_zero_returns_the_state_by_either_route():
    # A state's norm may be off 1 by up to 1e-8; its samples keep that norm,
    # on its orbits and, for the same terms given no lattice maps, on the
    # whole block alike.
    _, op, psi0 = block_case("3x3-sector")
    amps = psi0.amplitudes * (1.0 + 5e-9)
    psi = stabilizer.StateVector(amps, op.basis)
    for route in (op, ed.HamiltonianOperator(op.terms, op.basis)):
        (state,) = ed.trajectory(psi, route, [0.0])
        assert np.max(np.abs(state.amplitudes - amps)) < 1e-14


@pytest.mark.parametrize("h", [9.0, 99.0])
def test_spectral_samples_hold_the_budget_to_the_sweep_horizon(geo33, h, monkeypatch):
    # The hardest regime of a spectral run: the 3x3 block at h = 9 and 99
    # over the sweep's window (50, 55) and its golden-ratio horizon, out to
    # t = 2,121, on the state's 13 orbits and, for the same terms given no
    # lattice maps, on the whole block, against the block's complex dense
    # spectrum.
    spec = ed.HamiltonianSpec(geo33, h=h)
    op = ed.build_hamiltonian(spec, ed.build_block(spec))
    psi0 = stabilizer.ground_state(geo33, (0, 0), op.basis)
    w_ref, v_ref = np.linalg.eigh(op.dense().astype(complex))
    coef = v_ref.conj().T @ psi0.amplitudes
    t0, t1 = 50.0, 55.0
    stride = (t1 - t0) * quench._GOLDEN
    times = [t0 + t for t in quench._time_grid(t1 - t0, 0.5)]
    times += [t0 + j * stride for j in range(1, quench._EIG_SAMPLES + 1)]
    assert 2121 < times[-1] < 2122
    sizes = recording_eigh(monkeypatch)
    for route, size in ((op, 13), (ed.HamiltonianOperator(op.terms, op.basis), 256)):
        sizes.clear()
        for t, state in zip(times, ed.trajectory(psi0, route, times)):
            want = v_ref @ (coef * np.exp(-1j * w_ref * t))
            assert np.max(np.abs(state.amplitudes - want)) < sample_budget(w_ref, t)
        assert sizes == [size]


@pytest.fixture(scope="module")
def krylov_quench_33():
    """The 3x3 ``split_HV`` quench: its 32,768-state block, and the 2^18 full
    space with no lattice maps, so that it propagates on every state."""
    geo = lattice.build_lattice(3, 3)
    spec = ed.HamiltonianSpec(geo, h=0.3, kappa=1.0, field_mode="split_HV")
    block = ed.build_hamiltonian(spec, ed.build_block(spec))
    whole = ed.HamiltonianOperator(spec.term_list(), stabilizer.full_basis(geo.n_spins))
    return block, stabilizer.ground_state(geo, (0, 0), block.basis), whole


def test_krylov_run_gathers_only_the_touched_block(krylov_quench_33, monkeypatch):
    op, psi0, _ = krylov_quench_33
    assert op.dimension == 32768 and ed.propagation(op.dimension) == "krylov"
    calls = []
    eigensystem = ed.HamiltonianOperator.eigensystem
    dense = ed.HamiltonianOperator.dense

    def recording_eigensystem(self):
        calls.append("eigensystem")
        return eigensystem(self)

    def recording_dense(self):
        calls.append("dense")
        return dense(self)

    monkeypatch.setattr(ed.HamiltonianOperator, "eigensystem", recording_eigensystem)
    monkeypatch.setattr(ed.HamiltonianOperator, "dense", recording_dense)
    states = list(ed.trajectory(psi0, op, [0.0, 0.1, 0.2]))
    assert len(states) == 3 and all(s.amplitudes.size == 32768 for s in states)
    # the Krylov block takes no spectrum, and one is refused before its matrix is built
    assert calls == []
    with pytest.raises(ValueError, match="basis of 32768 states exceeds the dense cap"):
        op.eigensystem()
    assert calls == ["eigensystem"]


def test_block_krylov_matches_whole_basis_krylov_on_3x3(krylov_quench_33):
    # The block's operator against whole-basis Krylov on 2^18 states.
    op, psi0, whole = krylov_quench_33
    start = stabilizer.StateVector(embed(psi0, whole.basis), whole.basis)
    times = [0.0, 0.1, 0.2]
    for t, state in zip(times, ed.trajectory(psi0, op, times)):
        want = ed.evolve(start, whole, t)
        assert np.linalg.norm(embed(state, whole.basis) - want.amplitudes) < 1e-10
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12


def recording_steps(monkeypatch):
    """Record every Krylov space ``ed._steps`` builds, the state's and each
    restart's, as ``[v, vectors, served, held]``: its start vector, its
    size, how many samples it serves and the farthest time it holds,
    counted from its start."""
    spaces = []
    lanczos, reach = ed._lanczos, ed._reach

    def recording_lanczos(matvec, v, size):
        spaces.append([v, 0, 0, 0.0])
        yield from lanczos(matvec, v, size)

    def recording_reach(theta, S, beta, times, rate):
        count, held = reach(theta, S, beta, times, rate)
        spaces[-1][1:] = theta.size, count, held
        return count, held

    monkeypatch.setattr(ed, "_lanczos", recording_lanczos)
    monkeypatch.setattr(ed, "_reach", recording_reach)
    return spaces


def restart_times(spaces):
    """The times the recorded spaces after the first start from."""
    return list(np.cumsum([held for *_, held in spaces[:-1]]))


def seeded_complex_state(op, seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(op.dimension) + 1j * rng.standard_normal(op.dimension)
    return stabilizer.StateVector(amps / np.linalg.norm(amps), op.basis)


@pytest.mark.parametrize("h,state,t_max,evolved", [
    (0.3, "quench", 0.2, []), (0.3, "quench", 1.0, []), (9.0, "quench", 1.0, [0.5, 1.0]),
    (0.3, "random", 1.0, [1.0]),
])
def test_krylov_block_samples_hold_the_tol_against_tight_evolve(
    krylov_quench_33, monkeypatch, h, state, t_max, evolved
):
    # The 32,768-state split_HV block, above the dense cap, out to t = 1:
    # every sample is within 1e-10 of the stepping oracle at tol 1e-13,
    # stepped from sample to sample (6.7e-13 seen, with the benchmark's 13
    # vectors to t = 0.2). The real quench state's first space is real; at
    # h = 0.3 it holds every time, at h = 9 its 30 vectors hold t = 0.2 and
    # restarted spaces serve ``evolved``, the later samples. A seeded
    # complex state's space is complex and leaves t = 1 to a restart.
    op = krylov_quench_33[0]
    if h != 0.3:
        spec = ed.HamiltonianSpec(lattice.build_lattice(3, 3), h=h, kappa=1.0,
                                  field_mode="split_HV")
        op = ed.build_hamiltonian(spec, ed.build_block(spec))
    assert op.dimension == 32768 and ed.propagation(op.dimension) == "krylov"
    psi = krylov_quench_33[1] if state == "quench" else seeded_complex_state(op, 5)
    times = [t for t in (0.0, 0.1, 0.2, 0.5, 1.0) if t <= t_max]
    spaces = recording_steps(monkeypatch)
    samples = list(ed.trajectory(psi, op, times))
    assert spaces[0][0].dtype == (np.float64 if state == "quench" else np.complex128)
    assert all(v.dtype == np.complex128 for v, *_ in spaces[1:])
    assert times[spaces[0][2]:] == evolved and (len(spaces) > 1) == bool(evolved)
    monkeypatch.undo()
    want, t_prev = psi, 0.0
    for t, sample in zip(times, samples):
        want, t_prev = stepped_evolve(want, op, t - t_prev, tol=1e-13), t
        assert np.max(np.abs(sample.amplitudes - want.amplitudes)) < 1e-10


@pytest.mark.parametrize("times,evolved", [
    ([0.0, 0.01, 0.1, 0.5, 1.0, 99.5, 100.0], [0.5, 1.0, 99.5, 100.0]),
    ([50.0 + 0.5 * k for k in range(11)], [50.0 + 0.5 * k for k in range(11)]),
], ids=["to-t100", "window-from-t50"])
def test_krylov_fallback_holds_the_tol_at_strong_field(geo22, monkeypatch, times, evolved):
    # The hardest regime of the Krylov route, h = 9 out to t = 100, on the
    # 2x2 full space with the dense cap lowered below it, against its dense
    # spectrum. The quench state's space closes and holds every time. A
    # seeded complex state's space holds t = 0.1 and leaves ``evolved`` to
    # restarted spaces (over a hundred to t = 100), a sweep's window from
    # t = 50 all of it. Each restart starts at or past the last sample
    # served before it and before the next one.
    op = ed.build_hamiltonian(ed.HamiltonianSpec(geo22, h=9.0, kappa=1.0, field_mode="split_HV"))
    states = (stabilizer.ground_state(geo22), seeded_complex_state(op, 5))
    oracles = [dense_samples(psi, op, times) for psi in states]
    monkeypatch.setattr(ed, "FULL_SPECTRUM_CAP", 1)
    assert ed.propagation(op.dimension) == "krylov"
    spaces = recording_steps(monkeypatch)
    recorded = []
    for psi, oracle in zip(states, oracles):
        spaces.clear()
        for want, sample in zip(oracle, ed.trajectory(psi, op, times)):
            assert np.max(np.abs(sample.amplitudes - want)) < 1e-10
        recorded.append(list(spaces))
    ((v, _, served, _),), spaces = recorded
    assert v.dtype == np.float64 and served == len(times)
    assert all(v.dtype == np.complex128 for v, *_ in spaces)
    assert times[spaces[0][2]:] == evolved and len(spaces) > 1
    served = np.cumsum([count for *_, count, _ in spaces])
    assert served[-1] == len(times)
    for n, start in zip(served, restart_times(spaces)):
        assert (n == 0 or times[n - 1] <= start) and start < times[n]


@pytest.fixture(scope="module")
def krylov_quench_33_h1():
    """The 3x3 ``split_HV`` quench block at h = 1 (a sweep's beta 0.5), with
    the quench state's first 60 Lanczos spaces and the last one's vectors."""
    geo = lattice.build_lattice(3, 3)
    spec = ed.HamiltonianSpec(geo, h=1.0, kappa=1.0, field_mode="split_HV")
    op = ed.build_hamiltonian(spec, ed.build_block(spec))
    psi0 = stabilizer.ground_state(geo, (0, 0), op.basis)
    spaces = []
    for Q, theta, S, b in ed._lanczos(op.matvec, psi0.amplitudes.real, 60):
        spaces.append((theta, S, b))
    return op, psi0, spaces, Q


def test_krylov_reach_bounds_the_leak_over_the_whole_interval(krylov_quench_33_h1):
    # At 28 vectors the leak estimate at t = 55 alone, t beta |u_m(t)|, dips
    # within 1e-10 (8.6e-11) while its maximum over [0, 55] is 5e-10: at the
    # rate 1e-10 / 55 the space does not hold t = 55, nor t = 5 and 50. It
    # holds up to a grid time near t = 2.1, and on a fine grid the leak
    # bound over [0, held] is within the rate there.
    theta, S, beta = krylov_quench_33_h1[2][27]
    assert 55.0 * beta * abs((S[-1] * S[0]) @ np.exp(-55j * theta)) <= 1e-10

    def leak_rate(t):
        fine = np.linspace(0.0, t, 10001)
        return beta * np.abs(np.exp(-1j * np.outer(fine, theta)) @ (S[-1] * S[0])).max()

    rate = 1e-10 / 55.0
    assert leak_rate(55.0) > 4 * rate
    for times, want in (([55.0], 0), ([0.0, 1.0, 5.0, 50.0, 55.0], 2)):
        count, held = ed._reach(theta, S, beta, times, rate)
        assert count == want and 1.0 < held < 5.0
        assert leak_rate(held) <= rate
    assert ed._reach(theta, S, 0.0, [55.0], rate) == (1, 55.0)


def test_krylov_window_starting_late_is_served_by_the_block_space(krylov_quench_33_h1, monkeypatch):
    # A sweep's window (50, 55) on the 32,768-state block, above the dense
    # cap, with no earlier sample: without lattice maps the quench state's
    # one real space of KRYLOV_DIM vectors holds all of it, and every sample
    # is within 1e-10 of the 60-vector space's, whose leak rate bounds its
    # own error at t = 55 by 1e-12. On the block's orbits the first space
    # of KRYLOV_DIM vectors holds none of the window, and restarted spaces
    # serve it within the same bound.
    op, psi0, spaces, Q = krylov_quench_33_h1
    theta, S, beta = spaces[-1]
    assert 55.0 * beta * np.abs(S[-1] * S[0]).sum() < 1e-12
    times = [50.0 + 0.5 * k for k in range(11)]
    wants = [(S @ (S[0] * np.exp(-1j * theta * t))) @ Q for t in times]
    steps = recording_steps(monkeypatch)
    free = ed.HamiltonianOperator(op.terms, op.basis)
    for want, sample in zip(wants, ed.trajectory(psi0, free, times)):
        assert np.max(np.abs(sample.amplitudes - want)) < 1e-10
    ((v, vectors, served, held),) = steps
    assert v.dtype == np.float64 and vectors == ed.KRYLOV_DIM
    assert (served, held) == (len(times), 55.0)
    steps.clear()
    for want, sample in zip(wants, ed.trajectory(psi0, op, times)):
        assert np.max(np.abs(sample.amplitudes - want)) < 1e-10
    (v, vectors, served, _), *restarts = steps
    assert v.size == 1110 and vectors == ed.KRYLOV_DIM and served == 0 and restarts


@pytest.mark.parametrize("h", [0.3, 9.0])
def test_orbit_route_matches_the_block_without_lattice_maps(krylov_quench_33, monkeypatch, h):
    # The 32,768-state split_HV block out to t = 1: the quench state runs on
    # its 1,110 orbits, in real arithmetic, and each sample is within 1e-10
    # of the same terms given no lattice maps, which run on the whole block.
    op, psi0, _ = krylov_quench_33
    if h != 0.3:
        spec = ed.HamiltonianSpec(lattice.build_lattice(3, 3), h=h, kappa=1.0,
                                  field_mode="split_HV")
        op = ed.build_hamiltonian(spec, ed.build_block(spec))
    free = ed.HamiltonianOperator(op.terms, op.basis)
    times = [0.0, 0.1, 0.2, 0.5, 1.0]
    spaces = recording_steps(monkeypatch)
    samples = list(ed.trajectory(psi0, op, times))
    assert spaces[0][0].dtype == np.float64 and spaces[0][0].size == 1110
    spaces.clear()
    for sample, want in zip(samples, ed.trajectory(psi0, free, times)):
        assert np.max(np.abs(sample.amplitudes - want.amplitudes)) < 1e-10
    assert spaces[0][0].size == 32768


def orbit_isometry(maps, dim):
    """Columns of unit orbit vectors, the orbits found as the connected
    components of the graph with an edge from k to p[k] for every map p,
    ordered by their least position."""
    label = np.full(dim, -1)
    for k in range(dim):
        if label[k] < 0:
            label[k], stack = k, [k]
            while stack:
                j = stack.pop()
                for p in maps:
                    if label[p[j]] < 0:
                        label[p[j]] = k
                        stack.append(p[j])
    reps = np.unique(label)
    V = (label[:, None] == reps[None, :]).astype(float)
    return V / np.sqrt(V.sum(axis=0))


def test_orbit_operator_is_the_dense_operator_on_the_orbit_basis(geo22):
    # On the 2x2 full space, with a Y·Y term on each site's two bonds, which
    # flips with signs: the translations and the transpose keep the terms,
    # the reflections do not. The orbit operator's matrix is V^T H V for
    # the isometry V of unit orbit vectors, and real symmetric.
    n = geo22.n_spins
    terms = [(0.7, pauli_multiply(pauli.single(n, "Y", 2 * s), pauli.single(n, "Y", 2 * s + 1)))
             for s in range(4)]
    terms += [(-1.0, pauli.pauli_x(n, sup)) for sup in geo22.star_supports]
    terms += [(-0.3, pauli.single(n, "Z", j)) for j in range(n)]
    op = ed.HamiltonianOperator(terms, stabilizer.full_basis(n),
                                lattice.symmetry_generators(geo22))
    maps = [stabilizer.full_basis(n).permutation_positions(p)
            for p in lattice.symmetry_generators(geo22)]
    assert [any(np.array_equal(p, m) for m in op.symmetry_maps) for p in maps] == [
        True, True, False, False, True]
    orbits = ed._OrbitOperator(op, op.symmetry_maps)
    V = orbit_isometry(op.symmetry_maps, op.dimension)
    reduced = np.array([orbits.matvec(col) for col in np.eye(orbits.dimension)]).T
    assert orbits.dimension == V.shape[1] < op.dimension
    assert np.max(np.abs(reduced - V.T @ op.dense() @ V)) < 1e-12
    assert np.max(np.abs(reduced - reduced.T)) < 1e-12
    y = np.random.default_rng(3).standard_normal(orbits.dimension) * (1 + 1j)
    assert np.max(np.abs(orbits.expand(y) - V @ y)) < 1e-15
    assert np.max(np.abs(orbits.restrict(V @ y) - y)) < 1e-14


def kept_generators(op, v, geometry):
    """Which of the lattice's ``symmetry_generators`` the orbit route keeps
    for ``v``, by index, or None when it runs on the whole basis."""
    orbits = ed._orbit_space(op, v)
    if orbits is None:
        return None
    maps = [op.basis.permutation_positions(p) for p in lattice.symmetry_generators(geometry)]
    return [i for i, p in enumerate(maps) if any(np.array_equal(p, m) for m in orbits.maps)]


def test_lattice_maps_are_kept_by_the_terms_the_basis_and_the_state(geo33, monkeypatch):
    # Under uniform_z the operator keeps all five generators; split_HV's
    # horizontal and vertical fields break the transpose. The (0,0) state
    # is fixed by every map its operator keeps; the (1,0) state's X loop
    # runs along direction 1, so the transpose sends it to another sector
    # and only the translations and reflections are kept. A seeded random
    # state keeps no map and runs on the whole block.
    sector = ed.build_hamiltonian(ed.HamiltonianSpec(geo33, h=0.5), ed.build_sector(geo33))
    spec = ed.HamiltonianSpec(geo33, h=0.5, kappa=1.0, field_mode="split_HV")
    block = ed.build_hamiltonian(spec, ed.build_block(spec))
    assert len(sector.symmetry_maps) == 5 and len(block.symmetry_maps) == 4
    for op in (sector, block):
        assert not ed.HamiltonianOperator(op.terms, op.basis).symmetry_maps
        for p in op.symmetry_maps:
            assert np.array_equal(np.sort(p), np.arange(op.dimension))
    psi = {s: stabilizer.ground_state(geo33, s, sector.basis).amplitudes for s in [(0, 0), (1, 0)]}
    assert kept_generators(sector, psi[(0, 0)], geo33) == [0, 1, 2, 3, 4]
    assert kept_generators(sector, psi[(1, 0)], geo33) == [0, 1, 2, 3]
    quench_state = stabilizer.ground_state(geo33, (0, 0), block.basis).amplitudes
    assert kept_generators(block, quench_state, geo33) == [0, 1, 2, 3]
    psi = seeded_complex_state(block, 7)
    assert kept_generators(block, psi.amplitudes, geo33) is None
    spaces = recording_steps(monkeypatch)
    list(ed.trajectory(psi, block, [0.0, 0.1]))
    assert [v.size for v, *_ in spaces] == [32768]


def test_dense_refuses_a_basis_above_the_cap_before_it_allocates(krylov_quench_33):
    # The 32,768-state block's dense matrix would be 8 GiB.
    op = krylov_quench_33[0]
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="basis of 32768 states exceeds the dense cap"):
            op.dense()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def matvec_case(name):
    if name == "signed-Y0Y1":
        return signed_flip_operator()
    if name == "3x3-full-split_HV":
        geo = lattice.build_lattice(3, 3)
        return ed.build_hamiltonian(
            ed.HamiltonianSpec(geo, h=9.0, kappa=1.0, field_mode="split_HV")
        )
    return block_case(name)[0]


@pytest.mark.parametrize(
    "name",
    ["2x2-full-uniform_z", "2x2-full-split_HV", "2x3-sector", "signed-Y0Y1", "3x3-full-split_HV"],
)
def test_gather_matvec_equals_scatter_oracle(name):
    op = matvec_case(name)
    # The gather is the scatter only because every flip term is an involution.
    for _, perm, _ in op._offdiag:
        assert np.array_equal(perm[perm], np.arange(op.dimension))
    rng = np.random.default_rng(43)
    v = rng.standard_normal(op.dimension) + 1j * rng.standard_normal(op.dimension)
    assert np.array_equal(op.matvec(v), scatter_matvec(op, v))


@pytest.mark.parametrize("l2", [2, 3])
def test_krylov_step_matches_list_oracle(l2):
    # ed._lanczos, rows of one array reorthogonalized by matrix products,
    # against looped Gram-Schmidt on a list of vectors: the same vectors,
    # tridiagonal spectrum, beta and propagator column u(dt) after every
    # vector, until the space closes or holds KRYLOV_DIM vectors.
    geo = lattice.build_lattice(2, l2)
    op = ed.build_hamiltonian(ed.HamiltonianSpec(geo, h=9.0, kappa=1.0, field_mode="split_HV"))
    rng = np.random.default_rng(61)
    noise = rng.standard_normal(op.dimension) + 1j * rng.standard_normal(op.dimension)
    sizes = []
    for v in (stabilizer.ground_state(geo).amplitudes, noise / np.linalg.norm(noise)):
        pairs = zip(ed._lanczos(op.matvec, v, ed.KRYLOV_DIM),
                    list_lanczos(op.matvec, v, ed.KRYLOV_DIM))
        for (Q, evals, evecs, b), (vecs, want_evals, want_evecs, want_b) in pairs:
            # Rounding grows along the vectors as Ritz values converge
            # (6e-9 at the 27th of a random 2x2 state, just before it closes).
            assert np.max(np.abs(Q - np.array(vecs))) < 1e-8
            assert np.max(np.abs(evals - want_evals)) < 1e-12
            for dt in (0.01, -0.03, 0.1, 0.3, 3.0):
                u = evecs @ (np.exp(-1j * dt * evals) * evecs[0])
                want_u = want_evecs @ (np.exp(-1j * dt * want_evals) * want_evecs[0])
                assert np.max(np.abs(u - want_u)) < 1e-12
            if b < 1e-3:
                assert want_b < 1e-3
                break
            assert abs(b - want_b) < 1e-12
        sizes.append(evals.size)
    # The quench state's space closes; a random state's closes at its 27
    # distinct eigenvalues on 2x2 and runs to KRYLOV_DIM vectors on 2x3.
    assert sizes == {2: [8, 27], 3: [11, ed.KRYLOV_DIM]}[l2]


@pytest.mark.parametrize("t", [2.5, 100.0])
@pytest.mark.parametrize(
    "kwargs", [{"field_mode": "split_HV", "kappa": 1.0}, {"field_mode": "uniform_z"}]
)
def test_krylov_error_budget_against_exact_substeps(geo22, monkeypatch, kwargs, t):
    # The budget is on the whole propagation: the exact errors of the
    # restarted spaces' segments, summed, and the final error both stay
    # within tol. Each segment runs from a space's start vector to the next
    # one's, the last to the sample, and together they cover [0, t].
    tol = 1e-10
    op = ed.build_hamiltonian(ed.HamiltonianSpec(geo22, h=9.0, **kwargs))
    w, vecs = dense_eigh(op)
    psi0 = seeded_complex_state(op, 53)
    spaces = recording_steps(monkeypatch)
    final = ed.evolve(psi0, op, t, tol=tol)
    starts = restart_times(spaces)
    assert len(spaces) > 1 and 0.0 < starts[0] and starts[-1] < t
    ends = [v for v, *_ in spaces[1:]] + [final.amplitudes / np.linalg.norm(psi0.amplitudes)]
    spans = np.diff([0.0, *starts, t])
    summed = sum(
        np.linalg.norm(end - vecs @ (np.exp(-1j * w * dt) * (vecs.conj().T @ v)))
        for (v, *_), end, dt in zip(spaces, ends, spans)
    )
    assert summed <= tol
    (exact,) = dense_samples(psi0, op, [t])
    assert np.linalg.norm(final.amplitudes - exact) <= tol


def test_evolve_finishes_at_a_tight_tol_on_a_hard_state(geo23):
    # The 2x3 full space (4,096 states) under split_HV at h = 9 and a seeded
    # random state: the stepping oracle at tol 1e-13 shrinks its substeps to
    # the step limit, since its pointwise estimate has a round-off floor
    # above a small substep's share. Restarted spaces finish, and agree with
    # the oracle at tol 1e-10.
    op = ed.build_hamiltonian(ed.HamiltonianSpec(geo23, h=9.0, kappa=1.0, field_mode="split_HV"))
    psi = seeded_complex_state(op, 53)
    got = ed.evolve(psi, op, 2.5, tol=1e-13)
    want = stepped_evolve(psi, op, 2.5, tol=1e-10)
    assert np.linalg.norm(got.amplitudes - want.amplitudes) <= 1e-10


def test_evolve_refuses_a_tol_below_round_off(geo23):
    # At tol 1e-20 the leak bound's round-off floor is above the rate at
    # every grid time: one space of KRYLOV_DIM vectors holds none, and
    # evolve raises rather than restart from where it started.
    op = ed.build_hamiltonian(ed.HamiltonianSpec(geo23, h=9.0, kappa=1.0, field_mode="split_HV"))
    psi = seeded_complex_state(op, 53)
    calls = []
    matvec = op.matvec

    def counted(v):
        calls.append(1)
        return matvec(v)

    op.matvec = counted
    with pytest.raises(RuntimeError, match="holds no time"):
        ed.evolve(psi, op, 2.5, tol=1e-20)
    assert len(calls) <= ed.KRYLOV_DIM


def test_real_eigenvector_samples_match_the_complex_product_at_strong_field(geo33):
    # The hardest shipped spectral regime: the 3x3 sector at h = 9 out to
    # t = 100. Samples built by real products on the float view of each
    # complex vector against the complex-eigenvector products they replace;
    # the quench state runs on its 256-state block, a random state on the
    # 1,024-state sector.
    spec = ed.HamiltonianSpec(geo33, h=9.0)
    block = ed.build_hamiltonian(spec, ed.build_block(spec))
    sector = ed.build_hamiltonian(spec, ed.build_sector(geo33))
    rng = np.random.default_rng(283)
    amps = rng.standard_normal(sector.dimension) + 1j * rng.standard_normal(sector.dimension)
    cases = [(stabilizer.ground_state(geo33, (0, 0), block.basis), block),
             (stabilizer.StateVector(amps / np.linalg.norm(amps), sector.basis), sector)]
    times = [0.0, 0.1, 1.0, 10.0, 50.0, 99.9, 100.0]
    for psi, op in cases:
        w, vecs = op.eigensystem()
        assert vecs.dtype == np.float64
        cvecs = vecs.astype(np.complex128)
        coef = cvecs.conj().T @ psi.amplitudes
        samples = list(ed.trajectory(psi, op, times))
        for t, state in zip(times, samples):
            want = cvecs @ (coef * np.exp(-1j * w * t))
            assert np.max(np.abs(state.amplitudes - want)) < 1e-12
        # one sample per product: a sample's bits do not depend on the call
        for t, state in zip(times, samples):
            (alone,) = ed.trajectory(psi, op, [t])
            assert np.array_equal(alone.amplitudes, state.amplitudes)
