"""Pauli bitmask algebra checked against explicit dense matrices."""

import itertools
import random

import numpy as np
import pytest

from pauli_algebra import apply_to_basis, commutes, pauli_multiply
from toricsim import pauli

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_PHASE = [1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j]


def dense(op):
    """Independent dense build: i^p * kron of per-spin X^x Z^z factors.

    Spin 0 is the least significant bit of the basis index, so it sits
    innermost in the Kronecker product.
    """
    mat = np.eye(1, dtype=complex)
    for j in range(op.n_spins):
        factor = np.eye(2, dtype=complex)
        if (op.z_mask >> j) & 1:
            factor = _Z @ factor
        if (op.x_mask >> j) & 1:
            factor = _X @ factor
        mat = np.kron(factor, mat)
    return _PHASE[op.phase_exp % 4] * mat


def all_single_spin_ops():
    return [
        pauli.PauliOperator(1, x, z, p)
        for x in (0, 1)
        for z in (0, 1)
        for p in range(4)
    ]


def random_op(rng, n):
    return pauli.PauliOperator(
        n, rng.getrandbits(n), rng.getrandbits(n), rng.randrange(4)
    )


def test_single_spin_multiplication_exhaustive():
    ops = all_single_spin_ops()
    for a, b in itertools.product(ops, ops):
        prod = pauli_multiply(a, b)
        assert np.allclose(dense(prod), dense(a) @ dense(b), atol=1e-15)


def test_multiplication_matches_dense_random():
    rng = random.Random(31)
    for _ in range(40):
        a, b = random_op(rng, 4), random_op(rng, 4)
        assert np.allclose(
            dense(pauli_multiply(a, b)), dense(a) @ dense(b), atol=1e-14
        )


def test_multiplication_associative():
    rng = random.Random(37)
    for _ in range(40):
        a, b, c = (random_op(rng, 4) for _ in range(3))
        left = pauli_multiply(pauli_multiply(a, b), c)
        right = pauli_multiply(a, pauli_multiply(b, c))
        assert left == right


def test_xz_is_minus_i_y():
    x = pauli.pauli_x(1, [0])
    z = pauli.pauli_z(1, [0])
    y = pauli.single(1, "Y", 0)
    prod = pauli_multiply(x, z)
    assert (prod.x_mask, prod.z_mask) == (1, 1)
    assert (y.x_mask, y.z_mask) == (1, 1)
    # XZ = -iY, i.e. Y carries one extra factor of i
    assert y.phase_exp == (prod.phase_exp + 1) % 4
    assert np.allclose(dense(prod), -1j * dense(y))


def test_squares_are_identity():
    for kind in "XYZ":
        op = pauli.single(3, kind, 1)
        assert pauli_multiply(op, op) == pauli.PauliOperator(3)


def test_commutes_matches_dense_commutator():
    rng = random.Random(41)
    for _ in range(60):
        a, b = random_op(rng, 3), random_op(rng, 3)
        comm = dense(a) @ dense(b) - dense(b) @ dense(a)
        assert commutes(a, b) == np.allclose(comm, 0.0, atol=1e-13)


def test_apply_to_basis_matches_dense_column():
    rng = random.Random(43)
    for _ in range(30):
        op = random_op(rng, 3)
        mat = dense(op)
        for idx in range(8):
            new_idx, amp = apply_to_basis(op, idx)
            col = mat[:, idx]
            assert abs(col[new_idx] - amp) < 1e-15
            assert np.count_nonzero(col) == 1


def test_apply_composition():
    # applying b then a agrees with applying the product, all indices at 6 spins
    rng = random.Random(47)
    for _ in range(25):
        a, b = random_op(rng, 6), random_op(rng, 6)
        ab = pauli_multiply(a, b)
        for idx in range(64):
            mid, amp_b = apply_to_basis(b, idx)
            out, amp_a = apply_to_basis(a, mid)
            out_direct, amp_direct = apply_to_basis(ab, idx)
            assert out == out_direct
            assert abs(amp_a * amp_b - amp_direct) < 1e-15


def test_is_hermitian_matches_dense():
    rng = random.Random(53)
    for _ in range(60):
        op = random_op(rng, 3)
        mat = dense(op)
        assert op.is_hermitian == np.allclose(mat, mat.conj().T, atol=1e-14)


def test_single_spin_kinds_hermitian():
    for kind in "XYZ":
        assert pauli.single(2, kind, 0).is_hermitian
    xz = pauli_multiply(pauli.pauli_x(1, [0]), pauli.pauli_z(1, [0]))
    assert not xz.is_hermitian


def test_lattice_stabilizers_commute_pairwise(geo23):
    from toricsim import stabilizer

    gens = stabilizer.star_operators(geo23) + stabilizer.plaquette_operators(geo23)
    for a, b in itertools.combinations(gens, 2):
        assert commutes(a, b)
    for g in gens:
        assert g.is_hermitian
        assert pauli_multiply(g, g) == pauli.PauliOperator(geo23.n_spins)


def test_str_rendering():
    assert str(pauli.PauliOperator(2)) == "I"
    assert str(pauli.pauli_x(4, [0])) == "X0"
    assert str(pauli.pauli_z(4, [3])) == "Z3"
    assert str(pauli.single(4, "Y", 2)) == "Y2"
    op = pauli.PauliOperator(6, 0b001001, 0b001010, 1)
    assert str(op) == "X0 Z1 Y3"
    # XZ on one spin is -iY, and the rendering reflects that
    xz = pauli_multiply(pauli.pauli_x(2, [0]), pauli.pauli_z(2, [0]))
    assert str(xz) == "-i Y0"
    assert str(pauli.PauliOperator(2, 0, 0, 2)) == "-I"


def test_validation_errors():
    with pytest.raises(ValueError):
        pauli.PauliOperator(2, 4, 0, 0)
    with pytest.raises(ValueError):
        pauli.PauliOperator(2, 0, -1, 0)
    with pytest.raises(ValueError):
        pauli.PauliOperator(0, 0, 0, 0)
    with pytest.raises(ValueError):
        pauli.single(3, "Q", 1)
    with pytest.raises(ValueError):
        pauli.single(3, "X", 5)
    a, b = pauli.PauliOperator(2), pauli.PauliOperator(3)
    with pytest.raises(ValueError):
        pauli_multiply(a, b)
    with pytest.raises(ValueError):
        commutes(a, b)
    with pytest.raises(ValueError):
        apply_to_basis(pauli.PauliOperator(2), 4)
    with pytest.raises(ValueError):
        apply_to_basis(pauli.PauliOperator(2), -1)


def test_phase_normalization():
    op = pauli.PauliOperator(1, 1, 0, 7)
    assert op.phase_exp == 3
