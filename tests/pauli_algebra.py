"""Pauli-string products, commutation and single-state action, for the tests.

These act on ``toricsim.pauli.PauliOperator`` bitmasks directly and are
checked against dense Kronecker-product matrices in ``test_pauli.py``; the
other tests use them as oracles for the vectorized kernel.
"""

from toricsim.pauli import PauliOperator

_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)


def pauli_multiply(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """Product a*b with exact phase tracking.

    Commuting a's Z block past b's X block contributes a sign for every
    spin where they meet, so the result is
    ``i**(pa + pb + 2*|a.z & b.x|) X^(ax^bx) Z^(az^bz)``.
    """
    if a.n_spins != b.n_spins:
        raise ValueError("operators act on different spin counts")
    phase = a.phase_exp + b.phase_exp + 2 * (a.z_mask & b.x_mask).bit_count()
    return PauliOperator(
        a.n_spins,
        x_mask=a.x_mask ^ b.x_mask,
        z_mask=a.z_mask ^ b.z_mask,
        phase_exp=phase % 4,
    )


def commutes(a: PauliOperator, b: PauliOperator) -> bool:
    """True iff the symplectic form |a.x & b.z| + |a.z & b.x| is even."""
    if a.n_spins != b.n_spins:
        raise ValueError("operators act on different spin counts")
    overlap = (a.x_mask & b.z_mask).bit_count() + (a.z_mask & b.x_mask).bit_count()
    return overlap % 2 == 0


def apply_to_basis(op: PauliOperator, basis_index: int) -> tuple[int, complex]:
    """Apply a Pauli string to one computational-basis state.

    Returns the image index and the exact amplitude, so
    ``op |basis_index> = amplitude |new_index>``. The Z block acts first
    and contributes (-1) per occupied spin in z_mask; the X block then
    flips x_mask.
    """
    if not 0 <= basis_index < (1 << op.n_spins):
        raise ValueError("basis index out of range")
    sign = (op.z_mask & basis_index).bit_count() % 2
    return basis_index ^ op.x_mask, _PHASES[(op.phase_exp + 2 * sign) % 4]
