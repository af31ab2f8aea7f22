"""Pauli strings on integer bitmasks, with exact phases.

A Pauli string on N spins is stored as ``i**phase_exp * X^x_mask * Z^z_mask``
with the X factors to the left of the Z factors. Bit j of a mask refers to
spin j, and bit j of a computational-basis index encodes the state of spin j
(bit 0 is spin up, the +1 eigenstate of sigma^z). A spin present in both
masks carries a Y factor up to the tracked phase.

The phase convention is fixed as X*Z = -i*Y, i.e. Y = i*X*Z. Any consistent
convention works; this one is pinned so that phases are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "PauliOperator",
    "pauli_x",
    "pauli_z",
    "single",
]

_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)


@dataclass(frozen=True)
class PauliOperator:
    """Immutable Pauli string: i**phase_exp * X^x_mask * Z^z_mask."""

    n_spins: int
    x_mask: int = 0
    z_mask: int = 0
    phase_exp: int = 0

    def __post_init__(self):
        if self.n_spins < 1:
            raise ValueError("need at least one spin")
        top = 1 << self.n_spins
        if not (0 <= self.x_mask < top and 0 <= self.z_mask < top):
            raise ValueError("mask exceeds spin count")
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    @property
    def is_hermitian(self) -> bool:
        # Conjugating i^p X Z gives i^{-p} (-1)^{|x&z|} X Z.
        return self.phase_exp % 2 == (self.x_mask & self.z_mask).bit_count() % 2

    @property
    def phase(self) -> complex:
        """The scalar prefactor i**phase_exp."""
        return _PHASES[self.phase_exp]

    def __str__(self) -> str:
        factors = []
        for j in range(self.n_spins):
            x = self.x_mask >> j & 1
            z = self.z_mask >> j & 1
            if x or z:
                letter = "Y" if x and z else ("X" if x else "Z")
                factors.append(letter + str(j))
        # Each displayed Y stands for i*X*Z, so it absorbs one factor of i
        # from the tracked phase.
        n_y = (self.x_mask & self.z_mask).bit_count()
        prefix = ("", "i ", "-", "-i ")[(self.phase_exp - n_y) % 4]
        if not factors:
            return prefix + "I"
        return prefix + " ".join(factors)


def pauli_x(n_spins: int, spins) -> PauliOperator:
    """Product of sigma^x over the given spins."""
    return PauliOperator(n_spins, x_mask=_mask(n_spins, spins))


def pauli_z(n_spins: int, spins) -> PauliOperator:
    """Product of sigma^z over the given spins."""
    return PauliOperator(n_spins, z_mask=_mask(n_spins, spins))


def single(n_spins: int, kind: str, spin: int) -> PauliOperator:
    """One-spin sigma^x, sigma^y, or sigma^z."""
    bit = _mask(n_spins, [spin])
    if kind == "X":
        return PauliOperator(n_spins, x_mask=bit)
    if kind == "Z":
        return PauliOperator(n_spins, z_mask=bit)
    if kind == "Y":
        return PauliOperator(n_spins, x_mask=bit, z_mask=bit, phase_exp=1)
    raise ValueError(f"unknown Pauli kind {kind!r}")


def _mask(n_spins: int, spins) -> int:
    mask = 0
    for j in spins:
        if not 0 <= j < n_spins:
            raise ValueError(f"spin {j} out of range for {n_spins} spins")
        mask |= 1 << j
    return mask
