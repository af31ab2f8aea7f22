"""Reduced density matrices, Renyi entropies, and the topological term.

Entropies are in bits throughout, so a Z2-ordered ground state shows a
topological entropy of exactly 1. The reduced-matrix row index packs the
region's spins in ascending order, least significant first, matching the
global convention that bit j of a basis index is spin j.

Every quantity runs on the state's own basis. ``Basis.split_positions``
groups its states by the cosets of the flips that lie inside the region:
rho_A is block diagonal over these classes, and each class is one small
(region x complement) block of a stack. On the 256-state 3x3 star block
every ``levinwen-small`` region splits injectively, into one-row classes,
and rho_A is diagonal; the full basis is a single class. No 2^N array
and no 2^|A| x n_c matrix is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import RegionPartition
from .stabilizer import BASIS_CAP_BITS, StateVector, check_region

__all__ = [
    "EntropyReport",
    "reduce",
    "region_spectrum",
    "renyi",
    "topological_entropy",
    "fidelity",
    "entropy_report_csv",
]

DENSE_REGION_CAP = 14
RANK_CUTOFF = 1e-12  # relative to the largest eigenvalue


@dataclass(frozen=True)
class EntropyReport:
    """The four region entropies and their topological combination."""

    alpha: float
    s1: float
    s2: float
    s3: float
    s4: float

    @property
    def s_top(self) -> float:
        return 0.5 * (self.s1 + self.s3 - self.s2 - self.s4)


def _split_matrix(state: StateVector, positions: np.ndarray, shape) -> np.ndarray:
    """Amplitudes as a stack of (region x complement) blocks, one per coset class.

    ``positions`` and ``shape`` come from ``Basis.split_positions``. Block
    j holds the region configurations of one coset of the flips inside the
    region and only the complement configurations they occur with, so
    rho_A is the direct sum of the blocks' Gram matrices and no
    2^|A| x n_c matrix is formed. Slots a kept basis leaves empty hold
    zeros. A stack above ``2^stabilizer.BASIS_CAP_BITS`` entries is
    refused before it is allocated.
    """
    size = math.prod(shape)
    if size > 1 << BASIS_CAP_BITS:
        raise ValueError(f"region split of {size} entries is above the cap of 2^{BASIS_CAP_BITS}")
    # Positions are distinct, so when they cover the stack none stays unset.
    stack = (np.empty if positions.size == size else np.zeros)(size, dtype=np.complex128)
    stack[positions] = state.amplitudes
    return stack.reshape(shape)


def _gram(stack: np.ndarray) -> np.ndarray:
    """Each block times its own conjugate transpose."""
    return stack @ stack.conj().transpose(0, 2, 1)


def reduce(state: StateVector, region) -> np.ndarray:
    """Partial trace of |state><state| over everything outside the region.

    The coset blocks' Gram matrices are scattered into one dense
    2^|A| x 2^|A| matrix, rows and columns packing the region spins
    ascending. Regions above ``DENSE_REGION_CAP`` spins are refused.
    """
    region = check_region(region, state.n_spins)
    if len(region) > DENSE_REGION_CAP:
        raise ValueError(f"region has {len(region)} spins, dense cap is {DENSE_REGION_CAP}")
    positions, (n_classes, rows, cols) = state.basis.split_positions(region)
    gram = _gram(_split_matrix(state, positions, (n_classes, rows, cols)))
    labels = np.full(n_classes * rows, -1, dtype=np.int64)
    labels[positions // cols] = state.basis.region_rows(region)
    labels = labels.reshape(n_classes, rows)
    i, j = np.broadcast_arrays(labels[:, :, None], labels[:, None, :])
    held = (i >= 0) & (j >= 0)
    rho = np.zeros((1 << len(region),) * 2, dtype=np.complex128)
    rho[i[held], j[held]] = gram[held]
    return rho


def region_spectrum(state: StateVector, region) -> np.ndarray:
    """Entanglement spectrum of a region, descending, without forming rho.

    The nonzero reduced-matrix eigenvalues are the squared singular values
    of the coset blocks. One stacked ``eigvalsh`` takes them from the Gram
    matrices of each block's smaller side, and round-off negatives are
    clipped to zero. A one-row block is a single probability, the
    injective case. The values number n_classes * min(rows, cols), for a
    flip span no more than the smaller side of the 2^|A| x n_c split; the
    eigenvalues omitted are exact zeros.
    """
    split = state.basis.split_positions(check_region(region, state.n_spins))
    stack = _split_matrix(state, *split)
    if stack.shape[1] > stack.shape[2]:
        stack = stack.transpose(0, 2, 1)
    return np.maximum(np.sort(np.linalg.eigvalsh(_gram(stack)), axis=None)[::-1], 0.0)


def renyi(spectrum: np.ndarray, alpha: float) -> float:
    """Renyi entropy of an entanglement spectrum, in bits.

    alpha = 1 is the von Neumann entropy with 0*log(0) = 0; other finite
    positive alpha use (1/(1-alpha)) log2 sum(lambda^alpha). Eigenvalues
    below the rank cutoff are treated as exact zeros, which also absorbs the
    tiny negatives dense eigensolvers produce.
    """
    if not 0 < alpha < np.inf:
        raise ValueError(f"Renyi index must be positive and finite, got {alpha!r}")
    spectrum = np.asarray(spectrum, dtype=float)
    lam = spectrum[spectrum > RANK_CUTOFF * max(spectrum.max(initial=0.0), 0.0)]
    if lam.size == 0:
        return 0.0
    if alpha == 1.0:
        return float(-np.sum(lam * np.log2(lam)))
    return float(np.log2(np.sum(lam**alpha)) / (1.0 - alpha))


def topological_entropy(
    state: StateVector, partition: RegionPartition, alpha: float
) -> EntropyReport:
    """Entropies of the four partition regions and their combination.

    The combination (S1 + S3 - S2 - S4)/2 cancels boundary terms between
    the matched region pairs, leaving the topological contribution.
    """
    s1, s2, s3, s4 = (renyi(region_spectrum(state, r), alpha) for r in partition.regions)
    return EntropyReport(alpha=alpha, s1=s1, s2=s2, s3=s3, s4=s4)


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2, insensitive to global phase."""
    if a.basis != b.basis:
        raise ValueError("states use different bases")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def entropy_report_csv(reports, partition: RegionPartition) -> str:
    """CSV rows (region_label, alpha, entropy_bits) with 17 digits.

    ``reports`` is a sequence of EntropyReports, one block of rows per Renyi
    index under a single header.
    """
    lines = ["region_label,alpha,entropy_bits"]
    for report in reports:
        values = (report.s1, report.s2, report.s3, report.s4)
        for i, s in enumerate(values, start=1):
            lines.append(f"{partition.label}:R{i},{report.alpha:.17g},{s:.17g}")
        lines.append(f"{partition.label}:S_top,{report.alpha:.17g},{report.s_top:.17g}")
    return "\n".join(lines) + "\n"
