"""Reduced density matrices, Renyi entropies, and the topological term.

Entropies are in bits throughout, so a Z2-ordered ground state shows a
topological entropy of exactly 1. The reduced-matrix row index packs the
region's spins in ascending order, least significant first, matching the
global convention that bit j of a basis index is spin j.

Every quantity runs on the state's own basis: amplitudes are scattered
into a (region x complement) matrix by ``Basis.split_positions``, whose
columns are only the complement configurations the basis holds. A
1024-state sector of 18 spins splits into a 16 x 1024 matrix, not into
2^18 amplitudes.
"""

from __future__ import annotations

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


def _split_matrix(state: StateVector, region) -> np.ndarray:
    """Amplitudes as a (region x complement) matrix, in the state's basis.

    Row r holds the amplitudes with the region spins in configuration r,
    region spins packed ascending and least significant first. Columns are
    the complement configurations that occur in the basis, so a sector
    state gives a 2^|A| x n_c matrix with n_c at most its dimension and no
    2^N array is formed. The columns left out hold only zeros, so the
    reduced matrix and the nonzero spectrum equal the full-space split's.
    ``region`` comes from ``stabilizer.check_region``. A matrix above
    ``2^stabilizer.BASIS_CAP_BITS`` entries is refused before it is allocated.
    """
    positions, n_cols = state.basis.split_positions(region)
    size = (1 << len(region)) * n_cols
    if size > 1 << BASIS_CAP_BITS:
        raise ValueError(f"region split of {size} entries is above the cap of 2^{BASIS_CAP_BITS}")
    # Positions are distinct, so when they cover the matrix none stays unset.
    mat = (np.empty if positions.size == size else np.zeros)(size, dtype=np.complex128)
    mat[positions] = state.amplitudes
    return mat.reshape(1 << len(region), n_cols)


def reduce(state: StateVector, region) -> np.ndarray:
    """Partial trace of |state><state| over everything outside the region.

    Regions above ``DENSE_REGION_CAP`` spins are refused: the result is dense.
    """
    region = check_region(region, state.n_spins)
    if len(region) > DENSE_REGION_CAP:
        raise ValueError(f"region has {len(region)} spins, dense cap is {DENSE_REGION_CAP}")
    mat = _split_matrix(state, region)
    return mat @ mat.conj().T


def region_spectrum(state: StateVector, region) -> np.ndarray:
    """Entanglement spectrum of a region, descending, without forming rho.

    The squared singular values of the split amplitude matrix are the
    nonzero reduced-matrix eigenvalues; they are taken as the eigenvalues
    of the smaller side's Gram matrix, with round-off negatives clipped to
    zero. Eigenvalues beyond the smaller split dimension are exact zeros
    and are omitted.
    """
    mat = _split_matrix(state, check_region(region, state.n_spins))
    if mat.shape[0] > mat.shape[1]:
        mat = mat.T
    return np.maximum(np.linalg.eigvalsh(mat @ mat.conj().T)[::-1], 0.0)


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
