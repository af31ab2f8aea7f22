"""Reduced density matrices, Renyi entropies, and the topological term.

Entropies are in bits throughout, so a Z2-ordered ground state shows a
topological entropy of exactly 1. The reduced-matrix row index packs the
region's spins in ascending order, least significant first, matching the
global convention that bit j of a basis index is spin j.

Every quantity runs on the state's own basis, a GF(2) span of flips.
``Basis.split_positions`` groups its states by the cosets of the span's
elements that lie inside the region:
rho_A is block diagonal over these classes, and each class is one small
(region x complement) block of a stack. On the 256-state 3x3 star block
every ``levinwen-small`` region splits injectively, into one-row classes,
and rho_A is diagonal; the full basis is a single class. No 2^N array
and no 2^|A| x n_c matrix is formed.

Every spectrum comes from one batched route: ``region_spectra`` takes a
region's spectra for rows of amplitudes with one stacked Gram product and
one stacked ``eigvalsh``, and ``renyi`` reads its entropies row by row.
``entropy_series`` feeds a whole trajectory through it, a chunk of samples
at a time, and shares each chunk's spectra across the Renyi indices.
``region_spectrum`` and ``topological_entropy`` are its one-state cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .lattice import RegionPartition
from .stabilizer import Basis, StateVector, check_region

__all__ = [
    "EntropyReport",
    "reduce",
    "region_spectra",
    "region_spectrum",
    "renyi",
    "entropy_series",
    "topological_entropy",
    "fidelity",
    "entropy_report_csv",
]

DENSE_REGION_CAP = 14
RANK_CUTOFF = 1e-12  # relative to the largest eigenvalue
# Most amplitudes one chunk of ``entropy_series`` holds: 256 KiB of complex rows.
CHUNK_AMPLITUDES = 1 << 14


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


def _split_stack(amplitudes: np.ndarray, positions: np.ndarray, shape) -> np.ndarray:
    """Rows of amplitudes as stacks of (region x complement) blocks, one per coset class.

    ``positions`` and ``shape`` come from ``Basis.split_positions``; the
    result has shape ``(n, *shape)`` for ``n`` rows. Block j holds the
    region configurations of one coset of the flips inside the region and
    only the complement configurations they occur with, so rho_A is the
    direct sum of the blocks' Gram matrices and no 2^|A| x n_c matrix is
    formed. A basis is a GF(2) span, so its positions tile the stack
    exactly, one slot per basis state.
    """
    n = amplitudes.shape[0]
    stack = np.empty((n, positions.size), dtype=np.complex128)
    stack[:, positions] = amplitudes
    return stack.reshape(n, *shape)


def _gram(stack: np.ndarray) -> np.ndarray:
    """Each block times its own conjugate transpose."""
    return stack @ stack.conj().transpose(0, 2, 1)


def reduce(state: StateVector, region) -> np.ndarray:
    """Partial trace of |state><state| over everything outside the region.

    The coset blocks' Gram matrices are scattered into one dense
    2^|A| x 2^|A| matrix, rows and columns packing the region spins
    ascending; each block row is a region configuration of the basis.
    Regions above ``DENSE_REGION_CAP`` spins are refused.
    """
    region = check_region(region, state.n_spins)
    if len(region) > DENSE_REGION_CAP:
        raise ValueError(f"region has {len(region)} spins, dense cap is {DENSE_REGION_CAP}")
    positions, (n_classes, rows, cols) = state.basis.split_positions(region)
    gram = _gram(_split_stack(state.amplitudes[None], positions, (n_classes, rows, cols))[0])
    labels = np.empty(n_classes * rows, dtype=np.int64)
    labels[positions // cols] = state.basis.region_rows(region)
    labels = labels.reshape(n_classes, rows)
    rho = np.zeros((1 << len(region),) * 2, dtype=np.complex128)
    rho[labels[:, :, None], labels[:, None, :]] = gram
    return rho


def region_spectra(amplitudes: np.ndarray, basis: Basis, region) -> np.ndarray:
    """Entanglement spectra of a region for rows of amplitudes, each descending.

    ``amplitudes`` is ``(n, basis.dimension)``; the result is ``(n, k)``,
    row i the spectrum of state i, without forming rho. The nonzero
    reduced-matrix eigenvalues are the squared singular values of the
    coset blocks: one stacked Gram product on each block's smaller side
    and one stacked ``eigvalsh`` take them for every row at once, and
    round-off negatives are clipped to zero. A one-row block is a single
    probability, the injective case. k is n_classes * min(rows, cols), for
    a flip span no more than the smaller side of the 2^|A| x n_c split;
    the eigenvalues omitted are exact zeros.
    """
    amplitudes = np.asarray(amplitudes)
    if amplitudes.ndim != 2 or amplitudes.shape[1] != basis.dimension:
        raise ValueError("amplitudes must be rows of the basis dimension")
    stack = _split_stack(amplitudes, *basis.split_positions(check_region(region, basis.n_spins)))
    n = stack.shape[0]
    stack = stack.reshape(-1, *stack.shape[2:])
    if stack.shape[1] > stack.shape[2]:
        stack = stack.transpose(0, 2, 1)
    values = np.linalg.eigvalsh(_gram(stack)).reshape(n, -1)
    return np.maximum(np.sort(values, axis=1)[:, ::-1], 0.0)


def region_spectrum(state: StateVector, region) -> np.ndarray:
    """Entanglement spectrum of one state's region: ``region_spectra`` of one row."""
    return region_spectra(state.amplitudes[None], state.basis, region)[0]


def _check_alpha(alpha: float) -> None:
    if not 0 < alpha < np.inf:
        raise ValueError(f"Renyi index must be positive and finite, got {alpha!r}")


def renyi(spectra: np.ndarray, alpha: float):
    """Renyi entropy of each row of entanglement spectra, in bits.

    alpha = 1 is the von Neumann entropy with 0*log(0) = 0; other finite
    positive alpha use (1/(1-alpha)) log2 sum(lambda^alpha), taken as
    -log2 l + (log2 sum((lambda/l)^alpha) + log2 l) / (1-alpha), l the
    largest eigenvalue: no large alpha underflows the sum to zero or
    overflows alpha log2 l, and a flat spectrum of 2^k values gives k bits
    exactly. Each row is
    sorted descending, and its eigenvalues below the rank cutoff become
    exact zeros at its tail; this also absorbs the tiny negatives dense
    eigensolvers produce. A row is summed over its kept values only, so its
    entropy does not depend on how many zeros follow them. A 1-D spectrum
    gives a float, a 2-D stack one entropy per row.
    """
    _check_alpha(alpha)
    spectra = np.asarray(spectra, dtype=float)
    lam = np.sort(np.atleast_2d(spectra), axis=1)[:, ::-1]
    kept = lam > RANK_CUTOFF * lam.max(axis=1, initial=0.0, keepdims=True)
    lam = np.where(kept, lam, 0.0)
    top = np.where(kept[:, :1], lam[:, :1], 1.0)
    terms = lam * np.log2(np.where(kept, lam, 1.0)) if alpha == 1.0 else (lam / top) ** alpha
    counts = kept.sum(axis=1)
    out = np.zeros(lam.shape[0])
    for m in sorted(set(counts.tolist()) - {0}):
        rows = counts == m
        total = terms[rows, :m].sum(axis=1)
        if alpha == 1.0:
            out[rows] = -total
        else:
            log_top = np.log2(top[rows, 0])
            out[rows] = (np.log2(total) + log_top) / (1.0 - alpha) - log_top
    return out if spectra.ndim == 2 else float(out[0])


def _chunks(states) -> Iterator[tuple[Basis, np.ndarray]]:
    """Consecutive states as ``(basis, amplitudes)`` chunks of rows.

    A chunk holds at most ``CHUNK_AMPLITUDES`` amplitudes and at least one
    state. States are read one at a time and copied into one reused chunk,
    so no more than a chunk of them is held. All states must share one
    basis.
    """
    basis, rows, filled = None, None, 0
    for state in states:
        if basis is None:
            basis = state.basis
            rows = np.empty((max(1, CHUNK_AMPLITUDES // basis.dimension), basis.dimension),
                            dtype=np.complex128)
        elif state.basis is not basis and state.basis != basis:
            raise ValueError("states use different bases")
        rows[filled] = state.amplitudes
        filled += 1
        if filled == rows.shape[0]:
            yield basis, rows
            filled = 0
    if filled:
        yield basis, rows[:filled]


def entropy_series(
    states, partition: RegionPartition, alphas
) -> dict[float, tuple[EntropyReport, ...]]:
    """Entropies of the four partition regions for a series of states.

    ``states`` is any iterable of StateVectors on one basis, consumed
    lazily in chunks (``_chunks``). Each region's spectra are taken once
    per chunk by ``region_spectra`` and serve every Renyi index. Returns
    one EntropyReport per state for each index, in order. The combination
    (S1 + S3 - S2 - S4)/2 of a report cancels boundary terms between the
    matched region pairs, leaving the topological contribution.
    """
    alphas = tuple(alphas)
    for alpha in alphas:
        _check_alpha(alpha)
    values = {alpha: [] for alpha in alphas}
    for basis, amplitudes in _chunks(states):
        spectra = [region_spectra(amplitudes, basis, r) for r in partition.regions]
        for alpha in alphas:
            values[alpha] += np.stack([renyi(s, alpha) for s in spectra], axis=1).tolist()
    return {
        alpha: tuple(EntropyReport(alpha, *row) for row in rows)
        for alpha, rows in values.items()
    }


def topological_entropy(
    state: StateVector, partition: RegionPartition, alpha: float
) -> EntropyReport:
    """``entropy_series`` of one state at one Renyi index."""
    return entropy_series((state,), partition, (alpha,))[alpha][0]


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
