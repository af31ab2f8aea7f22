"""Reference physics for the benchmark's output checks, made apart from toricsim.

Nothing here imports ``toricsim``. The lattice follows the README's bond
indexing (site ``(x, y)`` is ``y*L1 + x``, its horizontal bond is spin
``2*site`` and its vertical bond ``2*site + 1``; bit j of a basis index is
spin j, bit value 0 being sigma^z = +1). The Hamiltonian is

    H = -U sum_p B_p - J sum_s A_s - field terms

with ``uniform_z`` (-h Z on every spin) or ``split_HV`` (-h Z on horizontal
bonds, -kappa*h X on vertical ones). Propagators are a dense real ``eigh``
inside the all-plaquettes-+1 sector and, for the full 2^N space, a
Chebyshev expansion. Renyi entropies come from the Gram matrix of each
region split, built from the nonzero amplitudes only.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev

U = J = 1.0
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
EIG_SAMPLES = 256  # golden-ratio samples of the eigenbasis average
RANK_FLOOR = 1e-12  # Gram eigenvalues below this share of the largest are zeros


@dataclass(frozen=True)
class Torus:
    L1: int
    L2: int
    stars: tuple[int, ...]  # X masks
    plaquettes: tuple[int, ...]  # Z masks
    horizontal: tuple[int, ...]
    vertical: tuple[int, ...]

    @property
    def n(self) -> int:
        return 2 * self.L1 * self.L2


def torus(L1: int, L2: int) -> Torus:
    def hb(x, y):
        return 2 * ((y % L2) * L1 + x % L1)

    def vb(x, y):
        return hb(x, y) + 1

    def mask(bonds):
        return sum(1 << b for b in set(bonds))

    stars, plaqs = [], []
    for y in range(L2):
        for x in range(L1):
            stars.append(mask((hb(x, y), hb(x - 1, y), vb(x, y), vb(x, y - 1))))
            plaqs.append(mask((hb(x, y), hb(x, y + 1), vb(x, y), vb(x + 1, y))))
    n = 2 * L1 * L2
    return Torus(L1, L2, tuple(stars), tuple(plaqs), tuple(range(0, n, 2)), tuple(range(1, n, 2)))


def _bits(idx: np.ndarray, spins) -> np.ndarray:
    """Sum over ``spins`` of sigma^z eigenvalues (+1 for bit 0)."""
    out = np.zeros(idx.size)
    for j in spins:
        out += 1.0 - 2.0 * ((idx >> j) & 1)
    return out


def _parity(idx: np.ndarray, mask: int) -> np.ndarray:
    return 1.0 - 2.0 * (np.bitwise_count(idx & mask) & 1)


def ground_support(geo: Torus) -> np.ndarray:
    """Sorted basis indices of the star-group orbit of the all-up state."""
    orbit = {0}
    for m in geo.stars:
        orbit |= {e ^ m for e in orbit}
    return np.array(sorted(orbit), dtype=np.int64)


def plaquette_sector(geo: Torus) -> np.ndarray:
    idx = np.arange(1 << geo.n, dtype=np.int64)
    keep = np.ones(idx.size, dtype=bool)
    for m in geo.plaquettes:
        keep &= (np.bitwise_count(idx & m) & 1) == 0
    return idx[keep]


class SectorModel:
    """Uniform-z Hamiltonian on the all-plaquettes-+1 sector, diagonalized."""

    def __init__(self, geo: Torus, h: float):
        self.kept = plaquette_sector(geo)
        dim = self.kept.size
        ham = np.zeros((dim, dim))
        ham[np.arange(dim), np.arange(dim)] = -U * len(geo.plaquettes) - h * _bits(
            self.kept, range(geo.n)
        )
        for m in geo.stars:
            ham[np.searchsorted(self.kept, self.kept ^ m), np.arange(dim)] -= J
        self.energies, self.vectors = np.linalg.eigh(ham)
        self.ham = ham
        psi0 = np.zeros(dim)
        psi0[np.searchsorted(self.kept, ground_support(geo))] = 1.0
        self.psi0 = psi0 / np.linalg.norm(psi0)
        self._coef = self.vectors.T @ self.psi0

    def states(self, times) -> np.ndarray:
        """exp(-iHt)|psi0> for each time, one row per time."""
        phases = np.exp(-1j * np.outer(times, self.energies))
        return (phases * self._coef) @ self.vectors.T

    def energy(self, states: np.ndarray) -> np.ndarray:
        return np.einsum("si,ij,sj->s", states.conj(), self.ham, states).real


def full_hamiltonian(geo: Torus, field_mode: str, h: float, kappa: float):
    """Matvec on the full 2^N space and a bound on the spectral radius."""
    idx = np.arange(1 << geo.n, dtype=np.int64)
    diag = np.zeros(idx.size)
    for m in geo.plaquettes:
        diag -= U * _parity(idx, m)
    z_spins = range(geo.n) if field_mode == "uniform_z" else geo.horizontal
    diag -= h * _bits(idx, z_spins)
    flips = [(-J, m) for m in geo.stars]
    if field_mode == "split_HV":
        flips += [(-kappa * h, 1 << j) for j in geo.vertical]
    targets = [(c, idx ^ m) for c, m in flips if c != 0.0]
    bound = U * len(geo.plaquettes) + abs(h) * len(z_spins) + sum(abs(c) for c, _ in targets)

    def matvec(v):
        out = diag * v
        for c, tgt in targets:
            out += c * v[tgt]
        return out

    return matvec, bound


def chebyshev_propagate(matvec, bound: float, v: np.ndarray, t: float) -> np.ndarray:
    """exp(-iHt) v for a spectrum inside [-bound, bound]."""
    x = bound * t
    deg = int(1.5 * x) + 40
    coef = chebyshev.chebinterpolate(lambda s: np.exp(-1j * x * s), deg)
    if np.max(np.abs(coef[-6:])) > 1e-14:
        raise RuntimeError("Chebyshev series has not converged")
    prev, cur = v, matvec(v) / bound
    out = coef[0] * prev + coef[1] * cur
    for c in coef[2:]:
        prev, cur = cur, 2.0 * matvec(cur) / bound - prev
        out += c * cur
    return out


def region_entropies(support: np.ndarray, amps: np.ndarray, region, alphas) -> dict:
    """Renyi entropies (bits) of one region for a batch of states.

    ``amps`` has one row per state over the basis indices ``support``. The
    split matrix (region configuration x complement configuration) is
    built from those entries alone and its smaller Gram matrix is
    diagonalized.
    """
    rmask = sum(1 << s for s in region)
    ua, ia = np.unique(support & rmask, return_inverse=True)
    ub, ib = np.unique(support & ~rmask, return_inverse=True)
    split = np.zeros((amps.shape[0], ua.size, ub.size), dtype=complex)
    split[:, ia, ib] = amps
    if ua.size > ub.size:
        split = split.transpose(0, 2, 1)
    lam = np.linalg.eigvalsh(split @ split.conj().transpose(0, 2, 1))
    lam = np.where(lam > RANK_FLOOR * lam.max(axis=1, keepdims=True), lam, 0.0)
    out = {}
    for a in alphas:
        if a == 1.0:
            logs = np.log2(np.where(lam > 0, lam, 1.0))
            out[a] = -np.sum(lam * logs, axis=1)
        else:
            out[a] = np.log2(np.sum(lam**a, axis=1)) / (1.0 - a)
    return out


def entropy_table(support, amps, regions, alphas) -> dict:
    """{alpha: (S, 5) array of s1..s4 and s_top}."""
    per_region = [region_entropies(support, amps, r, alphas) for r in regions]
    table = {}
    for a in alphas:
        s1, s2, s3, s4 = (p[a] for p in per_region)
        table[a] = np.column_stack([s1, s2, s3, s4, 0.5 * (s1 + s3 - s2 - s4)])
    return table


def _read_csv(text: str) -> tuple[list[str], np.ndarray]:
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    values = np.array([[float(c) if c else np.nan for c in r] for r in body], dtype=float)
    return header, values


def _close(errors, label, got, want, tol):
    dev = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    if not dev <= tol:
        errors.append(f"{label}: off by {dev:.3e} (tol {tol:.0e})")


def check_quench(w, text: str) -> list[str]:
    """Failures of a quench CSV against closed forms and the reference."""
    errors: list[str] = []
    header, data = _read_csv(text)
    col = {name: i for i, name in enumerate(header)}
    n = int(math.floor(w.t_max / w.dt + 1e-9))
    want_t = np.arange(n + 1) * w.dt
    if data.shape[0] != n + 1:
        return [f"expected {n + 1} samples, got {data.shape[0]}"]
    _close(errors, "sample times", data[:, col["t"]], want_t, 1e-12)
    _close(errors, "energy vs -2*L1*L2", data[:, col["energy"]], -2.0 * w.L1 * w.L2, 1e-8)
    _close(errors, "fidelity at t=0", data[0, col["fidelity"]], 1.0, 1e-10)
    names = ("s1", "s2", "s3", "s4", "s_top")

    def block(a):
        return data[:, [col[f"{s}[alpha={a:g}]"] for s in names]]

    for a in w.alphas:
        _close(errors, f"S_top(alpha={a:g}) at t=0", block(a)[0, 4], 1.0, 1e-8)

    geo = torus(w.L1, w.L2)
    if w.sector:
        model = SectorModel(geo, w.h)
        states = model.states(want_t)
        fid = np.abs(states @ model.psi0) ** 2
        _close(errors, "fidelity vs sector reference", data[:, col["fidelity"]], fid, 1e-9)
        _close(errors, "energy vs sector reference", data[:, col["energy"]], model.energy(states), 1e-9)
        table = entropy_table(model.kept, states, w.regions, w.alphas)
        for a in w.alphas:
            _close(errors, f"entropies(alpha={a:g}) vs sector reference", block(a), table[a], 1e-8)
    else:
        matvec, bound = full_hamiltonian(geo, w.field_mode, w.h, w.kappa)
        support = np.arange(1 << geo.n, dtype=np.int64)
        psi0 = np.zeros(support.size, dtype=complex)
        g = ground_support(geo)
        psi0[g] = 1.0 / math.sqrt(g.size)
        last = chebyshev_propagate(matvec, bound, psi0, want_t[-1])
        fid = abs(np.vdot(psi0, last)) ** 2
        _close(errors, "last fidelity vs Chebyshev", data[-1, col["fidelity"]], fid, 1e-9)
        table = entropy_table(support, last[None, :], w.regions, w.alphas)
        for a in w.alphas:
            _close(errors, f"last entropies(alpha={a:g}) vs Chebyshev", block(a)[-1], table[a][0], 1e-8)
    return errors


def check_sweep(w, text: str) -> list[str]:
    """Failures of a sweep CSV against the windowed and eigenbasis averages."""
    errors: list[str] = []
    header, data = _read_csv(text)
    if header != ["beta", "h", "mean_s_top", "std_s_top", "eigenbasis_mean_s_top"]:
        return [f"unexpected sweep header {header}"]
    if data.shape[0] != len(w.betas):
        return [f"expected {len(w.betas)} rows, got {data.shape[0]}"]
    t0, t1 = w.window
    n = int(math.floor((t1 - t0) / w.dt + 1e-9))
    window = t0 + np.arange(n + 1) * w.dt
    golden = t0 + np.arange(1, EIG_SAMPLES + 1) * ((t1 - t0) * GOLDEN)
    geo = torus(w.L1, w.L2)
    for row, beta in zip(data, w.betas):
        h = beta / (1.0 - beta)
        _close(errors, f"beta {beta}", row[0], beta, 0.0)
        _close(errors, f"h at beta {beta}", row[1], h, 1e-12 * h)
        model = SectorModel(geo, h)
        s_win = entropy_table(model.kept, model.states(window), w.regions, (2.0,))[2.0][:, 4]
        s_eig = entropy_table(model.kept, model.states(golden), w.regions, (2.0,))[2.0][:, 4]
        _close(errors, f"mean S_top at beta {beta}", row[2], np.mean(s_win), 1e-7)
        _close(errors, f"std S_top at beta {beta}", row[3], np.std(s_win), 1e-7)
        _close(errors, f"eigenbasis mean S_top at beta {beta}", row[4], np.mean(s_eig), 1e-7)
    return errors


def check_verify(w, text: str) -> list[str]:
    """The invariant suite's eight analytic identities must all pass."""
    lines = text.splitlines()
    passed = [ln for ln in lines if ln.startswith("PASS ")]
    errors = [ln for ln in lines if ln.startswith(("FAIL ", "SKIP "))]
    if len(passed) != 8:
        errors.append(f"expected 8 PASS lines, got {len(passed)}")
    if not lines or lines[-1] != "verify: all checks passed":
        errors.append("missing 'verify: all checks passed'")
    return errors
