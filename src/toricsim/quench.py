"""Quench experiments: time series, long-time averages, persistence, checks.

The protocol prepares the analytic sector-(0,0) ground state and switches on
a field at t = 0. The post-quench Hamiltonian is time independent, so energy
is conserved along every run; fidelity with the initial state and the four
region entropies are sampled on a uniform time grid. Sweeps parameterize the
field by beta = h / (1 + h), which maps h in [0, inf) onto [0, 1).
A run builds its initial state and operator only on the block of that
state, the span of the Hamiltonian's flips from ``ed.build_block``; the
config's whole space, 2^N states or the plaquette sector, is only
reported, and built by ``verify`` as its reference. Every state comes from
``ed.trajectory``'s one loop: a quench takes its grid from one call of
``ed.observed_trajectory``, which also reads each sample's norm, fidelity
and energy from its reduced vector, and a sweep takes its window and its
long-horizon samples from one ``ed.trajectory`` call per field value, with
no observable but the entropies.
Every entropy comes from ``entanglement.entropy_series``, which reads
those samples lazily, in chunks, and shares a chunk's region spectra
across the Renyi indices.
A quench checks its conservation against the fixed ``*_TOL`` tolerances;
a sweep's and ``verify``'s samples, like a quench's, pass ``ed``'s norm check.

All emitted files are byte-identical across reruns of the same config: the
pipeline is deterministic end to end.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__, ed, entanglement, lattice, stabilizer
from .entanglement import EntropyReport
from .pauli import single

__all__ = [
    "QuenchConfig",
    "QuenchReport",
    "SweepRow",
    "run_quench",
    "long_time_average",
    "emit",
    "verify",
]

# Samples and spacing used for the eigenphase long-time average: golden-ratio
# strides decorrelate the samples from any finite recurrence.
_EIG_SAMPLES = 256
_GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0

# Conservation checks every run must pass: the first sample's fidelity with
# the initial state, the spread of the energy, and each sample's norm.
INITIAL_FIDELITY_TOL = 1e-10
ENERGY_DRIFT_TOL = 1e-8
NORM_DRIFT_TOL = 1e-10

# Most samples one time grid may hold; criterion 8's 501 is the largest shipped.
MAX_SAMPLES = 1_000_000


def _alpha_tag(alpha: float) -> str:
    """The Renyi index as it appears in CSV column names."""
    return f"{alpha:g}"


def _finite(name: str, value) -> float:
    """A finite real number from a config field, as float."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer too large for a float
            pass
    raise ValueError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class QuenchConfig:
    """Full description of one quench run. A star span, which every block
    holds, above the cap is refused; the whole space (``space_bits``) is only
    reported and built by ``verify``."""

    L1: int
    L2: int
    field_mode: str = "uniform_z"
    h: float = 0.1
    kappa: float = 0.0
    t_max: float = 10.0
    dt: float = 0.1
    alpha_list: tuple[float, ...] = (1.0,)
    partition_preset: str = "levinwen-small"
    sector_restrict: bool = False

    def __post_init__(self):
        for name in ("L1", "L2"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.partition_preset, str):
            raise ValueError(f"partition_preset must be a string, got {self.partition_preset!r}")
        if not isinstance(self.sector_restrict, bool):
            raise ValueError(f"sector_restrict must be a bool, got {self.sector_restrict!r}")
        # Every block and the plaquette sector hold the star span, as J is never 0.
        # Refused before any lattice is built, since that build is linear in sites.
        stabilizer.check_dimension(self.L1 * self.L2 - 1, f"the {self.L1}x{self.L2} star span")
        for name in ("h", "kappa", "t_max", "dt"):
            _finite(name, getattr(self, name))
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_max < 0:
            raise ValueError("t_max must be nonnegative")
        if self.sector_restrict and self.field_mode == "split_HV" and self.kappa != 0:
            raise ValueError(
                "sector restriction needs kappa = 0 under split_HV; its vertical "
                "sigma^x field does not commute with the plaquette constraints"
            )
        if not isinstance(self.alpha_list, (list, tuple)):
            raise ValueError(f"alpha_list must be a list, got {self.alpha_list!r}")
        if not self.alpha_list:
            raise ValueError("alpha_list must not be empty")
        alphas = tuple(_finite("Renyi index", a) for a in self.alpha_list)
        if any(a <= 0 for a in alphas):
            raise ValueError("Renyi indices must be positive")
        # Reports are keyed by index and CSV columns by its tag, so neither may repeat.
        tags = [_alpha_tag(a) for a in alphas]
        if len(set(tags)) != len(tags):
            raise ValueError(f"Renyi indices must not repeat, got {list(alphas)} (tags {tags})")
        object.__setattr__(self, "alpha_list", alphas)

    def space_bits(self) -> int:
        """log2 of the config's whole space, the plaquette sector or the full space."""
        sites = self.L1 * self.L2
        return sites + 1 if self.sector_restrict else 2 * sites


@dataclass
class QuenchReport:
    """Time series of one quench plus everything needed to reproduce it."""

    times: tuple[float, ...]
    fidelity: tuple[float, ...]
    energy: tuple[float, ...]
    entropy: dict[float, tuple[EntropyReport, ...]]
    metadata: dict


def _time_grid(t_max: float, dt: float) -> list[float]:
    """0, dt, 2 dt, ... up to t_max; refused above ``MAX_SAMPLES`` samples."""
    n = np.floor(t_max / dt + 1e-9)
    if not n < MAX_SAMPLES:  # an infinite ratio fails this too
        raise ValueError(f"time grid exceeds {MAX_SAMPLES} samples: t_max / dt = {t_max / dt:.3g}")
    return [k * dt for k in range(int(n) + 1)]


def _prepare(config: QuenchConfig):
    """Geometry, partition, initial state, and Hamiltonian for a config, the
    last two on the block of the initial state."""
    geo = lattice.build_lattice(config.L1, config.L2)
    partition = lattice.build_partition(geo, config.partition_preset)
    spec = ed.HamiltonianSpec(geometry=geo, h=config.h, kappa=config.kappa,
                              field_mode=config.field_mode)
    basis = ed.build_block(spec)
    psi0 = stabilizer.ground_state(geo, (0, 0), basis)
    op = ed.build_hamiltonian(spec, basis)
    return geo, partition, psi0, op


def run_quench(config: QuenchConfig) -> QuenchReport:
    """Evolve the sector-(0,0) ground state and sample observables.

    Samples fidelity with the initial state, energy, and the four region
    entropies (per requested Renyi index) at every multiple of dt up to
    t_max. Each sample's norm, fidelity and energy come from
    ``ed.observed_trajectory``, read from its orbit amplitudes before they
    are expanded; the entropies read the expanded block state, since a
    region split needs every amplitude. Raises RuntimeError with
    diagnostics if the series violates its own conservation tolerances.
    """
    times = _time_grid(config.t_max, config.dt)
    geo, partition, psi0, op = _prepare(config)

    fid: list[float] = []
    energy: list[float] = []

    def checked():
        """The trajectory, each sample's norm checked and its fidelity and energy
        kept, all three read from its reduced vector (``ed.observed_trajectory``)."""
        samples = ed.observed_trajectory(psi0, op, times)
        for t, (state, norm, f, e) in zip(times, samples):
            norm_err = abs(norm - 1.0)
            # Written as not (x <= tol) so that a NaN fails each check.
            if not norm_err <= NORM_DRIFT_TOL:
                raise RuntimeError(
                    f"norm drifted by {norm_err:.3e} at t={t:g} (tol {NORM_DRIFT_TOL:.1e})"
                )
            fid.append(f)
            energy.append(e)
            yield state

    entropy = entanglement.entropy_series(checked(), partition, config.alpha_list)

    if fid and not abs(fid[0] - 1.0) <= INITIAL_FIDELITY_TOL:
        raise RuntimeError(f"initial fidelity {fid[0]!r} differs from 1")
    if energy:
        drift = float(np.max(energy) - np.min(energy))  # NaN-propagating
        if not drift <= ENERGY_DRIFT_TOL:
            raise RuntimeError(
                f"energy drifted by {drift:.3e} over the run "
                f"(tol {ENERGY_DRIFT_TOL:.1e}); "
                f"first={energy[0]!r} worst={max(energy, key=lambda e: abs(e - energy[0]))!r}"
            )

    metadata = {
        "config": {**asdict(config), "alpha_list": list(config.alpha_list)},
        "version": __version__,
        "basis_dimension": 1 << config.space_bits(),
        "block_dimension": op.dimension,
        "propagation": ed.propagation(op.dimension),
        "initial_sector": [0, 0],
    }
    return QuenchReport(
        times=tuple(times),
        fidelity=tuple(fid),
        energy=tuple(energy),
        entropy=entropy,
        metadata=metadata,
    )


@dataclass(frozen=True)
class SweepRow:
    """Long-time average of the topological entropy at one field value."""

    beta: float
    h: float
    mean_s_top: float
    std_s_top: float
    eigenbasis_mean_s_top: float | None


def long_time_average(
    config: QuenchConfig, beta_grid, window: tuple[float, float]
) -> list[SweepRow]:
    """Windowed time average of S_top(alpha=2) over a beta grid.

    For each beta the field is h = beta/(1-beta) and S_top is averaged over
    the sampling window. When the initial state's block is within the dense
    cap, a second average over golden-ratio-spaced samples of a much longer
    horizon is reported alongside; it is built from the exact eigenphases,
    so no extra propagation error enters. Those samples all lie past the
    window, so one ``ed.trajectory`` call per beta serves both averages,
    and the state's orbits of the block take one ``eigh``.
    """
    t0, t1 = float(window[0]), float(window[1])
    if not 0 <= t0 < t1:
        raise ValueError("window must satisfy 0 <= t0 < t1")
    if (t1 - t0) < 10 * config.dt:
        raise ValueError("window shorter than 10 sampling intervals")
    times = [t0 + t for t in _time_grid(t1 - t0, config.dt)]
    rows: list[SweepRow] = []
    for beta in beta_grid:
        beta = float(beta)
        if not 0 < beta < 1:
            raise ValueError("beta must lie strictly between 0 and 1")
        h = beta / (1.0 - beta)
        cfg = replace(config, h=h, alpha_list=(2.0,))
        geo, partition, psi0, op = _prepare(cfg)
        spectral = ed.propagation(op.dimension) == "spectrum"
        stride = (t1 - t0) * _GOLDEN
        long_times = [t0 + j * stride for j in range(1, _EIG_SAMPLES + 1)] if spectral else []
        states = ed.trajectory(psi0, op, times + long_times)
        values = [rep.s_top for rep in entanglement.entropy_series(states, partition, (2.0,))[2.0]]
        in_window, long_run = values[: len(times)], values[len(times) :]
        rows.append(
            SweepRow(
                beta=beta,
                h=h,
                mean_s_top=float(np.mean(in_window)),
                std_s_top=float(np.std(in_window)),
                eigenbasis_mean_s_top=float(np.mean(long_run)) if spectral else None,
            )
        )
    return rows


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def emit(report: QuenchReport, format: str, path) -> None:
    """Write a report as CSV or JSON with reproducible bytes.

    CSV columns are t, fidelity, energy, then per Renyi index the four
    region entropies and the topological combination, all with 17
    significant digits. JSON mirrors the report structure plus metadata.
    """
    if format == "csv":
        alphas = sorted(report.entropy)
        cols = ["t", "fidelity", "energy"]
        for a in alphas:
            tag = f"[alpha={_alpha_tag(a)}]"
            cols += [f"s1{tag}", f"s2{tag}", f"s3{tag}", f"s4{tag}", f"s_top{tag}"]
        lines = [",".join(cols)]
        for i, t in enumerate(report.times):
            row = [_fmt(t), _fmt(report.fidelity[i]), _fmt(report.energy[i])]
            for a in alphas:
                rep = report.entropy[a][i]
                row += [
                    _fmt(rep.s1),
                    _fmt(rep.s2),
                    _fmt(rep.s3),
                    _fmt(rep.s4),
                    _fmt(rep.s_top),
                ]
            lines.append(",".join(row))
        text = "\n".join(lines) + "\n"
    elif format == "json":
        payload = {
            "metadata": report.metadata,
            "times": list(report.times),
            "fidelity": list(report.fidelity),
            "energy": list(report.energy),
            "entropy": {
                str(a): {
                    "alpha": a,
                    "s1": [r.s1 for r in reps],
                    "s2": [r.s2 for r in reps],
                    "s3": [r.s3 for r in reps],
                    "s4": [r.s4 for r in reps],
                }
                for a, reps in report.entropy.items()
            },
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        raise ValueError(f"unknown format {format!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _check(lines: list[str], name: str, value: float, tol: float) -> bool:
    ok = value <= tol
    lines.append(
        f"{'PASS' if ok else 'FAIL'} {name}: residual {value:.3e} (tol {tol:.1e})"
    )
    return ok


def verify(config: QuenchConfig) -> tuple[bool, list[str]]:
    """Run the cross-module invariant suite at this config's lattice size.

    Checks stabilizer eigenvalues, sector orthonormality, vanishing local
    expectations, flat entanglement spectra against the group-rank rule,
    sector indistinguishability of reduced matrices, the topological
    entropy, and the run's propagation. Returns (all_passed, per-check
    lines). The propagation check builds the (0,0) state and the block
    operator that ``run_quench`` would, at h = 0.1 when the config's field
    is zero, and compares ``ed.trajectory`` at t = 1 with ``ed.evolve``,
    Krylov spaces on the config's whole space: the plaquette sector with
    ``sector_restrict``, else all 2^N states. The block's amplitudes are
    placed at their positions in that space. The reference knows nothing of
    the block, so the two cross bases, and within the dense cap methods: the
    eigenphases of the block state's lattice orbits against leak-bounded
    Krylov spaces on the whole space. Above the cap the block's spaces run
    on the state's orbits; the reference's operator is built without
    lattice maps, so its spaces run on the whole space. The reference is
    built before any check, so one above the cap is refused at once.

    The four ground states are built on the plaquette sector, with or
    without ``sector_restrict``, and every check but the propagation one
    runs there exactly: stars and plaquettes map the sector into itself, a
    single-spin X or Y maps each ground state outside it, where the state
    vanishes, and the region splits place only the sector's amplitudes.
    Only a full-space config's propagation check builds a 2^N state.
    """
    lines: list[str] = []
    ok = True
    geo = lattice.build_lattice(config.L1, config.L2)
    partition = lattice.build_partition(geo, config.partition_preset)
    basis = ed.build_sector(geo)
    space = basis if config.sector_restrict else stabilizer.full_basis(geo.n_spins)
    sectors = [(w1, w2) for w1 in (0, 1) for w2 in (0, 1)]
    states = {s: stabilizer.ground_state(geo, s, basis) for s in sectors}

    worst = max(stabilizer.residual(geo, psi) for psi in states.values())
    ok &= _check(lines, "stabilizer eigenvalues", worst, 1e-10)

    gram = np.array(
        [
            [np.vdot(states[a].amplitudes, states[b].amplitudes) for b in sectors]
            for a in sectors
        ]
    )
    ok &= _check(
        lines, "sector orthonormality", float(np.max(np.abs(gram - np.eye(4)))), 1e-12
    )

    worst = 0.0
    for psi in states.values():
        for kind in "XYZ":
            for j in range(geo.n_spins):
                worst = max(
                    worst, abs(stabilizer.expectation(psi, single(geo.n_spins, kind, j)))
                )
    ok &= _check(lines, "local expectations vanish", worst, 1e-10)

    flat_dev = 0.0
    oracle_dev = 0.0
    psi00 = states[(0, 0)]
    for region in partition.regions:
        spec = entanglement.region_spectrum(psi00, region)
        top = spec[spec > entanglement.RANK_CUTOFF * spec.max()]
        flat_dev = max(flat_dev, float(top.max() - top.min()))
        s_spec = entanglement.renyi(spec, 1.0)
        s_rule = stabilizer.analytic_region_entropy(geo, region)
        oracle_dev = max(oracle_dev, abs(s_spec - s_rule))
    ok &= _check(lines, "flat entanglement spectra", flat_dev, 1e-10)
    ok &= _check(lines, "spectral entropy vs group rule", oracle_dev, 1e-10)

    rdm_dev = 0.0
    for region in partition.regions:
        mats = [entanglement.reduce(states[s], region) for s in sectors]
        for m in mats[1:]:
            rdm_dev = max(rdm_dev, float(np.max(np.abs(m - mats[0]))))
    ok &= _check(lines, "sector indistinguishability", rdm_dev, 1e-10)

    reports = entanglement.entropy_series((psi00,), partition, (1.0, 2.0))
    stop_dev = max(abs(reps[0].s_top - 1.0) for reps in reports.values())
    ok &= _check(lines, "topological entropy = 1 bit", stop_dev, 1e-8)

    # The run's own propagation on its block, against Krylov on the whole space.
    _, _, psi0, op = _prepare(replace(config, h=config.h or 0.1))
    amps = np.zeros((2, space.dimension), dtype=np.complex128)
    amps[:, op.basis.region_rows(space.pivots)] = (
        psi0.amplitudes, next(ed.trajectory(psi0, op, [1.0])).amplitudes)
    whole = ed.evolve(stabilizer.StateVector(amps[0], space),
                      ed.HamiltonianOperator(op.terms, space), 1.0)
    diff = amps[1] - whole.amplitudes
    ok &= _check(lines, "block vs whole-basis propagation", float(np.linalg.norm(diff)), 1e-9)

    return bool(ok), lines
