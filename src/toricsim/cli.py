"""Command-line front end.

Subcommands: ground, verify, quench, sweep, entropy. Runs are configured by
a JSON file whose keys mirror QuenchConfig, with any flag overriding the
file. The only environment variable consulted is TORICSIM_THREADS, which
caps the numeric thread pools and must therefore be applied before numpy is
first imported; all heavy imports happen inside main for that reason.

Exit codes: 0 success, 1 a physics check failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _configure_threads() -> None:
    want = os.environ.get("TORICSIM_THREADS")
    if not want:
        return
    for var in _THREAD_VARS:
        os.environ.setdefault(var, want)


def _parse_sector(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2 or any(p.strip() not in ("0", "1") for p in parts):
        raise ValueError(f"sector must be two bits like '0,1', got {text!r}")
    return int(parts[0]), int(parts[1])


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated numbers, got {text!r}") from None


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


def _quench_config(args) -> "object":
    from .quench import QuenchConfig

    merged: dict = {}
    if getattr(args, "config", None):
        merged.update(_load_config_file(args.config))
    overrides = {
        "L1": args.l1,
        "L2": args.l2,
        "field_mode": getattr(args, "field_mode", None),
        "h": getattr(args, "h", None),
        "kappa": getattr(args, "kappa", None),
        "t_max": getattr(args, "t_max", None),
        "dt": getattr(args, "dt", None),
        "alpha_list": getattr(args, "alpha", None),
        "partition_preset": getattr(args, "preset", None),
        "sector_restrict": getattr(args, "sector_restrict", None),
    }
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    if "L1" not in merged or "L2" not in merged:
        raise ValueError("lattice size missing: pass --l1/--l2 or put L1/L2 in the config")
    try:
        return QuenchConfig(**merged)
    except TypeError as exc:
        raise ValueError(f"bad config field: {exc}") from None


def _cmd_ground(args) -> int:
    from . import ed, lattice, stabilizer

    stabilizer.check_dimension(2 * args.l1 * args.l2, f"the {args.l1}x{args.l2} full space")
    geo = lattice.build_lattice(args.l1, args.l2)
    psi = stabilizer.ground_state(geo, _parse_sector(args.sector))
    op = ed.build_hamiltonian(ed.HamiltonianSpec(geometry=geo))
    energy = op.expectation(psi.amplitudes)
    target = -geo.L1 * geo.L2 * 2.0
    residual = stabilizer.residual(geo, psi)
    print(f"lattice {geo.L1}x{geo.L2}, {geo.n_spins} spins, sector {args.sector}")
    print(f"energy {energy:.17g} (expected {target:.17g})")
    print(f"worst stabilizer residual {residual:.3e}")
    if args.out:
        stabilizer.save_state(args.out, psi)
        print(f"amplitudes written to {args.out}")
    if abs(energy - target) > 1e-10 or residual > 1e-10:
        return 1
    return 0


def _cmd_verify(args) -> int:
    from .quench import verify

    config = _quench_config(args)
    passed, lines = verify(config)
    for line in lines:
        print(line)
    print("verify: all checks passed" if passed else "verify: FAILURES above")
    return 0 if passed else 1


def _cmd_quench(args) -> int:
    from .quench import emit, run_quench

    config = _quench_config(args)
    report = run_quench(config)
    if args.out:
        emit(report, args.format, args.out)
        print(f"{len(report.times)} samples written to {args.out}")
    else:
        last = report.times[-1] if report.times else 0.0
        print(f"{len(report.times)} samples up to t={last:g}; pass --out to save them")
    return 0


def _cmd_sweep(args) -> int:
    from .quench import long_time_average

    config = _quench_config(args)
    rows = long_time_average(config, _parse_floats(args.beta_grid), tuple(args.window))
    lines = ["beta,h,mean_s_top,std_s_top,eigenbasis_mean_s_top"]
    for row in rows:
        eig = f"{row.eigenbasis_mean_s_top:.17g}" if row.eigenbasis_mean_s_top is not None else ""
        lines.append(
            f"{row.beta:.17g},{row.h:.17g},{row.mean_s_top:.17g},{row.std_s_top:.17g},{eig}"
        )
    _write(args.out, "\n".join(lines) + "\n", f"{len(rows)} sweep rows")
    return 0


def _cmd_entropy(args) -> int:
    from . import ed, entanglement, lattice, stabilizer

    stabilizer.check_dimension(args.l1 * args.l2 + 1, f"the {args.l1}x{args.l2} plaquette sector")
    geo = lattice.build_lattice(args.l1, args.l2)
    partition = lattice.build_partition(geo, args.preset)
    psi = stabilizer.ground_state(geo, _parse_sector(args.sector), ed.build_sector(geo))
    alphas = _parse_floats(args.alpha)
    series = entanglement.entropy_series((psi,), partition, alphas)
    reports = [series[a][0] for a in alphas]
    _write(args.out, entanglement.entropy_report_csv(reports, partition), "entropies")
    return 0


def _write(out, text: str, what: str) -> None:
    """Write ``text`` to the file ``out`` and say ``what`` went there, or print it."""
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"{what} written to {out}")
    else:
        print(text, end="")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricsim",
        description="Toric-code exact diagonalization: ground states, "
        "entanglement, and quench dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ground", help="build an analytic ground state and check it")
    p.add_argument("--l1", type=int, required=True)
    p.add_argument("--l2", type=int, required=True)
    p.add_argument("--sector", default="0,0", help="winding bits, e.g. '1,0'")
    p.add_argument("--out", help="write amplitudes to this .npz file")
    p.set_defaults(func=_cmd_ground)

    p = sub.add_parser("verify", help="run the invariant suite at one lattice size")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("quench", help="run one quench and save the time series")
    _add_config_flags(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_quench)

    p = sub.add_parser("sweep", help="long-time averages over a beta grid")
    _add_config_flags(p)
    p.add_argument("--beta-grid", required=True, help="comma-separated betas in (0,1)")
    p.add_argument(
        "--window",
        nargs=2,
        type=float,
        default=(50.0, 100.0),
        metavar=("T0", "T1"),
        help="averaging window (default 50 100)",
    )
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("entropy", help="ground-state region entropies for a preset")
    p.add_argument("--l1", type=int, required=True)
    p.add_argument("--l2", type=int, required=True)
    p.add_argument("--preset", default="levinwen-small")
    p.add_argument("--alpha", default="1,2", help="comma-separated Renyi indices")
    p.add_argument("--sector", default="0,0")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_entropy)

    return parser


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with QuenchConfig fields")
    p.add_argument("--l1", type=int)
    p.add_argument("--l2", type=int)
    p.add_argument("--field-mode", choices=("uniform_z", "split_HV"), dest="field_mode")
    p.add_argument("--h", type=float)
    p.add_argument("--kappa", type=float)
    p.add_argument("--t-max", type=float, dest="t_max")
    p.add_argument("--dt", type=float)
    p.add_argument("--alpha", type=_parse_floats, help="comma-separated Renyi indices")
    p.add_argument("--preset", help="partition preset name")
    sector = p.add_mutually_exclusive_group()
    sector.add_argument(
        "--sector-restrict",
        dest="sector_restrict",
        action="store_const",
        const=True,
        help="report and verify the run against the plaquette-constrained sector",
    )
    sector.add_argument(
        "--full-space",
        dest="sector_restrict",
        action="store_const",
        const=False,
        help="report and verify the run against the full 2^N space",
    )
    p.add_argument("--out", help="output file path")
    p.set_defaults(sector_restrict=None)


def main(argv=None) -> int:
    _configure_threads()
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"toricsim: configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"toricsim: configuration error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"toricsim: check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
