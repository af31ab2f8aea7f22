"""Exact-diagonalization toolkit for the toric code.

Submodules:
    lattice       torus geometry, stabilizer supports, region presets
    pauli         exact Pauli-string algebra on bitmasks
    stabilizer    analytic ground states and the GF(2) entropy rule
    ed            matrix-free Hamiltonians, spectra, time evolution
    entanglement  reduced matrices, Renyi entropies, topological entropy
    quench        quench runs, sweeps, persistence, invariant suite
    cli           command-line front end
    gf2           bitmask linear algebra over GF(2)

Submodules load on first attribute access so that the CLI can pin thread
environment variables before numpy comes in.
"""

from importlib import import_module

_SUBMODULES = (
    "gf2",
    "pauli",
    "lattice",
    "stabilizer",
    "ed",
    "entanglement",
    "quench",
    "cli",
)

__all__ = list(_SUBMODULES) + ["__version__"]

# The one place the version is written: pyproject.toml reads it from here.
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        module = import_module(f".{name}", __name__)
        globals()[name] = module
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULES))
