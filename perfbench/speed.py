"""Machine-speed probe that scales the benchmark's times to a reference speed.

The benchmark runs on a share of a host whose other tenants change how
fast a core runs: for minutes at a time the same single-threaded call takes
1.8 times as long, with no steal time, so neither wall nor CPU time of the
call stays put. ``probe`` times a fixed mix of the kinds of work the
workloads do (interpreted Python, dense complex LAPACK on a small matrix,
SVDs of 2^18-entry states reshaped to 16 rows, bit-flip gathers and vector
updates on 2^18 entries) and uses nothing from toricsim, so a change to the program cannot
move it. A run divides its times by the median probe time and multiplies by
``REFERENCE_PROBE_S``, the probe's median on the machine the reference
figures in README.md come from.

Import this before numpy is imported elsewhere in the process, or set
``OPENBLAS_NUM_THREADS=1`` yourself: the probe runs on one thread, like the
workers.
"""

from __future__ import annotations

import os
import statistics
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

REFERENCE_PROBE_S = 0.125

_RNG = np.random.default_rng(20131211)
_STATE = _RNG.standard_normal(2**18) + 1j * _RNG.standard_normal(2**18)
_FLIP = np.arange(2**18) ^ 0b101000110  # a bit-flip permutation, as a Pauli X string makes
_MATRIX = _RNG.standard_normal((192, 192)) + 1j * _RNG.standard_normal((192, 192))
_MATRIX = _MATRIX + _MATRIX.conj().T


def _python_work() -> int:
    total = 0
    table = {}
    for i in range(40_000):
        key = (i & 255, i >> 8)
        table[key] = table.get(key, 0) + i
        total += len(table) & 7
    return total


def probe() -> float:
    """Seconds one fixed round of mixed work takes now."""
    t0 = time.perf_counter()
    _python_work()
    for _ in range(3):
        np.linalg.eigh(_MATRIX)
    for _ in range(2):
        np.linalg.svd(_STATE.reshape(16, -1), compute_uv=False)
    vec = _STATE
    for _ in range(8):
        vec = 0.5 * vec[_FLIP] + _STATE
        float(np.vdot(vec, _STATE).real)
    return time.perf_counter() - t0


def median_probe(rounds: int) -> float:
    return float(statistics.median(probe() for _ in range(rounds)))
