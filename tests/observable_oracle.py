"""The block oracle of a quench sample's reduced observables, for the tests.

``ed.observed_trajectory`` reads each sample's norm, fidelity and energy
from its reduced vector y: the orbit amplitudes or, with no lattice map,
the block vector itself. Their oracle is the expanded sample: its norm,
``entanglement.fidelity`` and ``HamiltonianOperator.expectation``.

Budgets: the fidelity within FIDELITY_BUDGET * eps, the energy within
ENERGY_BUDGET * eps * W, W = sum |c| >= ||H|| the weight sum of the terms,
and the norm within NORM_BUDGET * eps. Seen at h = 9 out to t = 100: on
the 3x3 ``split_HV`` block's 1,110 orbits 2 eps, 5.3 eps W and 48 eps; on
the 3x3 quench state's 13 orbits of its 256-state block 0.75 eps,
0.18 eps W and 1 eps. The block norm is the one off: its sum over 32,768
entries carries the rounding of each y[a] / sqrt(n_a). With no map both
routes form the same products, so they agree exactly.
"""

import numpy as np

from toricsim import ed, entanglement

EPS = np.finfo(float).eps
FIDELITY_BUDGET = 4.0
ENERGY_BUDGET = 16.0
NORM_BUDGET = 128.0


def observable_gaps(psi0, op, times):
    """``(gaps, fidelity)``: the largest gaps of ``ed.observed_trajectory``'s
    norm, fidelity and energy from the block oracle over ``times``, as
    ``[dN, dF, dE]`` in units of their budgets, so a value at most 1 is within
    budget, and its fidelity at each time."""
    weight = sum(abs(c) for c, _ in op.terms)
    gaps, fidelities = np.zeros(3), []
    for state, norm, fidelity, energy in ed.observed_trajectory(psi0, op, times):
        fidelities.append(fidelity)
        gaps = np.maximum(gaps, [
            abs(norm - np.linalg.norm(state.amplitudes)) / (NORM_BUDGET * EPS),
            abs(fidelity - entanglement.fidelity(psi0, state)) / (FIDELITY_BUDGET * EPS),
            abs(energy - op.expectation(state.amplitudes)) / (ENERGY_BUDGET * EPS * weight),
        ])
    return gaps, np.array(fidelities)
