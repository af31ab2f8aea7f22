"""The ``split_HV`` quench against its closed form, decoupled Ising rings.

Under ``split_HV`` sigma^z on the horizontal spins commutes with every
plaquette and sigma^x on the vertical spins with every star, so H splits
into two commuting parts, each a set of transverse-field Ising rings along
direction 1 (Hamma, Zhang, Haas & Lidar, PRB 77, 155111 (2008)). With a(t)
= <+...+| exp(-iHt) |+...+> for the L1-site ring
H = -g sum X_i - c sum s_i Z_i Z_(i+1), all s_i = 1 for a_P and exactly
one s_i = -1 for a_A, the fidelity of the sector-(0,0) state is

    F(t) = | a(J, h)^L2 * (a_P(U, kappa h)^L2 + a_A(U, kappa h)^L2) / 2 |^2.

The plaquette rings take both boundary conditions with equal weight, since
the state is an equal superposition of the X-loop values that set them.
Each a(t) comes from a dense ``eigh`` of its 2^L1-state ring.
"""

import numpy as np
import pytest

from toricsim import ed, entanglement, lattice, quench, stabilizer


def ring_amplitude(g, c, length, antiperiodic, times):
    """<+...+| exp(-iHt) |+...+> at each time for the ring
    H = -g sum X_i - c sum s_i Z_i Z_(i+1), s_i = 1 but the last bond's
    s = -1 when ``antiperiodic``."""
    idx = np.arange(1 << length)
    z = 1 - 2 * ((idx[:, None] >> np.arange(length)) & 1)
    signs = np.ones(length)
    signs[-1] = -1.0 if antiperiodic else 1.0
    H = np.diag(-c * (signs * z * np.roll(z, -1, axis=1)).sum(axis=1).astype(float))
    for i in range(length):
        H[idx ^ (1 << i), idx] -= g
    w, vecs = np.linalg.eigh(H)
    weights = (vecs.T @ np.full(idx.size, idx.size ** -0.5)) ** 2
    return np.array([weights @ np.exp(-1j * w * t) for t in times])


def ring_fidelity(l1, l2, h, kappa, times, U=1.0, J=1.0):
    """F(t) of the module docstring at each time."""
    stars = ring_amplitude(J, h, l1, False, times)
    periodic = ring_amplitude(U, kappa * h, l1, False, times)
    antiperiodic = ring_amplitude(U, kappa * h, l1, True, times)
    return np.abs(stars**l2 * (periodic**l2 + antiperiodic**l2) / 2) ** 2


@pytest.mark.parametrize("l1,l2,h,kappa", [(2, 2, 0.7, 1.0), (2, 3, 1.3, 0.4)])
def test_run_quench_fidelity_matches_the_ising_rings(l1, l2, h, kappa):
    report = quench.run_quench(quench.QuenchConfig(
        L1=l1, L2=l2, field_mode="split_HV", h=h, kappa=kappa, t_max=10.0, dt=0.5))
    want = ring_fidelity(l1, l2, h, kappa, report.times)
    assert np.max(np.abs(np.array(report.fidelity) - want)) < 1e-12


def test_block_trajectory_matches_the_ising_rings_at_strong_field():
    # The hardest shipped regime: the 32,768-state 3x3 block above the
    # dense cap, h = 9 out to t = 100, served by restarted Krylov spaces on
    # the block's orbits. F falls to 9e-4 and rises to 0.35 at these times.
    geo = lattice.build_lattice(3, 3)
    spec = ed.HamiltonianSpec(geo, h=9.0, kappa=1.0, field_mode="split_HV")
    op = ed.build_hamiltonian(spec, ed.build_block(spec))
    assert op.dimension == 32768 and ed.propagation(op.dimension) == "krylov"
    psi0 = stabilizer.ground_state(geo, (0, 0), op.basis)
    times = [0.5, 1.0, 10.0, 50.0, 99.5, 100.0]
    want = ring_fidelity(3, 3, 9.0, 1.0, times)
    assert want.min() < 1e-3 and want.max() > 0.3
    got = [entanglement.fidelity(psi0, state) for state in ed.trajectory(psi0, op, times)]
    assert np.max(np.abs(np.array(got) - want)) < 1e-9
