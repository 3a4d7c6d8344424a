"""The per-member sweeps that preceded the batched kernel, kept as an oracle.

`backward_propagate` and `_sweep` are copied from `rydoct.control` as it
stood before every sweep moved onto `rydoct.propagation.SplitStepKernel`,
`_sweep` with only its "replace" rule: one member at a time, the real
eigenvectors multiplied into complex vectors, the overlap formed as
V (w (V^T psi)) and the cross-term from two full steps.  Its overlap is
taken between the two half free steps, <D lam_j| z |D psi_j>, where the
package's rule takes it.  tests/test_kernel.py
checks the batched kernel against them.
"""

from __future__ import annotations

import numpy as np

from rydoct.atomic import HamiltonianData
from rydoct.control import PenaltySchedule
from rydoct.errors import InvalidSpecError
from rydoct.propagation import PulseGrid, WavePacket, ZEigensystem


def backward_propagate(
    costate_final: WavePacket,
    pulse: PulseGrid,
    h: HamiltonianData,
    zsys: ZEigensystem,
) -> np.ndarray:
    """Costate trajectory lam(t_j) for every grid point, integrated from T to t0.

    Each backward step applies the adjoint of the forward split step with the
    same field sample, so the discrete forward and backward propagations are
    exact inverses of each other.
    """
    half = np.exp(0.5j * pulse.dt * h.energies)
    traj = np.empty((len(pulse.samples), h.dim), dtype=complex)
    traj[-1] = costate_final.amplitudes
    a = np.asarray(costate_final.amplitudes, dtype=complex)
    for j in range(pulse.n_steps - 1, -1, -1):
        e = float(pulse.samples[j])
        a = half * a
        if e != 0.0:
            a = zsys.vectors @ (
                np.exp(1j * pulse.dt * e * zsys.eigenvalues) * (zsys.vectors.T @ a)
            )
        a = half * a
        traj[j] = a
    return traj


def _sweep(
    psi0_list: list[np.ndarray],
    costates: list[np.ndarray],
    pulse: PulseGrid,
    penalty: PenaltySchedule,
    h: HamiltonianData,
    zsys: ZEigensystem,
) -> tuple[np.ndarray, list[np.ndarray], complex]:
    """Forward sweep with immediate field feedback, shared by all targets.

    At each step the update increments from every member are computed from
    the states at t_j, after the half free step D that opens the step, accumulated into one field value, and then all members
    advance through the step under that new value.  Returns the new field
    samples, the new trajectories, and the accumulated cross-term
    sum_j <lam(t_{j+1})| (S_new - S_old) psi(t_j)> needed for the delta3
    diagnostic.
    """
    if not psi0_list:
        raise InvalidSpecError("at least one member is required")
    n_samples = len(pulse.samples)
    members = len(psi0_list)
    dt = pulse.dt
    half = np.exp(-0.5j * dt * h.energies)
    v = zsys.vectors
    vt = np.ascontiguousarray(v.T)
    w = zsys.eigenvalues

    new_samples = pulse.samples.astype(float).copy()
    trajs = [np.empty((n_samples, h.dim), dtype=complex) for _ in range(members)]
    current = []
    for i in range(members):
        trajs[i][0] = psi0_list[i]
        current.append(np.asarray(psi0_list[i], dtype=complex))

    cross_term = 0.0 + 0.0j
    for j in range(n_samples - 1):
        overlap = 0.0
        for i in range(members):
            z_psi = v @ (w * (vt @ (half * current[i])))
            overlap += float(np.vdot(half * costates[i][j], z_psi).imag)
        new_samples[j] = overlap / penalty.samples[j]
        e_new = float(new_samples[j])
        e_old = float(pulse.samples[j])
        phase_new = np.exp(-1j * dt * e_new * w) if e_new != 0.0 else None
        phase_old = np.exp(-1j * dt * e_old * w) if e_old != 0.0 else None
        for i in range(members):
            a = half * current[i]
            if phase_new is None and phase_old is None:
                a_new = half * a
                a_old = a_new
            else:
                coeff = vt @ a
                a_new = half * (v @ (phase_new * coeff)) if phase_new is not None else half * a
                a_old = half * (v @ (phase_old * coeff)) if phase_old is not None else half * a
            cross_term += np.vdot(costates[i][j + 1], a_new - a_old)
            trajs[i][j + 1] = a_new
            current[i] = a_new
    return new_samples, trajs, cross_term
