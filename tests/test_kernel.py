"""The batched split-step kernel against the per-member sweeps it replaced.

The oracle is tests/reference_sweeps.py.  Both sides start from the same
initial states and terminal costates on the 55-state production basis, with
four register members and a field that is nonzero almost everywhere but has
exact zeros mixed in, so both the zero-field shortcut and the full step run.
"""

import numpy as np
import pytest

from rydoct import PenaltySchedule, PulseGrid, RegisterSpec, WavePacket, encode, propagate
from rydoct.control import _costate_sweep, _update_sweep, backward_propagate
from rydoct.propagation import SplitStepKernel
from tests import reference_sweeps as ref

REGISTER = ["24p", "25p", "26p", "27p", "28p", "29p"]
MARKED = ["25p", "26p", "27p", "28p"]
DT = 413.41373333565624


@pytest.fixture(scope="module")
def setup(cesium_h, cesium_zsys):
    n_samples = 801
    t = DT * np.arange(n_samples)
    samples = 2e-7 * np.sin(2.0 * np.pi * t / t[-1]) * np.cos(7.0 * np.pi * t / t[-1] + 0.3)
    samples[::7] = 0.0
    samples[300:340] = 0.0
    pulse = PulseGrid(0.0, DT, samples)
    penalty = PenaltySchedule.build(pulse, base=1e8, edge_multiplier=1000.0, ramp_fraction=0.05)
    psi0 = [
        encode(RegisterSpec.from_names(REGISTER, marked=bit), cesium_h).amplitudes
        for bit in MARKED
    ]
    lam_final = []
    for amps, bit in zip(psi0, MARKED):
        _, final = propagate(WavePacket(amps), pulse, cesium_h, cesium_zsys, record=None)
        lam = np.zeros(cesium_h.dim, dtype=complex)
        k = cesium_h.index(bit)
        lam[k] = final.amplitudes[k]
        lam_final.append(lam)
    ref_costates = [
        ref.backward_propagate(WavePacket(lam, time=pulse.horizon), pulse, cesium_h, cesium_zsys)
        for lam in lam_final
    ]
    kernel = SplitStepKernel(cesium_h, cesium_zsys, DT)
    z_lam, coeffs = _costate_sweep(kernel, np.stack(lam_final, axis=1), pulse.samples)
    return {
        "h": cesium_h,
        "zsys": cesium_zsys,
        "pulse": pulse,
        "penalty": penalty,
        "psi0": psi0,
        "lam_final": lam_final,
        "ref_costates": ref_costates,
        "kernel": kernel,
        "z_lam": z_lam,
        "coeffs": coeffs,
    }


def test_field_has_zero_and_nonzero_steps(setup):
    steps = setup["pulse"].samples[:-1]
    assert np.count_nonzero(steps == 0.0) > 100
    assert np.count_nonzero(steps) > 600


def test_public_backward_propagate_matches_oracle(setup):
    h, zsys, pulse = setup["h"], setup["zsys"], setup["pulse"]
    for lam, expected in zip(setup["lam_final"], setup["ref_costates"]):
        costates = backward_propagate(WavePacket(lam, time=pulse.horizon), pulse, h, zsys)
        assert costates.shape == expected.shape
        assert np.max(np.abs(costates - expected)) <= 1e-12


def test_costate_sweep_matches_oracle(setup):
    # z lam_j for the increment at t_j, and V^T D* lam_{j+1} for the
    # cross-term of step j, both formed from the oracle's costates.
    h, zsys = setup["h"], setup["zsys"]
    half_adjoint = np.exp(0.5j * setup["pulse"].dt * h.energies)
    for i, costates in enumerate(setup["ref_costates"]):
        z_lam = costates[:-1] @ h.z_matrix.T
        coeffs = (costates[1:] * half_adjoint) @ zsys.vectors
        scale = np.max(np.abs(z_lam))
        assert np.max(np.abs(setup["z_lam"][:, :, i] - z_lam)) <= 1e-12 * scale
        assert np.max(np.abs(setup["coeffs"][:, :, i] - coeffs)) <= 1e-12
    assert setup["z_lam"].shape == (setup["pulse"].n_steps, h.dim, len(MARKED))


@pytest.mark.parametrize("mode", ["replace", "add"])
def test_update_sweep_matches_oracle(setup, mode):
    h, zsys, pulse, penalty = setup["h"], setup["zsys"], setup["pulse"], setup["penalty"]
    expected, trajs, expected_cross = ref._sweep(
        setup["psi0"], setup["ref_costates"], pulse, penalty, h, zsys, mode
    )
    samples, final, cross = _update_sweep(
        setup["kernel"],
        np.stack(setup["psi0"], axis=1),
        setup["z_lam"],
        pulse,
        penalty,
        mode,
        coeffs=setup["coeffs"],
    )
    # Relative to the field's scale: where a new sample crosses zero, the
    # overlap sum cancels and its own relative error is unbounded.
    scale = np.max(np.abs(expected))
    np.testing.assert_allclose(samples, expected, rtol=1e-12, atol=1e-12 * scale)
    assert abs(cross - expected_cross) <= 1e-12
    for i, traj in enumerate(trajs):
        assert np.max(np.abs(final[:, i] - traj[-1])) <= 1e-12
