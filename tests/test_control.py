from dataclasses import replace

import numpy as np
import pytest

from rydoct import (
    HamiltonianData,
    InvalidSpecError,
    OctProblem,
    PenaltySchedule,
    PulseGrid,
    StateLabel,
    WavePacket,
    backward_propagate,
    costate_terminal,
    evaluate_cost,
    forward_update_sweep,
    optimize,
    precompute_z_eigensystem,
    propagate,
)
from rydoct.control import _apply_stall_bump
from rydoct.propagation import SplitStepKernel
from rydoct.pulses import half_cycle_pulse


def two_level():
    h = HamiltonianData(
        labels=(StateLabel(1, 0), StateLabel(2, 0)),
        energies=np.array([-0.6, -0.4]),
        z_matrix=np.array([[0.0, 1.0], [1.0, 0.0]]),
        provenance="test",
    )
    return h, precompute_z_eigensystem(h)


def three_level(coupled=True):
    z = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.7], [0.0, 0.7, 0.0]])
    if not coupled:
        z = np.zeros((3, 3))
    h = HamiltonianData(
        labels=(StateLabel(1, 0), StateLabel(2, 0), StateLabel(3, 0)),
        energies=np.array([-0.52, -0.50, -0.48]),
        z_matrix=z,
        provenance="test",
    )
    return h, precompute_z_eigensystem(h)


def forward_trajectory(amps0, pulse, h, zsys):
    """(n_samples, dim) forward trajectory aligned with the pulse grid."""
    traj, _ = propagate(WavePacket(amps0), pulse, h, zsys, record=1)
    return np.array([wp.amplitudes for wp in traj])


def ground_state(dim):
    amps = np.zeros(dim, dtype=complex)
    amps[0] = 1.0
    return WavePacket(amps)


class TestPenaltySchedule:
    @pytest.fixture()
    def pulse(self):
        return PulseGrid.zeros(0.0, 0.5, 401)

    def test_edges_and_plateau(self, pulse):
        pen = PenaltySchedule.build(pulse, base=2.0, edge_multiplier=1000.0, ramp_fraction=0.05)
        assert pen.samples[0] == pytest.approx(2000.0)
        assert pen.samples[-1] == pytest.approx(2000.0)
        mid = len(pen.samples) // 2
        assert pen.samples[mid] == pytest.approx(2.0)
        assert np.all(pen.samples >= 2.0 - 1e-12)

    def test_ramps_monotone(self, pulse):
        pen = PenaltySchedule.build(pulse, base=1.0, edge_multiplier=1000.0, ramp_fraction=0.1)
        ramp_len = int(0.1 * pulse.n_steps)
        left = pen.samples[: ramp_len + 1]
        right = pen.samples[-(ramp_len + 1) :]
        assert np.all(np.diff(left) <= 0)
        assert np.all(np.diff(right) >= 0)

    def test_parameter_validation(self, pulse):
        with pytest.raises(InvalidSpecError):
            PenaltySchedule.build(pulse, base=-1.0)
        with pytest.raises(InvalidSpecError):
            PenaltySchedule.build(pulse, edge_multiplier=0.5)
        with pytest.raises(InvalidSpecError):
            PenaltySchedule.build(pulse, ramp_fraction=0.6)


class TestEvaluateCost:
    def test_zero_field(self):
        pulse = PulseGrid.zeros(0.0, 0.1, 51)
        pen = PenaltySchedule.build(pulse, base=3.0)
        assert evaluate_cost(pulse, pen) == 0.0

    def test_constant_field_closed_form(self):
        # Constant penalty (edge multiplier 1) and constant field: Y = l E^2 T.
        pulse = PulseGrid(0.0, 0.25, np.full(81, 0.3))
        pen = PenaltySchedule.build(pulse, base=4.0, edge_multiplier=1.0)
        horizon = pulse.n_steps * pulse.dt
        assert evaluate_cost(pulse, pen) == pytest.approx(4.0 * 0.09 * horizon, rel=1e-12)

    def test_quadratic_in_field(self):
        rng = np.random.default_rng(2)
        samples = rng.normal(size=64)
        pulse = PulseGrid(0.0, 0.1, samples)
        doubled = pulse.with_samples(2.0 * samples)
        pen = PenaltySchedule.build(pulse, base=1.5)
        assert evaluate_cost(doubled, pen) == pytest.approx(4.0 * evaluate_cost(pulse, pen))

    def test_grid_mismatch(self):
        pulse = PulseGrid.zeros(0.0, 0.1, 50)
        pen = PenaltySchedule.build(PulseGrid.zeros(0.0, 0.1, 60), base=1.0)
        with pytest.raises(InvalidSpecError):
            evaluate_cost(pulse, pen)


class TestCostateTerminal:
    def test_projects_and_keeps_amplitude(self):
        psi = WavePacket(np.array([0.6, 0.8j], dtype=complex))
        lam = costate_terminal(psi, 1)
        assert lam.amplitudes[0] == 0.0
        assert lam.amplitudes[1] == 0.8j
        assert lam.norm() == pytest.approx(0.8)

    def test_orthogonal_final_state_gives_zero(self):
        psi = WavePacket(np.array([1.0 + 0.0j, 0.0]))
        lam = costate_terminal(psi, 1)
        assert lam.norm() == 0.0

    def test_register_costate_norm(self, cesium_h):
        from rydoct import RegisterSpec, encode

        reg = RegisterSpec.from_names(
            ["24p", "25p", "26p", "27p", "28p", "29p"], marked="26p"
        )
        psi = encode(reg, cesium_h)
        lam = costate_terminal(psi, cesium_h.index("26p"))
        assert lam.norm() == pytest.approx(1.0 / np.sqrt(6.0), abs=1e-14)


class TestBackwardPropagate:
    def test_zero_field_free_phases(self):
        h, zsys = two_level()
        pulse = PulseGrid.zeros(0.0, 0.2, 21)
        lam_final = WavePacket(np.array([0.3 + 0.1j, 0.5 - 0.2j]), time=pulse.horizon)
        traj = backward_propagate(lam_final, pulse, h, zsys)
        times = pulse.times()
        for j, t in enumerate(times):
            expected = lam_final.amplitudes * np.exp(1j * h.energies * (pulse.horizon - t))
            assert np.max(np.abs(traj[j] - expected)) < 1e-13

    def test_norm_constant(self):
        h, zsys = two_level()
        rng = np.random.default_rng(6)
        pulse = PulseGrid(0.0, 0.1, rng.normal(size=101) * 0.3)
        lam_final = WavePacket(np.array([0.5 + 0.0j, 0.5j]), time=pulse.horizon)
        traj = backward_propagate(lam_final, pulse, h, zsys)
        norms = np.linalg.norm(traj, axis=1)
        assert np.max(np.abs(norms - norms[-1])) < 1e-13

    def test_backward_then_forward_recovers(self):
        h, zsys = two_level()
        rng = np.random.default_rng(7)
        pulse = PulseGrid(0.0, 0.1, rng.normal(size=101) * 0.4)
        lam_final = WavePacket(np.array([0.2 + 0.4j, -0.3 + 0.1j]), time=pulse.horizon)
        traj = backward_propagate(lam_final, pulse, h, zsys)
        kernel = SplitStepKernel(h, zsys, pulse.dt)
        psi = traj[0].reshape(2, 1)
        for j in range(pulse.n_steps):
            psi = kernel.step(psi, float(pulse.samples[j]))
        assert np.max(np.abs(psi[:, 0] - lam_final.amplitudes)) < 1e-10


class TestForwardUpdateSweep:
    def test_zero_costate_leaves_field_unchanged(self):
        h, zsys = two_level()
        rng = np.random.default_rng(11)
        pulse = PulseGrid(0.0, 0.1, rng.normal(size=51) * 0.2)
        # The sweep then reduces to plain propagation under the old field,
        # checked at every grid point by sweeping each prefix of the grid.
        plain = forward_trajectory(ground_state(2).amplitudes, pulse, h, zsys)
        for n_samples in range(2, 52):
            prefix = pulse.with_samples(pulse.samples[:n_samples])
            pen = PenaltySchedule.build(prefix, base=1.0)
            costates = np.zeros((n_samples, 2), dtype=complex)
            new_pulse, final = forward_update_sweep(
                ground_state(2), costates, prefix, pen, h, zsys, update_mode="add"
            )
            assert np.array_equal(new_pulse.samples, prefix.samples)
            assert np.max(np.abs(final.amplitudes - plain[n_samples - 1])) == 0.0
            assert final.time == pytest.approx(prefix.horizon)

    def test_infinite_penalty_freezes_field(self):
        h, zsys = two_level()
        pulse = PulseGrid(0.0, 0.1, np.full(51, 0.1))
        pen = PenaltySchedule.build(pulse, base=1e30)
        psi_final = WavePacket(np.array([0.6, 0.8 + 0.0j]), time=pulse.horizon)
        costates = backward_propagate(costate_terminal(psi_final, 1), pulse, h, zsys)
        new_pulse, _ = forward_update_sweep(
            ground_state(2), costates, pulse, pen, h, zsys, update_mode="add"
        )
        assert np.max(np.abs(new_pulse.samples - pulse.samples)) < 1e-25

    def test_first_increment_matches_hand_evaluation(self):
        # At t0 the updated sample is E + Im(<lam(0)| z |psi0>) / l(0), with
        # the overlap evaluated directly from the stored matrices.
        h, zsys = two_level()
        pulse = PulseGrid(0.0, 0.05, np.full(41, 0.07))
        pen = PenaltySchedule.build(pulse, base=3.0, edge_multiplier=1.0)
        psi_final = WavePacket(np.array([0.3 + 0.5j, 0.4 - 0.1j]), time=pulse.horizon)
        costates = backward_propagate(costate_terminal(psi_final, 1), pulse, h, zsys)
        psi0 = ground_state(2)
        new_pulse, _ = forward_update_sweep(
            psi0, costates, pulse, pen, h, zsys, update_mode="add"
        )
        expected = np.vdot(costates[0], h.z_matrix @ psi0.amplitudes).imag / 3.0
        assert new_pulse.samples[0] - pulse.samples[0] == pytest.approx(expected, rel=1e-12)

    def test_replace_mode_sets_field_directly(self):
        # Both modes see the same state at t0, so the first samples are
        # related exactly; after that the immediate feedback makes the
        # trajectories (and hence the updates) diverge.
        h, zsys = two_level()
        pulse = PulseGrid(0.0, 0.05, np.full(41, 0.07))
        pen = PenaltySchedule.build(pulse, base=3.0, edge_multiplier=1.0)
        psi_final = WavePacket(np.array([0.3 + 0.5j, 0.4 - 0.1j]), time=pulse.horizon)
        costates = backward_propagate(costate_terminal(psi_final, 1), pulse, h, zsys)
        psi0 = ground_state(2)
        added, _ = forward_update_sweep(psi0, costates, pulse, pen, h, zsys, "add")
        replaced, _ = forward_update_sweep(psi0, costates, pulse, pen, h, zsys, "replace")
        increment = np.vdot(costates[0], h.z_matrix @ psi0.amplitudes).imag / pen.samples[0]
        assert replaced.samples[0] == pytest.approx(increment, rel=1e-12)
        assert added.samples[0] - pulse.samples[0] == pytest.approx(
            replaced.samples[0], rel=1e-12
        )

    def test_unknown_mode_rejected(self):
        h, zsys = two_level()
        pulse = PulseGrid.zeros(0.0, 0.1, 11)
        pen = PenaltySchedule.build(pulse, base=1.0)
        with pytest.raises(InvalidSpecError):
            forward_update_sweep(
                ground_state(2), np.zeros((11, 2), complex), pulse, pen, h, zsys, "newton"
            )


class TestOptimize:
    def test_fixed_point_converges_in_one_iteration(self):
        # Zero field, initial state equal to the target eigenstate: the
        # costate/state overlap through z is identically zero, so the field
        # never moves and J is stationary immediately.
        h, zsys = two_level()
        guess = PulseGrid.zeros(0.0, 0.1, 101)
        pen = PenaltySchedule.build(guess, base=1.0)
        psi0 = WavePacket(np.array([0.0, 1.0 + 0.0j]))
        problem = OctProblem(
            hamiltonian=h,
            psi0=psi0,
            target=StateLabel(2, 0),
            penalty=pen,
            guess=guess,
            max_iterations=50,
            tolerance=1e-10,
            update_mode="add",
        )
        result = optimize(problem, zsys=zsys)
        assert result.iterations == 1
        assert result.converged
        assert np.array_equal(result.field.samples, guess.samples)
        assert result.final_yield == pytest.approx(1.0)

    def test_two_level_transfer_beats_099(self):
        # Independent oracle: a brute-force scan over constant fields shows a
        # >0.99 transfer is reachable; the optimizer must find at least that.
        h, zsys = two_level()
        T, dt = 60.0, 0.05
        steps = int(T / dt)
        kernel = SplitStepKernel(h, zsys, dt)
        best = 0.0
        for e_field in np.linspace(0.05, 1.2, 24):
            psi = ground_state(2).amplitudes.reshape(2, 1)
            for _ in range(steps):
                psi = kernel.step(psi, e_field)
                best = max(best, abs(psi[1, 0]) ** 2)
        assert best > 0.99

        guess = half_cycle_pulse(peak=0.05, width=20.0, t_peak=10.0, t0=0.0, dt=dt, n_samples=steps + 1)
        pen = PenaltySchedule.build(guess, base=1.0, edge_multiplier=100.0, ramp_fraction=0.1)
        problem = OctProblem(
            hamiltonian=h,
            psi0=ground_state(2),
            target=StateLabel(2, 0),
            penalty=pen,
            guess=guess,
            max_iterations=100,
            tolerance=1e-14,
        )
        result = optimize(problem, zsys=zsys)
        assert result.final_yield > 0.99
        assert result.iterations <= 100

    def test_replace_mode_j_monotone(self):
        h, zsys = two_level()
        T, dt = 60.0, 0.05
        steps = int(T / dt)
        guess = half_cycle_pulse(peak=0.05, width=20.0, t_peak=10.0, t0=0.0, dt=dt, n_samples=steps + 1)
        pen = PenaltySchedule.build(guess, base=1.0, edge_multiplier=100.0, ramp_fraction=0.1)
        problem = OctProblem(
            hamiltonian=h,
            psi0=ground_state(2),
            target=StateLabel(2, 0),
            penalty=pen,
            guess=guess,
            max_iterations=100,
            tolerance=1e-14,
        )
        result = optimize(problem, zsys=zsys)
        full = np.concatenate([[result.guess_j], result.j_history])
        assert np.min(np.diff(full)) >= -1e-9
        assert result.monotonic

    def test_delta3_at_rounding_level(self):
        h, zsys = three_level()
        guess = half_cycle_pulse(peak=0.05, width=40.0, t_peak=30.0, t0=0.0, dt=0.05, n_samples=1201)
        pen = PenaltySchedule.build(guess, base=1.0, edge_multiplier=50.0, ramp_fraction=0.1)
        problem = OctProblem(
            hamiltonian=h,
            psi0=ground_state(3),
            target=StateLabel(3, 0),
            penalty=pen,
            guess=guess,
            max_iterations=25,
            tolerance=1e-14,
        )
        result = optimize(problem, zsys=zsys)
        assert np.max(np.abs(result.delta3_history)) <= 1e-10

    def test_gradient_against_finite_differences(self):
        # The stationarity condition behind the update implies
        # dJ/dE(t) = 2 Im<lam(t)|z|psi(t)> - 2 l(t) E(t); check it against a
        # central finite difference along a smooth direction.
        h, zsys = three_level()
        dt, horizon = 0.002, 20.0
        n = int(horizon / dt) + 1
        t = dt * np.arange(n)
        field = PulseGrid(0.0, dt, 0.08 * np.sin(0.02 * t) * np.sin(0.0013 * t + 1.0))
        pen = PenaltySchedule.build(field, base=2.0, edge_multiplier=1.0, ramp_fraction=0.1)
        target = 2
        psi0 = ground_state(3)

        def j_of(samples):
            pulse = field.with_samples(samples)
            traj = forward_trajectory(psi0.amplitudes, pulse, h, zsys)
            return float(np.abs(traj[-1][target]) ** 2) - evaluate_cost(pulse, pen)

        traj = forward_trajectory(psi0.amplitudes, field, h, zsys)
        lam = backward_propagate(
            costate_terminal(WavePacket(traj[-1], horizon), target), field, h, zsys
        )
        grad = np.zeros(n)
        for j in range(n - 1):
            z_psi = h.z_matrix @ traj[j]
            grad[j] = 2.0 * dt * (np.vdot(lam[j], z_psi).imag - pen.samples[j] * field.samples[j])

        direction = np.sin(0.01 * t + 0.3)
        eps = 1e-6
        fd = (j_of(field.samples + eps * direction) - j_of(field.samples - eps * direction)) / (2 * eps)
        analytic = float(np.sum(grad * direction))
        assert analytic == pytest.approx(fd, rel=1e-4)

    def test_stall_guard_perturbs_and_warns(self):
        # Zero guess field and a target with exactly zero amplitude: the
        # terminal costate vanishes and every update would stay zero.
        h, zsys = three_level()
        guess = PulseGrid.zeros(0.0, 0.1, 201)
        pen = PenaltySchedule.build(guess, base=1.0)
        problem = OctProblem(
            hamiltonian=h,
            psi0=ground_state(3),
            target=StateLabel(3, 0),
            penalty=pen,
            guess=guess,
            max_iterations=2,
            tolerance=1e-16,
            update_mode="add",
        )
        with pytest.warns(UserWarning, match="bump"):
            result = optimize(problem, zsys=zsys)
        assert np.any(result.field.samples != 0.0)
        # Bit for bit the run that starts from the bumped field: the guess
        # propagation and the phase table both use it.
        bumped = optimize(replace(problem, guess=_apply_stall_bump(guess)), zsys=zsys)
        for name in ("j_history", "yield_history", "delta3_history", "final_states"):
            assert np.array_equal(getattr(result, name), getattr(bumped, name))
        assert np.array_equal(result.field.samples, bumped.field.samples)

    def test_problem_validation(self):
        h, zsys = two_level()
        guess = PulseGrid.zeros(0.0, 0.1, 51)
        pen_bad = PenaltySchedule.build(PulseGrid.zeros(0.0, 0.1, 61), base=1.0)
        with pytest.raises(InvalidSpecError):
            OctProblem(h, ground_state(2), StateLabel(2, 0), pen_bad, guess)
        pen = PenaltySchedule.build(guess, base=1.0)
        with pytest.raises(InvalidSpecError):
            OctProblem(h, ground_state(2), StateLabel(2, 0), pen, guess, update_mode="foo")
        with pytest.raises(InvalidSpecError):
            OctProblem(h, ground_state(2), StateLabel(9, 0), pen, guess)

    def test_histories_aligned(self):
        h, zsys = two_level()
        guess = half_cycle_pulse(peak=0.05, width=20.0, t_peak=10.0, t0=0.0, dt=0.1, n_samples=301)
        pen = PenaltySchedule.build(guess, base=1.0, edge_multiplier=10.0, ramp_fraction=0.1)
        problem = OctProblem(
            hamiltonian=h,
            psi0=ground_state(2),
            target=StateLabel(2, 0),
            penalty=pen,
            guess=guess,
            max_iterations=7,
            tolerance=1e-16,
        )
        result = optimize(problem, zsys=zsys)
        assert result.iterations == 7
        for history in (
            result.j_history,
            result.yield_history,
            result.cost_history,
            result.delta3_history,
        ):
            assert len(history) == 7
        assert np.all(result.yield_history >= 0.0)
        assert np.all(result.yield_history <= 1.0)
        # The emitted field is real by construction.
        assert result.field.samples.dtype.kind == "f"
