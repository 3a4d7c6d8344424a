import csv

import numpy as np
import pytest

from rydoct import (
    EnsembleMember,
    EnsembleProblem,
    InvalidSpecError,
    OctProblem,
    PenaltySchedule,
    PulseGrid,
    StateLabel,
    WavePacket,
    decode_test,
    optimize,
    optimize_ensemble,
    precompute_z_eigensystem,
    propagate,
    register_ensemble_problem,
)
from rydoct.control import _run_engine
from rydoct.manifest import parse_manifest, run
from rydoct.propagation import SplitStepKernel
from rydoct.pulses import half_cycle_pulse
from tests.conftest import make_dense_hamiltonian, tiny_manifest_dict

REGISTER_NAMES = ["24p", "25p", "26p", "27p", "28p", "29p"]


@pytest.fixture()
def dense3():
    return make_dense_hamiltonian(3, seed=5)


def random_states(dim, count, seed):
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(count):
        amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        states.append(amps / np.linalg.norm(amps))
    return states


def ensemble_update(costates, states, penalty_value, kernel):
    """Shared-field increment (1/l) sum_i Im <lam_i| z |psi_i>, as the sweeps form it."""
    lam, psi = np.stack(costates, axis=1), np.stack(states, axis=1)
    return float(np.vdot(kernel.zsys.z @ lam, psi).imag) / penalty_value


class TestEnsembleUpdate:
    """The update sweep's overlap, fed z lam as the backward sweep forms it."""

    @pytest.fixture()
    def kernel(self, dense3):
        return SplitStepKernel(dense3, precompute_z_eigensystem(dense3), 0.1)

    def test_single_member_reduction(self, dense3, kernel):
        (lam,), (psi,) = random_states(3, 1, 1), random_states(3, 1, 2)
        value = ensemble_update([lam], [psi], 2.5, kernel)
        expected = np.vdot(lam, dense3.z_matrix @ psi).imag / 2.5
        assert value == pytest.approx(expected, rel=1e-12)

    def test_opposite_members_cancel(self, kernel):
        lam, psi = random_states(3, 1, 3)[0], random_states(3, 1, 4)[0]
        value = ensemble_update([lam, lam], [psi, -psi], 1.0, kernel)
        assert value == pytest.approx(0.0, abs=1e-14)

    def test_sum_of_independent_members(self, kernel):
        lams = random_states(3, 4, 6)
        psis = random_states(3, 4, 7)
        combined = ensemble_update(lams, psis, 3.0, kernel)
        singles = sum(ensemble_update([l], [p], 3.0, kernel) for l, p in zip(lams, psis))
        assert combined == pytest.approx(singles, rel=1e-12)

    def test_empty_rejected(self, dense3):
        # The sweeps never see an empty block: the problem rejects it first.
        guess = PulseGrid.zeros(0.0, 0.1, 11)
        penalty = PenaltySchedule.build(guess, base=1.0, edge_multiplier=10.0, ramp_fraction=0.1)
        with pytest.raises(InvalidSpecError, match="at least one member"):
            EnsembleProblem(hamiltonian=dense3, members=[], penalty=penalty, guess=guess)


class TestEngineIdentities:
    def test_identical_members_rescale_penalty(self, dense3):
        # N copies of the same member drive the field exactly like a single
        # member with the penalty divided by N.
        zsys = precompute_z_eigensystem(dense3)
        guess = half_cycle_pulse(peak=0.03, width=20.0, t_peak=10.0, t0=0.0, dt=0.1, n_samples=301)
        psi0 = np.zeros(3, complex)
        psi0[0] = 1.0
        pen3 = PenaltySchedule.build(guess, base=3.0, edge_multiplier=10.0, ramp_fraction=0.1)
        pen1 = PenaltySchedule.build(guess, base=1.0, edge_multiplier=10.0, ramp_fraction=0.1)
        settings = dict(max_iterations=10, tolerance=1e-16, update_mode="replace")
        target = dense3.labels[2]
        problem3 = OctProblem(dense3, WavePacket(psi0), target, pen3, guess, **settings)
        problem1 = OctProblem(dense3, WavePacket(psi0), target, pen1, guess, **settings)
        triple = _run_engine(problem3, [(psi0, 2)] * 3, zsys)
        single = _run_engine(problem1, [(psi0, 2)], zsys)
        np.testing.assert_allclose(
            triple.field.samples, single.field.samples, rtol=1e-10, atol=1e-18
        )

    def test_single_member_matches_optimize_bitwise(self, cesium_h, cesium_zsys):
        from rydoct import RegisterSpec, encode

        dt = 413.41373333565624
        guess = half_cycle_pulse(
            peak=1.9446903811498665e-07,
            width=41341.37333518211,
            t_peak=0.0,
            t0=0.0,
            dt=dt,
            n_samples=801,
        )
        pen = PenaltySchedule.build(guess, base=1e8, edge_multiplier=1000.0, ramp_fraction=0.05)
        reg = RegisterSpec.from_names(REGISTER_NAMES, marked="26p")
        psi0 = encode(reg, cesium_h)
        single = optimize(
            OctProblem(cesium_h, psi0, "26p", pen, guess, max_iterations=6, tolerance=1e-14),
            zsys=cesium_zsys,
        )
        ensemble = optimize_ensemble(
            EnsembleProblem(
                hamiltonian=cesium_h,
                members=[EnsembleMember(psi0=psi0, target=StateLabel.parse("26p"))],
                penalty=pen,
                guess=guess,
                max_iterations=6,
                tolerance=1e-14,
            ),
            zsys=cesium_zsys,
        )
        assert np.array_equal(single.field.samples, ensemble.field.samples)
        assert np.array_equal(single.j_history, ensemble.j_history)
        assert np.array_equal(single.delta3_history, ensemble.delta3_history)
        assert np.array_equal(single.yield_history, ensemble.yield_history)


class TestOptimizeEnsemble:
    @pytest.fixture()
    def small_problem(self, dense3):
        guess = half_cycle_pulse(peak=0.03, width=20.0, t_peak=10.0, t0=0.0, dt=0.1, n_samples=301)
        pen = PenaltySchedule.build(guess, base=1.0, edge_multiplier=10.0, ramp_fraction=0.1)
        psi_a = np.zeros(3, complex)
        psi_a[0] = 1.0
        psi_b = np.zeros(3, complex)
        psi_b[1] = 1.0
        members = [
            EnsembleMember(psi0=WavePacket(psi_a), target=StateLabel(2, 1)),
            EnsembleMember(psi0=WavePacket(psi_b), target=StateLabel(1, 0)),
        ]
        return EnsembleProblem(
            hamiltonian=dense3,
            members=members,
            penalty=pen,
            guess=guess,
            max_iterations=12,
            tolerance=1e-16,
        )

    def test_marked_bit_outside_register_rejected(self, dense3, small_problem):
        orbitals = dense3.labels[:2]
        pen, guess = small_problem.penalty, small_problem.guess
        with pytest.raises(InvalidSpecError, match="not a register orbital"):
            register_ensemble_problem(dense3, orbitals, [dense3.labels[2]], pen, guess)

    def test_zero_iterations_reports_guess(self, dense3, small_problem):
        small_problem.max_iterations = 0
        zsys = precompute_z_eigensystem(dense3)
        result = optimize_ensemble(small_problem, zsys=zsys)
        assert result.iterations == 0
        assert len(result.j_history) == 0
        assert np.array_equal(result.field.samples, small_problem.guess.samples)
        assert len(result.guess_yields) == 2

    def test_member_independence_replay(self, dense3, small_problem):
        zsys = precompute_z_eigensystem(dense3)
        result = optimize_ensemble(small_problem, zsys=zsys)
        for member, final in zip(small_problem.members, result.final_states.T):
            _, replay = propagate(member.psi0, result.field, dense3, zsys, record=None)
            assert np.max(np.abs(replay.amplitudes - final)) < 1e-10

    def test_cost_charged_once(self, dense3, small_problem):
        from rydoct.control import evaluate_cost

        zsys = precompute_z_eigensystem(dense3)
        result = optimize_ensemble(small_problem, zsys=zsys)
        reconstructed = result.yield_history.sum(axis=1) - result.cost_history
        np.testing.assert_allclose(result.j_history, reconstructed, rtol=1e-12)
        # Final cost agrees with an independent evaluation on the final field.
        assert result.cost_history[-1] == pytest.approx(
            evaluate_cost(result.field, small_problem.penalty), rel=1e-12
        )

    def test_product_fidelity_history(self, tmp_path):
        manifest = parse_manifest(tiny_manifest_dict(str(tmp_path)))
        run("optimize-universal", manifest, tmp_path)
        with open(tmp_path / "history.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == manifest.oct["max_iterations"]
        members = [f"yield_{bit}" for bit in manifest.register["ensemble_marked"]]
        np.testing.assert_allclose(
            [float(row["product_fidelity"]) for row in rows],
            np.prod([[float(row[name]) for name in members] for row in rows], axis=1),
            rtol=1e-12,
        )

    def test_unnormalized_member_rejected(self, dense3, small_problem):
        # The engine runs the guess through `propagate`, which takes
        # normalized states only: one member off is enough, one target too.
        zsys = precompute_z_eigensystem(dense3)
        kept = small_problem.members[1]
        doubled = WavePacket(2.0 * kept.psi0.amplitudes)
        small_problem.members[1] = EnsembleMember(psi0=doubled, target=kept.target)
        with pytest.raises(InvalidSpecError, match="normalized"):
            optimize_ensemble(small_problem, zsys=zsys)
        penalty, guess = small_problem.penalty, small_problem.guess
        single = OctProblem(dense3, doubled, kept.target, penalty, guess)
        with pytest.raises(InvalidSpecError, match="normalized"):
            optimize(single, zsys=zsys)

    def test_summed_objective_monotone(self, dense3, small_problem):
        # Where the per-step field changes are well resolved by the time
        # step, the summed objective never drops past rounding slack.
        small_problem.max_iterations = 60
        zsys = precompute_z_eigensystem(dense3)
        result = optimize_ensemble(small_problem, zsys=zsys)
        full = np.concatenate([[result.guess_j], result.j_history])
        assert np.min(np.diff(full)) >= -1e-9
        assert result.monotonic

    def test_stall_guard_for_one_member(self, dense3):
        guess = PulseGrid.zeros(0.0, 0.1, 101)
        pen = PenaltySchedule.build(guess, base=1.0)
        psi_a = np.zeros(3, complex)
        psi_a[0] = 1.0
        members = [
            EnsembleMember(psi0=WavePacket(psi_a.copy()), target=StateLabel(1, 0)),
            EnsembleMember(psi0=WavePacket(psi_a.copy()), target=StateLabel(2, 1)),
        ]
        problem = EnsembleProblem(
            hamiltonian=dense3,
            members=members,
            penalty=pen,
            guess=guess,
            max_iterations=1,
            tolerance=1e-16,
        )
        zsys = precompute_z_eigensystem(dense3)
        with pytest.warns(UserWarning, match="bump"):
            optimize_ensemble(problem, zsys=zsys)

    def test_problem_validation(self, dense3):
        guess = PulseGrid.zeros(0.0, 0.1, 51)
        pen = PenaltySchedule.build(guess, base=1.0)
        with pytest.raises(InvalidSpecError):
            EnsembleProblem(
                hamiltonian=dense3,
                members=[],
                penalty=pen,
                guess=guess,
                )
        psi = WavePacket(np.array([1.0 + 0j, 0.0, 0.0]))
        duplicated = [
            EnsembleMember(psi0=psi, target=StateLabel(2, 1)),
            EnsembleMember(psi0=psi, target=StateLabel(2, 1)),
        ]
        with pytest.raises(InvalidSpecError):
            EnsembleProblem(
                hamiltonian=dense3,
                members=duplicated,
                penalty=pen,
                guess=guess,
                )
        # Both are caught at construction, before any propagation.
        member = [EnsembleMember(psi0=psi, target=StateLabel(2, 1))]
        for mode in ("newton", "add"):
            with pytest.raises(InvalidSpecError, match="update mode"):
                EnsembleProblem(dense3, member, pen, guess, update_mode=mode)
        outside = [EnsembleMember(psi0=psi, target=StateLabel(9, 0))]
        with pytest.raises(InvalidSpecError, match="not in the basis"):
            EnsembleProblem(dense3, outside, pen, guess)


class TestDecodeTest:
    def test_zero_field_fails_everywhere(self, cesium_h, cesium_zsys):
        pulse = PulseGrid.zeros(0.0, 413.41, 101)
        table = decode_test(pulse, REGISTER_NAMES, cesium_h, cesium_zsys)
        assert len(table) == 6
        for row in table:
            assert not row["success"]
            for pop in row["populations"].values():
                assert pop == pytest.approx(1.0 / 6.0, abs=1e-10)
