import csv
import dataclasses
import json
from dataclasses import replace

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
from rydoct import control
from rydoct.cli import main
from rydoct.control import _costate_sweep, _update_sweep, _work_arrays
from rydoct.manifest import parse_manifest, run
from rydoct.propagation import SplitStepKernel
from rydoct.pulses import half_cycle_pulse
from tests import reference_sweeps as ref
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


class TestEnsembleUpdate:
    """The new samples of the engine's update sweep: at each step the sum of
    the members' overlaps Im <D lam_i| z |D psi_i> over the penalty, each
    member under the costates that the engine's costate sweep takes from its
    terminal costate under the old field."""

    @pytest.fixture()
    def sweep(self, dense3):
        zsys = precompute_z_eigensystem(dense3)
        kernel = SplitStepKernel(dense3, zsys, 0.1)
        t = 0.1 * np.arange(41)
        pulse = PulseGrid(0.0, 0.1, 0.4 * np.sin(0.3 * t) + 0.1)
        penalty = PenaltySchedule.build(pulse, base=2.5, edge_multiplier=10.0, ramp_fraction=0.1)

        def run(states, lam_finals):
            work = _work_arrays(pulse.n_steps, dense3.dim, len(states))
            kernel.phase_table(pulse.samples, out=work[2])
            coeffs = _costate_sweep(kernel, np.stack(lam_finals, axis=1), pulse.samples, work)
            psi0 = np.stack(states, axis=1)
            return _update_sweep(kernel, psi0, coeffs, pulse, penalty, *work[1:])[0]

        return run, pulse, penalty, zsys

    def test_single_member_reduction(self, dense3, sweep):
        # Every sample against the oracle sweep, whose overlap is taken in
        # the basis from the costates of its own backward sweep.
        run, pulse, penalty, zsys = sweep
        (lam,), (psi,) = random_states(3, 1, 1), random_states(3, 1, 2)
        costates = ref.backward_propagate(WavePacket(lam), pulse, dense3, zsys)
        expected, _, _ = ref._sweep([psi], [costates], pulse, penalty, dense3, zsys)
        samples = run([psi], [lam])
        scale = np.max(np.abs(expected))
        np.testing.assert_allclose(samples, expected, rtol=1e-12, atol=1e-12 * scale)

    def test_opposite_members_cancel(self, sweep):
        # Under one costate, psi and -psi give opposite overlaps at every
        # step, which sum to exactly zero: every new sample is 0.0.
        run, pulse, _, _ = sweep
        lam, psi = random_states(3, 1, 3)[0], random_states(3, 1, 4)[0]
        samples = run([psi, -psi], [lam, lam])
        assert np.all(samples[:-1] == 0.0)
        assert np.any(run([psi], [lam])[:-1] != 0.0)

    def test_interleaved_opposite_members_cancel(self, sweep):
        # Four members, two opposite pairs that do not sit side by side:
        # psi and -psi under one costate, phi and -phi under another.  The
        # overlap is summed over every member and eigenvalue at once, and
        # the four members' products still cancel exactly: every new
        # sample is 0.0.
        run, pulse, _, _ = sweep
        lam, mu = random_states(3, 2, 8)
        psi, phi = random_states(3, 2, 9)
        samples = run([psi, phi, -psi, -phi], [lam, mu, lam, mu])
        assert np.all(samples[:-1] == 0.0)
        assert np.any(run([psi, phi], [lam, mu])[:-1] != 0.0)

    def test_sum_of_independent_members(self, sweep):
        # The first sample of a block of members, before their fields part
        # ways, is the sum of those of the members swept one at a time.
        run, _, _, _ = sweep
        lams = random_states(3, 4, 6)
        psis = random_states(3, 4, 7)
        combined = run(psis, lams)[0]
        singles = sum(run([p], [l])[0] for l, p in zip(lams, psis))
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
        # member with the penalty divided by N: the problem takes members
        # that share a target.
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
        triple = optimize_ensemble(replace(problem3, members=problem3.members * 3), zsys)
        single = optimize_ensemble(problem1, zsys)
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
        problem = OctProblem(cesium_h, psi0, "26p", pen, guess, max_iterations=6, tolerance=1e-14)
        # One problem type: the single-target spelling builds the
        # one-member problem, and `optimize` is `optimize_ensemble`.
        assert isinstance(problem, EnsembleProblem)
        assert [m.target for m in problem.members] == [StateLabel(26, 1)]
        assert optimize is optimize_ensemble
        single = optimize(problem, zsys=cesium_zsys)
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

    def test_replaced_member_runs_its_own_target(self, cesium_h, cesium_zsys):
        # Each target row is looked up when the problem is built: a problem
        # remade with one member replaced drives the field bit for bit as a
        # problem built with that member from the start.
        guess = half_cycle_pulse(
            peak=1.9446903811498665e-07,
            width=41341.37333518211,
            t_peak=0.0,
            t0=0.0,
            dt=413.41373333565624,
            n_samples=801,
        )
        pen = PenaltySchedule.build(guess, base=2e8, edge_multiplier=1000.0, ramp_fraction=0.05)
        settings = dict(max_iterations=3, tolerance=1e-14)
        problem = register_ensemble_problem(
            cesium_h, REGISTER_NAMES, ["25p", "26p"], pen, guess, **settings
        )
        fresh = register_ensemble_problem(
            cesium_h, REGISTER_NAMES, ["28p", "26p"], pen, guess, **settings
        )
        members = (fresh.members[0], *problem.members[1:])
        replaced = optimize_ensemble(replace(problem, members=members), zsys=cesium_zsys)
        expected = optimize_ensemble(fresh, zsys=cesium_zsys)
        assert np.array_equal(replaced.field.samples, expected.field.samples)
        assert np.array_equal(replaced.yield_history, expected.yield_history)

    def test_appended_member_gets_a_column(self, dense3, small_problem):
        # A member appended to a remade problem is run, not dropped: M
        # members give M result columns, the new one its own final state.
        psi_c = np.zeros(3, complex)
        psi_c[2] = 1.0
        appended = EnsembleMember(psi0=WavePacket(psi_c), target=StateLabel(2, 0))
        members = (*small_problem.members, appended)
        problem = replace(small_problem, members=members, max_iterations=2)
        zsys = precompute_z_eigensystem(dense3)
        result = optimize_ensemble(problem, zsys=zsys)
        assert len(result.guess_yields) == 3
        assert result.yield_history.shape == (2, 3)
        assert result.final_states.shape == (3, 3)
        _, replay = propagate(appended.psi0, result.field, dense3, zsys, record=None)
        assert np.max(np.abs(replay.amplitudes - result.final_states[:, 2])) < 1e-10

    def test_zero_iterations_reports_guess(self, dense3, small_problem):
        zsys = precompute_z_eigensystem(dense3)
        result = optimize_ensemble(replace(small_problem, max_iterations=0), zsys=zsys)
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
        members = (small_problem.members[0], EnsembleMember(psi0=doubled, target=kept.target))
        problem = replace(small_problem, members=members)
        with pytest.raises(InvalidSpecError, match="normalized"):
            optimize_ensemble(problem, zsys=zsys)
        penalty, guess = small_problem.penalty, small_problem.guess
        single = OctProblem(dense3, doubled, kept.target, penalty, guess)
        with pytest.raises(InvalidSpecError, match="normalized"):
            optimize(single, zsys=zsys)

    def test_summed_objective_monotone(self, dense3, small_problem):
        # Where the per-step field changes are well resolved by the time
        # step, the summed objective never drops past rounding slack.
        zsys = precompute_z_eigensystem(dense3)
        result = optimize_ensemble(replace(small_problem, max_iterations=60), zsys=zsys)
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
        # Each is caught at construction, before any propagation.
        member = [EnsembleMember(psi0=psi, target=StateLabel(2, 1))]
        for mode in ("newton", "add"):
            with pytest.raises(InvalidSpecError, match="update mode"):
                EnsembleProblem(dense3, member, pen, guess, update_mode=mode)
        outside = [EnsembleMember(psi0=psi, target=StateLabel(9, 0))]
        with pytest.raises(InvalidSpecError, match="not in the basis"):
            EnsembleProblem(dense3, outside, pen, guess)


class TestFrozenProblem:
    """Every `EnsembleProblem` is valid: it is checked when it is built, and
    a changed problem is a new one, checked again."""

    @pytest.fixture()
    def parts(self, dense3):
        guess = half_cycle_pulse(peak=0.03, width=2.0, t_peak=2.0, t0=0.0, dt=0.1, n_samples=41)
        pen = PenaltySchedule.build(guess, base=1.0)
        member = EnsembleMember(psi0=WavePacket(np.array([1.0 + 0j, 0.0, 0.0])), target="2p")
        return dense3, member, pen, guess

    def test_fields_and_members_cannot_change(self, parts):
        h, member, pen, guess = parts
        problem = EnsembleProblem(h, [member], pen, guess)
        assert problem.members == (member,)
        with pytest.raises(dataclasses.FrozenInstanceError):
            problem.max_iterations = 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            problem.members = [member, member]
        with pytest.raises(AttributeError):
            problem.members.append(member)
        assert problem.members == (member,)

    def test_replace_past_the_work_memory_limit_is_rejected(self, parts, monkeypatch):
        # The limit admits one member exactly; a second one, added by
        # remaking the problem, is over it before anything is allocated.
        h, member, pen, guess = parts
        limit = guess.n_steps * h.dim * (1 + 1) * 16
        monkeypatch.setattr(control, "MAX_WORK_BYTES", limit)
        problem = EnsembleProblem(h, [member], pen, guess)
        with pytest.raises(InvalidSpecError, match=f"more than the limit of {limit} B"):
            replace(problem, members=problem.members * 2)

    @pytest.mark.parametrize("shape", [(2,), (4,), (3, 1), ()])
    def test_member_state_of_the_wrong_shape_is_rejected(self, parts, shape):
        # Before, a short state failed in the engine with an IndexError and
        # a long one with a ValueError.
        h, member, pen, guess = parts
        amplitudes = np.zeros(shape, dtype=complex)
        amplitudes.flat[:1] = 1.0
        bad = EnsembleMember(psi0=WavePacket(amplitudes), target="2p")
        with pytest.raises(InvalidSpecError, match=rf"member 1's state has shape .*\(3,\)"):
            EnsembleProblem(h, [member, bad], pen, guess)

    def test_repeated_targets_are_accepted(self, parts):
        # However the target is spelled, one row: both members run, and as
        # copies of one member their columns agree bit for bit.
        h, member, pen, guess = parts
        twin = EnsembleMember(psi0=member.psi0, target=StateLabel(2, 1))
        problem = EnsembleProblem(h, [member, twin], pen, guess, max_iterations=2)
        result = optimize_ensemble(problem)
        assert result.final_states.shape == (3, 2)
        assert np.array_equal(result.final_states[:, 0], result.final_states[:, 1])
        assert np.array_equal(result.yield_history[:, 0], result.yield_history[:, 1])

    def test_register_problem_rejects_a_repeated_bit(self, cesium_h):
        guess = PulseGrid.zeros(0.0, 413.41, 11)
        pen = PenaltySchedule.build(guess, base=1e8)
        for bits in (["26p", "26p"], ["26p", "25p", StateLabel(26, 1)]):
            with pytest.raises(InvalidSpecError, match="marked bit 26p is listed twice"):
                register_ensemble_problem(cesium_h, REGISTER_NAMES, bits, pen, guess)

    def test_repeated_ensemble_bit_is_one_json_error(self, tmp_path, capsys):
        data = tiny_manifest_dict(str(tmp_path / "out"))
        data["register"]["ensemble_marked"] = ["24p", "25p", "24p"]
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps(data))
        code = main(["optimize-universal", "--manifest", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        (line,) = err.strip().splitlines()
        payload = json.loads(line)
        assert payload == {
            "error": "InvalidSpecError",
            "message": "marked bit 24p is listed twice",
        }
        assert not (tmp_path / "out" / "summary.json").exists()


class TestDecodeTest:
    def test_zero_field_fails_everywhere(self, cesium_h, cesium_zsys):
        pulse = PulseGrid.zeros(0.0, 413.41, 101)
        table = decode_test(pulse, REGISTER_NAMES, cesium_h, cesium_zsys)
        assert len(table) == 6
        for row in table:
            assert not row["success"]
            for pop in row["populations"].values():
                assert pop == pytest.approx(1.0 / 6.0, abs=1e-10)
