"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints one PASS line with the measured numbers (run with -s or -rA
to see them).  The two optimization runs come from the manifests shipped in
manifests/, which are also the documented CLI entry points.
"""

import csv
import dataclasses
import json
import time
import warnings
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from rydoct import (
    PulseGrid,
    RegisterSpec,
    StateLabel,
    WavePacket,
    decode_test,
    encode,
    optimize_ensemble,
    precompute_z_eigensystem,
    propagate,
    quantum_defect_energy,
    register_ensemble_problem,
    spectrum,
)
from rydoct.atomic import dipole_matrix_element
from rydoct.manifest import build_guess_pulse, build_penalty, load_manifest, parse_manifest, run
from tests.conftest import MANIFEST_DIR
from tests.reference_radial import find_coulomb_eigenvalue


def _report(criterion: int, text: str) -> None:
    print(f"\n[ACCEPTANCE] criterion {criterion}: PASS - {text}")


@pytest.fixture(scope="module")
def single_manifest():
    manifest = load_manifest(MANIFEST_DIR / "single_target.json")
    # The shipped manifest must describe the same basis the session fixture
    # builds, so the expensive Hamiltonian can be shared.
    assert manifest.basis["n_min"] == 21
    assert manifest.basis["n_max"] == 31
    assert manifest.basis["l_max"] == 5
    return manifest


@pytest.fixture(scope="module")
def single_run(single_manifest, cesium_h, tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_single")
    start = time.perf_counter()
    result = run("optimize", single_manifest, out, h=cesium_h)
    result["elapsed"] = time.perf_counter() - start
    result["out"] = out
    return result


@pytest.fixture(scope="module")
def universal_run(cesium_h, tmp_path_factory):
    manifest = load_manifest(MANIFEST_DIR / "universal.json")
    out = tmp_path_factory.mktemp("acceptance_universal")
    start = time.perf_counter()
    result = run("optimize-universal", manifest, out, h=cesium_h)
    result["elapsed"] = time.perf_counter() - start
    result["out"] = out
    return result


def test_criterion_01_propagator_oracle(dense8):
    zsys = precompute_z_eigensystem(dense8)
    e_field = 0.37
    total_t = 10.0
    rng = np.random.default_rng(7)
    psi0 = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi0 /= np.linalg.norm(psi0)
    exact = expm(-1j * (np.diag(dense8.energies) + e_field * dense8.z_matrix) * total_t) @ psi0

    start = time.perf_counter()
    errors = []
    for steps in (8000, 16000):
        pulse = PulseGrid(0.0, total_t / steps, np.full(steps + 1, e_field))
        _, final = propagate(WavePacket(psi0), pulse, dense8, zsys, record=None)
        errors.append(float(np.max(np.abs(final.amplitudes - exact))))
    elapsed = time.perf_counter() - start

    order = float(np.log2(errors[0] / errors[1]))
    # The bound dates from a fixture that broke the dipole rule (error
    # 9.0e-9); this s-p z gives 2.9e-9 (see test_propagation's oracle test).
    assert errors[1] <= 1e-8
    assert 1.9 <= order <= 2.1
    assert elapsed < 1.0
    _report(1, f"max error {errors[1]:.2e}, order {order:.3f}, {elapsed:.2f} s")


def test_criterion_02_unitarity_production_basis(full_h):
    zsys = precompute_z_eigensystem(full_h)
    psi = np.zeros((full_h.dim, 1), dtype=complex)
    psi[full_h.index("26p")] = 1.0
    e_field = 1.9446903811498665e-07
    # 1e4 steps; the last sample is not consumed by any step.
    pulse = PulseGrid(0.0, 413.41373333565624, e_field * np.sin(0.01 * np.arange(10_001)))

    start = time.perf_counter()
    _, final = propagate(WavePacket(psi), pulse, full_h, zsys, record=None)
    elapsed = time.perf_counter() - start

    drift = abs(np.linalg.norm(final.amplitudes) - 1.0)
    assert drift <= 1e-10
    assert elapsed < 10.0
    _report(2, f"{full_h.dim}-state basis, 1e4 steps, norm drift {drift:.2e}, {elapsed:.1f} s")


def test_criterion_03_krotov_monotonicity(single_run):
    result = single_run["result"]
    assert result.iterations == 50
    assert single_run["elapsed"] < 300.0
    full_j = np.concatenate([[result.guess_j], result.j_history])
    worst_drop = float(np.min(np.diff(full_j)))
    assert worst_drop >= -1e-9
    worst_delta3 = float(np.max(np.abs(result.delta3_history)))
    assert worst_delta3 <= 1e-10
    _report(
        3,
        f"50 iterations, min dJ {worst_drop:.2e} (>= -1e-9), "
        f"max |delta3| {worst_delta3:.1e}, {single_run['elapsed']:.0f} s",
    )


def test_criterion_04_single_target_decode(single_run):
    result = single_run["result"]
    baseline = 1.0 / 6.0
    assert result.iterations <= 100
    assert result.final_yield > baseline
    assert result.final_yield > result.guess_yield
    assert result.final_yield >= 0.40
    _report(
        4,
        f"marked-bit yield {result.final_yield:.3f} >= 0.40 "
        f"(baseline {baseline:.3f}, guess pulse {result.guess_yield:.3f})",
    )


def test_criterion_05_universal_decoder(universal_run):
    assert universal_run["elapsed"] < 1200.0
    assert universal_run["metrics"]["decode_accuracy"] == 4
    interior = {"25p", "26p", "27p", "28p"}
    rows = [row for row in universal_run["decode_table"] if row["marked"] in interior]
    assert len(rows) == 4
    for row in rows:
        assert row["success"], f"marked bit {row['marked']} not decoded"
        marked_pop = row["populations"][row["marked"]]
        for name, pop in row["populations"].items():
            if name != row["marked"]:
                assert marked_pop > pop
    yields = {row["marked"]: row["populations"][row["marked"]] for row in rows}
    _report(
        5,
        f"4/4 marked bits decoded, populations "
        f"{ {k: round(v, 3) for k, v in sorted(yields.items())} }, "
        f"{universal_run['elapsed']:.0f} s",
    )


def test_universal_objective_monotone(universal_run):
    # The shipped universal run keeps J monotone up to its 100-iteration
    # cap, with the slack of criterion 03.
    with open(universal_run["out"] / "history.csv", newline="") as fh:
        j_values = np.array([float(row["J"]) for row in csv.DictReader(fh)])
    assert len(j_values) == 100
    assert np.min(np.diff(j_values)) >= -1e-9
    assert universal_run["metrics"]["monotonic"]
    assert universal_run["metrics"]["first_decrease_iteration"] is None


@contextmanager
def _unguarded():
    """The update without its guard, for comparison: the guard's curvature
    mask, which the update sweep builds with `np.repeat`, is all zeros, so
    that q_j = 0 >= -l_j dt at every step.  Yields a list that gains one
    entry per mask built."""
    built = []

    def zeros(a, repeats):
        built.append(repeats)
        return np.zeros(np.size(a) * repeats, dtype=np.result_type(a))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "repeat", zeros)
        yield built


def _assert_monotone(result):
    # With the slack of criterion 03, and delta3 at its bound.
    j_values = np.concatenate([[result.guess_j], result.j_history])
    assert np.min(np.diff(j_values)) >= -1e-9
    assert result.monotonic and result.first_decrease_iteration is None
    assert np.max(np.abs(result.delta3_history)) <= 1e-10


def _assert_members_decode(problem, result, h, zsys):
    orbitals = load_manifest(MANIFEST_DIR / "universal.json").register["orbitals"]
    table = {row["marked"]: row for row in decode_test(result.field, orbitals, h, zsys)}
    assert all(table[str(m.target)]["success"] for m in problem.members)


def _universal_problem(cesium_h, **changes):
    """The shipped universal problem, with `pulse` and `oct` keys changed."""
    data = json.loads((MANIFEST_DIR / "universal.json").read_text())
    for key, value in changes.items():
        data["pulse" if key == "dt" else "oct"][key] = value
    manifest = parse_manifest(data)
    guess = build_guess_pulse(manifest)
    return register_ensemble_problem(
        cesium_h,
        manifest.register["orbitals"],
        manifest.register["ensemble_marked"],
        build_penalty(manifest, guess),
        guess,
        max_iterations=manifest.oct["max_iterations"],
        tolerance=manifest.oct["tolerance"],
    )


def test_guard_leaves_a_run_where_it_never_fires_byte_identical(
    single_manifest, single_run, universal_run, cesium_h, tmp_path
):
    # On the shipped single-target run every step's curvature stays above
    # -l_j dt, so the guarded run is the plain rule's bit for bit; on the
    # universal run it fires, and the fields differ.
    universal_manifest = load_manifest(MANIFEST_DIR / "universal.json")
    with _unguarded() as built:
        plain = run("optimize", single_manifest, tmp_path / "single", h=cesium_h)["result"]
        plain_universal = run(
            "optimize-universal", universal_manifest, tmp_path / "universal", h=cesium_h
        )["result"]
    assert len(built) == plain.iterations + plain_universal.iterations
    guarded = single_run["result"]
    assert plain.field.samples.tobytes() == guarded.field.samples.tobytes()
    for name in (f.name for f in dataclasses.fields(guarded) if f.name != "field"):
        assert np.asarray(getattr(plain, name)).tobytes() == np.asarray(
            getattr(guarded, name)
        ).tobytes(), name
    assert not np.array_equal(
        plain_universal.field.samples, universal_run["result"].field.samples
    )


def test_universal_stays_monotone_to_200_iterations(universal_run, cesium_h, cesium_zsys):
    # The plain rule, without the guard, first drops at iteration 102.  The
    # guarded run, continued from the shipped run's field to 200
    # iterations, keeps J monotone and still decodes every member.
    first = universal_run["result"]
    problem = replace(_universal_problem(cesium_h), guess=first.field)
    result = optimize_ensemble(problem, zsys=cesium_zsys)
    assert result.iterations == 100
    assert result.guess_j == first.j_history[-1]
    _assert_monotone(result)
    _assert_members_decode(problem, result, cesium_h, cesium_zsys)


def test_universal_at_20_fs_stays_monotone(cesium_h, cesium_zsys):
    # At twice the shipped time step the plain rule's J drops from
    # iteration 4 on; the guarded run stays monotone to the shipped cap
    # and decodes every member.
    problem = _universal_problem(cesium_h, dt="20 fs")
    result = optimize_ensemble(problem, zsys=cesium_zsys)
    assert result.iterations == 100
    _assert_monotone(result)
    _assert_members_decode(problem, result, cesium_h, cesium_zsys)
    with _unguarded():
        plain = optimize_ensemble(replace(problem, max_iterations=10), zsys=cesium_zsys)
    assert not plain.monotonic


def test_guarded_loop_does_not_amplify_rounding(cesium_h, cesium_zsys):
    # Members 25p-28p under the single-target guess and base 1e8: without
    # the guard J ran away to -58 by iteration 20, and a change of 1e-13
    # of the guess grew to 1.4e-3 of the field's peak.  With it, J is
    # monotone and the change stays at rounding level.
    manifest = load_manifest(MANIFEST_DIR / "single_target.json")
    guess = build_guess_pulse(manifest)
    penalty = build_penalty(manifest, guess)
    assert penalty.base == 1e8
    problem = register_ensemble_problem(
        cesium_h,
        manifest.register["orbitals"],
        ["25p", "26p", "27p", "28p"],
        penalty,
        guess,
        max_iterations=20,
        tolerance=0.0,
    )
    result = optimize_ensemble(problem, zsys=cesium_zsys)
    assert result.iterations == 20
    _assert_monotone(result)
    nudged = guess.with_samples(guess.samples * (1.0 + 1e-13))
    other = optimize_ensemble(replace(problem, guess=nudged), zsys=cesium_zsys)
    peak = np.max(np.abs(result.field.samples))
    assert np.max(np.abs(other.field.samples - result.field.samples)) <= 1e-10 * peak


@pytest.mark.parametrize("manifest_name", ["single_target.json", "universal.json"])
def test_zero_field_is_a_near_fixed_point(manifest_name, cesium_h, cesium_zsys):
    # Every register orbital and target is a p state and z has no p-p
    # elements, so from E = 0 the update's overlap is zero in exact
    # arithmetic.  It is summed in z's eigenbasis, where those zeros are
    # not exact: one iteration gives max|E| 5.6e-22 a.u. on the single-
    # target register and 4.4e-22 a.u. on the four universal members.
    manifest = load_manifest(MANIFEST_DIR / manifest_name)
    marked = manifest.register.get("ensemble_marked") or [manifest.register["marked"]]
    guess = PulseGrid.zeros(0.0, manifest.pulse["dt"], len(build_guess_pulse(manifest).samples))
    problem = register_ensemble_problem(
        cesium_h,
        manifest.register["orbitals"],
        marked,
        build_penalty(manifest, guess),
        guess,
        max_iterations=1,
    )
    with warnings.catch_warnings():
        # The stall bump announces itself with a warning.
        warnings.simplefilter("error")
        result = optimize_ensemble(problem, zsys=cesium_zsys)
    assert result.iterations == 1
    assert np.max(np.abs(result.field.samples)) <= 1e-18
    assert abs(result.j_history[0] - result.guess_j) <= 1e-12


def test_criterion_06_single_target_pulse_not_universal(single_run, cesium_h, cesium_zsys):
    field = single_run["result"].field
    others = ["25p", "27p", "28p"]
    table = decode_test(field, ["24p", "25p", "26p", "27p", "28p", "29p"], cesium_h, cesium_zsys)
    failures = [row["marked"] for row in table if row["marked"] in others and not row["success"]]
    assert len(failures) >= 1
    _report(6, f"single-target pulse fails on {failures} of {others}")


def test_criterion_07_field_smoothness(single_run):
    field = single_run["result"].field
    peak = float(np.max(np.abs(field.samples)))
    start_frac = abs(field.samples[0]) / peak
    end_frac = abs(field.samples[-1]) / peak
    assert start_frac <= 0.01
    assert end_frac <= 0.01
    _report(7, f"endpoint/peak fractions {start_frac:.2e}, {end_frac:.2e} (<= 1e-2)")


def test_criterion_08_hydrogen_checks(default_grid):
    dip = dipole_matrix_element(StateLabel(1, 0), StateLabel(2, 1), {}, default_grid)
    assert dip == pytest.approx(0.7449, abs=1e-4)
    for n in range(1, 11):
        for l in range(n):
            assert quantum_defect_energy(n, l, {}) == pytest.approx(
                -1.0 / (2.0 * n * n), abs=1e-8
            )
    # Independent eigenvalue search agrees at the Rydberg scale.
    shot = find_coulomb_eigenvalue(
        1, 24, default_grid, -1.0 / (2 * 25.5**2), -1.0 / (2 * 26.5**2)
    )
    assert shot == pytest.approx(-1.0 / 1352.0, abs=1e-8)
    _report(8, f"<1s|z|2p> = {dip:.6f}, zero-defect energies exact, shooting check {shot:.3e}")


def test_criterion_09_spectrum_and_parseval():
    dt = 0.05
    n = 4096
    omega0 = 1.3
    t = dt * np.arange(n)
    pulse = PulseGrid(0.0, dt, np.sin(omega0 * t) * np.exp(-((t - 100) ** 2) / 2000))
    spec = spectrum(pulse)
    peak = spec.frequencies[int(np.argmax(spec.magnitudes))]
    bin_width = spec.frequencies[1] - spec.frequencies[0]
    assert abs(peak - omega0) <= bin_width
    direct = float(np.sum(pulse.samples**2) * dt)
    rel = abs(spec.fluence() - direct) / direct
    assert rel <= 1e-10
    _report(9, f"carrier recovered within one bin ({bin_width:.2e}), Parseval residual {rel:.1e}")


def test_criterion_10_ensemble_reduction_bitwise(cesium_h, cesium_zsys):
    from rydoct import (
        EnsembleMember,
        EnsembleProblem,
        OctProblem,
        OctResult,
        PenaltySchedule,
        optimize,
        optimize_ensemble,
    )
    from rydoct.pulses import half_cycle_pulse

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
    names = ["24p", "25p", "26p", "27p", "28p", "29p"]
    psi0 = encode(RegisterSpec.from_names(names, marked="26p"), cesium_h)
    single = optimize(
        OctProblem(cesium_h, psi0, "26p", pen, guess, max_iterations=4, tolerance=1e-14),
        zsys=cesium_zsys,
    )
    ensemble = optimize_ensemble(
        EnsembleProblem(
            hamiltonian=cesium_h,
            members=[EnsembleMember(psi0=psi0, target=StateLabel.parse("26p"))],
            penalty=pen,
            guess=guess,
            max_iterations=4,
            tolerance=1e-14,
        ),
        zsys=cesium_zsys,
    )
    assert np.array_equal(single.field.samples, ensemble.field.samples)
    for name in (f.name for f in dataclasses.fields(OctResult) if f.name != "field"):
        assert np.array_equal(getattr(single, name), getattr(ensemble, name)), name
    _report(10, "one-member ensemble reproduces the single-target run bit for bit")


def test_criterion_11_basis_retention_diagnostic(single_run):
    # Observational: the fraction of population sitting on the boundary
    # shells at the end of the optimized pulse is reported, not gated.
    metrics = single_run["metrics"]
    retained = 1.0 - metrics["boundary_shell_population"]
    assert 0.0 <= metrics["boundary_shell_population"] <= 1.0
    assert "boundary_shell_population" in metrics
    _report(
        11,
        f"interior-basis retention {retained:.4f} "
        f"(boundary-shell population {metrics['boundary_shell_population']:.4f}; observational)",
    )
