import math

import numpy as np
import pytest

from rydoct import (
    BasisSpec,
    CESIUM_DEFECTS,
    ConvergenceError,
    GridExtentError,
    InvalidSpecError,
    RadialGrid,
    StateLabel,
    ValidationError,
    build_hamiltonian,
    dipole_matrix_element,
    load_hamiltonian,
    quantum_defect_energy,
    save_hamiltonian,
    solve_radial,
)
from rydoct.atomic import angular_dipole_factor, solve_radial_batch
from tests import reference_radial
from tests.reference_radial import find_coulomb_eigenvalue


class TestQuantumDefectEnergy:
    def test_hydrogen_n2(self):
        assert quantum_defect_energy(2, 1, {}) == -0.125

    def test_hydrogen_n26(self):
        assert quantum_defect_energy(26, 1, {}) == pytest.approx(-1.0 / 1352.0, rel=1e-14)

    def test_defect_shifts_energy(self):
        nu = 26 - 3.59
        assert quantum_defect_energy(26, 1, {1: 3.59}) == pytest.approx(
            -1.0 / (2.0 * nu * nu), rel=1e-14
        )
        assert quantum_defect_energy(26, 1, {1: 3.59}) == pytest.approx(-9.956e-4, rel=1e-3)

    def test_unbound_raises(self):
        with pytest.raises(InvalidSpecError):
            quantum_defect_energy(3, 0, {0: 3.5})


class TestBasisSpec:
    def test_counting_small(self):
        assert len(BasisSpec(24, 29, 2).states()) == 12

    def test_l_truncated_by_n(self):
        # n=2 only supports l<2 even if l_max is larger.
        states = BasisSpec(1, 3, 17).states()
        assert StateLabel(1, 0) in states
        assert len([s for s in states if s.n == 2]) == 2
        assert len(states) == 1 + 2 + 3

    def test_defect_validation(self):
        with pytest.raises(InvalidSpecError):
            BasisSpec(3, 5, 2, {0: 3.5})
        with pytest.raises(InvalidSpecError):
            BasisSpec(3, 5, 2, {0: -0.1})
        with pytest.raises(InvalidSpecError):
            BasisSpec(5, 3, 2)

    def test_negative_l_defect_rejected(self):
        # No state has l < 0, so such a defect can only be a mistake.
        with pytest.raises(InvalidSpecError, match="negative l=-1"):
            BasisSpec(3, 5, 2, {-1: 0.5})


class TestStateLabel:
    def test_round_trip(self):
        for text in ("1s", "26p", "21d", "30v", "23(l=21)", "40(l=30)"):
            assert str(StateLabel.parse(text)) == text
        for l in range(30):
            assert StateLabel.parse(str(StateLabel(31, l))) == StateLabel(31, l)

    def test_invalid(self):
        with pytest.raises(InvalidSpecError):
            StateLabel.parse("26j")
        # Only the l without a letter have the "(l=...)" form.
        with pytest.raises(InvalidSpecError):
            StateLabel.parse("26(l=1)")
        with pytest.raises(InvalidSpecError):
            StateLabel(2, 2)


class TestSolveRadial:
    def test_hydrogen_ground_state(self, default_grid):
        sol = solve_radial(1, 0, {}, default_grid)
        assert sol.nodes == 0
        analytic = 2.0 * default_grid.r * np.exp(-default_grid.r)
        assert np.max(np.abs(sol.u - analytic)) < 1e-6
        r_mean = np.trapezoid(sol.u**2 * default_grid.r, default_grid.r)
        assert r_mean == pytest.approx(1.5, abs=1e-6)

    def test_hydrogen_3p_expectation(self, default_grid):
        sol = solve_radial(3, 1, {}, default_grid)
        assert sol.nodes == 1
        r_mean = np.trapezoid(sol.u**2 * default_grid.r, default_grid.r)
        # (3 n^2 - l(l+1)) / 2 for hydrogen.
        assert r_mean == pytest.approx(12.5, abs=1e-3)

    def test_defect_state_energy_matches_formula(self, default_grid):
        sol = solve_radial(26, 1, {1: 3.59}, default_grid)
        assert sol.energy == pytest.approx(quantum_defect_energy(26, 1, {1: 3.59}), abs=1e-12)

    @pytest.mark.parametrize("n", range(21, 26))
    @pytest.mark.parametrize("l", range(5))
    def test_node_count_law_hydrogenic(self, default_grid, n, l):
        assert solve_radial(n, l, {}, default_grid).nodes == n - l - 1

    def test_grid_too_small(self):
        grid = RadialGrid.for_basis(10)  # extends to 250 bohr
        with pytest.raises(GridExtentError):
            solve_radial(26, 1, {}, grid)

    def test_normalization(self, default_grid):
        sol = solve_radial(24, 3, CESIUM_DEFECTS, default_grid)
        assert np.trapezoid(sol.u**2, default_grid.r) == pytest.approx(1.0, abs=1e-10)


class TestEigenvalueSearch:
    @pytest.mark.parametrize(
        "n,l", [(1, 0), (2, 0), (2, 1), (3, 1)],
    )
    def test_hydrogen_eigenvalues(self, default_grid, n, l):
        # Deeply bound states sample the mesh origin, so the meaningful
        # tolerance is relative; the Rydberg case below holds 1e-8 absolute.
        exact = -1.0 / (2.0 * n * n)
        found = find_coulomb_eigenvalue(
            l, n - l - 1, default_grid, exact * 1.25, exact * 0.8
        )
        assert found == pytest.approx(exact, rel=1e-6)

    def test_high_n_eigenvalue(self, default_grid):
        found = find_coulomb_eigenvalue(
            1, 24, default_grid, -1.0 / (2 * 25.5**2), -1.0 / (2 * 26.5**2)
        )
        assert found == pytest.approx(-1.0 / 1352.0, abs=1e-8)

    def test_bracket_without_root_raises(self, default_grid):
        with pytest.raises(ConvergenceError):
            find_coulomb_eigenvalue(1, 2, default_grid, -1 / (2 * 3.4**2), -1 / (2 * 3.6**2))


class TestDipoleMatrixElements:
    def test_hydrogen_1s_2p(self, default_grid):
        value = dipole_matrix_element(StateLabel(1, 0), StateLabel(2, 1), {}, default_grid)
        assert value == pytest.approx(0.7449, abs=1e-4)

    def test_selection_rule_structural_zero(self, default_grid):
        assert dipole_matrix_element(StateLabel(24, 1), StateLabel(26, 1), {}, default_grid) == 0.0
        assert dipole_matrix_element(StateLabel(24, 1), StateLabel(26, 3), {}, default_grid) == 0.0

    @pytest.mark.parametrize("l", range(6))
    def test_angular_factor_against_quadrature(self, l):
        # Independent oracle: Gauss-Legendre integration of the normalized
        # Legendre polynomials against cos(theta); exact for polynomials.
        from numpy.polynomial.legendre import Legendre, leggauss

        x, weights = leggauss(50)
        p_l = Legendre.basis(l)(x) * math.sqrt((2 * l + 1) / 2.0)
        p_l1 = Legendre.basis(l + 1)(x) * math.sqrt((2 * l + 3) / 2.0)
        integral = float(np.sum(weights * p_l1 * x * p_l))
        assert angular_dipole_factor(l) == pytest.approx(integral, abs=1e-12)

    def test_angular_factor_s_to_p(self):
        assert angular_dipole_factor(0) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-14)

    def test_grid_refinement_stability(self):
        coarse = RadialGrid.for_basis(27, n_points=10000)
        fine = RadialGrid.for_basis(27, n_points=20000)
        pairs = [
            (StateLabel(24, 1), StateLabel(24, 2)),
            (StateLabel(25, 1), StateLabel(26, 0)),
            (StateLabel(26, 1), StateLabel(27, 2)),
            (StateLabel(24, 3), StateLabel(25, 4)),
        ]
        for a, b in pairs:
            d_c = dipole_matrix_element(a, b, CESIUM_DEFECTS, coarse)
            d_f = dipole_matrix_element(a, b, CESIUM_DEFECTS, fine)
            assert abs(d_c - d_f) / abs(d_f) < 1e-5


class TestBuildHamiltonian:
    def test_small_count(self, default_grid):
        h = build_hamiltonian(BasisSpec(24, 29, 2), default_grid)
        assert h.dim == 12

    def test_production_scale_count(self, full_h):
        # 11 n-shells x 17 l-values; every state has l < min(n, 17).
        assert full_h.dim == 187

    def test_symmetric_and_selection_sparse(self, cesium_h):
        assert np.array_equal(cesium_h.z_matrix, cesium_h.z_matrix.T)
        for i, a in enumerate(cesium_h.labels):
            for j, b in enumerate(cesium_h.labels):
                if abs(a.l - b.l) != 1:
                    assert cesium_h.z_matrix[i, j] == 0.0

    def test_energies_negative_and_aligned(self, cesium_h):
        assert np.all(cesium_h.energies < 0)
        for label, energy in zip(cesium_h.labels, cesium_h.energies):
            expected = quantum_defect_energy(label.n, label.l, CESIUM_DEFECTS)
            assert energy == expected

    def test_labels_unique(self, cesium_h):
        assert len(set(cesium_h.labels)) == cesium_h.dim


class TestBatchedBuildAgainstScalarOracle:
    """The batched build against the per-state solver it replaced, at dim 187."""

    @pytest.fixture(scope="class")
    def oracle(self, default_grid):
        return reference_radial.RadialBasisSolver(CESIUM_DEFECTS, default_grid)

    def test_radial_functions_bit_identical(self, full_h, oracle, default_grid):
        us, nodes = solve_radial_batch(full_h.labels, CESIUM_DEFECTS, default_grid)
        assert us.shape == (default_grid.n_points, full_h.dim)
        for i, s in enumerate(full_h.labels):
            expected = oracle.solution(s.n, s.l)
            assert np.array_equal(us[:, i], expected.u), s
            assert nodes[i] == expected.nodes, s
        one = solve_radial(26, 1, CESIUM_DEFECTS, default_grid)
        assert np.array_equal(one.u, oracle.solution(26, 1).u)

    def test_energies_identical(self, full_h, oracle):
        expected = [oracle.solution(s.n, s.l).energy for s in full_h.labels]
        assert np.array_equal(full_h.energies, np.array(expected))

    def test_z_matrix_matches_trapezoid_integrals(self, full_h, oracle):
        expected = np.zeros_like(full_h.z_matrix)
        for i, a in enumerate(full_h.labels):
            for j in range(i + 1, full_h.dim):
                value = reference_radial.dipole_matrix_element(a, full_h.labels[j], oracle)
                expected[i, j] = expected[j, i] = value
        assert np.array_equal(full_h.z_matrix != 0.0, expected != 0.0)
        nonzero = expected != 0.0
        rel = np.abs(full_h.z_matrix[nonzero] - expected[nonzero]) / np.abs(expected[nonzero])
        assert float(np.max(rel)) <= 1e-12

    @pytest.mark.parametrize(
        "a,b",
        [
            ((21, 0), (21, 1)),
            ((26, 1), (25, 0)),
            ((31, 2), (24, 3)),
            ((28, 4), (29, 3)),
            ((23, 10), (30, 11)),
            ((31, 16), (22, 15)),
        ],
    )
    def test_one_pair_matches_block(self, full_h, default_grid, a, b):
        a, b = StateLabel(*a), StateLabel(*b)
        value = dipole_matrix_element(a, b, CESIUM_DEFECTS, default_grid)
        entry = full_h.z_matrix[full_h.index(a), full_h.index(b)]
        assert value == pytest.approx(entry, rel=1e-13, abs=0.0)


class TestValidate:
    def test_names_first_forbidden_pair_in_row_major_order(self, default_grid):
        h = build_hamiltonian(BasisSpec(24, 26, 2), default_grid)
        # Labels 24s 24p 25s 25p 26s 26p: (24p, 25p) and (24s, 25s) are
        # forbidden; (24s, 25s) comes first in row-major order.
        for a, b in (("24p", "25p"), ("24s", "25s")):
            i, j = h.index(a), h.index(b)
            h.z_matrix[i, j] = h.z_matrix[j, i] = 0.5
        with pytest.raises(ValidationError, match=r"<24s\|z\|25s> = 0.5"):
            h.validate()


class TestHamiltonianFile:
    @pytest.fixture()
    def small_h(self, default_grid):
        return build_hamiltonian(BasisSpec(24, 26, 2, {0: 1.35}), default_grid)

    def test_round_trip_bit_exact(self, small_h, tmp_path):
        path = tmp_path / "h.txt"
        save_hamiltonian(small_h, path)
        loaded = load_hamiltonian(path)
        assert loaded.labels == small_h.labels
        assert np.array_equal(loaded.energies, small_h.energies)
        assert np.array_equal(loaded.z_matrix, small_h.z_matrix)
        assert loaded.provenance == small_h.provenance

    def test_round_trip_beyond_letters(self, tmp_path):
        # l = 21 has no spectroscopic letter; its label is written "23(l=21)".
        h = build_hamiltonian(BasisSpec(23, 23, 22), RadialGrid.for_basis(23, n_points=4000))
        assert str(h.labels[-1]) == "23(l=21)"
        path = tmp_path / "h.txt"
        save_hamiltonian(h, path)
        loaded = load_hamiltonian(path)
        assert loaded.labels == h.labels
        assert np.array_equal(loaded.energies, h.energies)
        assert np.array_equal(loaded.z_matrix, h.z_matrix)

    def test_asymmetric_entry_rejected(self, small_h, tmp_path):
        path = tmp_path / "h.txt"
        save_hamiltonian(small_h, path)
        text = path.read_text()
        # Append a contradictory transposed dipole row.
        first_dipole = text.split("[dipoles]\n")[1].splitlines()[0]
        a, b, value = first_dipole.split()
        tampered = text + f"{b} {a} {float(value) * 2!r}\n"
        bad = tmp_path / "bad.txt"
        bad.write_text(tampered)
        with pytest.raises(ValidationError, match=a):
            load_hamiltonian(bad)

    def test_missing_energy_rejected(self, small_h, tmp_path):
        path = tmp_path / "h.txt"
        save_hamiltonian(small_h, path)
        lines = path.read_text().splitlines()
        energy_start = lines.index("[energies]")
        removed = lines[energy_start + 1]
        del lines[energy_start + 1]
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match=removed.split()[0]):
            load_hamiltonian(bad)

    def test_selection_rule_violation_rejected(self, small_h, tmp_path):
        path = tmp_path / "h.txt"
        save_hamiltonian(small_h, path)
        bad = tmp_path / "bad.txt"
        bad.write_text(path.read_text() + "24s 26s 12.5\n")
        with pytest.raises(ValidationError, match="selection"):
            load_hamiltonian(bad)

    def test_unknown_state_rejected(self, small_h, tmp_path):
        path = tmp_path / "h.txt"
        save_hamiltonian(small_h, path)
        bad = tmp_path / "bad.txt"
        bad.write_text(path.read_text() + "40s 40p 1.0\n")
        with pytest.raises(ValidationError):
            load_hamiltonian(bad)
