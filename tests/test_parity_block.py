"""The parity-block eigensystem and split step.

z couples even-l states only to odd-l ones, so `precompute_z_eigensystem`
builds it from the SVD of the even-odd block, and from
`BLOCK_STEP_MIN_DIM` states up the kernel steps in parity order with that
block's singular pairs.  The 187-state basis takes the block step by
default; with the crossover moved, a kernel takes either step on any basis
whose block has a singular pair for every odd-l state.
"""

import re

import numpy as np
import pytest
from scipy.linalg import expm

from rydoct import (
    HamiltonianData,
    OctProblem,
    PenaltySchedule,
    PulseGrid,
    RegisterSpec,
    StateLabel,
    ValidationError,
    WavePacket,
    backward_propagate,
    boundary_labels,
    costate_terminal,
    encode,
    forward_update_sweep,
    optimize,
    precompute_z_eigensystem,
    propagate,
)
from rydoct import propagation
from rydoct.propagation import BLOCK_STEP_MIN_DIM, SplitStepKernel
from tests.conftest import step_kind

DT = 413.41373333565624


def _states(dim, n_states, seed):
    rng = np.random.default_rng(seed)
    block = rng.normal(size=(dim, n_states)) + 1j * rng.normal(size=(dim, n_states))
    return block / np.linalg.norm(block, axis=0)


def _field(n_steps, seed):
    """A field of about the shipped size with exact zeros mixed in."""
    rng = np.random.default_rng(seed)
    samples = 2e-7 * rng.normal(size=n_steps + 1)
    samples[::5] = 0.0
    return samples


class TestSvdEigensystem:
    @pytest.mark.parametrize("basis", ["cesium", "full"])
    def test_pairs_zeros_and_reconstruction(self, basis, cesium_h, cesium_zsys, full_h, full_zsys):
        h, zsys = (cesium_h, cesium_zsys) if basis == "cesium" else (full_h, full_zsys)
        parity = zsys.parity
        assert parity is not None
        n_even, n_odd = parity.n_even, h.dim - parity.n_even
        assert [h.labels[i].l % 2 for i in parity.order] == [0] * n_even + [1] * n_odd
        w = zsys.eigenvalues
        # Exact +-s pairs and exact zeros, one per null column of q or w.
        assert np.array_equal(w, np.sort(w))
        assert np.array_equal(w, -w[::-1])
        assert np.count_nonzero(w == 0.0) == abs(n_even - n_odd)
        assert np.array_equal(np.sort(w[w > 0.0]), np.sort(parity.s))
        gram = zsys.vectors.T @ zsys.vectors
        assert np.max(np.abs(gram - np.eye(h.dim))) <= 1e-13
        # Relative to |z|, up to 721 here: eigh of the same z misses an
        # absolute 1e-12 at 187 states as well (1.1e-12).
        assert zsys.reconstruction_error() <= 1e-14 * np.max(np.abs(h.z_matrix))
        # Orthogonal columns, of norm sqrt(1/2) for the pairs and 1 for the nulls.
        r = len(parity.s)
        for factor, pairs in ((parity.q, slice(n_even - r, n_even)), (parity.w, slice(0, r))):
            norms = np.ones(len(factor))
            norms[pairs] = 0.5
            assert np.max(np.abs(factor.T @ factor - np.diag(norms))) <= 1e-13

    def test_z_that_is_not_bipartite_is_rejected(self, dense8):
        # A z that couples two states of one l parity, one entry of it or a
        # full symmetric matrix, breaks the dipole rule: the constructor
        # rejects it, so every basis has the parity blocks' eigensystem.
        rng = np.random.default_rng(42)
        one = dense8.z_matrix.copy()
        one[0, 1] = one[1, 0] = 0.5
        full = rng.normal(size=(dense8.dim, dense8.dim))
        for z, pair in ((one, "<1s|z|2s>"), (full + full.T, "<1s|z|1s>")):
            with pytest.raises(ValidationError, match=re.escape(f"violation: {pair}")):
                HamiltonianData(dense8.labels, dense8.energies, z, provenance="test")
        assert precompute_z_eigensystem(dense8).parity.n_even == 4

    def test_b_without_a_pair_for_every_odd_state_takes_the_dense_step(self, monkeypatch):
        # Two s states and three p states: z is bipartite, but B (2 x 3) has
        # two singular pairs for three odd rows, so the block step, which
        # keeps every odd row in its pair scratch, does not fit.  The
        # kernel takes the dense step at any size, and `propagate` matches
        # the expm split step.
        rng = np.random.default_rng(6)
        labels = tuple(StateLabel(n, l) for l, ns in ((0, (5, 6)), (1, (5, 6, 7))) for n in ns)
        z = np.zeros((5, 5))
        z[:2, 2:] = rng.normal(size=(2, 3))
        z += z.T
        h = HamiltonianData(labels, np.sort(rng.uniform(-1.0, -0.1, 5)), z, provenance="test")
        zsys = precompute_z_eigensystem(h)
        parity = zsys.parity
        assert len(parity.s) == 2 < h.dim - parity.n_even
        monkeypatch.setattr(propagation, "BLOCK_STEP_MIN_DIM", 0)
        kernel = SplitStepKernel(h, zsys, 0.1)
        assert not kernel.block and not kernel.adjoint().block
        samples = np.append(0.3 * rng.normal(size=20), 0.0)
        psi = _states(5, 2, seed=7)
        half = np.exp(-0.05j * h.energies)[:, None]
        expected = psi.copy()
        for e_field in samples[:-1]:
            expected = half * (expm(-0.1j * e_field * z) @ (half * expected))
        _, final = propagate(WavePacket(psi), PulseGrid(0.0, 0.1, samples), h, zsys)
        assert np.max(np.abs(final.amplitudes - expected)) <= 1e-13

    def test_step_is_chosen_by_basis_size(
        self, cesium_h, cesium_zsys, full_h, full_zsys, monkeypatch
    ):
        # By the crossover alone, for the kernel and its adjoint alike.
        assert cesium_h.dim < BLOCK_STEP_MIN_DIM <= full_h.dim
        assert not SplitStepKernel(cesium_h, cesium_zsys, DT).block
        kernel = SplitStepKernel(full_h, full_zsys, DT)
        assert kernel.block and kernel.adjoint().block
        monkeypatch.setattr(propagation, "BLOCK_STEP_MIN_DIM", full_h.dim + 1)
        kernel = SplitStepKernel(full_h, full_zsys, DT)
        assert not kernel.block and not kernel.adjoint().block
        monkeypatch.setattr(propagation, "BLOCK_STEP_MIN_DIM", cesium_h.dim)
        kernel = SplitStepKernel(cesium_h, cesium_zsys, DT)
        assert kernel.block and kernel.adjoint().block


class TestBlockStep:
    def test_propagate_matches_the_expm_split_step(self, full_h, full_zsys):
        # 40 steps of D exp(-i E_j z dt) D with scipy's expm, against
        # `propagate`, which takes the block step on 187 states.
        samples = _field(40, seed=1)
        psi = _states(full_h.dim, 2, seed=2)
        half = np.exp(-0.5j * DT * full_h.energies)[:, None]
        expected = psi.copy()
        for e_field in samples[:-1]:
            expected = half * (expm(-1j * e_field * DT * full_h.z_matrix) @ (half * expected))
        _, final = propagate(WavePacket(psi), PulseGrid(0.0, DT, samples), full_h, full_zsys)
        assert np.max(np.abs(final.amplitudes - expected)) <= 1e-12

    @pytest.mark.parametrize("basis", ["cesium", "full"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_block_and_dense_steps_agree(self, basis, sign, cesium_h, cesium_zsys, full_h, full_zsys):
        # Each kernel built directly and stepped through the same field from
        # the same states, forward or adjoint.
        h, zsys = (cesium_h, cesium_zsys) if basis == "cesium" else (full_h, full_zsys)
        samples = _field(120, seed=3)
        finals = {}
        for block in (False, True):
            with step_kind(block):
                kernel = SplitStepKernel(h, zsys, sign * DT)
            assert kernel.block == block
            state = kernel.shift(kernel.to_kernel_order(_states(h.dim, 3, seed=4)))
            coefficients, advance, (c, cf) = kernel.stepper(state)
            phases = kernel.phase_table(samples)
            for j, e_field in enumerate(samples[:-1]):
                if e_field != 0.0:
                    coefficients(state.view(np.float64), cf)
                    advance(state, state, phases[j], c)
                else:
                    advance(state, state, None, c)
            finals[block] = kernel.to_basis_order(kernel.unshift(state))
        assert np.max(np.abs(finals[True] - finals[False])) <= 1e-12

    def test_zero_field_steps_stay_diagonal(self, full_h, full_zsys):
        # D^2 x bit for bit, so amplitudes that are exactly zero stay zero,
        # through the stepper and through `propagate`.
        kernel = SplitStepKernel(full_h, full_zsys, DT)
        assert kernel.block
        psi = _states(full_h.dim, 2, seed=5)
        psi[::3] = 0.0
        psi /= np.linalg.norm(psi, axis=0)
        state = kernel.shift(kernel.to_kernel_order(psi))
        _, advance, _ = kernel.stepper(state)
        out = np.empty_like(state)
        advance(state, out, None, None)
        assert np.array_equal(out, kernel.free * state)
        _, final = propagate(WavePacket(psi), PulseGrid.zeros(0.0, DT, 30), full_h, full_zsys)
        assert np.all(final.amplitudes[::3] == 0.0)
        assert np.max(np.abs(np.abs(final.amplitudes) - np.abs(psi))) <= 1e-14

    def test_zero_sample_row_is_the_identity_rotation(self, full_h, full_zsys):
        # 1 in every row, the pairs' and the null rows, as in a dense row.
        kernel = SplitStepKernel(full_h, full_zsys, DT)
        assert kernel.block
        row = kernel.phase_table(np.array([0.0, 1e-7, 0.0]))[0][:, 0]
        assert np.all(row == 1.0)


def test_public_functions_answer_in_basis_order_on_the_block_step(full_h, full_zsys, monkeypatch):
    # On 187 states, against the same calls on the dense step: a recorded
    # propagation with an absorber, the costate trajectory, one update
    # sweep, and two iterations of `optimize`.
    register = RegisterSpec.from_names(["24p", "25p", "26p", "27p", "28p", "29p"], marked="26p")
    psi0 = encode(register, full_h)
    samples = 3e-7 * np.sin(np.linspace(0.0, np.pi, 301)) ** 2
    pulse = PulseGrid(0.0, DT, samples)
    penalty = PenaltySchedule.build(pulse, base=1e8, edge_multiplier=100.0, ramp_fraction=0.1)

    absorber = (boundary_labels(full_h), 0.3)

    def run():
        trajectory, _ = propagate(psi0, pulse, full_h, full_zsys, record=7, absorber=absorber)
        _, final = propagate(psi0, pulse, full_h, full_zsys, record=None)
        lam = costate_terminal(final, full_h.index("26p"))
        costates = backward_propagate(lam, pulse, full_h, full_zsys)
        updated, swept = forward_update_sweep(psi0, costates, pulse, penalty, full_h, full_zsys)
        problem = OctProblem(full_h, psi0, "26p", penalty, pulse, max_iterations=2)
        result = optimize(problem, zsys=full_zsys)
        recorded = np.array([packet.amplitudes for packet in trajectory])
        return recorded, final.amplitudes, costates, updated.samples, swept.amplitudes, result

    block = run()
    monkeypatch.setattr(propagation, "BLOCK_STEP_MIN_DIM", 10**9)
    dense = run()
    assert np.max(np.linalg.norm(block[0][-1])) < 1.0
    for got, want in zip(block[:5], dense[:5]):
        assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1.0)
    block_result, dense_result = block[5], dense[5]
    assert np.max(np.abs(block_result.final_states - dense_result.final_states)) <= 1e-12
    assert np.max(np.abs(block_result.yield_history - dense_result.yield_history)) <= 1e-12
    assert np.max(np.abs(block_result.delta3_history)) <= 1e-10
