"""The batched split-step kernel against the per-member sweeps it replaced.

The oracle is tests/reference_sweeps.py.  Both sides start from the same
initial states and terminal costates on the 55-state production basis, with
four register members and a field that is nonzero almost everywhere but has
exact zeros mixed in, so both the zero-field shortcut and the full step run.
The same set-up bounds the sweeps' memory, pins the in-place sweeps and
`propagate` bit for bit to the written-out step and to a plain loop of one
`stepper` step at a time, pins the step-major costate layout and the phase
table that one iteration hands to the next, checks that delta3 flags
costates that do not belong to the field, checks the update sweep's
half-chunk cross-term against the oracle and a per-step sum, pins the
numpy calls of one step and those that each sweep makes per step, checks
that one iteration gives the same bits through plain numpy functions as
through the undispatched ones, and checks that the sweeps give the same
bytes whatever the memory layout of the input block.  The steps act on D-shifted blocks, x = D psi, and the
written-out references take the same operation order.  The
oracle comparisons, the delta3 check, the memory bound, the phase rows and
the per-step call counts also run on the parity-block step, which a
55-state kernel takes when the crossover `BLOCK_STEP_MIN_DIM` is lowered.
On both step kinds, and on the 187-state basis, the step's coefficients
are checked to be in z's eigenbasis and each phase row's derivative in E
to be exponent x row.
"""

import sys
import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest

from rydoct import control
from rydoct import (
    InvalidSpecError,
    PenaltySchedule,
    PulseGrid,
    RegisterSpec,
    WavePacket,
    boundary_labels,
    encode,
    propagate,
)
from rydoct.control import (
    _apply_z,
    _costate_sweep,
    _iterate,
    _update_sweep,
    _work_arrays,
    backward_propagate,
    forward_update_sweep,
)
from rydoct.propagation import CHUNK_STEPS, SplitStepKernel
from tests import reference_sweeps as ref
from tests.conftest import step_kind

REGISTER = ["24p", "25p", "26p", "27p", "28p", "29p"]
MARKED = ["25p", "26p", "27p", "28p"]
DT = 413.41373333565624


def _filled_work(kernel, pulse, n_members):
    """Work arrays whose phase table holds the phases of `pulse`, as the engine
    fills it from the guess."""
    work = _work_arrays(pulse.n_steps, kernel.h.dim, n_members)
    kernel.phase_table(pulse.samples, out=work[3])
    return work


def _evolve(kernel, block, pulse):
    """The final block of `propagate` under `pulse`, as the engine runs the guess."""
    _, final = propagate(WavePacket(block), pulse, kernel.h, kernel.zsys, record=None)
    return final.amplitudes


def _engine_blocks(setup, kernel, bits):
    """psi0 of the members marking `bits`, their final block under the
    set-up's field and their target indices, in the kernel's row order, as
    the engine holds them."""
    h = setup["h"]
    psi0 = np.stack(setup["psi0"][: len(bits)], axis=1)
    with step_kind(kernel.block):
        final = _evolve(kernel, psi0, setup["pulse"])
    rows = np.array([h.index(bit) for bit in bits])
    if kernel.block:
        rows = kernel.position[rows]
    targets = (rows, np.arange(len(bits)))
    return kernel.to_kernel_order(psi0), kernel.to_kernel_order(final), targets


def _eigenvectors(kernel):
    """V with its rows and its columns in the kernel's row order, read off
    the step: column i is the eigenvector of z whose coefficient the step
    keeps in row i.  The zero-field step of the identity (every basis state)
    forms c = V^T."""
    eye = np.eye(kernel.h.dim, dtype=complex)
    step, (x, _, c, cf) = kernel.stepper(eye)
    step(eye, eye.view(np.float64), x, None, c, cf)
    return c.T.real


def _step_coefficients(kernel, states):
    """The step's coefficients V^T x of the rows of `states` (basis order,
    one state per row), each in the kernel's row order."""
    return kernel.to_kernel_order(states, axis=1) @ _eigenvectors(kernel)


def _step(kernel, block, e_field):
    """One `stepper` step of the D-shifted C-contiguous `block` under
    `e_field`, as a new block: the phase is the sample's `phase_table` row,
    and none where it is zero."""
    step, (_, _, c, cf) = kernel.stepper(block)
    out = np.empty(block.shape, dtype=complex)
    if e_field != 0.0:
        phase = kernel.phase_table(np.array([e_field, 0.0]))[0]
        step(block, block.view(np.float64), out, phase, c, cf)
    else:
        step(block, block.view(np.float64), out, None, None, None)
    return out


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
    work = _filled_work(kernel, pulse, len(MARKED))
    lam_buffer, coeffs = _costate_sweep(kernel, np.stack(lam_final, axis=1), pulse.samples, work)
    z_lam = _apply_z(kernel, lam_buffer, work[2])
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


@pytest.fixture(scope="module")
def block_setup(setup):
    """`setup` with the parity-block kernel on the same basis, and z lam and
    the coefficients of its own costate sweep, both in parity order."""
    pulse = setup["pulse"]
    with step_kind(True):
        kernel = SplitStepKernel(setup["h"], setup["zsys"], DT)
        work = _filled_work(kernel, pulse, len(MARKED))
        lam_final = kernel.to_kernel_order(np.stack(setup["lam_final"], axis=1))
        lam_buffer, coeffs = _costate_sweep(kernel, lam_final, pulse.samples, work)
    assert kernel.block
    z_lam = _apply_z(kernel, lam_buffer, work[2])
    return {**setup, "kernel": kernel, "z_lam": z_lam, "coeffs": coeffs}


@pytest.fixture(scope="module")
def both(setup, block_setup):
    """The dense set-up, then the block one."""
    return (setup, block_setup)


def test_field_has_zero_and_nonzero_steps(setup):
    steps = setup["pulse"].samples[:-1]
    assert np.count_nonzero(steps == 0.0) > 100
    assert np.count_nonzero(steps) > 600


def test_public_backward_propagate_matches_oracle(both):
    # On either step, in basis order.
    for setup in both:
        h, zsys, pulse = setup["h"], setup["zsys"], setup["pulse"]
        for lam, expected in zip(setup["lam_final"], setup["ref_costates"]):
            with step_kind(setup["kernel"].block):
                costates = backward_propagate(WavePacket(lam, time=pulse.horizon), pulse, h, zsys)
            assert costates.shape == expected.shape
            assert np.max(np.abs(costates - expected)) <= 1e-12


def test_costate_sweep_matches_oracle(both):
    # z D lam_j for the increment at t_j, which the update sweep takes
    # against x_j = D psi_j, and V^T D* lam_{j+1} for the cross-term of step
    # j, both formed from the oracle's costates in the kernel's row order:
    # parity order for the block step.
    for setup in both:
        h, kernel = setup["h"], setup["kernel"]
        half_adjoint = np.exp(0.5j * setup["pulse"].dt * h.energies)
        for i, costates in enumerate(setup["ref_costates"]):
            z_lam = kernel.to_kernel_order((costates[:-1] / half_adjoint) @ h.z_matrix.T, axis=1)
            coeffs = _step_coefficients(kernel, costates[1:] * half_adjoint)
            scale = np.max(np.abs(z_lam))
            assert np.max(np.abs(setup["z_lam"][:, :, i] - z_lam)) <= 1e-12 * scale
            assert np.max(np.abs(setup["coeffs"][:, :, i] - coeffs)) <= 1e-12
        assert setup["z_lam"].shape == (setup["pulse"].n_steps, h.dim, len(MARKED))


@pytest.mark.parametrize(
    "public, block",
    [(False, False), (True, False), (False, True), (True, True)],
    ids=["replace", "public-replace", "block-replace", "block-public-replace"],
)
def test_update_sweep_matches_oracle(setup, block_setup, public, block):
    # The engine's sweep on all four members, or the public
    # forward_update_sweep on the first one, which reports no cross-term;
    # on the dense step or on the block step, whose blocks are in parity
    # order.
    setup = block_setup if block else setup
    h, zsys, pulse, penalty = setup["h"], setup["zsys"], setup["pulse"], setup["penalty"]
    kernel = setup["kernel"]
    n_members = 1 if public else len(MARKED)
    expected, trajs, expected_cross = ref._sweep(
        setup["psi0"][:n_members], setup["ref_costates"][:n_members], pulse, penalty, h, zsys
    )
    if public:
        with step_kind(kernel.block):
            new_pulse, final = forward_update_sweep(
                WavePacket(setup["psi0"][0]), setup["ref_costates"][0], pulse, penalty, h, zsys
            )
        samples, final = new_pulse.samples, final.amplitudes[:, None]
    else:
        work = _filled_work(kernel, pulse, n_members)
        samples, final, cross = _update_sweep(
            kernel,
            kernel.to_kernel_order(np.stack(setup["psi0"], axis=1)),
            setup["z_lam"],
            setup["coeffs"],
            pulse,
            penalty,
            *work[2:],
        )
        final = kernel.to_basis_order(final)
        assert abs(cross - expected_cross) <= 1e-12
        # The sweep leaves the new field's phases in the table.
        assert np.array_equal(work[3], kernel.phase_table(samples))
    # Relative to the field's scale: where a new sample crosses zero, the
    # overlap sum cancels and its own relative error is unbounded.
    scale = np.max(np.abs(expected))
    np.testing.assert_allclose(samples, expected, rtol=1e-12, atol=1e-12 * scale)
    for i, traj in enumerate(trajs):
        assert np.max(np.abs(final[:, i] - traj[-1])) <= 1e-12


@pytest.mark.parametrize(
    "n_members, block",
    [(1, False), (4, False), (1, True), (4, True)],
    ids=["1", "4", "block-1", "block-4"],
)
def test_update_sweep_forms_the_cross_term_per_half_chunk(setup, block_setup, n_members, block):
    # The cross-term is formed 32 steps at a time from the c_j that the
    # steps leave in the chunk scratch.  The grid ends in a short half
    # chunk.  A zero old field and zeroed costates around the first
    # half-chunk boundary make the samples there zero under both fields, so
    # those steps form no c, and their slots, not yet written in this
    # sweep, must be cleared: a NaN-filled scratch must not reach the
    # cross-term, the new samples or the final block.
    setup = block_setup if block else setup
    h, zsys, kernel = setup["h"], setup["zsys"], setup["kernel"]
    half = CHUNK_STEPS // 2
    old = setup["pulse"].samples[:794].copy()
    old[half - 8 : half + 8] = 0.0
    pulse = setup["pulse"].with_samples(old)
    penalty = PenaltySchedule.build(pulse, base=1e8, edge_multiplier=1000.0, ramp_fraction=0.05)
    assert pulse.n_steps % half != 0
    costates = [lam[:794].copy() for lam in setup["ref_costates"][:n_members]]
    for lam in costates:
        lam[half - 8 : half + 9] = 0.0
    psi0 = setup["psi0"][:n_members]
    expected, _, expected_cross = ref._sweep(psi0, costates, pulse, penalty, h, zsys)

    half_adjoint = np.exp(0.5j * pulse.dt * h.energies)
    # z D lam_j, as `_apply_z` leaves it.
    z_lam = np.stack([(lam[:-1] / half_adjoint) @ h.z_matrix.T for lam in costates], axis=2)
    z_lam = kernel.to_kernel_order(z_lam, axis=1)
    coeffs = np.stack(
        [_step_coefficients(kernel, lam[1:] * half_adjoint) for lam in costates], axis=2
    )
    block = kernel.to_kernel_order(np.stack(psi0, axis=1))
    runs = []
    for fill in (0.0, np.nan):
        work = _filled_work(kernel, pulse, n_members)
        work[2].fill(fill)
        runs.append(_update_sweep(kernel, block, z_lam, coeffs, pulse, penalty, *work[2:]))
        assert np.array_equal(work[3], kernel.phase_table(runs[-1][0]))
    samples, final, cross = runs[0]
    for got, want in zip(runs[1], runs[0]):
        assert np.array_equal(got, want)
    unchanged_zero = (samples[:-1] == 0.0) & (old[:-1] == 0.0)
    assert unchanged_zero[half - 1] and unchanged_zero[half]
    scale = np.max(np.abs(expected))
    np.testing.assert_allclose(samples, expected, rtol=1e-12, atol=1e-12 * scale)
    assert abs(cross - expected_cross) <= 1e-12

    # The same sum as one vdot per step, <D* lam_{j+1}| V (P_new - P_old) c_j>,
    # with c_j = V^T D psi_j from a plain stepper loop under the new field
    # and P_new - P_old written out.
    phases = kernel.phase_table(samples)
    delta = phases - kernel.phase_table(pulse.samples)
    step, (_, _, c, cf) = kernel.stepper(block)
    x = kernel.shift(block)
    per_step, size = 0.0 + 0.0j, 0.0
    for j in range(pulse.n_steps):
        step(x, x.view(np.float64), x, phases[j] if samples[j] != 0.0 else None, c, cf)
        term = np.vdot(coeffs[j], delta[j] * c)
        per_step += term
        size += abs(term)
    assert np.array_equal(kernel.unshift(x), final)
    assert abs(cross - per_step) <= 1e-14 * size


@pytest.mark.parametrize(
    "sign, block",
    [(1.0, False), (-1.0, False), (1.0, True), (-1.0, True)],
    ids=["1.0", "-1.0", "block-1.0", "block--1.0"],
)
def test_phase_table_rows_are_the_per_step_phases(setup, sign, block):
    # On either step kind, row j is exp(E_j x exponent) of step j alone,
    # exactly 1 where E_j = 0, and has the same bits in a table of any
    # slice of the grid, such as the chunks that `propagate` forms.  The
    # block step's exponent is +-(-i dt s_k) on the rows of pair k and 0 on
    # its null rows.
    with step_kind(block):
        kernel = SplitStepKernel(setup["h"], setup["zsys"], sign * DT)
    samples = setup["pulse"].samples
    table = kernel.phase_table(samples)
    assert table.shape == (len(samples) - 1, setup["h"].dim, 1)
    if block:
        plus, minus = kernel.pairs
        s = kernel.zsys.parity.s
        assert np.array_equal(kernel.exponent[plus, 0], -1j * kernel.dt * s)
        assert np.array_equal(kernel.exponent[minus, 0], -1j * kernel.dt * -s)
        assert np.count_nonzero(kernel.exponent == 0.0) > 0
    for j, e_field in enumerate(samples[:-1].tolist()):
        assert np.array_equal(table[j], np.exp(e_field * kernel.exponent))
        if e_field == 0.0:
            assert np.all(table[j] == 1.0)
    for start, stop in ((0, 1), (5, 64), (300, 340), (700, len(samples) - 1)):
        assert np.array_equal(kernel.phase_table(samples[start : stop + 1]), table[start:stop])
    _assert_writer_gives_the_rows(kernel, samples, table)


@pytest.fixture(params=["dense", "block", "block-187"])
def any_kernel(request, cesium_h, cesium_zsys, full_h, full_zsys):
    """The dense and the block kernel on 55 states, and the kernel that the
    187-state basis takes, the block one."""
    h, zsys, kind = {
        "dense": (cesium_h, cesium_zsys, step_kind(False)),
        "block": (cesium_h, cesium_zsys, step_kind(True)),
        "block-187": (full_h, full_zsys, nullcontext()),
    }[request.param]
    with kind:
        kernel = SplitStepKernel(h, zsys, DT)
    assert kernel.block == (request.param != "dense")
    return kernel


def test_step_coefficients_are_in_the_eigenbasis_of_z(any_kernel):
    # c = V^T D psi on either step kind, with V orthogonal and V diag(w) V^T
    # = z in the kernel's row order, w = i exponent / dt row by row: the
    # diagonal that every phase row exp(E exponent) is formed from.
    kernel = any_kernel
    v = _eigenvectors(kernel)
    w = (1j * kernel.exponent[:, 0] / kernel.dt).real
    z = kernel.to_kernel_order(kernel.to_kernel_order(kernel.h.z_matrix), axis=1)
    assert np.max(np.abs(v.T @ v - np.eye(len(v)))) <= 1e-13
    assert np.max(np.abs((v * w) @ v.T - z)) <= 1e-13 * np.max(np.abs(z))


def test_phase_derivative_is_exponent_times_phase(any_kernel):
    # dP/dE = exponent P on either step kind, the one derivative that a
    # per-step gain or an exact gradient needs: central differences of the
    # table's rows in E, at fields of either sign and at angles E dt max|w|
    # from 0 to about 1.
    kernel = any_kernel
    scale = float(np.max(np.abs(kernel.exponent)))
    step = 1e-5 / scale
    for e_field in (0.0, 1.3e-7, -2e-7, 1.0 / scale):
        rows = kernel.phase_table(np.array([e_field - step, e_field + step, e_field, 0.0]))
        slope = (rows[1] - rows[0]) / (2.0 * step)
        assert np.max(np.abs(slope - kernel.exponent * rows[2])) <= 1e-8 * scale


def _assert_writer_gives_the_rows(kernel, samples, table):
    """The update sweep's per-step phase writer, bound to the table of
    another field, writes each row of `table` bit for bit."""
    written = kernel.phase_table(np.full_like(samples, 3e-7))
    write = kernel.phase_writer(written)
    for j, e_field in enumerate(samples[:-1].tolist()):
        assert np.array_equal(write(j, e_field), table[j])
    assert np.array_equal(written, table)


@pytest.mark.parametrize(
    "n_members, block",
    [(1, False), (4, False), (1, True), (4, True)],
    ids=["1", "4", "block-1", "block-4"],
)
def test_sweeps_hold_two_costate_arrays_and_one_phase_table(
    setup, block_setup, n_members, block
):
    # The work arrays of a run and two iterations on them, each a backward
    # sweep and an update sweep: z lam and the coefficients are the only
    # step-sized arrays besides one (n_steps, dim) phase table.  The slack
    # covers the chunk scratch and per-step blocks; one more costate-sized
    # copy does not fit.  The block step's table has the same rows.
    setup = block_setup if block else setup
    h, pulse = setup["h"], setup["pulse"]
    kernel, penalty = setup["kernel"], setup["penalty"]
    psi0, final, targets = _engine_blocks(setup, kernel, MARKED[:n_members])
    costate_bytes = pulse.n_steps * h.dim * n_members * 16
    table_bytes = pulse.n_steps * h.dim * 16
    slack = 512 * 1024

    def second(work):
        # The iteration after the first, under the field that it returned.
        return _iterate(
            kernel, psi0, new_final, targets, pulse.with_samples(samples), penalty, work
        )

    with step_kind(kernel.block):
        tracemalloc.start()
        try:
            work = _filled_work(kernel, pulse, n_members)
            samples, new_final, _ = _iterate(kernel, psi0, final, targets, pulse, penalty, work)
            again = second(work)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        fresh = second(_filled_work(kernel, pulse.with_samples(samples), n_members))
    assert costate_bytes > slack
    assert peak < 2 * costate_bytes + table_bytes + slack
    # The reused arrays carry over the field's phases and nothing else.
    assert not np.array_equal(samples, pulse.samples)
    for a, b in zip(again, fresh):
        assert np.array_equal(a, b)
    assert np.array_equal(work[3], kernel.phase_table(again[0]))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_step_is_the_written_out_split_step(setup, sign):
    # Bit for bit, on the D-shifted block x = D psi, the operation order
    # D^2 (V (P (V^T x))), with V and V^T applied to the float64 view, and
    # D^2 x where the field is zero; D^2 is exp(-i H0 dt) itself.  Shifted
    # back, that is the split step D V P V^T D psi up to rounding.
    kernel = SplitStepKernel(setup["h"], setup["zsys"], sign * DT)
    psi = np.stack(setup["psi0"], axis=1)
    half, free = kernel.half, kernel.free
    block = kernel.shift(psi)
    assert np.array_equal(block, half * psi)
    assert np.array_equal(kernel.unshift(block), np.conj(half) * block)
    assert np.array_equal(free, np.exp(-1j * kernel.dt * kernel.h.energies)[:, None])

    def real(m, x):
        return (m @ x.view(np.float64)).view(np.complex128)

    for e_field in (0.0, 1.3e-7):
        if e_field == 0.0:
            expected = free * block
            split = half * (half * psi)
        else:
            phase = np.exp(e_field * kernel.exponent)
            expected = free * real(kernel.v, phase * real(kernel.vt, block))
            split = half * real(kernel.v, phase * real(kernel.vt, half * psi))
        step = _step(kernel, block, e_field)
        assert np.array_equal(step, expected)
        assert np.max(np.abs(kernel.unshift(step) - split)) <= 1e-15


def test_update_sweep_without_costates_is_evolve(setup):
    # With z lam = 0 every new sample is exactly zero, so the sweep is the
    # plain propagation under the zero field.  Under the old field, nonzero
    # almost everywhere, most samples change and the steps form c for the
    # cross-term; under a zero old field no sample changes and the
    # cross-term is exactly zero.
    kernel, pulse, penalty = setup["kernel"], setup["pulse"], setup["penalty"]
    psi0 = np.stack(setup["psi0"], axis=1)
    zeros = np.zeros_like(setup["z_lam"])
    zero_field = pulse.with_samples(np.zeros_like(pulse.samples))
    plain = _evolve(kernel, psi0, zero_field)
    for old in (pulse, zero_field):
        work = _filled_work(kernel, old, len(MARKED))
        samples, final, cross = _update_sweep(
            kernel, psi0, zeros, setup["coeffs"], old, penalty, *work[2:]
        )
        assert np.all(samples[:-1] == 0.0)
        assert samples[-1] == old.samples[-1]
        assert np.array_equal(final, plain)
        assert np.array_equal(work[3], kernel.phase_table(samples))
    assert cross == 0.0


def test_costate_sweep_is_the_adjoint_step_loop(setup):
    # mu_j = D* lam_j and V^T mu_{j+1} = V^T D* lam_{j+1} bit for bit,
    # against one adjoint step at a time from mu_N, the adjoint kernel's
    # shift of lam(T).
    h, pulse, kernel = setup["h"], setup["pulse"], setup["kernel"]
    lam_final = np.stack(setup["lam_final"], axis=1)
    work = _filled_work(kernel, pulse, len(MARKED))
    lam_buffer, coeffs = _costate_sweep(kernel, lam_final, pulse.samples, work)
    # The loop's adjoint phases are the rows of the adjoint kernel's own table
    # (dim, 1) columns; the sweep conjugates the forward table at full width.
    adjoint = kernel.adjoint()
    step, (_, _, c, cf) = adjoint.stepper(lam_final)
    phases = adjoint.phase_table(pulse.samples)
    mu = adjoint.shift(lam_final)
    for j in range(pulse.n_steps - 1, -1, -1):
        new = np.empty_like(mu)
        # Every step forms c = V^T mu_{j+1}, a zero-field step as well.
        step(mu, mu.view(np.float64), new, phases[j] if pulse.samples[j] != 0.0 else None, c, cf)
        assert np.array_equal(coeffs[j], c)
        mu = new
        assert np.array_equal(lam_buffer[j], mu)


C_CALLS = ("dot", "vdot", "copyto", "view")


def _numpy_calls(run):
    """`run()` and the calls it made to `dot`, `vdot` and `copyto`, to the
    `vecdot`, `multiply`, `add` and `subtract` ufuncs and to the `view`
    method.  The first three are counted with the interpreter's profile
    hook, whether through numpy's Python-level dispatcher (a "call" event
    in multiarray.py) or to the C function behind it (a "c_call" event), as
    is `view`; a ufunc call raises no profile event, so the ufuncs are
    wrapped in counters while `run()` runs (each sweep and each stepper
    takes them from numpy when it starts)."""
    counts = dict.fromkeys(("dot", "vdot", "copyto", "vecdot", "multiply", "add", "subtract"), 0)
    counts["view"] = 0
    ufuncs = {name: getattr(np, name) for name in ("vecdot", "multiply", "add", "subtract")}

    def counted(name, ufunc):
        def call(*args, **kwargs):
            counts[name] += 1
            return ufunc(*args, **kwargs)

        return call

    def profile(frame, event, arg):
        name = frame.f_code.co_name
        if event == "call" and name in ("dot", "vdot", "copyto"):
            if frame.f_code.co_filename.endswith("multiarray.py"):
                counts[name] += 1
        elif event == "c_call" and getattr(arg, "__name__", None) in C_CALLS:
            counts[arg.__name__] += 1

    for name, ufunc in ufuncs.items():
        setattr(np, name, counted(name, ufunc))
    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
        for name, ufunc in ufuncs.items():
            setattr(np, name, ufunc)
    return result, counts


@pytest.mark.parametrize("block", [False, True], ids=["dense", "block"])
def test_step_passes(setup, block):
    # The passes of one step on a D-shifted block, into a slot of the
    # caller: a field step is V^T, P, V and D^2, two `multiply` and two
    # `dot` calls on the dense step, and a zero-field step one `multiply`.
    # The block step's products are two half-size `dot`s each, and the sum
    # and difference of each pair's rows one `subtract` and one `add` each
    # way, through its pair scratch, with one `copyto` of c into the slot.
    with step_kind(block):
        kernel = SplitStepKernel(setup["h"], setup["zsys"], DT)
    x = kernel.shift(kernel.to_kernel_order(np.stack(setup["psi0"], axis=1)))
    slot = np.empty_like(x)
    phase = kernel.phase_table(np.array([1.3e-7, 0.0]))[0]
    args = (x, x.view(np.float64), x)

    def calls(*rest):
        # The counts of a step, less those of binding the stepper.
        def run(n_steps):
            step, _ = kernel.stepper(x)
            for _ in range(n_steps):
                step(*args, *rest)

        _, bound = _numpy_calls(lambda: run(0))
        _, stepped = _numpy_calls(lambda: run(1))
        return {name: n - bound[name] for name, n in stepped.items() if n != bound[name]}

    pairs = {"subtract": 2, "add": 2, "copyto": 1} if block else {}
    field_step = calls(phase, slot, slot.view(np.float64))
    assert field_step == {"dot": 4 if block else 2, "multiply": 2, **pairs}
    assert calls(None, None, None) == {"multiply": 1}


def test_sweep_steps_make_only_their_blas_calls(setup):
    # Per step, the costate sweep calls `dot` twice, or once where the field
    # is exactly zero (V^T only: the diagonal shortcut); the update sweep
    # calls `vdot` once for the overlap and, where the sample changes, the
    # `dot`s of a step that forms c.  Its cross-term takes no call per step:
    # one `subtract`, one `multiply` and one `vecdot` per half chunk.  No
    # step takes a `view`: each sweep takes its float64 views before its
    # first step.
    _assert_sweep_calls(setup, len(MARKED), dots=1, pairs=0)


@pytest.mark.parametrize("n_members", [1, 4])
def test_block_sweep_steps_make_only_their_blas_calls(block_setup, n_members):
    # The same on the block step, whose products with V^T and V are two
    # half-size `dot`s each, with one `subtract` and one `add` for the
    # difference and the sum of each pair's rows, and which copies each c
    # it forms into the caller's slot; its cross-term is the dense step's.
    _assert_sweep_calls(block_setup, n_members, dots=2, pairs=1)


def _assert_sweep_calls(setup, n_members, dots, pairs):
    """The calls of both sweeps on the first `n_members` members of
    `setup`: `dots` `dot` calls and `pairs` `subtract` and `add` calls per
    product with V^T or V, and `pairs` `copyto` calls per c formed; one
    `multiply` per step for D^2, one more per field step for P and, in the
    update sweep, one per step for its phase row; one `multiply` each way
    across the sweep's boundary; one `vecdot`, one `copyto` and one more
    `subtract` and `multiply` per half chunk of the cross-term; and no more
    than eight `view` calls per sweep, whatever the number of steps."""
    h, pulse, penalty, kernel = setup["h"], setup["pulse"], setup["penalty"], setup["kernel"]
    n_steps = pulse.n_steps
    half_chunks = -(-n_steps // (CHUNK_STEPS // 2))
    old = pulse.samples[:-1]
    lam_final = kernel.to_kernel_order(np.stack(setup["lam_final"][:n_members], axis=1))
    work = _filled_work(kernel, pulse, n_members)
    with step_kind(kernel.block):
        _, counts = _numpy_calls(lambda: _costate_sweep(kernel, lam_final, pulse.samples, work))
    field_steps = np.count_nonzero(old)
    products = n_steps + field_steps
    assert counts["dot"] == dots * products
    assert counts["subtract"] == counts["add"] == pairs * products
    assert counts["copyto"] == pairs * n_steps
    assert counts["multiply"] == 1 + n_steps + field_steps
    assert counts["vdot"] == counts["vecdot"] == 0
    assert counts["view"] <= 8

    psi0 = kernel.to_kernel_order(np.stack(setup["psi0"][:n_members], axis=1))
    z_lam, coeffs = (np.ascontiguousarray(setup[k][:, :, :n_members]) for k in ("z_lam", "coeffs"))
    zeros = np.zeros_like(z_lam)
    zero_field = pulse.with_samples(np.zeros_like(pulse.samples))
    # With z lam = 0 every new sample is zero: under the old field the
    # samples that were nonzero change to zero, and under a zero old field
    # none changes, so every step is diagonal and forms no c.
    for z_lam, before, n_changed in (
        (z_lam, pulse, n_steps),
        (zeros, pulse, np.count_nonzero(old)),
        (zeros, zero_field, 0),
    ):
        work = _filled_work(kernel, before, n_members)
        (samples, _, _), counts = _numpy_calls(
            lambda: _update_sweep(kernel, psi0, z_lam, coeffs, before, penalty, *work[2:])
        )
        was = before.samples[:-1]
        changed = np.count_nonzero(samples[:-1] != was)
        nonzero = np.count_nonzero(samples[:-1])
        changed_to_zero = np.count_nonzero((samples[:-1] != was) & (samples[:-1] == 0.0))
        assert changed == n_changed
        products = 2 * nonzero + changed_to_zero
        assert counts["dot"] == dots * products
        assert counts["vdot"] == n_steps
        assert counts["subtract"] == pairs * products + half_chunks
        assert counts["add"] == pairs * products
        assert counts["copyto"] == pairs * (nonzero + changed_to_zero) + half_chunks
        assert counts["multiply"] == 2 + 2 * n_steps + nonzero + half_chunks
        assert counts["vecdot"] == half_chunks
        assert counts["view"] <= 8


def test_apply_z_is_the_dim_major_chunk_product_in_place(setup):
    # z D^2 mu_j, which is z D lam_j, replaces the shifted costate mu_j in
    # the step-major buffer, which comes back itself, and equals bit for
    # bit the product that z D lam_j had when the costates were stored
    # dim-major: z times 64 steps of the (dim, n_steps x 2M) float64 view
    # at a time, the last chunk a short one.
    # _apply_z multiplies half chunks; the buffer cut by 7 steps ends in a
    # short half chunk as well.
    h, pulse, kernel = setup["h"], setup["pulse"], setup["kernel"]
    work = _work_arrays(pulse.n_steps, h.dim, len(MARKED))
    lam_final = np.stack(setup["lam_final"], axis=1)
    lam_buffer, _ = _costate_sweep(kernel, lam_final, pulse.samples, work)
    assert (pulse.n_steps - 7) % (CHUNK_STEPS // 2) != 0
    for costates in (lam_buffer, lam_buffer[:-7]):
        n_steps = len(costates)
        # D^2 multiplies as in `_apply_z`, from a contiguous block across
        # the transposition: numpy takes a different inner loop, with other
        # bits, for strided operands.
        shape = (h.dim, n_steps, len(MARKED))
        d = np.ascontiguousarray(np.broadcast_to(kernel.free[:, :, None], shape))
        dim_major = np.empty(shape, dtype=complex)
        np.multiply(d, costates.transpose(1, 0, 2), out=dim_major)
        flat = dim_major.reshape(h.dim, -1).view(np.float64)
        width = 2 * len(MARKED) * 64
        for start in range(0, flat.shape[1], width):
            chunk = flat[:, start : start + width]
            chunk[...] = kernel.zsys.z @ chunk
        expected = np.ascontiguousarray(dim_major.transpose(1, 0, 2))
        # What the scratch held before does not reach the product.
        for scratch in (work[2], np.full_like(work[2], np.nan)):
            z_lam = _apply_z(kernel, costates.copy(), scratch)
            assert z_lam.shape == (n_steps, h.dim, len(MARKED))
            assert z_lam.flags.c_contiguous
            assert np.array_equal(z_lam, expected)
    assert _apply_z(kernel, lam_buffer, work[2]) is lam_buffer


@pytest.mark.parametrize("block", [False, True], ids=["dense", "block"])
def test_iterate_without_undispatched_numpy_functions(setup, block_setup, block, monkeypatch):
    # The steps call the C functions behind `np.dot`, `np.vdot` and
    # `np.copyto` through their private `_implementation`.  A numpy whose
    # functions have none, here plain wrappers, costs only speed: one
    # `_iterate` gives the same bits through the wrappers.
    setup = block_setup if block else setup
    pulse, kernel, penalty = setup["pulse"], setup["kernel"], setup["penalty"]
    psi0, final, targets = _engine_blocks(setup, kernel, MARKED)

    def iterate():
        work = _filled_work(kernel, pulse, len(MARKED))
        with step_kind(kernel.block):
            return _iterate(kernel, psi0, final, targets, pulse, penalty, work)

    expected = iterate()
    calls = dict.fromkeys(("dot", "vdot", "copyto"), 0)
    for name in calls:

        def plain(*args, _name=name, _function=getattr(np, name), **kwargs):
            calls[_name] += 1
            return _function(*args, **kwargs)

        monkeypatch.setattr(np, name, plain)
    assert not hasattr(np.dot, "_implementation")
    got = iterate()
    assert calls["dot"] > 2 * pulse.n_steps and calls["vdot"] >= pulse.n_steps
    assert calls["copyto"] >= (2 * pulse.n_steps if block else 1)
    for a, b in zip(expected, got):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_delta3_flags_costates_that_do_not_belong_to_the_field(both, monkeypatch):
    # delta3 vanishes only when every costate slot holds the adjoint of
    # the field that the update sweep steps under: costates swept under a
    # scaled field, coefficients one slot off, or a second iteration whose
    # phase table the first did not update to its new field, must show.
    # On either step.
    sweep, update = control._costate_sweep, control._update_sweep

    def scaled_field(kernel, lam_final, samples, work):
        # The sweep reads its phases from the table, not from `samples`.
        table = kernel.phase_table(1.01 * samples)
        return sweep(kernel, lam_final, samples, (*work[:3], table))

    def rolled_coefficients(*args):
        lam_buffer, coeffs = sweep(*args)
        return lam_buffer, np.roll(coeffs, 1, axis=0)

    def stale_table(*args):
        # P(E_new) goes into a copy, and the table keeps the old field.
        *rest, table = args
        return update(*rest, table.copy())

    for setup in both:
        pulse, kernel, penalty = setup["pulse"], setup["kernel"], setup["penalty"]
        psi0, final, targets = _engine_blocks(setup, kernel, MARKED)

        def delta3():
            # The larger |delta3| of two iterations on one set of work arrays.
            work = _filled_work(kernel, pulse, len(MARKED))
            args = (psi0, final, targets, pulse, penalty, work)
            with step_kind(kernel.block):
                samples, new_final, first = _iterate(kernel, *args)
                args = (psi0, new_final, targets, pulse.with_samples(samples), penalty, work)
                return max(abs(first), abs(_iterate(kernel, *args)[2]))

        assert delta3() <= 1e-10
        for name, broken in (
            ("_costate_sweep", scaled_field),
            ("_costate_sweep", rolled_coefficients),
            ("_update_sweep", stale_table),
        ):
            with monkeypatch.context() as patch:
                patch.setattr(control, name, broken)
                assert delta3() > 1e-6


def _layouts(h, rng):
    """(input, contiguous copy) pairs: Fortran block, column slice, one state."""
    wide = rng.standard_normal((h.dim, 8)) + 1j * rng.standard_normal((h.dim, 8))
    wide /= np.linalg.norm(wide, axis=0)
    fortran = np.asfortranarray(wide[:, :4])
    sliced = wide[:, ::2]
    state = wide[:, 5]
    assert not fortran.flags.c_contiguous and not sliced.flags.c_contiguous
    assert not state.flags.c_contiguous
    return [(block, np.ascontiguousarray(block)) for block in (fortran, sliced, state)]


@pytest.mark.parametrize("e_field", [0.0, 1.3e-7])
def test_kernel_step_ignores_memory_layout(setup, e_field):
    # The shift into the steps' form takes any layout to a C-contiguous
    # block, which the step reads through its float64 view.
    kernel = setup["kernel"]
    for block, copy in _layouts(setup["h"], np.random.default_rng(3)):
        if block.ndim == 1:
            # The kernel steps (dim, M) blocks; one state is a (dim, 1) column.
            block, copy = block[:, None], copy[:, None]
        shifted = kernel.shift(block)
        assert shifted.flags.c_contiguous
        assert np.array_equal(shifted, kernel.shift(copy))
        stepped = _step(kernel, kernel.shift(copy), e_field)
        assert np.array_equal(_step(kernel, shifted, e_field), stepped)


@pytest.mark.parametrize("e_field", [0.0, 1.3e-7])
def test_kernel_rejects_blocks_that_are_not_dim_by_m(setup, e_field):
    # A (dim,) state or a (1, M) row would broadcast against the (dim, 1)
    # half step into a wrong-shaped block rather than fail.
    kernel = setup["kernel"]
    dim = setup["h"].dim
    state = setup["psi0"][0]
    pulse = PulseGrid(0.0, DT, np.full(4, e_field))
    for bad in (state, state[None, :], state[:, None, None], np.ones((1, 4), complex)):
        with pytest.raises(InvalidSpecError, match=f"\\({dim}, M\\) block"):
            _step(kernel, bad, e_field)
        with pytest.raises(InvalidSpecError, match=f"\\({dim}, M\\) block"):
            kernel.adjoint().stepper(bad)
    assert _step(kernel, state[:, None], e_field).shape == (dim, 1)
    assert _evolve(kernel, state[:, None], pulse).shape == (dim, 1)


def test_propagate_ignores_memory_layout(setup):
    h, zsys, pulse = setup["h"], setup["zsys"], setup["pulse"]
    for block, copy in _layouts(h, np.random.default_rng(4)):
        _, final = propagate(WavePacket(block), pulse, h, zsys, record=None)
        _, expected = propagate(WavePacket(copy), pulse, h, zsys, record=None)
        assert final.amplitudes.shape == block.shape
        assert np.array_equal(final.amplitudes, expected.amplitudes)


def test_propagate_is_the_plain_stepper_loop(setup):
    # Bit for bit, every recorded block and the final one against one
    # `stepper` step at a time with the whole grid's phase table, the
    # absorber applied after each step.  The grid ends in a short chunk and
    # has zero samples on both sides of a chunk boundary.
    h, zsys, pulse, kernel = setup["h"], setup["zsys"], setup["pulse"], setup["kernel"]
    samples = pulse.samples
    boundary = 5 * CHUNK_STEPS
    assert pulse.n_steps % CHUNK_STEPS != 0
    assert samples[boundary - 1] == 0.0 and samples[boundary] == 0.0
    record, strength = 7, 0.3
    absorbed = boundary_labels(h)
    block = np.stack(setup["psi0"], axis=1)
    trajectory, final = propagate(
        WavePacket(block), pulse, h, zsys, record=record, absorber=(absorbed, strength)
    )

    mask = np.ones((h.dim, 1))
    mask[[h.index(label) for label in absorbed]] = 1.0 - strength
    step, (_, _, c, cf) = kernel.stepper(block)
    phases = kernel.phase_table(samples)
    # The loop steps x = D psi; the mask commutes with D, and each frame
    # after the first is D* x.
    x = kernel.shift(block)
    x_f = x.view(np.float64)
    expected, times = [block.copy()], [pulse.t0]
    for j in range(pulse.n_steps):
        if samples[j] != 0.0:
            step(x, x_f, x, phases[j], c, cf)
        else:
            step(x, x_f, x, None, None, None)
        np.multiply(x, mask, out=x)
        if (j + 1) % record == 0 or j + 1 == pulse.n_steps:
            expected.append(kernel.unshift(x))
            times.append(pulse.t0 + (j + 1) * pulse.dt)
    assert len(trajectory) == len(expected) == pulse.n_steps // record + 2
    for packet, amplitudes, t in zip(trajectory, expected, times):
        assert np.array_equal(packet.amplitudes, amplitudes)
        assert packet.time == pytest.approx(t, rel=1e-12)
    assert np.array_equal(final.amplitudes, expected[-1])
    assert np.max(np.linalg.norm(expected[-1], axis=0)) < 1.0


def test_sweeps_ignore_memory_layout_and_leave_their_input(setup):
    # A Fortran-ordered or column-sliced block gives the bytes of its
    # contiguous copy in every sweep, and no sweep writes into it.
    h, pulse, penalty, kernel = setup["h"], setup["pulse"], setup["penalty"], setup["kernel"]
    z_lam, coeffs = setup["z_lam"], setup["coeffs"]

    def sweeps(block):
        work = _filled_work(kernel, pulse, block.shape[1])
        lam_buffer, lam_coeffs = _costate_sweep(kernel, block, pulse.samples, work)
        update = _update_sweep(kernel, block, z_lam, coeffs, pulse, penalty, *work[2:])
        return (lam_buffer, lam_coeffs, _evolve(kernel, block, pulse), *update)

    for block, copy in _layouts(h, np.random.default_rng(5))[:2]:
        kept = block.copy()
        for got, expected in zip(sweeps(block), sweeps(copy)):
            assert np.array_equal(got, expected)
        assert np.array_equal(block, kept)
