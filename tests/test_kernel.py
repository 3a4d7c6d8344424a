"""The batched split-step kernel against the per-member sweeps it replaced.

The oracle is tests/reference_sweeps.py.  Both sides start from the same
initial states and terminal costates on the 55-state production basis, with
four register members and a field that is nonzero almost everywhere but has
exact zeros mixed in, so both the zero-field shortcut and the full step run.
The same set-up bounds the sweeps' memory, pins the in-place sweeps and
`propagate` bit for bit to the written-out step and to a plain loop of one
`stepper` step at a time, pins the costate sweep's step-major coefficient
array and the phase table that one iteration hands to the next, checks
that delta3 flags costates that do not belong to the field, checks the
update sweep's chunked cross-term against the oracle and a per-step sum,
pins the numpy calls of one step and those that each sweep makes per step,
checks that one iteration gives the same bits through plain numpy
functions as through the undispatched ones, and checks that the sweeps
give the same bytes whatever the memory layout of the input block.  The
steps act on D-shifted blocks, x = D psi, and the written-out references
take the same operation order.  The oracle comparisons, the delta3 check,
the memory bound, the phase rows and the per-step call counts also run on
the parity-block step, which a
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
    kernel.phase_table(pulse.samples, out=work[2])
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
    keeps in row i.  The coefficients of the identity (every basis state)
    are V^T."""
    eye = np.eye(kernel.h.dim, dtype=complex)
    coefficients, _, (c, cf) = kernel.stepper(eye)
    coefficients(eye.view(np.float64), cf)
    return c.T.real


def _step_coefficients(kernel, states):
    """The step's coefficients V^T x of the rows of `states` (basis order,
    one state per row), each in the kernel's row order."""
    return kernel.to_kernel_order(states, axis=1) @ _eigenvectors(kernel)


def _step(kernel, block, e_field):
    """One `stepper` step of the D-shifted C-contiguous `block` under
    `e_field`, as a new block: its coefficients and then its advance, with
    the sample's `phase_table` row, or the advance alone, with no phase,
    where the sample is zero."""
    coefficients, advance, (c, cf) = kernel.stepper(block)
    out = np.empty(block.shape, dtype=complex)
    if e_field != 0.0:
        phase = kernel.phase_table(np.array([e_field, 0.0]))[0]
        coefficients(block.view(np.float64), cf)
        advance(block, out, phase, c)
    else:
        advance(block, out, None, c)
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
    coeffs = _costate_sweep(kernel, np.stack(lam_final, axis=1), pulse.samples, work)
    return {
        "h": cesium_h,
        "zsys": cesium_zsys,
        "pulse": pulse,
        "penalty": penalty,
        "psi0": psi0,
        "lam_final": lam_final,
        "ref_costates": ref_costates,
        "kernel": kernel,
        "coeffs": coeffs,
    }


@pytest.fixture(scope="module")
def block_setup(setup):
    """`setup` with the parity-block kernel on the same basis, and the
    coefficients of its own costate sweep, in parity order."""
    pulse = setup["pulse"]
    with step_kind(True):
        kernel = SplitStepKernel(setup["h"], setup["zsys"], DT)
        work = _filled_work(kernel, pulse, len(MARKED))
        lam_final = kernel.to_kernel_order(np.stack(setup["lam_final"], axis=1))
        coeffs = _costate_sweep(kernel, lam_final, pulse.samples, work)
    assert kernel.block
    return {**setup, "kernel": kernel, "coeffs": coeffs}


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
    # conj(a_j), a_j = V^T D* lam_{j+1}, all that the update sweep reads of
    # the costates, formed from the oracle's costates in the kernel's row
    # order: parity order for the block step.
    for setup in both:
        h, kernel = setup["h"], setup["kernel"]
        half_adjoint = np.exp(0.5j * setup["pulse"].dt * h.energies)
        for i, costates in enumerate(setup["ref_costates"]):
            coeffs = np.conj(_step_coefficients(kernel, costates[1:] * half_adjoint))
            assert np.max(np.abs(setup["coeffs"][:, :, i] - coeffs)) <= 1e-12
        assert setup["coeffs"].shape == (setup["pulse"].n_steps, h.dim, len(MARKED))


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
            setup["coeffs"],
            pulse,
            penalty,
            *work[1:],
        )
        final = kernel.to_basis_order(final)
        assert abs(cross - expected_cross) <= 1e-12
        # The sweep leaves the new field's phases in the table.
        assert np.array_equal(work[2], kernel.phase_table(samples))
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
    # The cross-term is formed `CHUNK_STEPS` steps at a time from the
    # products conj(a_j) (dP/dE)_j c_j that the steps leave in the chunk
    # scratch, which also holds each chunk's old phase rows and the
    # products' sums over the members.  The
    # grid ends in a short chunk, and the old field is zero on both sides
    # of the first chunk boundary, where the costates, swept under it,
    # are those of the free steps.  A NaN-filled scratch must not reach
    # the cross-term, the new samples, the new phase table or the final
    # block.
    setup = block_setup if block else setup
    h, zsys, kernel = setup["h"], setup["zsys"], setup["kernel"]
    old = setup["pulse"].samples[:794].copy()
    old[CHUNK_STEPS - 8 : CHUNK_STEPS + 8] = 0.0
    pulse = setup["pulse"].with_samples(old)
    penalty = PenaltySchedule.build(pulse, base=1e8, edge_multiplier=1000.0, ramp_fraction=0.05)
    assert pulse.n_steps % CHUNK_STEPS != 0
    costates = [
        ref.backward_propagate(WavePacket(lam, time=pulse.horizon), pulse, h, zsys)
        for lam in setup["lam_final"][:n_members]
    ]
    psi0 = setup["psi0"][:n_members]
    expected, _, expected_cross = ref._sweep(psi0, costates, pulse, penalty, h, zsys)

    half_adjoint = np.exp(0.5j * pulse.dt * h.energies)
    # conj(a_j), a_j = V^T D* lam_{j+1}, as the costate sweep leaves it.
    coeffs = np.stack(
        [np.conj(_step_coefficients(kernel, lam[1:] * half_adjoint)) for lam in costates],
        axis=2,
    )
    block = kernel.to_kernel_order(np.stack(psi0, axis=1))
    runs = []
    for fill in (0.0, np.nan):
        work = _filled_work(kernel, pulse, n_members)
        work[1].fill(fill)
        runs.append(_update_sweep(kernel, block, coeffs, pulse, penalty, *work[1:]))
        assert np.array_equal(work[2], kernel.phase_table(runs[-1][0]))
    samples, final, cross = runs[0]
    for got, want in zip(runs[1], runs[0]):
        assert np.array_equal(got, want)
    scale = np.max(np.abs(expected))
    np.testing.assert_allclose(samples, expected, rtol=1e-12, atol=1e-12 * scale)
    assert abs(cross - expected_cross) <= 1e-12

    # The same sum as one sum per step, <D* lam_{j+1}| V (P_new - P_old) c_j>
    # = sum conj(a_j) (P_new - P_old) c_j, with c_j = V^T D psi_j from a
    # plain stepper loop under the new field and P_new - P_old written out.
    phases = kernel.phase_table(samples)
    delta = phases - kernel.phase_table(pulse.samples)
    coefficients, advance, (c, cf) = kernel.stepper(block)
    x = kernel.shift(block)
    per_step, size = 0.0 + 0.0j, 0.0
    for j in range(pulse.n_steps):
        coefficients(x.view(np.float64), cf)
        advance(x, x, phases[j] if samples[j] != 0.0 else None, c)
        term = np.sum(coeffs[j] * delta[j] * c)
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
    """The update sweep's per-step phase writer, handed each row of the
    table of another field and its sample as a Python float, writes each
    row of `table` bit for bit."""
    written = kernel.phase_table(np.full_like(samples, 3e-7))
    write = kernel.phase_writer()
    for row, e_field, expected in zip(written, samples[:-1].tolist(), table):
        write(row, e_field)
        assert np.array_equal(row, expected)
    assert np.array_equal(written, table)


@pytest.mark.parametrize(
    "n_members, block",
    [(1, False), (4, False), (1, True), (4, True)],
    ids=["1", "4", "block-1", "block-4"],
)
def test_sweeps_hold_one_costate_array_and_one_phase_table(setup, block_setup, n_members, block):
    # The work arrays of a run and two iterations on them, each a backward
    # sweep and an update sweep: the coefficients are the only step-sized
    # array besides one (n_steps, dim) phase table.  The slack covers the
    # chunk scratch and per-step blocks; one more costate-sized copy does
    # not fit.  The block step's table has the same rows.
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
    assert peak < costate_bytes + table_bytes + slack
    # The reused arrays carry over the field's phases and nothing else.
    assert not np.array_equal(samples, pulse.samples)
    for a, b in zip(again, fresh):
        assert np.array_equal(a, b)
    assert np.array_equal(work[2], kernel.phase_table(again[0]))


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
    # With a = 0 every product and every new sample is exactly zero, so the
    # sweep is the plain propagation under the zero field, and its
    # cross-term is exactly zero, whether the old field was nonzero almost
    # everywhere, so that most samples change, or zero, so that none does.
    kernel, pulse, penalty = setup["kernel"], setup["pulse"], setup["penalty"]
    psi0 = np.stack(setup["psi0"], axis=1)
    zeros = np.zeros_like(setup["coeffs"])
    zero_field = pulse.with_samples(np.zeros_like(pulse.samples))
    plain = _evolve(kernel, psi0, zero_field)
    for old in (pulse, zero_field):
        work = _filled_work(kernel, old, len(MARKED))
        samples, final, cross = _update_sweep(kernel, psi0, zeros, old, penalty, *work[1:])
        assert np.all(samples[:-1] == 0.0)
        assert samples[-1] == old.samples[-1]
        assert np.array_equal(final, plain)
        assert np.array_equal(work[2], kernel.phase_table(samples))
        assert cross == 0.0


@pytest.mark.parametrize("n_members", [1, 4])
@pytest.mark.parametrize("block", [False, True], ids=["dense", "block"])
def test_costate_sweep_is_the_adjoint_step_loop(setup, block_setup, block, n_members):
    # conj(V^T mu_{j+1}) = conj(V^T D* lam_{j+1}) bit for bit, against one
    # inverse step at a time, the step of a kernel of time step -dt, from
    # mu_N, that kernel's shift of lam(T), into a new block per step.  The
    # sweep steps nu = conj(mu) in place with the forward step instead.
    setup = block_setup if block else setup
    h, zsys, pulse, kernel = setup["h"], setup["zsys"], setup["pulse"], setup["kernel"]
    lam_final = kernel.to_kernel_order(np.stack(setup["lam_final"][:n_members], axis=1))
    work = _filled_work(kernel, pulse, n_members)
    coeffs = _costate_sweep(kernel, lam_final, pulse.samples, work)
    assert coeffs is work[0]
    # The loop's phases are the rows of the inverse kernel's own table, (dim,
    # 1) columns; the sweep copies the forward table at full width.
    with step_kind(block):
        inverse = SplitStepKernel(h, zsys, -pulse.dt)
    assert inverse.block == block
    coefficients, advance, (c, cf) = inverse.stepper(lam_final)
    phases = inverse.phase_table(pulse.samples)
    mu = inverse.shift(lam_final)
    for j in range(pulse.n_steps - 1, -1, -1):
        new = np.empty_like(mu)
        # Every step forms c = V^T mu_{j+1}, a zero-field step as well.
        coefficients(mu.view(np.float64), cf)
        assert np.array_equal(coeffs[j], np.conj(c))
        advance(mu, new, phases[j] if pulse.samples[j] != 0.0 else None, c)
        mu = new


C_CALLS = ("dot", "vdot", "copyto", "view")


def _numpy_calls(run):
    """`run()` and the calls it made to `dot`, `vdot` and `copyto`, to the
    `vecdot`, `multiply`, `add`, `subtract` and `conjugate` ufuncs and to
    the `view` method.  The first three are counted with the interpreter's
    profile hook, whether through numpy's Python-level dispatcher (a "call"
    event in multiarray.py) or to the C function behind it (a "c_call"
    event), as is `view`; a ufunc call raises no profile event, so the
    ufuncs are wrapped in counters while `run()` runs (each sweep and each
    stepper takes them from numpy when it starts)."""
    ufunc_names = ("vecdot", "multiply", "add", "subtract", "conjugate")
    counts = dict.fromkeys(("dot", "vdot", "copyto", *ufunc_names, "view"), 0)
    ufuncs = {name: getattr(np, name) for name in ufunc_names}

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
    # The passes of one step on a D-shifted block, its coefficients into a
    # slot of the caller: `coefficients` alone is V^T, one `dot` on the
    # dense step; a field step adds the advance's P, V and D^2, two
    # `multiply` and two `dot` calls in all; and a zero-field step is the
    # advance's one `multiply`.  The block step's products are two
    # half-size `dot`s each, and the sum and difference of each pair's rows
    # one `subtract` and one `add` each way, through its pair scratch, with
    # one `copyto` of c into the slot.
    with step_kind(block):
        kernel = SplitStepKernel(setup["h"], setup["zsys"], DT)
    x = kernel.shift(kernel.to_kernel_order(np.stack(setup["psi0"], axis=1)))
    slot = np.empty_like(x)
    phase = kernel.phase_table(np.array([1.3e-7, 0.0]))[0]
    into_slot = ("coefficients", (x.view(np.float64), slot.view(np.float64)))

    def calls(*halves):
        # The counts of the named halves of one step, less those of binding
        # the stepper.
        def run(n_steps):
            coefficients, advance, _ = kernel.stepper(x)
            bound = {"coefficients": coefficients, "advance": advance}
            for _ in range(n_steps):
                for name, args in halves:
                    bound[name](*args)

        _, bound = _numpy_calls(lambda: run(0))
        _, stepped = _numpy_calls(lambda: run(1))
        return {name: n - bound[name] for name, n in stepped.items() if n != bound[name]}

    pairs = {"subtract": 1, "add": 1, "copyto": 1} if block else {}
    assert calls(into_slot) == {"dot": 2 if block else 1, **pairs}
    pairs = {"subtract": 2, "add": 2, "copyto": 1} if block else {}
    field_step = calls(into_slot, ("advance", (x, x, phase, slot)))
    assert field_step == {"dot": 4 if block else 2, "multiply": 2, **pairs}
    assert calls(("advance", (x, x, None, None))) == {"multiply": 1}


def test_sweep_steps_make_only_their_blas_calls(setup):
    # Per step, the costate sweep calls `dot` twice, or once where the field
    # is exactly zero (V^T only: the diagonal shortcut).  The update sweep
    # forms c at every step; its overlap is one `multiply` and one `dot`,
    # with one member and with four, and the steps whose new sample is not
    # zero add the `dot` of V.  Each chunk forms the overlap's factors with
    # three `copyto` and two `multiply` calls, and its cross-term with one
    # `subtract` and `vecdot`, two `multiply` and one `copyto` (and one
    # `np.einsum`, which calls none of them, for the sums over members).  No
    # step takes a `view`: each sweep takes its float64 views before its
    # first step.
    for n_members in (1, len(MARKED)):
        _assert_sweep_calls(setup, n_members, dots=1, pairs=0)


@pytest.mark.parametrize("n_members", [1, 4])
def test_block_sweep_steps_make_only_their_blas_calls(block_setup, n_members):
    # The same on the block step, whose products with V^T and V are two
    # half-size `dot`s each, with one `subtract` and one `add` for the
    # difference and the sum of each pair's rows, and which copies each c
    # it forms into the costate sweep's slot; its overlap and cross-term are
    # the dense step's.
    _assert_sweep_calls(block_setup, n_members, dots=2, pairs=1)


def _assert_sweep_calls(setup, n_members, dots, pairs):
    """The calls of both sweeps on the first `n_members` members of
    `setup`: `dots` `dot` calls and `pairs` `subtract` and `add` calls per
    product with V^T or V, and `pairs` `copyto` calls per c that the
    costate sweep forms into its slot, and one per chunk of its phases;
    one `multiply` per step for D^2, one more per field step for P and, in
    the update sweep, two per step for its phase row and its overlap's one
    product, whose sum is one more `dot` per step; one `multiply` each way
    across the sweep's boundary; per chunk of the update sweep, four
    `copyto` and four `multiply` calls and one `subtract`, `vecdot` and
    `conjugate`; and no more than eight `view` calls per sweep, whatever
    the number of steps.  The costate sweep conjugates once, lam(T) at
    its boundary, and neither its phases nor its coefficients per chunk;
    the block step's phase rows add `pairs` `conjugate` calls per step of
    the update sweep, for the -s_k rows of each new phase."""
    h, pulse, penalty, kernel = setup["h"], setup["pulse"], setup["penalty"], setup["kernel"]
    n_steps = pulse.n_steps
    chunks = -(-n_steps // CHUNK_STEPS)
    old = pulse.samples[:-1]
    lam_final = kernel.to_kernel_order(np.stack(setup["lam_final"][:n_members], axis=1))
    work = _filled_work(kernel, pulse, n_members)
    with step_kind(kernel.block):
        _, counts = _numpy_calls(lambda: _costate_sweep(kernel, lam_final, pulse.samples, work))
    field_steps = np.count_nonzero(old)
    products = n_steps + field_steps
    assert counts["dot"] == dots * products
    assert counts["subtract"] == counts["add"] == pairs * products
    assert counts["copyto"] == pairs * n_steps + chunks
    assert counts["multiply"] == 1 + n_steps + field_steps
    assert counts["conjugate"] == 1
    assert counts["vdot"] == counts["vecdot"] == 0
    assert counts["view"] <= 8

    psi0 = kernel.to_kernel_order(np.stack(setup["psi0"][:n_members], axis=1))
    coeffs = np.ascontiguousarray(setup["coeffs"][:, :, :n_members])
    zeros = np.zeros_like(coeffs)
    zero_field = pulse.with_samples(np.zeros_like(pulse.samples))
    # With a = 0 every new sample is zero: under the old field the samples
    # that were nonzero change to zero, and under a zero old field none
    # changes; every step still forms c, and only the advance is diagonal.
    for a, before, n_changed in (
        (coeffs, pulse, n_steps),
        (zeros, pulse, np.count_nonzero(old)),
        (zeros, zero_field, 0),
    ):
        work = _filled_work(kernel, before, n_members)
        (samples, _, _), counts = _numpy_calls(
            lambda: _update_sweep(kernel, psi0, a, before, penalty, *work[1:])
        )
        changed = np.count_nonzero(samples[:-1] != before.samples[:-1])
        nonzero = np.count_nonzero(samples[:-1])
        assert changed == n_changed
        products = n_steps + nonzero
        assert counts["dot"] == dots * products + n_steps
        assert counts["vdot"] == 0
        assert counts["subtract"] == pairs * products + chunks
        assert counts["add"] == pairs * products
        # And the one `copyto` with which `np.zeros_like` fills the
        # exponent's inverse.
        assert counts["copyto"] == 4 * chunks + 1
        assert counts["multiply"] == 2 + 3 * n_steps + nonzero + 4 * chunks
        assert counts["vecdot"] == chunks
        assert counts["conjugate"] == chunks + pairs * n_steps
        assert counts["view"] <= 8


@pytest.mark.parametrize("block", [False, True], ids=["dense", "block"])
def test_iterate_without_undispatched_numpy_functions(setup, block_setup, block, monkeypatch):
    # The steps and the update sweep call the C functions behind `np.dot`
    # and `np.copyto` through their private `_implementation`.  A numpy
    # whose functions have none, here plain wrappers, costs only speed: one
    # `_iterate` gives the same bits through the wrappers.
    setup = block_setup if block else setup
    pulse, kernel, penalty = setup["pulse"], setup["kernel"], setup["penalty"]
    psi0, final, targets = _engine_blocks(setup, kernel, MARKED)

    def iterate():
        work = _filled_work(kernel, pulse, len(MARKED))
        with step_kind(kernel.block):
            return _iterate(kernel, psi0, final, targets, pulse, penalty, work)

    expected = iterate()
    calls = dict.fromkeys(("dot", "copyto"), 0)
    for name in calls:

        def plain(*args, _name=name, _function=getattr(np, name), **kwargs):
            calls[_name] += 1
            return _function(*args, **kwargs)

        monkeypatch.setattr(np, name, plain)
    assert not hasattr(np.dot, "_implementation")
    got = iterate()
    # V^T in each sweep, V in each field step and the overlap's sum, at
    # every step.
    assert calls["dot"] > 4 * pulse.n_steps
    # The phases, the old rows and the overlap's factors of every chunk,
    # and each c of the block step's costate sweep.
    chunks = -(-pulse.n_steps // CHUNK_STEPS)
    assert calls["copyto"] >= 3 * chunks + (pulse.n_steps if block else 0)
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
        return sweep(kernel, lam_final, samples, (*work[:2], table))

    def rolled_coefficients(*args):
        return np.roll(sweep(*args), 1, axis=0)

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
    coefficients, advance, (c, cf) = kernel.stepper(block)
    phases = kernel.phase_table(samples)
    # The loop steps x = D psi; the mask commutes with D, and each frame
    # after the first is D* x.
    x = kernel.shift(block)
    x_f = x.view(np.float64)
    expected, times = [block.copy()], [pulse.t0]
    for j in range(pulse.n_steps):
        if samples[j] != 0.0:
            coefficients(x_f, cf)
            advance(x, x, phases[j], c)
        else:
            advance(x, x, None, c)
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
    coeffs = setup["coeffs"]

    def sweeps(block):
        work = _filled_work(kernel, pulse, block.shape[1])
        lam_coeffs = _costate_sweep(kernel, block, pulse.samples, work)
        update = _update_sweep(kernel, block, coeffs, pulse, penalty, *work[1:])
        return (lam_coeffs, _evolve(kernel, block, pulse), *update)

    for block, copy in _layouts(h, np.random.default_rng(5))[:2]:
        kept = block.copy()
        for got, expected in zip(sweeps(block), sweeps(copy)):
            assert np.array_equal(got, expected)
        assert np.array_equal(block, kept)
