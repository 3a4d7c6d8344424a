"""The batched split-step kernel against the per-member sweeps it replaced.

The oracle is tests/reference_sweeps.py.  Both sides start from the same
initial states and terminal costates on the 55-state production basis, with
four register members and a field that is nonzero almost everywhere but has
exact zeros mixed in, so both the zero-field shortcut and the full step run.
The same set-up bounds the sweeps' memory, pins the in-place sweeps and
`propagate` bit for bit to the written-out step and to a plain loop of one
`stepper` step at a time, pins the step-major costate layout and the phase
table that one iteration hands to the next, checks that delta3 flags
costates that do not belong to the field, pins the numpy calls that each
sweep makes per step, and checks that the sweeps give the same bytes
whatever the memory layout of the input block.
"""

import sys
import tracemalloc

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


def _step(kernel, block, e_field):
    """One `stepper` step of `block` under `e_field`, as a new block: the
    phase is the sample's `phase_table` row, and none where it is zero."""
    step, (_, _, c, cf) = kernel.stepper(block)
    out = np.empty(block.shape, dtype=complex)
    if e_field != 0.0:
        step(block, out, kernel.phase_table(np.array([e_field, 0.0]))[0], c, cf)
    else:
        step(block, out, None, None, None)
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


@pytest.mark.parametrize("public", [False, True], ids=["replace", "public-replace"])
def test_update_sweep_matches_oracle(setup, public):
    # The engine's sweep on all four members, or the public
    # forward_update_sweep on the first one, which reports no cross-term.
    h, zsys, pulse, penalty = setup["h"], setup["zsys"], setup["pulse"], setup["penalty"]
    n_members = 1 if public else len(MARKED)
    expected, trajs, expected_cross = ref._sweep(
        setup["psi0"][:n_members], setup["ref_costates"][:n_members], pulse, penalty, h, zsys
    )
    if public:
        new_pulse, final = forward_update_sweep(
            WavePacket(setup["psi0"][0]), setup["ref_costates"][0], pulse, penalty, h, zsys
        )
        samples, final = new_pulse.samples, final.amplitudes[:, None]
    else:
        work = _filled_work(setup["kernel"], pulse, n_members)
        samples, final, cross = _update_sweep(
            setup["kernel"],
            np.stack(setup["psi0"], axis=1),
            setup["z_lam"],
            setup["coeffs"],
            pulse,
            penalty,
            *work[2:],
        )
        assert abs(cross - expected_cross) <= 1e-12
        # The sweep leaves the new field's phases in the table.
        assert np.array_equal(work[3], setup["kernel"].phase_table(samples))
    # Relative to the field's scale: where a new sample crosses zero, the
    # overlap sum cancels and its own relative error is unbounded.
    scale = np.max(np.abs(expected))
    np.testing.assert_allclose(samples, expected, rtol=1e-12, atol=1e-12 * scale)
    for i, traj in enumerate(trajs):
        assert np.max(np.abs(final[:, i] - traj[-1])) <= 1e-12


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_phase_table_rows_are_the_per_step_phases(setup, sign):
    # Row j is exp(E_j x exponent) of step j alone, exactly 1 where E_j = 0,
    # and has the same bits in a table of any slice of the grid, such as the
    # chunks that `propagate` forms.
    kernel = SplitStepKernel(setup["h"], setup["zsys"], sign * DT)
    samples = setup["pulse"].samples
    table = kernel.phase_table(samples)
    assert table.shape == (len(samples) - 1, setup["h"].dim, 1)
    for j, e_field in enumerate(samples[:-1].tolist()):
        assert np.array_equal(table[j], np.exp(e_field * kernel.exponent))
        if e_field == 0.0:
            assert np.all(table[j] == 1.0)
    for start, stop in ((0, 1), (5, 64), (300, 340), (700, len(samples) - 1)):
        assert np.array_equal(kernel.phase_table(samples[start : stop + 1]), table[start:stop])


@pytest.mark.parametrize("n_members", [1, 4])
def test_sweeps_hold_two_costate_arrays_and_one_phase_table(setup, n_members):
    # The work arrays of a run and two iterations on them, each a backward
    # sweep and an update sweep: z lam and the coefficients are the only
    # step-sized arrays besides one (n_steps, dim) phase table.  The slack
    # covers the chunk scratch and per-step blocks; one more costate-sized
    # copy does not fit.
    h, pulse = setup["h"], setup["pulse"]
    kernel, penalty = setup["kernel"], setup["penalty"]
    psi0 = np.stack(setup["psi0"][:n_members], axis=1)
    final = _evolve(kernel, psi0, pulse)
    targets = (np.array([h.index(bit) for bit in MARKED[:n_members]]), np.arange(n_members))
    costate_bytes = pulse.n_steps * h.dim * n_members * 16
    table_bytes = pulse.n_steps * h.dim * 16
    slack = 512 * 1024

    def second(work):
        # The iteration after the first, under the field that it returned.
        return _iterate(
            kernel, psi0, new_final, targets, pulse.with_samples(samples), penalty, work
        )

    tracemalloc.start()
    try:
        work = _filled_work(kernel, pulse, n_members)
        samples, new_final, _ = _iterate(kernel, psi0, final, targets, pulse, penalty, work)
        again = second(work)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert costate_bytes > slack
    assert peak < 2 * costate_bytes + table_bytes + slack
    # The reused arrays carry over the field's phases and nothing else.
    assert not np.array_equal(samples, pulse.samples)
    fresh = second(_filled_work(kernel, pulse.with_samples(samples), n_members))
    for a, b in zip(again, fresh):
        assert np.array_equal(a, b)
    assert np.array_equal(work[3], kernel.phase_table(again[0]))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_step_is_the_written_out_split_step(setup, sign):
    # Bit for bit, the operation order D (V (P (V^T (D x)))), with V and V^T
    # applied to the float64 view, and D (D x) where the field is zero.
    kernel = SplitStepKernel(setup["h"], setup["zsys"], sign * DT)
    block = np.stack(setup["psi0"], axis=1)
    half = kernel.half

    def real(m, x):
        return (m @ x.view(np.float64)).view(np.complex128)

    for e_field in (0.0, 1.3e-7):
        if e_field == 0.0:
            expected = half * (half * block)
        else:
            phase = np.exp(e_field * kernel.exponent)
            expected = half * real(kernel.v, phase * real(kernel.vt, half * block))
        assert np.array_equal(_step(kernel, block, e_field), expected)


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
    # lam_j and V^T D* lam_{j+1} bit for bit, against one adjoint step at a
    # time from T.
    h, pulse, kernel = setup["h"], setup["pulse"], setup["kernel"]
    lam_final = np.stack(setup["lam_final"], axis=1)
    work = _filled_work(kernel, pulse, len(MARKED))
    lam_buffer, coeffs = _costate_sweep(kernel, lam_final, pulse.samples, work)
    # The loop's adjoint phases are the rows of the adjoint kernel's own table
    # (dim, 1) columns; the sweep conjugates the forward table at full width.
    adjoint = kernel.adjoint()
    step, (_, _, c, cf) = adjoint.stepper(lam_final)
    phases = adjoint.phase_table(pulse.samples)
    lam = lam_final
    for j in range(pulse.n_steps - 1, -1, -1):
        new = np.empty_like(lam)
        # Every step forms c = V^T D* lam_{j+1}, a zero-field step as well.
        step(lam, new, phases[j] if pulse.samples[j] != 0.0 else None, c, cf)
        assert np.array_equal(coeffs[j], c)
        lam = new
        assert np.array_equal(lam_buffer[j], lam)


def _numpy_calls(run):
    """`run()` and the calls it made to the `dot` and `vdot` dispatchers and
    to the `view` method, counted with the interpreter's profile hook."""
    counts = {"dot": 0, "vdot": 0, "view": 0}

    def profile(frame, event, arg):
        name = frame.f_code.co_name
        if event == "call" and name in ("dot", "vdot"):
            if frame.f_code.co_filename.endswith("multiarray.py"):
                counts[name] += 1
        elif event == "c_call" and getattr(arg, "__name__", None) == "view":
            counts["view"] += 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, counts


def test_sweep_steps_make_only_their_blas_calls(setup):
    # Per step, the costate sweep calls `dot` twice, or once where the field
    # is exactly zero (V^T only: the diagonal shortcut); the update sweep
    # calls `vdot` once for the overlap and, where the sample changes, the
    # `dot`s of a step that forms c and once more for the cross-term.  No
    # step takes a `view`: each sweep takes its float64 views before its
    # first step.
    h, pulse, penalty, kernel = setup["h"], setup["pulse"], setup["penalty"], setup["kernel"]
    n_steps = pulse.n_steps
    per_sweep_views = 4
    old = pulse.samples[:-1]
    lam_final = np.stack(setup["lam_final"], axis=1)
    work = _filled_work(kernel, pulse, len(MARKED))
    _, counts = _numpy_calls(lambda: _costate_sweep(kernel, lam_final, pulse.samples, work))
    assert counts["dot"] == 2 * n_steps - np.count_nonzero(old == 0.0)
    assert counts["vdot"] == 0
    assert counts["view"] <= per_sweep_views

    psi0 = np.stack(setup["psi0"], axis=1)
    zeros = np.zeros_like(setup["z_lam"])
    zero_field = pulse.with_samples(np.zeros_like(pulse.samples))
    # With z lam = 0 every new sample is zero: under the old field the
    # samples that were nonzero change to zero, and under a zero old field
    # none changes, so every step is diagonal and forms no c.
    for z_lam, before, n_changed in (
        (setup["z_lam"], pulse, n_steps),
        (zeros, pulse, np.count_nonzero(old)),
        (zeros, zero_field, 0),
    ):
        work = _filled_work(kernel, before, len(MARKED))
        (samples, _, _), counts = _numpy_calls(
            lambda: _update_sweep(kernel, psi0, z_lam, setup["coeffs"], before, penalty, *work[2:])
        )
        was = before.samples[:-1]
        changed = np.count_nonzero(samples[:-1] != was)
        nonzero = np.count_nonzero(samples[:-1])
        changed_to_zero = np.count_nonzero((samples[:-1] != was) & (samples[:-1] == 0.0))
        assert changed == n_changed
        assert counts["dot"] == 2 * nonzero + changed_to_zero
        assert counts["vdot"] == n_steps + changed
        assert counts["view"] <= per_sweep_views


def test_apply_z_is_the_dim_major_chunk_product_in_place(setup):
    # z lam_j replaces lam_j in the step-major buffer, which comes back
    # itself, and equals bit for bit the product that z lam_j had when the
    # costates were stored dim-major: z times 64 steps of the
    # (dim, n_steps x 2M) float64 view at a time, the last chunk a short one.
    # _apply_z multiplies half chunks; the buffer cut by 7 steps ends in a
    # short half chunk as well.
    h, pulse, kernel = setup["h"], setup["pulse"], setup["kernel"]
    work = _work_arrays(pulse.n_steps, h.dim, len(MARKED))
    lam_final = np.stack(setup["lam_final"], axis=1)
    lam_buffer, _ = _costate_sweep(kernel, lam_final, pulse.samples, work)
    assert (pulse.n_steps - 7) % (CHUNK_STEPS // 2) != 0
    for costates in (lam_buffer, lam_buffer[:-7]):
        n_steps = len(costates)
        dim_major = np.ascontiguousarray(costates.transpose(1, 0, 2))
        flat = dim_major.reshape(h.dim, -1).view(np.float64)
        width = 2 * len(MARKED) * 64
        for start in range(0, flat.shape[1], width):
            chunk = flat[:, start : start + width]
            chunk[...] = kernel.z @ chunk
        # What the scratch held before does not reach the product.
        for scratch in (work[2], np.full_like(work[2], np.nan)):
            z_lam = _apply_z(kernel, costates.copy(), scratch)
            assert z_lam.shape == (n_steps, h.dim, len(MARKED))
            assert z_lam.flags.c_contiguous
            for j in range(n_steps):
                assert np.array_equal(z_lam[j], dim_major[:, j])
    assert _apply_z(kernel, lam_buffer, work[2]) is lam_buffer


def test_delta3_flags_costates_that_do_not_belong_to_the_field(setup, monkeypatch):
    # delta3 vanishes only when every costate slot holds the adjoint of
    # the field that the update sweep steps under: costates swept under a
    # scaled field, coefficients one slot off, or a second iteration whose
    # phase table the first did not update to its new field, must show.
    h, pulse, kernel, penalty = setup["h"], setup["pulse"], setup["kernel"], setup["penalty"]
    psi0 = np.stack(setup["psi0"], axis=1)
    final = _evolve(kernel, psi0, pulse)
    targets = (np.array([h.index(bit) for bit in MARKED]), np.arange(len(MARKED)))

    def delta3():
        # The larger |delta3| of two iterations on one set of work arrays.
        work = _filled_work(kernel, pulse, len(MARKED))
        args = (psi0, final, targets, pulse, penalty, work)
        samples, new_final, first = _iterate(kernel, *args)
        args = (psi0, new_final, targets, pulse.with_samples(samples), penalty, work)
        return max(abs(first), abs(_iterate(kernel, *args)[2]))

    assert delta3() <= 1e-10
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
    kernel = setup["kernel"]
    for block, copy in _layouts(setup["h"], np.random.default_rng(3)):
        if block.ndim == 1:
            # The kernel steps (dim, M) blocks; one state is a (dim, 1) column.
            block, copy = block[:, None], copy[:, None]
        assert np.array_equal(_step(kernel, block, e_field), _step(kernel, copy, e_field))


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
    expected, times = [block.copy()], [pulse.t0]
    for j in range(pulse.n_steps):
        if samples[j] != 0.0:
            step(block, block, phases[j], c, cf)
        else:
            step(block, block, None, None, None)
        np.multiply(block, mask, out=block)
        if (j + 1) % record == 0 or j + 1 == pulse.n_steps:
            expected.append(block.copy())
            times.append(pulse.t0 + (j + 1) * pulse.dt)
    assert len(trajectory) == len(expected) == pulse.n_steps // record + 2
    for packet, amplitudes, t in zip(trajectory, expected, times):
        assert np.array_equal(packet.amplitudes, amplitudes)
        assert packet.time == pytest.approx(t, rel=1e-12)
    assert np.array_equal(final.amplitudes, block)
    assert np.max(np.linalg.norm(block, axis=0)) < 1.0


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
