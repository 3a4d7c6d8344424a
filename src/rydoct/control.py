"""Single-target optimal control of the decoding field.

One iteration of the loop is: propagate the state forward under the current
field, project the final state onto the target to seed the costate,
propagate the costate backward under the same field, then sweep forward
again updating the field sample by sample from the costate/state overlap
before advancing the state through each step (immediate feedback).

The update rule, named "replace", sets

    E(t_j) <- Im <D lam(t_j)| z |D psi(t_j)> / l(t_j),   D = exp(-i H0 dt/2),

the overlap taken between the two half free steps of step j, where its
field acts.  In continuous time this makes the functional J = yield - cost
monotone.  In discrete time an iteration gains at least sum_j g_j, with

    g_j(E) = 2 Re <lam(t_{j+1})| (S_j(E) - S_j(E_old)) |psi(t_j)>
             - l(t_j) dt (E^2 - E_old^2)

for the step S_j, the old field's costate and the new field's state, and
the rule maximizes g_j to first order in E - E_old: its fixed points are
the stationary points of the discrete J.  The same overlap taken at t_j,
before the half step, is off by O(dt); its fixed points are not
stationary, and J falls once an iteration gains less than that offset.
A g_j can still be negative where the field changes fast, so J is not
guaranteed to rise.  The rule is the only one: the problem types and
`forward_update_sweep` take its name and reject any other.

Each sweep is written once, and the engine (`_run_engine`) runs it on a
(dim, M) block of members.  `_costate_sweep` integrates the costates from T
back to t0 under the old field; the engine then applies z to them in place
(`_apply_z`).  `_update_sweep` is the forward sweep with feedback.  The
sweeps carry D-shifted states (see `rydoct.propagation`), so that the two
half steps that meet between consecutive steps are one multiply: the
update sweep steps x_j = D psi_j and the costate sweep mu_j = D* lam_j,
each converting once at its boundary.  `_apply_z` multiplies each mu_j
by the free step D^2 on its way into its chunk product, z D^2 mu_j =
z D lam_j, so that the update sweep's overlap <z D lam_j|x_j> is the
rule's <D lam_j| z |D psi_j>.  The sweeps fill work arrays that the
engine allocates once per run (`_work_arrays`): two step-major
(n_steps, dim, M) costate arrays, whose per-step blocks are contiguous;
one (n_steps, dim, 1) table of the swept field's phases P(E_j); and one
scratch of `CHUNK_STEPS` steps (see `_chunk_scratch`) that carries those
phases at full (dim, M) width in the costate sweep, the transposed chunks
that z multiplies between the sweeps, and the update sweep's half chunks
of the delta3 cross-term.  Each
field's phases are formed once for the sweeps: the engine fills the table
from the guess, and the update sweep writes the phase of each new sample
into its row, so the table it leaves is the next iteration's old field.
Each sweep binds its kernel calls and float64 views once, before its
first step (`SplitStepKernel.stepper`, the one split step), so that no
step makes a temporary array, takes a view or copies a block out.  The
public `backward_propagate` and `forward_update_sweep` run these same two
sweeps on one member, so what they return is what one iteration computes.

The step kind, dense or parity-block, is the kernel's decision alone (see
`rydoct.propagation`): one body of each sweep runs on either, through
kernel calls.  The sweeps work in the kernel's row order: the engine
permutes its blocks once, after the guess run, and back for
`OctResult.final_states`, and the two public sweeps permute at their own
boundary, so every result is in basis order.

The cross-term diagnostic `delta3` checks that the discrete forward and
backward propagations are exact adjoints of each other: it evaluates the
integration-by-parts residual that must vanish identically for the
monotonicity bookkeeping to hold, and stays at rounding level (<= 1e-10)
when the one-convention-everywhere rule is respected.  The cross-term
never feeds back into the field, so the update sweep forms it 32 steps at
a time from the per-step c_j = V^T D psi_j and P_new - P_old that its steps
leave behind, with no call of its own per step.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .atomic import HamiltonianData, StateLabel
from .errors import InvalidSpecError
from .propagation import (
    CHUNK_STEPS,
    PulseGrid,
    SplitStepKernel,
    WavePacket,
    ZEigensystem,
    precompute_z_eigensystem,
    propagate,
    undispatched,
)

__all__ = [
    "PenaltySchedule",
    "OctProblem",
    "OctResult",
    "evaluate_cost",
    "costate_terminal",
    "backward_propagate",
    "forward_update_sweep",
    "optimize",
]

#: Amplitude of the smooth bump used to break an exactly stalled start.
STALL_BUMP_AMPLITUDE = 1e-10
#: J decreases beyond this are flagged as monotonicity violations.
MONOTONICITY_SLACK = 1e-9
#: The name of the one field update rule; see the module docstring.
UPDATE_MODE = "replace"


@dataclass(frozen=True)
class PenaltySchedule:
    """Time-dependent fluence penalty l(t): flat base with boosted edges.

    l(t) = base * (1 + (edge_multiplier - 1) * w(t)) where w ramps smoothly
    (cos^2) from 1 at both endpoints to 0 on the interior plateau over a
    fraction `ramp_fraction` of the horizon.  Large edge values force the
    optimized field to switch on and off smoothly.
    """

    base: float
    edge_multiplier: float
    ramp_fraction: float
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.base <= 0:
            raise InvalidSpecError("penalty base must be positive")
        if self.edge_multiplier < 1:
            raise InvalidSpecError("edge multiplier must be >= 1")
        if not 0.0 < self.ramp_fraction < 0.5:
            raise InvalidSpecError("ramp fraction must lie in (0, 0.5)")
        if not np.all(np.isfinite(self.samples)):
            raise InvalidSpecError(
                "penalty samples must be finite: base x edge multiplier overflows"
            )

    @classmethod
    def build(
        cls,
        pulse: PulseGrid,
        base: float = 1e10,
        edge_multiplier: float = 1000.0,
        ramp_fraction: float = 0.05,
    ) -> "PenaltySchedule":
        t = pulse.times()
        span = pulse.horizon - pulse.t0
        ramp = ramp_fraction * span
        w = np.zeros(len(t))
        left = t - pulse.t0
        right = pulse.horizon - t
        on_left = left < ramp
        on_right = right < ramp
        w[on_left] = np.cos(np.pi * left[on_left] / (2.0 * ramp)) ** 2
        w[on_right] = np.cos(np.pi * right[on_right] / (2.0 * ramp)) ** 2
        # An overflow is rejected by __post_init__, not warned about.
        with np.errstate(over="ignore"):
            samples = base * (1.0 + (edge_multiplier - 1.0) * w)
        return cls(
            base=base,
            edge_multiplier=edge_multiplier,
            ramp_fraction=ramp_fraction,
            samples=samples,
        )


def evaluate_cost(pulse: PulseGrid, penalty: PenaltySchedule) -> float:
    """Fluence cost sum_j l(t_j) E(t_j)^2 dt, left-endpoint rule over [t0, T]."""
    if len(penalty.samples) != len(pulse.samples):
        raise InvalidSpecError(
            f"penalty sampled on {len(penalty.samples)} points but the field has "
            f"{len(pulse.samples)}"
        )
    return float(np.sum(penalty.samples[:-1] * pulse.samples[:-1] ** 2) * pulse.dt)


def costate_terminal(psi_final: WavePacket, target_index: int) -> WavePacket:
    """Terminal costate <target|psi(T)> |target>.

    Deliberately not normalized: its norm is the target amplitude magnitude,
    which sets the size of the field update.
    """
    amps = np.zeros_like(psi_final.amplitudes)
    amps[target_index] = psi_final.amplitudes[target_index]
    return WavePacket(amplitudes=amps, time=psi_final.time)


def backward_propagate(
    costate_final: WavePacket,
    pulse: PulseGrid,
    h: HamiltonianData,
    zsys: ZEigensystem,
) -> np.ndarray:
    """Costate trajectory lam(t_j) for every grid point, integrated from T to t0.

    Runs the engine's costate sweep on one member and returns its lam_j,
    shifted back from the mu_j = D* lam_j that the sweep stores, then lam(T)
    itself as the last row: an (n_samples, dim) array in basis
    order, whatever order the kernel keeps.  Each backward step is the
    adjoint of the forward split step with the same field sample, so the
    discrete forward and backward propagations are exact inverses.
    """
    kernel = SplitStepKernel(h, zsys, pulse.dt)
    lam_final = np.array(kernel.to_kernel_order(costate_final.amplitudes), dtype=complex)
    lam_final = lam_final.reshape(h.dim, 1)
    work = _work_arrays(pulse.n_steps, h.dim, 1)
    kernel.phase_table(pulse.samples, out=work[3])
    lam_buffer, _ = _costate_sweep(kernel, lam_final, pulse.samples, work)
    # lam_j = D mu_j.
    lam = kernel.shift(lam_buffer)[:, :, 0]
    return kernel.to_basis_order(np.concatenate([lam, lam_final.T]), axis=1)


def _work_arrays(n_steps: int, dim: int, n_members: int) -> tuple[np.ndarray, ...]:
    """The arrays a run's sweeps fill: the (n_steps, dim, M) costate
    buffer, the (n_steps, dim, M) coefficient array, the chunk scratch (see
    `_chunk_scratch`) and the (n_steps, dim, 1) phase table.

    Row j of the table is P(E_j) of the field being swept, as
    `SplitStepKernel.phase_table` forms it.  The engine fills it from the
    guess before any sweep reads it, the costate sweep reads it, and the
    update sweep writes the phase of each new sample into its row, so that
    it holds the new field when the iteration ends.
    The chunk scratch is a work space of each sweep and of `_apply_z` and
    carries nothing between them.  Allocated once per run, the arrays stay
    mapped instead of going back to the system between iterations.
    """
    return (
        np.empty((n_steps, dim, n_members), dtype=complex),
        np.empty((n_steps, dim, n_members), dtype=complex),
        _chunk_scratch(dim, n_members),
        np.ones((n_steps, dim, 1), dtype=complex),
    )


def _chunk_scratch(dim: int, n_members: int) -> np.ndarray:
    """One (CHUNK_STEPS, dim, M) complex block, the only chunk-sized array.

    The costate sweep conjugates `CHUNK_STEPS` rows of the phase table into
    it at a time, broadcast to full width, so that each adjoint step
    multiplies a contiguous (dim, M) phase rather than a column broadcast
    row by row.
    `_apply_z`, which runs between the sweeps, uses its two halves as one
    transposed half chunk of costates and its product with z.  The update
    sweep uses the first half as a (CHUNK_STEPS // 2, dim, M) store of the
    steps' c_j and the head of the second as a contiguous
    (CHUNK_STEPS // 2, dim, 1) copy of the same steps' old phases.  No use
    reads what an earlier one left.
    """
    return np.empty((CHUNK_STEPS, dim, n_members), dtype=complex)


def _costate_sweep(
    kernel: SplitStepKernel,
    lam_final: np.ndarray,
    samples: np.ndarray,
    work: tuple[np.ndarray, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """The costates under the old field, integrated from T to t0.

    Fills and returns the first two of the `_work_arrays`: the shifted
    costate mu_j = D* lam_j that the adjoint steps carry, for every step, as
    the step-major (n_steps, dim, M) buffer, and the (n_steps, dim, M)
    array V^T mu_{j+1} = V^T D* lam_{j+1}: the coefficients that the adjoint
    of step j forms on its way, kept for the delta3 cross-term of step j.
    The old field's phases come from the work arrays' phase table, which
    must hold P(E_j) of `samples`; `samples` itself only marks the
    zero-field steps.  They reach the steps `CHUNK_STEPS` at a time,
    conjugated into the chunk scratch at full width by one call, which is
    the adjoint phase bit for bit.  The adjoint of step j reads mu_{j+1}
    from its slot of the buffer (the shift of `lam_final` for the last
    step) and writes mu_j and its coefficients straight into slot j of the
    two arrays, through float64 views taken once per sweep, so nothing is
    copied out per step.
    """
    lam_buffer, coeffs, scratch, table = work
    adjoint = kernel.adjoint()
    step, _ = adjoint.stepper(lam_final)
    lam_buffer_f, coeffs_f = lam_buffer.view(np.float64), coeffs.view(np.float64)
    mu = adjoint.shift(lam_final)
    mu_f = mu.view(np.float64)
    fields = samples[:-1].tolist()
    for start in reversed(range(0, len(fields), CHUNK_STEPS)):
        stop = min(start + CHUNK_STEPS, len(fields))
        phases = scratch[: stop - start]
        np.conjugate(table[start:stop], out=phases)
        for j in range(stop - 1, start - 1, -1):
            mu_j = lam_buffer[j]
            if fields[j] != 0.0:
                step(mu, mu_f, mu_j, phases[j - start], coeffs[j], coeffs_f[j])
            else:
                step(mu, mu_f, mu_j, None, None, coeffs_f[j])
            mu, mu_f = mu_j, lam_buffer_f[j]
    return lam_buffer, coeffs


def _apply_z(kernel: SplitStepKernel, lam_buffer: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """z D^2 mu_j = z D lam_j in place of mu_j; returns the (n_steps, dim, M) buffer itself.

    z acts on half a chunk of steps as one real product.  Each half chunk of
    costates mu_j = D* lam_j, as the costate sweep stores them, is
    multiplied by the free step D^2 (`SplitStepKernel.free`) into a
    contiguous (dim, steps x M) block in the first half of `scratch`, a
    `_chunk_scratch` of the buffer's width, transposed on the way, so that
    its float64 view holds each D lam_j's real and imaginary parts as a
    column pair: the (dim, steps x 2M) operand that z met when the costates
    were stored dim-major.  Each product column depends only on its operand
    column, so the product has the same bits as the dim-major one.  It goes
    into the second half, as `SplitStepKernel.multiply_z` forms it in the
    kernel's row order, and is copied back.  The multiply reads D^2 from one
    contiguous (dim, steps, M) block, which is faster than a broadcast
    column across the transposition.
    """
    n_steps, dim, n_members = lam_buffer.shape
    half = CHUNK_STEPS // 2
    d = np.ascontiguousarray(np.broadcast_to(kernel.free[:, :, None], (dim, half, n_members)))
    for start in range(0, n_steps, half):
        chunk = lam_buffer[start : start + half]
        src, dst = (
            block.reshape(-1)[: chunk.size].reshape(dim, -1)
            for block in (scratch[:half], scratch[half:])
        )
        dk = d[:, : len(chunk)]
        np.multiply(dk, chunk.transpose(1, 0, 2), src.reshape(dim, -1, n_members))
        kernel.multiply_z(src.view(np.float64), dst.view(np.float64))
        np.copyto(chunk.transpose(1, 0, 2), dst.reshape(dim, -1, n_members))
    return lam_buffer


def _update_sweep(
    kernel: SplitStepKernel,
    psi0: np.ndarray,
    z_lam: np.ndarray,
    coeffs: np.ndarray,
    pulse: PulseGrid,
    penalty: PenaltySchedule,
    scratch: np.ndarray,
    table: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, complex]:
    """Forward sweep with immediate field feedback, shared by all members.

    `psi0` is the (dim, M) block of initial states, `z_lam[j]` the block of
    z D lam_i(t_j) and `coeffs[j]` that of V^T D* lam_i(t_{j+1}), as the
    engine's costate sweep and `_apply_z` leave them.  The block advances as
    x_j = D psi_j, shifted once at each end, and each member's increment is
    Im <z D lam_j|x_j> = Im <D lam_j| z |D psi_j>.  At each
    step the increments of every member are summed into one field value,
    and then the whole block advances through the step under that new
    value.  Returns the new field samples, the final block and the
    cross-term sum_j <lam(t_{j+1})| (S_new - S_old) psi(t_j)> needed for the
    delta3 diagnostic.  `table` is the phase table of the work arrays (see
    `_work_arrays`) and holds P(E_old) of `pulse` on entry.  Only P(E_new),
    which depends on the feedback, is formed per step, written into row j
    of the table by the kernel's `phase_writer`, bound once per sweep, so
    that the table holds P(E_new) on return.  The new samples are collected
    in a list and stored once.  `psi0` itself is not written.

    The cross-term never feeds back into the field, so it is formed half a
    chunk (`CHUNK_STEPS` // 2 steps) at a time in the chunk `scratch`.  Its
    first half stores each step's c_j = V^T D psi_j, which the step writes
    straight into its slot through the store's float64 view, taken once per
    sweep; a step whose sample is zero and unchanged forms no c, and its
    slot, which may hold anything, NaN included, is zeroed.  The second
    half holds a contiguous (steps, dim, 1) copy of the half chunk's old
    table rows, which become P_new - P_old in place after the half chunk
    and then multiply the stored c_j in place.  Each step's
    <D* lam_{j+1}| V (P_new - P_old) c_j> is then one `np.vecdot` over its
    own (dim x M) row, so that the result does not depend on the BLAS
    thread count; the values are added in step order.
    """
    step, _ = kernel.stepper(psi0)
    write_phase = kernel.phase_writer(table)
    psi = kernel.shift(psi0)
    psi_f = psi.view(np.float64)
    multiply, subtract, vecdot = np.multiply, np.subtract, np.vecdot
    # The C function behind `np.vdot`, without its Python-level dispatcher.
    vdot = undispatched(np.vdot)
    cross_term = 0.0 + 0.0j
    weights = penalty.samples.tolist()
    new_samples = pulse.samples.astype(float)
    # Read as E_old and overwritten with E_new step by step.
    fields = new_samples[:-1].tolist()
    half = CHUNK_STEPS // 2
    c_store = scratch[:half]
    # Slot j - start of the store and its float64 view, one pair per step.
    slots = list(zip(c_store, c_store.view(np.float64)))
    phase_change = scratch[half:].reshape(-1)[: half * len(psi)].reshape(half, -1, 1)
    for start in range(0, len(fields), half):
        stop = min(start + half, len(fields))
        k = stop - start
        np.copyto(phase_change[:k], table[start:stop])
        for j, (c, cf) in zip(range(start, stop), slots):
            e_old = fields[j]
            e_new = float(vdot(z_lam[j], psi).imag) / weights[j]
            fields[j] = e_new
            phase = write_phase(j, e_new)
            if e_new != 0.0:
                step(psi, psi_f, psi, phase, c, cf)
            elif e_new != e_old:
                # A zero field keeps the step diagonal, but a changed one
                # still forms c for the cross-term.
                step(psi, psi_f, psi, None, c, cf)
            else:
                step(psi, psi_f, psi, None, None, None)
                c.fill(0.0)
        # <lam_{j+1}| D V (P_new - P_old) c_j> with c_j = V^T D psi_j, as
        # <coeffs_j| (P_new - P_old) c_j> over each step's (dim x M) row.
        delta, stored = phase_change[:k], c_store[:k]
        subtract(table[start:stop], delta, delta)
        multiply(delta, stored, stored)
        for value in vecdot(coeffs[start:stop].reshape(k, -1), stored.reshape(k, -1)).tolist():
            cross_term += value
    new_samples[:-1] = fields
    return new_samples, kernel.unshift(psi), cross_term


def forward_update_sweep(
    psi0: WavePacket,
    costates: np.ndarray,
    pulse: PulseGrid,
    penalty: PenaltySchedule,
    h: HamiltonianData,
    zsys: ZEigensystem,
    update_mode: str = UPDATE_MODE,
) -> tuple[PulseGrid, WavePacket]:
    """Single-target field update sweep; `update_mode` must name the one rule.

    `costates` is the (n_samples, dim) trajectory from backward_propagate
    under the old field.  Runs the engine's update sweep on one member and
    returns the updated field and the final state at T.  The final field
    sample sits at T itself, after the last step, and is left unchanged.
    As in the engine, the costates are shifted to mu_j = D* lam_j, z D lam_j
    comes from `_apply_z` and V^T D* lam_{j+1} from the adjoint `stepper`,
    here for every step in one product.
    """
    _check_mode(update_mode)
    kernel = SplitStepKernel(h, zsys, pulse.dt)
    adjoint = kernel.adjoint()
    costates = kernel.to_kernel_order(np.asarray(costates, dtype=complex), axis=1)
    # mu_j = D* lam_j, as the engine's costate sweep stores them.
    mu = adjoint.shift(costates[:, :, None])
    mu_next = np.ascontiguousarray(mu[1:, :, 0].T)
    adjoint_step, (x, _, c, cf) = adjoint.stepper(mu_next)
    # D*^2 mu lands in x, unused.
    adjoint_step(mu_next, mu_next.view(np.float64), x, None, c, cf)
    coeffs = c.T[:, :, None]
    scratch = _chunk_scratch(h.dim, 1)
    z_lam = _apply_z(kernel, mu[:-1], scratch)
    psi = kernel.to_kernel_order(np.asarray(psi0.amplitudes, dtype=complex)).reshape(h.dim, 1)
    table = kernel.phase_table(pulse.samples)
    new_samples, final, _ = _update_sweep(
        kernel, psi, z_lam, coeffs, pulse, penalty, scratch, table
    )
    final = kernel.to_basis_order(final[:, 0])
    return pulse.with_samples(new_samples), WavePacket(final, time=pulse.horizon)


def _check_mode(update_mode: str) -> None:
    if update_mode != UPDATE_MODE:
        raise InvalidSpecError(f"update mode must be {UPDATE_MODE!r}, got {update_mode!r}")


def _check_problem(problem, targets) -> list[int]:
    """The construction-time check of every problem type; returns the target indices.

    `problem` has the fields that the engine reads (see `_run_engine`).
    """
    if len(problem.penalty.samples) != len(problem.guess.samples):
        raise InvalidSpecError("penalty schedule and guess field grids differ")
    with np.errstate(over="ignore", invalid="ignore"):
        cost = evaluate_cost(problem.guess, problem.penalty)
    if not math.isfinite(cost):
        raise InvalidSpecError(f"the guess's fluence cost must be finite, got {cost!r}")
    _check_mode(problem.update_mode)
    return [problem.hamiltonian.index(target) for target in targets]


@dataclass
class OctProblem:
    """Specification of one single-target optimization run."""

    hamiltonian: HamiltonianData
    psi0: WavePacket
    target: StateLabel | str
    penalty: PenaltySchedule
    guess: PulseGrid
    max_iterations: int = 200
    tolerance: float = 1e-6
    update_mode: str = UPDATE_MODE

    def __post_init__(self):
        (self.target_index,) = _check_problem(self, [self.target])


@dataclass
class OctResult:
    """Optimized field plus per-iteration convergence records.

    A run has M members, each a state that must end in its own target, all
    under one shared field: M = 1 for `optimize`, one per marked bit for
    `optimize_ensemble`.  `yield_history` is (iterations, M) and
    `final_states` the (dim, M) block at T under `field`; `guess_yields`
    holds the M yields under the guess.  J is the summed yield minus the
    fluence cost, which is charged once.
    """

    field: PulseGrid
    j_history: np.ndarray
    yield_history: np.ndarray
    cost_history: np.ndarray
    delta3_history: np.ndarray
    final_states: np.ndarray
    guess_yields: np.ndarray
    guess_j: float
    iterations: int
    converged: bool
    monotonic: bool
    first_decrease_iteration: int | None

    @property
    def final_yield(self) -> float:
        """Summed member yield after the last iteration, or under the guess."""
        return float(np.sum(self.yield_history[-1])) if self.iterations else self.guess_yield

    @property
    def guess_yield(self) -> float:
        return float(np.sum(self.guess_yields))


def _apply_stall_bump(pulse: PulseGrid) -> PulseGrid:
    t = pulse.times()
    span = pulse.horizon - pulse.t0
    bump = STALL_BUMP_AMPLITUDE * np.sin(np.pi * (t - pulse.t0) / span) ** 2
    return pulse.with_samples(pulse.samples + bump)


def _iterate(
    kernel: SplitStepKernel,
    psi0: np.ndarray,
    final: np.ndarray,
    targets: tuple[np.ndarray, np.ndarray],
    pulse: PulseGrid,
    penalty: PenaltySchedule,
    work: tuple[np.ndarray, ...],
) -> tuple[np.ndarray, np.ndarray, float]:
    """One backward sweep and one update sweep: new field, final block, delta3.

    Both sweeps write into `work` (see `_work_arrays`).  Its phase table
    must hold the phases of `pulse` and holds those of the new field on
    return; that is all that one iteration hands to the next.
    """
    lam_final = np.zeros_like(final)
    lam_final[targets] = final[targets]
    lam_buffer, coeffs = _costate_sweep(kernel, lam_final, pulse.samples, work)
    z_lam = _apply_z(kernel, lam_buffer, work[2])
    new_samples, new_final, cross_term = _update_sweep(
        kernel, psi0, z_lam, coeffs, pulse, penalty, *work[2:]
    )
    boundary = np.vdot(lam_final, new_final - final)
    return new_samples, new_final, float(2.0 * (boundary - cross_term).real)


def _run_engine(
    problem, members: list[tuple[np.ndarray, int]], zsys: ZEigensystem | None
) -> OctResult:
    """Shared iteration loop for one or many targets on one field.

    `problem` is an `OctProblem` or an `EnsembleProblem`: the engine reads
    its Hamiltonian, guess, penalty, iteration limit and tolerance.
    `members` pairs each initial state with the basis index of its
    target.  The objective is sum_i |<target_i|psi_i(T)>|^2 - cost, with the
    fluence cost charged once however many members share the field.  The
    members are the columns of one (dim, M) block; only its final value is
    kept.  The guess, and the stall-bumped guess, are run by `propagate`,
    which rejects a member that is not normalized.
    """
    h, penalty = problem.hamiltonian, problem.penalty
    if zsys is None:
        zsys = precompute_z_eigensystem(h)
    kernel = SplitStepKernel(h, zsys, problem.guess.dt)
    psi0 = np.stack([np.asarray(amps0, dtype=complex) for amps0, _ in members], axis=1)
    rows = np.array([k for _, k in members])
    targets = (rows, np.arange(len(members)))
    pulse = problem.guess
    final = propagate(WavePacket(psi0), pulse, h, zsys, record=None)[1].amplitudes

    if np.any(final[targets] == 0.0):
        warnings.warn(
            "guess field leaves a target overlap exactly zero; adding a tiny "
            "smooth bump to unfreeze the update",
            stacklevel=2,
        )
        pulse = _apply_stall_bump(pulse)
        final = propagate(WavePacket(psi0), pulse, h, zsys, record=None)[1].amplitudes

    # From here on the blocks are in the kernel's row order; entry k of the
    # basis-order copy of 0..dim-1 is the kernel row of basis state k.
    psi0, final = kernel.to_kernel_order(psi0), kernel.to_kernel_order(final)
    targets = (kernel.to_basis_order(np.arange(h.dim))[rows], targets[1])
    work = _work_arrays(pulse.n_steps, h.dim, len(members))
    kernel.phase_table(pulse.samples, out=work[3])
    guess_yields = np.abs(final[targets]) ** 2
    j_prev = sum(guess_yields) - evaluate_cost(pulse, penalty)
    guess_j = j_prev

    j_hist: list[float] = []
    yield_hist: list[np.ndarray] = []
    cost_hist: list[float] = []
    delta3_hist: list[float] = []
    converged = False
    monotonic = True
    first_decrease = None

    for iteration in range(1, problem.max_iterations + 1):
        new_samples, final, delta3 = _iterate(kernel, psi0, final, targets, pulse, penalty, work)
        pulse = pulse.with_samples(new_samples)

        yields = np.abs(final[targets]) ** 2
        cost = evaluate_cost(pulse, penalty)
        j_new = float(sum(yields)) - cost

        j_hist.append(j_new)
        yield_hist.append(yields)
        cost_hist.append(cost)
        delta3_hist.append(delta3)

        if j_new < j_prev - MONOTONICITY_SLACK and monotonic:
            monotonic = False
            first_decrease = iteration

        if abs(j_new - j_prev) < problem.tolerance:
            j_prev = j_new
            converged = True
            break
        j_prev = j_new

    return OctResult(
        field=pulse,
        j_history=np.array(j_hist),
        yield_history=np.array(yield_hist, dtype=float).reshape(-1, len(members)),
        cost_history=np.array(cost_hist),
        delta3_history=np.array(delta3_hist),
        final_states=kernel.to_basis_order(final),
        guess_yields=guess_yields,
        guess_j=float(guess_j),
        iterations=len(j_hist),
        converged=converged,
        monotonic=monotonic,
        first_decrease_iteration=first_decrease,
    )


def optimize(problem: OctProblem, zsys: ZEigensystem | None = None) -> OctResult:
    """Iterate forward/backward sweeps until J converges or max_iterations.

    The result has one member: `final_states[:, 0]` is the state at T.
    """
    return _run_engine(problem, [(problem.psi0.amplitudes, problem.target_index)], zsys)
