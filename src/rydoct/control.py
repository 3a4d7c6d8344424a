"""Optimal control of the decoding field, shared by a set of registers.

A problem (`EnsembleProblem`) is a set of members: independent register
copies, each with its own initial state and target orbital, that share one
control field.  A single-target run is the problem with one member;
`OctProblem` and `optimize` are its spellings.  One iteration of the loop
is: propagate the states forward under the current field, project each
final state onto its target to seed its costate, propagate the costates
backward under the same field, then sweep forward again updating the field
sample by sample from the summed costate/state overlaps before advancing
the states through each step (immediate feedback).  The objective J is the
summed yield minus the fluence cost, which is charged once.

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
guaranteed to rise.  The rule is the only one: `EnsembleProblem` and
`forward_update_sweep` take its name and reject any other.

Each sweep is written once, and the engine (`_run_engine`) runs it on a
(dim, M) block of members.  `_costate_sweep` integrates the costates from T
back to t0 under the old field and keeps of them only the conjugated
coefficients conj(a_j), a_j = V^T D* lam_{j+1}.  `_update_sweep` is the
forward sweep with feedback.  Both sweeps run the one forward step of the
kernel, on D-shifted blocks (see `rydoct.propagation`), so that the two
half steps that meet between consecutive steps are one multiply: the
update sweep steps x_j = D psi_j and the costate sweep
nu_j = D conj(lam_j) = conj(D* lam_j) in one (dim, M) block each,
converting once at each boundary.  The inverse step is the conjugate of
the forward one, so the forward step takes nu_{j+1} to nu_j, and the
coefficients V^T nu_{j+1} that it forms on its way are conj(a_j)
itself.  Since D lam_j = V conj(P_j) a_j under the old field's phase
P_j, the rule's overlap needs no z product: with c_j = V^T x_j, the
coefficients that step j forms first, and s_jk = sum_i conj(a_j,ik) c_j,ik,

    sum_i <D lam_j| z |D psi_j> = sum_k s_jk w_k P_jk,

so the update sweep splits each step at that seam (the kernel's
`coefficients` and `advance`) and chooses E_j in between.  It folds the
old field's part, conj(a_j) w_k P_jk, into one (dim, M) factor per step,
formed a chunk of steps at a time, so that a step's overlap is one
product with c_j and one sum.  The sweeps fill work arrays that the
engine allocates once per run (`_work_arrays`): one step-major
(n_steps, dim, M) coefficient array, whose per-step blocks are
contiguous; one (n_steps, dim, 1) table of the swept field's phases
P(E_j); and one scratch of `CHUNK_STEPS` steps (see `_chunk_scratch`) that
carries those phases at full (dim, M) width in the costate sweep and the
update sweep's factors, old phases and their member sums.  Each
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
is sum_j sum_k s_jk (P_new - P_old)_jk.  It never feeds back into the
field, so the update sweep forms it a chunk of steps at a time from the
products that its steps leave behind, with no call of its own per step.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import field

import numpy as np

from ._record import record
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
from .register import RegisterSpec, encode

__all__ = [
    "PenaltySchedule",
    "EnsembleMember",
    "EnsembleProblem",
    "OctProblem",
    "OctResult",
    "evaluate_cost",
    "costate_terminal",
    "backward_propagate",
    "forward_update_sweep",
    "optimize",
    "optimize_ensemble",
    "register_ensemble_problem",
]

#: Amplitude of the smooth bump used to break an exactly stalled start.
STALL_BUMP_AMPLITUDE = 1e-10
#: J decreases beyond this are flagged as monotonicity violations.
MONOTONICITY_SLACK = 1e-9
#: The name of the one field update rule; see the module docstring.
UPDATE_MODE = "replace"
#: The update sweep sums each step's products over a whole number of blocks
#: of this many elements, a multiple of the 8-element blocks that OpenBLAS's
#: complex dot sums before it adds the rest one by one (see `_update_sweep`).
SUM_BLOCK = 16
#: Most bytes that a problem's work arrays may take, n_steps x dim x (M + 1)
#: complex numbers of 16 B for M members: the step-major coefficient array
#: and the phase table (see `_work_arrays`; the chunk scratch adds
#: `CHUNK_STEPS` steps' worth).  At `manifest.MAX_PULSE_STEPS` steps it
#: admits 55 states with 4 members (0.44 GB) and 187 states with one
#: member (0.60 GB), and rejects 187 states with 4 members (1.50 GB).
#: `EnsembleProblem` checks it, where the basis size and the members are
#: both known, so that a run too large is an `InvalidSpecError` before
#: anything is allocated.
MAX_WORK_BYTES = 1 << 30


@record(frozen=True)
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
    return _fluence_cost(pulse.samples, penalty, pulse.dt)


def _fluence_cost(samples: np.ndarray, penalty: PenaltySchedule, dt: float) -> float:
    return float(np.sum(penalty.samples[:-1] * samples[:-1] ** 2) * dt)


def costate_terminal(psi_final: WavePacket, target_row: int) -> WavePacket:
    """Terminal costate <target|psi(T)> |target>.

    Deliberately not normalized: its norm is the target amplitude magnitude,
    which sets the size of the field update.
    """
    amps = np.zeros_like(psi_final.amplitudes)
    amps[target_row] = psi_final.amplitudes[target_row]
    return WavePacket(amplitudes=amps, time=psi_final.time)


def backward_propagate(
    costate_final: WavePacket,
    pulse: PulseGrid,
    h: HamiltonianData,
    zsys: ZEigensystem,
) -> np.ndarray:
    """Costate trajectory lam(t_j) for every grid point, integrated from T to t0.

    Runs the engine's costate sweep on one member, which keeps only the
    coefficients conj(a_j) = V^T nu_{j+1}, nu = D conj(lam), that step j
    forms, and rebuilds each nu_j = D^2 V P_j conj(a_j) from them with the
    second half of the forward step (`advance`), so that
    lam_j = conj(D* nu_j).  Returns those lam_j, then lam(T) itself as the
    last row: an (n_samples, dim) array in basis order, whatever order the
    kernel keeps.  Each backward step is the adjoint of the forward split
    step with the same field sample, so the discrete forward and backward
    propagations are exact inverses.
    """
    kernel = SplitStepKernel(h, zsys, pulse.dt)
    lam_final = np.array(kernel.to_kernel_order(costate_final.amplitudes), dtype=complex)
    lam_final = lam_final.reshape(h.dim, 1)
    work = _work_arrays(pulse.n_steps, h.dim, 1)
    table = kernel.phase_table(pulse.samples, out=work[2])
    coeffs = _costate_sweep(kernel, lam_final, pulse.samples, work)
    _, advance, _ = kernel.stepper(lam_final)
    nu = np.empty_like(coeffs)
    for nu_j, phase, c in zip(nu, table, coeffs):
        advance(None, nu_j, phase, c)
    # lam_j = conj(D* nu_j).
    lam = np.conjugate(kernel.unshift(nu))[:, :, 0]
    return kernel.to_basis_order(np.concatenate([lam, lam_final.T]), axis=1)


def _work_arrays(n_steps: int, dim: int, n_members: int) -> tuple[np.ndarray, ...]:
    """The arrays a run's sweeps fill: the (n_steps, dim, M) coefficient
    array, the chunk scratch (see `_chunk_scratch`) and the
    (n_steps, dim, 1) phase table.

    Row j of the table is P(E_j) of the field being swept, as
    `SplitStepKernel.phase_table` forms it.  The engine fills it from the
    guess before any sweep reads it, the costate sweep reads it, and the
    update sweep writes the phase of each new sample into its row, so that
    it holds the new field when the iteration ends.
    The chunk scratch is a work space of each sweep and carries nothing
    between them.  Allocated once per run, the arrays stay mapped instead of
    going back to the system between iterations.
    """
    return (
        np.empty((n_steps, dim, n_members), dtype=complex),
        _chunk_scratch(dim, n_members),
        np.ones((n_steps, dim, 1), dtype=complex),
    )


def _chunk_scratch(dim: int, n_members: int) -> np.ndarray:
    """One flat complex block of CHUNK_STEPS x dim x (M + 2) numbers, the
    only chunk-sized array.

    The costate sweep takes its head as a (CHUNK_STEPS, dim, M) block and
    copies `CHUNK_STEPS` rows of the phase table into it at a time,
    broadcast to full width, so that each step multiplies a contiguous
    (dim, M) phase rather than a column broadcast row by row.
    The update sweep takes the same head for the (dim, M) factors W_j of a
    chunk's steps, which each step turns into its overlap's products in
    place, and after them two (CHUNK_STEPS, dim) blocks: the chunk's old
    phase rows and their derivatives, which become the products' sums over
    the members once the chunk's steps are done.  No use reads what an
    earlier one left.
    """
    return np.empty(CHUNK_STEPS * dim * (n_members + 2), dtype=complex)


def _costate_sweep(
    kernel: SplitStepKernel,
    lam_final: np.ndarray,
    samples: np.ndarray,
    work: tuple[np.ndarray, ...],
) -> np.ndarray:
    """The costates under the old field, integrated from T to t0.

    Fills and returns the first of the `_work_arrays`, the (n_steps, dim, M)
    array of conj(a_j), a_j = V^T D* lam_{j+1}: all that the update sweep
    needs of the costates, conjugated so that it multiplies them straight
    into its own.  The sweep steps nu = D conj(lam), the conjugate of the
    shifted costate D* lam, with the kernel's forward step, which is the
    conjugate of the inverse step bit for bit: from the kernel's shift of
    conj(`lam_final`), in place in one (dim, M) block that is not kept.
    Step j forms V^T nu_{j+1} = conj(a_j) on its way and writes it straight
    into slot j of the array, through a float64 view taken once per sweep,
    so nothing is copied out or conjugated per step.  The old field's
    phases come from the work arrays' phase table, which must hold P(E_j)
    of `samples`; `samples` itself only marks the zero-field steps.  They
    reach the steps `CHUNK_STEPS` at a time, copied into the chunk scratch
    at full width (see `_chunk_scratch`).
    """
    coeffs, scratch, table = work
    n_steps, dim, n_members = coeffs.shape
    coefficients, advance, _ = kernel.stepper(lam_final)
    copyto = undispatched(np.copyto)
    coeffs_f = coeffs.view(np.float64)
    nu = kernel.shift(np.conjugate(lam_final))
    nu_f = nu.view(np.float64)
    chunk = scratch[: CHUNK_STEPS * dim * n_members].reshape(CHUNK_STEPS, dim, n_members)
    fields = samples[:-1].tolist()
    for start in reversed(range(0, n_steps, CHUNK_STEPS)):
        stop = min(start + CHUNK_STEPS, n_steps)
        phases = chunk[: stop - start]
        copyto(phases, table[start:stop])
        for j in range(stop - 1, start - 1, -1):
            coefficients(nu_f, coeffs_f[j])
            advance(nu, nu, phases[j - start] if fields[j] != 0.0 else None, coeffs[j])
    return coeffs


def _update_sweep(
    kernel: SplitStepKernel,
    psi0: np.ndarray,
    coeffs: np.ndarray,
    pulse: PulseGrid,
    penalty: PenaltySchedule,
    scratch: np.ndarray,
    table: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, complex]:
    """Forward sweep with immediate field feedback, shared by all members.

    `psi0` is the (dim, M) block of initial states and `coeffs[j]` the
    block of conj(a_j), a_j = V^T D* lam_i(t_{j+1}), as the engine's costate
    sweep leaves it; it is not written.  `table`, the work arrays' phase
    table, holds P(E_old) of `pulse`, under which the costates were swept,
    so that D lam_j = V conj(P_j) a_j.  The block advances as x_j = D psi_j,
    shifted once at each end.  Each step first forms c_j = V^T x_j (the
    kernel's `coefficients`); with s_jk = sum_i conj(a_j,ik) c_j,ik the
    members' summed overlap is then

        sum_i Im <D lam_j| z |D psi_j> = Im sum_k s_jk w_k P_jk
                                       = Re sum_ik t_j,ik / dt,

    with the products t_j = W_j c_j, W_j = conj(a_j) dP/dE and dP/dE =
    exponent P of the old phase row, and the new sample is that over l_j.
    W_j depends on the old field alone, so each chunk of `CHUNK_STEPS`
    steps forms it at full (dim, M) width in `scratch` (see
    `_chunk_scratch`): a broadcast copy of the chunk's dP/dE rows, then one
    multiply by its block of `coeffs` (a broadcast multiply would buffer
    the chunk).  A step then takes its overlap in two calls: t_j into W_j
    in place, and the sum of every product in one `dot` with a mask of
    ones.  Each product is rounded before it is added, and products by 1
    are exact, so terms that cancel exactly, such as opposite members
    under one costate or the +-w_k pairs of a state that z cannot move,
    give exactly 0, where the fused multiply-add of `vdot` or `vecdot`
    leaves the rounding error of a product.  OpenBLAS's complex dot adds
    the elements past its last 8-element block one by one, which would
    break such a cancellation between the members of the last row
    ((x + y) - x - y need not be 0), so the sum runs over a
    window of a whole number of `SUM_BLOCK` elements: the row, then the
    elements after it, which the mask's zeros drop.  The sweep zeroes its
    scratch first, so they are finite.  P(E_new) is written per step into
    the table row that the sweep iterates, by the kernel's `phase_writer`
    from the Python float E_j, so that the table holds the new field on
    return, and the step ends under it (`advance`).  `psi0` itself is not
    written.  Returns the new field samples, the final block and the
    cross-term sum_j <lam(t_{j+1})| (S_new - S_old) psi(t_j)> = sum_j
    sum_k s_jk (P_new - P_old)_jk for the delta3 diagnostic.

    The cross-term never feeds back into the field: after each chunk its
    products are summed over the members in one `np.einsum`, which gives
    t_jk = s_jk (dP/dE)_jk = s_jk exponent_k P_jk, so that it is
    sum_j sum_k t_jk (P_new - P_old)_jk conj(P_old)_jk / exponent_k
    (= t_jk (P_new conj(P_old) - 1)_k / exponent_k, as |P_old| = 1), taken
    as 0 on the null rows, where exponent_k and t_jk are 0.  `einsum`
    sums without BLAS: OpenBLAS runs a matrix-vector product of 4096
    elements or more, such as the chunk's at (55, 4) or (187, 1), on all
    its threads, and waking them once per chunk cost more than the sum.
    Each step's term is one `np.vecdot` over its own (dim,) row, so that
    the result does not depend on the BLAS thread count; the terms are
    added in step order.
    """
    coefficients, advance, (c, cf) = kernel.stepper(psi0)
    write_phase = kernel.phase_writer()
    psi = kernel.shift(psi0)
    psi_f = psi.view(np.float64)
    multiply, subtract, conjugate, vecdot = np.multiply, np.subtract, np.conjugate, np.vecdot
    einsum = np.einsum
    # The C functions behind `np.dot` and `np.copyto`, without their
    # Python-level dispatchers.
    dot, copyto = undispatched(np.dot), undispatched(np.copyto)
    dim, n_members = psi.shape
    width = dim * n_members
    head = CHUNK_STEPS * width
    products = scratch[:head].reshape(CHUNK_STEPS, dim, n_members)
    members = products.reshape(CHUNK_STEPS * dim, n_members)
    old, sums = scratch[head : head + 2 * CHUNK_STEPS * dim].reshape(2, CHUNK_STEPS, dim)
    sums_flat = sums.reshape(-1)
    # The head rows of the scratch, free once a chunk's products are summed.
    spare = scratch[: CHUNK_STEPS * dim].reshape(CHUNK_STEPS, dim)
    span = -(-width // SUM_BLOCK) * SUM_BLOCK
    mask = np.zeros(span, dtype=complex)
    mask[:width] = 1.0
    scratch.fill(0.0)
    # Row j - start of the products and its window, one pair per step.
    rows = [(products[i], scratch[i * width : i * width + span]) for i in range(CHUNK_STEPS)]
    table_rows, exponent = table[:, :, 0], kernel.exponent[:, 0]
    inverse = np.zeros_like(exponent)
    np.divide(1.0, exponent, out=inverse, where=exponent != 0.0)
    cross_term = 0.0 + 0.0j
    weights = (penalty.samples * kernel.dt).tolist()
    new_samples = pulse.samples.astype(float)
    fields = new_samples[:-1].tolist()
    for start in range(0, len(fields), CHUNK_STEPS):
        stop = min(start + CHUNK_STEPS, len(fields))
        k = stop - start
        copyto(old[:k], table_rows[start:stop])
        slopes = sums[:k]
        copyto(slopes, exponent)
        multiply(slopes, old[:k], slopes)
        copyto(products[:k], slopes[:, :, None])
        multiply(products[:k], coeffs[start:stop], products[:k])
        for j, (t, window), phase in zip(range(start, stop), rows, table[start:stop]):
            coefficients(psi_f, cf)
            multiply(t, c, t)
            e_new = float(dot(window, mask).real) / weights[j]
            fields[j] = e_new
            write_phase(phase, e_new)
            advance(psi, psi, phase if e_new != 0.0 else None, c)
        # t_jk, then P_old conj(P_new - P_old) and t_jk / exponent_k.
        einsum("ij->i", members[: k * dim], out=sums_flat[: k * dim])
        delta = spare[:k]
        subtract(table_rows[start:stop], old[:k], delta)
        conjugate(delta, delta)
        multiply(old[:k], delta, old[:k])
        copyto(delta, inverse)
        multiply(sums[:k], delta, sums[:k])
        for value in vecdot(old[:k], sums[:k]).tolist():
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
    The engine hands the sweep conj(a_j), a_j = V^T D* lam_{j+1}, with the
    old field's phases, for which V conj(P_j) a_j = D lam_j.  Here a_j is
    V^T D lam_j itself, formed for every step in one product, with the
    phases of the zero field, which are 1, so that the overlap is the
    rule's for any costates, whether or not they belong to the field; the
    cross-term is dropped.
    """
    _check_mode(update_mode)
    kernel = SplitStepKernel(h, zsys, pulse.dt)
    costates = kernel.to_kernel_order(np.asarray(costates, dtype=complex), axis=1)
    # D lam_j, one column per step.
    lam = kernel.shift(costates[:-1].T)
    coefficients, _, (c, cf) = kernel.stepper(lam)
    coefficients(lam.view(np.float64), cf)
    psi = kernel.to_kernel_order(np.asarray(psi0.amplitudes, dtype=complex)).reshape(h.dim, 1)
    new_samples, final, _ = _update_sweep(
        kernel,
        psi,
        np.conjugate(c.T)[:, :, None],
        pulse,
        penalty,
        _chunk_scratch(h.dim, 1),
        kernel.phase_table(np.zeros_like(pulse.samples)),
    )
    final = kernel.to_basis_order(final[:, 0])
    return pulse.with_samples(new_samples), WavePacket(final, time=pulse.horizon)


def _check_mode(update_mode: str) -> None:
    if update_mode != UPDATE_MODE:
        raise InvalidSpecError(f"update mode must be {UPDATE_MODE!r}, got {update_mode!r}")


@record(frozen=True)
class EnsembleMember:
    """One register copy: its initial state and the orbital it must decode to."""

    psi0: WavePacket
    target: StateLabel


@record
class EnsembleProblem:
    """Shared-field optimization over independent register copies.

    A single-target run is the problem with one member (see `OctProblem`).
    The members' targets must name distinct basis rows.  `optimize_ensemble`
    looks each row up when it runs, so it runs the members as they stand,
    also after one is replaced or appended.
    """

    hamiltonian: HamiltonianData
    members: list[EnsembleMember]
    penalty: PenaltySchedule
    guess: PulseGrid
    max_iterations: int = 200
    tolerance: float = 1e-6
    update_mode: str = UPDATE_MODE

    def __post_init__(self):
        if not self.members:
            raise InvalidSpecError("ensemble needs at least one member")
        if len(self.penalty.samples) != len(self.guess.samples):
            raise InvalidSpecError("penalty schedule and guess field grids differ")
        n_steps, dim, n_members = self.guess.n_steps, self.hamiltonian.dim, len(self.members)
        work = n_steps * dim * (n_members + 1) * 16
        if work > MAX_WORK_BYTES:
            raise InvalidSpecError(
                f"the work arrays of {n_steps} steps x {dim} states x ({n_members} members "
                f"+ 1) x 16 B take {work} B, more than the limit of {MAX_WORK_BYTES} B"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            cost = evaluate_cost(self.guess, self.penalty)
        if not math.isfinite(cost):
            raise InvalidSpecError(f"the guess's fluence cost must be finite, got {cost!r}")
        _check_mode(self.update_mode)
        rows = [self.hamiltonian.index(m.target) for m in self.members]
        if len(set(rows)) != len(rows):
            raise InvalidSpecError("member targets must be distinct")


def OctProblem(
    hamiltonian: HamiltonianData,
    psi0: WavePacket,
    target: StateLabel | str,
    penalty: PenaltySchedule,
    guess: PulseGrid,
    **settings,
) -> EnsembleProblem:
    """The single-target problem: one member, `psi0` driven to `target`.

    `settings` are `EnsembleProblem`'s `max_iterations`, `tolerance` and
    `update_mode`.
    """
    member = EnsembleMember(psi0=psi0, target=StateLabel.parse(target))
    return EnsembleProblem(hamiltonian, [member], penalty, guess, **settings)


def register_ensemble_problem(
    h: HamiltonianData,
    orbitals,
    marked_bits,
    penalty: PenaltySchedule,
    guess: PulseGrid,
    **kwargs,
) -> EnsembleProblem:
    """Build the standard decoder ensemble: one member per marked bit.

    `marked_bits` selects which register orbitals participate, as labels or
    their names; each member is the register with that bit flipped.
    """
    members = []
    for bit in marked_bits:
        spec = RegisterSpec.from_names(orbitals, marked=bit)
        members.append(EnsembleMember(psi0=encode(spec, h), target=spec.marked))
    return EnsembleProblem(hamiltonian=h, members=members, penalty=penalty, guess=guess, **kwargs)


@record
class OctResult:
    """Optimized field plus per-iteration convergence records.

    A run has M members, each a state that must end in its own target, all
    under one shared field: one per member of the `EnsembleProblem`, so M = 1
    for a single-target run.  `yield_history` is (iterations, M) and
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
    coeffs = _costate_sweep(kernel, lam_final, pulse.samples, work)
    new_samples, new_final, cross_term = _update_sweep(
        kernel, psi0, coeffs, pulse, penalty, *work[1:]
    )
    boundary = np.vdot(lam_final, new_final - final)
    return new_samples, new_final, float(2.0 * (boundary - cross_term).real)


def _run_engine(
    problem, members: list[tuple[np.ndarray, int]], zsys: ZEigensystem | None
) -> OctResult:
    """Shared iteration loop for one or many targets on one field.

    `problem` is an `EnsembleProblem`: the engine reads its Hamiltonian,
    guess, penalty, iteration limit and tolerance.  `members` pairs each
    initial state with the basis row of its target, as `optimize_ensemble`
    looks them up from the problem's members.  The objective is
    sum_i |<target_i|psi_i(T)>|^2 - cost, with the
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
    kernel.phase_table(pulse.samples, out=work[2])
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
        # A penalty too small for the update overflows the field or its
        # cost; that is rejected below, not warned about.
        with np.errstate(over="ignore", invalid="ignore"):
            new_samples, final, delta3 = _iterate(
                kernel, psi0, final, targets, pulse, penalty, work
            )
            cost = _fluence_cost(new_samples, penalty, pulse.dt)
        if not math.isfinite(cost):
            raise InvalidSpecError(
                f"iteration {iteration}: the updated field's fluence cost is {cost!r}; "
                f"penalty base {penalty.base!r} is too small for the update"
            )
        pulse = pulse.with_samples(new_samples)

        yields = np.abs(final[targets]) ** 2
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


def optimize_ensemble(problem: EnsembleProblem, zsys: ZEigensystem | None = None) -> OctResult:
    """Iterate forward/backward sweeps until J converges or max_iterations.

    The result has one column per member: for a single-target problem,
    `final_states[:, 0]` is the state at T.  Each member's target row is
    looked up here, from the members as they stand.
    """
    h = problem.hamiltonian
    members = [(m.psi0.amplitudes, h.index(m.target)) for m in problem.members]
    return _run_engine(problem, members, zsys)


#: The single-target spelling of `optimize_ensemble`, beside `OctProblem`.
optimize = optimize_ensemble
