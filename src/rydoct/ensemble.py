"""Universal decoder: one shared field optimized over many marked registers.

Each member of the ensemble is an independent register copy with a different
marked bit and its own target.  The members share the control field; at each
time step the field update is the sum of the per-member overlap increments,
divided by the same penalty.  With one member this reduces bit-for-bit to the
single-target loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atomic import HamiltonianData, StateLabel
from .control import PenaltySchedule, _run_engine
from .errors import InvalidSpecError
from .propagation import (
    PulseGrid,
    WavePacket,
    ZEigensystem,
    precompute_z_eigensystem,
    propagate,
)
from .register import RegisterSpec, ReadoutReport, encode, readout

__all__ = [
    "EnsembleMember",
    "EnsembleProblem",
    "EnsembleResult",
    "optimize_ensemble",
    "register_ensemble_problem",
    "decode_test",
]


@dataclass(frozen=True)
class EnsembleMember:
    """One register copy: its initial state and the orbital it must decode to."""

    psi0: WavePacket
    target: StateLabel


@dataclass
class EnsembleProblem:
    """Shared-field optimization over independent register copies."""

    hamiltonian: HamiltonianData
    members: list[EnsembleMember]
    penalty: PenaltySchedule
    guess: PulseGrid
    register_orbitals: tuple[StateLabel, ...]
    excluded_bits: tuple[StateLabel, ...] = ()
    max_iterations: int = 200
    tolerance: float = 1e-6
    update_mode: str = "replace"

    def __post_init__(self):
        if not self.members:
            raise InvalidSpecError("ensemble needs at least one member")
        targets = [m.target for m in self.members]
        if len(set(targets)) != len(targets):
            raise InvalidSpecError("member targets must be distinct")
        if len(self.penalty.samples) != len(self.guess.samples):
            raise InvalidSpecError("penalty schedule and guess field grids differ")


@dataclass
class EnsembleResult:
    """Optimized shared field plus per-member and aggregate histories."""

    field: PulseGrid
    objective_history: np.ndarray
    member_yield_histories: np.ndarray  # shape (iterations, members)
    product_fidelity_history: np.ndarray
    cost_history: np.ndarray
    delta3_history: np.ndarray
    final_states: list[WavePacket]
    decode_reports: list[ReadoutReport]
    decode_accuracy: int
    iterations: int
    converged: bool
    monotonic: bool
    first_decrease_iteration: int | None
    guess_yields: np.ndarray
    guess_objective: float


def register_ensemble_problem(
    h: HamiltonianData,
    orbitals,
    marked_bits,
    penalty: PenaltySchedule,
    guess: PulseGrid,
    **kwargs,
) -> EnsembleProblem:
    """Build the standard decoder ensemble: one member per marked bit.

    `marked_bits` selects which register orbitals participate; orbitals left
    out (typically the outer ones) are recorded in `excluded_bits`.
    """
    orbital_labels = tuple(
        StateLabel.parse(o) if isinstance(o, str) else o for o in orbitals
    )
    members = []
    for bit in marked_bits:
        label = StateLabel.parse(bit) if isinstance(bit, str) else bit
        if label not in orbital_labels:
            raise InvalidSpecError(f"marked bit {label} is not a register orbital")
        spec = RegisterSpec(orbitals=orbital_labels, marked_index=orbital_labels.index(label))
        members.append(EnsembleMember(psi0=encode(spec, h), target=label))
    excluded = tuple(o for o in orbital_labels if o not in {m.target for m in members})
    return EnsembleProblem(
        hamiltonian=h,
        members=members,
        penalty=penalty,
        guess=guess,
        register_orbitals=orbital_labels,
        excluded_bits=excluded,
        **kwargs,
    )


#: Margin separating a genuine population win from floating-point jitter.
SUCCESS_MARGIN = 1e-12


def _strict_success(report: ReadoutReport, marked: StateLabel) -> bool:
    # Success requires the marked population to strictly beat every other
    # register population; an argmax tie broken in its favor (or a split at
    # rounding level) does not count.
    marked_pop = report.populations[str(marked)]
    return all(
        marked_pop > pop + SUCCESS_MARGIN
        for name, pop in report.populations.items()
        if name != str(marked)
    )


def optimize_ensemble(
    problem: EnsembleProblem, zsys: ZEigensystem | None = None
) -> EnsembleResult:
    """Run the shared-field loop; the fluence cost is charged once.

    The optimized quantity is the sum of member yields minus the cost; the
    product of member fidelities is recorded alongside as a diagnostic.
    """
    h = problem.hamiltonian
    if zsys is None:
        zsys = precompute_z_eigensystem(h)
    raw = _run_engine(
        members=[(m.psi0.amplitudes, h.index(m.target)) for m in problem.members],
        guess=problem.guess,
        penalty=problem.penalty,
        h=h,
        zsys=zsys,
        max_iterations=problem.max_iterations,
        tolerance=problem.tolerance,
        update_mode=problem.update_mode,
    )
    horizon = raw["field"].horizon
    final_states = [
        WavePacket(amplitudes=column.copy(), time=horizon) for column in raw["final_states"].T
    ]
    reports = []
    accuracy = 0
    for member, state in zip(problem.members, final_states):
        spec = RegisterSpec(
            orbitals=problem.register_orbitals,
            marked_index=problem.register_orbitals.index(member.target),
        )
        report = readout(state, spec, h)
        reports.append(report)
        if report.decoded == str(member.target) and _strict_success(report, member.target):
            accuracy += 1

    member_hist = raw["yield_history"]
    product_hist = (
        np.prod(member_hist, axis=1) if raw["iterations"] else np.array([])
    )
    return EnsembleResult(
        field=raw["field"],
        objective_history=raw["j_history"],
        member_yield_histories=member_hist,
        product_fidelity_history=product_hist,
        cost_history=raw["cost_history"],
        delta3_history=raw["delta3_history"],
        final_states=final_states,
        decode_reports=reports,
        decode_accuracy=accuracy,
        iterations=raw["iterations"],
        converged=raw["converged"],
        monotonic=raw["monotonic"],
        first_decrease_iteration=raw["first_decrease_iteration"],
        guess_yields=np.array(raw["guess_yields"]),
        guess_objective=raw["guess_objective"],
    )


def decode_test(
    pulse: PulseGrid,
    orbitals,
    h: HamiltonianData,
    zsys: ZEigensystem | None = None,
    marked_bits=None,
) -> list[dict]:
    """Propagate every single-flip register under `pulse` and read it out.

    All the registers advance together, as the columns of one block.

    Returns one entry per marked bit with the populations, the decoded
    orbital, and a strict success flag (marked population beats every other
    register population outright).
    """
    if zsys is None:
        zsys = precompute_z_eigensystem(h)
    orbital_labels = tuple(
        StateLabel.parse(o) if isinstance(o, str) else o for o in orbitals
    )
    if marked_bits is None:
        marked_bits = orbital_labels
    labels = [StateLabel.parse(b) if isinstance(b, str) else b for b in marked_bits]
    specs = [
        RegisterSpec(orbitals=orbital_labels, marked_index=orbital_labels.index(label))
        for label in labels
    ]
    if not specs:
        return []
    block = np.stack([encode(spec, h).amplitudes for spec in specs], axis=1)
    _, final = propagate(WavePacket(block), pulse, h, zsys, record=None)
    results = []
    for i, (label, spec) in enumerate(zip(labels, specs)):
        report = readout(WavePacket(final.amplitudes[:, i], final.time), spec, h)
        results.append(
            {
                "marked": str(label),
                "populations": dict(report.populations),
                "decoded": report.decoded,
                "leaked": report.leaked,
                "success": report.decoded == str(label) and _strict_success(report, label),
            }
        )
    return results
