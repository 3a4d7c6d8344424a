"""Universal decoder: one shared field optimized over many marked registers.

Each member of the ensemble is an independent register copy with a different
marked bit and its own target.  The members share the control field; at each
time step the field update is the sum of the per-member overlap increments,
divided by the same penalty.  `optimize_ensemble` returns the same
`OctResult` as the single-target `optimize`, with one column per member;
with one member it reproduces the single-target run bit for bit.

`decode_test` is the one readout of a field: it propagates every
single-flip register under the field and reports which bits decode strictly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atomic import HamiltonianData, StateLabel
from .control import UPDATE_MODE, OctResult, PenaltySchedule, _check_problem, _run_engine
from .errors import InvalidSpecError
from .propagation import PulseGrid, WavePacket, ZEigensystem, precompute_z_eigensystem, propagate
from .register import ReadoutReport, RegisterSpec, encode, readout

__all__ = [
    "EnsembleMember",
    "EnsembleProblem",
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
    max_iterations: int = 200
    tolerance: float = 1e-6
    update_mode: str = UPDATE_MODE

    def __post_init__(self):
        if not self.members:
            raise InvalidSpecError("ensemble needs at least one member")
        targets = [m.target for m in self.members]
        if len(set(targets)) != len(targets):
            raise InvalidSpecError("member targets must be distinct")
        self.target_indices = _check_problem(self, targets)


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


def optimize_ensemble(problem: EnsembleProblem, zsys: ZEigensystem | None = None) -> OctResult:
    """Run the shared-field loop, one result column per member.

    The optimized quantity is the sum of member yields minus the fluence
    cost, which is charged once.
    """
    members = [m.psi0.amplitudes for m in problem.members]
    return _run_engine(problem, list(zip(members, problem.target_indices)), zsys)


def decode_test(
    pulse: PulseGrid,
    orbitals,
    h: HamiltonianData,
    zsys: ZEigensystem | None = None,
) -> list[dict]:
    """Propagate every single-flip register under `pulse` and read it out.

    Each orbital in turn is the marked bit.  All the registers advance
    together, as the columns of one block.

    Returns one entry per orbital with the populations, the decoded
    orbital, and a strict success flag (marked population beats every other
    register population outright).
    """
    specs = [RegisterSpec.from_names(orbitals, marked=bit) for bit in orbitals]
    if not specs:
        return []
    if zsys is None:
        zsys = precompute_z_eigensystem(h)
    block = np.stack([encode(spec, h).amplitudes for spec in specs], axis=1)
    _, final = propagate(WavePacket(block), pulse, h, zsys, record=None)
    results = []
    for i, spec in enumerate(specs):
        report = readout(WavePacket(final.amplitudes[:, i], final.time), spec, h)
        results.append(
            {
                "marked": str(spec.marked),
                **report.to_dict(),
                "success": _strict_success(report, spec.marked),
            }
        )
    return results
