"""Phase-coded data register: encoding, readout and the decode test.

The register is an equal-amplitude superposition of a chosen set of basis
orbitals.  Information is written by reversing the sign of one orbital's
amplitude (the marked bit) and read out by looking at the orbital
populations after the decoding pulse.  `decode_test` is the one readout of
a field: it propagates every single-flip register under the field and
reports which bits decode strictly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atomic import HamiltonianData, StateLabel
from .errors import InvalidSpecError
from .propagation import PulseGrid, WavePacket, ZEigensystem, precompute_z_eigensystem, propagate

__all__ = ["RegisterSpec", "ReadoutReport", "encode", "readout", "decode_test"]

#: Margin separating a genuine population win from floating-point jitter.
SUCCESS_MARGIN = 1e-12


@dataclass(frozen=True)
class RegisterSpec:
    """Ordered register orbitals plus the index of the marked (flipped) bit.

    `marked_index` may be None for an unmarked register.
    """

    orbitals: tuple[StateLabel, ...]
    marked_index: int | None = None

    def __post_init__(self):
        if len(set(self.orbitals)) != len(self.orbitals):
            raise InvalidSpecError("register orbitals must be distinct")
        if not self.orbitals:
            raise InvalidSpecError("register needs at least one orbital")
        if self.marked_index is not None and not (0 <= self.marked_index < len(self.orbitals)):
            raise InvalidSpecError(
                f"marked_index {self.marked_index} out of range for {len(self.orbitals)} orbitals"
            )

    @classmethod
    def from_names(cls, names, marked: StateLabel | str | None = None) -> "RegisterSpec":
        """The register on `names` with bit `marked` flipped; labels or their names."""
        orbitals = tuple(StateLabel.parse(n) for n in names)
        idx = None
        if marked is not None:
            target = StateLabel.parse(marked)
            if target not in orbitals:
                raise InvalidSpecError(f"marked bit {marked} is not a register orbital")
            idx = orbitals.index(target)
        return cls(orbitals=orbitals, marked_index=idx)

    @property
    def marked(self) -> StateLabel | None:
        return None if self.marked_index is None else self.orbitals[self.marked_index]


def encode(spec: RegisterSpec, h: HamiltonianData) -> WavePacket:
    """Equal amplitudes 1/sqrt(N) on the register orbitals, marked bit negated."""
    amps = np.zeros(h.dim, dtype=complex)
    scale = 1.0 / math.sqrt(len(spec.orbitals))
    for i, orbital in enumerate(spec.orbitals):
        sign = -1.0 if i == spec.marked_index else 1.0
        amps[h.index(orbital)] = sign * scale
    return WavePacket(amplitudes=amps, time=0.0)


@dataclass(frozen=True)
class ReadoutReport:
    """Per-orbital populations, the decoded orbital, and the leaked fraction."""

    populations: dict[str, float]
    decoded: str
    leaked: float

    def to_dict(self) -> dict:
        return {
            "populations": dict(self.populations),
            "decoded": self.decoded,
            "leaked": self.leaked,
        }


def readout(psi: WavePacket, spec: RegisterSpec, h: HamiltonianData) -> ReadoutReport:
    """Register populations |<orbital|psi>|^2 with argmax decoding.

    Ties break toward the lowest register index, which makes the decoded bit
    deterministic.  `leaked` is the probability outside the register.
    """
    pops = [float(np.abs(psi.amplitudes[h.index(o)]) ** 2) for o in spec.orbitals]
    decoded_index = int(np.argmax(pops))
    leaked = 1.0 - sum(pops)
    return ReadoutReport(
        populations={str(o): p for o, p in zip(spec.orbitals, pops)},
        decoded=str(spec.orbitals[decoded_index]),
        leaked=max(leaked, 0.0),
    )


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
