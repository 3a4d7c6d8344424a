"""Terahertz pulse shaping for phase-coded Rydberg wave-packet registers.

The package builds a restricted-basis model atom, propagates wave packets
with a unitary split-operator scheme, and iteratively shapes a real control
field so that the population of a register ends up concentrated in the
marked (phase-flipped) orbital, for a single target or for every marked bit
at once with one shared field.
"""

__version__ = "0.1.0"

from .atomic import (
    CESIUM_DEFECTS,
    BasisSpec,
    HamiltonianData,
    RadialGrid,
    StateLabel,
    build_hamiltonian,
    dipole_matrix_element,
    load_hamiltonian,
    quantum_defect_energy,
    save_hamiltonian,
    solve_radial,
)
from .control import (
    OctProblem,
    OctResult,
    PenaltySchedule,
    backward_propagate,
    costate_terminal,
    evaluate_cost,
    forward_update_sweep,
    optimize,
)
from .ensemble import (
    EnsembleMember,
    EnsembleProblem,
    decode_test,
    optimize_ensemble,
    register_ensemble_problem,
)
from .errors import (
    ConvergenceError,
    GridExtentError,
    InvalidSpecError,
    ManifestError,
    RydoctError,
    UnitError,
    ValidationError,
)
from .propagation import (
    PulseGrid,
    WavePacket,
    ZEigensystem,
    boundary_labels,
    precompute_z_eigensystem,
    propagate,
)
from .pulses import HusimiMap, SpectrumData, half_cycle_pulse, husimi, spectrum
from .register import RegisterSpec, encode, readout
from .units import parse_quantity
