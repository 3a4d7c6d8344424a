"""The record types keep the dataclass contract: fields, constructor,
signature, repr, comparisons and frozenness, as `dataclasses.dataclass`
gave them, with `ParityBlocks` declared the same way."""

import copy
import dataclasses
import inspect
import sys

import numpy as np
import pytest

from rydoct import InvalidSpecError, PulseGrid, StateLabel
from rydoct import atomic, control, manifest, propagation, pulses, register

FACTORY = object()
REQUIRED = object()

# Each record type: frozen or not, and its fields in order with their
# defaults (REQUIRED: none; FACTORY: `default_factory`), as the dataclass
# declarations defined them.
RECORDS = {
    atomic.StateLabel: (True, ["n", "l"]),
    atomic.BasisSpec: (True, ["n_min", "n_max", "l_max", ("quantum_defects", FACTORY)]),
    atomic.RadialGrid: (True, ["r", "x"]),
    atomic.RadialSolution: (True, ["n", "l", "energy", "u", "nodes"]),
    atomic.HamiltonianData: (
        True,
        [
            "labels",
            "energies",
            "z_matrix",
            ("provenance", "generated"),
            ("basis_spec", None),
            ("parity_svd", None),
        ],
    ),
    propagation.WavePacket: (False, ["amplitudes", ("time", 0.0)]),
    propagation.PulseGrid: (True, ["t0", "dt", "samples"]),
    propagation.ParityBlocks: (True, ["order", "q", "w", "s"]),
    propagation.ZEigensystem: (True, ["eigenvalues", "vectors", "z", "parity"]),
    control.PenaltySchedule: (True, ["base", "edge_multiplier", "ramp_fraction", "samples"]),
    control.EnsembleMember: (True, ["psi0", "target"]),
    control.EnsembleProblem: (
        False,
        [
            "hamiltonian",
            "members",
            "penalty",
            "guess",
            ("max_iterations", 200),
            ("tolerance", 1e-6),
            ("update_mode", "replace"),
        ],
    ),
    control.OctResult: (
        False,
        [
            "field",
            "j_history",
            "yield_history",
            "cost_history",
            "delta3_history",
            "final_states",
            "guess_yields",
            "guess_j",
            "iterations",
            "converged",
            "monotonic",
            "first_decrease_iteration",
        ],
    ),
    register.RegisterSpec: (True, ["orbitals", ("marked_index", None)]),
    register.ReadoutReport: (True, ["populations", "decoded", "leaked"]),
    pulses.SpectrumData: (True, ["frequencies", "magnitudes", "dt", "n_fft"]),
    pulses.HusimiMap: (True, ["times", "frequencies", "intensity", "sigma"]),
    manifest.RunManifest: (
        False,
        ["raw", "basis", "register", "pulse", "oct", "analysis", "output_dir"],
    ),
    manifest.Command: (True, ["body", "help", ("needs", ()), ("reads_field", False)]),
}


def _pinned(cls):
    frozen, entries = RECORDS[cls]
    fields = [entry if isinstance(entry, tuple) else (entry, REQUIRED) for entry in entries]
    return frozen, fields


def _declared_default(f):
    if f.default_factory is not dataclasses.MISSING:
        return FACTORY
    return REQUIRED if f.default is dataclasses.MISSING else f.default


def test_every_record_type_is_listed():
    modules = (atomic, propagation, control, register, pulses, manifest)
    found = {
        cls
        for module in modules
        for cls in vars(module).values()
        if isinstance(cls, type)
        and cls.__module__ == module.__name__
        and dataclasses.is_dataclass(cls)
    }
    assert found == set(RECORDS)


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
class TestRecordContract:
    def test_fields_and_defaults(self, cls):
        _, fields = _pinned(cls)
        assert dataclasses.is_dataclass(cls)
        assert [(f.name, _declared_default(f)) for f in dataclasses.fields(cls)] == fields

    def test_signature_lists_the_fields(self, cls):
        _, fields = _pinned(cls)
        signature = inspect.signature(cls)
        parameters = list(signature.parameters.values())
        assert signature.return_annotation is None
        assert [p.name for p in parameters] == [name for name, _ in fields]
        for p, f, (_, default) in zip(parameters, dataclasses.fields(cls), fields):
            assert p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
            assert p.annotation == f.type
            if default is REQUIRED:
                assert p.default is inspect.Parameter.empty
            elif default is FACTORY:
                assert repr(p.default) == "<factory>"
            else:
                assert p.default == default

    def test_frozen_fields_cannot_be_set_or_deleted(self, cls):
        frozen, fields = _pinned(cls)
        obj = cls.__new__(cls)
        name = fields[0][0]
        if frozen:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, 1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, name)
            with pytest.raises(dataclasses.FrozenInstanceError):
                obj.not_a_field = 1
        else:
            assert cls.__hash__ is None
            setattr(obj, name, 1)
            delattr(obj, name)

    def test_constructor_rejects_missing_unknown_and_repeated_arguments(self, cls):
        _, fields = _pinned(cls)
        values = [object()] * len(fields)
        first = fields[0][0]
        with pytest.raises(TypeError):
            cls()
        with pytest.raises(TypeError):
            cls(*values, not_a_field=1)
        with pytest.raises(TypeError):
            cls(*values, **{first: values[0]})
        with pytest.raises(TypeError):
            cls(*values, object())


def test_signature_text():
    assert str(inspect.signature(StateLabel)) == "(n: 'int', l: 'int') -> None"
    assert str(inspect.signature(atomic.BasisSpec)) == (
        "(n_min: 'int', n_max: 'int', l_max: 'int', "
        "quantum_defects: 'dict[int, float]' = <factory>) -> None"
    )


def test_constructor_fills_defaults_factories_and_keywords():
    spec = atomic.BasisSpec(21, n_max=31, l_max=5)
    other = atomic.BasisSpec(21, 31, 5)
    assert spec.quantum_defects == {} and spec.quantum_defects is not other.quantum_defects
    packet = propagation.WavePacket(np.zeros(2))
    assert packet.time == 0.0
    assert StateLabel(l=1, n=26) == StateLabel(26, 1)
    with pytest.raises(InvalidSpecError):
        StateLabel(3, 3)


def test_replace_reruns_post_init():
    grid = PulseGrid(t0=0.0, dt=1.0, samples=np.zeros(3))
    bad = np.array([0.0, np.inf, 0.0])
    assert dataclasses.replace(grid, dt=2.0).dt == 2.0
    with pytest.raises(InvalidSpecError):
        dataclasses.replace(grid, samples=bad)
    if sys.version_info >= (3, 13):
        assert copy.replace(grid, dt=2.0).dt == 2.0
        with pytest.raises(InvalidSpecError):
            copy.replace(grid, samples=bad)


def test_state_label_equality_hash_and_order():
    a, b, c = StateLabel(26, 1), StateLabel(26, 1), StateLabel(25, 3)
    assert a == b and a is not b and a != c
    assert hash(a) == hash(b) == hash((26, 1))
    assert {a: 0}[b] == 0
    assert c < a <= b and a > c and b >= a
    assert sorted([a, c, StateLabel(26, 0)]) == [c, StateLabel(26, 0), a]
    assert a != (26, 1)
    with pytest.raises(TypeError):
        a < (26, 2)


def test_repr_is_the_dataclass_repr():
    assert repr(StateLabel(26, 1)) == "StateLabel(n=26, l=1)"
    grid = PulseGrid(t0=0.0, dt=413.41373333565624, samples=np.zeros(3))
    assert repr(grid) == "PulseGrid(t0=0.0, dt=413.4137333356562)"
