"""Reference propagator and output readers written apart from rydoct.

`propagate_exact` applies, for every step j, the exact exponential
exp(-i (H0 + E_j z) dt) obtained from numpy.linalg.eigh of the full step
Hamiltonian, with the field held at its left-endpoint value E_j over the
step, which is the convention rydoct documents.  It shares no code with the
split-operator kernel, so its final state differs from the program's only
by the split-operator error, O(dt^2).
"""

from __future__ import annotations

import csv
import math

import numpy as np


def read_field(path) -> tuple[np.ndarray, float]:
    """Samples and step of a `time,E` CSV; the times must be uniform."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0][:2] != ["time", "E"] or len(rows) < 3:
        raise ValueError(f"{path}: not a field CSV with at least two rows")
    data = np.array([[float(t), float(e)] for t, e in rows[1:]])
    steps = np.diff(data[:, 0])
    dt = float(np.median(steps))
    if dt <= 0 or float(np.max(np.abs(steps - dt))) > 1e-9 * dt:
        raise ValueError(f"{path}: field times are not uniform")
    return data[:, 1], dt


def register_state(labels: list[str], orbitals: list[str], marked: str) -> np.ndarray:
    """Equal amplitudes on the register orbitals, the marked bit negated."""
    psi = np.zeros(len(labels), dtype=complex)
    for name in orbitals:
        psi[labels.index(name)] = (-1.0 if name == marked else 1.0) / math.sqrt(len(orbitals))
    return psi


def propagate_exact(
    energies: np.ndarray, z: np.ndarray, field: np.ndarray, dt: float, psi0: np.ndarray
) -> np.ndarray:
    """Final state after len(field) - 1 steps; the last sample is not used."""
    h0 = np.diag(energies)
    psi = psi0.astype(complex)
    for e in field[:-1]:
        w, v = np.linalg.eigh(h0 + e * z)
        psi = v @ (np.exp(-1j * dt * w) * (v.T @ psi))
    return psi
