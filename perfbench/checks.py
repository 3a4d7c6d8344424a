"""Correctness checks of one round's outputs, one function per workload.

Each check returns (failures, fingerprints): a list of human-readable
failure strings, empty when the outputs pass, and the numbers that identify
the result (final yield, decode accuracy, max |delta3|, iterations).  The
checks test properties the method must have, or compare against the
reference propagator in reference.py.  They read only the files the
commands wrote plus `fresh`, a Hamiltonian run.py built from the same
manifest.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from reference import propagate_exact, read_field, register_state

#: Largest split-operator deviation accepted between the program and the
#: reference propagator at the shipped dt = 10 fs.  The observed deviation
#: at dim 55 is about 2e-5 (O(dt^2)); a field scaled by 1 % moves the
#: yield by more than 1e-3.
REFERENCE_TOL = 1e-4
DELTA3_TOL = 1e-10
MONOTONICITY_SLACK = 1e-9
MIN_YIELD = 0.40
SUM_TOL = 1e-10
PARSEVAL_RTOL = 1e-10
STRICT_MARGIN = 1e-12


def _json(path) -> dict:
    return json.loads(Path(path).read_text())


def _history(path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {key: np.array([float(r[key]) for r in rows]) for key in rows[0]}


def _labels(fresh) -> list[str]:
    return [str(label) for label in fresh.labels]


def _history_failures(
    history: dict[str, np.ndarray], where: str, monotone: bool = True
) -> tuple[list[str], float]:
    failures = []
    drops = np.diff(history["J"])
    if monotone and drops.size and float(drops.min()) < -MONOTONICITY_SLACK:
        failures.append(f"{where}: J decreased by {-float(drops.min()):.3e}")
    max_delta3 = float(np.max(np.abs(history["delta3"])))
    if max_delta3 > DELTA3_TOL:
        failures.append(f"{where}: max |delta3| = {max_delta3:.3e} > {DELTA3_TOL}")
    return failures, max_delta3


def _strict_winner(populations: dict[str, float], marked: str) -> bool:
    return all(
        populations[marked] > p + STRICT_MARGIN for name, p in populations.items() if name != marked
    )


def check_single(out: Path, manifest: dict, fresh) -> tuple[list[str], dict]:
    """optimize: yield, decode, monotone J, delta3, and the reference yield."""
    out = out / "optimize"
    marked = manifest["register"]["marked"]
    metrics = _json(out / "summary.json")["metrics"]
    history = _history(out / "history.csv")
    failures, max_delta3 = _history_failures(history, "history.csv")
    final_yield = float(metrics["final_yield"])
    if final_yield < MIN_YIELD:
        failures.append(f"final yield {final_yield:.4f} < {MIN_YIELD}")
    if float(history["yield"][-1]) != final_yield:
        failures.append("history.csv and summary.json disagree on the final yield")
    decoded = _json(out / "readout.json")["decoded"]
    if decoded != marked or metrics["decoded"] != marked:
        failures.append(f"decoded {decoded!r}, marked bit is {marked!r}")

    field, dt = read_field(out / "optimized_field.csv")
    labels = _labels(fresh)
    psi0 = register_state(labels, manifest["register"]["orbitals"], marked)
    psi = propagate_exact(fresh.energies, fresh.z_matrix, field, dt, psi0)
    reference_yield = float(abs(psi[labels.index(marked)]) ** 2)
    deviation = abs(reference_yield - final_yield)
    if deviation > REFERENCE_TOL:
        failures.append(
            f"reference yield {reference_yield:.6f} differs from reported "
            f"{final_yield:.6f} by {deviation:.2e}"
        )
    return failures, {
        "final_yield": final_yield,
        "reference_yield_deviation": deviation,
        "decoded": decoded,
        "iterations": int(metrics["iterations"]),
        "max_abs_delta3": max_delta3,
    }


def check_universal(out: Path, manifest: dict, fresh) -> tuple[list[str], dict]:
    """optimize-universal: 4/4 strict decodes, each confirmed by the reference."""
    out = out / "optimize-universal"
    orbitals = manifest["register"]["orbitals"]
    members = manifest["register"]["ensemble_marked"]
    metrics = _json(out / "summary.json")["metrics"]
    # The ensemble loop promises no monotone J (see CHANGES.md), so only the
    # delta3 bookkeeping is checked here; monotonicity is a fingerprint.
    history = _history(out / "history.csv")
    failures, max_delta3 = _history_failures(history, "history.csv", monotone=False)
    entries = {e["marked"]: e for e in _json(out / "decode_test.json")["entries"]}
    if sorted(entries) != sorted(orbitals):
        failures.append(f"decode table covers {sorted(entries)}, expected every register bit")

    field, dt = read_field(out / "universal_field.csv")
    labels = _labels(fresh)
    successes = 0
    worst = 0.0
    for bit in members:
        entry = entries.get(bit)
        if entry is None:
            continue
        strict = entry["decoded"] == bit and _strict_winner(entry["populations"], bit)
        if strict != entry["success"]:
            failures.append(f"{bit}: success flag {entry['success']} but populations say {strict}")
        successes += int(strict)
        psi = propagate_exact(
            fresh.energies, fresh.z_matrix, field, dt, register_state(labels, orbitals, bit)
        )
        reference = {name: float(abs(psi[labels.index(name)]) ** 2) for name in orbitals}
        decoded = max(reference, key=reference.get)
        if decoded != bit:
            failures.append(f"{bit}: reference propagation decodes {decoded}")
        worst = max(worst, max(abs(reference[n] - entry["populations"][n]) for n in orbitals))
    if worst > REFERENCE_TOL:
        failures.append(f"decode populations differ from the reference by {worst:.2e}")
    if successes != len(members) or metrics["decode_accuracy"] != len(members):
        failures.append(
            f"decoded {successes}/{len(members)} strictly, summary reports "
            f"{metrics['decode_accuracy']}"
        )
    return failures, {
        "decode_accuracy": successes,
        "member_yields": metrics["member_yields"],
        "reference_population_deviation": worst,
        "iterations": int(metrics["iterations"]),
        "first_decrease_iteration": metrics["first_decrease_iteration"],
        "max_abs_delta3": max_delta3,
    }


def read_hamiltonian_file(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Labels, energies and z from a hamiltonian.txt, parsed without rydoct."""
    labels, energies, pairs = [], [], []
    section = None
    for line in Path(path).read_text().splitlines():
        if line in ("[energies]", "[dipoles]"):
            section = line
        elif section == "[energies]":
            name, value = line.split()
            labels.append(name)
            energies.append(float(value))
        elif section == "[dipoles]":
            a, b, value = line.split()
            pairs.append((a, b, float(value)))
    index = {name: i for i, name in enumerate(labels)}
    z = np.zeros((len(labels), len(labels)))
    for a, b, value in pairs:
        z[index[a], index[b]] = z[index[b], index[a]] = value
    return labels, np.array(energies), z


def check_pipeline(out: Path, manifest: dict, fresh) -> tuple[list[str], dict]:
    """basis, optimize, analyze and decode-test on the 187-state basis."""
    failures = []
    labels, energies, z = read_hamiltonian_file(out / "basis" / "hamiltonian.txt")
    if (
        labels != _labels(fresh)
        or not np.array_equal(energies, fresh.energies)
        or not np.array_equal(z, fresh.z_matrix)
    ):
        failures.append("hamiltonian.txt does not load back bit-identical to a fresh build")
    ls = np.array([label.l for label in fresh.labels])
    allowed = np.abs(ls[:, None] - ls[None, :]) == 1
    if not np.array_equal(z, z.T) or np.any(z[~allowed] != 0.0):
        failures.append("z is not symmetric or breaks the |dl| = 1 selection rule")

    opt = out / "optimize"
    metrics = _json(opt / "summary.json")["metrics"]
    history_failures, max_delta3 = _history_failures(_history(opt / "history.csv"), "optimize")
    failures += history_failures
    guess, _ = read_field(opt / "guess_field.csv")
    if np.any(guess[:-1] == 0.0):
        failures.append("the guess field is zero on some step, so that step skips the z factor")

    entries = _json(out / "decode-test" / "decode_test.json")["entries"]
    worst_sum = max(abs(sum(e["populations"].values()) + e["leaked"] - 1.0) for e in entries)
    if worst_sum > SUM_TOL:
        failures.append(f"decode populations plus leaked miss 1 by {worst_sum:.2e}")

    field, dt = read_field(opt / "optimized_field.csv")
    with open(out / "analyze" / "spectrum.csv", newline="") as fh:
        magnitudes = np.array([float(r["magnitude"]) for r in csv.DictReader(fh)])
    n_fft = int(manifest["analysis"]["pad_factor"]) * len(field)
    weights = np.full(len(magnitudes), 2.0)
    weights[0] = 1.0
    if n_fft % 2 == 0:
        weights[-1] = 1.0
    spectral = float(np.sum(weights * magnitudes**2) / (n_fft * dt))
    temporal = float(np.sum(field**2) * dt)
    parseval = abs(spectral - temporal) / temporal
    if len(magnitudes) != n_fft // 2 + 1 or parseval > PARSEVAL_RTOL:
        failures.append(f"spectrum.csv fluence misses sum E^2 dt by {parseval:.2e} (relative)")
    return failures, {
        "final_yield": float(metrics["final_yield"]),
        "iterations": int(metrics["iterations"]),
        "max_abs_delta3": max_delta3,
        "decode_successes": sum(1 for e in entries if e["success"]),
        "parseval_relative_error": parseval,
    }


CHECKS = {
    "single-55": check_single,
    "universal-55": check_universal,
    "pipeline-187": check_pipeline,
}
