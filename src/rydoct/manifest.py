"""Run manifests: a single JSON file describing one batch computation.

A manifest has nested sections (basis, register, pulse, oct, analysis) and a
`schema_version` field.  Times and field strengths may be written either as
bare numbers (atomic units) or as strings with a unit, e.g. "8 ps" or
"1 kV/cm"; they are converted to atomic units on load, so a manifest written
in laboratory units is equivalent to one written directly in atomic units.

The run_* functions orchestrate the library for each CLI subcommand and emit
the documented CSV/JSON outputs plus a summary.json with parameters and
headline metrics.  Outputs are deterministic: identical manifests produce
byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .atomic import (
    CESIUM_DEFECTS,
    BasisSpec,
    HamiltonianData,
    RadialGrid,
    build_hamiltonian,
    load_hamiltonian,
    save_hamiltonian,
)
from .control import OctProblem, PenaltySchedule, optimize
from .ensemble import decode_test, optimize_ensemble, register_ensemble_problem
from .errors import ManifestError, RydoctError
from .propagation import (
    PulseGrid,
    WavePacket,
    boundary_labels,
    precompute_z_eigensystem,
    propagate,
)
from .pulses import half_cycle_pulse, husimi, spectrum
from .register import RegisterSpec, encode, readout
from .units import parse_quantity

SCHEMA_VERSION = 1

DEFECT_PRESETS = {"hydrogen": {}, "cesium": CESIUM_DEFECTS}


def _fmt(value: float) -> str:
    return repr(float(value))


@dataclass
class RunManifest:
    """Validated manifest with all quantities already in atomic units."""

    raw: dict
    basis: dict
    register: dict
    pulse: dict
    oct: dict
    analysis: dict
    output_dir: str


def _section(data: dict, name: str, required: bool = True) -> dict:
    value = data.get(name)
    if value is None:
        if required:
            raise ManifestError(f"{name}: section is missing")
        return {}
    if not isinstance(value, dict):
        raise ManifestError(f"{name}: expected an object")
    return value


def _get(section: dict, path: str, default=None, required: bool = False):
    key = path.split(".")[-1]
    if key not in section:
        if required:
            raise ManifestError(f"{path}: key is missing")
        return default
    return section[key]


def _quantity(section: dict, path: str, family: str, default=None, required: bool = False):
    raw = _get(section, path, default=None, required=required)
    if raw is None:
        return default
    try:
        return parse_quantity(raw, family)
    except RydoctError as exc:
        raise ManifestError(f"{path}: {exc}") from exc


def load_manifest(path) -> RunManifest:
    """Read and validate a manifest file; errors name the offending key."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"manifest is not valid JSON: {exc}") from exc
    return parse_manifest(data)


def parse_manifest(data: dict) -> RunManifest:
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ManifestError(
            f"schema_version: expected {SCHEMA_VERSION}, got {version!r}"
        )

    basis_raw = _section(data, "basis")
    basis: dict = {}
    basis["hamiltonian_file"] = _get(basis_raw, "basis.hamiltonian_file")
    if basis["hamiltonian_file"] is None:
        for key in ("n_min", "n_max", "l_max"):
            value = _get(basis_raw, f"basis.{key}", required=True)
            if not isinstance(value, int) or value < 0:
                raise ManifestError(f"basis.{key}: expected a nonnegative integer")
            basis[key] = value
        defects = _get(basis_raw, "basis.defects", default="hydrogen")
        if isinstance(defects, str):
            if defects not in DEFECT_PRESETS:
                raise ManifestError(
                    f"basis.defects: unknown preset {defects!r}; "
                    f"choose from {sorted(DEFECT_PRESETS)} or give a map"
                )
            basis["defects"] = dict(DEFECT_PRESETS[defects])
        elif isinstance(defects, dict):
            try:
                basis["defects"] = {int(k): float(v) for k, v in defects.items()}
            except (TypeError, ValueError) as exc:
                raise ManifestError(f"basis.defects: {exc}") from exc
        else:
            raise ManifestError("basis.defects: expected a preset name or a map")
        basis["grid_points"] = _get(basis_raw, "basis.grid_points", default=20000)
        basis["r_min"] = _get(basis_raw, "basis.r_min", default=1e-4)
        basis["r_max"] = _get(basis_raw, "basis.r_max", default=None)

    register_raw = _section(data, "register", required=False)
    register: dict = {}
    if register_raw:
        orbitals = _get(register_raw, "register.orbitals", required=True)
        if not isinstance(orbitals, list) or not orbitals:
            raise ManifestError("register.orbitals: expected a non-empty list")
        register["orbitals"] = [str(o) for o in orbitals]
        register["marked"] = _get(register_raw, "register.marked")
        ensemble_marked = _get(register_raw, "register.ensemble_marked")
        register["ensemble_marked"] = (
            [str(o) for o in ensemble_marked] if ensemble_marked else None
        )

    pulse_raw = _section(data, "pulse", required=False)
    pulse: dict = {}
    if pulse_raw:
        kind = _get(pulse_raw, "pulse.kind", default="half_cycle")
        if kind not in ("half_cycle", "zero"):
            raise ManifestError(f"pulse.kind: unknown kind {kind!r}")
        pulse["kind"] = kind
        pulse["dt"] = _quantity(pulse_raw, "pulse.dt", "time", required=True)
        pulse["horizon"] = _quantity(pulse_raw, "pulse.horizon", "time", required=True)
        if pulse["dt"] <= 0 or pulse["horizon"] <= pulse["dt"]:
            raise ManifestError("pulse.horizon: must exceed pulse.dt > 0")
        pulse["peak"] = _quantity(pulse_raw, "pulse.peak", "field", default=0.0)
        pulse["width"] = _quantity(pulse_raw, "pulse.width", "time", default=0.0)
        pulse["t_peak"] = _quantity(pulse_raw, "pulse.t_peak", "time", default=0.0)
        if kind == "half_cycle" and pulse["width"] <= 0:
            raise ManifestError("pulse.width: half-cycle pulses need a positive width")
        pulse["record_stride"] = _get(pulse_raw, "pulse.record_stride", default=10)
        pulse["absorber_strength"] = _get(pulse_raw, "pulse.absorber_strength")

    oct_raw = _section(data, "oct", required=False)
    oct_cfg: dict = {}
    if oct_raw:
        oct_cfg["penalty_base"] = float(_get(oct_raw, "oct.penalty_base", default=1e10))
        oct_cfg["edge_multiplier"] = float(_get(oct_raw, "oct.edge_multiplier", default=1000.0))
        oct_cfg["ramp_fraction"] = float(_get(oct_raw, "oct.ramp_fraction", default=0.05))
        oct_cfg["max_iterations"] = int(_get(oct_raw, "oct.max_iterations", default=200))
        oct_cfg["tolerance"] = float(_get(oct_raw, "oct.tolerance", default=1e-6))
        oct_cfg["update_mode"] = _get(oct_raw, "oct.update_mode", default="replace")
        if oct_cfg["update_mode"] not in ("replace", "add"):
            raise ManifestError(
                f"oct.update_mode: expected 'replace' or 'add', got {oct_cfg['update_mode']!r}"
            )

    analysis_raw = _section(data, "analysis", required=False)
    analysis = {
        "husimi_sigma": _quantity(analysis_raw, "analysis.husimi_sigma", "time", default=None),
        "husimi_time_stride": _get(analysis_raw, "analysis.husimi_time_stride", default=8),
        "pad_factor": _get(analysis_raw, "analysis.pad_factor", default=4),
    }

    output_dir = data.get("output_dir", "out")
    return RunManifest(
        raw=data,
        basis=basis,
        register=register,
        pulse=pulse,
        oct=oct_cfg,
        analysis=analysis,
        output_dir=output_dir,
    )


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def build_basis(manifest: RunManifest) -> HamiltonianData:
    cfg = manifest.basis
    if cfg.get("hamiltonian_file"):
        return load_hamiltonian(cfg["hamiltonian_file"])
    spec = BasisSpec(
        n_min=cfg["n_min"],
        n_max=cfg["n_max"],
        l_max=cfg["l_max"],
        quantum_defects=cfg["defects"],
    )
    grid = RadialGrid.for_basis(
        spec.n_max,
        n_points=cfg["grid_points"],
        r_min=cfg["r_min"],
        r_max=cfg["r_max"],
    )
    return build_hamiltonian(spec, grid)


def build_guess_pulse(manifest: RunManifest) -> PulseGrid:
    cfg = manifest.pulse
    if not cfg:
        raise ManifestError("pulse: section is missing")
    n_samples = int(round(cfg["horizon"] / cfg["dt"])) + 1
    if cfg["kind"] == "zero":
        return PulseGrid.zeros(0.0, cfg["dt"], n_samples)
    return half_cycle_pulse(
        peak=cfg["peak"],
        width=cfg["width"],
        t_peak=cfg["t_peak"],
        t0=0.0,
        dt=cfg["dt"],
        n_samples=n_samples,
    )


def build_penalty(manifest: RunManifest, pulse: PulseGrid) -> PenaltySchedule:
    cfg = manifest.oct
    if not cfg:
        raise ManifestError("oct: section is missing")
    return PenaltySchedule.build(
        pulse,
        base=cfg["penalty_base"],
        edge_multiplier=cfg["edge_multiplier"],
        ramp_fraction=cfg["ramp_fraction"],
    )


def build_register(manifest: RunManifest) -> RegisterSpec:
    cfg = manifest.register
    if not cfg:
        raise ManifestError("register: section is missing")
    return RegisterSpec.from_names(cfg["orbitals"], marked=cfg.get("marked"))


# ---------------------------------------------------------------------------
# Output writers
# ---------------------------------------------------------------------------


def write_field_csv(path, pulse: PulseGrid) -> None:
    lines = ["time,E"]
    for t, e in zip(pulse.times(), pulse.samples):
        lines.append(f"{_fmt(t)},{_fmt(e)}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_field_csv(path) -> PulseGrid:
    """Read a `time,E` field CSV, such as write_field_csv writes.

    It needs at least two data rows of finite numbers at uniform times:
    every step within 1e-9 of the median step.  The grid step is t1 - t0.
    Errors name the file and the line.
    """
    rows = Path(path).read_text().strip().splitlines()
    if not rows or rows[0].split(",")[:2] != ["time", "E"]:
        raise ManifestError(f"{path}: not a field CSV (expected 'time,E' header)")
    if len(rows) < 3:
        raise ManifestError(
            f"{path}: line {len(rows)}: a field needs at least 2 data rows, found {len(rows) - 1}"
        )
    times, values = [], []
    for line, row in enumerate(rows[1:], start=2):
        try:
            t, e = (float(cell) for cell in row.split(",")[:2])
        except ValueError:
            raise ManifestError(f"{path}: line {line}: expected two numbers, got {row!r}") from None
        if not (math.isfinite(t) and math.isfinite(e)):
            raise ManifestError(f"{path}: line {line}: values must be finite, got {row!r}")
        times.append(t)
        values.append(e)
    steps = np.diff(times)
    median = float(np.median(steps))
    uneven = np.flatnonzero(np.abs(steps - median) > 1e-9 * median)
    if median <= 0 or uneven.size:
        line = int(uneven[0]) + 3 if uneven.size else 3
        raise ManifestError(
            f"{path}: line {line}: times must increase in uniform steps (median step {median!r})"
        )
    return PulseGrid(t0=times[0], dt=times[1] - times[0], samples=np.asarray(values))


def write_trajectory_csv(path, times, populations, labels) -> None:
    header = "time," + ",".join(str(l) for l in labels)
    lines = [header]
    for t, row in zip(times, populations):
        lines.append(_fmt(t) + "," + ",".join(_fmt(p) for p in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_history_csv(path, histories: dict[str, np.ndarray]) -> None:
    keys = list(histories)
    n = len(next(iter(histories.values()))) if histories else 0
    lines = ["iteration," + ",".join(keys)]
    for i in range(n):
        lines.append(str(i + 1) + "," + ",".join(_fmt(histories[k][i]) for k in keys))
    Path(path).write_text("\n".join(lines) + "\n")


def write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _boundary_population(state: WavePacket, h: HamiltonianData) -> float:
    idx = [h.index(label) for label in boundary_labels(h)]
    return float(np.sum(np.abs(state.amplitudes[idx]) ** 2))


def _summary(manifest: RunManifest, command: str, metrics: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "command": command,
        "parameters": manifest.raw,
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# Runners (one per CLI subcommand)
# ---------------------------------------------------------------------------


def run_basis(manifest: RunManifest, out_dir, h: HamiltonianData | None = None) -> dict:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if h is None:
        h = build_basis(manifest)
    path = out / "hamiltonian.txt"
    save_hamiltonian(h, path)
    metrics = {
        "basis_size": h.dim,
        "energy_range": [float(h.energies.min()), float(h.energies.max())],
    }
    write_json(out / "summary.json", _summary(manifest, "basis", metrics))
    return {"hamiltonian": str(path), "metrics": metrics}


def run_propagate(manifest: RunManifest, out_dir, h: HamiltonianData | None = None) -> dict:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if h is None:
        h = build_basis(manifest)
    zsys = precompute_z_eigensystem(h)
    reg = build_register(manifest)
    psi0 = encode(reg, h)
    pulse = build_guess_pulse(manifest)

    absorber = None
    strength = manifest.pulse.get("absorber_strength")
    if strength is not None:
        absorber = (boundary_labels(h), float(strength))

    stride = int(manifest.pulse.get("record_stride", 10))
    trajectory, final = propagate(psi0, pulse, h, zsys, record=stride, absorber=absorber)
    report = readout(final, reg, h)

    times = [wp.time for wp in trajectory]
    pops = [wp.populations() for wp in trajectory]
    write_trajectory_csv(out / "trajectory.csv", times, pops, h.labels)
    write_field_csv(out / "field.csv", pulse)
    write_json(out / "readout.json", report.to_dict())
    metrics = {
        "decoded": report.decoded,
        "register_populations": report.populations,
        "leaked": report.leaked,
        "boundary_shell_population": _boundary_population(final, h),
        "final_norm": final.norm(),
    }
    write_json(out / "summary.json", _summary(manifest, "propagate", metrics))
    return {"metrics": metrics}


def run_optimize(manifest: RunManifest, out_dir, h: HamiltonianData | None = None) -> dict:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if h is None:
        h = build_basis(manifest)
    zsys = precompute_z_eigensystem(h)
    reg = build_register(manifest)
    if reg.marked is None:
        raise ManifestError("register.marked: required for optimize")
    psi0 = encode(reg, h)
    guess = build_guess_pulse(manifest)
    penalty = build_penalty(manifest, guess)
    problem = OctProblem(
        hamiltonian=h,
        psi0=psi0,
        target=reg.marked,
        penalty=penalty,
        guess=guess,
        max_iterations=manifest.oct["max_iterations"],
        tolerance=manifest.oct["tolerance"],
        update_mode=manifest.oct["update_mode"],
    )
    result = optimize(problem, zsys=zsys)
    report = readout(result.final_state, reg, h)

    write_field_csv(out / "optimized_field.csv", result.field)
    write_field_csv(out / "guess_field.csv", guess)
    write_history_csv(
        out / "history.csv",
        {
            "J": result.j_history,
            "yield": result.yield_history,
            "Y": result.cost_history,
            "delta3": result.delta3_history,
        },
    )
    write_json(out / "readout.json", report.to_dict())
    peak = float(np.max(np.abs(result.field.samples)))
    metrics = {
        "guess_yield": result.guess_yield,
        "final_yield": result.final_yield,
        "iterations": result.iterations,
        "converged": result.converged,
        "monotonic": result.monotonic,
        "first_decrease_iteration": result.first_decrease_iteration,
        "max_abs_delta3": float(np.max(np.abs(result.delta3_history)))
        if result.iterations
        else 0.0,
        "decoded": report.decoded,
        "leaked": report.leaked,
        "boundary_shell_population": _boundary_population(result.final_state, h),
        "peak_field": peak,
        "endpoint_field_fraction": [
            float(abs(result.field.samples[0]) / peak) if peak else 0.0,
            float(abs(result.field.samples[-1]) / peak) if peak else 0.0,
        ],
    }
    write_json(out / "summary.json", _summary(manifest, "optimize", metrics))
    return {"metrics": metrics, "result": result}


def run_optimize_universal(
    manifest: RunManifest, out_dir, h: HamiltonianData | None = None
) -> dict:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if h is None:
        h = build_basis(manifest)
    zsys = precompute_z_eigensystem(h)
    cfg = manifest.register
    if not cfg.get("ensemble_marked"):
        raise ManifestError("register.ensemble_marked: required for optimize-universal")
    guess = build_guess_pulse(manifest)
    penalty = build_penalty(manifest, guess)
    problem = register_ensemble_problem(
        h,
        cfg["orbitals"],
        cfg["ensemble_marked"],
        penalty,
        guess,
        max_iterations=manifest.oct["max_iterations"],
        tolerance=manifest.oct["tolerance"],
        update_mode=manifest.oct["update_mode"],
    )
    result = optimize_ensemble(problem, zsys=zsys)

    write_field_csv(out / "universal_field.csv", result.field)
    histories = {
        "J": result.objective_history,
        "yield": np.sum(result.member_yield_histories, axis=1)
        if result.iterations
        else np.array([]),
        "Y": result.cost_history,
        "delta3": result.delta3_history,
        "product_fidelity": result.product_fidelity_history,
    }
    for i, member in enumerate(problem.members):
        histories[f"yield_{member.target}"] = result.member_yield_histories[:, i]
    write_history_csv(out / "history.csv", histories)

    table = decode_test(result.field, cfg["orbitals"], h, zsys)
    write_json(out / "decode_test.json", {"entries": table})
    metrics = {
        "decode_accuracy": result.decode_accuracy,
        "members": [str(m.target) for m in problem.members],
        "excluded_bits": [str(b) for b in problem.excluded_bits],
        "member_yields": [float(y) for y in result.member_yield_histories[-1]]
        if result.iterations
        else [float(y) for y in result.guess_yields],
        "iterations": result.iterations,
        "converged": result.converged,
        "monotonic": result.monotonic,
        "first_decrease_iteration": result.first_decrease_iteration,
        "max_abs_delta3": float(np.max(np.abs(result.delta3_history)))
        if result.iterations
        else 0.0,
        "full_decode_table_successes": sum(1 for row in table if row["success"]),
    }
    write_json(out / "summary.json", _summary(manifest, "optimize-universal", metrics))
    return {"metrics": metrics, "result": result, "decode_table": table}


def run_analyze(
    manifest: RunManifest, field_path, out_dir, h: HamiltonianData | None = None
) -> dict:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if h is None:
        h = build_basis(manifest)
    pulse = read_field_csv(field_path)

    spec_data = spectrum(pulse, pad_factor=int(manifest.analysis["pad_factor"]))
    # Distance from each spectral bin to the nearest dipole-allowed level gap;
    # observational output, the strong peaks need not sit on any gap.
    gaps = []
    for i, a in enumerate(h.labels):
        for j in range(i + 1, h.dim):
            if abs(a.l - h.labels[j].l) == 1:
                gaps.append(abs(float(h.energies[i] - h.energies[j])))
    gaps = np.unique(np.asarray(gaps))
    nearest = np.min(
        np.abs(spec_data.frequencies[:, None] - gaps[None, :]), axis=1
    )
    lines = ["frequency,magnitude,nearest_gap_distance"]
    for f, m, d in zip(spec_data.frequencies, spec_data.magnitudes, nearest):
        lines.append(f"{_fmt(f)},{_fmt(m)},{_fmt(d)}")
    (out / "spectrum.csv").write_text("\n".join(lines) + "\n")

    sigma = manifest.analysis["husimi_sigma"]
    if sigma is None:
        sigma = (pulse.horizon - pulse.t0) / 4.0
    hus = husimi(pulse, sigma, time_stride=int(manifest.analysis["husimi_time_stride"]))
    rows = ["time," + ",".join(_fmt(t) for t in hus.times)]
    for f, line in zip(hus.frequencies, hus.intensity):
        rows.append(_fmt(f) + "," + ",".join(_fmt(q) for q in line))
    (out / "husimi.csv").write_text("\n".join(rows) + "\n")

    peak_bin = int(np.argmax(spec_data.magnitudes))
    metrics = {
        "peak_frequency": float(spec_data.frequencies[peak_bin]),
        "peak_nearest_gap_distance": float(nearest[peak_bin]),
        "husimi_sigma": float(sigma),
    }
    write_json(out / "summary.json", _summary(manifest, "analyze", metrics))
    return {"metrics": metrics}


def run_decode_test(
    manifest: RunManifest, field_path, out_dir, h: HamiltonianData | None = None
) -> dict:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if h is None:
        h = build_basis(manifest)
    zsys = precompute_z_eigensystem(h)
    cfg = manifest.register
    if not cfg:
        raise ManifestError("register: section is missing")
    pulse = read_field_csv(field_path)
    table = decode_test(pulse, cfg["orbitals"], h, zsys)
    write_json(out / "decode_test.json", {"entries": table})
    metrics = {
        "successes": sum(1 for row in table if row["success"]),
        "tested_bits": [row["marked"] for row in table],
    }
    write_json(out / "summary.json", _summary(manifest, "decode-test", metrics))
    return {"metrics": metrics, "decode_table": table}
