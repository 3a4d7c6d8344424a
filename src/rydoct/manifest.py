"""Run manifests: a single JSON file describing one batch computation.

A manifest has nested sections (basis, register, pulse, oct, analysis) and a
`schema_version` field.  Times and field strengths may be written either as
bare numbers (atomic units) or as strings with a unit, e.g. "8 ps" or
"1 kV/cm"; they are converted to atomic units on load, so a manifest written
in laboratory units is equivalent to one written directly in atomic units.

`run` carries out one CLI subcommand from the COMMANDS table and emits the
documented CSV/JSON outputs plus a summary.json with parameters and
headline metrics.  Outputs are deterministic: identical manifests produce
byte-identical files.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, atomic
from .atomic import (
    CESIUM_DEFECTS,
    BasisSpec,
    HamiltonianData,
    RadialGrid,
    build_hamiltonian,
    load_hamiltonian,
    parity_rows,
    save_hamiltonian,
)
from .control import (
    UPDATE_MODE,
    OctResult,
    PenaltySchedule,
    optimize,
    optimize_ensemble,
    register_ensemble_problem,
)
from .errors import ManifestError, RydoctError, ValidationError
from .propagation import (
    PulseGrid,
    WavePacket,
    boundary_labels,
    precompute_z_eigensystem,
    propagate,
)
from .pulses import half_cycle_pulse, husimi, spectrum
from .register import RegisterSpec, decode_test, encode, readout
from .units import parse_quantity

SCHEMA_VERSION = 1

#: Most steps a guess grid may have, round(pulse.horizon / pulse.dt).  An
#: optimization run holds one array of n_steps x dim x members complex
#: coefficients (16 B each) and one n_steps x dim table of complex phases,
#: so at this limit a 55-state basis with 4 members needs 0.35 GB for the
#: array and 88 MB for the table, and a 187-state basis with one target
#: 0.30 GB and 0.30 GB: the table doubles it for a single target.
MAX_PULSE_STEPS = 100_000

#: Most radial values a basis build may hold, basis.grid_points x states.
#: The Numerov sweep keeps one (grid_points, states) float64 array, 80 MB at
#: this limit; the 187-state basis (n 21-31, l < 17) on 20 000 points has
#: 3.74 M values.
MAX_BASIS_VALUES = 10_000_000

#: Most values of the Husimi map's windows that `analyze` may form, window
#: centers (every analysis.husimi_time_stride-th sample) x field samples.
#: It bounds the map's compute: each value costs one exp and one add into
#: its center's 510-sample fold.  Memory is not what it bounds: `husimi`
#: forms its windows one 510-sample period at a time, so it holds a few
#: (centers, 510) arrays and the (centers, 256) map, about 15 KB per center.
MAX_HUSIMI_VALUES = 10_000_000

#: Most samples of the zero-padded field whose spectrum `analyze` takes,
#: analysis.pad_factor x field samples.  The spectrum and its nearest-gap
#: column hold about 22 B per padded sample, 22 MB at this limit, and
#: `spectrum.csv` gets one row per two padded samples.  The default padding
#: (4) of the longest field that `optimize` may write, 4 x (MAX_PULSE_STEPS
#: + 1) samples, fits.
MAX_SPECTRUM_SAMPLES = 1_000_000

DEFECT_PRESETS = {"hydrogen": {}, "cesium": CESIUM_DEFECTS}


# ---------------------------------------------------------------------------
# Schema: section -> key -> (check, default)
# ---------------------------------------------------------------------------

#: The default of a key the manifest must give.
REQUIRED = object()


def _integer(minimum: int):
    def check(value):
        if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
            raise ValueError(f"expected an integer >= {minimum}, got {value!r}")
        return value

    return check


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _quantity(family: str):
    def check(value) -> float:
        quantity = parse_quantity(value, family)
        if not math.isfinite(quantity):
            raise ValueError(f"expected a finite {family}, got {value!r}")
        return quantity

    return check


def _choice(*options):
    def check(value):
        if value not in options:
            raise ValueError(f"expected one of {list(options)}, got {value!r}")
        return value

    return check


def _string(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _strings(value) -> list[str]:
    if not isinstance(value, list) or not value or not all(isinstance(v, str) for v in value):
        raise ValueError(f"expected a non-empty list of strings, got {value!r}")
    return list(value)


def _defects(value) -> dict[int, float]:
    if isinstance(value, str) and value in DEFECT_PRESETS:
        return dict(DEFECT_PRESETS[value])
    if isinstance(value, dict):
        defects = {int(l): _number(delta) for l, delta in value.items()}
        if any(l < 0 for l in defects):
            raise ValueError(f"expected defects for l >= 0, got {value!r}")
        return defects
    raise ValueError(f"expected a preset {sorted(DEFECT_PRESETS)} or a map, got {value!r}")


#: Every key a manifest may hold, as section -> key -> (check, default).
#: Section "" is the top level.  A key left out or null takes its default,
#: which is checked like a given value.  Keys not listed here are ignored.
SCHEMA = {
    "": {
        "schema_version": (_choice(SCHEMA_VERSION), REQUIRED),
        "output_dir": (_string, "out"),
    },
    "basis": {
        "hamiltonian_file": (_string, None),
        # Required unless hamiltonian_file is given (parse_manifest).
        "n_min": (_integer(0), None),
        "n_max": (_integer(0), None),
        "l_max": (_integer(0), None),
        "defects": (_defects, "hydrogen"),
        "grid_points": (_integer(2), 20000),
        "r_min": (_number, 1e-4),
        "r_max": (_number, None),
    },
    "register": {
        "orbitals": (_strings, REQUIRED),
        "marked": (_string, None),
        "ensemble_marked": (_strings, None),
    },
    "pulse": {
        "kind": (_choice("half_cycle", "zero"), "half_cycle"),
        "dt": (_quantity("time"), REQUIRED),
        "horizon": (_quantity("time"), REQUIRED),
        "peak": (_quantity("field"), 0.0),
        "width": (_quantity("time"), 0.0),
        "t_peak": (_quantity("time"), 0.0),
        "record_stride": (_integer(1), 10),
        "absorber_strength": (_number, None),
    },
    "oct": {
        "penalty_base": (_number, 1e10),
        "edge_multiplier": (_number, 1000.0),
        "ramp_fraction": (_number, 0.05),
        "max_iterations": (_integer(0), 200),
        "tolerance": (_number, 1e-6),
        "update_mode": (_choice(UPDATE_MODE), UPDATE_MODE),
    },
    "analysis": {
        "husimi_sigma": (_quantity("time"), None),
        "husimi_time_stride": (_integer(1), 8),
        "pad_factor": (_integer(1), 4),
    },
}


#: Sections only some commands need (COMMANDS says which); absent or null,
#: they read as {}.  An absent basis is an error, and an absent analysis
#: section reads as its defaults.
OPTIONAL_SECTIONS = ("register", "pulse", "oct")


def _read_section(data: dict, name: str) -> dict:
    """Check and default the keys of one section; errors name `section.key`."""
    raw = data.get(name) if name else data
    if raw is None:
        if name == "basis":
            raise ManifestError("basis: section is missing")
        if name in OPTIONAL_SECTIONS:
            return {}
        raw = {}
    if not isinstance(raw, dict):
        raise ManifestError(f"{name or 'manifest'}: expected an object, got {raw!r}")
    section = {}
    for key, (check, default) in SCHEMA[name].items():
        path = f"{name}.{key}" if name else key
        value = default if raw.get(key) is None else raw[key]
        if value is REQUIRED:
            raise ManifestError(f"{path}: key is missing")
        try:
            section[key] = None if value is None else check(value)
        except (ValueError, OverflowError, RydoctError) as exc:
            raise ManifestError(f"{path}: {exc}") from None
    return section


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


def load_manifest(path) -> RunManifest:
    """Read and validate a manifest file; errors name the offending key."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise ManifestError(f"manifest is not valid JSON: {exc}") from exc
    return parse_manifest(data)


def _basis_states(n_min: int, n_max: int, l_max: int) -> int:
    """How many states BasisSpec(n_min, n_max, l_max) holds, sum_n min(n, l_max),
    counted without listing them: n below l_max adds n, the rest l_max each."""
    low_top = min(n_max, l_max - 1)
    low = (n_min + low_top) * (low_top - n_min + 1) // 2 if low_top >= n_min else 0
    return low + l_max * max(0, n_max - max(n_min, l_max) + 1)


def parse_manifest(data: dict) -> RunManifest:
    top = _read_section(data, "")
    sections = {name: _read_section(data, name) for name in SCHEMA if name}
    basis, pulse = sections["basis"], sections["pulse"]
    # The radial grid is uniform in sqrt(r), so both ends must be positive.
    if basis["r_min"] <= 0:
        raise ManifestError(f"basis.r_min: must be > 0, got {basis['r_min']!r}")
    if basis["r_max"] is not None and basis["r_max"] <= basis["r_min"]:
        raise ManifestError(f"basis.r_max: must exceed basis.r_min, got {basis['r_max']!r}")
    if basis["hamiltonian_file"] is None:
        for key in ("n_min", "n_max", "l_max"):
            if basis[key] is None:
                raise ManifestError(f"basis.{key}: key is missing")
        states = _basis_states(basis["n_min"], basis["n_max"], basis["l_max"])
        if basis["grid_points"] * states > MAX_BASIS_VALUES:
            raise ManifestError(
                f"basis.grid_points: {basis['grid_points']} points x {states} states is "
                f"more than the limit of {MAX_BASIS_VALUES} radial values"
            )
    if pulse:
        if pulse["dt"] <= 0 or pulse["horizon"] <= pulse["dt"]:
            raise ManifestError("pulse.horizon: must exceed pulse.dt > 0")
        steps = pulse["horizon"] / pulse["dt"]
        if not (math.isfinite(steps) and round(steps) <= MAX_PULSE_STEPS):
            raise ManifestError(
                f"pulse.horizon: horizon / dt is {steps:.6g} steps, "
                f"more than the limit of {MAX_PULSE_STEPS}"
            )
        if pulse["kind"] == "half_cycle" and pulse["width"] <= 0:
            raise ManifestError("pulse.width: half-cycle pulses need a positive width")
    return RunManifest(raw=data, output_dir=top["output_dir"], **sections)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def build_basis(manifest: RunManifest) -> HamiltonianData:
    """The manifest's basis: its `hamiltonian_file`, or else a build that is
    cached on disk (see `_cache_entry`) and read back on later runs.

    Every basis carries the SVD of z's even-odd block
    (`HamiltonianData.parity_svd`).  A miss stores the build's in the
    entry, so that a hit calls no LAPACK routine.  Only a miss builds the
    radial grid.
    """
    cfg = manifest.basis
    if cfg.get("hamiltonian_file"):
        try:
            return load_hamiltonian(cfg["hamiltonian_file"])
        except ValidationError as exc:
            raise ManifestError(f"basis.hamiltonian_file: {exc}") from exc
    spec = BasisSpec(
        n_min=cfg["n_min"],
        n_max=cfg["n_max"],
        l_max=cfg["l_max"],
        quantum_defects=cfg["defects"],
    )
    entry = _cache_entry(cfg)
    h = _read_cached(entry, spec)
    if h is None:
        grid = RadialGrid.for_basis(
            spec.n_max,
            n_points=cfg["grid_points"],
            r_min=cfg["r_min"],
            r_max=cfg["r_max"],
        )
        h = build_hamiltonian(spec, grid)
        _write_cached(entry, h)
    return h


# ---------------------------------------------------------------------------
# Basis cache: one binary entry per basis under $XDG_CACHE_HOME/rydoct.
# A build and its SVD are deterministic, so a hit gives the bytes a miss would.
# ---------------------------------------------------------------------------

#: The first line of every cache entry; the key's input text follows it.
_ENTRY_MAGIC = b"rydoct basis cache 1\n"


def _cache_entry(cfg: dict) -> tuple[Path, bytes] | None:
    """Where the build of basis section `cfg` is cached, and the header that
    the entry there starts with; None for nowhere.

    The key covers every input of the build and the code that does it: the
    seven basis keys, the numpy version and the bytes of atomic.py.  It is
    made of zlib checksums, because hashlib would load OpenSSL into every
    command.  The header is `_ENTRY_MAGIC`, then the text of those inputs
    and a newline, zero-padded to a multiple of 8 bytes, so an entry of
    another basis that sits under this name is not read as this one.

    The rest of the entry is little-endian float64, each array row-major:
    the energies, the even-odd block B = z[even][:, odd] (`parity_rows`;
    z is B and B^T), then `np.linalg.svd(B)`'s u, s and wt as numpy
    returned them.  It ends in a little-endian CRC-32 of all that comes
    before, header included.  The basis fixes every array's shape, so the
    entry's length too.
    """
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    if not os.path.isabs(base):
        return None
    inputs = repr(
        (
            cfg["n_min"],
            cfg["n_max"],
            cfg["l_max"],
            sorted(cfg["defects"].items()),
            cfg["grid_points"],
            cfg["r_min"],
            cfg["r_max"],
            np.__version__,
        )
    ).encode()
    try:
        data = inputs + b"\0" + Path(atomic.__file__).read_bytes()
    except OSError:
        return None
    header = _ENTRY_MAGIC + inputs + b"\n"
    header += b"\0" * (-len(header) % 8)
    return Path(base, "rydoct", f"{zlib.crc32(data):08x}{zlib.adler32(data):08x}.bin"), header


def _read_cached(entry: tuple[Path, bytes] | None, spec: BasisSpec) -> HamiltonianData | None:
    """The cached basis with its parity-block SVD, or None when the entry is
    missing, unreadable, of another length, fails its CRC-32, holds another
    basis or does not validate.

    Each array is read straight into its own buffer, and B is dropped once
    z is formed from it.
    """
    if entry is None:
        return None
    path, header = entry
    labels = tuple(spec.states())
    even, odd = parity_rows(labels)
    n_even, n_odd = len(even), len(odd)
    arrays = [
        np.empty(shape, "<f8")
        for shape in (
            len(labels),
            (n_even, n_odd),
            (n_even, n_even),
            min(n_even, n_odd),
            (n_odd, n_odd),
        )
    ]
    try:
        with open(path, "rb") as fh:
            size = len(header) + sum(a.nbytes for a in arrays) + 4
            if os.fstat(fh.fileno()).st_size != size or fh.read(len(header)) != header:
                return None
            crc = zlib.crc32(header)
            for a in arrays:
                if fh.readinto(a) != a.nbytes:
                    return None
                crc = zlib.crc32(a, crc)
            if fh.read() != crc.to_bytes(4, "little"):
                return None
    except OSError:
        return None
    energies, block, u, s, wt = arrays
    z = np.zeros((len(labels), len(labels)))
    z[np.ix_(even, odd)] = block
    z[np.ix_(odd, even)] = block.T
    try:
        return HamiltonianData(labels, energies, z, basis_spec=spec, parity_svd=(u, s, wt))
    except ValidationError:
        return None


def _write_cached(entry: tuple[Path, bytes] | None, h: HamiltonianData) -> None:
    """Store `h`, its even-odd block and their SVD at `entry` through a
    temporary file and a rename, so that a reader sees the whole entry or
    none; a failed write caches nothing."""
    if entry is None:
        return
    path, header = entry
    even, odd = parity_rows(h.labels)
    block = h.z_matrix[np.ix_(even, odd)]
    partial = path.with_name(f"{path.stem}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        crc = zlib.crc32(header)
        with open(partial, "wb") as fh:
            fh.write(header)
            for a in (h.energies, block, *h.parity_svd):
                data = np.ascontiguousarray(a, "<f8")
                fh.write(data)
                crc = zlib.crc32(data, crc)
            fh.write(crc.to_bytes(4, "little"))
        os.replace(partial, path)
    except OSError:
        with contextlib.suppress(OSError):
            partial.unlink()


def build_guess_pulse(manifest: RunManifest) -> PulseGrid:
    cfg = manifest.pulse
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
    return PenaltySchedule.build(
        pulse,
        base=cfg["penalty_base"],
        edge_multiplier=cfg["edge_multiplier"],
        ramp_fraction=cfg["ramp_fraction"],
    )


# ---------------------------------------------------------------------------
# Output writers
# ---------------------------------------------------------------------------


#: Cells per write of `_write_csv`: a thousand rows of a three-column table,
#: a few rows of a wide one.
CSV_CHUNK_CELLS = 3000


def _write_csv(path, header: list[str], columns: list) -> None:
    """Write a header line, then one row per index of the equal-length
    `columns`: arrays of numbers at full precision, lists of strings as given.

    The text is never held whole: a chunk of rows of about CSV_CHUNK_CELLS
    cells goes to the file in one join and one write.  Each array's part of
    a chunk becomes Python floats (`tolist`), which `repr` formats.
    """
    columns = [c if isinstance(c, list) else np.asarray(c, dtype=float) for c in columns]
    n_rows = len(columns[0])
    step = max(1, CSV_CHUNK_CELLS // len(columns))
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, n_rows, step):
            cells = [
                c[start : start + step]
                if isinstance(c, list)
                else map(repr, c[start : start + step].tolist())
                for c in columns
            ]
            f.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_field_csv(path, pulse: PulseGrid) -> None:
    _write_csv(path, ["time", "E"], [pulse.times(), pulse.samples])


def _median(values: np.ndarray) -> float:
    """`np.median` of `values`, which are not NaN, in the same bits, from one
    sort: the middle value, or for an even count the two middle ones added
    and halved.  Like np.median's mean, the sum starts from +0.0, which
    turns a -0.0 into +0.0.  np.median imports numpy.ma on its first call,
    which took about 10 ms of a fresh process."""
    ordered = np.sort(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(0.0 + ordered[mid])
    return float((0.0 + ordered[mid - 1] + ordered[mid]) / 2)


def read_field_csv(path) -> PulseGrid:
    """Read a `time,E` field CSV, such as write_field_csv writes.

    Every line holds exactly two cells.  It needs at least two data rows of
    finite numbers at uniform times: every step within 1e-9 of the median
    step, plus a few roundings of the largest time, which is what writing
    t0 + j dt out can cost.  The grid step is t1 - t0.  It takes at most
    MAX_PULSE_STEPS + 1 rows, the longest field that `optimize` may write,
    so that no longer field reaches the analysis.  Errors name the file and
    the line or the limit.
    """
    try:
        rows = Path(path).read_text().strip().splitlines()
    except UnicodeDecodeError as exc:
        raise ManifestError(f"{path}: not a field CSV (not a text file: {exc})") from None
    if not rows or rows[0].split(",") != ["time", "E"]:
        raise ManifestError(f"{path}: line 1: not a field CSV (expected 'time,E' header)")
    if len(rows) < 3:
        raise ManifestError(
            f"{path}: line {len(rows)}: a field needs at least 2 data rows, found {len(rows) - 1}"
        )
    if len(rows) - 1 > MAX_PULSE_STEPS + 1:
        raise ManifestError(
            f"{path}: {len(rows) - 1} data rows, more than the limit of "
            f"{MAX_PULSE_STEPS + 1} (MAX_PULSE_STEPS + 1)"
        )
    times, values = [], []
    for line, row in enumerate(rows[1:], start=2):
        try:
            t, e = (float(cell) for cell in row.split(","))
        except ValueError:
            raise ManifestError(f"{path}: line {line}: expected two numbers, got {row!r}") from None
        if not (math.isfinite(t) and math.isfinite(e)):
            raise ManifestError(f"{path}: line {line}: values must be finite, got {row!r}")
        times.append(t)
        values.append(e)
    # Finite times can still be too far apart for a float step.
    if not math.isfinite(max(times) - min(times)):
        raise ManifestError(
            f"{path}: line 3: the time step overflows (times {min(times)!r} to {max(times)!r})"
        )
    steps = np.diff(times)
    median = _median(steps)
    slack = 1e-9 * median + 8 * np.finfo(float).eps * np.max(np.abs(times))
    uneven = np.flatnonzero(np.abs(steps - median) > slack)
    if median <= 0 or uneven.size:
        line = int(uneven[0]) + 3 if uneven.size else 3
        raise ManifestError(
            f"{path}: line {line}: times must increase in uniform steps (median step {median!r})"
        )
    return PulseGrid(t0=times[0], dt=times[1] - times[0], samples=np.asarray(values))


def write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_history(path, result: OctResult, extra: dict[str, np.ndarray] | None = None) -> None:
    """One row per iteration: J, the summed yield, the cost Y, delta3, then `extra`."""
    histories = {
        "J": result.j_history,
        "yield": np.sum(result.yield_history, axis=1),
        "Y": result.cost_history,
        "delta3": result.delta3_history,
        **(extra or {}),
    }
    iterations = [str(i) for i in range(1, len(result.j_history) + 1)]
    _write_csv(path, ["iteration", *histories], [iterations, *histories.values()])


def _boundary_population(state: WavePacket, h: HamiltonianData) -> float:
    idx = [h.index(label) for label in boundary_labels(h)]
    return float(np.sum(np.abs(state.amplitudes[idx]) ** 2))


def _settings(manifest: RunManifest) -> dict:
    """The loop settings that `optimize` and `optimize_ensemble` problems share."""
    return {key: manifest.oct[key] for key in ("max_iterations", "tolerance", "update_mode")}


def _convergence(result: OctResult) -> dict:
    """The stopping metrics of an `optimize` or `optimize_ensemble` result."""
    return {
        "iterations": result.iterations,
        "converged": result.converged,
        "monotonic": result.monotonic,
        "first_decrease_iteration": result.first_decrease_iteration,
        "max_abs_delta3": float(np.max(np.abs(result.delta3_history)))
        if result.iterations
        else 0.0,
    }


# ---------------------------------------------------------------------------
# Commands: each body gets the manifest, the basis, the output directory and
# the field CSV path, writes its files and returns {"metrics": ..., ...}.
# ---------------------------------------------------------------------------


def _basis(manifest: RunManifest, h: HamiltonianData, out: Path, field_path) -> dict:
    path = out / "hamiltonian.txt"
    save_hamiltonian(h, path)
    metrics = {
        "basis_size": h.dim,
        "energy_range": [float(h.energies.min()), float(h.energies.max())],
    }
    return {"hamiltonian": str(path), "metrics": metrics}


def _propagate(manifest: RunManifest, h: HamiltonianData, out: Path, field_path) -> dict:
    zsys = precompute_z_eigensystem(h)
    reg = RegisterSpec.from_names(manifest.register["orbitals"], manifest.register["marked"])
    psi0 = encode(reg, h)
    pulse = build_guess_pulse(manifest)
    strength = manifest.pulse["absorber_strength"]
    absorber = None if strength is None else (boundary_labels(h), strength)
    stride = manifest.pulse["record_stride"]
    trajectory, final = propagate(psi0, pulse, h, zsys, record=stride, absorber=absorber)
    report = readout(final, reg, h)

    populations = np.array([wp.populations() for wp in trajectory])
    _write_csv(
        out / "trajectory.csv",
        ["time", *map(str, h.labels)],
        [np.array([wp.time for wp in trajectory]), *populations.T],
    )
    write_field_csv(out / "field.csv", pulse)
    write_json(out / "readout.json", report.to_dict())
    metrics = {
        "decoded": report.decoded,
        "register_populations": report.populations,
        "leaked": report.leaked,
        "boundary_shell_population": _boundary_population(final, h),
        "final_norm": final.norm(),
    }
    return {"metrics": metrics}


def _optimize(manifest: RunManifest, h: HamiltonianData, out: Path, field_path) -> dict:
    zsys = precompute_z_eigensystem(h)
    reg = RegisterSpec.from_names(manifest.register["orbitals"], manifest.register["marked"])
    guess = build_guess_pulse(manifest)
    penalty = build_penalty(manifest, guess)
    problem = register_ensemble_problem(
        h, reg.orbitals, [reg.marked], penalty, guess, **_settings(manifest)
    )
    result = optimize(problem, zsys=zsys)
    final = WavePacket(result.final_states[:, 0])
    report = readout(final, reg, h)

    write_field_csv(out / "optimized_field.csv", result.field)
    write_field_csv(out / "guess_field.csv", guess)
    _write_history(out / "history.csv", result)
    write_json(out / "readout.json", report.to_dict())
    peak = float(np.max(np.abs(result.field.samples)))
    metrics = {
        **_convergence(result),
        "guess_yield": result.guess_yield,
        "final_yield": result.final_yield,
        "decoded": report.decoded,
        "leaked": report.leaked,
        "boundary_shell_population": _boundary_population(final, h),
        "peak_field": peak,
        "endpoint_field_fraction": [
            float(abs(result.field.samples[0]) / peak) if peak else 0.0,
            float(abs(result.field.samples[-1]) / peak) if peak else 0.0,
        ],
    }
    return {"metrics": metrics, "result": result}


def _optimize_universal(
    manifest: RunManifest, h: HamiltonianData, out: Path, field_path
) -> dict:
    zsys = precompute_z_eigensystem(h)
    cfg = manifest.register
    guess = build_guess_pulse(manifest)
    penalty = build_penalty(manifest, guess)
    problem = register_ensemble_problem(
        h, cfg["orbitals"], cfg["ensemble_marked"], penalty, guess, **_settings(manifest)
    )
    result = optimize_ensemble(problem, zsys=zsys)
    members = [str(m.target) for m in problem.members]

    write_field_csv(out / "universal_field.csv", result.field)
    extra = {"product_fidelity": np.prod(result.yield_history, axis=1)}
    for i, bit in enumerate(members):
        extra[f"yield_{bit}"] = result.yield_history[:, i]
    _write_history(out / "history.csv", result, extra)

    table = decode_test(result.field, cfg["orbitals"], h, zsys)
    write_json(out / "decode_test.json", {"entries": table})
    yields = result.yield_history[-1] if result.iterations else result.guess_yields
    metrics = {
        **_convergence(result),
        "decode_accuracy": sum(row["success"] for row in table if row["marked"] in members),
        "members": members,
        "excluded_bits": [row["marked"] for row in table if row["marked"] not in members],
        "member_yields": [float(y) for y in yields],
        "full_decode_table_successes": sum(1 for row in table if row["success"]),
    }
    return {"metrics": metrics, "result": result, "decode_table": table}


def _nearest_gap_distance(frequencies: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """|f - g| to the nearest of the sorted `gaps` for each frequency f.

    For a fixed f, f - g rounds monotonically in g, so the nearest gap is
    one of the two that bracket f in the sorted gaps, or the end one beyond
    them: the same bytes as the minimum over all gaps, in memory that grows
    with the frequencies alone.
    """
    above = np.searchsorted(gaps, frequencies)
    return np.minimum(
        np.abs(frequencies - gaps[np.maximum(above - 1, 0)]),
        np.abs(frequencies - gaps[np.minimum(above, len(gaps) - 1)]),
    )


def _analyze(manifest: RunManifest, h: HamiltonianData, out: Path, field_path) -> dict:
    pulse = read_field_csv(field_path)
    # Every spectrum magnitude is at most dt sum |E_j|, and every Husimi
    # intensity at most its square.
    bound = pulse.dt * sum(abs(e) for e in pulse.samples.tolist())
    if not math.isfinite(bound * bound):
        raise ManifestError(
            f"{field_path}: the field's spectrum overflows: dt sum |E| = {bound!r} a.u., "
            "whose square bounds the Husimi map"
        )
    stride = manifest.analysis["husimi_time_stride"]
    n_samples = len(pulse.samples)
    centers = -(-n_samples // stride)
    if centers * n_samples > MAX_HUSIMI_VALUES:
        raise ManifestError(
            f"analysis.husimi_time_stride: {stride} gives {centers} window centers x "
            f"{n_samples} field samples, more than the limit of {MAX_HUSIMI_VALUES} values"
        )
    pad_factor = manifest.analysis["pad_factor"]
    if pad_factor * n_samples > MAX_SPECTRUM_SAMPLES:
        raise ManifestError(
            f"analysis.pad_factor: {pad_factor} x {n_samples} field samples is "
            f"{pad_factor * n_samples} padded samples, more than the limit of "
            f"{MAX_SPECTRUM_SAMPLES}"
        )

    spec_data = spectrum(pulse, pad_factor=pad_factor)
    # Distance from each spectral bin to the nearest dipole-allowed level gap;
    # observational output, the strong peaks need not sit on any gap.
    ls = np.array([s.l for s in h.labels])
    i, j = np.nonzero(np.triu(np.abs(ls[:, None] - ls[None, :]) == 1))
    if not i.size:
        raise ManifestError(
            "basis.l_max: analyze needs a dipole-allowed level gap to compare the "
            "spectrum with, and a basis with l_max < 2 has none"
        )
    # np.unique's bytes for these finite gaps without its import of numpy.ma
    # (1.7 MB and about 11 ms of a fresh process): sorted, each run of equal
    # values kept once.
    gaps = np.sort(np.abs(h.energies[i] - h.energies[j]))
    gaps = gaps[np.concatenate(([True], gaps[1:] != gaps[:-1]))]
    nearest = _nearest_gap_distance(spec_data.frequencies, gaps)
    _write_csv(
        out / "spectrum.csv",
        ["frequency", "magnitude", "nearest_gap_distance"],
        [spec_data.frequencies, spec_data.magnitudes, nearest],
    )

    sigma = manifest.analysis["husimi_sigma"]
    if sigma is None:
        sigma = (pulse.horizon - pulse.t0) / 4.0
    hus = husimi(pulse, sigma, time_stride=stride)
    _write_csv(
        out / "husimi.csv",
        ["time", *map(repr, hus.times.tolist())],
        [hus.frequencies, *hus.intensity.T],
    )

    peak_bin = int(np.argmax(spec_data.magnitudes))
    metrics = {
        "peak_frequency": float(spec_data.frequencies[peak_bin]),
        "peak_nearest_gap_distance": float(nearest[peak_bin]),
        "husimi_sigma": float(sigma),
    }
    return {"metrics": metrics}


def _decode_test(manifest: RunManifest, h: HamiltonianData, out: Path, field_path) -> dict:
    zsys = precompute_z_eigensystem(h)
    pulse = read_field_csv(field_path)
    table = decode_test(pulse, manifest.register["orbitals"], h, zsys)
    write_json(out / "decode_test.json", {"entries": table})
    metrics = {
        "successes": sum(1 for row in table if row["success"]),
        "tested_bits": [row["marked"] for row in table],
    }
    return {"metrics": metrics, "decode_table": table}


@dataclass(frozen=True)
class Command:
    """One CLI subcommand: its body and help line, the manifest entries it
    needs ("section" or "section.key"), and whether it reads a field CSV."""

    body: Callable[[RunManifest, HamiltonianData, Path, object], dict]
    help: str
    needs: tuple[str, ...] = ()
    reads_field: bool = False


COMMANDS = {
    "basis": Command(_basis, "build the model Hamiltonian and write it to a file"),
    "propagate": Command(
        _propagate,
        "propagate the encoded register under the manifest pulse",
        ("register", "pulse"),
    ),
    "optimize": Command(
        _optimize,
        "optimize the field for the single marked bit",
        ("register.marked", "pulse", "oct"),
    ),
    "optimize-universal": Command(
        _optimize_universal,
        "optimize one field for all listed marked bits",
        ("register.ensemble_marked", "pulse", "oct"),
    ),
    "analyze": Command(
        _analyze, "spectrum and time-frequency map of a field file", reads_field=True
    ),
    "decode-test": Command(
        _decode_test,
        "apply a field file to every marked register",
        ("register",),
        reads_field=True,
    ),
}


def run(
    command: str, manifest: RunManifest, out_dir, field_path=None, h: HamiltonianData | None = None
) -> dict:
    """Run one command: check what it needs, build the basis unless `h` is
    given, run the body, and write summary.json beside its files."""
    spec = COMMANDS[command]
    for need in spec.needs:
        name, _, key = need.partition(".")
        section = getattr(manifest, name)
        if not section:
            raise ManifestError(f"{name}: section is missing")
        if key and section[key] is None:
            raise ManifestError(f"{need}: required for {command}")
    if h is None:
        h = build_basis(manifest)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = spec.body(manifest, h, out, field_path)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "command": command,
        "parameters": manifest.raw,
        "metrics": result["metrics"],
    }
    write_json(out / "summary.json", summary)
    return result
