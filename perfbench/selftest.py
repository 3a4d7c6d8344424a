"""Self-test of the benchmark's correctness checks.

Usage: python3 perfbench/selftest.py

Runs one untraced round of every workload (about 40 s), confirms that the
checks pass on the untouched outputs, then applies one tampering at a time
to a copy of the outputs and confirms that the checks reject each copy.
Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run
from checks import CHECKS


def _edit_csv(path: Path, row: int, column: int, change) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[column] = repr(change(float(cells[column])))
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _drop_j(path: Path, row: int) -> None:
    previous = float(path.read_text().splitlines()[row - 1].split(",")[1])
    _edit_csv(path, row, 1, lambda j: previous - 1e-6)


def _scale_peak_bin(path: Path, factor: float) -> None:
    lines = path.read_text().splitlines()
    row = 1 + max(range(len(lines) - 1), key=lambda i: float(lines[i + 1].split(",")[1]))
    _edit_csv(path, row, 1, lambda m: m * factor)


def _scale_field(path: Path, factor: float) -> None:
    lines = path.read_text().splitlines()
    rows = [f"{t},{float(e) * factor!r}" for t, e in (line.split(",") for line in lines[1:])]
    path.write_text("\n".join(lines[:1] + rows) + "\n")


def _edit_json(path: Path, change) -> None:
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data))


def _swap_decode_entries(data: dict) -> None:
    entries = {e["marked"]: e for e in data["entries"]}
    a, b = entries["26p"], entries["27p"]
    a["populations"], b["populations"] = b["populations"], a["populations"]


def _edit_dipole(path: Path) -> None:
    lines = path.read_text().splitlines()
    row = lines.index("[dipoles]") + 1
    a, b, value = lines[row].split()
    lines[row] = f"{a} {b} {float(value) * (1 + 1e-15)!r}"
    path.write_text("\n".join(lines) + "\n")


TAMPERS = {
    "single-55": {
        "optimized field scaled by 1.01": lambda d: _scale_field(
            d / "optimize" / "optimized_field.csv", 1.01
        ),
        "readout names another bit": lambda d: _edit_json(
            d / "optimize" / "readout.json", lambda r: r.update(decoded="25p")
        ),
        "J drops by 1e-6 at iteration 10": lambda d: _drop_j(d / "optimize" / "history.csv", 10),
        "delta3 of 1e-9 at iteration 5": lambda d: _edit_csv(
            d / "optimize" / "history.csv", 5, 4, lambda x: 1e-9
        ),
    },
    "universal-55": {
        "decode entries of 26p and 27p swapped": lambda d: _edit_json(
            d / "optimize-universal" / "decode_test.json", _swap_decode_entries
        ),
        "universal field scaled by 1.01": lambda d: _scale_field(
            d / "optimize-universal" / "universal_field.csv", 1.01
        ),
    },
    "pipeline-187": {
        "one dipole off by one ulp in hamiltonian.txt": lambda d: _edit_dipole(
            d / "basis" / "hamiltonian.txt"
        ),
        "peak spectrum bin scaled by 1 + 1e-6": lambda d: _scale_peak_bin(
            d / "analyze" / "spectrum.csv", 1 + 1e-6
        ),
        "leaked fraction of one decode entry off by 1e-8": lambda d: _edit_json(
            d / "decode-test" / "decode_test.json",
            lambda t: t["entries"][0].update(leaked=t["entries"][0]["leaked"] + 1e-8),
        ),
        "guess field zero on step 100": lambda d: _edit_csv(
            d / "optimize" / "guess_field.csv", 101, 1, lambda e: 0.0
        ),
        "J drops by 1e-6 at iteration 3": lambda d: _drop_j(d / "optimize" / "history.csv", 3),
    },
}


def main() -> int:
    env = run.child_env()
    base = run.OUT / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    ok = True
    for workload, tampers in TAMPERS.items():
        work = base / workload
        work.mkdir(parents=True)
        manifest, commands, _ = run.workload_plan(workload, 0, work)
        pristine = work / "round0"
        (pristine / "_bench").mkdir(parents=True)
        for command, field in commands:
            field_path = field and pristine / field
            record = run.run_command(command, manifest, field_path, pristine, False, env)
            if record["exit"] != 0:
                print(f"FAIL {workload}: {command} exited {record['exit']}")
                return 1
        raw = json.loads(manifest.read_text())
        fresh = run.fresh_basis(manifest)
        failures, _ = CHECKS[workload](pristine, raw, fresh)
        print(f"{'PASS' if not failures else 'FAIL'} {workload}: untouched outputs {failures}")
        ok &= not failures
        for name, tamper in tampers.items():
            copy = work / "tampered"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(pristine, copy)
            tamper(copy)
            failures, _ = CHECKS[workload](copy, raw, fresh)
            print(f"{'PASS' if failures else 'FAIL'} {workload}: {name} -> {failures}")
            ok &= bool(failures)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
