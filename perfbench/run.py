"""Benchmark of rydoct as a user runs it: one fresh CLI process per command.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each round starts every command of the
workload, one at a time, in a fresh interpreter with `src/` on the path
(see child.py).  Rounds repeat for about S seconds; a run always attempts
whole rounds.  Untraced (--trace 0) it reports the end-to-end metrics, and
uses the time left after the last round for set-up-only passes that add
set-up samples; traced (--trace 1) it reports the per-layer metrics.  Each
metric is the mean over the run's rounds (README.md says why).  The end-
to-end times are scaled to a reference speed by a loop timed on each
command's CPU while it runs (spawn, run_command).  The
outputs of the first round are checked for correctness, and every later
round must reproduce them byte for byte.  The last line of standard output
is the JSON result; the environment, the per-round samples and the
correctness fingerprints go to the lines before it and to
.perfbench_out/results/.  README.md explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import filecmp
import hashlib
import json
import os
import platform
import random
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
MANIFESTS = ROOT / "manifests"

#: BLAS/OpenMP thread variables; set to one thread per core, which is what
#: OpenBLAS uses when they are unset.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "iter_per_s": "1/s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "cli.import_s": "s",
    "manifest.load_s": "s",
    "manifest.read_field_s": "s",
    "atomic.build_s": "s",
    "atomic.radial_s": "s",
    "atomic.dipole_s": "s",
    "atomic.states": "count",
    "atomic.dipole_pairs": "count",
    "atomic.save_s": "s",
    "atomic.load_s": "s",
    "propagation.eigensystem_s": "s",
    "propagation.propagate_s": "s",
    "propagation.step_us": "us",
    "control.backward_s": "s",
    "control.update_s": "s",
    "control.optimize_s": "s",
    "control.iteration_s": "s",
    "control.iterations": "count",
    "ensemble.optimize_s": "s",
    "ensemble.iteration_s": "s",
    "ensemble.decode_test_s": "s",
    "ensemble.members": "count",
    "pulses.spectrum_s": "s",
    "pulses.husimi_s": "s",
}

#: Layer spans the probe can fill in when a workload's commands do not
#: produce them (probe.py).
PROBE_FILLS = (
    "atomic.save_s",
    "atomic.load_s",
    "pulses.spectrum_s",
    "pulses.husimi_s",
    "ensemble.decode_test_s",
    "control.optimize_s",
    "ensemble.optimize_s",
)

#: Spans whose last end marks the end of a command's set-up (child.py).
SETUP_SPANS = ("manifest.build_basis", "propagation.eigensystem_s")

PIPELINE_ITERATIONS = 8

#: Iterations of the loop that times each CPU before a command starts
#: (about 6 ms on an idle core of the reference machine).
CALIBRATION_LOOP = 100_000

#: While a command runs, the same loop with SPEED_LOOP iterations is timed
#: every SAMPLE_PERIOD seconds on the CPU the command is running on.  The
#: time metrics are scaled to the loop's time on an uncontended core of the
#: reference machine, REFERENCE_LOOP_S (README.md, Steadiness).
SPEED_LOOP = 3000
SAMPLE_PERIOD = 0.025
REFERENCE_LOOP_S = 0.16e-3


def pipeline_manifest(seed: int) -> dict:
    """The shipped single-target manifest on the 187-state basis (l < 17).

    The seed draws the guess lobe's peak time, width and height.  The lobe
    is wider than twice the horizon, so the guess field is nonzero on every
    step and no step skips the z factor.
    """
    rng = random.Random(seed)
    manifest = json.loads((MANIFESTS / "single_target.json").read_text())
    manifest["basis"]["l_max"] = 17
    manifest["register"]["ensemble_marked"] = ["25p", "26p", "27p", "28p"]
    manifest["pulse"]["t_peak"] = f"{rng.uniform(3.0, 5.0):.4f} ps"
    manifest["pulse"]["width"] = f"{rng.uniform(20.0, 24.0):.4f} ps"
    manifest["pulse"]["peak"] = f"{rng.uniform(0.5, 1.0):.4f} kV/cm"
    manifest["oct"]["max_iterations"] = PIPELINE_ITERATIONS
    manifest["output_dir"] = "runs/pipeline_187"
    return manifest


def workload_plan(name: str, seed: int, work: Path) -> tuple[Path, list, str]:
    """Manifest path, commands as (command, field file or None), probe field."""
    if name == "single-55":
        return (
            MANIFESTS / "single_target.json",
            [("optimize", None)],
            "optimize/optimized_field.csv",
        )
    if name == "universal-55":
        return (
            MANIFESTS / "universal.json",
            [("optimize-universal", None)],
            "optimize-universal/universal_field.csv",
        )
    if name == "pipeline-187":
        path = work / "pipeline_187.json"
        path.write_text(json.dumps(pipeline_manifest(seed), indent=2) + "\n")
        field = "optimize/optimized_field.csv"
        commands = [("basis", None), ("optimize", None), ("analyze", field), ("decode-test", field)]
        return path, commands, field
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("single-55", "universal-55", "pipeline-187")


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(os.cpu_count() or 1)
    env.update({var: threads for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PERFBENCH_CPUS"] = ",".join(str(cpu) for cpu in sorted(os.sched_getaffinity(0)))
    return env


def loop_seconds(cpu: int, iterations: int) -> float:
    """Time a pure-Python loop on `cpu`; the caller's affinity is restored."""
    own = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {cpu})
        start = time.perf_counter()
        total = 0
        for i in range(iterations):
            total += i * i
        return time.perf_counter() - start
    finally:
        os.sched_setaffinity(0, own)


def cpu_of(pid: int) -> int | None:
    """The CPU the process's main thread last ran on (/proc/PID/stat field 39)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def quietest_cpu(env: dict) -> tuple[int, dict]:
    """The CPU on which a short pure-Python loop runs fastest right now.

    A new process mostly stays on the CPU it started on, and on a shared
    host each CPU is slowed by its neighbours on and off, for seconds up to
    a minute (README.md).  Starting each command on the quietest CPU
    measures the program rather than its neighbours; the command itself is
    not pinned (child.py).  Returns the CPU and each CPU's loop time in ms.
    """
    best: dict[int, float] = {}
    for _ in range(2):
        for cpu in (int(c) for c in env["PERFBENCH_CPUS"].split(",")):
            elapsed = 1e3 * loop_seconds(cpu, CALIBRATION_LOOP)
            best[cpu] = min(best.get(cpu, elapsed), elapsed)
    return min(best, key=best.get), best


def spawn(argv: list[str], log: Path, env: dict, cpu: int | None = None):
    """Run argv to completion, started on `cpu` if given (child.py then
    releases it), and sample the speed of the CPU it runs on meanwhile.

    Returns exit code, start, end, its rusage and the speed samples, each
    (time, SPEED_LOOP's time in s); there is at least one.
    """
    own = os.sched_getaffinity(0)
    samples = []
    with open(log, "wb") as fh:
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        try:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT)
        finally:
            os.sched_setaffinity(0, own)
        try:
            exited = os.pidfd_open(proc.pid)
            try:
                running = True
                while running:
                    on = cpu_of(proc.pid)
                    on = on if on is not None else (cpu if cpu is not None else min(own))
                    samples.append((time.perf_counter(), loop_seconds(on, SPEED_LOOP)))
                    running = not select.select([exited], [], [], SAMPLE_PERIOD)[0]
                end = time.perf_counter()
            finally:
                os.close(exited)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, end, usage, samples


def speed_factor(samples: list, lo: float, hi: float) -> float | None:
    """REFERENCE_LOOP_S over the median loop time sampled in [lo, hi)."""
    inside = [seconds for at, seconds in samples if lo <= at < hi]
    return REFERENCE_LOOP_S / statistics.median(inside) if inside else None


def run_command(
    command: str,
    manifest: Path,
    field,
    round_dir: Path,
    trace: bool,
    env,
    stop: str = "-",
) -> dict:
    """One fresh interpreter running one CLI command; `stop` see child.py."""
    cpu, calibration = quietest_cpu(env)
    spans_path = round_dir / "_bench" / f"{command}.spans.json"
    argv = [command, "--manifest", str(manifest), "--out", str(round_dir / command)]
    if field is not None:
        argv += ["--field", str(field)]
    code, start, end, usage, samples = spawn(
        [sys.executable, str(HERE / "child.py"), str(spans_path), str(int(trace)), stop, *argv],
        spans_path.with_suffix(".log"),
        env,
        cpu,
    )
    spans = load_spans(spans_path)
    marks = [s for s in spans if s["name"] in SETUP_SPANS and s["end"]]
    last = max(marks, key=lambda s: s["end"], default=None)
    # Set-up and the rest are each scaled by the speed sampled during them.
    setup_end = min(last["end"], end) if last else end
    before = speed_factor(samples, start, setup_end) or speed_factor(samples, start, end)
    after = speed_factor(samples, setup_end, end) or before
    return {
        "command": command,
        "exit": code,
        "wall_s": (setup_end - start) * before + (end - setup_end) * after,
        "setup_s": (setup_end - start) * before if last else None,
        "measured_wall_s": end - start,
        "measured_setup_s": setup_end - start if last else None,
        "speed": [before, after],
        "speed_samples": len(samples),
        "setup_span": last["name"] if last else None,
        "cpu": cpu,
        "calibration_ms": calibration,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "spans": spans,
    }


def run_probe(manifest: Path, field: Path, round_dir: Path, wanted: list[str], env) -> list[dict]:
    spans_path = round_dir / "_bench" / "probe.spans.json"
    argv = [sys.executable, str(HERE / "probe.py"), str(spans_path), str(manifest), str(field)]
    argv += [str(round_dir / "_bench"), *wanted]
    code, *_ = spawn(argv, spans_path.with_suffix(".log"), env)
    if code != 0:
        raise RuntimeError(f"layer probe failed; see {spans_path.with_suffix('.log')}")
    return load_spans(spans_path)


def load_spans(path: Path) -> list[dict]:
    """Spans written by one process, each parent index replaced by its name."""
    if not path.exists():
        return []
    spans = json.loads(path.read_text())
    for s in spans:
        s["parent"] = None if s["parent"] is None else spans[s["parent"]]["name"]
    return spans


def end_to_end(records: list[dict], round_dir: Path) -> dict:
    opt = next(r for r in records if r["command"].startswith("optimize"))
    summary = json.loads((round_dir / opt["command"] / "summary.json").read_text())
    iterations = summary["metrics"]["iterations"]
    return {
        "wall_s": sum(r["wall_s"] for r in records),
        "setup_s": sum(r["setup_s"] for r in records),
        "iter_per_s": iterations / (opt["wall_s"] - opt["setup_s"]),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
    }


def per_layer(command_spans: list[dict], probe_spans: list[dict]) -> dict:
    """Sum the spans of each layer; a layer no command reached comes from the probe."""
    from_commands = {s["name"] for s in command_spans}

    def spans(name):
        source = command_spans if name in from_commands else probe_spans
        return [s for s in source if s["name"] == name]

    def total(name):
        return sum(s["end"] - s["start"] for s in spans(name))

    def count(name, key):
        return sum(s["counts"].get(key, 0) for s in spans(name))

    values = {name: total(name) for name, unit in PER_LAYER.items() if unit == "s"}
    # A dipole integral solves the radial functions it needs on first use;
    # count those solves under atomic.radial_s only, so that radial_s and
    # dipole_s split the basis build between them.
    values["atomic.dipole_s"] -= sum(
        s["end"] - s["start"] for s in spans("atomic.radial_s") if s["parent"] == "atomic.dipole_s"
    )
    values["atomic.states"] = len(spans("atomic.radial_s"))
    values["atomic.dipole_pairs"] = len(spans("atomic.dipole_s"))
    values["propagation.step_us"] = (
        1e6 * values["propagation.propagate_s"] / count("propagation.propagate_s", "n_steps")
    )
    for layer in ("control", "ensemble"):
        iterations = count(f"{layer}.optimize_s", "iterations")
        values[f"{layer}.iteration_s"] = values[f"{layer}.optimize_s"] / max(iterations, 1)
    values["control.iterations"] = count("control.optimize_s", "iterations")
    values["ensemble.members"] = max(
        [s["counts"].get("members", 0) for s in spans("ensemble.optimize_s")], default=0
    )
    return values


def same_outputs(first: Path, other: Path) -> list[str]:
    """Files of `other` that are missing or differ byte-wise from `first`."""
    differ = []
    for path in sorted(first.rglob("*")):
        if path.is_file() and "_bench" not in path.parts:
            twin = other / path.relative_to(first)
            if not twin.is_file() or not filecmp.cmp(path, twin, shallow=False):
                differ.append(str(path.relative_to(first)))
    return differ


def environment(env: dict) -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "cpu_count": os.cpu_count(),
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "threads": {var: env[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def fresh_basis(manifest_path: Path):
    """The Hamiltonian the checks compare against, built in this process."""
    sys.path.insert(0, str(ROOT / "src"))
    from rydoct.manifest import build_basis, load_manifest

    return build_basis(load_manifest(manifest_path))


def check_round(workload: str, round_dir: Path, manifest_path: Path) -> tuple[list[str], dict]:
    from checks import CHECKS

    raw = json.loads(manifest_path.read_text())
    return CHECKS[workload](round_dir, raw, fresh_basis(manifest_path))


def fits(start: float, seconds: float, duration: float) -> bool:
    """Whether one more step of `duration` ends nearer to the deadline than now."""
    elapsed = time.perf_counter() - start
    return elapsed + duration / 2.0 < seconds


def run_round(rounds, commands, manifest, work, trace, probe_field, env) -> dict:
    round_dir = work / f"round{len(rounds)}"
    (round_dir / "_bench").mkdir(parents=True)
    started = time.perf_counter()
    records = []
    for command, field in commands:
        if records and records[-1]["exit"] != 0:
            records.append({"command": command, "exit": None})
            continue
        field_path = field and round_dir / field
        records.append(run_command(command, manifest, field_path, round_dir, trace, env))
    entry = {"dir": round_dir, "records": records, "ok": all(r["exit"] == 0 for r in records)}
    if entry["ok"]:
        entry["end_to_end"] = end_to_end(records, round_dir)
        if trace:
            command_spans = [s for r in records for s in r["spans"]]
            produced = {s["name"] for s in command_spans}
            wanted = [name for name in PROBE_FILLS if name not in produced]
            probe = run_probe(manifest, round_dir / probe_field, round_dir, wanted, env)
            entry["per_layer"] = per_layer(command_spans, probe)
    entry["duration"] = time.perf_counter() - started
    return entry


def run_setup_pass(index, marks, commands, manifest, work, env) -> dict:
    """Every command of the workload, each stopped where its set-up ends.

    Commands that read a field read round 0's, which exists by then.
    """
    pass_dir = work / f"setup{index}"
    (pass_dir / "_bench").mkdir(parents=True)
    started = time.perf_counter()
    first = work / "round0"
    records = [
        run_command(command, manifest, field and first / field, pass_dir, False, env, stop)
        for (command, field), (_, stop) in zip(commands, marks)
    ]
    return {
        "ok": all(r["exit"] == 0 and r["setup_s"] is not None for r in records),
        "setup_s": [r["setup_s"] for r in records],
        "duration": time.perf_counter() - started,
    }


def mean_of_run(good: list[dict], setup_passes: list[dict]) -> dict:
    """The run's mean over its rounds; set-up also draws on the set-up passes.

    README.md says why the mean is taken rather than the median or the best.
    """
    commands = range(len(good[0]["records"]))
    setups = [
        [e["records"][c]["setup_s"] for e in good]
        + [p["setup_s"][c] for p in setup_passes if p["ok"]]
        for c in commands
    ]
    means = {name: statistics.fmean(e["end_to_end"][name] for e in good) for name in END_TO_END}
    means["setup_s"] = sum(statistics.fmean(samples) for samples in setups)
    return means


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rydoct" / "cli.py").is_file() or not MANIFESTS.is_dir():
        print(f"perfbench: no rydoct sources under {ROOT}", file=sys.stderr)
        return 2

    env = child_env()
    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    manifest, commands, probe_field = workload_plan(args.workload, args.seed, work)
    # Untimed warm-up: compiles the package's bytecode and loads numpy and
    # scipy into the page cache, as any earlier use of the CLI would have.
    code, *_ = spawn([sys.executable, "-c", "import rydoct.cli"], work / "warmup.log", env)
    if code != 0:
        print(f"perfbench: cannot import rydoct; see {work / 'warmup.log'}", file=sys.stderr)
        return 1

    trace = bool(args.trace)
    rounds, setup_passes = [], []
    start = time.perf_counter()
    # Whole rounds while another one is expected to end nearer to the
    # deadline than the run is now; then set-up-only passes the same way.
    while not rounds or fits(start, args.seconds, rounds[-1]["duration"]):
        rounds.append(run_round(rounds, commands, manifest, work, trace, probe_field, env))
    marks = [(r["command"], r["setup_span"]) for r in rounds[0]["records"] if r["exit"] == 0]
    while not trace and len(marks) == len(commands) and fits(
        start,
        args.seconds,
        setup_passes[-1]["duration"] if setup_passes else rounds[0]["end_to_end"]["setup_s"],
    ):
        setup_passes.append(run_setup_pass(len(setup_passes), marks, commands, manifest, work, env))

    attempted = len(rounds) * len(commands)
    failed = sum(1 for e in rounds for r in e["records"] if r["exit"] != 0)
    good = [e for e in rounds if e["ok"]]
    if not good:
        print(f"perfbench: every round failed; logs under {work}", file=sys.stderr)
        return 1

    failures, fingerprints = check_round(args.workload, good[0]["dir"], manifest)
    for entry in good[1:]:
        differ = same_outputs(good[0]["dir"], entry["dir"])
        if differ:
            failures.append(f"{entry['dir'].name} differs from {good[0]['dir'].name}: {differ}")

    if trace:
        values = {name: statistics.fmean(e["per_layer"][name] for e in good) for name in PER_LAYER}
        units = PER_LAYER
    else:
        values = mean_of_run(good, setup_passes)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(env),
        "rounds": len(rounds),
        "setup_passes": setup_passes,
        "failures": failures,
        "fingerprints": fingerprints,
        "samples": [
            {
                "ok": e["ok"],
                "commands": [
                    {
                        k: r.get(k)
                        for k in (
                            "command", "exit", "wall_s", "setup_s", "measured_wall_s",
                            "measured_setup_s", "speed", "speed_samples", "cpu_s", "rss_mb",
                            "cpu", "calibration_ms",
                        )
                    }
                    for r in e["records"]
                ],
                **{k: e[k] for k in ("end_to_end", "per_layer") if k in e},
            }
            for e in rounds
        ],
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(result, indent=1) + "\n")

    print("perfbench: environment " + json.dumps(result["environment"]))
    print("perfbench: fingerprints " + json.dumps(fingerprints))
    for e in good:
        print("perfbench: round " + json.dumps(e["end_to_end"]))
    for failure in failures:
        print(f"perfbench: CHECK FAILED: {failure}")
    print(
        json.dumps(
            {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
