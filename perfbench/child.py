"""Run one rydoct CLI command in this fresh interpreter and record its timings.

Usage: python perfbench/child.py SPANS_JSON TRACE STOP <rydoct cli arguments...>

The command runs exactly as `python -m rydoct.cli <arguments>` does: the
package is imported, then `rydoct.cli.main` runs and its return value is the
exit code.  Before `main` runs, calls into the program's layers are wrapped
so that each records a span (see spans.py):

* always: `build_basis` and `precompute_z_eigensystem`, whose last return
  marks the end of set-up (run.py takes set-up as spawn to that point);
* with TRACE=1 also every public layer function the CLI reaches, which gives
  the per-layer metrics.

STOP is "-" to run the whole command, or the name of one of the two set-up
spans: the command then exits with code 0 as soon as that span ends, which
samples the command's set-up alone.  The spans are written to SPANS_JSON
when the command ends.
"""

from __future__ import annotations

import os
import sys
import time

_START = time.perf_counter()
# run.py starts each command on the quietest CPU (run.quietest_cpu);
# the command itself may use every CPU, as it would when run by hand.
os.sched_setaffinity(0, {int(cpu) for cpu in os.environ["PERFBENCH_CPUS"].split(",")})

from spans import Tracer  # noqa: E402  (perfbench/ is sys.path[0])


def _iterations(args, kwargs, result):
    return {"iterations": int(result.iterations)}


def _members(args, kwargs, result):
    problem = args[0] if args else kwargs["problem"]
    return {"iterations": int(result.iterations), "members": len(problem.members)}


#: The functions whose return ends a command's set-up, by span name.
SETUP_SPANS = {
    "manifest.build_basis": "build_basis",
    "propagation.eigensystem_s": "precompute_z_eigensystem",
}


def _stop_after(module, attr: str) -> None:
    inner = getattr(module, attr)

    def stop(*args, **kwargs):
        inner(*args, **kwargs)
        raise SystemExit(0)

    setattr(module, attr, stop)


def _install(tracer: Tracer, cli, trace: bool, stop: str) -> None:
    import rydoct.atomic as atomic
    import rydoct.manifest as manifest

    for name, attr in SETUP_SPANS.items():
        tracer.wrap(manifest, attr, name)
    if stop != "-":
        _stop_after(manifest, SETUP_SPANS[stop])
    if not trace:
        return
    tracer.wrap(cli, "load_manifest", "manifest.load_s")
    tracer.wrap(manifest, "build_hamiltonian", "atomic.build_s")
    tracer.wrap(manifest, "load_hamiltonian", "atomic.load_s")
    tracer.wrap(manifest, "save_hamiltonian", "atomic.save_s")
    tracer.wrap(atomic, "solve_radial", "atomic.radial_s")
    tracer.wrap(atomic, "dipole_matrix_element", "atomic.dipole_s")
    tracer.wrap(manifest, "optimize", "control.optimize_s", _iterations)
    tracer.wrap(manifest, "optimize_ensemble", "ensemble.optimize_s", _members)
    tracer.wrap(manifest, "decode_test", "ensemble.decode_test_s")
    tracer.wrap(manifest, "read_field_csv", "manifest.read_field_s")
    tracer.wrap(manifest, "spectrum", "pulses.spectrum_s")
    tracer.wrap(manifest, "husimi", "pulses.husimi_s")


def main() -> int:
    out_path, trace, stop, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3], sys.argv[4:]
    tracer = Tracer()
    try:
        with tracer.span("cli.command", command=argv[0]) as root:
            root["start"] = _START
            with tracer.span("cli.import_s"):
                import rydoct.cli as cli
            _install(tracer, cli, trace, stop)
            code = cli.main(argv)
    finally:
        tracer.dump(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
