"""Time one call into each layer that the CLI commands do not show.

Usage: python perfbench/probe.py SPANS_JSON MANIFEST FIELD_CSV WORKDIR [NAME...]

The sweeps run inside `optimize` and cannot be timed from outside, so this
process times one call each of `propagate`, `backward_propagate` and
`forward_update_sweep` on the workload's optimized field, at the workload's
basis size.  The layer spans listed as NAME arguments are the ones the
workload's own commands did not produce; the probe fills each of them with
one call at the same size (for an optimization, one iteration), so every
per-layer metric has a value on every workload.  Set-up here is not timed.
"""

from __future__ import annotations

import sys
from pathlib import Path

from spans import Tracer


def main() -> int:
    out_path, manifest_path, field_path, workdir, *wanted = sys.argv[1:]
    from rydoct import (
        OctProblem,
        RegisterSpec,
        backward_propagate,
        costate_terminal,
        decode_test,
        encode,
        forward_update_sweep,
        husimi,
        optimize,
        optimize_ensemble,
        precompute_z_eigensystem,
        propagate,
        register_ensemble_problem,
        spectrum,
    )
    from rydoct.manifest import (
        build_basis,
        build_penalty,
        load_hamiltonian,
        load_manifest,
        read_field_csv,
        save_hamiltonian,
    )

    tracer = Tracer()
    manifest = load_manifest(manifest_path)
    h = build_basis(manifest)
    zsys = precompute_z_eigensystem(h)
    register = manifest.register
    members = register["ensemble_marked"] or register["orbitals"][1:-1]
    target = register["marked"] or members[0]
    oct_cfg = manifest.oct
    try:
        with tracer.span("manifest.read_field_s"):
            pulse = read_field_csv(field_path)
        penalty = build_penalty(manifest, pulse)
        psi0 = encode(RegisterSpec.from_names(register["orbitals"], marked=target), h)

        with tracer.span("propagation.propagate_s", n_steps=pulse.n_steps):
            _, final = propagate(psi0, pulse, h, zsys, record=None)
        lam = costate_terminal(final, h.index(target))
        with tracer.span("control.backward_s"):
            costates = backward_propagate(lam, pulse, h, zsys)
        with tracer.span("control.update_s"):
            forward_update_sweep(psi0, costates, pulse, penalty, h, zsys, oct_cfg["update_mode"])

        saved = Path(workdir) / "probe_hamiltonian.txt"
        if "atomic.save_s" in wanted or "atomic.load_s" in wanted:
            with tracer.span("atomic.save_s"):
                save_hamiltonian(h, saved)
            with tracer.span("atomic.load_s"):
                load_hamiltonian(saved)
        if "pulses.spectrum_s" in wanted:
            with tracer.span("pulses.spectrum_s"):
                spectrum(pulse, pad_factor=int(manifest.analysis["pad_factor"]))
        if "pulses.husimi_s" in wanted:
            sigma = manifest.analysis["husimi_sigma"] or (pulse.horizon - pulse.t0) / 4.0
            with tracer.span("pulses.husimi_s"):
                husimi(pulse, sigma, time_stride=int(manifest.analysis["husimi_time_stride"]))
        if "ensemble.decode_test_s" in wanted:
            with tracer.span("ensemble.decode_test_s"):
                decode_test(pulse, register["orbitals"], h, zsys)
        settings = dict(
            max_iterations=1, tolerance=oct_cfg["tolerance"], update_mode=oct_cfg["update_mode"]
        )
        if "control.optimize_s" in wanted:
            problem = OctProblem(h, psi0, target, penalty, pulse, **settings)
            with tracer.span("control.optimize_s") as span:
                span["counts"]["iterations"] = optimize(problem, zsys=zsys).iterations
        if "ensemble.optimize_s" in wanted:
            problem = register_ensemble_problem(
                h, register["orbitals"], members, penalty, pulse, **settings
            )
            with tracer.span("ensemble.optimize_s", members=len(members)) as span:
                span["counts"]["iterations"] = optimize_ensemble(problem, zsys=zsys).iterations
    finally:
        tracer.dump(out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
