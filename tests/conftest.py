from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from rydoct import propagation
from rydoct import (
    BasisSpec,
    CESIUM_DEFECTS,
    HamiltonianData,
    RadialGrid,
    StateLabel,
    build_hamiltonian,
    precompute_z_eigensystem,
)

MANIFEST_DIR = Path(__file__).resolve().parent.parent / "manifests"


def tiny_manifest_dict(out_dir: str) -> dict:
    return {
        "schema_version": 1,
        "basis": {
            "n_min": 24,
            "n_max": 26,
            "l_max": 2,
            "defects": "cesium",
            "grid_points": 4000,
        },
        "register": {
            "orbitals": ["24p", "25p", "26p"],
            "marked": "25p",
            "ensemble_marked": ["24p", "25p"],
        },
        "pulse": {
            "kind": "half_cycle",
            "peak": "0.2 kV/cm",
            "width": "0.4 ps",
            "t_peak": "0 ps",
            "horizon": "2 ps",
            "dt": "10 fs",
            "record_stride": 20,
        },
        "oct": {
            "penalty_base": 1e8,
            "edge_multiplier": 100.0,
            "ramp_fraction": 0.1,
            "max_iterations": 3,
            "tolerance": 1e-14,
            "update_mode": "replace",
        },
        "analysis": {
            "husimi_sigma": "0.2 ps",
            "husimi_time_stride": 16,
            "pad_factor": 2,
        },
        "output_dir": out_dir,
    }


@pytest.fixture(scope="session", autouse=True)
def basis_cache(tmp_path_factory):
    """The basis cache of every build in the suite, its subprocesses too:
    a temporary directory, never the user's home."""
    cache = tmp_path_factory.mktemp("cache")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(cache))
        yield cache


@pytest.fixture(scope="session")
def default_grid():
    return RadialGrid.for_basis(31)


@pytest.fixture(scope="session")
def cesium_h(default_grid):
    """The desk-scale production basis: n 21-31, l < 5, cesium-like defects."""
    return build_hamiltonian(BasisSpec(21, 31, 5, CESIUM_DEFECTS), default_grid)


@pytest.fixture(scope="session")
def cesium_zsys(cesium_h):
    return precompute_z_eigensystem(cesium_h)


@pytest.fixture(scope="session")
def full_h(default_grid):
    """Full rectangle n 21-31, l < 17 (the production-scale state count)."""
    return build_hamiltonian(BasisSpec(21, 31, 17, CESIUM_DEFECTS), default_grid)


@pytest.fixture(scope="session")
def full_zsys(full_h):
    return precompute_z_eigensystem(full_h)


def make_dense_hamiltonian(dim: int, seed: int, energy_range=(-1.0, -0.1)):
    """Small test Hamiltonian whose z couples every s state to every p state.

    The labels are the s states from 1s and the p states from 2p, as many
    p states as s states or one fewer, in (n, l) order.  z is the random
    symmetric matrix (A + A^T)/2, A standard normal, with every entry that
    the dipole rule forbids set to zero: each s state couples to each p
    state, and z obeys the rule and nothing more.
    """
    rng = np.random.default_rng(seed)
    energies = np.sort(rng.uniform(*energy_range, dim))
    z = rng.normal(size=(dim, dim))
    z = (z + z.T) / 2.0
    n_s = (dim + 1) // 2
    states = [StateLabel(n, 0) for n in range(1, n_s + 1)]
    states += [StateLabel(n, 1) for n in range(2, dim - n_s + 2)]
    labels = tuple(sorted(states))
    ls = np.array([label.l for label in labels])
    z[ls[:, None] == ls[None, :]] = 0.0
    return HamiltonianData(
        labels=labels, energies=energies, z_matrix=z, provenance="test", basis_spec=None
    )


@pytest.fixture()
def dense8():
    return make_dense_hamiltonian(8, seed=42)


@contextmanager
def step_kind(block: bool):
    """Every `SplitStepKernel` built inside, an adjoint or a public
    function's own among them, takes the parity-block step if `block` and
    the basis fits it, and the dense step otherwise: the crossover
    `BLOCK_STEP_MIN_DIM` is moved below or above every basis.

    `SplitStepKernel.adjoint` reads the crossover again, so a sweep that
    builds an adjoint (the costate sweep, `_iterate`, the public sweeps)
    must run inside the same context as the kernel it is given, or the
    kernel and its adjoint take different steps."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(propagation, "BLOCK_STEP_MIN_DIM", 0 if block else 10**9)
        yield
