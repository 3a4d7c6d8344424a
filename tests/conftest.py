from pathlib import Path

import numpy as np
import pytest

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
    """Small dense test Hamiltonian with a full random symmetric z matrix.

    Labels are synthetic; selection-rule structure is deliberately absent so
    the dipole coupling connects everything.
    """
    rng = np.random.default_rng(seed)
    energies = np.sort(rng.uniform(*energy_range, dim))
    z = rng.normal(size=(dim, dim))
    z = (z + z.T) / 2.0
    labels = tuple(StateLabel(i + 1, 0) for i in range(dim))
    return HamiltonianData(
        labels=labels, energies=energies, z_matrix=z, provenance="test", basis_spec=None
    )


@pytest.fixture()
def dense8():
    return make_dense_hamiltonian(8, seed=42)
