"""The scalar radial solver that preceded the batched basis build, kept as an oracle.

Copied unchanged from `rydoct.atomic` as it stood before the build moved to
one batched Numerov sweep and block dipole products: a pure-Python Numerov
loop per state (`_numerov_inward`, `solve_radial`), one trapezoid integral
per dipole pair (`RadialBasisSolver`, `dipole_matrix_element`), and the
two-sided shooting search (`_numerov_outward`, `find_coulomb_eigenvalue`)
that checks the quantum-defect energies of hydrogen independently.
tests/test_atomic.py and tests/test_acceptance.py check the library
against them.
"""

from __future__ import annotations

import math

import numpy as np

from rydoct.atomic import (
    RadialGrid,
    RadialSolution,
    StateLabel,
    _count_nodes,
    angular_dipole_factor,
    l_letter,
    quantum_defect_energy,
)
from rydoct.errors import ConvergenceError, GridExtentError


def _numerov_inward(g: np.ndarray, h: float, k_start: int) -> np.ndarray:
    """Integrate y'' = g y from index k_start down to 0; y = 0 above k_start."""
    y = np.zeros(len(g))
    if k_start < 2:
        raise GridExtentError("grid too small for inward integration")
    y[k_start] = 0.0
    y[k_start - 1] = 1e-15
    c = h * h / 12.0
    glist = g.tolist()
    ylist = y.tolist()
    for k in range(k_start - 1, 0, -1):
        gk = glist[k]
        ylist[k - 1] = (
            2.0 * ylist[k] * (1.0 + 5.0 * c * gk) - ylist[k + 1] * (1.0 - c * glist[k + 1])
        ) / (1.0 - c * glist[k - 1])
    return np.asarray(ylist)


def _numerov_outward(g: np.ndarray, h: float, y0: float, y1: float, k_stop: int) -> np.ndarray:
    """Integrate y'' = g y from index 0 up to k_stop (inclusive)."""
    c = h * h / 12.0
    glist = g.tolist()
    ylist = [0.0] * (k_stop + 1)
    ylist[0], ylist[1] = y0, y1
    for k in range(1, k_stop):
        gk = glist[k]
        ylist[k + 1] = (
            2.0 * ylist[k] * (1.0 + 5.0 * c * gk) - ylist[k - 1] * (1.0 - c * glist[k - 1])
        ) / (1.0 - c * glist[k + 1])
    return np.asarray(ylist)


def _sqrt_mesh_g(grid: RadialGrid, l: int, energy: float) -> np.ndarray:
    # On the x = sqrt(r) mesh with y = u / sqrt(2 x), the radial equation
    # becomes y'' = g(x) y with an effective centrifugal index 2l + 1/2.
    lam = 2 * l + 0.5
    return lam * (lam + 1.0) / (grid.x * grid.x) - 8.0 - 8.0 * energy * grid.x * grid.x


def solve_radial(
    n: int,
    l: int,
    defects: dict[int, float],
    grid: RadialGrid,
) -> RadialSolution:
    """Solve for u(r) at the quantum-defect energy by inward Numerov integration.

    The energy is fixed at -1/(2 nu^2), nu = n - delta_l, and the pure Coulomb
    equation is integrated inward from the classically forbidden outer region.
    For delta_l = 0 this is the exact hydrogen eigenfunction and carries
    n - l - 1 radial nodes (enforced).  For delta_l > 0 the solution is the
    outer-region approximation to the true alkali wavefunction; it is
    truncated where it starts to diverge inside the core, and its node count
    reflects the effective quantum number rather than n.

    Raises GridExtentError if the grid cannot hold the state.
    """
    delta = float(defects.get(l, 0.0))
    energy = quantum_defect_energy(n, l, defects)
    nu = n - delta

    r_needed = 2.0 * nu * nu
    if grid.r[-1] < 1.02 * r_needed:
        raise GridExtentError(
            f"grid extends to r={grid.r[-1]:.1f} but state {n}{l_letter(l)} "
            f"requires roughly {1.02 * r_needed:.1f} bohr"
        )

    # Start the inward sweep far enough outside the turning point that the
    # decaying tail is negligible there, but close enough to avoid overflow.
    r_start = min(grid.r[-1], 2.0 * nu * (nu + 15.0))
    k_start = min(int(np.searchsorted(grid.r, r_start)), grid.n_points - 1)

    g = _sqrt_mesh_g(grid, l, energy)
    y = _numerov_inward(g, grid.dx, k_start)
    u = y * np.sqrt(2.0 * grid.x)

    # Below the inner turning point |u| must decrease toward the origin.
    # Inward integration eventually excites the irregular solution there
    # (physically for nonzero defects, numerically for l >= 1); cut at the
    # minimum of |u| if the amplitude starts growing again.
    disc = 1.0 - l * (l + 1.0) / (nu * nu)
    r_inner = nu * nu * (1.0 - math.sqrt(disc)) if disc > 0 else 0.0
    k_inner = int(np.searchsorted(grid.r, max(r_inner, grid.r[0])))
    if k_inner > 2:
        seg = np.abs(u[:k_inner])
        k_cut = int(np.argmin(seg))
        if k_cut > 0:
            u = u.copy()
            u[:k_cut] = 0.0

    peak = float(np.max(np.abs(u)))
    if peak == 0.0:
        raise ConvergenceError(f"inward integration produced no amplitude for {n}{l_letter(l)}")

    # Decay check at the outer boundary (skipped when the start point already
    # sits well inside the grid, where the tail is zero by construction).
    if k_start >= grid.n_points - 2:
        tail = float(np.max(np.abs(u[-grid.n_points // 50 :])))
        if tail > 0.05 * peak:
            raise GridExtentError(
                f"wavefunction of {n}{l_letter(l)} has not decayed at the grid boundary"
            )

    norm = math.sqrt(np.trapezoid(u * u, grid.r))
    u = u / norm
    # Sign convention: positive outermost antinode.
    k_peak = int(np.argmax(np.abs(u)))
    if u[k_peak] < 0:
        u = -u

    nodes = _count_nodes(u)
    if delta == 0.0 and nodes != n - l - 1:
        raise ConvergenceError(
            f"hydrogenic state {n}{l_letter(l)} produced {nodes} nodes, "
            f"expected {n - l - 1}; grid too coarse?"
        )
    return RadialSolution(n=n, l=l, energy=energy, u=u, nodes=nodes)


def find_coulomb_eigenvalue(
    l: int,
    target_nodes: int,
    grid: RadialGrid,
    e_min: float,
    e_max: float,
    tol: float = 1e-10,
) -> float:
    """Locate a Coulomb bound energy by two-sided shooting on [e_min, e_max].

    Integrates outward from the origin and inward from the boundary and
    bisects on the derivative mismatch at the matching point.  This is an
    independent check of the quantum-defect formula for integer effective
    quantum number (hydrogen).  Raises ConvergenceError if the bracket does
    not contain a sign change or the converged state has the wrong node count.
    """
    # Imported here: scipy.optimize takes most of the package's import time,
    # and nothing else needs it.
    from scipy.optimize import brentq

    if not (e_min < e_max < 0.0):
        raise ConvergenceError("eigenvalue bracket must satisfy e_min < e_max < 0")

    def shoot(energy: float) -> tuple[float, np.ndarray]:
        # Integrate outward from the origin well past the outer turning
        # point.  The diverging tail there is dominated by the growing
        # solution, whose coefficient changes sign exactly at eigenvalues.
        nu = 1.0 / math.sqrt(-2.0 * energy)
        r_far = min(grid.r[-1], 2.0 * nu * (nu + 15.0))
        k_far = min(int(np.searchsorted(grid.r, r_far)), grid.n_points - 1)
        if grid.r[k_far] < 2.2 * nu * nu:
            raise GridExtentError("grid too small for the eigenvalue search")
        g = _sqrt_mesh_g(grid, l, energy)
        y0 = grid.x[0] ** (2 * l + 1.5)
        y1 = grid.x[1] ** (2 * l + 1.5)
        y = _numerov_outward(g, grid.dx, y0, y1, k_far)
        return float(y[k_far] / np.max(np.abs(y))), y

    f_lo, _ = shoot(e_min)
    f_hi, _ = shoot(e_max)
    if f_lo * f_hi > 0:
        raise ConvergenceError(
            f"eigenvalue search failed to bracket a root in [{e_min}, {e_max}]"
        )
    energy = float(brentq(lambda e: shoot(e)[0], e_min, e_max, xtol=tol))

    _, y = shoot(energy)
    # Count nodes below the outer turning point; the residual tail beyond it
    # still carries a slightly off-eigenvalue divergence.
    nu = 1.0 / math.sqrt(-2.0 * energy)
    k_out = max(int(np.searchsorted(grid.r, 2.0 * nu * nu)), 2)
    nodes = _count_nodes(y[:k_out])
    if nodes != target_nodes:
        raise ConvergenceError(
            f"converged to a state with {nodes} nodes, expected {target_nodes}"
        )
    return energy


class RadialBasisSolver:
    """Caches radial solutions for one (defects, grid) combination."""

    def __init__(self, defects: dict[int, float], grid: RadialGrid):
        self.defects = dict(defects)
        self.grid = grid
        self._cache: dict[tuple[int, int], RadialSolution] = {}

    def solution(self, n: int, l: int) -> RadialSolution:
        key = (n, l)
        if key not in self._cache:
            self._cache[key] = solve_radial(n, l, self.defects, self.grid)
        return self._cache[key]


def dipole_matrix_element(a: StateLabel, b: StateLabel, solver: RadialBasisSolver) -> float:
    """<a| z |b> in atomic units; exactly zero unless |l_a - l_b| = 1."""
    if abs(a.l - b.l) != 1:
        return 0.0
    ua = solver.solution(a.n, a.l).u
    ub = solver.solution(b.n, b.l).u
    radial = float(np.trapezoid(ua * solver.grid.r * ub, solver.grid.r))
    return angular_dipole_factor(min(a.l, b.l)) * radial
