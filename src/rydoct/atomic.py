"""Restricted-basis model atom: quantum-defect energies and dipole couplings.

The model Hamiltonian is H(t) = H0 + E(t) z in a truncated set of bound
states |n, l> (m = 0 throughout).  Level energies come from the
quantum-defect formula E = -1/(2 (n - delta_l)^2).  Radial wavefunctions are
obtained by integrating the Coulomb equation inward at that energy on a
square-root radial mesh, which reproduces the exact hydrogen functions when
all defects vanish and the standard outer-region (Whittaker-like)
approximation otherwise.  For nonzero defects the rapid oscillations of the
true wavefunction inside the ionic core are not represented; dipole matrix
elements between high-n states are dominated by large radii where the
approximation is good.

All quantities are in Hartree atomic units.
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence
from dataclasses import field

import numpy as np

from ._record import record
from .errors import (
    ConvergenceError,
    GridExtentError,
    InvalidSpecError,
    ValidationError,
)

# Spectroscopic letters for l = 0, 1, 2, ...; j is skipped by convention.
_L_LETTERS = "spdfghiklmnoqrtuvwxyz"

#: Cesium-like quantum defects (s, p, d, f); zero for higher l.
CESIUM_DEFECTS = {0: 4.05, 1: 3.59, 2: 2.47, 3: 0.033}


def l_letter(l: int) -> str:
    if 0 <= l < len(_L_LETTERS):
        return _L_LETTERS[l]
    return f"(l={l})"


@record(frozen=True, order=True)
class StateLabel:
    """One basis orbital |n, l> with m = 0."""

    n: int
    l: int

    def __post_init__(self):
        if not (0 <= self.l < self.n):
            raise InvalidSpecError(f"invalid state: n={self.n}, l={self.l}")

    def __str__(self) -> str:
        return f"{self.n}{l_letter(self.l)}"

    @classmethod
    def parse(cls, text: "StateLabel | str") -> "StateLabel":
        """Read a name as `str` writes it, such as "26p" or "23(l=21)".

        The "(l=...)" form is accepted only for the l that have no letter.
        A StateLabel is returned unchanged.
        """
        if isinstance(text, StateLabel):
            return text
        pattern = r"(\d+)(?:([a-z])|\(l=(\d+)\))"
        m = re.fullmatch(pattern, text.strip()) if isinstance(text, str) else None
        if not m:
            raise InvalidSpecError(f"cannot parse state label {text!r}")
        n, letter, number = m.groups()
        if letter is None:
            l = int(number)
            if l < len(_L_LETTERS):
                raise InvalidSpecError(f"state label {text!r} must name l={l} by its letter")
        elif letter in _L_LETTERS:
            l = _L_LETTERS.index(letter)
        else:
            raise InvalidSpecError(f"unknown angular-momentum letter in {text!r}")
        return cls(n=int(n), l=l)


@record(frozen=True)
class BasisSpec:
    """Rectangular basis selection: n in [n_min, n_max], l < min(n, l_max).

    `quantum_defects` maps l to the defect delta_l; unlisted l have zero
    defect.  Defects must keep every included state bound (delta_l < n_min).
    """

    n_min: int
    n_max: int
    l_max: int
    quantum_defects: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.n_min < 1:
            raise InvalidSpecError(f"n_min must be >= 1, got {self.n_min}")
        if self.n_max < self.n_min:
            raise InvalidSpecError(f"n_max={self.n_max} < n_min={self.n_min}")
        if self.l_max < 1:
            raise InvalidSpecError(f"l_max must be >= 1, got {self.l_max}")
        for l, delta in self.quantum_defects.items():
            if l < 0:
                raise InvalidSpecError(f"quantum defect for negative l={l}")
            if delta < 0:
                raise InvalidSpecError(f"negative quantum defect for l={l}")
            if delta >= self.n_min:
                raise InvalidSpecError(
                    f"quantum defect {delta} for l={l} exceeds n_min={self.n_min}; "
                    "states would be unbound or invalid"
                )

    def defect(self, l: int) -> float:
        return float(self.quantum_defects.get(l, 0.0))

    def states(self) -> list[StateLabel]:
        return [
            StateLabel(n, l)
            for n in range(self.n_min, self.n_max + 1)
            for l in range(0, min(n, self.l_max))
        ]


@record(frozen=True)
class RadialGrid:
    """Square-root radial mesh: x = sqrt(r) uniform, r strictly increasing."""

    r: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        if self.r[0] <= 0:
            raise InvalidSpecError("radial grid must start at r > 0")
        if np.any(np.diff(self.r) <= 0):
            raise InvalidSpecError("radial grid must be strictly increasing")

    @property
    def n_points(self) -> int:
        return len(self.r)

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @classmethod
    def for_basis(
        cls,
        n_max: int,
        n_points: int = 20000,
        r_min: float = 1e-4,
        r_max: float | None = None,
    ) -> "RadialGrid":
        """Default mesh: 20000 points on r in [1e-4, 2.5 n_max^2]."""
        if r_max is None:
            r_max = 2.5 * n_max * n_max
        x = np.linspace(math.sqrt(r_min), math.sqrt(r_max), n_points)
        return cls(r=x * x, x=x)


def quantum_defect_energy(n: int, l: int, defects: dict[int, float]) -> float:
    """Level energy -1 / (2 (n - delta_l)^2) in Hartree.

    Raises InvalidSpecError if n <= delta_l (no bound state).
    """
    delta = float(defects.get(l, 0.0))
    if n <= delta:
        raise InvalidSpecError(f"n={n} does not exceed quantum defect {delta} for l={l}")
    nu = n - delta
    return -1.0 / (2.0 * nu * nu)


@record(frozen=True)
class RadialSolution:
    """Normalized reduced radial wavefunction u(r) = r R(r) on the grid."""

    n: int
    l: int
    energy: float
    u: np.ndarray
    nodes: int


# Mesh rows per block of Numerov coefficients, and mesh points per block of
# the dipole sums.  Both bound the scratch memory of a basis build.
_NUMEROV_ROWS = 64
_DIPOLE_POINTS = 2048


def _sqrt_mesh_g(x: np.ndarray, l, energy) -> np.ndarray:
    # On the x = sqrt(r) mesh with y = u / sqrt(2 x), the radial equation
    # becomes y'' = g(x) y with an effective centrifugal index 2l + 1/2.
    # A column of x against rows of l and energy gives one column per state.
    lam = 2 * l + 0.5
    return lam * (lam + 1.0) / (x * x) - 8.0 - 8.0 * energy * x * x


def _numerov_inward(
    x: np.ndarray, ls: np.ndarray, energies: np.ndarray, h: float, k_start: np.ndarray
) -> np.ndarray:
    """Integrate y'' = g y inward for every state at once, one column each.

    Column s is 0 at row k_start[s] and 1e-15 one row below, and is integrated
    down to row 0; above its start it stays zero.  The coefficients are formed
    a few rows at a time, and each column goes through the same floating-point
    operations, in the same order, as a sweep of that state alone.
    """
    n_states = len(ls)
    y = np.zeros((len(x), n_states))
    y[k_start - 1, np.arange(n_states)] = 1e-15
    # Every step updates every column; a column that has not started yet
    # computes zeros, and gets its seed back at its starting row.
    reseed: dict[int, list[int]] = {}
    for s, k in enumerate(k_start.tolist()):
        reseed.setdefault(k, []).append(s)
    c = h * h / 12.0
    acc = np.empty(n_states)
    tmp = np.empty(n_states)
    for hi in range(int(k_start.max()), 1, -_NUMEROV_ROWS):
        lo = max(hi - _NUMEROV_ROWS, 1)
        # Coefficient rows lo - 1 .. hi serve the steps k = hi - 1 .. lo.
        g = _sqrt_mesh_g(x[lo - 1 : hi + 1, None], ls, energies)
        a = 1.0 + 5.0 * c * g
        b = 1.0 - c * g
        for k in range(hi - 1, lo - 1, -1):
            j = k - lo + 1
            np.multiply(y[k], 2.0, out=acc)
            acc *= a[j]
            np.multiply(y[k + 1], b[j + 1], out=tmp)
            acc -= tmp
            np.divide(acc, b[j - 1], out=y[k - 1])
            if k in reseed:
                y[k - 1, reseed[k]] = 1e-15
    return y


def _count_nodes(u: np.ndarray) -> int:
    # Sign changes between samples of substantial amplitude; the floor keeps
    # residual integration noise near the origin from registering as nodes.
    floor = 1e-6 * float(np.max(np.abs(u)))
    signs = np.sign(u[np.abs(u) > floor])
    if len(signs) < 2:
        return 0
    return int(np.count_nonzero(signs[:-1] * signs[1:] < 0))


def solve_radial_batch(
    labels: Sequence[StateLabel], defects: dict[int, float], grid: RadialGrid
) -> tuple[np.ndarray, np.ndarray]:
    """Solve for u(r) of every label at once by inward Numerov integration.

    Returns the normalized functions as the columns of a (points, states)
    array, in label order, and their node counts.  Each energy is fixed at
    -1/(2 nu^2), nu = n - delta_l, and the pure Coulomb equation is
    integrated inward from the classically forbidden outer region.  For
    delta_l = 0 this is the exact hydrogen eigenfunction and carries
    n - l - 1 radial nodes (enforced).  For delta_l > 0 the solution is the
    outer-region approximation to the true alkali wavefunction; it is
    truncated where it starts to diverge inside the core, and its node count
    reflects the effective quantum number rather than n.

    Raises GridExtentError if the grid cannot hold a state.
    """
    deltas = [float(defects.get(s.l, 0.0)) for s in labels]
    energies = np.empty(len(labels))
    k_start = np.empty(len(labels), dtype=np.intp)
    for i, s in enumerate(labels):
        energies[i] = quantum_defect_energy(s.n, s.l, defects)
        nu = s.n - deltas[i]
        r_needed = 2.0 * nu * nu
        if grid.r[-1] < 1.02 * r_needed:
            raise GridExtentError(
                f"grid extends to r={grid.r[-1]:.1f} but state {s} "
                f"requires roughly {1.02 * r_needed:.1f} bohr"
            )
        # Start the inward sweep far enough outside the turning point that the
        # decaying tail is negligible there, but close enough to avoid overflow.
        r_start = min(grid.r[-1], 2.0 * nu * (nu + 15.0))
        k_start[i] = min(int(np.searchsorted(grid.r, r_start)), grid.n_points - 1)
        if k_start[i] < 2:
            raise GridExtentError("grid too small for inward integration")

    ls = np.array([s.l for s in labels])
    us = _numerov_inward(grid.x, ls, energies, grid.dx, k_start)
    us *= np.sqrt(2.0 * grid.x)[:, None]
    nodes = np.empty(len(labels), dtype=int)
    for i, s in enumerate(labels):
        u, delta = us[:, i].copy(), deltas[i]
        nu = s.n - delta
        # Below the inner turning point |u| must decrease toward the origin.
        # Inward integration eventually excites the irregular solution there
        # (physically for nonzero defects, numerically for l >= 1); cut at the
        # minimum of |u| if the amplitude starts growing again.
        disc = 1.0 - s.l * (s.l + 1.0) / (nu * nu)
        r_inner = nu * nu * (1.0 - math.sqrt(disc)) if disc > 0 else 0.0
        k_inner = int(np.searchsorted(grid.r, max(r_inner, grid.r[0])))
        if k_inner > 2:
            u[: int(np.argmin(np.abs(u[:k_inner])))] = 0.0

        peak = float(np.max(np.abs(u)))
        if peak == 0.0:
            raise ConvergenceError(f"inward integration produced no amplitude for {s}")

        # Decay check at the outer boundary (skipped when the start point already
        # sits well inside the grid, where the tail is zero by construction).
        if k_start[i] >= grid.n_points - 2:
            tail = float(np.max(np.abs(u[-grid.n_points // 50 :])))
            if tail > 0.05 * peak:
                raise GridExtentError(
                    f"wavefunction of {s} has not decayed at the grid boundary"
                )

        u /= math.sqrt(np.trapezoid(u * u, grid.r))
        # Sign convention: positive outermost antinode.
        if u[int(np.argmax(np.abs(u)))] < 0:
            np.negative(u, out=u)

        nodes[i] = _count_nodes(u)
        if delta == 0.0 and nodes[i] != s.n - s.l - 1:
            raise ConvergenceError(
                f"hydrogenic state {s} produced {nodes[i]} nodes, "
                f"expected {s.n - s.l - 1}; grid too coarse?"
            )
        us[:, i] = u
    return us, nodes


def solve_radial(
    n: int,
    l: int,
    defects: dict[int, float],
    grid: RadialGrid,
) -> RadialSolution:
    """Solve for the u(r) of one state: `solve_radial_batch` of one label."""
    us, nodes = solve_radial_batch((StateLabel(n, l),), defects, grid)
    energy = quantum_defect_energy(n, l, defects)
    return RadialSolution(n=n, l=l, energy=energy, u=us[:, 0], nodes=int(nodes[0]))


def angular_dipole_factor(l_lower: int) -> float:
    """<l+1, 0 | cos(theta) | l, 0> for m = 0."""
    l = l_lower
    return (l + 1.0) / math.sqrt((2.0 * l + 1.0) * (2.0 * l + 3.0))


def _radial_weights(grid: RadialGrid) -> np.ndarray:
    # r times the trapezoid weights: sum(u_a * w * u_b) is the trapezoid
    # integral of u_a r u_b over the grid.
    half = np.diff(grid.r) / 2.0
    weights = np.zeros(grid.n_points)
    weights[:-1] += half
    weights[1:] += half
    return grid.r * weights


def _radial_dipoles(us: np.ndarray, rows, cols, w: np.ndarray) -> np.ndarray:
    """The block us[:, rows]^T diag(w) us[:, cols], summed over chunks of points."""
    block = np.zeros((len(rows), len(cols)))
    for lo in range(0, len(w), _DIPOLE_POINTS):
        chunk = us[lo : lo + _DIPOLE_POINTS]
        block += chunk[:, rows].T @ (w[lo : lo + _DIPOLE_POINTS, None] * chunk[:, cols])
    return block


def dipole_matrix_element(
    a: StateLabel, b: StateLabel, defects: dict[int, float], grid: RadialGrid
) -> float:
    """<a| z |b> in atomic units; exactly zero unless |l_a - l_b| = 1.

    This is the one-pair case of the block formula of `build_hamiltonian`.
    """
    if abs(a.l - b.l) != 1:
        return 0.0
    lower, upper = sorted((a, b), key=lambda s: s.l)
    us, _ = solve_radial_batch((lower, upper), defects, grid)
    radial = float(_radial_dipoles(us, [0], [1], _radial_weights(grid))[0, 0])
    return angular_dipole_factor(lower.l) * radial


def parity_rows(labels: Sequence[StateLabel]) -> tuple[np.ndarray, np.ndarray]:
    """The indices of the even-l labels and of the odd-l labels, each in order.

    The dipole rule |dl| = 1 couples only states of opposite l parity, so
    the even-odd block z[even][:, odd] holds every nonzero of a z that obeys
    it, once.
    """
    odd = np.array([label.l % 2 for label in labels], dtype=bool)
    return np.flatnonzero(~odd), np.flatnonzero(odd)


@record(frozen=True)
class HamiltonianData:
    """Field-free energies and the z (dipole) matrix over the basis labels.

    Every instance is valid: the constructor runs `validate`, so z is
    symmetric and couples only states whose l differ by one.  z is then
    bipartite in l parity, and `parity_svd` is `np.linalg.svd` of its
    even-odd block B = z[even][:, odd] (see `parity_rows`), the (u, s, wt)
    that numpy returns, from which `precompute_z_eigensystem` assembles
    the eigensystem.  The constructor takes it when none is given; a
    cached basis comes with it and calls no LAPACK routine.  A write
    would leave the data unvalidated and the SVD stale, so the instance is
    frozen and keeps read-only copies of the arrays it is given: the
    caller's own arrays stay as they were.
    """

    labels: tuple[StateLabel, ...]
    energies: np.ndarray
    z_matrix: np.ndarray
    provenance: str = "generated"
    basis_spec: BasisSpec | None = None
    parity_svd: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        def put(name, value):
            object.__setattr__(self, name, value)

        put("energies", np.array(self.energies, dtype=float))
        put("z_matrix", np.array(self.z_matrix, dtype=float))
        put("_index", {label: i for i, label in enumerate(self.labels)})
        self.validate()
        if self.parity_svd is None:
            even, odd = parity_rows(self.labels)
            put("parity_svd", tuple(np.linalg.svd(self.z_matrix[np.ix_(even, odd)])))
        else:
            put("parity_svd", tuple(np.array(a, dtype=float) for a in self.parity_svd))
        for array in (self.energies, self.z_matrix, *self.parity_svd):
            array.flags.writeable = False

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label: StateLabel | str) -> int:
        label = StateLabel.parse(label)
        try:
            return self._index[label]
        except KeyError:
            raise InvalidSpecError(f"state {label} is not in the basis") from None

    def validate(self) -> None:
        if len(self.energies) != self.dim or self.z_matrix.shape != (self.dim, self.dim):
            raise ValidationError("energies / z_matrix shapes do not match the labels")
        if np.any(self.energies >= 0):
            bad = self.labels[int(np.argmax(self.energies >= 0))]
            raise ValidationError(f"energy of {bad} is not negative")
        scale = max(float(np.max(np.abs(self.z_matrix))), 1.0)
        asym = np.abs(self.z_matrix - self.z_matrix.T)
        if float(np.max(asym)) > 1e-12 * scale:
            i, j = np.unravel_index(int(np.argmax(asym)), asym.shape)
            raise ValidationError(
                f"z matrix is not symmetric at ({self.labels[i]}, {self.labels[j]})"
            )
        ls = np.array([s.l for s in self.labels])
        forbidden = (np.abs(ls[:, None] - ls[None, :]) != 1) & (self.z_matrix != 0.0)
        if np.any(forbidden):
            # argmax finds the first offending pair in row-major order.
            i, j = np.unravel_index(int(np.argmax(forbidden)), forbidden.shape)
            a, b = self.labels[i], self.labels[j]
            raise ValidationError(
                f"selection-rule violation: <{a}|z|{b}> = {self.z_matrix[i, j]}"
            )


def build_hamiltonian(spec: BasisSpec, grid: RadialGrid | None = None) -> HamiltonianData:
    """Construct HamiltonianData for every state selected by `spec`.

    Labels are ordered by (n, l).  All radial functions come from one batched
    Numerov sweep.  The z matrix is filled one (l, l+1) block at a time with
    the weighted product U_l^T diag(r w) U_{l+1}, w the trapezoid weights, so
    it is zero outside the selection rule and symmetric by construction.
    """
    if grid is None:
        grid = RadialGrid.for_basis(spec.n_max)
    labels = tuple(spec.states())
    energies = np.array(
        [quantum_defect_energy(s.n, s.l, spec.quantum_defects) for s in labels]
    )
    us, _ = solve_radial_batch(labels, spec.quantum_defects, grid)
    w = _radial_weights(grid)
    ls = np.array([s.l for s in labels])
    z = np.zeros((len(labels), len(labels)))
    for l in range(spec.l_max - 1):
        rows, cols = np.flatnonzero(ls == l), np.flatnonzero(ls == l + 1)
        block = angular_dipole_factor(l) * _radial_dipoles(us, rows, cols, w)
        z[np.ix_(rows, cols)] = block
        z[np.ix_(cols, rows)] = block.T
    return HamiltonianData(
        labels=labels, energies=energies, z_matrix=z, provenance="generated", basis_spec=spec
    )


# ---------------------------------------------------------------------------
# Hamiltonian file format: key-value header, then [energies] and [dipoles]
# sections.  Values are written with repr() so a save/load round trip is
# bit-exact.  Only nonzero dipole entries are stored, one per unordered pair.
# ---------------------------------------------------------------------------


def save_hamiltonian(data: HamiltonianData, path) -> None:
    spec = data.basis_spec
    if spec is None:
        raise ValidationError("cannot save a Hamiltonian without its basis spec")
    lines = ["# rydoct hamiltonian format 1"]
    lines.append(f"n_min {spec.n_min}")
    lines.append(f"n_max {spec.n_max}")
    lines.append(f"l_max {spec.l_max}")
    for l in sorted(spec.quantum_defects):
        lines.append(f"defect {l} {spec.quantum_defects[l]!r}")
    lines.append(f"provenance {data.provenance}")
    lines.append("[energies]")
    for label, energy in zip(data.labels, data.energies):
        lines.append(f"{label} {float(energy)!r}")
    lines.append("[dipoles]")
    # Row-major over the upper triangle, as a loop over i < j would visit it.
    rows, cols = np.nonzero(np.triu(data.z_matrix, 1))
    for i, j, value in zip(rows.tolist(), cols.tolist(), data.z_matrix[rows, cols].tolist()):
        lines.append(f"{data.labels[i]} {data.labels[j]} {value!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_hamiltonian(path) -> HamiltonianData:
    """Load and validate a Hamiltonian file; raises ValidationError on defects."""
    header: dict[str, str] = {}
    defects: dict[int, float] = {}
    energies: dict[StateLabel, float] = {}
    dipoles: dict[tuple[StateLabel, StateLabel], float] = {}
    # Each state's token recurs on many dipole lines; parse it once.
    parsed: dict[str, StateLabel] = {}

    def parse_label(token: str) -> StateLabel:
        found = parsed.get(token)
        if found is None:
            found = parsed[token] = StateLabel.parse(token)
        return found

    section = "header"
    with open(path) as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not a text file: {exc}") from None
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line == "[energies]":
                section = "energies"
                continue
            if line == "[dipoles]":
                section = "dipoles"
                continue
            parts = line.split()
            try:
                if section == "header":
                    if parts[0] == "defect":
                        defects[int(parts[1])] = float(parts[2])
                    else:
                        header[parts[0]] = parts[1]
                elif section == "energies":
                    energies[parse_label(parts[0])] = float(parts[1])
                else:
                    a = parse_label(parts[0])
                    b = parse_label(parts[1])
                    value = float(parts[2])
                    key = (a, b) if a <= b else (b, a)
                    if key in dipoles and dipoles[key] != value:
                        raise ValidationError(
                            f"line {lineno}: <{a}|z|{b}> = {value} contradicts the "
                            f"transposed entry {dipoles[key]}"
                        )
                    dipoles[key] = value
            except (IndexError, ValueError) as exc:
                raise ValidationError(f"line {lineno}: cannot parse {line!r}") from exc

    for key in ("n_min", "n_max", "l_max"):
        if key not in header:
            raise ValidationError(f"missing header key {key!r}")
    spec = BasisSpec(
        n_min=int(header["n_min"]),
        n_max=int(header["n_max"]),
        l_max=int(header["l_max"]),
        quantum_defects=defects,
    )
    labels = tuple(spec.states())
    index = {label: i for i, label in enumerate(labels)}
    for label in labels:
        if label not in energies:
            raise ValidationError(f"missing energy for state {label}")
    for label in energies:
        if label not in index:
            raise ValidationError(f"energy row for {label} is outside the declared basis")

    dim = len(labels)
    z = np.zeros((dim, dim))
    for (a, b), value in dipoles.items():
        if a not in index or b not in index:
            raise ValidationError(f"dipole entry ({a}, {b}) is outside the declared basis")
        if abs(a.l - b.l) != 1:
            raise ValidationError(f"selection-rule violation in file: <{a}|z|{b}> = {value}")
        z[index[a], index[b]] = value
        z[index[b], index[a]] = value

    return HamiltonianData(
        labels=labels,
        energies=np.array([energies[label] for label in labels]),
        z_matrix=z,
        provenance=header.get("provenance", "loaded"),
        basis_spec=spec,
    )
