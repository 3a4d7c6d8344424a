"""Split-operator propagation of a wave packet under H(t) = H0 + E(t) z.

H0 is diagonal in the stored basis, so each half step is a phase rotation.
The field factor exp(-i E z dt) is applied exactly through a cached
eigendecomposition z = V diag(w) V^T.  Every factor is unitary, which makes
forward and (adjoint) backward sweeps exact inverses of each other; the
scheme is accurate to second order in the time step.

The field is treated as piecewise constant over each step, with the value
taken at the step's left endpoint.  The optimal-control sweeps rely on this
one convention being used everywhere.

Every sweep in the package runs on one kernel, `SplitStepKernel`.  The
kernel stays in the stored basis and works on a (dim, M) block whose
columns are M independent states, so the members of an ensemble, or all
the bits of a register, advance together.  V, V^T and z stay real: a real
matrix multiplies a complex block through the block's float64 view, in
which each complex column is a (real, imaginary) pair of real columns.
That is one real product with twice the columns, half the flops of the
complex product and no cast.  One step costs two such products on the
block, V^T (D block) and V (P_j c), taken with `np.dot`, which hands the
contiguous views straight to BLAS; a step whose field sample is exactly
zero skips both and stays diagonal.  A sweep takes its step once, before
its first step (`SplitStepKernel.stepper`): that checks the block's shape,
allocates the sweep's (dim, M) scratch blocks and their float64 views, and
returns a callable that holds them, D, V and V^T as locals.  Each step is
then only its ufunc and `np.dot` calls, with positional outputs, writing
into that scratch or into a slot of the caller's arrays; it makes no
temporaries and takes no views.  The phase P_j may be a (dim, 1) column or
a contiguous (dim, M) block; the costate sweep passes the block, which
multiplies element by element instead of row by row.  The optimization
engine stores, per iteration, only the final state block, two step-major
costate arrays of n_steps blocks each (z lam_j and V^T D* lam_{j+1}) and
one (n_steps, dim, 1) table of the swept field's phases P_j, which it
forms once per field (see `control`), never whole forward trajectories.

The public entry points are `propagate`, which runs a state or a block
across a pulse grid (optionally with an absorber on chosen states), and the
kernel itself: `SplitStepKernel(h, zsys, dt).step(block, E)` is one step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .atomic import HamiltonianData, StateLabel
from .errors import InvalidSpecError

__all__ = [
    "WavePacket",
    "PulseGrid",
    "ZEigensystem",
    "SplitStepKernel",
    "precompute_z_eigensystem",
    "propagate",
    "boundary_labels",
]


@dataclass
class WavePacket:
    """Complex amplitudes over the basis labels at one instant."""

    amplitudes: np.ndarray
    time: float = 0.0

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class PulseGrid:
    """Uniformly sampled real control field E(t_j), t_j = t0 + j dt.

    The horizon is T = t0 + (len(samples) - 1) dt; propagation over the grid
    takes len(samples) - 1 steps, step j using E(t_j).  The final sample is
    the field value at T itself and is not consumed by any step.
    """

    t0: float
    dt: float
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.dt <= 0:
            raise InvalidSpecError(f"dt must be positive, got {self.dt}")
        if len(self.samples) < 2:
            raise InvalidSpecError("a pulse grid needs at least 2 samples")
        if not np.all(np.isfinite(self.samples)):
            raise InvalidSpecError("pulse samples must be finite")

    @property
    def n_steps(self) -> int:
        return len(self.samples) - 1

    @property
    def horizon(self) -> float:
        return self.t0 + self.n_steps * self.dt

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self.samples))

    def with_samples(self, samples: np.ndarray) -> "PulseGrid":
        return PulseGrid(t0=self.t0, dt=self.dt, samples=np.asarray(samples, dtype=float))

    @classmethod
    def zeros(cls, t0: float, dt: float, n_samples: int) -> "PulseGrid":
        return cls(t0=t0, dt=dt, samples=np.zeros(n_samples))


@dataclass(frozen=True)
class ZEigensystem:
    """Cached spectral decomposition z = V diag(w) V^T (V orthogonal).

    `z` is the decomposed matrix itself.  All three matrices are real
    float64 arrays; the kernel applies them to the float64 views of
    complex blocks.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    z: np.ndarray

    def reconstruction_error(self) -> float:
        z = (self.vectors * self.eigenvalues) @ self.vectors.T
        return float(np.max(np.abs(z - self.z)))


def precompute_z_eigensystem(h: HamiltonianData) -> ZEigensystem:
    """Diagonalize the z matrix once; reused by every step of every sweep."""
    scale = max(float(np.max(np.abs(h.z_matrix))), 1.0)
    if float(np.max(np.abs(h.z_matrix - h.z_matrix.T))) > 1e-12 * scale:
        raise InvalidSpecError("z matrix must be symmetric")
    w, v = np.linalg.eigh(h.z_matrix)
    z = np.ascontiguousarray(h.z_matrix, dtype=float)
    return ZEigensystem(eigenvalues=w, vectors=np.ascontiguousarray(v), z=z)


class SplitStepKernel:
    """The split step D V P(E) V^T D on a (dim, M) block of states.

    D = exp(-i H0 dt/2) and P(E) = exp(-i E w dt) are diagonal.  A negative
    dt gives the adjoint (inverse) step, which the backward sweeps use; see
    `adjoint`.  Blocks are complex (dim, M) arrays, one state per column.
    A sweep takes its `stepper` once and then calls it at every step, which
    writes through the stepper's scratch and allocates nothing; `step`,
    `evolve` and `coefficients` are such sweeps.
    """

    def __init__(self, h: HamiltonianData, zsys: ZEigensystem, dt: float):
        self.h = h
        self.zsys = zsys
        self.dt = dt
        self.half = np.exp(-0.5j * dt * h.energies)[:, None]
        self.exponent = -1j * dt * zsys.eigenvalues[:, None]
        self.v = zsys.vectors
        self.vt = zsys.vectors.T
        self.z = zsys.z

    def adjoint(self) -> "SplitStepKernel":
        return SplitStepKernel(self.h, self.zsys, -self.dt)

    def phase(self, e_field: float, out: np.ndarray | None = None) -> np.ndarray:
        """The z-eigenbasis factor P(E) as a column; exactly 1 for E = 0.

        The column is written into `out` when it is given.
        """
        column = np.multiply(e_field, self.exponent, out=out)
        return np.exp(column, out=column)

    def phase_table(self, samples: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """P(E_j) for every step of `samples` at once, as (n_steps, dim, 1) columns.

        Row j equals `phase(samples[j])` exactly: the same product and the
        same elementwise exp, one vectorised call for the whole grid, taken
        in place so that only one table is ever held.  The table is written
        into `out` when it is given, such as the table that the optimization
        engine keeps for the field it sweeps, whose rows its update sweep
        then overwrites, with the same product and exp, as it forms the new
        field.
        """
        table = np.multiply(samples[:-1, None, None], self.exponent, out=out)
        return np.exp(table, out=table)

    def stepper(self, block: np.ndarray) -> tuple[Callable[..., None], tuple[np.ndarray, ...]]:
        """The split step of one sweep of `block`, after checking its shape.

        Returns `step` and its scratch `(x, b, c, cf)`: complex (dim, M)
        blocks, and cf, the float64 view of c, a (dim, 2M) real array whose
        column pairs hold each column's real and imaginary parts, so that
        one real matrix product acts on both.  They are allocated here, once
        per sweep, with D broadcast to a contiguous (dim, M) array so that it
        multiplies a block element by element rather than row by row.

        `step(src, dst, phase, c, cf)` is D (V (P (V^T (D src)))) into
        `dst`, which may be `src` itself.  The coefficients c = V^T D src go
        into the C-contiguous complex (dim, M) block `c` through its float64
        view `cf`: the step's own scratch or a slot of the caller's arrays.
        `phase` is P(E), a (dim, 1) column or a full-width (dim, M) block,
        and P c is left in b.  For E = 0 `phase` is None and the step is the
        diagonal D (D src), so amplitudes that are exactly zero stay zero; it
        then forms c only when `cf` is not None.  `src` is read in full
        before `dst` is written, so a sweep can step from one slot of a
        buffer into another.  The callable holds every operand as a local
        and passes every output positionally; it makes no temporary array,
        and `np.dot` hands the contiguous float64 views straight to BLAS.
        """
        # A (dim,) state or a (1, M) block would broadcast against the
        # (dim, 1) half step into a wrong-shaped block instead of failing.
        if block.ndim != 2 or block.shape[0] != len(self.half):
            raise InvalidSpecError(
                f"expected a ({len(self.half)}, M) block of states, got shape {block.shape}"
            )
        half = np.ascontiguousarray(np.broadcast_to(self.half, block.shape))
        x, b, own_c = (np.empty(block.shape, dtype=complex) for _ in range(3))
        xf, bf, own_cf = (a.view(np.float64) for a in (x, b, own_c))
        v, vt, multiply, dot = self.v, self.vt, np.multiply, np.dot

        def step(src, dst, phase, c, cf):
            multiply(half, src, x)
            if cf is not None:
                dot(vt, xf, cf)
            if phase is not None:
                multiply(phase, c, b)
                dot(v, bf, xf)
            multiply(half, x, dst)

        return step, (x, b, own_c, own_cf)

    def _field_stepper(self, block: np.ndarray) -> Callable[[np.ndarray, np.ndarray, float], None]:
        """`stepper`'s step taking a field value: P(E) is formed per step."""
        step, (_, _, c, cf) = self.stepper(block)
        column = np.empty_like(self.half)
        phase = self.phase

        def field_step(src, dst, e_field):
            if e_field != 0.0:
                step(src, dst, phase(e_field, column), c, cf)
            else:
                step(src, dst, None, None, None)

        return field_step

    def coefficients(self, block: np.ndarray) -> np.ndarray:
        """c = V^T D block, the first half step in the z eigenbasis."""
        step, (x, _, c, cf) = self.stepper(block)
        # A zero-field step given c forms it; D (D block) lands in x, unused.
        step(block, x, None, c, cf)
        return c

    def step(self, block: np.ndarray, e_field: float) -> np.ndarray:
        """One step of `block` under the field sample `e_field`, as a new block."""
        out = np.empty(block.shape, dtype=complex)
        self._field_stepper(block)(block, out, e_field)
        return out

    def evolve(self, block: np.ndarray, samples: np.ndarray) -> np.ndarray:
        """Final block after one step per sample; the last sample is unused."""
        step = self._field_stepper(block)
        block = np.array(block, dtype=complex, order="C")
        for e_field in samples[:-1].tolist():
            step(block, block, e_field)
        return block


def boundary_labels(h: HamiltonianData) -> list[StateLabel]:
    """States on the basis edges: lowest n, highest n, and highest l shell."""
    n_min = min(s.n for s in h.labels)
    n_max = max(s.n for s in h.labels)
    l_top = max(s.l for s in h.labels)
    return [s for s in h.labels if s.n in (n_min, n_max) or s.l == l_top]


def propagate(
    psi0: WavePacket,
    pulse: PulseGrid,
    h: HamiltonianData,
    zsys: ZEigensystem,
    record: int | None = 1,
    absorber: tuple[list, float] | None = None,
) -> tuple[list[WavePacket], WavePacket]:
    """Propagate psi0 across the whole pulse grid.

    `psi0.amplitudes` is one state of shape (dim,) or a (dim, M) block of M
    normalized states, which advance together; the returned wave packets
    have the same shape.  `record` is the sampling stride: 1 stores every
    step, k every k-th step, None only the final state.  The initial state
    and the final state are always part of a recorded trajectory.
    `absorber` is an optional (labels, strength) pair: after every step the
    amplitudes on those states are damped by (1 - strength), strength in
    [0, 1], so the norm never grows.  It breaks unitarity and is meant for
    forward-only diagnostics, not for optimization sweeps.
    """
    if np.any(np.abs(np.linalg.norm(psi0.amplitudes, axis=0) - 1.0) > 1e-8):
        raise InvalidSpecError("initial wave packet must be normalized")
    if record is not None and record < 1:
        raise InvalidSpecError("record stride must be a positive integer or None")

    mask = None
    if absorber is not None:
        labels, strength = absorber
        if not 0.0 <= strength <= 1.0:
            raise InvalidSpecError(f"absorber strength must be in [0, 1], got {strength}")
        mask = np.ones((h.dim, 1))
        for label in labels:
            mask[h.index(label)] = 1.0 - strength

    kernel = SplitStepKernel(h, zsys, pulse.dt)
    shape = psi0.amplitudes.shape
    block = np.array(psi0.amplitudes, dtype=complex, order="C").reshape(h.dim, -1)
    step = kernel._field_stepper(block)
    t = pulse.t0
    trajectory: list[WavePacket] = []
    if record is not None:
        trajectory.append(WavePacket(amplitudes=block.reshape(shape).copy(), time=t))

    for j, e_field in enumerate(pulse.samples[:-1].tolist()):
        step(block, block, e_field)
        if mask is not None:
            np.multiply(block, mask, out=block)
        t += pulse.dt
        if record is not None and ((j + 1) % record == 0 or j + 1 == pulse.n_steps):
            trajectory.append(WavePacket(amplitudes=block.reshape(shape).copy(), time=t))

    final = WavePacket(amplitudes=block.reshape(shape), time=t)
    if record is None:
        trajectory = [final]
    return trajectory, final
