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
temporaries and takes no views.  Each P_j of a fixed field is a row of
`SplitStepKernel.phase_table`.  The phase P_j may be a (dim, 1) column or
a contiguous (dim, M) block; the costate sweep passes the block, which
multiplies element by element instead of row by row.  The optimization
engine stores, per iteration, only the final state block, two step-major
costate arrays of n_steps blocks each (z lam_j and V^T D* lam_{j+1}) and
one (n_steps, dim, 1) table of the swept field's phases P_j, which it
forms once per field (see `control`), never whole forward trajectories.

The parity-block step.  The dipole rule |dl| = 1 makes z bipartite in l
parity: in parity order, even l first, z = [[0, B], [B^T, 0]].
`precompute_z_eigensystem` then builds V from the SVD B = q diag(s) w^T,
which has the same bits under any BLAS thread count, and the kernel of a
basis of `BLOCK_STEP_MIN_DIM` states or more holds its blocks in parity
order and never forms V: its coefficients are [q^T x_even; w^T x_odd], two
products of half the size, and P(E) rotates each singular pair k by
[[cos, -i sin], [-i sin, cos]] of the angle E dt s_k, kept in the same
(dim, 1) phase rows.  The crossover comes from timing one optimization
iteration of each step, with one member and with four: the block step
took 1.4-1.6x the dense step's time at 55 states, 0.97-1.05x at 154,
0.90-1.00x at 165, 0.87-0.90x at 187 and 0.36-0.62x at 357.  Smaller
bases, and any z that is not bipartite, keep the dense step.

The step kind lives in this module alone: the step, its row order, z
(`multiply_z`), each phase row (`phase_writer`, which `phase_table` runs
too, so each kind's formula is written once) and the delta3 cross-term's
overlaps (`cross_overlaps`) are kernel methods that answer for either
kind, and the sweeps in `control` run one body for both.  States cross
into the kernel's order once, at `propagate`'s boundary and the engine's.

The public entry points are `propagate`, the one loop that runs a state or
a block across a fixed pulse grid (optionally with an absorber on chosen
states), and the kernel itself: `SplitStepKernel(h, zsys, dt).stepper(block)`
returns one step, and its `phase_table` the phases P_j that the step takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .atomic import HamiltonianData, StateLabel
from .errors import InvalidSpecError

#: Steps per block of phases that a sweep forms or copies at a time.
CHUNK_STEPS = 64
#: Smallest basis that takes the parity-block step, when z has parity blocks.
BLOCK_STEP_MIN_DIM = 160

__all__ = [
    "WavePacket",
    "PulseGrid",
    "ZEigensystem",
    "ParityBlocks",
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
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise InvalidSpecError(f"dt must be positive and finite, got {self.dt}")
        if not math.isfinite(self.t0):
            raise InvalidSpecError(f"t0 must be finite, got {self.t0}")
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


class ParityBlocks(NamedTuple):
    """z in parity order, [[0, B], [B^T, 0]], and the SVD of its block B.

    The dipole rule |dl| = 1 couples even-l states only to odd-l ones.
    `order` lists the basis indices of the n_e even-l states and then of the
    n_o odd-l ones, each in basis order, and B = z[even][:, odd].  `q` (n_e, n_e) and `w` (n_o, n_o) are
    orthogonal, and B^T q_k = s_k w_k for the r = len(s) singular pairs
    k: q_k is column n_e - r + k of q and w_k column k of w.  The other
    columns span the null spaces of B^T and B.  A block of coefficients
    [q^T x_even; w^T x_odd] therefore holds pair k in rows n_e - r + k and
    n_e + k, and its null rows before and after those 2r rows.  (A named
    tuple, not a dataclass: every CLI process defines it at import.)
    """

    order: np.ndarray
    b: np.ndarray
    q: np.ndarray
    w: np.ndarray
    s: np.ndarray

    @property
    def n_even(self) -> int:
        return len(self.q)


@dataclass(frozen=True)
class ZEigensystem:
    """Cached spectral decomposition z = V diag(w) V^T (V orthogonal).

    `z` is the decomposed matrix itself.  All three matrices are real
    float64 arrays; the kernel applies them to the float64 views of
    complex blocks.  `parity` holds the parity blocks that V was built
    from when z is bipartite in l parity, and is None otherwise.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    z: np.ndarray
    parity: ParityBlocks | None = None

    def reconstruction_error(self) -> float:
        z = (self.vectors * self.eigenvalues) @ self.vectors.T
        return float(np.max(np.abs(z - self.z)))


def _parity_blocks(h: HamiltonianData, z: np.ndarray) -> ParityBlocks | None:
    """The SVD of z's even-odd block, or None if z couples two states of one parity."""
    odd = np.array([label.l % 2 for label in h.labels], dtype=bool)
    if np.any(z[np.ix_(odd, odd)]) or np.any(z[np.ix_(~odd, ~odd)]):
        return None
    b = np.ascontiguousarray(z[np.ix_(~odd, odd)])
    u, s, wt = np.linalg.svd(b)
    r = len(s)
    q = np.concatenate([u[:, r:], u[:, :r]], axis=1)
    w = wt.T
    order = np.concatenate([np.flatnonzero(~odd), np.flatnonzero(odd)])
    return ParityBlocks(order, b, np.ascontiguousarray(q), np.ascontiguousarray(w), s)


def precompute_z_eigensystem(h: HamiltonianData) -> ZEigensystem:
    """Diagonalize the z matrix once; reused by every step of every sweep.

    A z that is bipartite in l parity, as every Hamiltonian that obeys the
    dipole rule is, is decomposed through the SVD of its block B (see
    `ParityBlocks`): pair k gives the eigenvalues +s_k and -s_k with the
    eigenvectors (q_k, +w_k)/sqrt(2) and (q_k, -w_k)/sqrt(2), and each null
    column of q or w an eigenvector of eigenvalue exactly 0.  The SVD has
    the same bits under any BLAS thread count, where `eigh` of the whole z
    does not.  Any other symmetric z goes through `numpy.linalg.eigh`.
    """
    scale = max(float(np.max(np.abs(h.z_matrix))), 1.0)
    if float(np.max(np.abs(h.z_matrix - h.z_matrix.T))) > 1e-12 * scale:
        raise InvalidSpecError("z matrix must be symmetric")
    z = np.ascontiguousarray(h.z_matrix, dtype=float)
    parity = _parity_blocks(h, z)
    if parity is None:
        w, v = np.linalg.eigh(z)
        return ZEigensystem(eigenvalues=w, vectors=np.ascontiguousarray(v), z=z)
    n_even, r = parity.n_even, len(parity.s)
    even, odd = parity.order[:n_even], parity.order[n_even:]
    # The columns in the order null columns of q, +s pairs, -s pairs, null
    # columns of w, each written straight into its slot once sorted.
    w = np.concatenate([np.zeros(n_even - r), parity.s, -parity.s, np.zeros(h.dim - n_even - r)])
    columns = np.argsort(w, kind="stable")
    slot = np.empty(h.dim, dtype=int)
    slot[columns] = np.arange(h.dim)
    nulls_q, plus, minus, nulls_w = np.split(slot, [n_even - r, n_even, n_even + r])
    q_pair = parity.q[:, n_even - r :] * np.sqrt(0.5)
    w_pair = parity.w[:, :r] * np.sqrt(0.5)
    vectors = np.zeros((h.dim, h.dim))
    vectors[np.ix_(even, nulls_q)] = parity.q[:, : n_even - r]
    vectors[np.ix_(even, plus)] = vectors[np.ix_(even, minus)] = q_pair
    vectors[np.ix_(odd, plus)] = w_pair
    vectors[np.ix_(odd, minus)] = -w_pair
    vectors[np.ix_(odd, nulls_w)] = parity.w[:, r:]
    return ZEigensystem(eigenvalues=w[columns], vectors=vectors, z=z, parity=parity)


class SplitStepKernel:
    """The split step D V P(E) V^T D on a (dim, M) block of states.

    D = exp(-i H0 dt/2) and P(E) = exp(-i E w dt) are diagonal.  A negative
    dt gives the adjoint (inverse) step, which the backward sweeps use; see
    `adjoint`.  Blocks are complex (dim, M) arrays, one state per column.
    A sweep takes its `stepper` once and then calls it at every step, which
    writes through the stepper's scratch and allocates nothing, with the
    phases P(E_j) that `phase_table` forms for the field's samples.

    From `BLOCK_STEP_MIN_DIM` states up, when z has parity blocks, the
    kernel takes the parity-block step instead: `block` is True, and the
    argument `block` forces either step (the adjoint keeps it).  The rows
    are in `order`, parity order for the block step and basis order
    otherwise, and `position` is the row of each basis state;
    `to_kernel_order` and `to_basis_order` copy an array across.  Every
    method answers for either step kind, so a sweep runs one body on both.
    """

    def __init__(
        self, h: HamiltonianData, zsys: ZEigensystem, dt: float, block: bool | None = None
    ):
        self.h = h
        self.zsys = zsys
        self.dt = dt
        parity = zsys.parity
        if block is None:
            block = parity is not None and len(parity.s) > 0 and h.dim >= BLOCK_STEP_MIN_DIM
        if block and (parity is None or len(parity.s) == 0):
            raise InvalidSpecError("the block step needs a z that couples even l to odd l only")
        self.block = block
        self.parity = parity if block else None
        self.order = parity.order if block else np.arange(h.dim)
        # The inverse permutation by a scatter: an argsort of ints would map
        # in numpy's integer sort code, 0.1 MB of RSS on a dense-step run.
        self.position = np.empty_like(self.order)
        self.position[self.order] = np.arange(h.dim)
        self.half = np.exp(-0.5j * dt * h.energies[self.order])[:, None]
        if not block:
            self.exponent = -1j * dt * zsys.eigenvalues[:, None]
            self.v, self.vt = zsys.vectors, zsys.vectors.T
            #: z as (matrix, operand rows, product rows) products.
            self.z_products = ((zsys.z, slice(None), slice(None)),)
            return
        # The angle of each pair per unit field, signed so that its sine is
        # the imaginary part of -i sin(E dt s).
        self.exponent = -dt * parity.s
        n_even, r = parity.n_even, len(parity.s)
        #: The even and the odd rows of the pairs, both in pair order.
        self.pairs = (slice(n_even - r, n_even), slice(n_even, n_even + r))
        even, odd = slice(None, n_even), slice(n_even, None)
        self.z_products = ((parity.b, odd, even), (parity.b.T, even, odd))

    def adjoint(self) -> "SplitStepKernel":
        return SplitStepKernel(self.h, self.zsys, -self.dt, self.block)

    def to_kernel_order(self, array: np.ndarray, axis: int = 0) -> np.ndarray:
        """A copy of `array`, indexed by basis state along `axis`, in the kernel's row order."""
        return np.take(array, self.order, axis=axis)

    def to_basis_order(self, array: np.ndarray, axis: int = 0) -> np.ndarray:
        """The inverse of `to_kernel_order`."""
        return np.take(array, self.position, axis=axis)

    def multiply_z(self, src: np.ndarray, dst: np.ndarray) -> None:
        """z src into dst, (dim, K) float64 arrays in the kernel's row order.

        The block step's z is [[0, B], [B^T, 0]]: two products of half the size.
        """
        for matrix, rows, into in self.z_products:
            np.dot(matrix, src[rows], out=dst[into])

    def phase_table(self, samples: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """P(E_j) = exp(-i E_j w dt) for every step of `samples`, as (n_steps, dim, 1) columns.

        Written into `out` when it is given (a chunk of `propagate`'s scratch,
        or the engine's table of the field it sweeps) by one call of
        `phase_writer`, so that a row is exactly 1 where E_j = 0 and has the
        same bits in a table of any slice of the grid or written on its own.
        The block step first sets the parts that do not depend on E.
        """
        if out is None:
            out = np.empty((len(samples) - 1, len(self.half), 1), dtype=complex)
        if self.block:
            out.fill(1.0)
            out[:, self.pairs[1]] = 0.0
        fields = samples[:-1].reshape(-1, *(1,) * self.exponent.ndim)
        self.phase_writer(out)(slice(None), fields)
        return out

    def phase_writer(self, table: np.ndarray) -> Callable[..., np.ndarray]:
        """`write(rows, fields)`: P(fields) into `rows` of `table`, the one place of its formula.

        Binds the table's views once.  `rows` is a step and `fields` its
        sample, or a slice of steps and their samples shaped to broadcast
        against the exponent; `write` returns those rows of `table`.  A
        dense row is one product and one exp in place.  A block row holds
        cos(E dt s_k) in the even row of pair k, -i sin(E dt s_k) in its odd
        row and 1 in every null row: the product goes into the cos slots as
        the angle, then its sin and its cos are taken in place; the other
        parts are what `phase_table` set.  A zero sample gives the identity.
        """
        multiply, exp, sin, cos, exponent = np.multiply, np.exp, np.sin, np.cos, self.exponent
        if not self.block:

            def write(rows, fields):
                phase = table[rows]
                multiply(fields, exponent, phase)
                exp(phase, phase)
                return phase

            return write

        parts = table.view(np.float64)
        even, odd = self.pairs
        angles, sines = parts[:, even, 0], parts[:, odd, 1]

        def write(rows, fields):
            angle = angles[rows]
            multiply(fields, exponent, angle)
            sin(angle, sines[rows])
            cos(angle, angle)
            return table[rows]

        return write

    def cross_overlaps(self, blocks: np.ndarray, spare: np.ndarray) -> Callable[..., np.ndarray]:
        """`overlaps(deltas, coeffs)`: <coeffs_j| P_j blocks_j> for the first k of `blocks`.

        `blocks` is an (m, dim, M) store of the steps' c_j, which `overlaps`
        overwrites, `deltas` a (k, dim, 1) stack of phase rows or of their
        differences, applied as the step applies its phase, and `coeffs` the
        (k, dim, M) left vectors.  Each overlap is reduced over one step's
        (dim x M) row by `np.vecdot`: once for the dense step, four times for
        the block step, whose P maps pair (x, y) to (a x + b y, b x + a y),
        a = cos and b = -i sin.  Its products go into the (m, r, M) head of
        the flat `spare` when that is long enough (an array of their own
        otherwise), or into `blocks` once its x or y is no longer needed.
        """
        multiply, vecdot = np.multiply, np.vecdot
        if not self.block:

            def overlaps(deltas, coeffs):
                k = len(deltas)
                stored = blocks[:k]
                multiply(deltas, stored, stored)
                return vecdot(coeffs.reshape(k, -1), stored.reshape(k, -1))

            return overlaps

        even, odd = self.pairs
        size = len(blocks) * len(self.exponent) * blocks.shape[2]
        products = spare[:size] if len(spare) >= size else np.empty(size, dtype=complex)
        products = products.reshape(len(blocks), len(self.exponent), -1)

        def overlaps(deltas, coeffs):
            k = len(deltas)
            cos, msin = deltas[:, even], deltas[:, odd]
            x, y = blocks[:k, even], blocks[:k, odd]
            left_x, left_y = (coeffs[:, rows].reshape(k, -1) for rows in (even, odd))
            t = products[:k]
            multiply(msin, x, t)
            result = vecdot(left_y, t.reshape(k, -1))
            multiply(msin, y, t)
            result += vecdot(left_x, t.reshape(k, -1))
            multiply(cos, x, x)
            result += vecdot(left_x, x.reshape(k, -1))
            multiply(cos, y, y)
            result += vecdot(left_y, y.reshape(k, -1))
            return result

        return overlaps

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

        The block step forms c with two half-size products, q^T on the even
        rows and w^T on the odd ones, always into its own c, which it then
        copies through `cf` when that is the view of another block.  It rotates
        the pairs of its own c into b with three multiplies and two adds:
        P c gives the null rows, cos c_e and msin c_o, and each pair's cross
        terms are added to them.  It then goes back with q and w.  It reads
        no `c` of the caller.  A full-width phase is sliced into its even and
        odd rows; a (dim, 1) column of an M > 1 block is first copied to full
        width, so that no product broadcasts a column row by row.
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
        multiply, dot = np.multiply, np.dot
        if not self.block:
            v, vt = self.v, self.vt

            def step(src, dst, phase, c, cf):
                multiply(half, src, x)
                if cf is not None:
                    dot(vt, xf, cf)
                if phase is not None:
                    multiply(phase, c, b)
                    dot(v, bf, xf)
                multiply(half, x, dst)

            return step, (x, b, own_c, own_cf)

        add, copyto = np.add, np.copyto
        q, qt, w, wt = self.parity.q, self.parity.q.T, self.parity.w, self.parity.w.T
        n_even = self.parity.n_even
        even, odd = self.pairs
        x_even, x_odd, b_even, b_odd = xf[:n_even], xf[n_even:], bf[:n_even], bf[n_even:]
        c_even, c_odd = own_cf[:n_even], own_cf[n_even:]
        b_pe, b_po, c_pe, c_po = b[even], b[odd], own_c[even], own_c[odd]
        t = np.empty(b_po.shape, dtype=complex)
        # A (dim, 1) phase column of a wider block is copied to full width
        # once per step, so that the three products run element by element.
        width, wide = block.shape[1], np.empty(block.shape, dtype=complex)
        wide_pe, wide_po = wide[even], wide[odd]

        def step(src, dst, phase, c, cf):
            multiply(half, src, x)
            if cf is not None:
                dot(qt, x_even, c_even)
                dot(wt, x_odd, c_odd)
                if cf is not own_cf:
                    copyto(cf, own_cf)
            if phase is not None:
                # b = [c_null; cos c_e + msin c_o; msin c_e + cos c_o; c_null].
                if phase.shape[1] == width:
                    phase_e, phase_o = phase[even], phase[odd]
                else:
                    copyto(wide, phase)
                    phase, phase_e, phase_o = wide, wide_pe, wide_po
                multiply(phase, own_c, b)
                multiply(phase_e, c_po, t)
                add(b_pe, b_po, b_pe)
                multiply(phase_o, c_pe, b_po)
                add(b_po, t, b_po)
                dot(q, b_even, x_even)
                dot(w, b_odd, x_odd)
            multiply(half, x, dst)

        return step, (x, b, own_c, own_cf)


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
    """Propagate psi0 across the whole pulse grid: the one fixed-field forward loop.

    `psi0.amplitudes` is one state of shape (dim,) or a (dim, M) block of M
    normalized states, which advance together; the returned wave packets
    have the same shape.  The loop takes the kernel's `stepper` once and
    the field's phases from `phase_table`, `CHUNK_STEPS` rows at a time,
    into one (CHUNK_STEPS, dim, 1) scratch; a step whose sample is exactly
    zero stays diagonal.  `record` is the sampling stride: 1 stores every
    step, k every k-th step, None only the final state.  The initial state
    and the final state are always part of a recorded trajectory.
    `absorber` is an optional (labels, strength) pair: after every step the
    amplitudes on those states are damped by (1 - strength), strength in
    [0, 1], so the norm never grows.  It breaks unitarity and is meant for
    forward-only diagnostics, not for optimization sweeps.  A field whose
    largest phase |E| |dt| max|w| overflows is rejected before any is formed.
    """
    if np.any(np.abs(np.linalg.norm(psi0.amplitudes, axis=0) - 1.0) > 1e-8):
        raise InvalidSpecError("initial wave packet must be normalized")
    e_max, w_max = (float(np.max(np.abs(a))) for a in (pulse.samples, zsys.eigenvalues))
    if not math.isfinite(e_max * abs(pulse.dt) * w_max):
        raise InvalidSpecError(f"the field's phases overflow: |E| dt max|w| with |E| = {e_max!r}")
    if record is not None and record < 1:
        raise InvalidSpecError("record stride must be a positive integer or None")

    kernel = SplitStepKernel(h, zsys, pulse.dt)
    mask = None
    if absorber is not None:
        labels, strength = absorber
        if not 0.0 <= strength <= 1.0:
            raise InvalidSpecError(f"absorber strength must be in [0, 1], got {strength}")
        mask = np.ones((h.dim, 1))
        for label in labels:
            mask[h.index(label)] = 1.0 - strength
        mask = kernel.to_kernel_order(mask)

    shape = psi0.amplitudes.shape
    block = np.array(kernel.to_kernel_order(psi0.amplitudes), dtype=complex, order="C")
    block = block.reshape(h.dim, -1)

    def amplitudes():
        return kernel.to_basis_order(block).reshape(shape)

    step, (_, _, c, cf) = kernel.stepper(block)
    phases = np.empty((CHUNK_STEPS, h.dim, 1), dtype=complex)
    fields = pulse.samples[:-1].tolist()
    t = pulse.t0
    trajectory: list[WavePacket] = []
    if record is not None:
        trajectory.append(WavePacket(amplitudes=amplitudes(), time=t))

    for start in range(0, pulse.n_steps, CHUNK_STEPS):
        stop = min(start + CHUNK_STEPS, pulse.n_steps)
        kernel.phase_table(pulse.samples[start : stop + 1], out=phases[: stop - start])
        for j in range(start, stop):
            if fields[j] != 0.0:
                step(block, block, phases[j - start], c, cf)
            else:
                step(block, block, None, None, None)
            if mask is not None:
                np.multiply(block, mask, out=block)
            t += pulse.dt
            if record is not None and ((j + 1) % record == 0 or j + 1 == pulse.n_steps):
                trajectory.append(WavePacket(amplitudes=amplitudes(), time=t))

    final = WavePacket(amplitudes=amplitudes(), time=t)
    if record is None:
        trajectory = [final]
    return trajectory, final
