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
complex product and no cast.

At these sizes a step costs the fixed price of each numpy call more than
its flops, so the step makes as few passes as it can.  Its split step is
D V P(E) V^T D, with D = exp(-i H0 dt/2), and the closing D of one step
meets the opening D of the next (Strang, SIAM J. Numer. Anal. 5, 506
(1968)).  So every sweep carries D-shifted states, x = D psi forward and
mu = D* lam backward (the adjoint kernel's D is D*), and converts once at
each boundary (`SplitStepKernel.shift` and `unshift`).  A step is then
D^2 V P V^T x: four calls, the two products V^T x and V (P c), taken with
`np.dot`, which hands the contiguous float64 views straight to BLAS, and
the two multiplies by P and by D^2 = exp(-i H0 dt).  A step whose field
sample is exactly zero is the one multiply D^2 x, so exact zeros stay
exact.  A sweep takes its step once, before its first step
(`SplitStepKernel.stepper`): that checks the block's shape, allocates the
sweep's (dim, M) scratch blocks and their float64 views, and returns a
callable that holds them, D^2, V and V^T as locals.  Each step is then
only its ufunc and `np.dot` calls, with positional outputs, writing into
that scratch or into a slot of the caller's arrays; it makes no
temporaries and takes no views.  Each P_j of a fixed field is a row of
`SplitStepKernel.phase_table`.  The phase P_j may be a (dim, 1) column or
a contiguous (dim, M) block; the costate sweep passes the block, which
multiplies element by element instead of row by row.  The optimization
engine stores, per iteration, only the final state block, two step-major
costate arrays of n_steps blocks each (z D lam_j and V^T D* lam_{j+1}) and
one (n_steps, dim, 1) table of the swept field's phases P_j, which it
forms once per field (see `control`), never whole forward trajectories.

The parity-block step.  The dipole rule |dl| = 1, which every
`HamiltonianData` obeys, makes z bipartite in l parity: in parity order,
even l first, z = [[0, B], [B^T, 0]].  `precompute_z_eigensystem` builds V
from the SVD B = q diag(s) w^T that the basis carries, which has the same
bits under any BLAS thread count, and the kernel of a basis of
`BLOCK_STEP_MIN_DIM` states or more holds its blocks in parity order and
never forms V.  With the pair columns of q and w scaled by
sqrt(1/2), [q^T x_even; w^T x_odd] is two products of half the size, and
the sum and the difference of singular pair k's two rows are its +s_k and
-s_k eigen-coefficients.  So the block step, like the dense one, keeps
c = V^T D psi in V's eigenbasis, and its phase P(E) is the same diagonal
(dim, 1) column exp(-i E dt w).  It needs a singular pair for every odd
row, n_even >= n_odd, which every quantum-defect basis of whole l shells
has: then the odd product lands in an (r, M) pair scratch and the pair
sums and differences go straight into c, one `subtract` and one `add`
each way, and a field step inside a sweep is 11 calls.  The crossover
comes from timing one optimization iteration of each step, with one
member and with four: the block step took 1.2-1.5x the dense step's time
at 55 states, 0.88-1.00x at 154, 0.84-0.96x at 165, 0.77-0.88x at 187 and
0.34-0.64x at 357.  With one member the dense step is still as fast up to
154 states, so smaller bases, and any basis with more odd-l states than
even-l ones, keep the dense step.  Both steps share the one eigensystem.

The step kind lives in this module alone: the step, its row order and
z (`multiply_z`) are kernel methods that answer for either kind, and the
phase rows (`phase_writer`, which `phase_table` runs too) have one formula
for both, since both keep the same eigenbasis: P(E) = exp(E exponent)
with exponent the (dim, 1) column -i dt w, so dP/dE = exponent P.  The
sweeps in `control` run one body for both kinds.  States cross into the
kernel's order once, at `propagate`'s boundary and the engine's.

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

from .atomic import HamiltonianData, StateLabel, parity_rows
from .errors import InvalidSpecError

#: Steps per block of phases that a sweep forms or copies at a time.
CHUNK_STEPS = 64

#: Smallest basis that takes the parity-block step, when B has a pair for every odd row.
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


def undispatched(function):
    """The C function behind a numpy function such as `np.dot`, without its
    Python-level `__array_function__` dispatcher: its `_implementation`,
    a private attribute, or `function` itself where numpy has none."""
    return getattr(function, "_implementation", function)


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
    n_o odd-l ones, each in basis order, and B = z[even][:, odd].  `q`
    (n_e, n_e) and `w` (n_o, n_o) are the SVD's factors, with
    B^T q_k = s_k w_k for the r = len(s) singular pairs k: q_k is column
    n_e - r + k of q and w_k column k of w.  These pair columns are scaled
    by sqrt(1/2), so that (q_k, +w_k) and (q_k, -w_k) are the unit
    eigenvectors of z for +s_k and -s_k; the other columns, of unit norm,
    span the null spaces of B^T and B.  A block of coefficients
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

    @property
    def eigenvalues(self) -> np.ndarray:
        """z's eigenvalue of each coefficient row once each pair's two rows
        are mapped to their sum and difference: +s_k in pair k's even row,
        -s_k in its odd row and 0 in the null rows."""
        n_even, r = self.n_even, len(self.s)
        return np.concatenate(
            [np.zeros(n_even - r), self.s, -self.s, np.zeros(len(self.order) - n_even - r)]
        )


@dataclass(frozen=True)
class ZEigensystem:
    """Cached spectral decomposition z = V diag(w) V^T (V orthogonal).

    `z` is the decomposed matrix itself.  All three matrices are real
    float64 arrays; the kernel applies them to the float64 views of
    complex blocks.  `parity` holds the parity blocks that V was built
    from.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    z: np.ndarray
    parity: ParityBlocks

    def reconstruction_error(self) -> float:
        z = (self.vectors * self.eigenvalues) @ self.vectors.T
        return float(np.max(np.abs(z - self.z)))


def precompute_z_eigensystem(h: HamiltonianData) -> ZEigensystem:
    """Assemble z's eigensystem once, from the SVD that the basis carries;
    reused by every step of every sweep.

    Every `HamiltonianData` obeys the dipole rule, so its z is bipartite in
    l parity and `h.parity_svd` is the SVD of its block B (see
    `ParityBlocks`): pair k gives the eigenvalues +s_k and -s_k with the
    eigenvectors (q_k, +w_k) and (q_k, -w_k), and each null column of q or
    w an eigenvector of eigenvalue exactly 0.  The SVD has the same bits
    under any BLAS thread count, where `eigh` of the whole z does not.
    This calls no LAPACK routine.
    """
    z = np.ascontiguousarray(h.z_matrix, dtype=float)
    even, odd = parity_rows(h.labels)
    u, s, wt = h.parity_svd
    r = len(s)
    q = np.concatenate([u[:, r:], u[:, :r] * np.sqrt(0.5)], axis=1)
    w = np.concatenate([wt[:r].T * np.sqrt(0.5), wt[r:].T], axis=1)
    parity = ParityBlocks(np.concatenate([even, odd]), z[np.ix_(even, odd)], q, w, s)
    n_even = parity.n_even
    # V in parity order, its columns in the order of `parity.eigenvalues`:
    # [[q, q's pair columns, 0], [0, w's pair columns, -w's pair columns, w's nulls]].
    v = np.zeros((h.dim, h.dim))
    v[:n_even, :n_even] = parity.q
    v[:n_even, n_even : n_even + r] = parity.q[:, n_even - r :]
    v[n_even:, n_even - r : n_even] = parity.w[:, :r]
    v[n_even:, n_even:] = parity.w
    v[n_even:, n_even : n_even + r] *= -1.0
    w = parity.eigenvalues
    columns = np.argsort(w, kind="stable")
    vectors = np.empty_like(v)
    vectors[parity.order] = v[:, columns]
    return ZEigensystem(eigenvalues=w[columns], vectors=vectors, z=z, parity=parity)


class SplitStepKernel:
    """The split step D V P(E) V^T D on a (dim, M) block of states.

    D = exp(-i H0 dt/2) (`half`) and P(E) = exp(E exponent) are diagonal:
    `exponent` is the (dim, 1) column -i dt w of z's eigenvalues w in the
    kernel's row order, so that dP/dE = exponent P.  A negative dt gives
    the adjoint (inverse) step, which the backward sweeps use; see
    `adjoint`.  Blocks are complex (dim, M) arrays, one state per column.
    A sweep shifts its block once (`shift`), takes its `stepper` once and
    then calls it at every step, which writes through the stepper's scratch
    and allocates nothing, with the phases P(E_j) that `phase_table` forms
    for the field's samples; the step on x = D psi is D^2 V P(E) V^T x,
    with the free step D^2 = exp(-i H0 dt) (`free`).

    A basis of `BLOCK_STEP_MIN_DIM` states or more whose block B has a
    singular pair for every odd-l state takes the parity-block step
    instead, and `block` is True; `adjoint` works its kind out again the
    same way.  The rows are in `order`, parity order for the block step
    and basis order otherwise, and `position` is the row of each basis
    state; `to_kernel_order` and `to_basis_order` copy an array across.
    Both steps keep the coefficients c = V^T D psi in V's eigenbasis, with
    V's columns in the order of `exponent`: sorted for the dense step, and
    the rows of `ParityBlocks.eigenvalues` for the block step, whose
    `pairs` are the slices of the +s_k and of the -s_k rows.  Every method
    answers for either step kind, so a sweep runs one body on both.
    """

    def __init__(self, h: HamiltonianData, zsys: ZEigensystem, dt: float):
        self.h = h
        self.zsys = zsys
        self.dt = dt
        parity = zsys.parity
        # The block step needs a singular pair for every odd row: n_even >= n_odd.
        fits = 0 < len(parity.s) == h.dim - parity.n_even
        self.block = block = fits and h.dim >= BLOCK_STEP_MIN_DIM
        self.order = parity.order if block else np.arange(h.dim)
        # The inverse permutation by a scatter: an argsort of ints would map
        # in numpy's integer sort code, 0.1 MB of RSS on a dense-step run.
        self.position = np.empty_like(self.order)
        self.position[self.order] = np.arange(h.dim)
        energies = h.energies[self.order]
        self.half = np.exp(-0.5j * dt * energies)[:, None]
        self.free = np.exp(-1j * dt * energies)[:, None]
        eigenvalues = parity.eigenvalues if block else zsys.eigenvalues
        self.exponent = -1j * dt * eigenvalues[:, None]
        if not block:
            self.v, self.vt = zsys.vectors, zsys.vectors.T
            #: z as (matrix, operand rows, product rows) products.
            self.z_products = ((zsys.z, slice(None), slice(None)),)
            return
        n_even, r = parity.n_even, len(parity.s)
        #: The rows of the +s_k and of the -s_k coefficients, both in pair order.
        self.pairs = (slice(n_even - r, n_even), slice(n_even, n_even + r))
        even, odd = slice(None, n_even), slice(n_even, None)
        self.z_products = ((parity.b, odd, even), (parity.b.T, even, odd))

    def adjoint(self) -> "SplitStepKernel":
        return SplitStepKernel(self.h, self.zsys, -self.dt)

    def to_kernel_order(self, array: np.ndarray, axis: int = 0) -> np.ndarray:
        """A copy of `array`, indexed by basis state along `axis`, in the kernel's row order."""
        return np.take(array, self.order, axis=axis)

    def to_basis_order(self, array: np.ndarray, axis: int = 0) -> np.ndarray:
        """The inverse of `to_kernel_order`."""
        return np.take(array, self.position, axis=axis)

    def shift(self, block: np.ndarray) -> np.ndarray:
        """D block as a new C-contiguous complex array: a state as the steps carry it.

        A sweep converts its states once at each boundary.  The adjoint
        kernel's D is D*, so its costates are carried as mu = D* lam.
        """
        return np.multiply(self.half, block, out=np.empty(block.shape, dtype=complex))

    def unshift(self, block: np.ndarray) -> np.ndarray:
        """D* block, the inverse of `shift`, as a new C-contiguous complex array."""
        return np.multiply(self.half.conj(), block, out=np.empty(block.shape, dtype=complex))

    def multiply_z(self, src: np.ndarray, dst: np.ndarray) -> None:
        """z src into dst, (dim, K) float64 arrays in the kernel's row order.

        The block step's z is [[0, B], [B^T, 0]]: two products of half the size.
        """
        for matrix, rows, into in self.z_products:
            np.dot(matrix, src[rows], out=dst[into])

    def phase_table(self, samples: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """P(E_j) = exp(E_j exponent) for every step of `samples`, as (n_steps, dim, 1) columns.

        Written into `out` when it is given (a chunk of `propagate`'s scratch,
        or the engine's table of the field it sweeps) by `phase_writer`, so
        that a row is exactly 1 where E_j = 0 and has the same bits in a
        table of any slice of the grid or written on its own.  `out` must
        hold 1 in the rows where w = 0, which the block step does not write:
        every table is allocated with ones, as this one is.  The writer takes
        `CHUNK_STEPS` rows per call: numpy iterates over the strided or
        broadcast rows of a call through buffers of up to 128 KB per operand,
        which a chunk keeps to its own size.
        """
        if out is None:
            out = np.ones((len(samples) - 1, len(self.half), 1), dtype=complex)
        write, fields = self.phase_writer(out), samples[:-1, None]
        for start in range(0, len(out), CHUNK_STEPS):
            rows = slice(start, start + CHUNK_STEPS)
            write(rows, fields[rows])
        return out

    def phase_writer(self, table: np.ndarray) -> Callable[..., np.ndarray]:
        """`write(rows, fields)`: P(fields) into `rows` of `table`, the one place of its formula.

        Binds the table's views once.  `rows` is a step and `fields` its
        sample, or a slice of steps and an (n, 1) column of their samples;
        `write` returns those rows of `table`.  A row is exp(E exponent): one
        product and one exp in place, on 1-D (dim,) slot views for the dense
        step.  The block step forms its +s_k rows so, on (r,) views, and
        writes their conjugates, which are the -s_k rows bit for bit, into
        the odd pair rows; its null rows keep the 1 that the table was
        allocated with.  A zero sample gives the identity.
        """
        multiply, exp, conjugate = np.multiply, np.exp, np.conjugate
        slots = table[:, :, 0]
        if self.block:
            plus, minus = self.pairs
            formed, exponent, mirrored = slots[:, plus], self.exponent[plus, 0], slots[:, minus]
        else:
            formed, exponent, mirrored = slots, self.exponent[:, 0], None

        def write(rows, fields):
            phase = formed[rows]
            multiply(fields, exponent, phase)
            exp(phase, phase)
            if mirrored is not None:
                conjugate(phase, mirrored[rows])
            return table[rows]

        return write

    def stepper(self, block: np.ndarray) -> tuple[Callable[..., None], tuple[np.ndarray, ...]]:
        """The split step of one sweep of `block`, after checking its shape.

        Returns `step` and its scratch `(x, b, c, cf)`: complex (dim, M)
        blocks, and cf, the float64 view of c, a (dim, 2M) real array whose
        column pairs hold each column's real and imaginary parts, so that
        one real matrix product acts on both.  They are allocated here, once
        per sweep, with the free step D^2 = exp(-i H0 dt) broadcast to a
        contiguous (dim, M) array so that it multiplies a block element by
        element rather than row by row.

        The step acts on D-shifted states, x = D psi (see `shift`): the
        closing D of one split step and the opening D of the next are one
        multiply by D^2.  `step(src, src_f, dst, phase, c, cf)` is
        D^2 (V (P (V^T src))) into `dst`, which may be `src` itself; `src` is
        C-contiguous and `src_f` is its float64 view.  The coefficients
        c = V^T src, which are V^T D psi, go into the C-contiguous complex
        (dim, M) block `c` through its float64 view `cf`: the step's own
        scratch or a slot of the caller's arrays.  `phase` is P(E), a (dim, 1) column or a
        full-width (dim, M) block, and P c is left in b.  For E = 0 `phase`
        is None and the step is the diagonal D^2 src, so amplitudes that are
        exactly zero stay zero; it then forms c only when `cf` is not None.
        `src` is read in full before `dst` is written, so a sweep can step
        from one slot of a buffer into another.  The callable holds every
        operand as a local and passes every output positionally; it makes
        no temporary array, and `np.dot` hands the contiguous float64 views
        straight to BLAS.  It calls the C functions behind `np.dot` and
        `np.copyto` (their `_implementation`), which skips the Python-level
        `__array_function__` dispatcher that each call would otherwise run;
        a numpy without that attribute costs only the dispatcher's time.

        The block step forms c with two half-size products: q^T on the even
        rows, into its own c, and w^T on the odd ones, into an (r, M) pair
        scratch t.  Since every odd row is a pair row, the difference and
        then the sum of each pair's rows (e, o) land straight in its -s_k
        and +s_k rows of c, and c is copied through `cf` when that is the
        view of another block.  After P c the difference goes back into t,
        which w multiplies, and the sum into the +s_k rows, which q
        multiplies with the even null rows.  It reads no `c` of the caller.
        """
        # A (dim,) state or a (1, M) block would broadcast against the
        # (dim, 1) free step into a wrong-shaped block instead of failing.
        if block.ndim != 2 or block.shape[0] != len(self.half):
            raise InvalidSpecError(
                f"expected a ({len(self.half)}, M) block of states, got shape {block.shape}"
            )
        free = np.ascontiguousarray(np.broadcast_to(self.free, block.shape))
        x, b, own_c = (np.empty(block.shape, dtype=complex) for _ in range(3))
        xf, bf, own_cf = (a.view(np.float64) for a in (x, b, own_c))
        # `np.dot` and `np.copyto` run a Python-level dispatcher on every
        # call; a step calls the C functions behind them.
        multiply, dot = np.multiply, undispatched(np.dot)
        if not self.block:
            v, vt = self.v, self.vt

            def step(src, src_f, dst, phase, c, cf):
                if cf is not None:
                    dot(vt, src_f, cf)
                if phase is not None:
                    multiply(phase, c, b)
                    dot(v, bf, xf)
                    src = x
                multiply(free, src, dst)

            return step, (x, b, own_c, own_cf)

        add, subtract, copyto = np.add, np.subtract, undispatched(np.copyto)
        parity = self.zsys.parity
        q, qt, w, wt = parity.q, parity.q.T, parity.w, parity.w.T
        n_even = parity.n_even
        plus, minus = self.pairs
        x_even, x_odd, b_even, c_even = xf[:n_even], xf[n_even:], bf[:n_even], own_cf[:n_even]
        c_plus, c_minus, b_plus, b_minus = own_c[plus], own_c[minus], b[plus], b[minus]
        t = np.empty(c_minus.shape, dtype=complex)
        tf = t.view(np.float64)

        def step(src, src_f, dst, phase, c, cf):
            if cf is not None:
                dot(qt, src_f[:n_even], c_even)
                dot(wt, src_f[n_even:], tf)
                # Each pair's rows (e, o), o in t, to (e + o, e - o).
                subtract(c_plus, t, c_minus)
                add(c_plus, t, c_plus)
                if cf is not own_cf:
                    copyto(cf, own_cf)
            if phase is not None:
                multiply(phase, own_c, b)
                subtract(b_plus, b_minus, t)
                add(b_plus, b_minus, b_plus)
                dot(q, b_even, x_even)
                dot(w, tf, x_odd)
                src = x
            multiply(free, src, dst)

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
    zero stays diagonal.  It steps x = D psi and shifts back each frame it
    records after the first, which is psi0 itself.  `record` is the sampling stride: 1 stores every
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
    # x = D psi, the state the steps carry; the absorber's mask commutes with D.
    x = kernel.shift(kernel.to_kernel_order(psi0.amplitudes).reshape(h.dim, -1))
    x_f = x.view(np.float64)

    def amplitudes():
        return kernel.to_basis_order(kernel.unshift(x)).reshape(shape)

    step, (_, _, c, cf) = kernel.stepper(x)
    phases = np.ones((CHUNK_STEPS, h.dim, 1), dtype=complex)
    fields = pulse.samples[:-1].tolist()
    t = pulse.t0
    trajectory: list[WavePacket] = []
    if record is not None:
        trajectory.append(WavePacket(amplitudes=np.array(psi0.amplitudes, dtype=complex), time=t))

    for start in range(0, pulse.n_steps, CHUNK_STEPS):
        stop = min(start + CHUNK_STEPS, pulse.n_steps)
        kernel.phase_table(pulse.samples[start : stop + 1], out=phases[: stop - start])
        for j in range(start, stop):
            if fields[j] != 0.0:
                step(x, x_f, x, phases[j - start], c, cf)
            else:
                step(x, x_f, x, None, None, None)
            if mask is not None:
                np.multiply(x, mask, out=x)
            t += pulse.dt
            if record is not None and ((j + 1) % record == 0 or j + 1 == pulse.n_steps):
                trajectory.append(WavePacket(amplitudes=amplitudes(), time=t))

    final = WavePacket(amplitudes=amplitudes(), time=t)
    if record is None:
        trajectory = [final]
    return trajectory, final
