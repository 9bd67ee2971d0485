"""Directionally split second-order finite-difference operators on the unit box.

The semidiscrete Jacobian J = J_1 + ... + J_d is a sum of one-direction
operators, each acting tridiagonally along its own grid axis (Kronecker
structure, x fastest).  Everything the integrator needs is here: applying a
direction or the full sum, and factoring and solving the shifted
one-direction systems (I - sigma*J_j).  The step's kernels (the J applies
and the product solve) write into the flat buffers they are given and
allocate no state-sized array: the integrator's ``Stepper`` owns them.

A product solve runs one of two kernels, chosen from the grid's sizes alone
(``_solve_block``).  Where a Thomas sweep would be mostly Python call
overhead, each direction is matrix products with the dense inverses of
line blocks that the factorization builds.  A short line is one block, and
one product with its inverse solves it.  A longer line is cut into blocks
of 8 to 24 points; a small reduced system in the values beside the block
boundaries decouples them (the SPIKE algorithm of Polizzi and Sameh), and
one batched product with the block inverse solves them.  Elsewhere (3-D
grids past N=65, 2-D lines of more than 1024 points) it is a batched
Thomas sweep, whose cost there is arithmetic rather than call overhead.

Work that passes over the state several times (the ufuncs of a J apply
and the Thomas scale-and-roll) runs over ``GridSpec.state_blocks``: blocks
of whole slowest-axis planes of about ``_STATE_BLOCK`` unknowns, so that
the passes after the first read a block from L2 rather than memory.  Each
entry sees the same operations in the same order, so results are bitwise
those of one block whatever the block size.  At 3-D N=96 (m = 857,375)
apply_full fell from about 10 to 6 ms and _add_full from 8 to 5 ms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import math
from typing import NamedTuple

import numpy as np


class FactorSolveError(RuntimeError):
    """Tridiagonal factorization hit a vanishing pivot."""


def check_count(name: str, value, least: int) -> None:
    """Raise ValueError unless value is an int or NumPy integer (not a bool)
    of at least ``least``: a size or a number of directions."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be a whole number >= {least}, got {name}={value!r}")


# Product solves use the whole-line inverse while one product, n*m
# multiply-adds per direction, stays within _DENSE_SOLVE_LIMIT and the
# inverse within 256 x 256: 2-D lines of up to 80 points, 3-D of up to 26.
# Min of 41 product solves, one BLAS thread, whole line / blocks of 24 ms:
# 2-D N=64 0.025 / 0.040, N=80 0.070 / 0.074, N=96 0.109 / 0.078; 3-D N=24
# 0.063 / 0.094 (blocks of 16), N=32 0.18 / 0.17.
_DENSE_SOLVE_LIMIT = 2**19

# Past that, lines are cut into blocks while max(m, n^2) stays within
# _BLOCK_SOLVE_LIMIT (lines of up to 1024 points) and a block of 8 points
# holds at most _BLOCK_ENTRIES right-hand-side entries (3-D N <= 65).  A
# block is 8, 16 or 24 points, whichever brings its L x (m/n) right-hand
# side nearest _BLOCK_ENTRIES: 24 on every 2-D grid, 16 at 3-D N=48 and 8
# at N=64.  Each unknown costs about L + 2 + 4(P-1)^2/n multiply-adds.
# Product solve time over Thomas time: 2-D 0.10 at N=96, 0.26 at N=384,
# 0.38 at N=768 and 0.40 at N=1024; 3-D 0.43 at N=48 and 0.59 at N=64
# (ROADMAP item 4 has the other lengths).  Blocks of 8 also measured
# 0.68-0.88 of Thomas at 3-D N=72-88, and tied with it at N=96 (cube3d);
# but whole amf2 steps at N=68-88 took 0.91-1.06 of Thomas, so the bound
# stays at 3-D N=65.
_BLOCK_SOLVE_LIMIT = 2**20
_BLOCK_ENTRIES = 2**15

# State blocks: this many unknowns rounded down to whole slowest-axis
# planes, at least one plane; a grid of at most this many unknowns is one
# block.  Min-of-15 times at 3-D N=96, one BLAS thread, unblocked -> 2^16
# (other sizes): apply_full 9.6-10.4 -> 6.0-6.2 ms (2^15 5.5-6.9, 2^17
# 7.2-7.9, 2^18 10.0); one direction's scale-and-roll 1.5 -> 1.1 ms (2-4
# planes 1.0-1.1, 14 planes 1.1).  A 2-D N=384 apply_full: 1.04-1.13 ->
# 0.55-0.69 ms.
_STATE_BLOCK = 2**16


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on the unit interval/square/cube.

    dim : number of space dimensions (1 holds the samples of R_q, and tests)
    n_cells : cells per axis, N; mesh width h = 1/N; unknowns live at the
        N-1 interior points per axis.

    Both are whole numbers, an int or a NumPy integer; a bool or a float
    raises ValueError.

    Flat state vectors of length m = (N-1)**dim are ordered x fastest:
    index = (i-1) + (j-1)*(N-1) + (k-1)*(N-1)**2 for the point (i*h, j*h, k*h).
    """

    dim: int
    n_cells: int

    def __post_init__(self):
        check_count("dim", self.dim, 1)
        if self.dim > 3:
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        check_count("n_cells", self.n_cells, 2)

    @property
    def h(self) -> float:
        return 1.0 / self.n_cells

    @property
    def n_interior(self) -> int:
        return self.n_cells - 1

    @property
    def m(self) -> int:
        return self.n_interior**self.dim

    @property
    def shape(self) -> tuple[int, ...]:
        """Multi-index shape, slowest axis first (z, y, x)."""
        return (self.n_interior,) * self.dim

    def axis_of_direction(self, j: int) -> int:
        """Array axis of direction j (0 = x) in the ``shape`` ordering."""
        return self.dim - 1 - j

    @property
    def state_blocks(self) -> tuple[slice, ...]:
        """The state cut into blocks of ``_STATE_BLOCK`` unknowns rounded
        down to whole planes (at least one), as slices of the grid-shaped
        state's leading axis; a grid of at most that many unknowns, or a 1-D
        grid, is one block.

        A 1-D plane is one unknown, and NumPy scales a block of one complex
        unknown in its scalar loop, which rounds apart from its vector loop.
        Derived from the sizes on each access.
        """
        n = self.n_interior
        step = n if self.dim == 1 else max(1, _STATE_BLOCK // n ** (self.dim - 1))
        return tuple(slice(p, min(p + step, n)) for p in range(0, n, step))


@dataclass(frozen=True)
class DirectionStencil:
    """Constant 3-point stencil of one direction.

    sub, diag, sup : weights of the left neighbor, the point itself and the
        right neighbor; rows of the one-direction matrix are
        (sub, diag, sup) / 1 throughout (already divided by h^2).
    """

    sub: float
    diag: float
    sup: float


@dataclass(frozen=True)
class SplitOperator:
    """J = sum of one-direction tridiagonal operators on a GridSpec."""

    grid: GridSpec
    stencils: tuple[DirectionStencil, ...]

    def __post_init__(self):
        if len(self.stencils) != self.grid.dim:
            raise ValueError(
                f"got {len(self.stencils)} stencils for a {self.grid.dim}-D grid"
            )

    @property
    def dtype(self) -> np.dtype:
        """The dtype of its factors' pivots: float64, complex128 for complex stencils."""
        return np.result_type(float, *(st.diag for st in self.stencils))


def build_split_operator(
    grid: GridSpec,
    diffusion,
    advection=None,
    reaction: float = 0.0,
) -> SplitOperator:
    """Assemble the split operator for  div(D grad u) + a . grad u + kappa*u.

    diffusion : per-direction coefficients, all finite and > 0
    advection : per-direction finite coefficients (default all zero),
        discretized with central differences
    reaction : finite scalar kappa, shared equally across the d directions so
        that the one-direction pieces still sum to the full operator

    Direction j stencil: sub = (D_j - h*a_j/2)/h^2, sup = (D_j + h*a_j/2)/h^2,
    diag = (-2*D_j + h^2*kappa/d)/h^2.  Raises ValueError for a bad
    coefficient, and for finite ones that make a weight overflow.
    """
    d = grid.dim

    def per_direction(name, values, positive):
        values = [float(v) for v in np.atleast_1d(values)]
        if len(values) == 1:  # one value spreads to every direction
            values *= d
        if len(values) != d:
            raise ValueError(f"need {d} {name} coefficients, got {len(values)}")
        if not all(math.isfinite(v) and (v > 0.0 or not positive) for v in values):
            raise ValueError(f"{name} coefficients must be {'positive and ' * positive}"
                             f"finite, got {values}")
        return values

    diffusion = per_direction("diffusion", diffusion, True)
    advection = per_direction("advection", 0.0 if advection is None else advection, False)
    if not math.isfinite(reaction):
        raise ValueError(f"reaction coefficient must be finite, got {reaction}")
    h = grid.h
    share = float(reaction) / d
    stencils = []
    for dj, aj in zip(diffusion, advection):
        stencils.append(
            DirectionStencil(
                sub=(dj - 0.5 * h * aj) / h**2,
                diag=(-2.0 * dj) / h**2 + share,
                sup=(dj + 0.5 * h * aj) / h**2,
            )
        )
    if not all(math.isfinite(w) for st in stencils for w in (st.sub, st.diag, st.sup)):
        raise ValueError(f"diffusion coefficients {diffusion} with advection {advection} "
                         f"and reaction {reaction} give a non-finite stencil weight at h = {h:g}")
    return SplitOperator(grid=grid, stencils=tuple(stencils))


def apply_direction(
    op: SplitOperator, j: int, v: np.ndarray, out: np.ndarray, work: np.ndarray
) -> np.ndarray:
    """Write J_j v into out and return it.

    v, out, work : flat state vectors; out and work (scratch) take the
        result's dtype, and neither may share memory with v
    """
    return _apply(op, (j,), v, out, work)


def apply_full(
    op: SplitOperator, v: np.ndarray, out: np.ndarray, work: np.ndarray
) -> np.ndarray:
    """Write J v = (J_1 + ... + J_d) v into out and return it (v, out and
    work as in ``apply_direction``)."""
    return _apply(op, range(op.grid.dim), v, out, work)


def _add_full(op: SplitOperator, v: np.ndarray, out: np.ndarray, work: np.ndarray):
    """out += J v, the d diagonal terms one multiply by their sum: that
    rounds to about eps*|J|*|v|, so v should be an increment, not a state."""
    fold = sum(st.diag for st in op.stencils)
    return _apply(op, range(op.grid.dim), v, out, work, fold)


def _apply(op, directions, v, out, work, fold=None) -> np.ndarray:
    """Sum J_j v over the directions into out, or with fold given add
    fold*v and only the directions' neighbour terms to out.

    A neighbour term is one ufunc over the whole flat vector shifted by
    direction j's stride, the entries that wrapped across a line zeroed.
    Each diagonal term sits next to its own neighbour terms: with a
    symmetric stencil (diag = -2*sub) the additions that cancel a smooth
    state's large terms are exact, and only the products round.

    Every term of a block of ``state_blocks`` is added before the next
    block, in the same order per entry.  A block holds whole lines of every
    direction but d-1, whose neighbours are a plane away: its terms read v
    across the block's edges and stop only at the ends of the state.
    """
    n, m, last = op.grid.n_interior, op.grid.m, op.grid.dim - 1
    plane = n**last  # unknowns per slowest-axis plane
    for planes in op.grid.state_blocks:
        a, b = planes.start * plane, planes.stop * plane  # the block in the flat state
        vb, ob, wb = v[a:b], out[a:b], work[a:b]
        if fold is not None:
            np.multiply(vb, fold, out=wb)
            ob += wb
        for k, j in enumerate(directions):
            st = op.stencils[j]
            if fold is None:  # written by the first direction, added by the others
                np.multiply(vb, st.diag, out=wb if k else ob)
                if k:
                    ob += wb
            if j == last:  # the lower, then the upper neighbour terms, stopped at the state's ends
                lo, hi = max(a, plane), min(b, m - plane)
                for src, dst, coeff in ((slice(lo - plane, b - plane), slice(lo, b), st.sub),
                                        (slice(a + plane, hi + plane), slice(a, hi), st.sup)):
                    np.multiply(v[src], coeff, out=work[dst])
                    part = out[dst]
                    part += work[dst]
                continue
            shift = n**j
            lines = wb.reshape(-1, n, shift)  # (slower axes, direction j, faster axes)
            np.multiply(vb[:-shift], st.sub, out=wb[shift:])
            lines[:, 0] = 0.0  # first point of each line: no left neighbour
            ob += wb
            np.multiply(vb[shift:], st.sup, out=wb[:-shift])
            lines[:, -1] = 0.0  # last point of each line: no right neighbour
            ob += wb
    return out


@dataclass(frozen=True, eq=False)
class TridiagFactor:
    """Pivot-free LU data of  I - sigma*J_j  along one direction.

    With constant bands (lo, d0, up) and pivots p_i, the matrix is L U with
    L unit lower bidiagonal (multipliers lower[i-1] = lo / p_{i-1}) and U
    upper bidiagonal with diagonal p_i and super-diagonal up.  A solve runs
    the forward sweep  w_i = r_i - lower[i-1] w_{i-1},  the scaled back sweep
    u_i = w_i - upper[i] u_{i+1}  with  upper[i] = up / p_{i+1}  (u = p x),
    and one broadcast  x = u * inv_diag.  The multipliers are Python scalars
    because each enters one call per grid row.

    Where the product solve runs matrix products (``_solve_block``), the
    factor also carries the dense inverses of its line blocks, built from
    this factorization (``blocks``; a short line is one block).  Elsewhere
    blocks is None and solves run the sweeps.  Factors compare by identity.
    """

    sigma: float | complex
    lower: tuple  # lo / p_{i-1}, i = 1 .. n-1
    upper: tuple  # up / p_{i+1}, i = 0 .. n-2
    inv_diag: np.ndarray  # 1 / p_i
    blocks: LineBlocks | None = None  # block inverses, reduced system, or None

    @property
    def n(self) -> int:
        return self.inv_diag.shape[0]


class LineBlocks(NamedTuple):
    """A line of n points cut into P >= 1 blocks of L points, the last of r.

    The bands are constant, so every block's matrix is a leading principal
    block of I - sigma*J_j, whose LU data are the factor's first pivots and
    multipliers.  Block k (points kL .. kL+L-1) couples to the rest of the
    line only through the solution values x_{kL-1} and x_{kL+L}; with them
    moved to the right-hand side, each block is solved on its own.

    inv_t : transposed inverse of a full block, L x L
    last_t : transposed inverse of the last block, r x r
    ends : (2, L); the first and last rows of a full block's inverse
    reduced : (2(P-1), 2(P-1)); the inverse of the reduced system in the
        boundary values, its rows scaled by -lo and -up in turn.

    A line of P = 1 block (L = r = n) has inv_t and last_t both the
    transposed inverse of the whole line and a 0 x 0 reduced system.

    With y_k the solution of block k on its own right-hand side, and v_k,
    w_k the first and last columns of the block's inverse,
    x_k = y_k - lo*x_{kL-1}*v_k - up*x_{kL+L}*w_k.  The last entry of block
    k-1 and the first of block k at each boundary k = 1 .. P-1 then solve a
    system R u = t in those 2(P-1) values, u = (x_{L-1}, x_L, x_{2L-1},
    ..), whose right side t is the last entry of y_{k-1} and the first of
    y_k.  reduced @ t gives -lo*x_{kL-1} and -up*x_{kL}, the terms that move
    to the right-hand side of block k's first row and of block k-1's last
    row.  R is regular whenever the factor's pivots are.
    """

    inv_t: np.ndarray
    last_t: np.ndarray
    ends: np.ndarray
    reduced: np.ndarray


def _solve_block(grid: GridSpec) -> int | None:
    """The product solve's kernel on this grid, from its sizes alone: the
    points per block of the line inverses (n: the whole line is one block),
    or None for the Thomas sweep."""
    n = grid.n_interior
    lines = grid.m // n  # lines per direction
    if n * grid.m <= _DENSE_SOLVE_LIMIT and n <= 256:
        return n
    if max(grid.m, n * n) <= _BLOCK_SOLVE_LIMIT and 8 * lines <= _BLOCK_ENTRIES:
        # 8, 16 or 24 points: a block's right-hand side nearest _BLOCK_ENTRIES
        return min((8, 16, 24), key=lambda k: abs(k * lines - _BLOCK_ENTRIES))
    return None


def _factor_lu(op: SplitOperator, j: int, sigma: float) -> TridiagFactor:
    """The LU data of I - sigma*J_j, without a dense inverse."""
    st = op.stencils[j]
    n = op.grid.n_interior
    lo = -sigma * st.sub
    d0 = 1.0 - sigma * st.diag
    up = -sigma * st.sup
    scale = max(abs(lo), abs(d0), abs(up), 1.0)
    piv = [d0]
    for i in range(n):
        if abs(piv[i]) <= 1e-14 * scale:
            raise FactorSolveError(
                f"vanishing pivot at row {i} factoring direction {j} "
                f"with shift sigma={sigma!r}"
            )
        if i < n - 1:
            piv.append(d0 - lo * (up / piv[i]))
    dtype = np.result_type(type(d0), float)
    return TridiagFactor(
        sigma=sigma,
        lower=tuple(lo / p for p in piv[:-1]),
        upper=tuple(up / p for p in piv[1:]),
        inv_diag=1.0 / np.array(piv, dtype=dtype),
    )


def factor_direction(op: SplitOperator, j: int, sigma: float) -> TridiagFactor:
    """Factor I - sigma*J_j (a pure function: every call builds afresh).

    Where the product solve runs matrix products (``_solve_block``), the
    factor carries the inverses of blocks of that many points (one block
    when it is the whole line).  They come from sweeping identities with
    this factor, and a block line's reduced system from their end entries,
    after every pivot has passed the vanishing-pivot check.
    """
    length = _solve_block(op.grid)
    fac = _factor_lu(op, j, sigma)
    if length is None:
        return fac
    n = fac.n
    st = op.stencils[j]
    lo, up = -sigma * st.sub, -sigma * st.sup
    head = (n - 1) // length * length  # points in the P-1 full blocks
    last = _leading_inverse(fac, n - head)
    inv = _leading_inverse(fac, length) if head else last
    # unknowns x_{kL-1} (rows a) and x_{kL} (rows c) of boundaries k = 1 .. P-1
    a = np.arange(0, 2 * head // length, 2)
    c = a + 1
    red = np.eye(2 * len(a), dtype=inv.dtype)
    red[a[1:], a[:-1]] = lo * inv[-1, 0]
    red[a, c] = up * inv[-1, -1]
    red[c, a] = lo * inv[0, 0]
    red[c[-1:], a[-1:]] = lo * last[0, 0]
    red[c[:-1], c[1:]] = up * inv[0, -1]
    red = np.linalg.inv(red)
    red[a] *= -lo
    red[c] *= -up
    # batched products run 10-20% faster with C-ordered transposes
    blocks = LineBlocks(
        inv_t=inv.T.copy(), last_t=last.T.copy(), ends=inv[[0, -1]], reduced=red
    )
    return replace(fac, blocks=blocks)


def _leading_inverse(fac: TridiagFactor, size: int) -> np.ndarray:
    """Inverse of the leading size x size block of the factored matrix, by
    sweeping the identity with the factor's first pivots and multipliers."""
    lead = TridiagFactor(
        fac.sigma, fac.lower[: size - 1], fac.upper[: size - 1], fac.inv_diag[:size]
    )
    inv = np.eye(size, dtype=fac.inv_diag.dtype)
    _sweep(lead, inv, inv)
    inv *= _line_scale(lead, 2)
    return inv


def factor_pi(op: SplitOperator, sigma: float) -> tuple[TridiagFactor, ...]:
    """The d direction factors of  prod_j (I - sigma*J_j),  indexed by j."""
    return tuple(factor_direction(op, j, sigma) for j in range(op.grid.dim))


def _sweep(fac: TridiagFactor, rhs: np.ndarray, x: np.ndarray) -> None:
    """Forward and scaled back sweep along axis 0 of (n, ...) arrays.

    Leaves u = p * solution in x (the caller applies inv_diag); rhs may
    share memory with x.  Row views are built once, so each row costs two
    ufunc calls per sweep.
    """
    if x.ndim == 1:  # rows of a 1-D array would be scalars, not views
        rhs, x = rhs[:, None], x[:, None]
    mul, sub = np.multiply, np.subtract
    rows = list(x)
    tmp = np.empty_like(rows[0])
    prev = rows[0]
    np.copyto(prev, rhs[0])
    for r, w, lo in zip(list(rhs)[1:], rows[1:], fac.lower):
        mul(prev, lo, tmp)
        sub(r, tmp, w)
        prev = w
    for w, up in zip(rows[-2::-1], fac.upper[::-1]):
        mul(prev, up, tmp)
        sub(w, tmp, w)
        prev = w


def _line_scale(fac: TridiagFactor, ndim: int) -> np.ndarray:
    """inv_diag shaped to broadcast along axis 0 of an ndim-array."""
    return fac.inv_diag.reshape((fac.n,) + (1,) * (ndim - 1))


def solve_direction_factor(
    op: SplitOperator, j: int, sigma: float, rhs: np.ndarray
) -> np.ndarray:
    """Solve (I - sigma*J_j) x = rhs for a flat state vector rhs.

    A one-off Thomas sweep on every grid size; it builds no dense inverse.
    """
    fac = _factor_lu(op, j, sigma)
    grid = op.grid
    rhs = np.asarray(rhs).reshape(grid.shape)
    out = np.empty(grid.shape, dtype=np.result_type(rhs, fac.inv_diag))
    ax = grid.axis_of_direction(j)
    lines = np.moveaxis(out, ax, 0)
    _sweep(fac, np.moveaxis(rhs, ax, 0), lines)
    lines *= _line_scale(fac, grid.dim)
    return out.reshape(-1)


def solve_pi(
    op: SplitOperator,
    sigma: float,
    rhs: np.ndarray,
    factors: tuple[TridiagFactor, ...],
    work: np.ndarray,
) -> np.ndarray:
    """Solve  prod_j (I - sigma*J_j) x = rhs  one direction at a time, in
    the two buffers rhs and work; returns the one that holds x: rhs for even
    d, work for odd d.  rhs is overwritten either way.

    factors : the d factors from ``factor_pi(op, sigma)``
    rhs, work : flat state vectors of one dtype that holds the factors'
        (a real rhs cannot take a complex shift)

    Direction k runs from one buffer into the other, bufs[k % 2] into
    bufs[(k + 1) % 2] of (rhs, work), and the factors choose the kernel.
    The natural layout's leading axis is direction d-1, and each direction
    solves along the leading axis:

    - matmul (factors with blocks): matrix products with the dense block
      inverses, rhs_lines^T @ inv^T.  The transposed product is itself the
      cyclic axis roll that moves the leading axis to the end, so the
      directions are solved in the order d-1, d-2, .., 0, and no scaling
      pass or layout copy is made.  A line of one block is one product with
      the whole-line inverse.  On lines cut into P >= 2 blocks
      (``_block_solve``), the neighbour terms from the reduced system
      correct the boundary rows of the buffer read, in place, before the
      products.
    - Thomas (factors without inverses): a line sweep scaled by inv_diag in
      place, then one copy that rolls the axes cyclically (the last axis
      moves to the front) into the other buffer; the directions are solved
      in the order d-1, 0, 1, .., d-2: d copies per product solve.

    Either way the d-th roll restores the natural layout.  The factors
    commute, so the order is immaterial up to rounding.
    """
    grid = op.grid
    d, n = grid.dim, grid.n_interior
    bufs = (rhs, work)
    if all(fac.blocks is not None for fac in factors):
        for k in range(d):
            blocks = factors[d - 1 - k].blocks
            rows, cols = bufs[k % 2].reshape(n, -1), bufs[(k + 1) % 2].reshape(-1, n)
            if blocks.reduced.size:  # P >= 2 blocks
                rows, cols = _block_solve(blocks, rows, cols)
            np.matmul(rows.T, blocks.last_t, out=cols)  # the last block
        return bufs[d % 2]
    for k in range(d):
        fac = factors[(d - 1 + k) % d]
        cur, nxt = (bufs[i % 2].reshape(grid.shape) for i in (k, k + 1))
        _sweep(fac, cur.reshape(n, -1), cur.reshape(n, -1))
        scale, rolled = _line_scale(fac, d), np.moveaxis(nxt, 0, -1)
        # a plain strided copy is about twice as fast as a scaling ufunc
        # writing through the rolled view; a block is rolled while in cache
        for planes in grid.state_blocks:
            part = cur[planes]
            part *= scale[planes]
            np.copyto(rolled[planes], part)
    return bufs[d % 2]


def _block_solve(
    blocks: LineBlocks, rows: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the P-1 >= 1 full blocks of the (n, M) lines ``rows`` into the
    (M, n) transposed ``cols``; returns the last block's corrected rows and
    its columns, for the caller's product with ``last_t``.

    The (P-1, 2, M) neighbour terms -lo*x_{kL-1} and -up*x_{kL}, the reduced
    system on the ends of each block's own solution, are added to the
    blocks' first and last rows, in rows itself; then one batched product
    solves the full blocks.
    """
    n, lines = rows.shape
    length = blocks.inv_t.shape[0]
    head = (n - 1) // length * length  # points in the P-1 full blocks
    # first and last entries of y_0 .. y_{P-2}, then the first of y_{P-1}
    ends = np.empty((2 * head // length + 1, lines), np.result_type(blocks.ends, rows))
    np.matmul(
        blocks.ends,
        rows[:head].reshape(-1, length, lines),
        out=ends[:-1].reshape(-1, 2, lines),
    )
    np.matmul(blocks.last_t[:, 0], rows[head:], out=ends[-1])
    terms = np.matmul(blocks.reduced, ends[1:]).reshape(-1, 2, lines)
    del ends  # freed before the batched product makes its own temporaries
    rows[length::length] += terms[:, 0]  # first rows of blocks 1 .. P-1
    rows[length - 1 : head : length] += terms[:, 1]  # last rows of 0 .. P-2
    np.matmul(
        rows[:head].reshape(-1, length, lines).transpose(0, 2, 1),
        blocks.inv_t,
        out=cols[:, :head].reshape(lines, -1, length).transpose(1, 0, 2),
    )
    return rows[head:], cols[:, head:]
