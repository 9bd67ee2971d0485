"""Manufactured diffusion test problems with known exact solutions.

Both problems solve  u_t = eps * laplace(u) + g  on the unit square/cube with
Dirichlet data, where g is chosen so that

    2D:  u = 10 x(1-x) y(1-y) e^t            + beta * exp(2x - y - t)
    3D:  u = 64 x(1-x) y(1-y) z(1-z) e^t     + beta * exp(2x - y - z - t)

is the exact PDE solution.  With beta = 0 the solution is a polynomial in
space, central differences are exact, and the boundary data is constant in
time; beta != 0 switches on time-dependent boundaries and an O(h^2) spatial
error.  The semidiscrete right-hand side is

    y' = J y + forcing(t),
    forcing(t) = g_h(t) + eps * h^-2 * boundary(t),

with J the split central-difference operator (eps folded into its diffusion
coefficients) and boundary(t) the boundary-value vector that the eliminated
Dirichlet data injects next to each face.

Every vector here is a sum over k of lead_k(c) (x) plane_k: c is the
slowest grid axis (y in 2D, z in 3D), lead_k a profile along it scaled by
e^t or e^-t, and plane_k a profile over the other axes.  The ridge factors
as e^-c times the plane's ridge, and so does its injection on the x- and
y-faces; the c-faces inject the plane's ridge at c = 0 and c = 1.  The
forcing takes K = 4 terms (leads bump(c), 1, e^-c and the end-plane
weights), exact and boundary 2 each.  A problem stores only these factors,
O(K n^(dim-1)) numbers, and each evaluation is the (n, K) @ (K, n^(dim-1))
matrix product, in row chunks written straight into the result:
``forcing(t, out)`` writes into out and allocates nothing state-sized;
``forcing(t)`` returns a new array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .splitops import GridSpec, SplitOperator, build_split_operator


@dataclass(frozen=True)
class SemidiscreteProblem:
    """Linear semidiscrete system  y' = J y + forcing(t).

    forcing : full right-hand-side vector at time t (source plus weighted
        boundary injection), called as ``forcing(t, out=None)``: with out
        given it writes g(t) into out and returns out, casting as a ufunc
        does, so a value out's dtype cannot hold raises TypeError; with out
        None it returns a new array
    exact : grid restriction of the exact PDE solution at time t, a new
        array per call, or None when no closed form is attached
    boundary : unweighted boundary-value vector at time t, a new array per
        call, or None when no boundary data is attached: each interior point
        adjacent to a face picks up the exact solution at its off-grid
        neighbor, summed over faces (so points next to edges/corners
        accumulate several terms)
    """

    op: SplitOperator
    forcing: Callable[..., np.ndarray]
    exact: Optional[Callable[[float], np.ndarray]] = None
    boundary: Optional[Callable[[float], np.ndarray]] = None


def _ridge(coords) -> np.ndarray:
    """exp(2x - y (- z)) at coordinates given as arrays or numbers."""
    return np.exp(2.0 * coords[0] - sum(coords[1:]))


def _faces(coords) -> np.ndarray:
    """Unweighted boundary sum: the ridge on faces x=0, x=1, y=0, ... in
    turn, added at the interior points next to each face."""
    dim = len(coords)
    out = np.zeros((coords[0].size,) * dim)
    for j in range(dim):
        for value, end in ((0.0, slice(0, 1)), (1.0, slice(-1, None))):
            at = [slice(None)] * dim
            at[dim - 1 - j] = end
            out[tuple(at)] += _ridge(coords[:j] + [value] + coords[j + 1:])
    return out


def _product(lead: np.ndarray, planes: np.ndarray, out=None) -> np.ndarray:
    """sum_k lead[:, k] (x) planes[k] as a flat state (slowest axis first),
    written into out when given, else into a new array: one matmul per chunk
    of at most 2^15 entries, as larger products rounded apart under two BLAS
    threads and one (NumPy 2.4.6's OpenBLAS threads none of this size)."""
    if out is None:
        out = np.empty(lead.shape[0] * planes.shape[1], np.result_type(lead, planes))
    rows, grid = max(1, 2**15 // planes.shape[1]), out.reshape(lead.shape[0], -1)
    for lo in range(0, lead.shape[0], rows):
        np.matmul(lead[lo : lo + rows], planes, out=grid[lo : lo + rows])
    return out


def problem_operator(dim: int, n_cells: int, beta: float, epsilon: float = 0.1) -> SplitOperator:
    """``build_problem``'s checks and split operator, with nothing state-sized:
    raises ValueError for a dim other than 2 or 3, a non-finite beta, and an
    epsilon that is not positive and finite or whose stencil weights overflow."""
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    if not math.isfinite(beta):
        raise ValueError(f"ridge amplitude beta must be finite, got {beta}")
    # rejects an epsilon that is not positive and finite
    return build_split_operator(GridSpec(dim=dim, n_cells=n_cells), [epsilon] * dim)


def build_problem(
    dim: int, n_cells: int, beta: float, epsilon: float = 0.1
) -> SemidiscreteProblem:
    """Assemble the 2D (dim=2) or 3D (dim=3) manufactured diffusion problem.

    forcing, exact and boundary are each sum_k lead_k(c) (x) plane_k, with c
    the slowest axis (y in 2D, z in 3D) and each plane_k a profile over the
    other axes; only the factors are stored, O(K n^(dim-1)) numbers.  Raises
    ValueError for what ``problem_operator`` refuses.
    """
    op = problem_operator(dim, n_cells, beta, epsilon)
    grid = op.grid
    beta, eps = float(beta), float(epsilon)
    axis = grid.h * np.arange(1, n_cells)
    bump = axis * (1.0 - axis)
    # the plane's x(, y) and bumps x(1-x)(, y(1-y)), each along its own axis
    shapes = [(1,) * (dim - 2 - j) + (-1,) + (1,) * j for j in range(dim - 1)]
    coords = [axis.reshape(s) for s in shapes]
    bumps = [bump.reshape(s) for s in shapes]
    amp = 10.0 if dim == 2 else 64.0
    # the laplacian of exp(2x - y (- z)) is (dim + 3) times itself
    lap_coeff = 1.0 + (dim + 3.0) * eps
    weight = eps / grid.h**2  # J's stencil weight on the injected boundary
    bumps_p = math.prod(bumps)
    # the plane's products of all bumps but one: 1 in 2D, bx + by in 3D
    others_p = sum(math.prod(bumps[:j] + bumps[j + 1:]) for j in range(dim - 1))
    ridge_p, faces_p = _ridge(coords), _faces(coords)

    # the ridge is e^-c times the plane's ridge; its x- and y-faces too, and
    # the c-faces are the plane's ridge at c = 0 and c = 1
    ends = np.zeros(axis.size)
    ends[0] += 1.0
    ends[-1] += math.exp(-1.0)
    # lead factors along c: bump(c), 1, e^-c and the end-plane weights
    lead = np.stack([bump, np.ones(axis.size), np.exp(-axis), ends], axis=1)
    # (K, n^(dim-1)) planes, one row per lead used; the polynomial source
    # splits as b_c (b_p + 2 eps o_p) + 2 eps b_p
    src = np.stack([
        amp * (bumps_p + 2.0 * eps * others_p),
        amp * 2.0 * eps * bumps_p,
        beta * (weight * faces_p - lap_coeff * ridge_p),
        beta * weight * ridge_p,
    ]).reshape(4, -1)
    sol = np.stack([amp * bumps_p, beta * ridge_p]).reshape(2, -1)
    bnd = np.stack([beta * faces_p, beta * ridge_p]).reshape(2, -1)

    # the scaled (n, 4) lead is the only temporary
    def forcing(t: float, out=None) -> np.ndarray:
        grow, decay = np.exp(t), np.exp(-t)
        return _product(lead * (grow, grow, decay, decay), src, out)

    def exact(t: float) -> np.ndarray:
        return _product(lead[:, 0::2] * (np.exp(t), np.exp(-t)), sol)

    def boundary(t: float) -> np.ndarray:
        return _product(lead[:, 2:] * np.exp(-t), bnd)

    return SemidiscreteProblem(op=op, forcing=forcing, exact=exact, boundary=boundary)
