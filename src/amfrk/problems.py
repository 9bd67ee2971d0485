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

Every vector here is a spatial profile scaled by e^t or e^-t.  A problem
stores only the forcing's two profiles, so a forcing evaluation costs two
scalings and one addition; exact(t) and boundary(t) rebuild their profiles
from the 1-D grid axes on each call, holding the result and at most one
state-sized temporary.  The forcing follows the package's out/work idiom
(``apply_full``, ``solve_pi``): ``forcing(t, out, work)`` writes into out
with work as scratch and allocates nothing; ``forcing(t)`` returns a new
array.
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
        boundary injection), called as ``forcing(t, out=None, work=None)``:
        with out given it writes g(t) into out, may use work (same shape
        and dtype) as scratch and returns out, casting as a ufunc does, so
        a value out's dtype cannot hold raises TypeError; with out None it
        returns a new array
    exact : grid restriction of the exact PDE solution at time t, a new
        array per call, or None when no closed form is attached
    boundary : unweighted boundary-value vector at time t, a new array per
        call, or None when no boundary data is attached: each interior point
        adjacent to a face picks up the exact solution at its off-grid
        neighbor, summed over faces (so points next to edges/corners
        accumulate several terms)
    """

    op: SplitOperator
    epsilon: float
    beta: float
    forcing: Callable[..., np.ndarray]
    exact: Optional[Callable[[float], np.ndarray]] = None
    boundary: Optional[Callable[[float], np.ndarray]] = None


def _ridge(coords) -> np.ndarray:
    """exp(2x - y (- z)) at coordinates given as arrays or numbers, in one
    new array."""
    e = 2.0 * coords[0]
    for c in coords[1:]:
        e = e - c
    return np.exp(e, out=e)


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


def build_problem(
    dim: int, n_cells: int, beta: float, epsilon: float = 0.1
) -> SemidiscreteProblem:
    """Assemble the 2D (dim=2) or 3D (dim=3) manufactured diffusion problem.

    Only the forcing's two profiles are stored; exact(t) and boundary(t)
    rebuild theirs from the 1-D grid axes on each call.
    """
    if dim not in (2, 3):
        raise ValueError(f"manufactured problems exist for dim 2 and 3, got {dim}")
    if not math.isfinite(beta):
        raise ValueError(f"ridge amplitude beta must be finite, got {beta}")
    grid = GridSpec(dim=dim, n_cells=n_cells)
    # rejects an epsilon that is not positive and finite
    op = build_split_operator(grid, [epsilon] * dim)
    beta, eps = float(beta), float(epsilon)
    axis = grid.h * np.arange(1, n_cells)
    # x, y(, z) and the bumps x(1-x), ..., each along its own grid axis
    shapes = [(1,) * (dim - 1 - j) + (-1,) + (1,) * j for j in range(dim)]
    coords = [axis.reshape(s) for s in shapes]
    bumps = [(axis * (1.0 - axis)).reshape(s) for s in shapes]
    amp = 10.0 if dim == 2 else 64.0
    # the laplacian of exp(2x - y (- z)) is (dim + 3) times itself
    lap_coeff = 1.0 + (dim + 3.0) * eps
    # products of all bumps but one: by*bz + bx*bz + bx*by in 3-D
    others = sum(math.prod(bumps[:j] + bumps[j + 1:]) for j in range(dim))
    src_grow = (amp * (math.prod(bumps) + 2.0 * eps * others)).reshape(-1)
    src_decay = _ridge(coords).reshape(-1)
    src_decay *= -beta * lap_coeff
    # the polynomial part vanishes on every face, only the ridge contributes
    injected = _faces(coords).reshape(-1)
    injected *= beta
    injected *= eps / grid.h**2
    src_decay += injected

    # the sum is built in out; the second product goes to work, or to a
    # state-sized temporary without one
    def forcing(t: float, out=None, work=None) -> np.ndarray:
        out = np.multiply(src_grow, np.exp(t), out=out)
        out += np.multiply(src_decay, np.exp(-t), out=work)
        return out

    # each builds its result and at most one state-sized temporary in place
    def exact(t: float) -> np.ndarray:
        u = math.prod([amp, *bumps])
        u *= np.exp(t)
        ridge = _ridge(coords)
        ridge *= beta
        ridge *= np.exp(-t)
        u += ridge
        return u.reshape(-1)

    def boundary(t: float) -> np.ndarray:
        b = _faces(coords)
        b *= beta
        b *= np.exp(-t)
        return b.reshape(-1)

    return SemidiscreteProblem(
        op=op,
        epsilon=eps,
        beta=beta,
        forcing=forcing,
        exact=exact,
        boundary=boundary,
    )

