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

Every spatial profile here is a fixed vector scaled by e^t or e^-t, so a
time-dependent vector costs two scalings and one addition per evaluation.
The forcing follows the package's out/work idiom (``apply_full``,
``solve_pi``): ``forcing(t, out, work)`` writes into out with work as
scratch and allocates nothing; ``forcing(t)`` returns a new array.
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
    exact : grid restriction of the exact PDE solution, or None when no
        closed form is attached
    boundary : unweighted boundary-value vector at time t, or None when no
        boundary data is attached: each interior point adjacent to a face
        picks up the exact solution at its off-grid neighbor, summed over
        faces (so points next to edges/corners accumulate several terms)
    """

    op: SplitOperator
    epsilon: float
    beta: float
    forcing: Callable[..., np.ndarray]
    exact: Optional[Callable[[float], np.ndarray]] = None
    boundary: Optional[Callable[[float], np.ndarray]] = None


def _interior(n_cells: int) -> np.ndarray:
    h = 1.0 / n_cells
    return h * np.arange(1, n_cells)


def _spatial_vectors(dim: int, n_cells: int, beta: float, epsilon: float) -> dict:
    """Fixed spatial vectors; keys grow/decay by their time factor e^t / e^-t."""
    t = _interior(n_cells)
    bump = t * (1.0 - t)
    if dim == 2:
        x = t.reshape(1, -1)
        y = t.reshape(-1, 1)
        bx = bump.reshape(1, -1)
        by = bump.reshape(-1, 1)
        amp = 10.0
        exact_grow = amp * bx * by
        source_grow = amp * (bx * by + 2.0 * epsilon * (bx + by))
        ridge = np.exp(2.0 * x - y)
        lap_coeff = 1.0 + 5.0 * epsilon  # laplacian of exp(2x - y) is 5x itself
        boundary = np.zeros_like(ridge)
        boundary[:, 0] += np.exp(-y[:, 0])
        boundary[:, -1] += np.exp(2.0 - y[:, 0])
        boundary[0, :] += np.exp(2.0 * x[0, :])
        boundary[-1, :] += np.exp(2.0 * x[0, :] - 1.0)
    else:
        x = t.reshape(1, 1, -1)
        y = t.reshape(1, -1, 1)
        z = t.reshape(-1, 1, 1)
        bx = bump.reshape(1, 1, -1)
        by = bump.reshape(1, -1, 1)
        bz = bump.reshape(-1, 1, 1)
        amp = 64.0
        exact_grow = amp * bx * by * bz
        source_grow = amp * (
            bx * by * bz + 2.0 * epsilon * (by * bz + bx * bz + bx * by)
        )
        ridge = np.exp(2.0 * x - y - z)
        lap_coeff = 1.0 + 6.0 * epsilon  # laplacian of exp(2x - y - z) is 6x itself
        boundary = np.zeros(np.broadcast_shapes(x.shape, y.shape, z.shape))
        boundary[:, :, 0] += np.exp(-y - z)[:, :, 0]
        boundary[:, :, -1] += np.exp(2.0 - y - z)[:, :, 0]
        boundary[:, 0, :] += np.exp(2.0 * x - z)[:, 0, :]
        boundary[:, -1, :] += np.exp(2.0 * x - 1.0 - z)[:, 0, :]
        boundary[0, :, :] += np.exp(2.0 * x - y)[0, :, :]
        boundary[-1, :, :] += np.exp(2.0 * x - y - 1.0)[0, :, :]
    shape = (n_cells - 1,) * dim
    exact_grow = np.broadcast_to(exact_grow, shape)
    return {
        "exact_grow": np.ravel(exact_grow).copy(),
        "exact_decay": beta * np.ravel(np.broadcast_to(ridge, shape)).copy(),
        "source_grow": np.ravel(np.broadcast_to(source_grow, shape)).copy(),
        "source_decay": -beta * lap_coeff * np.ravel(
            np.broadcast_to(ridge, shape)
        ).copy(),
        "boundary_decay": beta * np.ravel(boundary).copy(),
    }


def build_problem(
    dim: int, n_cells: int, beta: float, epsilon: float = 0.1
) -> SemidiscreteProblem:
    """Assemble the 2D (dim=2) or 3D (dim=3) manufactured diffusion problem."""
    if dim not in (2, 3):
        raise ValueError(f"manufactured problems exist for dim 2 and 3, got {dim}")
    if not math.isfinite(beta):
        raise ValueError(f"ridge amplitude beta must be finite, got {beta}")
    grid = GridSpec(dim=dim, n_cells=n_cells)
    # rejects an epsilon that is not positive and finite
    op = build_split_operator(grid, [epsilon] * dim)
    prof = _spatial_vectors(dim, n_cells, float(beta), float(epsilon))
    weight = epsilon / grid.h**2
    # the polynomial part vanishes on every face, only the ridge contributes
    bnd_decay = prof["boundary_decay"]
    src_grow = prof["source_grow"]
    src_decay = prof["source_decay"] + weight * bnd_decay
    ex_grow = prof["exact_grow"]
    ex_decay = prof["exact_decay"]

    # the sum is built in out; the second product goes to work, or to a
    # state-sized temporary without one
    def forcing(t: float, out=None, work=None) -> np.ndarray:
        out = np.multiply(src_grow, np.exp(t), out=out)
        out += np.multiply(src_decay, np.exp(-t), out=work)
        return out

    def exact(t: float) -> np.ndarray:
        u = np.exp(t) * ex_grow
        u += np.exp(-t) * ex_decay
        return u

    def boundary(t: float) -> np.ndarray:
        return np.exp(-t) * bnd_decay

    return SemidiscreteProblem(
        op=op,
        epsilon=float(epsilon),
        beta=float(beta),
        forcing=forcing,
        exact=exact,
        boundary=boundary,
    )

