"""Shared test fixtures: degenerate problems the library does not ship."""

import dataclasses

import numpy as np

from amfrk import GridSpec, SemidiscreteProblem, SplitOperator
from amfrk.splitops import DirectionStencil


def scalar_problem(lam) -> SemidiscreteProblem:
    """Single-unknown linear system y' = lam * y (lam may be complex).

    Built directly from a one-point 1-D grid so the whole integrator stack
    (residual, factored solves, corrector) runs on a problem whose exact
    step behavior is known in closed form.
    """
    grid = GridSpec(dim=1, n_cells=2)
    stencil = DirectionStencil(sub=0.0, diag=lam, sup=0.0)
    op = SplitOperator(grid=grid, stencils=(stencil,))
    dtype = complex if np.iscomplexobj(lam) else float
    zero = np.zeros(1, dtype=dtype)
    return SemidiscreteProblem(
        op=op,
        epsilon=0.0,
        beta=0.0,
        forcing=lambda t: zero,
    )


def frozen_forcing_problem(problem: SemidiscreteProblem) -> SemidiscreteProblem:
    """Same operator as ``problem`` but with the forcing pinned to zero,
    so one step is a pure linear map of the state."""
    zero = np.zeros(problem.op.grid.m)
    return dataclasses.replace(
        problem, forcing=lambda t: zero, exact=None, boundary=None
    )


# ---------------------------------------------------------------------------
# Reference oracles: the row-loop Thomas solve, the two-copies-per-direction
# line layout and the allocate-per-sweep step that the package used before
# the Stepper.  They share no kernel with the package (only the stencils, the
# grid and the problem's forcing), so the lean step is compared against an
# independent implementation.


def reference_factor(op, j, sigma):
    """(lo, inv_diag, back) of I - sigma*J_j by the pivot recurrence."""
    st = op.stencils[j]
    n = op.grid.n_interior
    lo = -sigma * st.sub
    d0 = 1.0 - sigma * st.diag
    up = -sigma * st.sup
    dtype = np.result_type(type(d0), float)
    piv = np.empty(n, dtype=dtype)
    back = np.empty(max(n - 1, 0), dtype=dtype)
    piv[0] = d0
    for i in range(1, n):
        back[i - 1] = up / piv[i - 1]
        piv[i] = d0 - lo * back[i - 1]
    return lo, 1.0 / piv, back


def reference_thomas_solve(lo, inv_d, back, lines):
    """Solve for every column of ``lines`` (shape (n, k)) in place."""
    x = lines
    n = x.shape[0]
    x[0] *= inv_d[0]
    if n == 1:
        return x
    tmp = np.empty_like(x[0])
    for i in range(1, n):
        np.multiply(x[i - 1], lo, out=tmp)
        np.subtract(x[i], tmp, out=x[i])
        np.multiply(x[i], inv_d[i], out=x[i])
    for i in range(n - 2, -1, -1):
        np.multiply(x[i + 1], back[i], out=tmp)
        np.subtract(x[i], tmp, out=x[i])
    return x


def reference_solve_direction(op, j, sigma, rhs):
    """(I - sigma*J_j)^-1 rhs: copy to (n, lines), row-loop solve, copy back."""
    lo, inv_d, back = reference_factor(op, j, sigma)
    grid = op.grid
    rhs = np.asarray(rhs)
    ax = grid.axis_of_direction(j)
    moved = np.moveaxis(rhs.reshape(grid.shape), ax, 0)
    dtype = np.result_type(rhs.dtype, inv_d.dtype)
    lines = np.array(moved, dtype=dtype, order="C").reshape(grid.n_interior, -1)
    reference_thomas_solve(lo, inv_d, back, lines)
    arr = np.moveaxis(lines.reshape(moved.shape), 0, ax)
    return np.ascontiguousarray(arr).reshape(-1)


def reference_solve_pi(op, sigma, rhs):
    """prod_j (I - sigma*J_j)^-1 rhs, directions j = 0 .. d-1."""
    out = np.asarray(rhs)
    for j in range(op.grid.dim):
        out = reference_solve_direction(op, j, sigma, out)
    return out


def reference_apply_full(op, v):
    """J v, one direction at a time through moved-axis slices."""
    grid = op.grid
    arr = np.asarray(v).reshape(grid.shape)
    total = 0
    for j, st in enumerate(op.stencils):
        src = np.moveaxis(arr, grid.axis_of_direction(j), 0)
        out = st.diag * src
        out[1:] += st.sub * src[:-1]
        out[:-1] += st.sup * src[1:]
        total = total + np.moveaxis(out, 0, grid.axis_of_direction(j)).reshape(-1)
    return total


def reference_amf_step(problem, scheme, tab, t_n, tau, y_n):
    """One q-sweep step, allocating every intermediate, as first shipped."""
    sigma = scheme.gamma * tau
    y_n = np.asarray(y_n)
    forcings = [problem.forcing(t_n + ci * tau) for ci in tab.c]
    stages = np.array([y_n, y_n], dtype=np.result_type(y_n, forcings[0]))
    for it in scheme.iterations:
        f = [reference_apply_full(problem.op, stages[i]) + forcings[i] for i in range(2)]
        d = np.empty_like(stages)
        for i in range(2):
            acc = y_n - stages[i]
            for k in range(2):
                acc = acc + (tau * tab.a[i, k]) * f[k]
            d[i] = acc
        s, l = it.mix_coeff, it.low_coeff
        r1 = d[0] - s * d[1]
        r2 = (1.0 + l * s) * d[1] - l * d[0]
        e1 = reference_solve_pi(problem.op, sigma, r1)
        e2 = reference_solve_pi(problem.op, sigma, r2 + l * e1)
        stages[0] += e1 + s * e2
        stages[1] += e2
    return tab.varpi * y_n + tab.s_hat @ stages


def reference_integrate(problem, scheme, tab, tau, n_steps, y0):
    """n_steps reference steps from (0, y0)."""
    y = np.asarray(y0).copy()
    for n in range(n_steps):
        y = reference_amf_step(problem, scheme, tab, n * tau, tau, y)
    return y
