"""Shared test fixtures and oracles the library does not ship: degenerate
problems, the eager manufactured profiles, dense assembly, the exactly
solved implicit step and independent reference implementations of the
package's kernels."""

import dataclasses
import math

import numpy as np

from amfrk import AmfScheme, GridSpec, SemidiscreteProblem, SplitOperator, radau2a_tableau
from amfrk.splitops import (
    DirectionStencil,
    LineBlocks,
    apply_direction,
    check_count,
    factor_pi,
    solve_pi,
)
from amfrk.stability import ComplexPoint, ScanResult, combine_zw, stability_function


def extended_scheme(scheme: AmfScheme, q: int) -> AmfScheme:
    """Extend a scheme to q sweeps by repeating its last sweep.

    As q grows the sweeps converge to the exact stage solution, so the
    extended scheme lets tests compare against a dense implicit solve.
    """
    if q < scheme.q:
        raise ValueError(f"cannot shrink a {scheme.q}-sweep scheme to q={q}")
    iters = scheme.iterations + (scheme.iterations[-1],) * (q - scheme.q)
    return AmfScheme(name=f"{scheme.name}x{q}", q=q, gamma=scheme.gamma, iterations=iters)


def scalar_problem(lam) -> SemidiscreteProblem:
    """Single-unknown linear system y' = lam * y (lam may be complex).

    Built directly from a one-point 1-D grid so the whole integrator stack
    (residual, factored solves, corrector) runs on a problem whose exact
    step behavior is known in closed form.  A sequence lam = (lam_1, ...,
    lam_d) gives a one-point d-D grid with J_k = lam_k: y' = (lam_1 + ... +
    lam_d) y, with one factor (1 - gamma*tau*lam_k) per direction.
    """
    lams = np.atleast_1d(lam)
    grid = GridSpec(dim=lams.size, n_cells=2)
    stencils = tuple(DirectionStencil(sub=0.0, diag=v, sup=0.0) for v in lams.tolist())
    op = SplitOperator(grid=grid, stencils=stencils)
    dtype = complex if np.iscomplexobj(lam) else float
    zero = np.zeros(1, dtype=dtype)
    return SemidiscreteProblem(op=op, forcing=copying_forcing(lambda t: zero))


def frozen_forcing_problem(problem: SemidiscreteProblem) -> SemidiscreteProblem:
    """Same operator as ``problem`` but with the forcing pinned to zero,
    so one step is a pure linear map of the state."""
    zero = np.zeros(problem.op.grid.m)
    return dataclasses.replace(
        problem, forcing=copying_forcing(lambda t: zero), exact=None, boundary=None
    )


def copying_forcing(values):
    """A forcing(t, out=None) from values(t), an array per time:
    it returns values(t) itself, or copies it into out (``np.copyto``, so a
    complex value into a real out raises TypeError)."""

    def forcing(t, out=None):
        g = values(t)
        if out is None:
            return g
        np.copyto(out, g)
        return out

    return forcing


# ---------------------------------------------------------------------------
# Reference manufactured profiles: the eager construction the package used
# before exact and boundary values were computed on demand.  Every profile is
# a fixed state-sized vector, scaled by e^t (grow) or e^-t (decay).


def reference_profiles(dim, n_cells, beta, epsilon):
    """Fixed spatial vectors of ``build_problem``'s problem, flat."""
    t = (1.0 / n_cells) * np.arange(1, n_cells)
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
    return {
        "exact_grow": np.ravel(np.broadcast_to(exact_grow, shape)).copy(),
        "exact_decay": beta * np.ravel(np.broadcast_to(ridge, shape)).copy(),
        "source_grow": np.ravel(np.broadcast_to(source_grow, shape)).copy(),
        "source_decay": -beta * lap_coeff * np.ravel(
            np.broadcast_to(ridge, shape)
        ).copy(),
        "boundary_decay": beta * np.ravel(boundary).copy(),
    }


def reference_problem_vectors(dim, n_cells, beta, epsilon, t):
    """(forcing, exact, boundary) at time t from the eager profiles, by the
    products and sums ``build_problem``'s functions make, in their order."""
    prof = reference_profiles(dim, n_cells, float(beta), float(epsilon))
    weight = float(epsilon) / (1.0 / n_cells) ** 2
    src_decay = prof["source_decay"] + weight * prof["boundary_decay"]
    forcing = np.exp(t) * prof["source_grow"] + np.exp(-t) * src_decay
    exact = np.exp(t) * prof["exact_grow"]
    exact += np.exp(-t) * prof["exact_decay"]
    return forcing, exact, np.exp(-t) * prof["boundary_decay"]


def closed_form_vectors(dim, n_cells, beta, epsilon, t):
    """(forcing, exact, boundary) at time t in np.longdouble, straight from
    the closed forms of u, of g = u_t - eps laplace(u) and of u on each face,
    at the float64 grid nodes the package uses; flat, x fastest."""
    ld = np.longdouble
    nodes = ((1.0 / n_cells) * np.arange(1, n_cells)).astype(ld)
    coords = np.meshgrid(*[nodes] * dim, indexing="ij")[::-1]  # x, y(, z)
    beta, eps, t = ld(float(beta)), ld(float(epsilon)), ld(t)
    amp = ld(10.0 if dim == 2 else 64.0)

    def bumps(cs):
        return [c * (1 - c) for c in cs]

    def u(cs):
        ridge = np.exp(2 * cs[0] - sum(cs[1:]) - t)
        return amp * math.prod(bumps(cs)) * np.exp(t) + beta * ridge

    b = bumps(coords)
    others = sum(math.prod(b[:j] + b[j + 1:]) for j in range(dim))
    ridge = np.exp(2 * coords[0] - sum(coords[1:]) - t)
    source = amp * np.exp(t) * (math.prod(b) + 2 * eps * others)
    source -= beta * (1 + (dim + 3) * eps) * ridge
    boundary = np.zeros_like(ridge)
    for j in range(dim):
        for value, end in ((0, 0), (1, -1)):
            face = list(coords)
            face[j] = np.full_like(ridge, value)
            at = [slice(None)] * dim
            at[dim - 1 - j] = end
            boundary[tuple(at)] += u(face)[tuple(at)]
    forcing = source + eps * ld(n_cells) ** 2 * boundary
    return forcing.ravel(), u(coords).ravel(), boundary.ravel()


# ---------------------------------------------------------------------------
# Reference oracles: the row-loop Thomas solve, the two-copies-per-direction
# line layout and the allocate-per-sweep step that the package used before
# the Stepper.  They share no kernel with the package (only the stencils, the
# grid and the problem's forcing), so the lean step is compared against an
# independent implementation.


def allocating(kernel, op, *args):
    """A step kernel of ``splitops`` on buffers of its own, for tests: a J
    apply, ``kernel(op, [j,] v)``, into a new out, or ``solve_pi`` on a copy
    of rhs, called as ``allocating(solve_pi, op, sigma, rhs[, factors])``
    with the factors of sigma built when not given.  The buffers take the
    dtype that holds the input and the operator's (the factors', which a
    complex shift makes complex); returns the result."""
    if kernel is solve_pi:
        sigma, rhs, *factors = args
        factors = factors[0] if factors else factor_pi(op, sigma)
        arrays = [f.last_t if isinstance(f, LineBlocks) else f.inv_diag for f in factors]
        x = np.array(rhs, np.result_type(rhs, *arrays)).reshape(-1)
        return solve_pi(op, x, factors, np.empty_like(x))
    *index, v = args
    out = np.empty(op.grid.m, np.result_type(v, op.dtype))
    return kernel(op, *index, np.asarray(v).reshape(-1), out, np.empty_like(out))


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
    stages = np.array([y_n, y_n], dtype=np.result_type(y_n, problem.forcing(t_n)))
    for it in scheme.iterations:
        d = residual(problem, tab, t_n, tau, y_n, stages)
        s, l = it.mix_coeff, it.low_coeff
        r1 = d[0] - s * d[1]
        r2 = (1.0 + l * s) * d[1] - l * d[0]
        e1 = reference_solve_pi(problem.op, sigma, r1)
        e2 = reference_solve_pi(problem.op, sigma, r2 + l * e1)
        stages[0] += e1 + s * e2
        stages[1] += e2
    return (1.0 - tab.s_hat.sum()) * y_n + tab.s_hat @ stages


def reference_integrate(problem, scheme, tab, tau, n_steps, y0):
    """n_steps reference steps from (0, y0)."""
    y = np.asarray(y0).copy()
    for n in range(n_steps):
        y = reference_amf_step(problem, scheme, tab, n * tau, tau, y)
    return y


# ---------------------------------------------------------------------------
# Dense and closed-form oracles: Kronecker assembly of J_j and J, the stage
# residual, the exactly solved implicit step, the factored shift and the
# closed-form line spectrum.  Dense assembly refuses grids finer than
# DENSE_LIMIT cells per axis, and so does every oracle built on it.

DENSE_LIMIT = 16


class SizeGuardError(RuntimeError):
    """Dense oracle requested on a grid too large for dense assembly."""


def _check_step_size(tau):
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValueError(f"step size must be positive and finite, got {tau}")


def dense_band(op, j):
    """Dense n x n band of direction j along one grid line."""
    st = op.stencils[j]
    n = op.grid.n_interior
    band = np.zeros((n, n), dtype=np.result_type(type(st.diag), float))
    idx = np.arange(n)
    band[idx, idx] = st.diag
    band[idx[1:], idx[:-1]] = st.sub
    band[idx[:-1], idx[1:]] = st.sup
    return band


def dense_direction_matrix(op, j):
    """Dense J_j via Kronecker assembly, guarded to N <= DENSE_LIMIT."""
    if op.grid.n_cells > DENSE_LIMIT:
        raise SizeGuardError(
            f"dense assembly refused for N = {op.grid.n_cells} > {DENSE_LIMIT}"
        )
    n = op.grid.n_interior
    eye = np.eye(n)
    out = None
    for ax in range(op.grid.dim):  # slowest axis first
        block = dense_band(op, j) if ax == op.grid.axis_of_direction(j) else eye
        out = block if out is None else np.kron(out, block)
    return out


def dense_operator_matrix(op):
    """Dense J = sum_j J_j, guarded to N <= DENSE_LIMIT."""
    out = dense_direction_matrix(op, 0)
    for j in range(1, op.grid.dim):
        out = out + dense_direction_matrix(op, j)
    return out


def residual(problem, tab, t_n, tau, y_n, stages):
    """Stage residual D of the implicit stage system at the given iterate.

    stages : (s, m) array of stage vectors; D = 0 exactly at the implicit
    solution.  J is applied by ``reference_apply_full``.
    """
    _check_step_size(tau)
    stages = np.asarray(stages)
    if stages.shape != (tab.b.shape[0], np.asarray(y_n).shape[0]):
        raise ValueError(
            f"stage block shape {stages.shape} does not match "
            f"({tab.b.shape[0]}, {np.asarray(y_n).shape[0]})"
        )
    forcings = [problem.forcing(t_n + ci * tau) for ci in tab.c]
    f = [reference_apply_full(problem.op, y) + g for y, g in zip(stages, forcings)]
    out = np.empty_like(stages, dtype=np.result_type(stages, f[0]))
    for i in range(out.shape[0]):
        acc = y_n - stages[i]
        for k in range(out.shape[0]):
            acc = acc + (tau * tab.a[i, k]) * f[k]
        out[i] = acc
    return out


def irk_reference_step(problem, tab, t_n, tau, y_n, return_stages=False):
    """Exactly solved implicit step via one dense (s*m) x (s*m) solve."""
    _check_step_size(tau)
    jac = dense_operator_matrix(problem.op)
    m = jac.shape[0]
    s = tab.b.shape[0]
    y_n = np.asarray(y_n)
    forcings = [problem.forcing(t_n + ci * tau) for ci in tab.c]
    rhs = np.concatenate(
        [y_n + tau * sum(tab.a[i, k] * forcings[k] for k in range(s)) for i in range(s)]
    )
    big = np.eye(s * m, dtype=np.result_type(jac, rhs)) - tau * np.kron(tab.a, jac)
    stages = np.linalg.solve(big, rhs).reshape(s, m)
    y_next = (1.0 - tab.s_hat.sum()) * y_n + tab.s_hat @ stages
    if return_stages:
        return y_next, stages
    return y_next


def apply_pi(op, sigma, v):
    """Apply the factored shift  prod_j (I - sigma*J_j)  to a flat state."""
    out = np.asarray(v)
    for j in range(op.grid.dim):
        out = out - sigma * allocating(apply_direction, op, j, out)
    return out


def direction_eigenvalues(op, j):
    """Eigenvalues of J_j's tridiagonal band:  diag + 2*sqrt(sub*sup)*cos(k*pi/N).

    Requires sub*sup >= 0 (the similarity transform to a symmetric matrix
    breaks down otherwise, which happens past the cell-Peclet limit).
    """
    st = op.stencils[j]
    prod = st.sub * st.sup
    if prod < 0.0:
        raise ValueError(
            f"direction {j} has sub*sup = {prod} < 0; eigenvalues are complex "
            "past the cell-Peclet limit and this closed form does not apply"
        )
    n_cells = op.grid.n_cells
    k = np.arange(1, n_cells)
    return st.diag + 2.0 * math.sqrt(prod) * np.cos(k * np.pi / n_cells)


def modal_reference(problem, tau, n_steps):
    """(semi-discrete solution, exact Radau IIA) at t = n_steps*tau, from
    problem.exact(0), mode by mode in the tensor sine basis.

    Every direction's stencil must be symmetric (sub == sup), so that the
    orthonormal sine matrix sqrt(2/N) sin(k i pi/N) diagonalizes it with the
    ``direction_eigenvalues``; the forcing must be g(t) = e^t G_1 + e^-t G_2,
    read from forcing(0) and forcing(ln 2) and checked at t = 1.  Raises
    ValueError otherwise.  Each mode solves y' = lam y + e^t a + e^-t b in
    closed form, and Radau IIA's 2x2 stage system exactly.
    """
    op = problem.op
    grid = op.grid
    for j, st in enumerate(op.stencils):
        if st.sub != st.sup:
            raise ValueError(f"direction {j} has sub != sup; the sine basis does not "
                             "diagonalize its stencil")
    f0, f1 = problem.forcing(0.0), problem.forcing(math.log(2.0))
    g1 = (f1 - 0.5 * f0) / 1.5  # f0 = G_1 + G_2, f1 = 2 G_1 + G_2 / 2
    g2 = f0 - g1
    f_check = problem.forcing(1.0)
    if not np.allclose(f_check, math.e * g1 + g2 / math.e, rtol=1e-12,
                       atol=1e-12 * np.abs(f_check).max()):
        raise ValueError("the forcing is not e^t G_1 + e^-t G_2")
    n = grid.n_interior
    k = np.arange(1, grid.n_cells)
    sine = math.sqrt(2.0 / grid.n_cells) * np.sin(np.outer(k, k) * np.pi / grid.n_cells)

    def to_modes(v):  # the sine matrix is symmetric and its own inverse
        v = np.asarray(v).reshape(grid.shape)
        for ax in range(grid.dim):
            v = np.moveaxis(np.tensordot(sine, v, axes=(1, ax)), 0, ax)
        return v

    lam = np.zeros(grid.shape)
    for j in range(grid.dim):
        shape = [1] * grid.dim
        shape[grid.axis_of_direction(j)] = n
        lam = lam + direction_eigenvalues(op, j).reshape(shape)
    y0, a, b = (to_modes(v) for v in (problem.exact(0.0), g1, g2))
    t = n_steps * tau
    # y(t) = e^(lam t) y0 + a (e^t - e^(lam t)) / (1 - lam) + b (e^(lam t) - e^-t) / (1 + lam),
    # each difference through expm1
    semi = (np.exp(lam * t) * y0 - a * math.exp(t) * np.expm1((lam - 1.0) * t) / (1.0 - lam)
            + b * math.exp(-t) * np.expm1((lam + 1.0) * t) / (1.0 + lam))
    tab = radau2a_tableau()
    # (I - tau lam A) Y = y_n e + tau A g(t_n + c tau), per mode
    mats = np.eye(2) - tau * lam[..., None, None] * tab.a
    y = y0
    for step in range(n_steps):
        g = [math.exp(step * tau + ci * tau) * a + math.exp(-(step * tau + ci * tau)) * b
             for ci in tab.c]
        rhs = np.stack([y + tau * (tab.a[i, 0] * g[0] + tab.a[i, 1] * g[1])
                        for i in range(2)], axis=-1)
        stages = np.linalg.solve(mats, rhs[..., None])[..., 0]
        y = (1.0 - tab.s_hat.sum()) * y + stages @ tab.s_hat
    return to_modes(semi).reshape(-1), to_modes(y).reshape(-1)


def reference_stability_function(scheme, tab, z, w):
    """R_q(z, w) in np.clongdouble by the sweep recurrence on G = e + Z:

        G^0 = e,   G^nu = inv(I - w*T_nu) (e + (z*A - w*T_nu) G^(nu-1)),
        R_q = (1 - sum(s_hat)) + s_hat . G^q,

    with T_nu the sweep's approx_a and the closed-form inverse of the 2x2
    I - w*T_nu.  The package runs the factored form of the same sweep."""
    z = np.asarray(z, dtype=np.clongdouble)
    w = np.asarray(w, dtype=np.clongdouble)
    a = tab.a.astype(np.longdouble)
    g0 = np.ones(np.broadcast_shapes(z.shape, w.shape), dtype=np.clongdouble)
    g1 = g0.copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in scheme.iterations:
            t = it.approx_a.astype(np.longdouble)
            # 2x2 coefficient arrays of z*A - w*T
            c00 = z * a[0, 0] - w * t[0, 0]
            c01 = z * a[0, 1] - w * t[0, 1]
            c10 = z * a[1, 0] - w * t[1, 0]
            c11 = z * a[1, 1] - w * t[1, 1]
            v0 = 1.0 + c00 * g0 + c01 * g1
            v1 = 1.0 + c10 * g0 + c11 * g1
            # closed-form inverse of I - w*T
            m00 = 1.0 - w * t[0, 0]
            m01 = -w * t[0, 1]
            m10 = -w * t[1, 0]
            m11 = 1.0 - w * t[1, 1]
            det = m00 * m11 - m01 * m10
            g0 = (m11 * v0 - m01 * v1) / det
            g1 = (m00 * v1 - m10 * v0) / det
    s_hat = tab.s_hat.astype(np.longdouble)
    return np.longdouble(1.0 - tab.s_hat.sum()) + s_hat[0] * g0 + s_hat[1] * g1


# ---------------------------------------------------------------------------
# Reference wedge scan: the index-gather, argsort-grouped scan the package
# used before the block-structured one.  Every sample's per-direction values
# are gathered from flat index digits and every chunk is grouped by ray
# combination with a stable argsort, so the block scan's broadcasting and
# reshape reductions are checked against an independent bookkeeping.


def reference_wedge_scan(
    scheme,
    tab,
    d,
    theta,
    radii=None,
    cap=4_000_000,
    n_random=1_000_000,
    keep_samples=False,
):
    """Wedge scan of |R_q| by index gathers in chunks of 2^18 samples."""
    radii = (np.logspace(-3.0, 6.0, 40) if radii is None
             else np.asarray(radii, dtype=float))
    rays_arr = np.asarray([0.0] if theta == 0.0 else [theta, -theta, 0.0])
    n_rays, n_radii = rays_arr.size, radii.size
    per_var = n_rays * n_radii
    values = (-np.exp(1j * rays_arr)[:, None] * radii[None, :]).reshape(-1)
    total = per_var**d
    gamma = scheme.gamma

    best = {"mod": -np.inf, "parts": None}
    per_ray: dict = {}
    counts = {"n": 0, "excluded": 0}
    kept = ([], []) if keep_samples else None  # value-index blocks, |R| blocks

    def eval_chunk(idx_parts):
        parts = [values[ix] for ix in idx_parts]
        z = parts[0].copy()
        for p in parts[1:]:
            z += p
        if d > 1:
            # each factor multiplies from the left: NumPy evaluated the old
            # ``prod * (1 - gamma*p)`` in place in the temporary factor (its
            # chunks were above the elision threshold), and vector complex
            # products are not bitwise commutative
            prod = np.ones_like(parts[0])
            for p in parts:
                prod = (1.0 - gamma * p) * prod
            w = (1.0 - prod) / gamma
        else:
            w = z
        mod = np.abs(stability_function(scheme, tab, z, w))
        finite = np.isfinite(mod)
        counts["n"] += mod.size
        counts["excluded"] += int(mod.size - finite.sum())
        mod_f = np.where(finite, mod, -np.inf)
        combo = idx_parts[0] // n_radii
        for ix in idx_parts[1:]:
            combo = combo * n_rays + ix // n_radii
        order = np.argsort(combo, kind="stable")
        sc, sm = combo[order], mod_f[order]
        bounds = np.flatnonzero(np.diff(sc)) + 1
        for cid, seg in zip(
            sc[np.concatenate(([0], bounds))] if sc.size else [],
            np.split(sm, bounds),
        ):
            key = tuple(
                float(rays_arr[(int(cid) // n_rays**k) % n_rays])
                for k in reversed(range(d))
            )
            m = float(seg.max())
            if m > per_ray.get(key, -np.inf):
                per_ray[key] = m
        k = int(np.argmax(mod_f))
        if mod_f[k] > best["mod"]:
            best["mod"] = float(mod_f[k])
            best["parts"] = tuple(complex(p[k]) for p in parts)
        if kept is not None:
            kept[0].append(np.array(idx_parts))
            kept[1].append(mod)

    chunk = 1 << 18
    if total <= cap:
        for start in range(0, total, chunk):
            flat = np.arange(start, min(start + chunk, total))
            eval_chunk([(flat // per_var**k) % per_var for k in range(d)])
    else:
        ray_grid = np.arange(n_rays**d)
        ray_digits = [(ray_grid // n_rays**k) % n_rays for k in range(d)]
        for ri in range(n_radii):
            eval_chunk([dig * n_radii + ri for dig in ray_digits])
        rng = np.random.default_rng(0)
        remaining = n_random
        while remaining > 0:
            take = min(chunk, remaining)
            eval_chunk(list(rng.integers(0, per_var, size=(d, take))))
            remaining -= take

    zz, ww = combine_zw(best["parts"], gamma)
    return ScanResult(
        max_modulus=best["mod"],
        argmax=ComplexPoint(parts=best["parts"], z=zz, w=ww),
        per_ray=per_ray,
        n_samples=counts["n"],
        n_excluded=counts["excluded"],
        samples=None if kept is None else (
            values, np.concatenate(kept[0], axis=1), np.concatenate(kept[1])),
    )


# ---------------------------------------------------------------------------
# The closed-form factorization bound splitting_sup_bound and its sampled
# oracle sampled_sup_ratio.  No package code calls the bound: it is a tested
# fact about the split step, not part of the integrator.


def _check_gamma(gamma: float) -> None:
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")


def splitting_sup_bound(d: int, gamma: float) -> float:
    """Closed-form sup of |z / (1 - gamma*w)| over the left half-plane.

    For a d-direction splitting with all Re z_k <= 0 the ratio is bounded by
    (1/gamma) * sqrt((d-1)^(d-1) / d^(d-2)), attained on the imaginary axis
    with all directions equal; d = 1 gives 1/gamma (approached, not attained).
    Raises ValueError unless gamma is finite and > 0.
    """
    check_count("d", d, 1)
    _check_gamma(gamma)
    if d == 1:
        return 1.0 / gamma
    return float((1.0 / gamma) * np.sqrt((d - 1) ** (d - 1) / d ** (d - 2)))


def sampled_sup_ratio(
    d: int,
    gamma: float,
    n_diag: int = 4001,
    n_random: int = 20000,
    seed: int = 0,
) -> float:
    """Sampled sup of |z / (1 - gamma*w)| over imaginary-axis arguments.

    Samples the diagonal z_k = i*x around the known maximizer
    x = 1/(gamma*sqrt(d-1)) plus seeded random imaginary tuples; approaches
    splitting_sup_bound(d, gamma) from below.  Requires d >= 2 (for d = 1
    the sup is only approached as |z| grows without bound), a finite
    gamma > 0, n_diag >= 1 and n_random >= 0 (0: the diagonal alone).
    """
    check_count("d", d, 2)
    check_count("n_diag", n_diag, 1)
    check_count("n_random", n_random, 0)
    _check_gamma(gamma)
    x_star = 1.0 / (gamma * (d - 1) ** 0.5)
    zs = 1j * np.linspace(0.5 * x_star, 2.0 * x_star, n_diag)
    denom = (1.0 - gamma * zs) ** d
    vals = np.abs(d * zs / denom)
    out = float(vals.max())
    rng = np.random.default_rng(seed)
    zr = 1j * rng.uniform(-3.0 * x_star, 3.0 * x_star, size=(n_random, d))
    prod = np.prod(1.0 - gamma * zr, axis=1)
    vals_r = np.abs(zr.sum(axis=1) / prod)
    return max(out, float(vals_r.max(initial=0.0)))
