"""Manufactured problems: exact values, forcing assembly, semidiscrete defect."""

import dataclasses
import inspect
import math
import tracemalloc

import numpy as np
import pytest

from amfrk import (
    SemidiscreteProblem,
    amf_scheme,
    apply_full,
    build_problem,
    integrate,
    radau2a_tableau,
    weighted_norm,
)
from helpers import (
    allocating,
    closed_form_vectors,
    copying_forcing,
    reference_problem_vectors,
)

EPS = 0.1
FLOAT_EPS = np.finfo(float).eps


def _flat_index_2d(n, i, j):
    return (i - 1) + (j - 1) * (n - 1)


def _flat_index_3d(n, i, j, k):
    return (i - 1) + (j - 1) * (n - 1) + (k - 1) * (n - 1) ** 2


def _closed_form_error(got, dim, n, beta, t, eps=EPS):
    """max |got - closed form| per vector of (forcing, exact, boundary), and
    max |closed form|, for the package's vectors or the eager ones."""
    errs, scales = [], []
    for g, ref in zip(got, closed_form_vectors(dim, n, beta, eps, t)):
        errs.append(float(np.max(np.abs(g - ref))))
        scales.append(float(np.max(np.abs(ref))))
    return errs, scales


def _time_derivative(problem, t):
    """u'(t) from the grow/decay structure: u = G e^t + D e^-t implies
    u' = u - 2 D e^-t, and D e^-t is the beta part of the solution."""
    beta_part = problem.exact(t) - build_problem(
        problem.op.grid.dim, problem.op.grid.n_cells, 0.0, problem.epsilon
    ).exact(t)
    return problem.exact(t) - 2.0 * beta_part


# ------------------------------------------------------------- construction


@pytest.mark.parametrize("dim", [0, 1, 4])
def test_dimension_rejected(dim):
    with pytest.raises(ValueError):
        build_problem(dim, 8, 0.0)


@pytest.mark.parametrize("dim,n,field", [(2, 24.0, "n_cells"), (2, 8.5, "n_cells"),
                                         (3.0, 8, "dim")])
def test_sizes_that_are_not_whole_numbers_rejected(dim, n, field):
    with pytest.raises(ValueError, match=rf"\b{field}="):
        build_problem(dim, n, 1.0)


def test_numpy_integer_sizes_build_the_same_problem():
    p = build_problem(np.int64(3), np.int64(8), 1.0, EPS)
    q = build_problem(3, 8, 1.0, EPS)
    for fn in ("forcing", "exact", "boundary"):
        assert np.array_equal(getattr(p, fn)(0.3), getattr(q, fn)(0.3))


def test_nonpositive_diffusion_rejected():
    for eps in (0.0, -0.1, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            build_problem(2, 8, 0.0, epsilon=eps)


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
def test_non_finite_beta_rejected(beta):
    with pytest.raises(ValueError):
        build_problem(2, 8, beta)


def test_operator_carries_epsilon_diffusion():
    p = build_problem(2, 8, 1.0, epsilon=EPS)
    h2 = p.op.grid.h**2
    for stc in p.op.stencils:
        assert stc.sub == EPS / h2
        assert stc.diag == -2 * EPS / h2
        assert stc.sup == EPS / h2


# ------------------------------------------------------------- exact values


def test_center_value_2d():
    p = build_problem(2, 8, 1.0, EPS)
    idx = _flat_index_2d(8, 4, 4)  # the node (1/2, 1/2)
    expected = 10 * 0.25 * 0.25 + math.exp(2 * 0.5 - 0.5)
    assert abs(p.exact(0.0)[idx] - expected) <= 1e-14 * expected
    # polynomial part alone
    p0 = build_problem(2, 8, 0.0, EPS)
    assert p0.exact(0.0)[idx] == 0.625


def test_center_value_3d_is_one():
    p = build_problem(3, 8, 0.0, EPS)
    idx = _flat_index_3d(8, 4, 4, 4)
    assert p.exact(0.0)[idx] == 1.0


def test_exact_time_scaling():
    p = build_problem(2, 6, 0.0, EPS)
    assert np.allclose(p.exact(1.0), math.e * p.exact(0.0), rtol=1e-14)


def test_exact_envelope_3d():
    for beta in (0.0, 1.0):
        p = build_problem(3, 8, beta, EPS)
        bound = 1.0 + beta * math.exp(2.0)
        assert np.max(np.abs(p.exact(0.0))) <= bound


def test_exact_accessor_requires_closed_form():
    p = build_problem(2, 6, 0.0, EPS)
    bare = SemidiscreteProblem(
        op=p.op, epsilon=p.epsilon, beta=0.0, forcing=p.forcing
    )
    assert bare.exact is None and bare.boundary is None
    # without a closed form the integrator needs an explicit initial state
    with pytest.raises(ValueError):
        integrate(bare, amf_scheme(1), radau2a_tableau(), 0.5, 1.0)


# --------------------------------------------------------------- boundaries


def test_boundary_vanishes_for_homogeneous_case():
    for dim in (2, 3):
        p = build_problem(dim, 6, 0.0, EPS)
        for t in np.linspace(0.0, 1.0, 11):
            assert np.array_equal(p.boundary(t), np.zeros(p.op.grid.m))


def test_boundary_corner_node_accumulates_two_faces():
    n = 8
    h = 1.0 / n
    p = build_problem(2, n, 1.0, EPS)
    t = 0.3
    vec = p.boundary(t)
    # node (1,1) touches the x=0 and y=0 faces
    expected = math.exp(-h - t) + math.exp(2 * h - t)
    assert abs(vec[_flat_index_2d(n, 1, 1)] - expected) <= 1e-14 * expected
    # node (1,3) touches only x=0
    assert abs(vec[_flat_index_2d(n, 1, 3)] - math.exp(-3 * h - t)) <= 1e-15
    # far interior node touches nothing
    assert vec[_flat_index_2d(n, 4, 4)] == 0.0


def test_boundary_3d_corner_touches_three_faces():
    n = 6
    h = 1.0 / n
    p = build_problem(3, n, 1.0, EPS)
    vec = p.boundary(0.0)
    expected = (
        math.exp(-h - h)  # x=0 face at (y1, z1)
        + math.exp(2 * h - h)  # y=0 face at (x1, z1)
        + math.exp(2 * h - h)  # z=0 face at (x1, y1)
    )
    assert abs(vec[_flat_index_3d(n, 1, 1, 1)] - expected) <= 1e-14 * expected
    assert vec[_flat_index_3d(n, 3, 3, 3)] == 0.0


# ------------------------------------------------------------------ forcing


def test_forcing_injects_the_weighted_boundary():
    # the beta part of the forcing is the ridge source plus eps*h^-2 times
    # the boundary vector
    n, t = 6, 0.7
    p = build_problem(2, n, 1.0, EPS)
    ridge_part = p.forcing(t) - build_problem(2, n, 0.0, EPS).forcing(t)
    xs = np.arange(1, n) / n
    X, Y = np.meshgrid(xs, xs)
    source = -(1 + 5 * EPS) * np.exp(2 * X - Y - t).ravel()
    expected = source + EPS * n**2 * p.boundary(t)
    assert np.max(np.abs(ridge_part - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("dim", [2, 3])
def test_float32_epsilon_builds_the_float64_problem(dim):
    # eps enters every term as a float64, the injected eps*h^-2 (J's own
    # stencil weight) too; float32 arithmetic gave 57.600002 for 57.6000009
    eps = np.float32(0.1)
    p, want = build_problem(dim, 24, 1.0, eps), build_problem(dim, 24, 1.0, float(eps))
    for t in (0.0, 0.7):
        for fn in ("forcing", "exact", "boundary"):
            assert getattr(p, fn)(t).tobytes() == getattr(want, fn)(t).tobytes()
        # float32 arithmetic would sit ~1e-8 from the float64 closed form
        (err, *_), (scale, *_) = _closed_form_error((p.forcing(t),), dim, 24, 1.0, t, eps)
        assert err <= 8 * FLOAT_EPS * scale


def test_homogeneous_source_closed_form():
    n = 8
    p = build_problem(2, n, 0.0, EPS)
    t = 0.4
    got = p.forcing(t)
    xs = np.arange(1, n) / n
    for i, j in [(1, 1), (3, 5), (7, 2)]:
        x, y = xs[i - 1], xs[j - 1]
        bx, by = x * (1 - x), y * (1 - y)
        expected = 10 * math.exp(t) * (bx * by + 2 * EPS * (bx + by))
        assert abs(got[_flat_index_2d(n, i, j)] - expected) <= 1e-13 * abs(expected)


def test_ridge_source_term_at_interior_node():
    # away from the boundary injection, the beta part of the source is
    # -(1 + 5 eps) e^{2x-y-t} in 2-D
    n = 8
    t = 0.25
    diff = build_problem(2, n, 1.0, EPS).forcing(t) - build_problem(
        2, n, 0.0, EPS
    ).forcing(t)
    x, y = 4 / n, 4 / n
    expected = -(1 + 5 * EPS) * math.exp(2 * x - y - t)
    idx = _flat_index_2d(n, 4, 4)
    assert abs(diff[idx] - expected) <= 1e-13 * abs(expected)


def test_forcing_full_assembly_oracle_2d():
    """Rebuild g_h + eps*h^-2*boundary independently with meshgrid arrays
    and explicit face loops."""
    n, beta, t = 8, 1.0, 0.5
    p = build_problem(2, n, beta, EPS)
    h = 1.0 / n
    xs = np.arange(1, n) * h
    X, Y = np.meshgrid(xs, xs)  # [y, x] layout, ravel gives x fastest
    bx, by = X * (1 - X), Y * (1 - Y)
    source = 10 * np.exp(t) * (bx * by + 2 * EPS * (bx + by)) - beta * (
        1 + 5 * EPS
    ) * np.exp(2 * X - Y - t)
    bound = np.zeros_like(X)
    for row in range(n - 1):
        y = xs[row]
        bound[row, 0] += beta * math.exp(2 * 0.0 - y - t)
        bound[row, -1] += beta * math.exp(2 * 1.0 - y - t)
    for col in range(n - 1):
        x = xs[col]
        bound[0, col] += beta * math.exp(2 * x - 0.0 - t)
        bound[-1, col] += beta * math.exp(2 * x - 1.0 - t)
    expected = (source + EPS / h**2 * bound).ravel()
    got = p.forcing(t)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("dim", [2, 3])
def test_time_dependent_vectors_build_their_sum_in_place(dim):
    """forcing, exact and boundary write their lead (x) plane sum straight
    into the result: nothing state-sized besides it, on a grid whose state
    (over 256 KB) dwarfs the (n, K) lead factors."""
    n_big = {2: 256, 3: 41}[dim]
    big = build_problem(dim, n_big, 1.0, EPS)
    for t in (0.0, 0.3, 1.7):
        got = []
        for fn in (big.forcing, big.exact, big.boundary):
            tracemalloc.start()
            try:
                got.append(fn(t))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.25 * got[-1].nbytes
        errs, scales = _closed_form_error(got, dim, n_big, 1.0, t)
        for err, scale in zip(errs, scales):
            assert err <= 8 * FLOAT_EPS * scale


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [2, 5, 12])
@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_vectors_match_the_long_double_closed_forms(dim, n, beta):
    """forcing, exact and boundary sit within 8 eps max|v| of the closed
    forms evaluated in long double, and no further than twice the eager
    state-sized profiles do; an eager error below one ulp of max|v| counts
    as one ulp (it is rounding noise: 0.5 ulp against 1.2 at 2-D N=12)."""
    p = build_problem(dim, n, beta, EPS)
    for t in (0.0, 0.3, 1.7):
        got = (p.forcing(t), p.exact(t), p.boundary(t))
        for g in got:
            assert g.shape == (p.op.grid.m,) and g.dtype == np.float64
        errs, scales = _closed_form_error(got, dim, n, beta, t)
        eager, _ = _closed_form_error(
            reference_problem_vectors(dim, n, beta, EPS, t), dim, n, beta, t
        )
        for name, err, old, scale in zip(("forcing", "exact", "boundary"),
                                         errs, eager, scales):
            ulp = FLOAT_EPS * scale
            assert err <= 8 * ulp, f"{name} at t={t}"
            assert err <= 2 * max(old, ulp), f"{name} at t={t}"


@pytest.mark.parametrize("dim,n", [(2, 48), (3, 24)])
def test_final_state_matches_a_run_on_the_eager_profiles(dim, n):
    """A whole run on the lead (x) plane vectors ends within 1e-13 (relative)
    of the same run whose forcing and initial state are the eager profiles."""
    p = build_problem(dim, n, 1.0, EPS)
    eager = dataclasses.replace(
        p,
        forcing=copying_forcing(lambda t: reference_problem_vectors(dim, n, 1.0, EPS, t)[0]),
        exact=lambda t: reference_problem_vectors(dim, n, 1.0, EPS, t)[1],
    )
    tau, tab = 2.0 / n, radau2a_tableau()
    got = integrate(p, amf_scheme(2), tab, tau, 1.0).y
    want = integrate(eager, amf_scheme(2), tab, tau, 1.0).y
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_problem_holds_only_the_forcing_profiles():
    """After set-up a problem keeps only its lead and plane factors: K planes
    of n^(dim-1) values for each vector (8 in all) and the (n, 4) lead, under
    1 MB at 3-D N=96 where one state is 6.9 MB."""
    for dim, n_cells in ((3, 96), (2, 384)):
        tracemalloc.start()
        try:
            build_problem(dim, n_cells, 1.0, EPS)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        n = n_cells - 1
        assert held < 8 * (10 * n ** (dim - 1) + 4 * n) + 8192
        assert held < 1e6


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_forcing_into_out_equals_the_allocating_forcing(dim, beta):
    """forcing(t, out) returns out holding forcing(t) bit for bit, writes
    only out, and allocates less than half a state (on grids of 1000+
    unknowns, where the state outweighs the (n, 4) lead)."""
    p = build_problem(dim, {2: 48, 3: 12}[dim], beta, EPS)
    data = [a for a in inspect.getclosurevars(p.forcing).nonlocals.values()
            if isinstance(a, np.ndarray)]
    assert data
    for a in data:
        a.setflags(write=False)  # any write to the forcing's data raises
    for t in (0.0, 0.3, 1.7):
        want = p.forcing(t)
        out = np.full(want.size, np.nan)
        tracemalloc.start()
        try:
            got = p.forcing(t, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got is out
        assert np.array_equal(out, want)
        assert peak < want.nbytes / 2


def test_forcing_affine_in_beta():
    n, t = 6, 0.8
    f0 = build_problem(2, n, 0.0, EPS).forcing(t)
    f1 = build_problem(2, n, 1.0, EPS).forcing(t)
    f25 = build_problem(2, n, 2.5, EPS).forcing(t)
    assert np.allclose(f25, f0 + 2.5 * (f1 - f0), rtol=0, atol=1e-11)


# ------------------------------------------------------------------- defect


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_polynomial_solution_is_spatially_exact(dim, n):
    # degree-2 profiles per direction: central differences have no error
    p = build_problem(dim, n, 0.0, EPS)
    t = 0.3
    jy = allocating(apply_full, p.op, p.exact(t))
    defect = _time_derivative(p, t) - jy - p.forcing(t)
    assert np.max(np.abs(defect)) <= 1e-8


@pytest.mark.parametrize("dim", [2, 3])
def test_ridge_defect_is_second_order(dim):
    t = 0.3
    norms = {}
    for n in (32, 64):
        p = build_problem(dim, n, 1.0, EPS)
        jy = allocating(apply_full, p.op, p.exact(t))
        defect = _time_derivative(p, t) - jy - p.forcing(t)
        norms[n] = weighted_norm(defect, p.op.grid)
    slope = math.log2(norms[32] / norms[64])
    assert abs(slope - 2.0) <= 0.1, f"dim={dim}: defect slope {slope}"
