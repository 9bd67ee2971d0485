"""Split operators: stencils, applies, factored solves, dense oracles."""

import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from amfrk import (
    FactorSolveError,
    GridSpec,
    SplitOperator,
    Stepper,
    amf_scheme,
    apply_full,
    build_problem,
    build_split_operator,
    factor_direction,
    radau2a_tableau,
    solve_pi,
)
import amfrk.splitops as splitops
from amfrk.splitops import (
    DirectionStencil,
    apply_direction,
    factor_pi,
    solve_direction_factor,
)
from helpers import (
    SizeGuardError,
    allocating,
    apply_pi,
    dense_band,
    dense_direction_matrix,
    dense_operator_matrix,
    direction_eigenvalues,
    reference_apply_full,
    reference_solve_direction,
    reference_solve_pi,
)


def _factor_with_blocks(op, j, sigma, length):
    """``factor_direction`` with each line cut into blocks of ``length``
    points: one block when length >= n, the Thomas sweep's factor when None."""
    with mock.patch.object(splitops, "_solve_block", lambda grid: length):
        return factor_direction(op, j, sigma)


def _kernel_factors(op, sigma):
    """The factors of one product solve on each kernel: as built (each line
    one block with the whole-line inverse, which every grid here is small
    enough for), with the inverses dropped, which sends the solve down the
    Thomas sweep, and with each line cut into blocks (``_block_factors``)."""
    dense = factor_pi(op, sigma)
    assert all(f.blocks.reduced.shape == (0, 0) for f in dense)
    thomas = tuple(dataclasses.replace(f, blocks=None) for f in dense)
    return {"dense": dense, "thomas": thomas, **_block_factors(op, sigma)}


def _block_factors(op, sigma):
    """Factors whose lines are cut into P >= 2 blocks of L points, the last
    of r, keyed by L: blocks of one point (r = L = 1), of two (r = L on
    even lines, r = 1 on odd ones), about half lines and lines minus one
    point (P = 2, r = 1)."""
    n = op.grid.n_interior
    lengths = sorted({1, 2, (n + 1) // 2, n - 1} & set(range(1, n)))
    out = {}
    for length in lengths:
        factors = tuple(
            _factor_with_blocks(op, j, sigma, length) for j in range(op.grid.dim)
        )
        assert all(f.blocks.reduced.shape[0] >= 2 for f in factors)  # P >= 2
        out[f"block{length}"] = factors
    return out


# ---------------------------------------------------------------- grid spec


def test_grid_spec_derived_quantities():
    g = GridSpec(dim=2, n_cells=8)
    assert g.h == 0.125
    assert g.n_interior == 7
    assert g.m == 49
    assert g.shape == (7, 7)
    g3 = GridSpec(dim=3, n_cells=4)
    assert g3.m == 27
    assert g3.shape == (3, 3, 3)


def test_grid_spec_axis_convention():
    # direction 0 is x, stored as the last (fastest) array axis
    g = GridSpec(dim=3, n_cells=4)
    assert g.axis_of_direction(0) == 2
    assert g.axis_of_direction(1) == 1
    assert g.axis_of_direction(2) == 0


@pytest.mark.parametrize("dim,n", [(0, 4), (4, 4), (2, 1), (1, 0)])
def test_grid_spec_rejects_bad_arguments(dim, n):
    with pytest.raises(ValueError):
        GridSpec(dim=dim, n_cells=n)


@pytest.mark.parametrize(
    "field,dim,n",
    [("n_cells", 2, 8.5), ("n_cells", 2, 8.0), ("n_cells", 3, np.float64(8.0)),
     ("n_cells", 2, "8"), ("dim", True, 8), ("dim", 2.0, 8), ("dim", 2.5, 8)],
)
def test_grid_spec_rejects_sizes_that_are_not_whole_numbers(field, dim, n):
    with pytest.raises(ValueError, match=rf"\b{field}="):
        GridSpec(dim=dim, n_cells=n)


def test_grid_spec_accepts_numpy_integer_sizes():
    g = GridSpec(dim=np.int64(3), n_cells=np.int32(5))
    assert g == GridSpec(dim=3, n_cells=5)
    assert g.shape == (4, 4, 4) and g.m == 64


# ----------------------------------------------------------------- stencils


def test_pure_diffusion_stencil_values():
    op = build_split_operator(GridSpec(dim=2, n_cells=4), [1.0, 1.0])
    for stc in op.stencils:
        assert (stc.sub, stc.diag, stc.sup) == (16.0, -32.0, 16.0)


def test_advection_at_cell_peclet_limit():
    op = build_split_operator(
        GridSpec(dim=2, n_cells=4), [1.0, 1.0], advection=[8.0, 0.0]
    )
    x = op.stencils[0]
    assert (x.sub, x.diag, x.sup) == (0.0, -32.0, 32.0)


def test_reaction_share_spread_across_directions():
    # kappa enters each direction's diagonal as kappa/d so the sum carries it once
    g = GridSpec(dim=3, n_cells=4)
    op = build_split_operator(g, [1.0, 1.0, 1.0], reaction=6.0)
    for stc in op.stencils:
        assert stc.diag == -32.0 + 2.0
    dense = dense_operator_matrix(op)
    plain = dense_operator_matrix(build_split_operator(g, [1.0, 1.0, 1.0]))
    assert np.allclose(dense, plain + 6.0 * np.eye(g.m), rtol=0, atol=1e-12)


def test_scalar_coefficients_broadcast():
    g = GridSpec(dim=3, n_cells=4)
    op = build_split_operator(g, 0.1)
    assert len(op.stencils) == 3
    assert op.stencils[0] == op.stencils[2]
    # one advection value spreads to every direction by the same rule
    op = build_split_operator(g, [0.1, 0.2, 0.3], advection=2.0)
    assert op.stencils == build_split_operator(g, [0.1, 0.2, 0.3], [2.0] * 3).stencils
    assert op.stencils[0].sup - op.stencils[0].sub == 2.0 / g.h


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(diffusion=[1.0, 1.0, 1.0]),  # wrong length for 2-D
        dict(diffusion=[1.0, -1.0]),
        dict(diffusion=[1.0, 0.0]),
        dict(diffusion=[1.0, 1.0], advection=[1.0, 2.0, 3.0]),
        dict(diffusion=[1.0, np.nan]),
        dict(diffusion=[np.inf, 1.0]),
        dict(diffusion=[1.0, 1.0], advection=[np.nan, 0.0]),
        dict(diffusion=[1.0, 1.0], advection=[0.0, -np.inf]),
        dict(diffusion=[1.0, 1.0], reaction=np.nan),
        dict(diffusion=[1.0, 1.0], reaction=np.inf),
        dict(diffusion=[]),
        dict(diffusion=-1.0),  # one value spreads, then must be positive
        dict(diffusion=1.0, advection=np.inf),
        dict(diffusion=[1.0, 1e308]),  # finite, but D/h^2 overflows
    ],
)
def test_build_rejects_bad_coefficients(kwargs):
    # the error names the bad list: the last one given
    with pytest.raises(ValueError, match=rf"^(need 2 )?{list(kwargs)[-1]} coefficient"):
        build_split_operator(GridSpec(dim=2, n_cells=4), **kwargs)


def test_operator_requires_one_stencil_per_direction():
    stc = DirectionStencil(sub=1.0, diag=-2.0, sup=1.0)
    with pytest.raises(ValueError):
        SplitOperator(grid=GridSpec(dim=2, n_cells=4), stencils=(stc,))


# ----------------------------------------------------------- direct applies


def test_apply_full_on_basis_vector():
    # 2-D, N=4, unit diffusion: node 1 gets both diagonals, neighbors get offdiag
    g = GridSpec(dim=2, n_cells=4)
    op = build_split_operator(g, [1.0, 1.0])
    v = np.zeros(g.m)
    v[0] = 1.0
    out = allocating(apply_full, op, v)
    expected = np.zeros(g.m)
    expected[0] = -64.0
    expected[1] = 16.0  # x neighbor
    expected[3] = 16.0  # y neighbor (stride N-1 = 3)
    assert np.array_equal(out, expected)


def test_x_direction_acts_on_fastest_index():
    """Independent Kronecker pin of the flattening convention."""
    g = GridSpec(dim=2, n_cells=5)
    op = build_split_operator(g, [1.0, 2.0], advection=[3.0, 0.5])
    n = g.n_interior
    jx = np.kron(np.eye(n), dense_band(op, 0))  # x fastest -> x block innermost
    jy = np.kron(dense_band(op, 1), np.eye(n))
    rng = np.random.default_rng(7)
    v = rng.standard_normal(g.m)
    assert np.allclose(allocating(apply_direction, op, 0, v), jx @ v, rtol=0, atol=1e-12)
    assert np.allclose(allocating(apply_direction, op, 1, v), jy @ v, rtol=0, atol=1e-12)
    assert np.allclose(dense_direction_matrix(op, 0), jx, rtol=0, atol=0)
    assert np.allclose(dense_direction_matrix(op, 1), jy, rtol=0, atol=0)


@pytest.mark.parametrize("dim,n", [(1, 6), (2, 6), (3, 4)])
def test_apply_full_matches_dense_assembly(dim, n):
    g = GridSpec(dim=dim, n_cells=n)
    op = build_split_operator(
        g, [1.0 + 0.25 * j for j in range(dim)], advection=[0.5] * dim, reaction=1.5
    )
    dense = dense_operator_matrix(op)
    rng = np.random.default_rng(dim * 10 + n)
    v = rng.standard_normal(g.m)
    scale = np.max(np.abs(dense @ v))
    assert np.max(np.abs(allocating(apply_full, op, v) - dense @ v)) <= 1e-12 * scale


def test_apply_full_is_sum_of_directions():
    g = GridSpec(dim=3, n_cells=5)
    op = build_split_operator(g, [0.3, 0.7, 1.1])
    rng = np.random.default_rng(3)
    v = rng.standard_normal(g.m)
    total = sum(allocating(apply_direction, op, j, v) for j in range(3))
    assert np.allclose(allocating(apply_full, op, v), total, rtol=0, atol=1e-12)


def test_apply_zero_vector():
    op = build_split_operator(GridSpec(dim=2, n_cells=6), [1.0, 1.0])
    assert np.array_equal(allocating(apply_full, op, np.zeros(25)), np.zeros(25))


# ---------------------------------------------------------- factored solves


def test_solve_with_zero_shift_is_identity():
    g = GridSpec(dim=2, n_cells=6)
    op = build_split_operator(g, [1.0, 1.0])
    rng = np.random.default_rng(0)
    v = rng.standard_normal(g.m)
    out = solve_direction_factor(op, 0, 0.0, v)
    assert np.array_equal(out, v)
    assert out is not v  # fresh array, caller may mutate


def test_single_point_grid_solves_scalar_equation():
    g = GridSpec(dim=2, n_cells=2)  # one interior point
    op = build_split_operator(g, [1.0, 1.0])
    sigma = 0.05
    rhs = np.array([3.0])
    out = solve_direction_factor(op, 1, sigma, rhs)
    assert np.allclose(out, rhs / (1.0 - sigma * op.stencils[1].diag))


@pytest.mark.parametrize("dim,n", [(2, 8), (3, 5)])
def test_direction_solve_matches_dense(dim, n):
    g = GridSpec(dim=dim, n_cells=n)
    op = build_split_operator(g, [1.0] * dim, advection=[1.0] * dim)
    sigma = 0.02
    rng = np.random.default_rng(n)
    rhs = rng.standard_normal(g.m)
    for j in range(dim):
        dense = np.eye(g.m) - sigma * dense_direction_matrix(op, j)
        assert np.allclose(
            solve_direction_factor(op, j, sigma, rhs),
            np.linalg.solve(dense, rhs),
            rtol=0,
            atol=1e-12,
        )


def test_factored_solve_matches_dense_product_solve():
    g = GridSpec(dim=2, n_cells=6)
    op = build_split_operator(g, [0.1, 0.1])
    sigma = 0.03
    eye = np.eye(g.m)
    pi_dense = (eye - sigma * dense_direction_matrix(op, 0)) @ (
        eye - sigma * dense_direction_matrix(op, 1)
    )
    rng = np.random.default_rng(11)
    rhs = rng.standard_normal(g.m)
    assert np.allclose(
        allocating(solve_pi, op, sigma, rhs),
        np.linalg.solve(pi_dense, rhs),
        rtol=0,
        atol=1e-10,
    )


@pytest.mark.parametrize("dim,n", [(1, 7), (2, 6), (3, 4)])
def test_product_solve_pairs_each_factor_with_its_axis(dim, n):
    """Distinct stencils per direction: a factor swept along the wrong axis
    after a layout roll would show here."""
    g = GridSpec(dim=dim, n_cells=n)
    diffusion = [0.05 * (j + 1) for j in range(dim)]
    op = build_split_operator(g, diffusion, advection=[0.3 * j - 0.4 for j in range(dim)])
    sigma = 0.07
    eye = np.eye(g.m)
    pi_dense = eye
    for j in range(dim):
        pi_dense = pi_dense @ (eye - sigma * dense_direction_matrix(op, j))
    rhs = np.random.default_rng(dim).standard_normal(g.m)
    want = np.linalg.solve(pi_dense, rhs)
    for kernel, factors in _kernel_factors(op, sigma).items():
        err = np.max(np.abs(allocating(solve_pi, op, sigma, rhs, factors) - want))
        assert err <= 1e-12 * np.max(np.abs(want)), kernel


@pytest.mark.parametrize("kernel", ["thomas", "line", "blocks"])
@pytest.mark.parametrize("dim,n", [(1, 1025), (2, 257), (3, 33)])
def test_step_kernels_work_in_the_buffers_they_are_given(dim, n, kernel):
    """The product solve overwrites rhs and returns the buffer that holds x,
    rhs for even d and work for odd d, on each kernel: the Thomas sweep,
    lines cut into blocks of 16 and one whole-line block.  It and the J
    apply allocate less than half a state: a Thomas row, a block solve's
    neighbour terms, NumPy's iteration buffer.  A 1-D Thomas sweep is
    exempt from the bound: its rows are single points, whose views
    outweigh the state."""
    g = GridSpec(dim=dim, n_cells=n)
    op = build_split_operator(g, [0.5 + 0.25 * j for j in range(dim)], advection=[1.0] * dim)
    sigma = 0.01
    length = {"thomas": None, "line": n - 1, "blocks": 16}[kernel]
    factors = tuple(_factor_with_blocks(op, j, sigma, length) for j in range(dim))
    for f in factors:
        assert kernel == "thomas" if f.blocks is None else (
            "blocks" if f.blocks.reduced.size else "line")
    rhs = np.random.default_rng(dim).standard_normal(g.m)
    x, work, out = rhs.copy(), np.empty_like(rhs), np.empty_like(rhs)
    got = solve_pi(op, sigma, x, factors, work)
    assert got is (work if dim % 2 else x)
    want = reference_solve_pi(op, sigma, rhs)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    want = reference_apply_full(op, rhs)
    assert np.max(np.abs(apply_full(op, rhs, out, work) - want)) <= 1e-12 * np.max(np.abs(want))
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        solve_pi(op, sigma, x, factors, work)
        apply_full(op, rhs, out, work)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    if (dim, kernel) != (1, "thomas"):
        assert peak < rhs.nbytes / 2


def test_stepper_owns_its_factors():
    problem = build_problem(2, 6, 0.0)
    op = problem.op
    fields = dict(vars(op))
    scheme, tab = amf_scheme(2), radau2a_tableau()
    stepper = Stepper(problem, scheme, tab, 0.1)
    assert len(stepper.factors) == op.grid.dim
    assert all(f.sigma == scheme.gamma * 0.1 for f in stepper.factors)
    for k in range(200):
        Stepper(problem, scheme, tab, 0.001 * (k + 1))
    # factors live on the steppers, so the frozen operator gains nothing
    assert vars(op) == fields
    assert op == build_problem(2, 6, 0.0).op


def test_vanishing_pivot_raises():
    # pure-reaction stencil: 1 - sigma*diag = 0 kills the first pivot
    grid = GridSpec(dim=1, n_cells=4)
    op = SplitOperator(grid=grid, stencils=(DirectionStencil(0.0, 2.0, 0.0),))
    with pytest.raises(FactorSolveError):
        factor_direction(op, 0, 0.5)


def test_vanishing_pivot_raises_before_the_inverse_is_built(monkeypatch):
    grid = GridSpec(dim=1, n_cells=4)
    op = SplitOperator(grid=grid, stencils=(DirectionStencil(0.0, 2.0, 0.0),))

    class Built(Exception):
        pass

    def sweep(*args):
        raise Built

    monkeypatch.setattr(splitops, "_sweep", sweep)
    with pytest.raises(Built):  # a regular shift on this grid builds one
        factor_direction(op, 0, 0.25)
    with pytest.raises(FactorSolveError):
        factor_direction(op, 0, 0.5)


def test_vanishing_pivot_raises_before_the_block_inverses_are_built(monkeypatch):
    # pivots 1, 2/3, 1/2, 1/3, 0: every leading 3 x 3 block is regular, the
    # line of 7 points is singular at its fifth pivot
    grid = GridSpec(dim=1, n_cells=8)
    op = SplitOperator(grid=grid, stencils=(DirectionStencil(1.0 / 3.0, 0.0, 1.0),))

    class Built(Exception):
        pass

    def build(*args):
        raise Built

    # the block inverses, then the reduced system's inverse
    for module, name in ((splitops, "_sweep"), (np.linalg, "inv")):
        with monkeypatch.context() as patch:
            patch.setattr(module, name, build)
            with pytest.raises(Built):  # a regular shift builds the inverses
                _factor_with_blocks(op, 0, 0.5, 3)
            with pytest.raises(FactorSolveError, match="row 4"):
                _factor_with_blocks(op, 0, 1.0, 3)


def test_factors_compare_by_identity():
    op = build_split_operator(GridSpec(dim=2, n_cells=6), [1.0, 1.0])
    a, b = factor_direction(op, 0, 0.1), factor_direction(op, 0, 0.1)
    assert a == a and a != b  # ndarray fields would make == ambiguous
    assert len({a, b, a}) == 2


def test_one_off_direction_solve_sweeps_once(monkeypatch):
    # a grid within the dense limit: the one-off solve must not build (and
    # then ignore) the dense inverse, whose build is a sweep of its own
    op = build_split_operator(
        GridSpec(dim=2, n_cells=24), [1.0, 0.5], advection=[1.0, -2.0]
    )
    assert splitops._solve_block(op.grid) == op.grid.n_interior
    sigma = 0.01
    rhs = np.random.default_rng(5).standard_normal(op.grid.m)
    sweeps = []
    sweep = splitops._sweep
    monkeypatch.setattr(
        splitops, "_sweep", lambda *args: sweeps.append(1) or sweep(*args)
    )
    for j in range(2):
        got = solve_direction_factor(op, j, sigma, rhs)
        assert len(sweeps) == j + 1
        want = reference_solve_direction(op, j, sigma, rhs)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "dim,n,dense",
    [
        (1, 257, True),  # n = 256: the largest inverse
        (1, 258, False),
        (2, 24, True),
        (2, 48, True),
        (2, 81, True),  # n = 80: the longest 2-D whole line
        (2, 82, False),
        (2, 96, False),
        (2, 192, False),
        (2, 257, False),
        (2, 258, False),
        (2, 384, False),  # the long lines of the 2-D beta=1 run
        (3, 24, True),
        (3, 27, True),  # n = 26: the longest 3-D whole line
        (3, 28, False),
        (3, 48, False),
        (3, 96, False),
    ],
)
def test_dense_inverse_selection(dim, n, dense):
    """Short grid lines get the whole-line inverse (n*m multiply-adds per
    product within 2^19, never above 256 x 256); the sizes alone decide."""
    op = build_split_operator(GridSpec(dim=dim, n_cells=n), [1.0] * dim)
    for fac in factor_pi(op, 0.01):
        one_block = fac.blocks is not None and fac.blocks.reduced.shape == (0, 0)
        assert one_block == dense
        if dense:
            assert fac.blocks.last_t.shape == (n - 1, n - 1)
            assert fac.blocks.last_t.flags.c_contiguous
            assert fac.n <= 256


@pytest.mark.parametrize(
    "dim,n,kernel",
    [
        (1, 257, "dense"),
        (1, 258, "block"),  # 257 points: 10 blocks of 24 and one of 17
        (2, 81, "dense"),
        (2, 82, "block"),
        (2, 96, "block"),
        (2, 192, "block"),
        (2, 256, "block"),
        (2, 384, "block"),  # the 2-D beta=1 run: 15 blocks of 24, one of 23
        (2, 768, "block"),
        (2, 1024, "block"),
        (2, 1025, "block"),  # n = 1024: the longest block line
        (2, 1026, "thomas"),
        (3, 27, "dense"),
        (3, 32, "block"),
        (3, 48, "block"),
        (3, 64, "block"),
        (3, 65, "block"),  # 64^2 lines per direction: the most for blocks
        (3, 66, "thomas"),
        (3, 96, "thomas"),
    ],
)
def test_product_solve_kernel_selection(dim, n, kernel):
    """One matrix product per direction where the whole line inverse is
    small, blocks on longer lines while a direction has at most 4096 of
    them, and the Thomas sweep on large 3-D grids and 2-D lines of more
    than 1024 points; the sizes alone decide."""
    op = build_split_operator(GridSpec(dim=dim, n_cells=n), [1.0] * dim)
    length = splitops._solve_block(op.grid)
    for fac in factor_pi(op, 0.01):
        if fac.blocks is None:
            got = "thomas"
        elif fac.blocks.reduced.shape == (0, 0):  # one block: the whole line
            got = "dense"
            assert length == n - 1
            assert fac.blocks.last_t.shape == (n - 1, n - 1)
            assert fac.blocks.last_t.flags.c_contiguous
        else:
            got = "block"
            interfaces = (n - 2) // length  # P - 1
            last = n - 1 - interfaces * length
            assert 1 <= last <= length < n - 1
            assert fac.blocks.inv_t.shape == (length, length)
            assert fac.blocks.last_t.shape == (last, last)
            assert fac.blocks.ends.shape == (2, length)
            assert fac.blocks.reduced.shape == (2 * interfaces, 2 * interfaces)
        assert got == kernel


@pytest.mark.parametrize(
    "dim,n,length",
    [(1, 258, 24), (2, 96, 24), (2, 384, 24), (2, 1024, 24), (3, 32, 24),
     (3, 48, 16), (3, 64, 8)],
)
def test_block_length_selection(dim, n, length):
    """Blocks of 8, 16 or 24 points, whichever puts a block's right-hand
    side (length x lines per direction) nearest 2^15 entries."""
    assert splitops._solve_block(GridSpec(dim=dim, n_cells=n)) == length


@pytest.mark.parametrize("n", [12, 21])
def test_reduced_interface_terms_equal_the_spike_row_products(n):
    """The neighbour terms that the block solve adds to the blocks' first and
    last rows, in place, are the products of the right-hand side with rows
    kL-1 and kL of the dense line inverse, times -lo and -up, for block
    lengths from three points to the line minus one, advective stencils and
    complex shifts; no other row changes.  (A block of one point has one row
    for both terms; the solve tests cover L = 1 and L = 2.)"""
    op = build_split_operator(
        GridSpec(dim=2, n_cells=n), [0.7, 0.3], advection=[1.6 * n, -0.5 * n]
    )
    size = n - 1
    rows = np.random.default_rng(n).standard_normal((size, 3))
    for j in range(2):
        st = op.stencils[j]
        for sigma in (0.03, 0.03 * (1.0 - 0.8j)):
            inv = np.linalg.inv(np.eye(size) - sigma * dense_band(op, j))
            for length in sorted({3, -(-size // 2), size - 1}):
                k = np.arange(length, size, length)  # first points of blocks 1 ..
                # rows kL-1 and kL of the line inverse, times -lo and -up
                spikes = np.stack(
                    [sigma * st.sub * inv[k - 1], sigma * st.sup * inv[k]], 1
                )
                want = spikes @ rows
                blocks = _factor_with_blocks(op, j, sigma, length).blocks
                got = rows.astype(blocks.inv_t.dtype)
                splitops._block_solve(blocks, got, np.empty(got.T.shape, got.dtype))
                got -= rows
                # -lo terms in the first rows of blocks 1 .., -up in the last of 0 ..
                for terms, at in ((want[:, 0], k), (want[:, 1], k - 1)):
                    err = np.max(np.abs(got[at] - terms))
                    assert err <= 1e-13 * np.max(np.abs(want)), (j, sigma, length)
                assert not np.delete(got, np.r_[k - 1, k], axis=0).any()


def test_complex_shift_solves_in_complex_buffers():
    """A complex shift's factors are complex: every kernel refuses real
    buffers, and a real right-hand side in complex ones comes back complex."""
    g = GridSpec(dim=2, n_cells=9)
    op = build_split_operator(g, [1.0, 0.5], advection=[1.0, -2.0])
    sigma = 0.01 * complex(1.0, 0.5)
    rhs = np.random.default_rng(4).standard_normal(g.m)
    kernels = _kernel_factors(op, sigma)
    assert len(kernels) == 6  # dense, Thomas and blocks of 1, 2, 4 and 7 points
    want = reference_solve_pi(op, sigma, rhs)
    for kernel, factors in kernels.items():
        with pytest.raises(TypeError):
            solve_pi(op, sigma, rhs.copy(), factors, np.empty_like(rhs))
        x = rhs.astype(complex)
        got = solve_pi(op, sigma, x, factors, np.empty_like(x))
        assert np.abs(got.imag).max() > 0.0, kernel
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), kernel


def test_solve_accepts_complex_right_side():
    g = GridSpec(dim=2, n_cells=5)
    op = build_split_operator(g, [1.0, 1.0])
    rng = np.random.default_rng(2)
    rhs = rng.standard_normal(g.m) + 1j * rng.standard_normal(g.m)
    out = allocating(solve_pi, op, 0.01, rhs)
    back = apply_pi(op, 0.01, out)
    assert np.max(np.abs(back - rhs)) <= 1e-12 * np.max(np.abs(rhs))


# ------------------------------------------------------------- eigenvalues


def test_direction_eigenvalues_closed_form_n4():
    op = build_split_operator(GridSpec(dim=2, n_cells=4), [1.0, 1.0])
    lam = direction_eigenvalues(op, 0)
    expected = -32.0 + 32.0 * np.cos(np.arange(1, 4) * np.pi / 4)
    assert np.allclose(lam, expected, rtol=0, atol=1e-12)
    assert np.allclose(lam, [-9.372583, -32.0, -54.627417], atol=1e-6)


def test_direction_eigenvalues_match_dense_band():
    g = GridSpec(dim=1, n_cells=6)
    op = build_split_operator(g, [1.0], advection=[1.0])
    dense = dense_direction_matrix(op, 0)  # 1-D: the band itself
    got = np.sort(direction_eigenvalues(op, 0))
    ref = np.sort(np.linalg.eigvals(dense).real)
    assert np.max(np.abs(got - ref)) <= 1e-10


@pytest.mark.parametrize("n", [4, 9, 16])
def test_spectrum_nonpositive_without_advection(n):
    op = build_split_operator(GridSpec(dim=2, n_cells=n), [1.0, 2.0], reaction=-1.0)
    for j in range(2):
        assert np.all(direction_eigenvalues(op, j) <= 0.0)


def test_eigenvalues_refuse_complex_regime():
    # past the cell-Peclet limit sub*sup < 0 and the real closed form is wrong
    op = build_split_operator(
        GridSpec(dim=2, n_cells=4), [1.0, 1.0], advection=[10.0, 0.0]
    )
    with pytest.raises(ValueError):
        direction_eigenvalues(op, 0)
    direction_eigenvalues(op, 1)  # clean direction still fine


# -------------------------------------------------------------- dense guard


def test_dense_oracles_guarded():
    op = build_split_operator(GridSpec(dim=2, n_cells=20), [1.0, 1.0])
    with pytest.raises(SizeGuardError):
        dense_direction_matrix(op, 0)
    with pytest.raises(SizeGuardError):
        dense_operator_matrix(op)


@pytest.mark.parametrize("dim,n", [(2, 8), (3, 4)])
def test_directions_commute_exactly(dim, n):
    """Kronecker structure makes the dense commutators structurally zero."""
    g = GridSpec(dim=dim, n_cells=n)
    op = build_split_operator(
        g, [1.0 + j for j in range(dim)], advection=[0.3] * dim, reaction=0.7
    )
    mats = [dense_direction_matrix(op, j) for j in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            comm = mats[i] @ mats[j] - mats[j] @ mats[i]
            assert np.all(comm == 0.0)


# ---------------------------------------------------------- layout round trip


@pytest.mark.parametrize("dim,n", [(1, 5), (2, 5), (3, 4)])
def test_roll_layout_round_trip(dim, n):
    """At sigma = 0 every factor is the identity, so a product solve is just
    its d cyclic axis rolls, which must restore the natural layout."""
    g = GridSpec(dim=dim, n_cells=n)
    op = build_split_operator(g, [1.0] * dim)
    v = np.arange(g.m, dtype=float)
    for factors in _kernel_factors(op, 0.0).values():
        assert np.array_equal(allocating(solve_pi, op, 0.0, v, factors), v)


# ------------------------------------------------------------ cache blocks


@pytest.mark.parametrize(
    "dim,n",
    [(1, 2), (1, 12), (1, 2**17), (2, 2), (2, 12), (2, 258), (2, 300), (3, 8), (3, 97)],
)
def test_state_blocks_tile_the_state(dim, n):
    """state_blocks is a non-empty tuple of slices of the leading axis that
    run in order, each starting where the last stopped, and cover range(n)
    with no stop past n; a 1-D grid, or one of at most _STATE_BLOCK
    unknowns, is one block."""
    g = GridSpec(dim=dim, n_cells=n)
    blocks = g.state_blocks
    assert isinstance(blocks, tuple) and blocks
    stop = 0
    for b in blocks:
        assert isinstance(b, slice) and b.step is None
        assert b.start == stop < b.stop <= g.n_interior
        stop = b.stop
    assert stop == g.n_interior
    assert (len(blocks) == 1) == (dim == 1 or g.m <= splitops._STATE_BLOCK)


def test_state_blocks_follow_the_block_constant_of_the_moment(monkeypatch):
    """The blocks are derived on each access: a grid built before the block
    constant is patched takes the patched blocks, and an equal grid the
    same ones."""
    g = GridSpec(dim=3, n_cells=11)
    assert g.state_blocks == (slice(0, 10),)
    monkeypatch.setattr(splitops, "_STATE_BLOCK", 3 * 10**2)
    assert g.state_blocks == GridSpec(3, 11).state_blocks
    assert g.state_blocks == (slice(0, 3), slice(3, 6), slice(6, 9), slice(9, 10))


@pytest.mark.parametrize("dim,n", [(2, 12), (2, 300), (3, 42)])
def test_kernels_leave_the_grid_holding_only_its_sizes(dim, n):
    """The J applies and the product solves (Thomas, and the rule's own
    kernel: one line block, or blocks of a cut line), over one state block
    or several, store nothing on the frozen grid: its instance holds dim and
    n_cells alone."""
    g = GridSpec(dim=dim, n_cells=n)
    op = build_split_operator(g, [0.4] * dim, advection=[1.0] * dim)
    v = np.cos(np.arange(g.m))
    allocating(apply_full, op, v)
    allocating(apply_direction, op, dim - 1, v)
    splitops._add_full(op, v, v.copy(), np.empty_like(v))
    thomas = tuple(splitops._factor_lu(op, j, 0.02) for j in range(dim))
    allocating(solve_pi, op, 0.02, v, thomas)
    allocating(solve_pi, op, 0.02, v, factor_pi(op, 0.02))
    assert vars(g) == {"dim": dim, "n_cells": n}


def _pass_results(monkeypatch, dim, n, block, vectors):
    """The operator and every blocked kernel's results with the block
    constant patched to ``block`` unknowns: J applies of an advective,
    reactive operator, out += J v, and Thomas product solves at a real and a
    complex shift."""
    monkeypatch.setattr(splitops, "_STATE_BLOCK", block)
    monkeypatch.setattr(splitops, "_solve_block", lambda grid: None)
    g = GridSpec(dim=dim, n_cells=n)
    diff = [0.4 + 0.3 * j for j in range(dim)]
    adv = [(-1) ** j * 1.5 * dj * n for j, dj in enumerate(diff)]
    op = build_split_operator(g, diff, advection=adv, reaction=-0.6)
    results = []
    for v in vectors:
        results.append(allocating(apply_full, op, v))
        results.extend(allocating(apply_direction, op, j, v) for j in range(dim))
        acc = np.cos(np.arange(g.m)).astype(v.dtype)
        splitops._add_full(op, v, acc, np.empty_like(acc))
        results.append(acc)
        for sigma in (0.02, 0.02 * (1.0 + 0.7j)):
            factors = factor_pi(op, sigma)
            assert all(f.blocks is None for f in factors)
            results.append(allocating(solve_pi, op, sigma, v, factors))
    return op, results


def _pass_references(op, vectors):
    """``_pass_results`` in the same order from the reference kernels."""
    results = []
    for v in vectors:
        results.append(reference_apply_full(op, v))
        results.extend(dense_direction_matrix(op, j) @ v for j in range(op.grid.dim))
        results.append(np.cos(np.arange(op.grid.m)) + reference_apply_full(op, v))
        for sigma in (0.02, 0.02 * (1.0 + 0.7j)):
            results.append(reference_solve_pi(op, sigma, v))
    return results


@pytest.mark.parametrize("dim,n", [(1, 12), (2, 10), (3, 8)])
@pytest.mark.parametrize("size", ["unit", "plane", "2.5planes", "m-1"])
def test_blocked_passes_equal_the_one_block_passes(monkeypatch, dim, n, size):
    """Blocks change no arithmetic: each kernel's result is bitwise its
    one-block result, whether a block is one plane (the constant 1 rounds
    up to it), two planes and a shorter last block, or all but one plane.
    A 1-D state, whose planes are single unknowns, is never cut.  The
    one-block results match the reference kernels."""
    k = n - 1  # planes of the slowest axis
    plane, m = k ** (dim - 1), k**dim
    block = {"unit": 1, "plane": plane, "2.5planes": int(2.5 * plane), "m-1": m - 1}[size]
    rng = np.random.default_rng(dim * n)
    vectors = [rng.standard_normal(m), rng.standard_normal(m) * (1 - 0.5j)]
    op, want = _pass_results(monkeypatch, dim, n, m, vectors)
    assert len(op.grid.state_blocks) == 1
    for i, (a, b) in enumerate(zip(want, _pass_references(op, vectors), strict=True)):
        assert a.dtype == b.dtype and np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), i
    op, got = _pass_results(monkeypatch, dim, n, block, vectors)
    blocks = op.grid.state_blocks
    if dim == 1:
        assert len(blocks) == 1
    else:
        per_block = max(1, block // plane)
        assert len(blocks) == -(-k // per_block) >= 2
        sizes = [(b.stop - b.start) * plane for b in blocks]
        assert sizes[:-1] == [per_block * plane] * (len(blocks) - 1)
    for i, (a, b) in enumerate(zip(got, want)):
        assert a.dtype == b.dtype and np.array_equal(a, b), i


# ------------------------------------------------------------- properties


@st.composite
def _grid_and_vectors(draw, count=1):
    dim = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=2, max_value=6 if dim == 3 else 9))
    g = GridSpec(dim=dim, n_cells=n)
    elems = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, width=64)
    vecs = [draw(hnp.arrays(np.float64, g.m, elements=elems)) for _ in range(count)]
    return g, vecs


@given(data=_grid_and_vectors(count=2), sigma=st.floats(0.0, 0.01))
@settings(max_examples=60, deadline=None)
def test_factor_solve_linearity(data, sigma):
    g, (u, v) = data
    op = build_split_operator(g, [1.0] * g.dim)
    a, b = 2.25, -0.5
    lhs = allocating(solve_pi, op, sigma, a * u + b * v)
    rhs = a * allocating(solve_pi, op, sigma, u) + b * allocating(solve_pi, op, sigma, v)
    scale = 1.0 + np.max(np.abs(lhs))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


@given(data=_grid_and_vectors(), sigma=st.floats(0.0, 0.05))
@settings(max_examples=60, deadline=None)
def test_apply_then_solve_round_trip(data, sigma):
    g, (v,) = data
    op = build_split_operator(g, [1.0] * g.dim)
    out = allocating(solve_pi, op, sigma, apply_pi(op, sigma, v))
    # shifted factors are diagonally dominant for sigma >= 0, so this is tame
    scale = 1.0 + np.max(np.abs(v))
    assert np.max(np.abs(out - v)) <= 1e-10 * scale


@given(data=_grid_and_vectors(count=2))
@settings(max_examples=60, deadline=None)
def test_apply_full_linearity(data):
    g, (u, v) = data
    op = build_split_operator(g, [0.5] * g.dim, advection=[0.25] * g.dim)
    lhs = allocating(apply_full, op, 1.5 * u - 2.0 * v)
    rhs = 1.5 * allocating(apply_full, op, u) - 2.0 * allocating(apply_full, op, v)
    scale = 1.0 + np.max(np.abs(lhs))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


@st.composite
def _stencil_problem(draw):
    """Random well-posed shifted systems: any dimension, possibly
    non-symmetric (advection up to cell Peclet 1.9), possibly a complex shift."""
    dim = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=2, max_value=8 if dim == 3 else 20))
    g = GridSpec(dim=dim, n_cells=n)
    diff = [draw(st.floats(0.05, 2.0)) for _ in range(dim)]
    adv = [draw(st.floats(-1.9, 1.9)) * dj * n for dj in diff]
    kappa = draw(st.floats(-2.0, 0.0))
    op = build_split_operator(g, diff, advection=adv, reaction=kappa)
    sigma = draw(st.floats(1e-4, 0.05))
    if draw(st.booleans()):
        sigma = sigma * complex(1.0, draw(st.floats(-1.0, 1.0)))
    seed = draw(st.integers(0, 2**16))
    return op, sigma, np.random.default_rng(seed).standard_normal(g.m)


@given(case=_stencil_problem())
@settings(max_examples=80, deadline=None)
def test_solves_match_row_loop_reference(case):
    op, sigma, rhs = case
    want = reference_solve_pi(op, sigma, rhs)
    tol = 1e-13 * np.max(np.abs(want))
    for kernel, factors in _kernel_factors(op, sigma).items():
        got = allocating(solve_pi, op, sigma, rhs, factors)
        assert np.max(np.abs(got - want)) <= tol, kernel
    for j in range(op.grid.dim):
        want = reference_solve_direction(op, j, sigma, rhs)
        got = solve_direction_factor(op, j, sigma, rhs)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
