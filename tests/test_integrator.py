"""One-step map, dense reference oracle, and the fixed-step driver."""

import dataclasses
import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import amfrk.integrator as integrator
import amfrk.splitops as splitops
from amfrk import (
    NonFiniteStateError,
    Stepper,
    amf_scheme,
    build_problem,
    combine_zw,
    integrate,
    radau2a_tableau,
    stability_function,
    weighted_norm,
)
from amfrk.integrator import amf_step
from amfrk.splitops import LineBlocks, TridiagFactor
from helpers import (
    copying_forcing,
    direction_eigenvalues,
    extended_scheme,
    frozen_forcing_problem,
    irk_reference_step,
    reference_integrate,
    residual,
    scalar_problem,
)

TAB = radau2a_tableau()
SCHEMES = [amf_scheme(q) for q in (1, 2, 3)]
EXT5 = extended_scheme(SCHEMES[0], 5)  # three middle sweeps


def _radau_growth(z):
    return (1 + z / 3) / (1 - 2 * z / 3 + z**2 / 6)


# ----------------------------------------------------------------- residual


def test_predictor_residual_closed_form():
    # y' = lam*y, stages seeded at y_n: D_i = tau*lam*c_i*y_n
    lam, tau, y = -0.7, 0.25, 2.0
    prob = scalar_problem(lam)
    y_n = np.array([y])
    stages = np.array([y_n, y_n])
    d = residual(prob, TAB, 0.0, tau, y_n, stages)
    expected = tau * lam * TAB.c * y
    assert np.allclose(d[:, 0], expected, rtol=1e-14, atol=0)


def test_zero_state_zero_forcing_residual():
    prob = frozen_forcing_problem(build_problem(2, 6, 0.0))
    z = np.zeros(prob.op.grid.m)
    d = residual(prob, TAB, 0.0, 0.1, z, np.array([z, z]))
    assert np.array_equal(d, np.zeros((2, prob.op.grid.m)))


def test_exact_stages_have_vanishing_residual():
    prob = build_problem(2, 6, 1.0)
    y0 = prob.exact(0.0)
    tau = 0.125
    _, stages = irk_reference_step(prob, TAB, 0.0, tau, y0, return_stages=True)
    d = residual(prob, TAB, 0.0, tau, y0, stages)
    assert np.max(np.abs(d)) <= 1e-11 * max(1.0, np.max(np.abs(stages)))


def test_residual_validates_arguments():
    prob = build_problem(2, 6, 0.0)
    y = prob.exact(0.0)
    with pytest.raises(ValueError):
        residual(prob, TAB, 0.0, -0.1, y, np.array([y, y]))
    with pytest.raises(ValueError):
        residual(prob, TAB, 0.0, 0.1, y, np.array([y, y, y]))


# ----------------------------------------------------------- scalar oracles


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.name)
def test_scalar_step_equals_stability_function(scheme):
    lam, tau = -1.0, 0.1
    prob = scalar_problem(lam)
    got = amf_step(prob, scheme, TAB, 0.0, tau, np.array([1.0]))[0]
    want = stability_function(scheme, TAB, tau * lam, tau * lam)
    assert abs(got - want) <= 1e-14


@pytest.mark.parametrize("zs", [
    (-0.3 + 0.2j, -2.0 - 1.0j),
    (-40.0 + 25.0j, -1e-3 + 0.0j),
    (-0.5 + 0.1j, -7.0 - 3.0j, -1e3 + 600.0j),
    (-1e5 - 5e4j, -1e5 + 5e4j, -2.0 + 0.0j),
], ids=["d2-moderate", "d2-stiff", "d3-mixed", "d3-stiff"])
@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.name)
def test_split_scalar_step_equals_stability_function_at_combined_zw(scheme, zs):
    # one unknown per direction: the step's product solve is the one factor
    # prod_k (1 - gamma*z_k) = 1 - gamma*w that the wedge scan's w stands for
    tau = 0.5
    prob = scalar_problem(np.array(zs) / tau)
    got = Stepper(prob, scheme, TAB, tau).step(0.0, np.array([1.0]))[0]
    want = stability_function(scheme, TAB, *combine_zw(zs, scheme.gamma))
    assert abs(got - want) <= 1e-14


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.name)
def test_complex_scalar_run_promotes_a_real_initial_state(scheme):
    # complex factors with a real y0: the stepper's buffers take the stage
    # dtype, and five steps give the fifth power of the multiplier
    lam, tau = -1.0 + 3.0j, 0.1
    rec = integrate(scalar_problem(lam), scheme, TAB, tau, 5 * tau, y0=np.array([1.0]))
    want = stability_function(scheme, TAB, tau * lam, tau * lam) ** 5
    assert rec.y.dtype == np.complex128
    assert abs(rec.y[0] - want) <= 1e-14


@given(dim=st.sampled_from([2, 3]), n=st.integers(3, 64), data=st.data())
@settings(max_examples=25, deadline=None)
def test_step_of_an_eigenmode_is_the_stability_function_times_the_mode(dim, n, data):
    # the grid step is diagonal in the sine basis: a mode with wave numbers k_j
    # comes back multiplied by R_q(z, w), z = sum tau*lam_j and w from the
    # factors (1 - gamma*tau*lam_j), which ties the grid path to R_q at any N
    scheme = data.draw(st.sampled_from(SCHEMES), label="scheme")
    ks = data.draw(st.lists(st.integers(1, n - 1), min_size=dim, max_size=dim), label="k")
    tau = data.draw(st.sampled_from([0.25, 1.0, 4.0]), label="tau*N") / n
    prob = frozen_forcing_problem(build_problem(dim, n, 0.0))
    x = np.arange(1, n) / n
    mode = np.ones(())
    for k in reversed(ks):  # direction 0 (x) is the fastest axis
        mode = np.multiply.outer(mode, np.sin(k * np.pi * x))
    mode = mode.reshape(-1)
    zs = [tau * direction_eigenvalues(prob.op, j)[k - 1] for j, k in enumerate(ks)]
    got = Stepper(prob, scheme, TAB, tau).step(0.0, mode)
    want = stability_function(scheme, TAB, *combine_zw(zs, scheme.gamma)) * mode
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(mode))


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.name)
def test_complex_grid_state_runs_its_real_and_imaginary_parts_apart(scheme):
    # without forcing a run is real-linear: S(a + ib) = S(a) + i S(b); the
    # complex rows take the real coefficients' products on real views
    prob = frozen_forcing_problem(build_problem(2, 10, 1.0))
    rng = np.random.default_rng(7)
    a, b = rng.standard_normal((2, prob.op.grid.m))
    tau = 0.2
    got = integrate(prob, scheme, TAB, tau, 5 * tau, y0=a + 1j * b).y
    want = (integrate(prob, scheme, TAB, tau, 5 * tau, y0=a).y
            + 1j * integrate(prob, scheme, TAB, tau, 5 * tau, y0=b).y)
    assert got.dtype == np.complex128
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_reference_step_is_the_radau_growth_function():
    for z in (-0.5, -2.0, -10.0, 3.0):
        tau = 1.0
        prob = scalar_problem(z)
        got = irk_reference_step(prob, TAB, 0.0, tau, np.array([1.0]))[0]
        assert abs(got - _radau_growth(z)) <= 1e-12 * max(1.0, abs(_radau_growth(z)))


def test_reference_step_is_l_stable():
    prob = scalar_problem(-1e6)
    got = irk_reference_step(prob, TAB, 0.0, 1.0, np.array([1.0]))[0]
    assert abs(got) < 1e-5


# --------------------------------------------------------- sweeps vs oracle


@pytest.mark.parametrize("beta", [0.0, 1.0])
@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.name)
def test_many_sweeps_converge_to_reference(scheme, beta):
    prob = build_problem(2, 8, beta)
    y0 = prob.exact(0.0)
    tau = 0.125
    swept = amf_step(prob, extended_scheme(scheme, 30), TAB, 0.0, tau, y0)
    exact = irk_reference_step(prob, TAB, 0.0, tau, y0)
    assert np.max(np.abs(swept - exact)) <= 1e-11


def test_iteration_has_reached_its_fixed_point():
    prob = build_problem(2, 8, 1.0)
    y0 = prob.exact(0.0)
    a = amf_step(prob, extended_scheme(SCHEMES[1], 30), TAB, 0.0, 0.125, y0)
    b = amf_step(prob, extended_scheme(SCHEMES[1], 31), TAB, 0.0, 0.125, y0)
    assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(a)))


def test_zero_state_is_preserved_without_forcing():
    prob = frozen_forcing_problem(build_problem(2, 6, 0.0))
    z = np.zeros(prob.op.grid.m)
    out = amf_step(prob, SCHEMES[2], TAB, 0.0, 0.2, z)
    assert np.array_equal(out, z)


def test_step_rejects_nonpositive_tau():
    prob = scalar_problem(-1.0)
    with pytest.raises(ValueError):
        amf_step(prob, SCHEMES[0], TAB, 0.0, 0.0, np.array([1.0]))
    with pytest.raises(ValueError):
        irk_reference_step(prob, TAB, 0.0, -1.0, np.array([1.0]))


def test_fewer_sweeps_than_scheme_rejected():
    with pytest.raises(ValueError):
        extended_scheme(SCHEMES[2], 2)


# ------------------------------------------------------------- contractivity


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.name)
@pytest.mark.parametrize("ratio", [1, 2, 3, 10])
@pytest.mark.parametrize("n", [8, 16])
def test_unconditional_contractivity_without_forcing(scheme, ratio, n):
    """Real negative spectrum sits inside every stability wedge, so one step
    never grows the state, however large the step."""
    prob = frozen_forcing_problem(build_problem(2, n, 0.0))
    y0 = build_problem(2, n, 0.0).exact(0.0)
    tau = ratio / n
    y1 = amf_step(prob, scheme, TAB, 0.0, tau, y0)
    g = prob.op.grid
    assert weighted_norm(y1, g) <= weighted_norm(y0, g) * (1 + 1e-12)


# ------------------------------------------------------------- local order


@pytest.mark.parametrize(
    "scheme,order", [(SCHEMES[0], 3.0), (SCHEMES[1], 4.0)], ids=["amf1", "amf2"]
)
def test_scalar_local_error_slope(scheme, order):
    lam = -1.0
    taus = [2.0**-k for k in range(4, 9)]
    errs = []
    for tau in taus:
        prob = scalar_problem(lam)
        ratio = amf_step(prob, scheme, TAB, 0.0, tau, np.array([1.0]))[0]
        errs.append(abs(ratio - math.exp(tau * lam)))
    slope = np.polyfit(np.log(taus), np.log(errs), 1)[0]
    assert abs(slope - order) <= 0.15, f"{scheme.name}: slope {slope}"


# ------------------------------------------------------------------ driver


def test_float32_step_size_runs_in_float64():
    # tau = 1/16 is exact in float32; sigma = gamma*tau must still be a float64
    p = build_problem(2, 32, 0.0, 0.1)
    half, full = Stepper(p, SCHEMES[1], TAB, np.float32(0.0625)), Stepper(p, SCHEMES[1], TAB, 0.0625)
    assert type(half.sigma) is float and half.sigma == full.sigma
    y0 = p.exact(0.0)
    assert half.run(y0, 16).tobytes() == full.run(y0, 16).tobytes()
    got = integrate(p, SCHEMES[1], TAB, np.float32(0.0625), 1.0).y
    assert got.tobytes() == integrate(p, SCHEMES[1], TAB, 0.0625, 1.0).y.tobytes()


def test_float32_step_size_counts_steps_and_returns_t_in_float64():
    # the step count and the returned t come from float(tau), the step the
    # Stepper takes: a float32 0.1 is 0.10000000149 and does not divide 1.0,
    # where float32 arithmetic made it exactly 10 steps ending past t_end
    p = build_problem(2, 16, 1.0, 0.1)
    times = []

    def forcing(t, out=None):
        times.append(t)
        return p.forcing(t, out)

    counted = dataclasses.replace(p, forcing=forcing)
    rec = integrate(counted, SCHEMES[1], TAB, np.float32(0.125), 1.0)
    assert type(rec.t) is float and rec.t == 1.0
    assert len(times) == 2 * 8 and max(times) == 1.0  # s = 2 forcings per step
    assert rec.y.tobytes() == integrate(p, SCHEMES[1], TAB, 0.125, 1.0).y.tobytes()
    for tau in (np.float32(0.1), float(np.float32(0.1))):
        with pytest.raises(ValueError, match="not an integer number of steps"):
            integrate(p, SCHEMES[1], TAB, tau, 1.0)


def test_integrate_step_bookkeeping():
    prob = build_problem(2, 8, 0.0)
    rec = integrate(prob, SCHEMES[1], TAB, 0.25, 1.0)
    assert rec.t == 1.0
    assert rec.y.shape == (prob.op.grid.m,)


def test_integrate_zero_steps_returns_initial_state():
    prob = build_problem(2, 8, 1.0)
    rec = integrate(prob, SCHEMES[0], TAB, 0.25, 0.0)
    assert rec.t == 0.0
    assert np.array_equal(rec.y, prob.exact(0.0))


def test_integrate_rejects_non_integer_step_count():
    prob = build_problem(2, 8, 0.0)
    with pytest.raises(ValueError):
        integrate(prob, SCHEMES[0], TAB, 0.3, 1.0)


def test_integrate_requires_initial_state_or_exact():
    prob = frozen_forcing_problem(build_problem(2, 8, 0.0))
    with pytest.raises(ValueError):
        integrate(prob, SCHEMES[0], TAB, 0.25, 1.0)
    rec = integrate(prob, SCHEMES[0], TAB, 0.25, 1.0, y0=np.zeros(prob.op.grid.m))
    assert np.array_equal(rec.y, np.zeros(prob.op.grid.m))


def test_integrate_accumulates_single_steps():
    prob = build_problem(2, 6, 1.0)
    tau = 0.5
    rec = integrate(prob, SCHEMES[2], TAB, tau, 1.0)
    y = prob.exact(0.0)
    y = amf_step(prob, SCHEMES[2], TAB, 0.0, tau, y)
    y = amf_step(prob, SCHEMES[2], TAB, tau, tau, y)
    assert np.array_equal(rec.y, y)


# -------------------------------------------------------- input validation


@pytest.mark.parametrize("n_steps", [-1, True, 2.5])
def test_run_rejects_a_step_count_that_is_not_a_whole_number(n_steps):
    # -1 would hand back y0 itself, True take one step, 2.5 fail inside range
    prob = build_problem(2, 8, 1.0)
    stepper = Stepper(prob, SCHEMES[1], TAB, 0.25)
    with pytest.raises(ValueError, match="n_steps must be a whole number >= 0"):
        stepper.run(prob.exact(0.0), n_steps)


@pytest.mark.parametrize("tau", [math.inf, math.nan, 0.0, -0.25])
def test_bad_step_size_rejected_at_entry(tau):
    prob = build_problem(2, 8, 0.0)
    with pytest.raises(ValueError, match="step size"):
        integrate(prob, SCHEMES[0], TAB, tau, 1.0)
    with pytest.raises(ValueError, match="step size"):
        Stepper(prob, SCHEMES[0], TAB, tau)
    with pytest.raises(ValueError, match="step size"):
        amf_step(prob, SCHEMES[0], TAB, 0.0, tau, prob.exact(0.0))


def test_tableau_that_is_not_stiffly_accurate_rejected_at_entry(monkeypatch):
    # the step returns its last stage, which is y_{n+1} only when b is A's
    # last row; refused before any factor is built
    def no_factor(*args):
        raise AssertionError("a factor was built for a refused tableau")

    monkeypatch.setattr(integrator, "factor_pi", no_factor)
    tab = dataclasses.replace(TAB, b=np.array([0.5, 0.5]))
    prob = build_problem(2, 8, 0.0)
    for make in (lambda: Stepper(prob, SCHEMES[1], tab, 0.25),
                 lambda: integrate(prob, SCHEMES[1], tab, 0.25, 1.0),
                 lambda: amf_step(prob, SCHEMES[1], tab, 0.0, 0.25, prob.exact(0.0)),
                 lambda: stability_function(SCHEMES[1], tab, -1.0, -1.0)):
        with pytest.raises(ValueError, match="stiffly accurate"):
            make()


@pytest.mark.parametrize("t_end", [-1.0, math.inf, math.nan])
def test_bad_end_time_rejected_at_entry(t_end):
    prob = build_problem(2, 8, 0.0)
    with pytest.raises(ValueError, match="end time"):
        integrate(prob, SCHEMES[0], TAB, 0.25, t_end)


@pytest.mark.parametrize("tau,t_end", [(0.125, 1e308), (1e-320 / 8, 1.0)])
def test_step_count_past_the_float_range_rejected(tau, t_end):
    # t_end / tau overflows to inf, which has no integer step count
    prob = build_problem(2, 8, 0.0)
    with pytest.raises(ValueError, match="not a finite step count"):
        integrate(prob, SCHEMES[0], TAB, tau, t_end)


def test_nan_initial_state_raises_before_any_step():
    prob = build_problem(2, 8, 1.0)
    y0 = prob.exact(0.0)
    y0[17] = math.nan
    with pytest.raises(NonFiniteStateError) as info:
        integrate(prob, SCHEMES[1], TAB, 0.25, 1.0, y0=y0)
    assert info.value.step == 0


def test_state_turning_non_finite_reports_its_step():
    base = build_problem(2, 8, 1.0)

    def forcing(t, out=None):
        g = base.forcing(t, out)
        g *= math.inf if t > 0.5 else 1.0
        return g

    prob = dataclasses.replace(base, forcing=forcing)
    # step 3 (from t = 0.5) is the first to see an infinite forcing
    with pytest.raises(NonFiniteStateError) as info, np.errstate(invalid="ignore"):
        integrate(prob, SCHEMES[1], TAB, 0.25, 1.0)
    assert info.value.step == 3
    assert info.value.t == 0.75


def test_run_past_the_float_range_raises_the_typed_error_and_warns_of_nothing():
    # tau = 1000 at beta=1: the forcing's exp(t) overflows in the first step,
    # and the step's products meet inf - inf; the step's finite check raises,
    # with no RuntimeWarning on the way
    prob = build_problem(2, 8, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteStateError) as info:
            integrate(prob, SCHEMES[1], TAB, 1e3, 1e3)
    assert (info.value.step, info.value.t) == (1, 1e3)


@pytest.mark.parametrize(
    "pattern", [[1e307], [1e308, 1e308, -1e308, -1e308]], ids=["inf", "inf-minus-inf"]
)
def test_finite_state_whose_sum_leaves_the_float_range_passes(pattern):
    # 100 finite entries whose sum overflows (to inf, or to inf - inf = nan):
    # the check falls through to the entries and warns of nothing
    prob = build_problem(2, 11, 0.0)
    y0 = np.resize(pattern, prob.op.grid.m)
    stepper = Stepper(prob, SCHEMES[0], TAB, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(stepper.run(y0, 0), y0)
        y0[42] = math.inf
        with pytest.raises(NonFiniteStateError):
            stepper.run(y0, 0)


@pytest.mark.parametrize("write", ["copyto", "ufunc", "ignores-out"])
def test_forcing_that_cannot_fill_the_rows_raises(write):
    # complex forcing values into real rows (a real y0 and real factors)
    # raise rather than drop their imaginary parts; so does a forcing that
    # returns another array than out
    base = build_problem(2, 8, 0.0)
    g = base.forcing(0.0) * (1.0 + 1.0j)
    forcing = {
        "copyto": copying_forcing(lambda t: g),
        "ufunc": lambda t, out=None, work=None: np.multiply(g, 1.0, out=out),
        "ignores-out": lambda t, out=None, work=None: g.real.copy(),
    }[write]
    prob = dataclasses.replace(base, forcing=forcing)
    with pytest.raises(TypeError):
        integrate(prob, SCHEMES[1], TAB, 0.25, 1.0)


@pytest.mark.parametrize("shape", ["short", "grid", "scalar"])
def test_initial_state_of_the_wrong_shape_rejected(shape):
    prob = build_problem(2, 8, 0.0)
    m = prob.op.grid.m
    y0 = prob.exact(0.0)
    bad = {
        "short": y0[:-1],
        "grid": y0.reshape(prob.op.grid.shape),
        "scalar": np.float64(1.0),
    }[shape]
    msg = rf"\({m},\).*{re.escape(str(np.shape(bad)))}"
    with pytest.raises(ValueError, match=msg):
        integrate(prob, SCHEMES[1], TAB, 0.25, 1.0, y0=bad)
    with pytest.raises(ValueError, match=msg):
        Stepper(prob, SCHEMES[1], TAB, 0.25).run(bad, 0)


@pytest.mark.parametrize("bad", ["column", "short", "two-rows", "short-out"])
def test_step_rejects_a_state_or_out_of_the_wrong_shape(bad):
    # a column state would broadcast to an (m, m) result in the corrector
    prob = build_problem(2, 8, 0.0)
    m = prob.op.grid.m
    y = prob.exact(0.0)
    y_n, out = {
        "column": (y[:, None], None),
        "short": (y[:-1], None),
        "two-rows": (np.stack([y, y]), None),
        "short-out": (y, np.empty(m - 1)),
    }[bad]
    name, shape = ("state", y_n.shape) if out is None else ("out", out.shape)
    msg = rf"^{name} .*\({m},\).*{re.escape(str(shape))}"
    with pytest.raises(ValueError, match=msg):
        Stepper(prob, SCHEMES[1], TAB, 0.25).step(0.0, y_n, out=out)
    if out is None:
        with pytest.raises(ValueError, match=msg):
            amf_step(prob, SCHEMES[1], TAB, 0.0, 0.25, y_n)


@pytest.mark.parametrize("dim", [2, 3])
def test_step_never_writes_into_the_forcing_or_the_initial_state(dim):
    base = build_problem(dim, 8, 1.0)
    g = base.forcing(0.3)
    g.setflags(write=False)  # one shared array, returned at every time
    prob = dataclasses.replace(base, forcing=copying_forcing(lambda t: g))
    y0 = base.exact(0.0)
    y0.setflags(write=False)
    tau = 0.125
    for scheme in SCHEMES:
        want = reference_integrate(prob, scheme, TAB, tau, 3, y0)
        got = integrate(prob, scheme, TAB, tau, 3 * tau, y0=y0).y
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.array_equal(g, base.forcing(0.3))
    assert np.array_equal(y0, base.exact(0.0))


@pytest.mark.parametrize(
    "dim,n,kernel,planes",
    [
        (2, 160, "line", None),
        (2, 258, "blocks", None),
        (3, 32, "line", None),
        (3, 40, None, None),
        (3, 32, "line", 10),
        (3, 40, None, 10),
        (3, 40, "blocks", None),
        (3, 40, "blocks", 10),
    ],
    ids=["2d-whole-line", "2d-block", "3d-dense", "3d-thomas", "3d-dense-10planes",
         "3d-thomas-10planes", "3d-block", "3d-block-10planes"],
)
def test_step_allocates_no_state_sized_array(monkeypatch, dim, n, kernel, planes):
    # one-block lines and the Thomas kernel are forced on grids whose states
    # are larger than NumPy's iteration buffer; blocks are the rule's own
    if kernel != "blocks":
        length = n - 1 if kernel == "line" else None
        monkeypatch.setattr(splitops, "_solve_block", lambda grid: length)
    if planes is not None:  # blocks larger than NumPy's iteration buffer
        monkeypatch.setattr(splitops, "_STATE_BLOCK", planes * (n - 1) ** (dim - 1))
    base = build_problem(dim, n, 1.0)
    blocks = base.op.grid.state_blocks
    assert (len(blocks) > 2) == (planes is not None)
    stepper = Stepper(base, SCHEMES[2], TAB, 0.5)
    fac = stepper.factors[0]
    got = None if isinstance(fac, TridiagFactor) else "blocks" if fac.reduced.size else "line"
    assert got == kernel
    y = base.exact(0.0)
    buf = np.empty_like(y)
    stepper.step(0.0, y, out=buf)  # allocates the work rows
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        stepper.step(0.0, y, out=buf)
        stepper.step(0.5, buf, out=buf)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    # only temporaries smaller than a state: a Thomas row, a block solve's
    # neighbour terms, NumPy's iteration buffer of 8192 elements; with
    # several cache blocks, none as large as a block (every block slice
    # and its reshapes are views)
    assert peak < y.nbytes / 2
    if planes is not None:
        assert peak < planes * (n - 1) ** (dim - 1) * y.itemsize


@pytest.mark.parametrize(
    "dim,n,kernel", [(3, 40, None), (2, 258, "blocks")], ids=["3d-thomas", "2d-block"]
)
@pytest.mark.parametrize(
    "scheme,rows",
    [(SCHEMES[0], 4), (SCHEMES[1], 5), (SCHEMES[2], 7), (EXT5, 7)],
    ids=lambda v: getattr(v, "name", None),
)
def test_stepper_holds_a_spare_row_only_for_middle_sweeps(
    monkeypatch, dim, n, kernel, scheme, rows
):
    # [Z; T], and the spare row of a later sweep's product solves; the
    # first sweep's r and solves go in Z and amf1's spare is a dead T row,
    # the last sweep's r goes over T, so only a middle sweep (q >= 3) keeps
    # its two r rows; the last sweep's scratch is two rows of 2^13 columns
    assert rows == integrator.work_rows(scheme.q)
    if kernel is None:
        monkeypatch.setattr(splitops, "_solve_block", lambda grid: None)
    base = build_problem(dim, n, 1.0)
    stepper = Stepper(base, scheme, TAB, 0.5)
    fac = stepper.factors[0]
    assert (isinstance(fac, LineBlocks) and fac.reduced.size > 0) == (kernel == "blocks")
    y = base.exact(0.0)
    buf = np.empty_like(y)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        stepper.step(0.0, y, out=buf)  # allocates the work rows
        added = tracemalloc.get_traced_memory()[0] - held
    finally:
        tracemalloc.stop()
    assert rows * y.nbytes <= added < (rows + 0.5) * y.nbytes


@pytest.mark.parametrize("dim,n", [(2, 12), (3, 6)])
@pytest.mark.parametrize("kernel", ["dense", "thomas"])
def test_blocked_integration_equals_one_block(monkeypatch, dim, n, kernel):
    """Cache blocks and column chunks change no arithmetic: the final state
    of every scheme is bitwise the one-block state, with blocks of one plane,
    and of two planes with a shorter last block, and with the right-hand-side
    products in chunks of two and three columns (on each grid one of them
    leaves a rest of one column, which joins the last chunk: a one-column
    product runs in BLAS's gemv, which rounds apart from its gemm)."""
    if kernel == "thomas":
        monkeypatch.setattr(splitops, "_solve_block", lambda grid: None)
    plane, m = (n - 1) ** (dim - 1), (n - 1) ** dim
    assert 1 in (m % 2, m % 3)
    for scheme in SCHEMES:
        tau = scheme.q / n
        finals = []
        for block, chunk in ((m, m), (1, m), (int(2.5 * plane), m), (m, 2), (m, 3)):
            monkeypatch.setattr(splitops, "_STATE_BLOCK", block)
            monkeypatch.setattr(integrator, "_CHUNK", chunk)
            prob = build_problem(dim, n, 1.0)
            assert (len(prob.op.grid.state_blocks) == 1) == (block == m)
            finals.append(integrate(prob, scheme, TAB, tau, 4 * tau).y)
        for y in finals[1:]:
            assert np.array_equal(y, finals[0]), scheme.name


# ------------------------------------------------------- reference and counts


@given(
    dim=st.sampled_from([2, 3]),
    n=st.integers(min_value=3, max_value=24),
    beta=st.sampled_from([0.0, 1.0]),
    scheme=st.sampled_from(SCHEMES + [EXT5]),
    n_steps=st.integers(min_value=1, max_value=4),
    ratio=st.sampled_from([0.5, 1.0, 3.0]),
)
@example(dim=2, n=9, beta=1.0, scheme=EXT5, n_steps=2, ratio=1.0)
@example(dim=3, n=7, beta=1.0, scheme=EXT5, n_steps=2, ratio=1.0)
@settings(max_examples=25, deadline=None)
def test_integrate_matches_allocating_reference(dim, n, beta, scheme, n_steps, ratio):
    prob = build_problem(dim, n, beta)
    tau = ratio / n
    y0 = prob.exact(0.0)
    want = reference_integrate(prob, scheme, TAB, tau, n_steps, y0)
    got = integrate(prob, scheme, TAB, tau, n_steps * tau).y  # dense
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # the kernel rule sends every product solve down the Thomas sweep (None)
    # or cuts lines of more than three points into blocks of three
    for length in (None, 3):
        with mock.patch.object(splitops, "_solve_block", lambda grid: length):
            got = integrate(prob, scheme, TAB, tau, n_steps * tau).y
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), length


def _counting(monkeypatch, module, name, counts):
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


@pytest.mark.parametrize("dim,q", [(2, 1), (2, 2), (3, 3)])
def test_operation_counts_match_closed_forms(monkeypatch, dim, q):
    counts = {}
    _counting(monkeypatch, integrator, "apply_full", counts)
    _counting(monkeypatch, integrator, "_add_full", counts)
    _counting(monkeypatch, integrator, "solve_pi", counts)
    _counting(monkeypatch, splitops, "factor_direction", counts)
    n_steps, s = 5, TAB.b.shape[0]
    base = build_problem(dim, 6, 1.0)

    def forcing(t, out=None):
        counts["forcing"] = counts.get("forcing", 0) + 1
        return base.forcing(t, out)

    prob = dataclasses.replace(base, forcing=forcing)
    integrate(prob, SCHEMES[q - 1], TAB, 0.1, n_steps * 0.1)
    # s*q - 1 J applies: one to y_n serves both stages, then one adds J of
    # each stage's increment after every sweep but the last
    assert counts["apply_full"] == n_steps
    assert counts.get("_add_full", 0) == (s * q - 2) * n_steps
    assert counts["solve_pi"] == 2 * q * n_steps
    assert counts["factor_direction"] == dim  # one Stepper per integration
    # one forcing per stage, hoisted out of the sweeps
    assert counts["forcing"] == s * n_steps


# ---------------------------------------------------------------- linearity


@given(
    u=hnp.arrays(
        np.float64, 16, elements=st.floats(-100, 100, allow_nan=False, width=64)
    ),
    v=hnp.arrays(
        np.float64, 16, elements=st.floats(-100, 100, allow_nan=False, width=64)
    ),
    a=st.floats(-5, 5, allow_nan=False),
    b=st.floats(-5, 5, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_step_is_linear_without_forcing(u, v, a, b):
    prob = frozen_forcing_problem(build_problem(2, 5, 0.0))
    tau = 0.2
    lhs = amf_step(prob, SCHEMES[1], TAB, 0.0, tau, a * u + b * v)
    rhs = a * amf_step(prob, SCHEMES[1], TAB, 0.0, tau, u) + b * amf_step(
        prob, SCHEMES[1], TAB, 0.0, tau, v
    )
    scale = 1.0 + np.max(np.abs(lhs))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale
