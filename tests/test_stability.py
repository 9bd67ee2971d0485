"""Tests for the linear stability machinery.

The independent oracle for the scalar accuracy of R_q is a Taylor-coefficient
extraction on a small circle: sampling R_q(z, z) on |z| = r and applying a
DFT recovers the series coefficients, which must match exp(z) up to the
sweep count's approximation order and break afterwards.
"""

import dataclasses
import itertools
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amfrk import (
    Stepper,
    amf_scheme,
    combine_zw,
    radau2a_tableau,
    stability_function,
    wedge_stability_scan,
)
import amfrk.stability as stability
from amfrk.stability import _radii
from amfrk.tableau import GAMMA
from helpers import (
    extended_scheme,
    reference_stability_function,
    reference_wedge_scan,
    sampled_sup_ratio,
    splitting_sup_bound,
)

TAB = radau2a_tableau()
SCHEMES = {q: amf_scheme(q) for q in (1, 2, 3)}


def _radau_growth(z):
    return (1.0 + z / 3.0) / (1.0 - 2.0 * z / 3.0 + z * z / 6.0)


# ---------------------------------------------------------------------------
# combine_zw


def test_combine_single_direction_is_identity():
    z, w = combine_zw([-1.25 + 0.5j], GAMMA)
    assert z == -1.25 + 0.5j
    assert abs(w - z) <= 1e-15 * abs(z)


def test_combine_scalar_input_accepted():
    z, w = combine_zw(-2.0, GAMMA)
    assert z == -2.0
    assert abs(w - z) <= 1e-15 * abs(z)


def test_combine_two_equal_real_directions():
    # prod = (1 + gamma)^2, so w = -2 - gamma exactly
    z, w = combine_zw([-1.0, -1.0], GAMMA)
    assert z == -2.0
    assert abs(w - (-2.0 - GAMMA)) <= 1e-15


def test_combine_zeros_give_zero_pair():
    z, w = combine_zw([0.0, 0.0, 0.0], GAMMA)
    assert z == 0.0
    assert w == 0.0


def test_combine_empty_rejected():
    with pytest.raises(ValueError):
        combine_zw([], GAMMA)


@pytest.mark.parametrize("gamma", [0.0, -1.0, np.nan, np.inf, -np.inf])
def test_combine_rejects_a_gamma_that_is_not_finite_and_positive(gamma):
    with pytest.raises(ValueError, match="gamma must be positive and finite"):
        combine_zw([-1.0, -2.0], gamma)


@given(
    st.lists(
        st.builds(
            complex,
            st.floats(min_value=-100.0, max_value=100.0),
            st.floats(min_value=-100.0, max_value=100.0),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_combine_matches_product_formula(zs):
    z, w = combine_zw(zs, GAMMA)
    assert abs(z - sum(zs)) <= 1e-9 * max(1.0, abs(sum(zs)))
    prod = np.prod([1.0 - GAMMA * v for v in zs])
    assert abs((1.0 - GAMMA * w) - prod) <= 1e-9 * max(1.0, abs(prod))


# ---------------------------------------------------------------------------
# stability_function


def test_fixed_point_of_origin():
    for scheme in SCHEMES.values():
        assert stability_function(scheme, TAB, 0.0, 0.0) == 1.0 + 0.0j


def _taylor_coeffs(scheme, n_coeffs, radius=1e-2, m=64):
    ang = 2.0 * np.pi * np.arange(m) / m
    zs = radius * np.exp(1j * ang)
    vals = stability_function(scheme, TAB, zs, zs)
    coeffs = np.fft.fft(vals) / m
    return np.array([coeffs[k] / radius**k for k in range(n_coeffs)])


def test_single_sweep_matches_exponential_to_second_order():
    c = _taylor_coeffs(SCHEMES[1], 4)
    assert abs(c[0] - 1.0) <= 1e-8
    assert abs(c[1] - 1.0) <= 1e-8
    assert abs(c[2] - 0.5) <= 1e-8
    # third-order coefficient must genuinely break
    assert abs(c[3] - 1.0 / 6.0) > 1e-3


@pytest.mark.parametrize("q", [2, 3])
def test_later_sweeps_match_exponential_to_third_order(q):
    c = _taylor_coeffs(SCHEMES[q], 5)
    for k, ck in enumerate([1.0, 1.0, 0.5, 1.0 / 6.0]):
        assert abs(c[k] - ck) <= 1e-8, f"coefficient {k}"
    assert abs(c[4] - 1.0 / 24.0) > 1e-4


def test_many_sweeps_reach_the_exact_solve():
    # with one direction (w = z) the sweep fixed point is the underlying
    # two-stage solve, so piling on sweeps must recover its growth factor
    scheme = extended_scheme(SCHEMES[3], 30)
    zs = 0.5 * np.exp(1j * 2.0 * np.pi * np.arange(10) / 10)
    for z in zs:
        r = stability_function(scheme, TAB, complex(z), complex(z))
        assert abs(r - _radau_growth(complex(z))) <= 1e-8


def test_vectorized_evaluation_matches_scalar_loop():
    rng = np.random.default_rng(7)
    zs = -rng.uniform(0.1, 5.0, size=(3, 4)) + 1j * rng.uniform(-5, 5, (3, 4))
    ws = -rng.uniform(0.1, 5.0, size=(3, 4)) + 1j * rng.uniform(-5, 5, (3, 4))
    for scheme in SCHEMES.values():
        out = stability_function(scheme, TAB, zs, ws)
        assert out.shape == (3, 4)
        for i in range(3):
            for j in range(4):
                # a lone sample rounds as it does inside an array
                one = stability_function(scheme, TAB, zs[i, j], ws[i, j])
                assert one == out[i, j]
                assert stability_function(scheme, TAB, zs[i:i + 1, j], ws[i, j]) == one


def test_broadcasting_scalar_against_array():
    zs = np.array([-1.0, -2.0, -4.0], dtype=complex)
    out = stability_function(SCHEMES[2], TAB, zs, -1.0)
    assert out.shape == (3,)
    assert out[0] == stability_function(SCHEMES[2], TAB, -1.0, -1.0)


def test_pole_blows_up_without_raising():
    w_pole = 1.0 / GAMMA
    for scheme in SCHEMES.values():
        r = stability_function(scheme, TAB, -1.0, w_pole)
        assert abs(r) > 1e10  # pole of the rational function
    arr = stability_function(SCHEMES[1], TAB, np.array([-1.0, -1.0 + 0j]),
                             np.array([complex(np.inf), -1.0 + 0j]))
    assert not np.isfinite(arr[0])
    assert np.isfinite(arr[1])


@pytest.mark.parametrize("z_shape,w_shape,want", [
    ((0,), (), (0,)),
    ((2, 0), (), (2, 0)),
    ((3, 1, 0), (2, 1), (3, 2, 0)),
])
def test_empty_samples_give_an_empty_array_of_the_broadcast_shape(z_shape, w_shape, want):
    # as a ufunc does: no sample needs no grid of samples
    for scheme in SCHEMES.values():
        out = stability_function(scheme, TAB, np.zeros(z_shape), np.zeros(w_shape))
        assert out.shape == want and out.dtype == np.complex128


def test_tableau_that_is_not_stiffly_accurate_rejected(monkeypatch):
    # R_q is the step's last stage, which is y_{n+1} only when b is A's last
    # row; refused before the samples' factor is built
    def no_factor(*args):
        raise AssertionError("a factor was built for a refused tableau")

    apply, add, _, solve = stability._Diagonal.kernels
    monkeypatch.setattr(stability._Diagonal, "kernels", (apply, add, no_factor, solve))
    tab = dataclasses.replace(TAB, b=np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="stiffly accurate"):
        stability_function(SCHEMES[2], tab, -1.0, -1.0)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_conjugate_arguments_give_the_conjugate(q):
    # R at (conj z, conj w) is conj R(z, w) and |R| is bitwise equal, on d=3
    # samples of the pi/6 and pi/2 wedges, past floating range and at the pole
    rng = np.random.default_rng(15)
    n = 30_000
    rays = rng.choice([-1.0, 0.0, 1.0], (3, n)) * np.where(np.arange(n) % 2, np.pi / 6, np.pi / 2)
    radii = 10.0 ** rng.uniform(-3.0, 6.0, (3, n))
    radii[rng.random((3, n)) < 0.02] = 1e200
    parts = -np.exp(1j * rays) * radii
    with np.errstate(over="ignore", invalid="ignore"):
        z = parts.sum(axis=0)
        w = (1.0 - (1.0 - GAMMA * parts[2])
             * ((1.0 - GAMMA * parts[1]) * (1.0 - GAMMA * parts[0]))) / GAMMA
    w[:3] = 1.0 / GAMMA, 1.0 / GAMMA + 1e-300j, np.nextafter(1.0 / GAMMA, 0.0) - 1e-17j
    r = stability_function(SCHEMES[q], TAB, z, w)
    r_conj = stability_function(SCHEMES[q], TAB, np.conj(z), np.conj(w))
    assert not np.isfinite(r[0]) and np.count_nonzero(~np.isfinite(r)) > 10
    assert np.array_equal(np.conj(r), r_conj, equal_nan=True)
    assert np.abs(r).tobytes() == np.abs(r_conj).tobytes()


needs_long_double = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="long double is no wider than float64 here")


def _wedge_samples(theta, n=50_000, seed=2024):
    # seeded d=3 samples with every -z_k within theta of the positive real
    # axis, |z_k| log-uniform on [1e-3, 1e6]; (z, w) formed in float64 as the
    # scan forms them
    rng = np.random.default_rng(seed)
    parts = -(10.0 ** rng.uniform(-3.0, 6.0, (3, n))
              * np.exp(1j * rng.uniform(-theta, theta, (3, n))))
    z = parts[0] + parts[1] + parts[2]
    w = (1.0 - (1.0 - GAMMA * parts[2])
         * ((1.0 - GAMMA * parts[1]) * (1.0 - GAMMA * parts[0]))) / GAMMA
    return z, w


@needs_long_double
@pytest.mark.parametrize("q", [1, 2, 3])
def test_matches_long_double_recurrence_in_the_d3_wedge(q):
    # the reference evaluated at the same float64 arguments
    z, w = _wedge_samples(np.pi / 6)
    got = stability_function(SCHEMES[q], TAB, z, w)
    want = reference_stability_function(SCHEMES[q], TAB, z, w)
    assert np.max(np.abs(got - want)) <= 2e-15


def test_stiff_limit_per_sweep_count():
    # sweeps whose 2x2 matrix satisfies the output-row identity kill the
    # multiplier at -infinity; the single-sweep scheme plateaus instead
    a, e = TAB.a, np.ones(2)
    t1 = SCHEMES[1].iterations[0].approx_a
    plateau = abs(1.0 - (np.linalg.solve(t1, a @ e))[1])
    r1 = stability_function(SCHEMES[1], TAB, -1e12, -1e12)
    assert abs(abs(r1) - plateau) <= 1e-9
    assert plateau < 1.0
    for q in (2, 3):
        r = stability_function(SCHEMES[q], TAB, -1e8, -1e8)
        assert abs(r) < 1e-6


@pytest.mark.parametrize("q", [1, 2, 3])
def test_modes_stiff_in_two_or_more_directions_pass_undamped(q):
    # three directions, the stiff ones at z_k = -1e4 and the others at -1e-3,
    # with the factored w: one stiff direction is damped (amf1 only to its
    # plateau near -0.90), but with two or three w ~ gamma z_1 z_2 outgrows z
    # and R_q tends to 1, where Radau IIA's R tends to 0
    def r(n_stiff):
        z, w = combine_zw([-1e4] * n_stiff + [-1e-3] * (3 - n_stiff), GAMMA)
        return stability_function(SCHEMES[q], TAB, z, w)

    one, two, three = r(1), r(2), r(3)
    if q == 1:
        assert abs(one - -0.90) <= 0.01
    else:
        assert abs(one) <= 2e-3
    assert abs(two) >= 0.998 and abs(three) >= 0.9999
    assert max(abs(two), abs(three)) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# wedge scan bookkeeping


def test_scan_full_cross_product_counts():
    radii = np.logspace(-1, 1, 5)
    res = wedge_stability_scan(SCHEMES[2], TAB, d=2, theta=np.pi / 4,
                               radii=radii)
    assert res.n_samples == (3 * 5) ** 2
    assert res.n_excluded == 0
    assert set(len(k) for k in res.per_ray) == {2}
    assert len(res.per_ray) == 9
    assert max(res.per_ray.values()) == res.max_modulus


def test_scan_axis_only_when_angle_is_zero():
    radii = np.logspace(-1, 1, 4)
    res = wedge_stability_scan(SCHEMES[1], TAB, d=3, theta=0.0, radii=radii)
    assert res.n_samples == 4**3
    assert list(res.per_ray) == [(0.0, 0.0, 0.0)]
    # every direction argument sits on the negative real axis
    assert all(v.imag == 0.0 and v.real < 0.0 for v in res.argmax.parts)


@pytest.mark.parametrize("d,kw", [
    (2, dict(radii=[1e200, 1.0])),
    (3, dict(radii=[1e-3, 1e200, 1.0, 1e104])),
], ids=["full-product-d2", "full-product-d3"])
def test_scan_excludes_overflowing_samples_silently(d, kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        quiet = wedge_stability_scan(SCHEMES[2], TAB, d, np.pi / 4, **kw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would raise here
        res = wedge_stability_scan(SCHEMES[2], TAB, d, np.pi / 4, **kw)
    assert 0 < res.n_excluded < res.n_samples
    assert (res.n_samples, res.n_excluded) == (quiet.n_samples, quiet.n_excluded)
    if d == 2:
        # the factored sweep stays finite where only one radius is 1e200 (the
        # 2x2 determinant of the unfactored recurrence overflowed there): only
        # the 9 samples with w past floating range are excluded
        assert (res.n_samples, res.n_excluded) == (36, 9)
        parts, got = _kept(wedge_stability_scan(SCHEMES[2], TAB, d, np.pi / 4,
                                                keep_samples=True, **kw))
        huge = np.isfinite(got) & (np.abs(parts).max(axis=0) >= 1e200)
        assert np.count_nonzero(huge) == 18
        parts, got = parts[:, huge].astype(np.clongdouble), got[huge]
        z = parts.sum(axis=0)
        w = (1.0 - np.prod(1.0 - GAMMA * parts, axis=0)) / GAMMA
        want = np.abs(reference_stability_function(SCHEMES[2], TAB, z, w))
        assert np.all(np.abs(got - want) <= 1e-13 * want)


@pytest.mark.parametrize("theta", [0.0, 0.3])
def test_scan_whose_every_sample_is_non_finite_raises(theta):
    # at radius 1e308 every sample's w, and so |R|, is past the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would raise here
        with pytest.raises(RuntimeError, match=r"^every scan sample was non-finite "
                           r"\(singular or past the float range\)$"):
            wedge_stability_scan(SCHEMES[2], TAB, 2, theta, radii=[1e308])


@pytest.mark.parametrize("d", [2.5, 2.0, True, np.float64(3.0), "3"])
def test_scan_rejects_a_direction_count_that_is_not_an_integer(d, monkeypatch):
    # rejected before any sample is evaluated
    monkeypatch.setattr(stability, "_Evaluator", None)
    with pytest.raises(ValueError, match="d="):
        wedge_stability_scan(SCHEMES[1], TAB, d=d, theta=0.0, radii=[1.0])


@pytest.mark.parametrize("d,theta,radii", [
    (5, 0.0, [1.0]),  # one orbit, and still refused
    (11, np.pi / 6, None),
    (14, np.pi / 6, [1.0]),
    (np.int64(38), np.pi / 6, None),  # in int64, 3**38 * 40 wraps around to a negative count
    (64, 0.0, None),
    (65, 0.0, None),
    (np.int64(65), 0.0, None),
    (10_000, np.pi / 6, None),  # 3**10_000 has more digits than an int may print
    (10**8, 0.5, None),  # 3**(10**8) alone takes minutes
], ids=["d5-one-value", "d11", "d14-one-radius", "numpy-d38", "d64", "d65", "numpy-d65",
        "d10000", "d1e8"])
def test_scan_rejects_more_than_four_directions(d, theta, radii, monkeypatch):
    # refused before any power of d is formed or any sample is evaluated
    monkeypatch.setattr(stability, "_Evaluator", None)
    with pytest.raises(ValueError, match=rf"^d must be at most 4, got d={d}$"):
        wedge_stability_scan(SCHEMES[1], TAB, d, theta, radii=radii)


@pytest.mark.parametrize("d,theta,radii,keep", [
    (4, np.pi / 6, None, False),  # 9,381,251 orbits of 207,360,000 samples
    (2, np.pi / 2, _radii(1490), False),  # C(4471, 2) = 9,992,685 orbits of 19,980,900 samples
    (4, 0.0, _radii(56), True),  # 9,834,496 samples kept
], ids=["d4-default", "d2-past-the-sample-cap", "d4-kept"])
def test_scan_just_below_the_cap_reaches_the_evaluation(d, theta, radii, keep, monkeypatch):
    # the (missing) evaluation is reached, whatever the cross product's size
    monkeypatch.setattr(stability, "stability_function", None)
    with pytest.raises(TypeError):
        wedge_stability_scan(SCHEMES[1], TAB, d, theta, radii=radii, keep_samples=keep)


@pytest.mark.parametrize("d,theta,n_radii,keep,message", [
    (4, np.pi / 6, 41, False, "4 directions of 123 values have 10009125 permutation orbits"),
    (2, 0.0, 4473, False, "2 directions of 4473 values have 10006101 permutation orbits"),
    (1, 0.0, stability._CAP + 1, False, "1 directions of 10000001 values have 10000001 "),
    (4, np.pi / 6, None, True, "keep_samples would hold 120**4 samples"),
    (3, np.pi / 2, 72, True, "keep_samples would hold 216**3 samples"),
], ids=["d4-41-radii", "d2-axis", "d1-axis", "d4-kept", "d3-kept"])
def test_scan_past_the_cap_is_refused_before_any_sample(d, theta, n_radii, keep, message,
                                                        monkeypatch):
    # the orbits, C(n + d - 1, d) of n values, or the kept samples, n**d, past
    # the cap: refused before the radii are made or any sample is evaluated
    monkeypatch.setattr(stability, "_Evaluator", None)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}.*past {stability._CAP}$"):
        stability.check_scan(d, theta, n_radii, keep)
    if n_radii is None or n_radii < 1000:
        with pytest.raises(ValueError, match=re.escape(message)):
            wedge_stability_scan(SCHEMES[1], TAB, d, theta, keep_samples=keep,
                                 radii=None if n_radii is None else _radii(n_radii))


@pytest.mark.parametrize("d,theta,n_radii,message", [
    *[(d, 0.0, 1, "d=") for d in (2.5, 2.0, True, np.float64(3.0), "3", 0)],
    *[(d, th, n, "d must be at most 4")
      for d, th, n in ((11, np.pi / 6, None), (14, np.pi / 6, 1), (np.int64(38), np.pi / 6, None),
                       (64, 0.0, None), (65, 0.0, None), (np.int64(65), 0.0, None),
                       (10_000, np.pi / 6, None), (10**8, 0.5, None), (5, 0.0, 1))],
    (4, np.pi / 6, 41, "permutation orbits"),
    *[(2, th, None, "wedge half-angle") for th in (-0.1, 2.0, np.nan)],
    *[(2, 0.0, n, rf"^n_radii must be a whole number >= 1, got n_radii={n}$") for n in (0, -1)],
], ids=lambda v: repr(v)[:20])
def test_check_scan_refuses_what_the_scan_refuses(d, theta, n_radii, message, monkeypatch):
    # the cases of the scan's refusal tests, with no radius or sample made
    monkeypatch.setattr(stability, "_Evaluator", None)
    with pytest.raises(ValueError, match=message):
        stability.check_scan(d, theta, n_radii)


@pytest.mark.parametrize("d,theta,n_radii", [
    (4, np.pi / 6, None), (3, np.pi / 2, 130), (1, 0.0, 1), (np.int64(2), np.pi / 4, 2),
])
def test_check_scan_admits_the_scans_below_the_cap_and_returns_an_int(d, theta, n_radii):
    got = stability.check_scan(d, theta, n_radii)
    assert got == d and type(got) is int


def test_scan_accepts_a_numpy_integer_direction_count():
    args = dict(theta=np.pi / 4, radii=[0.5, 2.0])
    res = wedge_stability_scan(SCHEMES[2], TAB, d=np.int64(2), **args)
    assert res == wedge_stability_scan(SCHEMES[2], TAB, d=2, **args)


def test_scan_rejects_bad_geometry():
    with pytest.raises(ValueError):
        wedge_stability_scan(SCHEMES[1], TAB, d=0, theta=0.0)
    with pytest.raises(ValueError):
        wedge_stability_scan(SCHEMES[1], TAB, d=2, theta=-0.1)
    with pytest.raises(ValueError):
        wedge_stability_scan(SCHEMES[1], TAB, d=2, theta=2.0)
    with pytest.raises(ValueError):
        wedge_stability_scan(SCHEMES[1], TAB, d=2, theta=0.0,
                             radii=np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        wedge_stability_scan(SCHEMES[1], TAB, d=2, theta=0.0,
                             radii=np.array([]))


@pytest.mark.parametrize("kwargs", [
    dict(theta=np.nan),
    dict(radii=np.array([1.0, np.nan])),
    dict(radii=np.array([1.0, np.inf])),
], ids=["theta-nan", "radius-nan", "radius-inf"])
def test_scan_rejects_non_finite_and_negative_inputs(kwargs):
    args = dict(d=2, theta=np.pi / 4, radii=np.array([1.0, 2.0]))
    args.update(kwargs)
    with pytest.raises(ValueError):
        wedge_stability_scan(SCHEMES[1], TAB, **args)


def test_scan_argmax_is_reproducible():
    radii = np.logspace(-2, 2, 6)
    res = wedge_stability_scan(SCHEMES[3], TAB, d=2, theta=np.pi / 2,
                               radii=radii)
    z, w = combine_zw(res.argmax.parts, GAMMA)
    assert z == res.argmax.z and w == res.argmax.w
    again = abs(stability_function(SCHEMES[3], TAB, z, w))
    assert abs(again - res.max_modulus) <= 1e-13 * max(1.0, res.max_modulus)


@pytest.mark.parametrize("theta,radii", [
    (np.pi / 6, [1e-3, 0.5, 1e200]),
    (0.0, [1e-3, 0.5, 1e200]),
], ids=["full-product", "axis"])
def test_scan_counts_are_python_ints(theta, radii):
    with np.errstate(over="ignore", invalid="ignore"):
        res = wedge_stability_scan(SCHEMES[2], TAB, 3, theta, radii=radii)
    assert res.n_excluded > 0
    assert type(res.n_samples) is int
    assert type(res.n_excluded) is int


def test_scan_kept_samples_export_as_csv():
    radii = np.array([1.0, 3.0])
    res = wedge_stability_scan(SCHEMES[1], TAB, d=2, theta=np.pi / 2,
                               radii=radii, keep_samples=True)
    rows = list(res.csv_rows())
    assert rows[0] == "z1_re,z1_im,z2_re,z2_im,abs_r"
    assert len(rows) == 1 + res.n_samples
    # every data row parses back to floats
    for row in rows[1:]:
        vals = [float(tok) for tok in row.split(",")]
        assert len(vals) == 5 and vals[-1] >= 0.0


def test_scan_without_kept_samples_cannot_export():
    res = wedge_stability_scan(SCHEMES[1], TAB, d=1, theta=0.0,
                               radii=np.array([1.0]))
    assert res.samples is None
    with pytest.raises(ValueError):
        list(res.csv_rows())


# ---------------------------------------------------------------------------
# block scan against the reference gather scan


def _close(got, want):
    """Equal (NaN and infinities included) or within 1e-15 relative."""
    return got == want or np.isnan(got) and np.isnan(want) or (
        abs(got - want) <= 1e-15 * abs(want))


def _kept(res):
    """A kept scan's samples: their values per direction (d, n) and |R|."""
    values, index, modulus = res.samples
    return values[index], modulus


def _assert_same_samples(res, ref):
    (parts, mod), (want_parts, want_mod) = _kept(res), _kept(ref)
    assert parts.shape == want_parts.shape and np.array_equal(parts, want_parts)
    assert all(_close(m, want) for m, want in zip(mod.tolist(), want_mod.tolist()))


def _assert_matches_reference(scheme, res, ref):
    assert res.n_samples == ref.n_samples
    assert res.n_excluded == ref.n_excluded
    assert set(res.per_ray) == set(ref.per_ray)
    assert _close(res.max_modulus, ref.max_modulus)
    for key, want in ref.per_ray.items():
        assert _close(res.per_ray[key], want), key
    again = abs(stability_function(scheme, TAB, res.argmax.z, res.argmax.w))
    assert abs(again - res.max_modulus) <= 1e-13 * max(1.0, res.max_modulus)
    assert combine_zw(res.argmax.parts, GAMMA) == (res.argmax.z, res.argmax.w)
    if res.max_modulus == ref.max_modulus:  # the first sample attaining it
        assert res.argmax.parts == ref.argmax.parts


# radii per direction: with 9 radii the d=4 wedges of theta > 0 have 27^3
# samples per value of the slowest direction, more than a 2^14 block, so they
# are evaluated in runs of fast-direction groups; the others in whole rows
_REFERENCE_RADII = {1: 40, 2: 40, 3: 16, 4: 9}


@pytest.mark.parametrize("theta", [0.0, np.pi / 6, np.pi / 2])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_scan_matches_reference_gather_scan(d, theta):
    kw = dict(radii=np.logspace(-3.0, 6.0, _REFERENCE_RADII[d]))
    res = wedge_stability_scan(SCHEMES[2], TAB, d, theta, **kw)
    ref = reference_wedge_scan(SCHEMES[2], TAB, d, theta, **kw)
    _assert_matches_reference(SCHEMES[2], res, ref)


@pytest.mark.parametrize("q,d,theta,radii", [
    (1, 2, np.pi / 3, [0.3, 2.0, 50.0]),
    (3, 3, np.pi / 4, [0.5, 7.0]),
    # radii at 1e200 overflow w or R: non-finite samples are excluded
    (2, 2, np.pi / 4, [1e200, 1.0, 3e150]),
    (2, 3, np.pi / 2, [1e-3, 1e200, 1.0, 1e104]),
], ids=["interior-rays", "interior-ray-d3", "huge-radii-d2", "huge-radii-d3"])
def test_scan_matches_reference_on_custom_sets(q, d, theta, radii):
    with np.errstate(over="ignore", invalid="ignore"):
        res = wedge_stability_scan(SCHEMES[q], TAB, d, theta, radii=radii)
        ref = reference_wedge_scan(SCHEMES[q], TAB, d, theta, radii=radii)
    if max(radii) >= 1e200:
        assert res.n_excluded > 0
    _assert_matches_reference(SCHEMES[q], res, ref)


@pytest.mark.parametrize("block", [1000, 100, 5])
@pytest.mark.parametrize("keep", [True, False], ids=["full-product", "orbits"])
def test_scan_matches_reference_at_any_block_size(monkeypatch, block, keep):
    # 12 values per direction, every sample kept or by the orbits: blocks of
    # whole rows (1000), runs of groups within a row (100) and single groups
    # larger than a block (5)
    monkeypatch.setattr(stability, "_BLOCK", block)
    args = dict(radii=[0.01, 0.7, 30.0, 2e4], keep_samples=keep)
    res = wedge_stability_scan(SCHEMES[3], TAB, 3, np.pi / 6, **args)
    ref = reference_wedge_scan(SCHEMES[3], TAB, 3, np.pi / 6, **args)
    _assert_matches_reference(SCHEMES[3], res, ref)
    if keep:
        _assert_same_samples(res, ref)


def test_scan_negative_rays_hold_the_conjugate_values():
    # rays: +theta, -theta, axis
    res = wedge_stability_scan(SCHEMES[1], TAB, d=1, theta=np.pi / 3,
                               radii=[1e-3, 0.7, 2.0, 1e200], keep_samples=True)
    plus, minus, axis = _kept(res)[0][0].reshape(3, 4)
    assert minus.tobytes() == np.conj(plus).tobytes()
    assert np.all(axis.imag == 0.0)


def _first_pass_orbits(n_radii, d, theta):
    """The orbits the full scan first evaluates, in its order: the index tuples
    i_{d-1} <= ... <= i_0, written ascending, with no more -theta values
    (n_radii <= i < 2*n_radii) than +theta values (i < n_radii); every orbit
    at theta = 0, where each index is below n_radii."""
    n = (3 if theta else 1) * n_radii
    return [t for t in itertools.combinations_with_replacement(range(n), d)
            if sum(n_radii <= i < 2 * n_radii for i in t) <= sum(i < n_radii for i in t)]


def _second_pass_orbits(mods, n_radii, d, theta):
    """The orbits the full scan evaluates every sample of, given the first
    pass's |R| in its order: those within _SPREAD of their ray combination's
    largest, and the conjugate orbits of those with more +theta values than
    -theta values (none of the samples past floating range)."""
    orbits = _first_pass_orbits(n_radii, d, theta)
    rays = [tuple(i // n_radii for i in t) for t in orbits]
    top = {}
    for r, m in zip(rays, mods):
        top[r] = max(top.get(r, 0.0), m)
    near = [t for t, r, m in zip(orbits, rays, mods) if m >= top[r] * (1.0 - stability._SPREAD)]
    swap = [*range(n_radii, 2 * n_radii), *range(n_radii), *range(2 * n_radii, 3 * n_radii)]
    conj = [tuple(sorted(swap[i] for i in t)) for t in near if theta and
            sum(i < n_radii for i in t) > sum(n_radii <= i < 2 * n_radii for i in t)]
    return near, conj


def _permutations(t):
    """The count of distinct permutations of the tuple t."""
    return math.factorial(len(t)) // math.prod(math.factorial(t.count(i)) for i in set(t))


def _record_moduli(monkeypatch):
    """Patch the scan's evaluator to record each block's |R|; returns the list."""
    seen = []
    call = stability._Evaluator.__call__

    def counting(evaluator, z, w):  # what each block returns
        r = call(evaluator, z, w)
        seen.append(np.abs(r))
        return r

    monkeypatch.setattr(stability._Evaluator, "__call__", counting)
    return seen


def _record_blocks(monkeypatch):
    """Patch the scan's evaluator to record each block's z; returns the list."""
    seen = []
    call = stability._Evaluator.__call__

    def recording(evaluator, z, w):
        seen.append(z.copy())
        return call(evaluator, z, w)

    monkeypatch.setattr(stability._Evaluator, "__call__", recording)
    return seen


@pytest.mark.parametrize("d,theta,n_radii,want", [
    (3, np.pi / 6, 40, 185_360),  # the d=3 wedge of the benchmark
    (2, np.pi / 2, 40, 4_840),
    (3, 0.0, 10, 220),  # every sample on the real axis: every orbit
    (2, 0.3, 4, 52),
], ids=["wedge3d", "d2-half-plane", "axis", "d2"])
def test_scan_evaluates_one_sample_of_each_conjugate_pair_of_orbits(monkeypatch, d, theta,
                                                                    n_radii, want):
    # z and w are symmetric in the directions, and the -theta ray holds the
    # +theta ray's conjugates: the first pass evaluates one sample of each
    # orbit with no more -theta values than +theta values, in scan order; the
    # second every sample of the orbits within _SPREAD of their ray
    # combination's largest |R|, and of the conjugate orbits of those with more
    # +theta values (no sample here is past floating range)
    seen = _record_moduli(monkeypatch)
    res = wedge_stability_scan(SCHEMES[2], TAB, d, theta,
                               radii=np.logspace(-3.0, 6.0, n_radii))
    n = (3 if theta else 1) * n_radii
    orbits = _first_pass_orbits(n_radii, d, theta)
    assert want == len(orbits) and res.n_samples == n**d
    assert (want < math.comb(n + d - 1, d)) == (theta > 0)  # every orbit at theta = 0
    mods = np.concatenate(seen)
    near, conj = _second_pass_orbits(mods[:want].tolist(), n_radii, d, theta)
    assert mods.size - want == sum(map(_permutations, near + conj))


def test_scan_d4_wedge_on_eight_radii_gives_what_every_sample_gives(monkeypatch):
    # CI's d=4, theta=pi/6 wedge on 8 radii, 331,776 samples, against the
    # gather scan of every sample.  At radius 1e6 |R| rounds to 1 (modes
    # stiff in several directions pass undamped), so the second pass expands
    # near orbits with repeated values, and their conjugate orbits, into
    # their distinct permutations
    seen = _record_moduli(monkeypatch)
    d, theta, radii = 4, np.pi / 6, np.logspace(-3.0, 6.0, 8)
    res = wedge_stability_scan(SCHEMES[2], TAB, d, theta, radii=radii)
    mods = np.concatenate(seen)  # before the gather scan adds its own blocks
    ref = reference_wedge_scan(SCHEMES[2], TAB, d, theta, radii=radii)
    assert (res.max_modulus, res.argmax, res.n_samples, res.n_excluded) == (
        ref.max_modulus, ref.argmax, 24**4, 0)
    assert res.per_ray == ref.per_ray and res.max_modulus == 1.0
    first = len(_first_pass_orbits(len(radii), d, theta))
    near, conj = _second_pass_orbits(mods[:first].tolist(), len(radii), d, theta)
    assert any(len(set(t)) < d for t in near) and any(len(set(t)) < d for t in conj)
    assert any(len(set(t)) == d for t in near) and any(len(set(t)) == d for t in conj)
    assert mods.size - first == sum(map(_permutations, near + conj))


def test_scan_first_pass_has_no_more_minus_theta_values_than_plus_theta_values(monkeypatch):
    # on radii 1 and 1000, -Im z / sin(theta) = D_1 + 1000 D_2, where D_r is
    # the count of +theta values of radius r less the count of -theta values
    # of radius r: their sum is the sample's +theta excess
    seen = _record_blocks(monkeypatch)
    d, theta, radii = 3, np.pi / 3, [1.0, 1000.0]
    monkeypatch.setattr(stability, "_BLOCK", 7)
    wedge_stability_scan(SCHEMES[2], TAB, d, theta, radii=radii)
    x = -np.concatenate(seen).imag / np.sin(theta)
    d_1000 = np.round(x / 1000.0)
    excess = np.round(x - 1000.0 * d_1000) + d_1000
    first = len(_first_pass_orbits(len(radii), d, theta))
    assert np.all(excess[:first] >= 0)
    assert np.any(excess[first:] < 0)  # the conjugates of near orbits, in the second pass


def test_scan_orbit_blocks_are_full_but_each_pass_last(monkeypatch):
    # the orbits left to their conjugates leave no gaps: a pass's blocks hold
    # _BLOCK samples each, all but its last
    seen = _record_blocks(monkeypatch)
    monkeypatch.setattr(stability, "_BLOCK", 37)
    d, theta, radii = 4, np.pi / 6, [0.5, 90.0]
    res = wedge_stability_scan(SCHEMES[2], TAB, d, theta, radii=radii)
    sizes = [z.size for z in seen]
    first = list(itertools.accumulate(sizes)).index(
        len(_first_pass_orbits(len(radii), d, theta))) + 1
    for blocks in (sizes[:first], sizes[first:]):
        assert blocks and set(blocks[:-1]) <= {37} and 0 < blocks[-1] <= 37
    assert first > 1 and len(sizes) - first > 1 and res.n_samples == 6**4


@pytest.mark.parametrize("keep", [False, True], ids=["orbits", "every-sample"])
def test_scan_builds_a_stepper_only_when_the_block_length_changes(monkeypatch, keep):
    # a pass's full blocks share one Stepper, and its last, shorter block gets
    # its own: no block steps more samples than it holds
    monkeypatch.setattr(stability, "_BLOCK", 37)
    built, blocks = [], []
    call = stability._Evaluator.__call__

    def building(*args):
        built.append(Stepper(*args))
        return built[-1]

    def stepping(evaluator, z, w):  # the block's length, and its Stepper's
        blocks.append((z.size, evaluator.stepper.problem.op.grid.m))
        return call(evaluator, z, w)

    monkeypatch.setattr(stability, "Stepper", building)
    monkeypatch.setattr(stability._Evaluator, "__call__", stepping)
    res = wedge_stability_scan(SCHEMES[2], TAB, 3, np.pi / 6, radii=[0.5, 4.0, 90.0],
                               keep_samples=keep)
    assert res.n_samples > 10 * 37 and all(n == m for n, m in blocks)
    changes = sum(a != b for a, b in zip(blocks, blocks[1:]))
    assert 1 < len(built) == 1 + changes <= 4


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("d,block", [(1, 5), (3, 43)])
def test_scan_blocks_are_bitwise_the_stability_function(monkeypatch, q, d, block):
    # 6**d samples in blocks of `block`, the last of a single sample, which
    # steps alone: every kept |R| is the one R_q gives on all the samples at once
    monkeypatch.setattr(stability, "_BLOCK", block)
    scheme = SCHEMES[q]
    res = wedge_stability_scan(scheme, TAB, d, np.pi / 6, radii=[0.5, 3.0], keep_samples=True)
    values, index, modulus = res.samples
    assert modulus.size % block == 1
    fac = 1.0 - scheme.gamma * values
    zp, pp = values[index[0]], fac[index[0]]  # formed as the scan forms them
    for ix in index[1:-1]:
        zp, pp = zp + values[ix], fac[ix] * pp
    z = values[index[-1]] if d == 1 else zp + values[index[-1]]
    w = z if d == 1 else (1.0 - fac[index[-1]] * pp) * (1.0 / scheme.gamma)
    assert modulus.tobytes() == np.abs(stability_function(scheme, TAB, z, w)).tobytes()


def test_stability_function_refuses_an_evaluator_of_another_scheme_or_count():
    # the scan's evaluator gives the call's own bits, and no other scheme's R
    z = np.linspace(-3.0, 2.0, 3) + 1j
    ev = stability._Evaluator(SCHEMES[1], TAB, 3)
    got = stability_function(SCHEMES[1], TAB, z, z, _evaluator=ev)
    assert got.tobytes() == stability_function(SCHEMES[1], TAB, z, z).tobytes()
    for args in ((SCHEMES[2], TAB, z, z), (SCHEMES[1], TAB, z[:2], z[:2]),
                 (SCHEMES[1], TAB, z[0], z[0])):
        with pytest.raises(ValueError, match="evaluator"):
            stability_function(*args, _evaluator=ev)


@given(
    d=st.integers(1, 4),
    theta=st.floats(0.0, np.pi / 2, exclude_min=True),
    radii=st.lists(st.sampled_from([1e-3, 0.05, 0.7, 3.0, 40.0, 2e4, 1e200]),
                   min_size=1, max_size=4, unique=True).filter(lambda r: min(r) < 1e200),
    block=st.sampled_from([None, 5, 37, 100, 1000]),
    keep=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_scan_matches_reference_on_drawn_wedges(d, theta, radii, block, keep):
    # the mirrored full path, at any block size, against the gather scan that
    # evaluates every sample
    kw = dict(radii=radii, keep_samples=keep)
    with mock.patch.object(stability, "_BLOCK", block or stability._BLOCK), \
            np.errstate(over="ignore", invalid="ignore"):
        res = wedge_stability_scan(SCHEMES[2], TAB, d, theta, **kw)
        ref = reference_wedge_scan(SCHEMES[2], TAB, d, theta, **kw)
    _assert_matches_reference(SCHEMES[2], res, ref)
    if keep:
        _assert_same_samples(res, ref)


@given(
    d=st.integers(1, 4),
    theta=st.sampled_from([0.0, 0.1, np.pi / 6, 1.0, np.pi / 2]),
    radii=st.lists(st.sampled_from([1e-3, 0.05, 0.7, 3.0, 40.0, 2e4, 1e200]),
                   min_size=1, max_size=3, unique=True).filter(lambda r: min(r) < 1e200),
    block=st.sampled_from([5, 37, 1000]),
)
@example(d=3, theta=np.pi / 2, radii=[0.05], block=5)  # conjugate orbits at one radius
@settings(max_examples=25, deadline=None)
def test_scan_orbits_give_what_every_sample_gives(d, theta, radii, block):
    # one orbit of each conjugate pair evaluated once, then the near-maximal
    # ones and their conjugates sample by sample, bitwise against the same
    # scan evaluating every sample (keep_samples)
    kw = dict(radii=radii)
    with mock.patch.object(stability, "_BLOCK", block), \
            np.errstate(over="ignore", invalid="ignore"):
        res = wedge_stability_scan(SCHEMES[2], TAB, d, theta, **kw)
        every = wedge_stability_scan(SCHEMES[2], TAB, d, theta, keep_samples=True, **kw)
    assert (res.max_modulus, res.argmax, res.n_samples, res.n_excluded) == (
        every.max_modulus, every.argmax, every.n_samples, every.n_excluded)
    assert list(res.per_ray.items()) == list(every.per_ray.items())  # -inf == -inf


@pytest.mark.parametrize("d,radii", [
    (2, [1.0, 3.0, 1e200]),
    (3, [0.5, 4.0]),
], ids=["full-product", "full-product-d3"])
def test_scan_kept_samples_keep_the_reference_order(d, radii):
    with np.errstate(over="ignore", invalid="ignore"):
        res = wedge_stability_scan(SCHEMES[2], TAB, d, np.pi / 3,
                                   radii=radii, keep_samples=True)
        ref = reference_wedge_scan(SCHEMES[2], TAB, d, np.pi / 3,
                                   radii=radii, keep_samples=True)
    assert res.samples[2].size == res.n_samples
    _assert_same_samples(res, ref)  # z and w follow from the parts by combine_zw


@pytest.mark.parametrize("q,d,theta", [
    (1, 2, np.pi / 2),
    (2, 2, np.pi / 2),
    (3, 2, np.pi / 2),
    (2, 3, np.pi / 6),
])
def test_scan_small_grid_stays_contractive(q, d, theta):
    radii = np.logspace(-2, 3, 12)
    res = wedge_stability_scan(SCHEMES[q], TAB, d=d, theta=theta, radii=radii)
    assert res.max_modulus <= 1.0 + 1e-12


@pytest.mark.parametrize("q,d,theta", [
    (q, d, theta) for q in (1, 2, 3) for d, theta in ((2, np.pi / 2), (3, 0.0), (4, 0.0))
] + [(2, 3, np.pi / 6)])
def test_wedge_claims_hold_on_eight_radii(q, d, theta):
    # the ten wedge claims on 8 radii, whose inner six the default 40 do not hold
    radii = np.logspace(-3.0, 6.0, 8)
    res = wedge_stability_scan(SCHEMES[q], TAB, d=d, theta=theta, radii=radii)
    assert res.max_modulus <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# factorization amplification bounds


def test_sup_bound_closed_forms():
    assert abs(splitting_sup_bound(1, GAMMA) - np.sqrt(6.0)) <= 1e-14
    assert abs(splitting_sup_bound(2, GAMMA) - np.sqrt(6.0)) <= 1e-14
    assert abs(splitting_sup_bound(3, GAMMA) - 2.0 * np.sqrt(2.0)) <= 1e-14


def test_sup_bound_rejects_bad_arguments():
    with pytest.raises(ValueError):
        splitting_sup_bound(0, GAMMA)
    with pytest.raises(ValueError):
        splitting_sup_bound(2, 0.0)
    with pytest.raises(ValueError):
        splitting_sup_bound(2, -1.0)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_sampled_sup_approaches_bound_from_below(d):
    bound = splitting_sup_bound(d, GAMMA)
    ratio = sampled_sup_ratio(d, GAMMA)
    assert ratio <= bound + 1e-12
    assert bound - ratio <= 1e-3


def test_sampled_sup_needs_a_true_splitting():
    with pytest.raises(ValueError):
        sampled_sup_ratio(1, GAMMA)


@pytest.mark.parametrize("fn", [splitting_sup_bound, sampled_sup_ratio])
@pytest.mark.parametrize("gamma", [0.0, -1.0, np.nan, np.inf, -np.inf])
def test_sup_functions_reject_a_gamma_that_is_not_finite_and_positive(fn, gamma):
    with pytest.raises(ValueError, match="gamma"):
        fn(2, gamma)


@pytest.mark.parametrize("d", [2, 3])
def test_sampled_sup_without_random_samples_is_the_diagonal_maximum(d):
    x_star = 1.0 / (GAMMA * (d - 1) ** 0.5)
    zs = 1j * np.linspace(0.5 * x_star, 2.0 * x_star, 101)
    want = float(np.max(np.abs(d * zs / (1.0 - GAMMA * zs) ** d)))
    assert sampled_sup_ratio(d, GAMMA, n_diag=101, n_random=0) == want
    assert sampled_sup_ratio(d, GAMMA, n_diag=101, n_random=500) >= want


@pytest.mark.parametrize(
    "name,bad",
    [("n_diag", 2.5), ("n_diag", True), ("n_diag", 0), ("n_random", 2.5),
     ("n_random", np.float64(3.0)), ("n_random", -1)],
)
def test_sampled_sup_sample_counts_must_be_whole_numbers(name, bad):
    with pytest.raises(ValueError, match=f"{name}="):
        sampled_sup_ratio(2, GAMMA, **{name: bad})


@pytest.mark.parametrize("fn", [splitting_sup_bound, sampled_sup_ratio])
@pytest.mark.parametrize("d", [2.5, True, "3", np.float64(3.0)])
def test_sup_functions_reject_a_direction_count_that_is_not_an_integer(fn, d):
    with pytest.raises(ValueError, match="d="):
        fn(d, GAMMA)


@pytest.mark.parametrize("fn", [splitting_sup_bound, sampled_sup_ratio])
def test_sup_functions_accept_a_numpy_integer_direction_count(fn):
    assert fn(np.int64(3), GAMMA) == fn(3, GAMMA)


@given(
    st.lists(
        st.builds(
            complex,
            st.floats(min_value=-1e6, max_value=0.0),
            st.floats(min_value=-1e6, max_value=1e6),
        ),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=200)
def test_resolvent_factors_bounded_on_left_half_plane(zs):
    # with every Re z_k <= 0 the factored resolvent never amplifies:
    # |1/(1 - gamma*w)| <= 1 and |w/(1 - gamma*w)| <= 2/gamma
    _, w = combine_zw(zs, GAMMA)
    denom = 1.0 - GAMMA * w
    assert abs(1.0 / denom) <= 1.0 + 1e-12
    assert abs(w / denom) <= 2.0 / GAMMA + 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_resolvent_factor_bounds_hold_on_random_samples(d):
    rng = np.random.default_rng(3)
    zr = -rng.uniform(0.0, 50.0, (10000, d)) + 1j * rng.uniform(-50, 50, (10000, d))
    prod = np.prod(1.0 - GAMMA * zr, axis=1)
    w = (1.0 - prod) / GAMMA
    denom = 1.0 - GAMMA * w
    assert np.all(np.abs(1.0 / denom) <= 1.0 + 1e-12)
    assert np.all(np.abs(w / denom) <= 2.0 / GAMMA + 1e-12)
