"""Tableau entries, sweep coefficients, and their defining identities."""

from fractions import Fraction
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from amfrk import (
    SCHEME_IDS,
    amf_scheme,
    radau2a_tableau,
    scheme_sweeps,
    verify_scheme_conditions,
)
from amfrk.tableau import GAMMA, SQRT6, AmfScheme, _make_iteration
from helpers import extended_scheme

TAB = radau2a_tableau()


def test_tableau_entries_exact():
    # each entry is its rational value correctly rounded
    F = Fraction
    assert TAB.a.tolist() == [[float(F(5, 12)), float(F(-1, 12))],
                              [float(F(3, 4)), float(F(1, 4))]]
    assert TAB.b.tolist() == [float(F(3, 4)), float(F(1, 4))]
    assert TAB.c.tolist() == [float(F(1, 3)), float(F(1))]
    assert {x.dtype for x in (TAB.a, TAB.b, TAB.c)} == {np.dtype(np.float64)}


def test_output_weights_are_exact():
    # stiffly accurate: b is A's last row, bit for bit, so a step's output is
    # its last stage
    assert np.array_equal(TAB.b, TAB.a[-1])


def test_collocation_abscissae():
    assert np.max(np.abs(TAB.a @ np.ones(2) - TAB.c)) <= 1e-15


def test_output_weights_solve_transposed_system():
    # b^T A^{-1} = (0, 1): no weight on the first stage, none left for y_n
    assert np.max(np.abs(np.linalg.solve(TAB.a.T, TAB.b) - [0.0, 1.0])) <= 1e-15


def test_stage_order_two_identities():
    assert np.max(np.abs(TAB.a @ TAB.c - TAB.c**2 / 2)) <= 1e-15
    assert abs(TAB.b @ TAB.c - 0.5) <= 1e-15
    # the first identity in closed form: A.c = (1/18, 1/2)
    assert np.allclose(TAB.a @ TAB.c, [1 / 18, 1 / 2], rtol=0, atol=1e-16)


def test_classical_order_three_conditions():
    assert abs(TAB.b.sum() - 1.0) <= 1e-15
    assert abs(TAB.b @ TAB.c**2 - 1 / 3) <= 1e-15
    assert abs(TAB.b @ (TAB.a @ TAB.c) - 1 / 6) <= 1e-15


def test_matrix_is_nonsingular_with_determinant_one_sixth():
    assert abs(np.linalg.det(TAB.a) - 1 / 6) <= 1e-16
    assert abs(GAMMA - math.sqrt(1 / 6)) <= 1e-16


@pytest.mark.parametrize("q", [1, 2, 3])
def test_scheme_shape(q):
    scheme = amf_scheme(q)
    assert scheme.q == q
    assert scheme.name == f"amf{q}"
    assert scheme.gamma == GAMMA
    assert len(scheme.iterations) == q
    for it in scheme.iterations:
        assert it.approx_a.shape == (2, 2)
    designed = {
        1: ["stage_consistency"],
        2: ["stage_consistency", "output_row"],
        3: ["output_row"] * 3,
    }
    assert [it.condition for it in scheme.iterations] == designed[q]


def test_scheme_registry():
    assert SCHEME_IDS == ("amf1", "amf2", "amf3")
    for q, sid in enumerate(SCHEME_IDS, 1):
        assert scheme_sweeps(sid) == q
        assert amf_scheme(q).name == sid
    assert scheme_sweeps(" AMF2 ") == 2
    for bad in ("amf4", "amf", "", "amf 1"):
        with pytest.raises(ValueError, match="amf1"):
            scheme_sweeps(bad)


def test_unknown_design_condition_rejected():
    with pytest.raises(ValueError):
        _make_iteration(0.5, 0.5, "order_four", GAMMA)


def test_first_sweep_coefficients_closed_form():
    it = amf_scheme(1).iterations[0]
    assert it.mix_coeff == -(3 + 2 * SQRT6) / 9
    assert it.low_coeff == 0.75 * (5 * SQRT6 - 12)
    # decimal anchors, independent of the closed-form arithmetic above
    assert abs(it.mix_coeff - (-0.8776639)) <= 1e-6
    assert abs(it.low_coeff - 0.1855865) <= 1e-6


def test_second_sweep_coefficients_closed_form():
    it = amf_scheme(2).iterations[1]
    assert it.mix_coeff == (5 - 2 * SQRT6) / 9
    assert it.low_coeff == 0.75 * SQRT6
    assert abs(it.mix_coeff - 0.0112247) <= 1e-6
    assert abs(it.low_coeff - 1.8371173) <= 1e-6


def test_sweep_sharing_between_schemes():
    one = amf_scheme(1)
    two = amf_scheme(2)
    three = amf_scheme(3)
    assert np.array_equal(two.iterations[0].approx_a, one.iterations[0].approx_a)
    for it in three.iterations:
        assert np.array_equal(it.approx_a, two.iterations[1].approx_a)


@pytest.mark.parametrize(
    "bad", [0, 4, -1, "2", 2.0, None, True, pytest.param(np.float64(2.0), id="float64")]
)
def test_invalid_sweep_count_rejected(bad):
    with pytest.raises(ValueError, match="q="):
        amf_scheme(bad)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_numpy_integer_sweep_count_is_accepted(q):
    scheme = amf_scheme(np.int64(q))
    assert type(scheme.q) is int and scheme.q == q
    assert scheme.name == amf_scheme(q).name
    for a, b in zip(scheme.iterations, amf_scheme(q).iterations, strict=True):
        assert (a.mix_coeff, a.low_coeff, a.condition) == (b.mix_coeff, b.low_coeff, b.condition)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_double_eigenvalue(q):
    for it in amf_scheme(q).iterations:
        eigs = np.sort(np.linalg.eigvals(it.approx_a))
        assert np.max(np.abs(eigs - GAMMA)) <= 1e-7  # double root: sqrt(eps) split
        # characteristic polynomial (x - gamma)^2 via trace and determinant
        assert abs(np.trace(it.approx_a) - 2 * GAMMA) <= 1e-12
        assert abs(np.linalg.det(it.approx_a) - GAMMA**2) <= 1e-12


@pytest.mark.parametrize("q", [1, 2, 3])
def test_defining_conditions_at_rounding_level(q):
    report = verify_scheme_conditions(amf_scheme(q), TAB)
    assert report, "empty condition report"
    worst = max(report.values())
    assert worst <= 1e-14, f"q={q}: worst residual {worst}"


@pytest.mark.parametrize(
    "scheme",
    [amf_scheme(1), amf_scheme(2), amf_scheme(3), extended_scheme(amf_scheme(1), 4)],
    ids=lambda scheme: scheme.name,
)
def test_condition_report_values_are_python_floats(scheme):
    report = verify_scheme_conditions(scheme, TAB)
    # np.float64 subclasses float, so isinstance would not tell them apart
    assert all(type(v) is float for v in report.values()), report


def test_condition_report_keys_follow_design():
    r1 = verify_scheme_conditions(amf_scheme(1), TAB)
    assert "stage_consistency[0]" in r1 and "output_row[0]" not in r1
    r2 = verify_scheme_conditions(amf_scheme(2), TAB)
    assert "stage_consistency[0]" in r2 and "output_row[1]" in r2
    assert "output_row[0]" not in r2 and "stage_consistency[1]" not in r2
    r3 = verify_scheme_conditions(amf_scheme(3), TAB)
    for i in range(3):
        assert f"output_row[{i}]" in r3
        assert f"stage_consistency[{i}]" not in r3
        assert f"reconstruction[{i}]" in r3 and f"eigenvalue_pair[{i}]" in r3


def test_condition_report_detects_perturbation():
    """A 0.1 shift in the second sweep's lower coefficient must surface."""
    base = amf_scheme(2)
    bad_it = _make_iteration(
        base.iterations[1].mix_coeff,
        base.iterations[1].low_coeff + 0.1,
        "output_row",
        GAMMA,
    )
    bad = AmfScheme(
        name="amf2-perturbed",
        q=2,
        gamma=GAMMA,
        iterations=(base.iterations[0], bad_it),
    )
    report = verify_scheme_conditions(bad, TAB)
    assert report["output_row[1]"] > 1e-3
    # the structural identities still hold for the perturbed matrix
    assert report["reconstruction[1]"] <= 1e-14
    assert report["eigenvalue_pair[1]"] <= 1e-14


def test_extended_scheme_repeats_last_sweep():
    base = amf_scheme(2)
    ext = extended_scheme(base, 5)
    assert ext.q == 5
    assert len(ext.iterations) == 5
    assert ext.iterations[:2] == base.iterations
    for it in ext.iterations[2:]:
        assert it is base.iterations[-1]
    same = extended_scheme(base, 2)
    assert same.iterations == base.iterations


@pytest.mark.parametrize("q", [1, 2, 3])
def test_extended_scheme_keeps_each_sweeps_condition(q):
    """Repeated sweeps are checked against their own design condition, not
    one guessed from the sweep count."""
    base = amf_scheme(q)
    ext = extended_scheme(base, 5)
    report = verify_scheme_conditions(ext, TAB)
    assert max(report.values()) <= 1e-14, report
    for i, it in enumerate(ext.iterations):
        assert it.condition == base.iterations[min(i, q - 1)].condition
        keys = {k for k in report if k.endswith(f"[{i}]")}
        names = ("reconstruction", "eigenvalue_pair", it.condition)
        assert keys == {f"{name}[{i}]" for name in names}


def test_extended_scheme_refuses_to_shrink():
    with pytest.raises(ValueError):
        extended_scheme(amf_scheme(3), 2)


@given(
    s=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    l=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_any_coefficient_pair_gives_double_eigenvalue(s, l):
    """The similarity construction pins both eigenvalues to gamma for every
    (mix, low) pair, not just the published ones."""
    it = _make_iteration(s, l, "output_row", GAMMA)
    mix = np.array([[1.0, s], [0.0, 1.0]])
    low = np.array([[0.0, 0.0], [l, 0.0]])
    rebuilt = GAMMA * mix @ np.linalg.inv(np.eye(2) - low) @ np.linalg.inv(mix)
    assert np.max(np.abs(it.approx_a - rebuilt)) <= 1e-12
    assert abs(np.trace(it.approx_a) - 2 * GAMMA) <= 1e-12
    assert abs(np.linalg.det(it.approx_a) - GAMMA**2) <= 1e-12
