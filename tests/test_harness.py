"""Tests for the convergence-study harness and its table rendering."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amfrk.harness as harness
from amfrk.harness import check_study
from amfrk import (
    ConvergenceRow,
    GridSpec,
    StudyConfig,
    amf_scheme,
    build_problem,
    integrate,
    radau2a_tableau,
    render_table,
    run_convergence,
    weighted_norm,
)

LOG2 = math.log10(2.0)


# ---------------------------------------------------------------------------
# weighted_norm


def test_norm_of_all_ones_is_one():
    grid = GridSpec(dim=2, n_cells=9)
    assert weighted_norm(np.ones(grid.m), grid) == 1.0


def test_norm_of_basis_vector_counts_points():
    grid = GridSpec(dim=3, n_cells=5)
    e0 = np.zeros(grid.m)
    e0[0] = 1.0
    assert abs(weighted_norm(e0, grid) - grid.m**-0.5) <= 1e-16


@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=9, max_size=9),
    st.floats(min_value=-100.0, max_value=100.0),
)
def test_norm_is_absolutely_homogeneous(vals, c):
    grid = GridSpec(dim=2, n_cells=4)
    v = np.asarray(vals)
    lhs = weighted_norm(c * v, grid)
    rhs = abs(c) * weighted_norm(v, grid)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, rhs)


def test_norm_never_exceeds_max_entry():
    grid = GridSpec(dim=2, n_cells=4)
    rng = np.random.default_rng(0)
    v = rng.normal(size=grid.m)
    assert weighted_norm(v, grid) <= np.max(np.abs(v)) + 1e-15


@pytest.mark.parametrize("size", [0, 5, 48, 50])
def test_norm_rejects_a_vector_of_another_size(size):
    with pytest.raises(ValueError, match=f"49 entries, got {size}"):
        weighted_norm(np.ones(size), GridSpec(dim=2, n_cells=8))


# ---------------------------------------------------------------------------
# run_convergence validation


def test_empty_grid_sequence_gives_no_rows():
    cfg = StudyConfig(dim=2, beta=0.0, scheme_id="amf1", grid_ns=())
    assert run_convergence(cfg) == []


def test_rejects_unknown_scheme():
    cfg = StudyConfig(dim=2, beta=0.0, scheme_id="amf4", grid_ns=(8,))
    with pytest.raises(ValueError):
        run_convergence(cfg)
    cfg = StudyConfig(dim=2, beta=0.0, scheme_id="rk4", grid_ns=(8,))
    with pytest.raises(ValueError):
        run_convergence(cfg)


def test_rejects_unsupported_dimension():
    for dim in (1, 4):
        cfg = StudyConfig(dim=dim, beta=0.0, scheme_id="amf1", grid_ns=(8,))
        with pytest.raises(ValueError):
            run_convergence(cfg)


def test_scheme_id_is_case_insensitive():
    rows_a = run_convergence(
        StudyConfig(dim=2, beta=0.0, scheme_id="AMF1", grid_ns=(8,))
    )
    rows_b = run_convergence(
        StudyConfig(dim=2, beta=0.0, scheme_id=" amf1 ", grid_ns=(8,))
    )
    assert rows_a[0].eps2 == rows_b[0].eps2


def test_tied_step_needs_divisible_grid():
    # tau = q*h must make 1/tau an integer step count
    cfg = StudyConfig(dim=2, beta=0.0, scheme_id="amf2", grid_ns=(7,))
    with pytest.raises(ValueError):
        run_convergence(cfg)


@pytest.mark.parametrize("n", [0, 1, -2])
def test_rejects_grids_of_fewer_than_two_cells(n):
    # the step tau = q/N must not be formed for N < 2
    cfg = StudyConfig(dim=2, beta=0.0, scheme_id="amf2", grid_ns=(8, n))
    with pytest.raises(ValueError, match="at least 2 cells"):
        run_convergence(cfg)


@pytest.mark.parametrize("grids", [(24, 24), (48, 24), (8, 16, 12)])
def test_rejects_grids_that_do_not_increase_strictly(monkeypatch, grids):
    monkeypatch.setattr(harness, "integrate", None)  # nothing may run
    cfg = StudyConfig(dim=2, beta=0.0, scheme_id="amf2", grid_ns=grids)
    with pytest.raises(ValueError, match=r"grids must increase strictly, got \["):
        run_convergence(cfg)


@pytest.mark.parametrize("t_end,message", [
    (0.25, "t_end = 0.25 is not an integer number of steps of tau = 0.0111"),
    (-1.0, "end time must be non-negative and finite, got -1.0"),
    (1e308, "not a finite step count"),
], ids=["indivisible", "negative", "past-the-float-range"])
def test_end_time_a_level_cannot_reach_is_refused_before_any_run(monkeypatch, t_end, message):
    # N = 64 reaches t = 0.25 in 16 amf1 steps, N = 90 in no whole number of
    # them: refused with integrate's own message before N = 64 integrates
    def never(*args, **kwargs):
        raise AssertionError("a level ran before every level was checked")
    monkeypatch.setattr(harness, "integrate", never)
    cfg = StudyConfig(dim=3, beta=0.0, scheme_id="amf1", grid_ns=(64, 90), t_end=t_end)
    with pytest.raises(ValueError, match=re.escape(message)) as got:
        run_convergence(cfg)
    monkeypatch.undo()
    n = 90 if t_end == 0.25 else 64
    with pytest.raises(ValueError) as want:
        integrate(build_problem(2, n, 0.0), amf_scheme(1), radau2a_tableau(), 1 / n, t_end)
    assert str(got.value) == str(want.value)


def test_whole_steps_are_step_counts_rule_alone(monkeypatch):
    # amf2 on N = 5: no whole number of steps of 0.4 to t = 1, with
    # integrate's own message, but five of them to t = 2
    monkeypatch.setattr(harness, "integrate", None)  # nothing may run
    cfg = StudyConfig(dim=2, beta=0.0, scheme_id="amf2", grid_ns=(5,))
    with pytest.raises(ValueError, match=r"^t_end = 1.0 is not an integer number of steps "
                                         r"of tau = 0.4$"):
        check_study(cfg)
    assert check_study(dataclasses.replace(cfg, t_end=2.0)).q == 2


def test_a_level_in_another_dim_is_refused_by_build_problem(monkeypatch):
    monkeypatch.setattr(harness, "integrate", None)  # nothing may run
    scheme = amf_scheme(1)
    with pytest.raises(ValueError, match="manufactured problems exist for dim 2 and 3, got 4"):
        harness.run_level(4, 8, 0.0, 0.1, scheme, 0.125, 1.0)


def test_a_study_in_another_dim_is_refused_before_its_memory_is_sized(monkeypatch):
    # dim 4 on N = 1024 would need far more than 1 MiB; the dim is named
    monkeypatch.setattr(harness, "integrate", None)  # nothing may run
    monkeypatch.setattr(harness, "_physical_memory", lambda: 2**20)
    cfg = StudyConfig(dim=4, beta=0.0, scheme_id="amf1", grid_ns=(1024,))
    with pytest.raises(ValueError, match=r"^dim must be 2 or 3, got 4$"):
        check_study(cfg)


@pytest.mark.parametrize("change,message", [
    ({"epsilon": 0.0}, "diffusion coefficients must be positive and finite"),
    ({"beta": math.nan}, "ridge amplitude beta must be finite, got nan"),
    ({"grid_ns": (8,), "epsilon": 1e308}, "give a non-finite stencil weight at h = 0.125"),
], ids=["eps-zero", "beta-nan", "eps-overflow"])
def test_check_study_refuses_what_build_problem_refuses(monkeypatch, change, message):
    # with build_problem's own message, before any level integrates
    monkeypatch.setattr(harness, "integrate", None)  # nothing may run
    cfg = dataclasses.replace(StudyConfig(dim=2, beta=0.0, scheme_id="amf2", grid_ns=(24, 48)),
                              **change)
    with pytest.raises(ValueError, match=re.escape(message)):
        check_study(cfg)
    with pytest.raises(ValueError, match=re.escape(message)):
        build_problem(cfg.dim, cfg.grid_ns[0], cfg.beta, cfg.epsilon)


def test_grid_too_large_for_the_memory_is_refused_before_any_run(monkeypatch):
    # 2-D N=64 with amf2: (5 work rows + 2) states of 63^2 float64 values
    need = 7 * 63**2 * 8
    cfg = StudyConfig(dim=2, beta=0.0, scheme_id="amf2", grid_ns=(8, 64))
    monkeypatch.setattr(harness, "integrate", None)  # nothing may run
    monkeypatch.setattr(harness, "_physical_memory", lambda: need - 1)
    with pytest.raises(ValueError, match=r"N = 64: .* MiB, more than the .* MiB of physical"):
        check_study(cfg)
    monkeypatch.setattr(harness, "_physical_memory", lambda: need)
    check_study(cfg)
    monkeypatch.setattr(harness, "_physical_memory", lambda: 0)  # unknown: not checked
    check_study(dataclasses.replace(cfg, grid_ns=(10**8,)))


# ---------------------------------------------------------------------------
# run_convergence rows


@pytest.mark.parametrize("dim,beta,scheme_id,grids,t_end", [
    (2, 1.0, "amf2", (8, 16), 0.5),
    (3, 0.0, "amf3", (6, 12), 0.5),
    (2, 0.0, "amf1", (5, 10), 0.4),
])
def test_run_level_row_is_the_studys_row(dim, beta, scheme_id, grids, t_end):
    cfg = StudyConfig(dim=dim, beta=beta, scheme_id=scheme_id, grid_ns=grids, t_end=t_end)
    rows = run_convergence(cfg)
    scheme = amf_scheme(int(scheme_id[-1]))
    for n, want in zip(grids, rows):
        record, row = harness.run_level(dim, n, beta, 0.1, scheme, scheme.q / n, t_end)
        assert row == dataclasses.replace(want, p=None)
        assert row.eps2.hex() == want.eps2.hex() and row.tau.hex() == want.tau.hex()
        assert record.t == pytest.approx(t_end, abs=1e-15)
        problem = build_problem(dim, n, beta)
        ran = integrate(problem, scheme, radau2a_tableau(), scheme.q / n, t_end)
        assert record.t == ran.t and np.array_equal(record.y, ran.y)


def test_rows_carry_tied_steps_and_digits():
    cfg = StudyConfig(dim=2, beta=0.0, scheme_id="amf2", grid_ns=(8, 16))
    rows = run_convergence(cfg)
    assert [r.n_cells for r in rows] == [8, 16]
    assert rows[0].tau == 2 / 8 and rows[1].tau == 2 / 16
    for r in rows:
        assert r.h == 1.0 / r.n_cells
        assert r.eps2 > 0.0
        assert r.delta2 == -math.log10(r.eps2)


def test_order_attaches_to_the_coarser_level():
    cfg = StudyConfig(dim=2, beta=0.0, scheme_id="amf1", grid_ns=(8, 16))
    rows = run_convergence(cfg)
    assert rows[1].p is None
    assert rows[0].p == (rows[1].delta2 - rows[0].delta2) / LOG2


def test_no_order_without_exact_halving():
    cfg = StudyConfig(dim=2, beta=0.0, scheme_id="amf1", grid_ns=(8, 12))
    rows = run_convergence(cfg)
    assert rows[0].p is None and rows[1].p is None


def test_exact_result_has_infinite_digits_and_no_order():
    # t_end = 0 returns the exact initial state: eps2 = 0 on every level
    cfg = StudyConfig(dim=2, beta=1.0, scheme_id="amf2", grid_ns=(8, 16), t_end=0.0)
    rows = run_convergence(cfg)
    assert [(r.eps2, r.delta2, r.p) for r in rows] == [(0.0, math.inf, None)] * 2


@pytest.mark.parametrize("errors", [(0.0, 1e-3), (1e-3, 0.0)])
def test_no_order_next_to_an_exact_level(monkeypatch, errors):
    norms = iter(errors)
    monkeypatch.setattr(harness, "weighted_norm", lambda v, grid: next(norms))
    cfg = StudyConfig(dim=2, beta=0.0, scheme_id="amf1", grid_ns=(8, 16))
    rows = run_convergence(cfg)
    assert [r.delta2 for r in rows] == [
        math.inf if e == 0.0 else -math.log10(e) for e in errors
    ]
    assert rows[0].p is None and rows[1].p is None


def test_study_is_deterministic():
    cfg = StudyConfig(dim=2, beta=1.0, scheme_id="amf3", grid_ns=(9,))
    r1 = run_convergence(cfg)[0]
    r2 = run_convergence(cfg)[0]
    assert r1.eps2 == r2.eps2


def test_three_dimensional_study_runs():
    cfg = StudyConfig(dim=3, beta=0.0, scheme_id="amf1", grid_ns=(8,))
    rows = run_convergence(cfg)
    assert len(rows) == 1 and rows[0].p is None
    assert rows[0].eps2 > 0.0


def test_reference_digits_at_coarse_levels():
    # frozen from the reference error table for the stiff 2-D problem
    cfg = StudyConfig(dim=2, beta=0.0, scheme_id="amf1", grid_ns=(24, 48))
    rows = run_convergence(cfg)
    assert abs(rows[0].delta2 - 3.74) <= 0.03
    assert abs(rows[1].delta2 - 4.35) <= 0.03
    assert abs(rows[0].p - 2.03) <= 0.05


# ---------------------------------------------------------------------------
# render_table


def _sample_rows():
    return [
        ConvergenceRow(n_cells=8, h=0.125, tau=0.125, eps2=1.8232e-4,
                       delta2=3.7392, p=2.0312),
        ConvergenceRow(n_cells=16, h=0.0625, tau=0.0625, eps2=4.4614e-5,
                       delta2=4.3506, p=None),
    ]


def test_csv_rendering():
    out = render_table(_sample_rows(), format="csv")
    lines = out.splitlines()
    assert lines[0] == "h,tau,eps2,delta2,p"
    assert lines[1] == "0.125,0.125,0.00018232,3.7392,2.0312"
    assert lines[2] == "0.0625,0.0625,4.4614e-05,4.3506,"
    assert out.endswith("\n")


def test_markdown_rendering():
    out = render_table(_sample_rows(), format="markdown")
    lines = out.splitlines()
    assert lines[0] == "| h | delta2 (p) |"
    assert lines[2] == "| 1/8 | 3.74 (2.03) |"
    assert lines[3] == "| 1/16 | 4.35 |"
    assert render_table(_sample_rows(), format="md") == out


def _study(*grids):
    return [ConvergenceRow(n_cells=n, h=1.0 / n, tau=1.0 / n, eps2=10.0**-k, delta2=k, p=None)
            for k, n in enumerate(grids, 3)]


@pytest.mark.parametrize("format", ["csv", "markdown"])
@pytest.mark.parametrize("other", [(8, 16), (16, 32, 64)], ids=["fewer", "shifted"])
def test_studies_on_different_grids_rejected(format, other):
    # markdown zips the levels: it would drop amf1's 1/32 row, or print amf2's
    # 1/16 .. 1/64 rows under h = 1/8 .. 1/32
    studies = {"amf1": _study(8, 16, 32), "amf2": _study(*other)}
    want = f"studies on different grids: {{'amf1': [8, 16, 32], 'amf2': {list(other)}}}"
    with pytest.raises(ValueError, match=re.escape(want)):
        render_table(studies, format=format)
    assert render_table({"amf1": _study(*other), "amf2": _study(*other)}, format=format)


def test_empty_table_is_header_only():
    assert render_table([], format="csv") == "h,tau,eps2,delta2,p\n"


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        render_table(_sample_rows(), format="latex")
