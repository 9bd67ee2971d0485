"""Acceptance gate: every shipped claim checked at its stated tolerance.

Each test covers one claim and prints a single PASS/FAIL line (visible with
pytest -s, or in captured output on failure) so a run reads as a checklist:

  - frozen global-error digit tables for the three sweep counts, 2-D and 3-D
  - amf2's error split into space, Radau IIA time and sweeps
  - tableau / sweep-matrix defining identities at machine precision
  - wedge stability scans and the factorization amplification bound
  - sweep fixed point against a dense all-at-once solve, and the scalar
    step against the rational multiplier R_q
  - scalar local-order slopes
  - spatial operator spectra, round trips, commutators
"""

import math
import time

import numpy as np

from amfrk import (
    StudyConfig,
    amf_scheme,
    build_problem,
    integrate,
    radau2a_tableau,
    run_convergence,
    stability_function,
    verify_scheme_conditions,
    wedge_stability_scan,
    weighted_norm,
)
from amfrk.harness import correct_digits
from amfrk.integrator import amf_step
from amfrk.splitops import (
    GridSpec,
    apply_direction,
    build_split_operator,
    solve_direction_factor,
    solve_pi,
)
from amfrk.tableau import GAMMA

from helpers import (
    allocating,
    apply_pi,
    dense_direction_matrix,
    direction_eigenvalues,
    extended_scheme,
    irk_reference_step,
    modal_reference,
    sampled_sup_ratio,
    scalar_problem,
    splitting_sup_bound,
)

TAB = radau2a_tableau()
SCHEMES = {q: amf_scheme(q) for q in (1, 2, 3)}

DIGIT_TOL = 0.03
ORDER_TOL = 0.05

# frozen reference digits; each entry: (delta2 per level, p per halved pair,
# number of leading order estimates left out of the check)
TABLE_2D_BETA0 = {
    "amf1": ([3.74, 4.35, 4.96, 5.56, 6.16], [2.03, 2.03, 1.99, 1.99], 0),
    "amf2": ([4.94, 5.79, 6.66, 7.54, 8.42], [2.82, 2.89, 2.92, 2.93], 0),
    "amf3": ([4.90, 5.67, 6.40, 7.11, 7.80], [2.42, 2.36, 2.29], 1),
}
TABLE_2D_BETA1 = {
    "amf1": ([3.02, 3.32, 3.61, 3.91, 4.21], [1.00, 0.97, 1.00, 1.00], 0),
    "amf2": ([2.79, 3.02, 3.27, 3.54, 3.82], [0.76, 0.83, 0.90, 0.93], 0),
    "amf3": ([2.52, 2.72, 2.95, 3.21, 3.48], [0.66, 0.76, 0.86, 0.91], 0),
}
TABLE_3D_BETA0 = {
    "amf1": ([3.40, 4.01], [2.03], 0),
    "amf2": ([4.31, 5.20], [2.96], 0),
    "amf3": ([4.53, 5.34], [2.69], 0),
}
# amf2's error at t = 1 along tau = 2/N in digits, split three ways with the
# PDE solution u: (dim, N, beta): (total, space = semi-discrete - u, time =
# exact Radau IIA - semi-discrete, sweeps = amf2 - exact Radau IIA); the
# beta = 0 space part is at rounding level (None), as the stencil
# differentiates the polynomial exactly
SPLIT_AMF2 = {
    (2, 48, 1.0): (3.02, 4.64, 6.11, 3.02),
    (2, 96, 1.0): (3.27, 5.25, 6.98, 3.27),
    (3, 24, 1.0): (2.62, 4.40, 5.19, 2.62),
    (2, 48, 0.0): (5.79, None, 6.06, 5.63),
}


def _report(ok: bool, label: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _check_tables(dim: int, beta: float, grids, frozen) -> tuple[float, float]:
    digit_dev = 0.0
    order_dev = 0.0
    for sid, (want_digits, want_p, skip) in frozen.items():
        rows = run_convergence(
            StudyConfig(dim=dim, beta=beta, scheme_id=sid, grid_ns=grids)
        )
        assert len(rows) == len(want_digits)
        for r, want in zip(rows, want_digits):
            digit_dev = max(digit_dev, abs(r.delta2 - want))
        ps = [r.p for r in rows if r.p is not None][skip:]
        assert len(ps) == len(want_p)
        for p, want in zip(ps, want_p):
            order_dev = max(order_dev, abs(p - want))
    return digit_dev, order_dev


def test_error_digits_2d_beta0():
    grids = (24, 48, 96, 192, 384)
    digit_dev, order_dev = _check_tables(2, 0.0, grids, TABLE_2D_BETA0)
    _report(
        digit_dev <= DIGIT_TOL and order_dev <= ORDER_TOL,
        "2-D beta=0 error digits",
        f"worst digit dev {digit_dev:.3f} (tol {DIGIT_TOL}), "
        f"worst order dev {order_dev:.3f} (tol {ORDER_TOL})",
    )


def test_error_digits_2d_beta1():
    grids = (24, 48, 96, 192, 384)
    digit_dev, order_dev = _check_tables(2, 1.0, grids, TABLE_2D_BETA1)
    _report(
        digit_dev <= DIGIT_TOL and order_dev <= ORDER_TOL,
        "2-D beta=1 error digits",
        f"worst digit dev {digit_dev:.3f} (tol {DIGIT_TOL}), "
        f"worst order dev {order_dev:.3f} (tol {ORDER_TOL})",
    )


def test_error_digits_3d_beta0():
    digit_dev, order_dev = _check_tables(3, 0.0, (24, 48), TABLE_3D_BETA0)
    _report(
        digit_dev <= DIGIT_TOL and order_dev <= ORDER_TOL,
        "3-D beta=0 error digits",
        f"worst digit dev {digit_dev:.3f} (tol {DIGIT_TOL}), "
        f"worst order dev {order_dev:.3f} (tol {ORDER_TOL})",
    )


def test_error_split_into_space_radau_time_and_sweeps():
    # the semi-discrete solution and exact Radau IIA come mode by mode from
    # the sine basis; at beta = 1 the sweeps are the whole error
    worst, sweeps_off, space_floor = 0.0, 0.0, math.inf
    for (dim, n, beta), want in SPLIT_AMF2.items():
        problem = build_problem(dim, n, beta)
        semi, radau = modal_reference(problem, 2.0 / n, n // 2)
        amf = integrate(problem, SCHEMES[2], TAB, 2.0 / n, 1.0).y
        u = problem.exact(1.0)
        got = [correct_digits(weighted_norm(e, problem.op.grid))
               for e in (amf - u, semi - u, radau - semi, amf - radau)]
        worst = max([worst] + [abs(g - w) for g, w in zip(got, want) if w is not None])
        if beta:
            sweeps_off = max(sweeps_off, abs(got[3] - got[0]))
        else:
            space_floor = min(space_floor, got[1])
    _report(
        worst <= DIGIT_TOL and sweeps_off <= 0.01 and space_floor >= 12.0,
        "amf2 error split",
        f"worst digit dev {worst:.3f} (tol {DIGIT_TOL}), beta=1 sweeps vs total "
        f"{sweeps_off:.4f} (tol 0.01), beta=0 space {space_floor:.2f} digits (at least 12)",
    )


def test_defining_identities():
    t0 = time.perf_counter()
    worst = 0.0
    a, c = TAB.a, TAB.c
    worst = max(worst, float(np.max(np.abs(a @ c - c * c / 2.0))))
    worst = max(worst, float(np.max(np.abs(a @ np.ones(2) - c))))
    # stiffly accurate: b is A's last row exactly, and b^T A^{-1} = (0, 1)
    last_row = np.array_equal(TAB.b, a[-1])
    weights = float(np.max(np.abs(np.linalg.solve(a.T, TAB.b) - [0.0, 1.0])))
    for scheme in SCHEMES.values():
        for value in verify_scheme_conditions(scheme, TAB).values():
            worst = max(worst, value)
    elapsed = time.perf_counter() - t0
    _report(
        last_row and weights <= 1e-15 and worst <= 1e-14 and elapsed < 1.0,
        "defining identities",
        f"b is A's last row: {last_row}, output weights off by {weights:.2e} "
        f"(tol 1e-15), worst residual {worst:.2e} (tol 1e-14) in {elapsed:.3f}s",
    )


def test_wedge_stability_and_amplification_bound():
    t0 = time.perf_counter()
    cases = [(q, d, th) for q in (1, 2, 3)
             for d, th in ((2, np.pi / 2), (3, 0.0), (4, 0.0))]
    cases.append((2, 3, np.pi / 6))
    worst = -np.inf
    for q, d, theta in cases:
        res = wedge_stability_scan(SCHEMES[q], TAB, d, theta)
        worst = max(worst, res.max_modulus)
        assert res.max_modulus <= 1.0 + 1e-12, (q, d, theta, res.max_modulus)
    bound_dev = 0.0
    for d in (2, 3, 4):
        bound_dev = max(
            bound_dev,
            abs(splitting_sup_bound(d, GAMMA) - sampled_sup_ratio(d, GAMMA)),
        )
    elapsed = time.perf_counter() - t0
    _report(
        worst <= 1.0 + 1e-12 and bound_dev <= 1e-3 and elapsed < 10.0,
        "wedge stability",
        f"max |R| {worst:.15f} over {len(cases)} scans, amplification bound "
        f"dev {bound_dev:.2e} (tol 1e-3), {elapsed:.2f}s (budget 10s)",
    )


def test_sweep_fixed_point_and_scalar_multiplier():
    tau = 0.125
    worst_grid = 0.0
    for beta in (0.0, 1.0):
        problem = build_problem(2, 8, beta)
        y0 = problem.exact(0.0)
        ref = irk_reference_step(problem, TAB, 0.0, tau, y0)
        for scheme in SCHEMES.values():
            longer = extended_scheme(scheme, 30)
            y1 = amf_step(problem, longer, TAB, 0.0, tau, y0)
            worst_grid = max(worst_grid, float(np.max(np.abs(y1 - ref))))
    rng = np.random.default_rng(11)
    worst_scalar = 0.0
    for scheme in SCHEMES.values():
        for _ in range(20):
            z = complex(-30.0 * rng.random(), rng.uniform(-30.0, 30.0))
            y1 = amf_step(scalar_problem(z), scheme, TAB, 0.0, 1.0,
                          np.array([1.0 + 0.0j]))
            r = stability_function(scheme, TAB, z, z)
            worst_scalar = max(worst_scalar, abs(y1[0] - r))
    _report(
        worst_grid <= 1e-11 and worst_scalar <= 1e-13,
        "sweep fixed point",
        f"30-sweep vs dense solve max diff {worst_grid:.2e} (tol 1e-11), "
        f"scalar step vs R_q max diff {worst_scalar:.2e} (tol 1e-13)",
    )


def test_scalar_local_order_slopes():
    # the one-step error on y' = lam*y depends on tau only through
    # x = tau*lam, so the step grid scales with lam to keep every case in
    # the same asymptotic window
    targets = {1: 3.0, 2: 4.0, 3: 4.0}
    worst = 0.0
    detail = []
    for q, scheme in SCHEMES.items():
        for lam in (-1.0, -10.0, -100.0):
            pts = []
            for k in range(3, 9):
                tau = 2.0**-k / abs(lam)
                y1 = amf_step(scalar_problem(lam), scheme, TAB, 0.0, tau,
                              np.array([1.0]))
                err = abs(y1[0] - math.exp(lam * tau))
                if err > 1e-13:
                    pts.append((math.log(tau), math.log(err)))
            assert len(pts) >= 3, (q, lam, len(pts))
            slope = np.polyfit(*zip(*pts), 1)[0]
            worst = max(worst, abs(slope - targets[q]))
            detail.append(f"amf{q}/lam={lam:g}: {slope:.2f}")
    _report(
        worst <= 0.15,
        "scalar local order",
        f"worst slope dev {worst:.3f} (tol 0.15); " + ", ".join(detail),
    )


def test_spatial_operator_identities():
    line = build_split_operator(
        GridSpec(dim=1, n_cells=16),
        diffusion=[1.0],
        advection=[0.5],
        reaction=0.3,
    )
    spec_dev = 0.0
    computed = np.sort(direction_eigenvalues(line, 0))
    dense = np.sort(np.linalg.eigvals(dense_direction_matrix(line, 0)).real)
    spec_dev = max(spec_dev, float(np.max(np.abs(computed - dense))))
    # on a grid the direction operator carries each line eigenvalue once per
    # perpendicular point
    op = build_split_operator(
        GridSpec(dim=2, n_cells=12),
        diffusion=[1.0, 2.0],
        advection=[0.5, 0.25],
        reaction=0.3,
    )
    for j in range(2):
        lam_line = direction_eigenvalues(op, j)
        mult = op.grid.m // lam_line.size
        expected = np.sort(np.repeat(lam_line, mult))
        dense = np.sort(np.linalg.eigvals(dense_direction_matrix(op, j)).real)
        spec_dev = max(spec_dev, float(np.max(np.abs(expected - dense))))

    rng = np.random.default_rng(5)
    trip_dev = 0.0
    for dim, n in ((2, 12), (3, 6)):
        big = build_split_operator(
            GridSpec(dim=dim, n_cells=n),
            diffusion=[1.0 + 0.25 * j for j in range(dim)],
            reaction=0.4,
        )
        v = rng.normal(size=big.grid.m)
        sigma = 0.37
        for j in range(dim):
            x = solve_direction_factor(big, j, sigma, v)
            back = x - sigma * allocating(apply_direction, big, j, x)
            trip_dev = max(trip_dev, float(np.max(np.abs(back - v))))
        back = apply_pi(big, sigma, allocating(solve_pi, big, sigma, v))
        trip_dev = max(trip_dev, float(np.max(np.abs(back - v))))

    comm_ok = True
    for dim, n in ((2, 8), (3, 4)):
        box = build_split_operator(
            GridSpec(dim=dim, n_cells=n),
            diffusion=[1.0 + 0.5 * j for j in range(dim)],
            reaction=0.25,
        )
        mats = [dense_direction_matrix(box, j) for j in range(dim)]
        for i in range(dim):
            for j in range(i + 1, dim):
                comm = mats[i] @ mats[j] - mats[j] @ mats[i]
                comm_ok = comm_ok and bool(np.all(comm == 0.0))

    _report(
        spec_dev <= 1e-10 and trip_dev <= 1e-12 and comm_ok,
        "spatial operators",
        f"spectrum vs dense {spec_dev:.2e} (tol 1e-10), round trips "
        f"{trip_dev:.2e} (tol 1e-12), commutators exactly zero: {comm_ok}",
    )
