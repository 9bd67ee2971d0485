"""The four benchmark workloads: inputs, set-up, the public call, the gate.

Each workload drives only public entry points (``integrate``,
``run_convergence``, ``wedge_stability_scan``), so changes inside them are
measured.  ``make_inputs`` needs only NumPy and the seed; ``prepare`` is the
set-up a user pays before the first call; ``run`` is the timed call; and
``check`` returns one (ok, message) pair per operation.

``expected`` gives the closed-form call counts of one ``run`` (plus the
``prepare`` that precedes it in the traced run).  An int is an exact count;
None marks a layer the workload must reach but whose count has no closed
form.  Layers absent from the dict are not exercised by the workload.
"""

from __future__ import annotations

import math

import numpy as np

S = 2  # stages of the two-stage Radau IIA tableau
T_END = 1.0


def integration_counts(runs) -> dict:
    """Closed-form counts for integrations given as (dim, q, n_steps)."""
    c: dict = {
        "integrator.integrate": len(runs),
        "integrator.amf_step": 0,
        "problems.forcing": 0,
        "splitops.apply_full": 0,
        "splitops.apply_direction": 0,
        "splitops.solve_pi": 0,
        "splitops.factor_direction": None,
        "splitops.factor_direction.builds": 0,
        "problems.build_problem": len(runs),
        "tableau.radau2a_tableau": None,
        "tableau.amf_scheme": None,
    }
    for dim, q, steps in runs:
        c["integrator.amf_step"] += steps
        c["problems.forcing"] += S * steps
        c["splitops.apply_full"] += S * q * steps
        c["splitops.apply_direction"] += S * dim * q * steps
        c["splitops.solve_pi"] += 2 * q * steps
        for j in range(dim):
            key = f"splitops.solve_direction.{j}"
            c[key] = c.get(key, 0) + 2 * q * steps
        # every integration gets a freshly built operator
        c["splitops.factor_direction.builds"] += dim
    return c


def rms_digits(err: np.ndarray) -> float:
    """delta2 = -log10 of the RMS over the interior points."""
    return -math.log10(math.sqrt(float(np.mean(np.square(err)))))


class SingleIntegration:
    """One ``integrate`` call of the manufactured problem to t = 1."""

    def __init__(self, name, dim, n_cells, beta, q, digits, why):
        self.name = name
        self.dim, self.n_cells, self.beta, self.q = dim, n_cells, beta, q
        self.digits = digits  # (frozen delta2, tolerance)
        self.why = why
        self.m = (n_cells - 1) ** dim
        self.steps = n_cells // q  # tau = q*h to t = 1
        self.ops_per_run = 1
        self.work_per_run = self.m * self.steps  # dof-steps
        self.expected = integration_counts([(dim, q, self.steps)])

    def make_inputs(self, seed: int) -> dict:
        # a seeded perturbation of the initial state, far below the error
        rng = np.random.default_rng(seed)
        return {"noise": 1e-10 * rng.standard_normal(self.m)}

    def prepare(self, amfrk, inputs: dict) -> dict:
        tab = amfrk.radau2a_tableau()
        scheme = amfrk.amf_scheme(self.q)
        problem = amfrk.build_problem(self.dim, self.n_cells, self.beta)
        y0 = problem.exact(0.0) + inputs["noise"]
        return {"tab": tab, "scheme": scheme, "problem": problem, "y0": y0}

    def run(self, amfrk, ctx: dict):
        return amfrk.integrate(
            ctx["problem"], ctx["scheme"], ctx["tab"], self.q / self.n_cells,
            T_END, y0=ctx["y0"],
        )

    def check(self, ctx: dict, record) -> list:
        want, tol = self.digits
        if abs(record.t - T_END) > 1e-12 or not np.all(np.isfinite(record.y)):
            return [(False, f"t = {record.t}, finite = {np.all(np.isfinite(record.y))}")]
        got = rms_digits(ctx["problem"].exact(T_END) - record.y)
        ok = abs(got - want) <= tol
        return [(ok, f"delta2 {got:.4f} (want {want} +- {tol})")]


# frozen reference digits of the 2-D tables on N = 24, 48, 96:
# (scheme, beta) -> (delta2 per level, order p per level or None if unchecked)
TABLES_2D = {
    ("amf1", 0.0): ((3.74, 4.35, 4.96), (2.03, 2.03, None)),
    ("amf2", 0.0): ((4.94, 5.79, 6.66), (2.82, 2.89, None)),
    ("amf3", 0.0): ((4.90, 5.67, 6.40), (None, 2.42, None)),
    ("amf1", 1.0): ((3.02, 3.32, 3.61), (1.00, 0.97, None)),
    ("amf2", 1.0): ((2.79, 3.02, 3.27), (0.76, 0.83, None)),
    ("amf3", 1.0): ((2.52, 2.72, 2.95), (0.66, 0.76, None)),
}
DIGIT_TOL = 0.03
ORDER_TOL = 0.05


class Tables2d:
    """The 2-D digit tables on N <= 96 through ``run_convergence``."""

    name = "tables2d"
    why = ("18 small integrations, 36 factor builds, solve call overhead; "
           "beta pairs share operator and tau, so batching shows here")
    grids = (24, 48, 96)
    ops_per_run = 18

    def __init__(self):
        levels = [(int(sid[-1]), n) for sid, _ in TABLES_2D for n in self.grids]
        self.work_per_run = sum((n - 1) ** 2 * (n // q) for q, n in levels)
        self.expected = integration_counts([(2, q, n // q) for q, n in levels])
        self.expected["harness.run_convergence"] = len(TABLES_2D)
        self.expected["harness.weighted_norm"] = None

    def make_inputs(self, seed: int) -> dict:
        keys = sorted(TABLES_2D)
        order = np.random.default_rng(seed).permutation(len(keys))
        return {"keys": [keys[i] for i in order]}

    def prepare(self, amfrk, inputs: dict) -> dict:
        configs = [
            amfrk.StudyConfig(dim=2, beta=beta, scheme_id=sid, grid_ns=self.grids)
            for sid, beta in inputs["keys"]
        ]
        return {"keys": inputs["keys"], "configs": configs}

    def run(self, amfrk, ctx: dict):
        return [amfrk.run_convergence(cfg) for cfg in ctx["configs"]]

    def check(self, ctx: dict, tables) -> list:
        out = []
        for key, rows in zip(ctx["keys"], tables):
            digits, orders = TABLES_2D[key]
            if len(rows) != len(digits):
                out.extend([(False, f"{key}: {len(rows)} rows")] * len(digits))
                continue
            for row, want, want_p in zip(rows, digits, orders):
                ok = abs(row.delta2 - want) <= DIGIT_TOL
                msg = f"{key[0]} beta={key[1]:g} N={row.n_cells}: delta2 {row.delta2:.3f}"
                if want_p is not None:
                    ok = ok and row.p is not None and abs(row.p - want_p) <= ORDER_TOL
                    msg += f" p {row.p:.3f}" if row.p is not None else " p None"
                out.append((ok, msg))
        return out


class Wedge3d:
    """``wedge_stability_scan(amf2, d=3, theta=pi/6)`` over the default radii."""

    name = "wedge3d"
    why = "only workload in stability: 1,728,000 samples of R_q; integrator changes must leave it alone"
    d, q, theta = 3, 2, math.pi / 6
    n_samples = (3 * 40) ** 3  # 3 rays x 40 radii per direction
    ops_per_run = 1
    work_per_run = n_samples  # one sample = one step of the scalar test equation
    expected = {
        "stability.wedge_stability_scan": 1,
        "stability.stability_function": None,
        "tableau.radau2a_tableau": None,
        "tableau.amf_scheme": None,
    }

    def make_inputs(self, seed: int) -> dict:
        # the default 40 radii, in a seeded order: the same sample set
        radii = np.logspace(-3.0, 6.0, 40)
        return {"radii": np.random.default_rng(seed).permutation(radii)}

    def prepare(self, amfrk, inputs: dict) -> dict:
        return {
            "tab": amfrk.radau2a_tableau(),
            "scheme": amfrk.amf_scheme(self.q),
            "radii": inputs["radii"],
        }

    def run(self, amfrk, ctx: dict):
        return amfrk.wedge_stability_scan(
            ctx["scheme"], ctx["tab"], self.d, self.theta, radii=ctx["radii"]
        )

    def check(self, ctx: dict, res) -> list:
        ok = res.max_modulus <= 1.0 + 1e-12 and res.n_samples == self.n_samples
        return [(ok, f"max|R| {res.max_modulus:.15f}, {res.n_samples} samples")]


WORKLOADS = {
    w.name: w
    for w in (
        SingleIntegration(
            "ridge2d", 2, 384, 1.0, 2, (3.82, 0.03),
            "2-D beta=1 N=384 amf2, 192 steps: long solve lines, one operator, "
            "so batching and factor builds are bypassed",
        ),
        SingleIntegration(
            "cube3d", 3, 96, 0.0, 2, (6.09, 0.03),
            "3-D N=96 amf2, 48 steps on 6.9 MB states: J_j applies, residual "
            "temporaries and strided layout copies",
        ),
        Tables2d(),
        Wedge3d(),
    )
}
