"""Time stepping: inexact-Newton sweeps with directionally factored solves.

One step of the q-sweep integrator on the semilinear system y' = J y + g(t):

    predictor   Y^0 = (y_n, y_n)
    sweep nu    D_i = y_n - Y_i + tau * sum_k a[i,k] (J Y_k + g(t_n + c_k tau))
                r   = (I - low) inv(mix) D        (2x2 acting stage-wise)
                solve prod_j (I - gamma*tau*J_j) E_1 = r_1
                solve prod_j (I - gamma*tau*J_j) E_2 = r_2 + low_coeff * E_1
                Y  += mix E                        (2x2 acting stage-wise)
    corrector   y_{n+1} = varpi*y_n + s_hat . Y^q   (= last stage here)

A ``Stepper`` is built once per (problem, scheme, tableau, tau).  It owns
the d direction factors of the single shift gamma*tau and every state-sized
work buffer, so a step allocates no state-sized array beyond what the
problem's forcing returns.  Each step costs two forcing evaluations (hoisted
out of the sweep loop), s*q - 1 applications of J (both stages equal y_n in
the first sweep, so J is applied once there) and 2q product solves, one
direction at a time (see ``solve_pi``).  Where the grid's sizes allow it
each direction is matrix products with dense inverses, and no layout copy
is made (directions d-1, d-2, .., 0): one product with the whole-line
inverse on short lines, and on 2-D lines of up to 512 points one product
that gives the values beside the block boundaries and one batched product
with the inverse of a block of 32 points.  Elsewhere it is a Thomas line
sweep followed by one layout copy, d copies per product solve (directions
d-1, 0, .., d-2).
``amf_step`` and ``integrate`` both run through it.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .splitops import apply_full, factor_pi, solve_pi
from .tableau import AmfScheme, ButcherTableau


class NonFiniteStateError(FloatingPointError):
    """The integrated state stopped being finite.

    step : number of steps taken when the state was found non-finite (0 for
        an initial state that is not finite)
    """

    def __init__(self, step: int, t: float):
        super().__init__(step, t)
        self.step = step
        self.t = t

    def __str__(self) -> str:
        return f"state is not finite after step {self.step} (t = {self.t:g})"


@dataclass(frozen=True)
class StepRecord:
    """Final state of a fixed-step integration run."""

    t: float
    y: np.ndarray


def _check_step_size(tau: float) -> None:
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValueError(f"step size must be positive and finite, got {tau}")


class Stepper:
    """The q-sweep step of one (problem, scheme, tableau, tau).

    Owns the d factors of  I - gamma*tau*J_j  (built once, here) and the
    state-sized work buffers, which are allocated on the first step in the
    dtype of that step's stages,  result_type(y_n, forcing, factors),  and
    reallocated only if a later step needs another dtype.
    """

    def __init__(self, problem, scheme: AmfScheme, tab: ButcherTableau, tau: float):
        _check_step_size(tau)
        self.problem = problem
        self.scheme = scheme
        self.tab = tab
        self.tau = tau
        self.sigma = scheme.gamma * tau
        self.factors = factor_pi(problem.op, self.sigma)
        self._factor_dtype = np.result_type(*(f.inv_diag for f in self.factors))
        self._tau_a = (tau * tab.a).tolist()
        # corrector weights of (y_n, Y_1, .., Y_s); the zero ones are skipped
        self._output = [tab.varpi, *tab.s_hat.tolist()]
        self._buf = None  # stages Y, residuals D, W, and (S, J scratch)

    def step(
        self, t_n: float, y_n: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Advance one step of length tau from (t_n, y_n).

        out : flat array for y_{n+1} (allocated when None); must not be y_n.
        """
        op, tab = self.problem.op, self.tab
        y_n = np.asarray(y_n)
        forcings = [self.problem.forcing(t_n + ci * self.tau) for ci in tab.c]
        dtype = np.result_type(y_n, forcings[0], self._factor_dtype)
        if self._buf is None or self._buf[0].dtype != dtype:
            # one array per role: a single (7, m) block is big enough for
            # the C allocator to map it from, and return it to, the system
            # on its own, which leaves the caller's next allocations cold
            self._buf = [np.empty((k, op.grid.m), dtype=dtype) for k in (2, 2, 1, 2)]
        stages, d, (w,), work = self._buf
        s = work[0]
        for nu, it in enumerate(self.scheme.iterations):
            first = nu == 0
            # residual D; in the first sweep both stages equal y_n, so
            # y_n - Y_i vanishes and one J apply serves both stages
            if first:
                jy = apply_full(op, y_n, out=stages[0], work=work)
            else:
                np.subtract(y_n, stages, out=d)
            for k, g_k in enumerate(forcings):
                if first:
                    np.add(jy, g_k, out=w)
                else:
                    apply_full(op, stages[k], out=w, work=work)
                    w += g_k
                for i in range(2):
                    if first and k == 0:
                        np.multiply(w, self._tau_a[i][k], out=d[i])
                    else:
                        np.multiply(w, self._tau_a[i][k], out=s)
                        d[i] += s
            # r = (I - low) inv(mix) D: r_1 into w, r_2 into d[1]
            mix, low = it.mix_coeff, it.low_coeff
            np.multiply(d[1], mix, out=s)
            np.subtract(d[0], s, out=w)
            np.multiply(d[0], low, out=s)
            d[1] *= 1.0 + low * mix
            d[1] -= s
            e1 = solve_pi(op, self.sigma, w, self.factors, out=d[0], work=s)
            np.multiply(e1, low, out=s)
            d[1] += s
            # not in place: with odd d, NumPy would copy the input of a dense
            # product solve that overwrites it
            e2 = solve_pi(op, self.sigma, d[1], self.factors, out=w, work=s)
            # Y += mix E
            prev = (y_n, y_n) if first else stages
            np.multiply(e2, mix, out=s)
            s += e1
            np.add(prev[0], s, out=stages[0])
            np.add(prev[1], e2, out=stages[1])
        if out is None:
            out = np.empty_like(y_n, dtype=dtype)
        (w0, v0), *rest = [(c, v) for c, v in zip(self._output, (y_n, *stages)) if c]
        np.multiply(v0, w0, out=out)
        for weight, v in rest:
            np.multiply(v, weight, out=s)
            out += s
        return out

    def run(self, y0: np.ndarray, n_steps: int) -> np.ndarray:
        """Take n_steps steps from (0, y0); y0 is not modified.

        Raises NonFiniteStateError, carrying the step count, as soon as the
        state is not finite.  The check is one reduction per step: a finite
        sum proves every entry finite, and only a non-finite sum is
        confirmed entry by entry.
        """
        y = np.asarray(y0)
        _check_finite(y, 0, 0.0)
        spare = None
        for n in range(n_steps):
            out = self.step(n * self.tau, y, out=spare)
            _check_finite(out, n + 1, (n + 1) * self.tau)
            # never write into the caller's y0
            spare, y = (y if n else None), out
        return y if n_steps else y.copy()


def _check_finite(y: np.ndarray, step: int, t: float) -> None:
    if not np.isfinite(y.sum()) and not np.isfinite(y).all():
        raise NonFiniteStateError(step, t)


def amf_step(
    problem,
    scheme: AmfScheme,
    tab: ButcherTableau,
    t_n: float,
    tau: float,
    y_n: np.ndarray,
) -> np.ndarray:
    """Advance one step of length tau from (t_n, y_n).

    A one-off ``Stepper``: use ``integrate`` (or a ``Stepper``) for many
    steps of one size, which builds the factors and buffers once.
    """
    return Stepper(problem, scheme, tab, tau).step(t_n, y_n)


def integrate(
    problem,
    scheme: AmfScheme,
    tab: ButcherTableau,
    tau: float,
    t_end: float,
    y0: np.ndarray | None = None,
) -> StepRecord:
    """Run fixed steps from t = 0 to t_end; tau must divide t_end exactly.

    The initial state defaults to the problem's exact solution at t = 0.
    Raises ValueError for a non-positive or non-finite tau or a negative or
    non-finite t_end, and NonFiniteStateError once the state is not finite.
    """
    _check_step_size(tau)
    if not (math.isfinite(t_end) and t_end >= 0.0):
        raise ValueError(f"end time must be non-negative and finite, got {t_end}")
    ratio = t_end / tau
    n_steps = int(round(ratio))
    if abs(ratio - n_steps) > 1e-12 * max(1.0, abs(ratio)):
        raise ValueError(
            f"t_end = {t_end} is not an integer number of steps of tau = {tau}"
        )
    if y0 is None:
        if problem.exact is None:
            raise ValueError("problem has no exact solution; pass y0 explicitly")
        y0 = problem.exact(0.0)
    y = Stepper(problem, scheme, tab, tau).run(y0, n_steps)
    return StepRecord(t=n_steps * tau, y=y)
