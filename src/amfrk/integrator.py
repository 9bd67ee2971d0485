"""Time stepping: inexact-Newton sweeps with directionally factored solves.

One step of the q-sweep integrator on the semilinear system y' = J y + g(t),
in increment form: Z_i = Y_i - y_n for the two stages, and the stage slopes
T_k = J Y_k + g(t_n + c_k tau), kept current by adding J of each increment:

    predictor   Z = 0,  T_k = J y_n + g(t_n + c_k tau)
    sweep nu    r = M (-Z + tau A T),  M = (I - low) inv(mix)  (2x2 acting
                    stage-wise): one (2, 4) matrix times the rows [Z; T]
                solve prod_j (I - gamma*tau*J_j) E_1 = r_1
                solve prod_j (I - gamma*tau*J_j) E_2 = r_2 + low_coeff * E_1
                dZ = mix E,  Z += dZ,  T_k += J dZ_k  (but after the last sweep)
    corrector   y_{n+1} = varpi*y_n + s_hat . Y = y_n + s_hat . Z  (= y_n + Z_2)

A ``Stepper``, built once per (problem, scheme, tableau, tau), owns six
state-sized work rows (seven for q >= 3) and allocates no state-sized array
in a step: the forcing writes g into the T rows, and the kernels (the J
applies and the product solves) work in the rows they are given.  A step
costs two forcing evaluations, s*q - 1 applications of J (one to y_n serves
both stages) and 2q product solves (``solve_pi``).  ``amf_step``, ``integrate`` and the
stability function R_q all run through it.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .splitops import _add_full, apply_full, factor_pi, solve_pi
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

    Builds the factors of  prod_j (I - gamma*tau*J_j)  and the sweeps' (2, 4)
    matrices once, here.  The operator, problem.op, has a ``grid`` (m,
    state_blocks), a ``dtype`` and four kernels: a ``SplitOperator``'s are
    ``splitops``'; another operator brings its own (``stability``'s diagonal
    one).  The kernels work in the buffers the Stepper gives them: the J
    applies write into out, and the product solve overwrites rhs and returns
    whichever of rhs and its work buffer holds x.  The work rows [Z; T], r
    and, for q >= 3, a spare row for the middle sweeps (the first sweep's
    product solves work in Z, the last sweep's in T) are allocated on the
    first step in the dtype of its stages,  result_type(y_n, op.dtype),  and
    again only for another dtype.  The forcing writes each stage's g
    straight into its T row, so a forcing whose values that dtype cannot
    hold (complex into real rows) raises TypeError; a tableau whose s_hat is
    all zero raises ValueError.
    """

    def __init__(self, problem, scheme: AmfScheme, tab: ButcherTableau, tau: float):
        _check_step_size(tau)
        if not tab.s_hat.any():
            raise ValueError("s_hat has no non-zero weight: the step would not use the stages")
        tau = float(tau)  # a NumPy float32 tau would round the factors to float32
        self.problem = problem
        self.scheme = scheme
        self.tab = tab
        self.tau = tau
        self.sigma = scheme.gamma * tau
        op = problem.op
        # apply J, add J v, factor, product solve: the operator's own, or this module's
        # names, read here so that a wrapper put on one sees the Steppers built after it
        self._apply, self._add, factor, self._solve_pi = getattr(
            type(op), "kernels", (apply_full, _add_full, factor_pi, solve_pi))
        self.factors = factor(op, self.sigma)
        self._factor_dtype = op.dtype
        # r = [-M, M tau A] @ [Z; T]; Z = 0 in the first sweep, which keeps
        # only the block acting on T
        self._rhs = []
        for it in scheme.iterations:
            mix, low = it.mix_coeff, it.low_coeff
            m = np.array([[1.0, -mix], [-low, 1.0 + low * mix]])
            self._rhs.append(np.concatenate((-m, m @ (tau * tab.a)), axis=1))
        self._rhs[0] = self._rhs[0][:, 2:].copy()
        self._s_hat = tab.s_hat.tolist()
        self._buf = None  # [Z; T], r, scratch
        self._cols = None  # column blocks of ([Z; T], T, r)

    def _solve(self, rhs: np.ndarray, spare: np.ndarray):
        """Product solve in the buffers rhs and spare; returns (x, the other)."""
        x = self._solve_pi(self.problem.op, self.sigma, rhs, self.factors, spare)
        return x, spare if x is rhs else rhs

    def step(
        self, t_n: float, y_n: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Advance one step of length tau from (t_n, y_n).

        out : flat array for y_{n+1} (allocated when None); may be y_n.
        Raises ValueError unless y_n and out have shape (m,).
        """
        op = self.problem.op
        y_n = np.asarray(y_n)
        m = op.grid.m
        for name, a in (("state", y_n), ("out", out)):
            if a is not None and a.shape != (m,):
                raise ValueError(f"{name} must have shape ({m},), got {a.shape}")
        dtype = np.result_type(y_n, self._factor_dtype)
        if self._buf is None or self._buf[0].dtype != dtype:
            # one array per role: a single (6, m) block is big enough for
            # the C allocator to map it from, and return it to, the system
            # on its own, which leaves the caller's next allocations cold
            rows = (4, 2, 1) if len(self._rhs) > 2 else (4, 2)
            self._buf = [np.empty((k, m), dtype=dtype) for k in rows]
            zt, r = self._buf[:2]
            # the products with real coefficients run on real views (the rows
            # themselves when they are real): the right-hand side by column
            # blocks, each in cache, and the low/mix scalings
            self._cols = [tuple(a[:, b.flat].view(zt.real.dtype) for a in (zt, zt[2:], r))
                          for b in op.grid.state_blocks]
        zt, r = self._buf[:2]
        z, t, re = zt[:2], zt[2:], zt.real.dtype
        self._apply(op, y_n, out=z[0], work=z[1])
        forcing = self.problem.forcing
        for t_k, c_k in zip(t, self.tab.c):  # T_k = g(t_n + c_k tau) + J y_n
            if forcing(t_n + c_k * self.tau, out=t_k) is not t_k:
                raise TypeError("forcing(t, out) must return out")
            t_k += z[0]
        last = len(self._rhs) - 1
        for nu, (coef, it) in enumerate(zip(self._rhs, self.scheme.iterations)):
            for zt_cols, t_cols, r_cols in self._cols:
                np.matmul(coef, zt_cols if nu else t_cols, out=r_cols)
            # spare row: Z_2 is idle until the first sweep ends, T once the last has r
            spare = z[1] if not nu else t[1] if nu == last else self._buf[2][0]
            e1, free = self._solve(r[0], spare)
            np.multiply(e1.view(re), it.low_coeff, out=free.view(re))
            r[1] += free
            e2, free = self._solve(r[1], free)
            # dZ = (e1 + mix e2, e2), into Z = 0 in the first sweep; dZ_1 is
            # skipped after the last sweep if the corrector gives Z_1 no weight
            if nu < last or self._s_hat[0]:
                dz = free if nu else z[0]
                np.multiply(e2.view(re), it.mix_coeff, out=dz.view(re))
                dz += e1
                if nu:
                    z[0] += dz
            if nu:
                z[1] += e2
            if nu < last:
                self._add(op, dz, t[0], e1)
                self._add(op, e2, t[1], e1)
            if not nu:  # with odd d e1 is in z[1], the work of both calls
                np.copyto(z[1], e2)
        acc = y_n  # y_{n+1} = y_n + s_hat . Z, the zero weights skipped
        for c, z_i in zip(self._s_hat, z):
            if c:
                term = z_i if c == 1.0 else np.multiply(z_i, c, out=t[0])
                acc = out = np.add(acc, term, out=out)
        return out

    def run(self, y0: np.ndarray, n_steps: int) -> np.ndarray:
        """Take n_steps steps from (0, y0); y0 is not modified.

        Raises ValueError unless y0 is a flat state of the problem's grid,
        and NonFiniteStateError, carrying the step count, as soon as the
        state is not finite.  The check is one reduction per step: a finite
        sum proves every entry finite, and only a non-finite sum is
        confirmed entry by entry.
        """
        y = np.asarray(y0)
        m = self.problem.op.grid.m
        if y.shape != (m,):
            raise ValueError(f"initial state must have shape ({m},), got {y.shape}")
        _check_finite(y, 0, 0.0)
        for n in range(n_steps):
            # the first step allocates, so the caller's y0 is never written
            y = self.step(n * self.tau, y, out=y if n else None)
            _check_finite(y, n + 1, (n + 1) * self.tau)
        return y if n_steps else y.copy()


def _check_finite(y: np.ndarray, step: int, t: float) -> None:
    # a finite state can still sum past the float range (inf, or inf - inf)
    with np.errstate(over="ignore", invalid="ignore"):
        total = y.sum()
    if not np.isfinite(total) and not np.isfinite(y).all():
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
    Raises ValueError for a non-positive or non-finite tau, a negative or
    non-finite t_end or an initial state of another shape than (m,), and
    NonFiniteStateError once the state is not finite.
    """
    _check_step_size(tau)
    if not (math.isfinite(t_end) and t_end >= 0.0):
        raise ValueError(f"end time must be non-negative and finite, got {t_end}")
    # the step count and the returned t in float64, with the tau the Stepper
    # steps with: a NumPy float32 tau would divide and multiply in float32
    tau, t_end = float(tau), float(t_end)
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
