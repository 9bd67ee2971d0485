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

A ``Stepper``, built once per (problem, scheme, tableau, tau), owns 4, 5 or
7 state-sized work rows (amf1, amf2, q >= 3) and allocates no state-sized
array in a step: the forcing writes g into the T rows, the first sweep's r
goes into the idle Z rows and the last sweep's over the T rows, and the J
applies and the product solves work in the rows they are given.  A step
costs two forcing evaluations, s*q - 1 applications of J (one to y_n serves
both stages) and 2q product solves (``solve_pi``).  ``amf_step``, ``integrate`` and the
stability function R_q all run through it.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .splitops import _add_full, apply_full, check_count, factor_pi, solve_pi
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


# real columns per right-hand-side product; the last sweep's goes through a
# (2, _CHUNK) scratch of 128 KB over the T rows it reads
_CHUNK = 2**13


def work_rows(q: int) -> int:
    """State-sized rows of a q-sweep ``Stepper``: [Z; T], spare (q >= 2), r (q >= 3)."""
    return 4 if q == 1 else 5 if q == 2 else 7


class Stepper:
    """The q-sweep step of one (problem, scheme, tableau, tau).

    Builds the factors of  prod_j (I - gamma*tau*J_j)  and the sweeps' (2, 4)
    matrices once, here.  The operator, problem.op, has a ``grid`` (m), a
    ``dtype`` and four kernels: a ``SplitOperator``'s are ``splitops``';
    another operator brings its own (``stability``'s diagonal one).  The
    kernels work in the buffers the Stepper gives them: the J applies write
    into out, and the product solve overwrites rhs and returns whichever of
    rhs and its work buffer holds x.  The ``work_rows(q)`` rows, and a small
    scratch for the last sweep's r, are allocated on the first step in the
    dtype of its stages,  result_type(y_n, op.dtype),  and again only for
    another dtype.  The forcing writes each stage's g straight into its T
    row, so a forcing whose values that dtype cannot hold (complex into real
    rows) raises TypeError; a tableau whose s_hat is all zero raises
    ValueError.
    """

    def __init__(self, problem, scheme: AmfScheme, tab: ButcherTableau, tau: float):
        if not (math.isfinite(tau) and tau > 0.0):
            raise ValueError(f"step size must be positive and finite, got {tau}")
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
        # r = [-M, M tau A] @ [Z; T]; Z = 0 in the first sweep, which keeps
        # only the block acting on T
        self._rhs = []
        for it in scheme.iterations:
            mix, low = it.mix_coeff, it.low_coeff
            m = np.array([[1.0, -mix], [-low, 1.0 + low * mix]])
            self._rhs.append(np.concatenate((-m, m @ (tau * tab.a)), axis=1))
        self._rhs[0] = self._rhs[0][:, 2:].copy()
        self._s_hat = tab.s_hat.tolist()
        self._buf = None  # [Z; T], the rows after T, (columns, scratch part) chunks

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
        dtype = np.result_type(y_n, op.dtype)
        if self._buf is None or self._buf[0].dtype != dtype:
            # one array per role: a single block of every row is big enough
            # for the C allocator to map it from, and return it to, the
            # system on its own, which leaves the caller's next allocations cold
            zt, rest = (np.empty((k, m), dtype) for k in (4, work_rows(len(self._rhs)) - 4))
            # the products with real coefficients run on real views (the rows
            # themselves when they are real) by column chunks, each in cache;
            # a rest of one column joins the last chunk, as BLAS rounds a
            # one-column product (gemv) apart from a wider one (gemm)
            n_cols = zt.view(zt.real.dtype).shape[1]
            starts = range(0, max(n_cols - 1, 1), _CHUNK)
            scratch = np.empty((2, min(_CHUNK + 1, n_cols)), zt.real.dtype)
            self._buf = (zt, rest, [(slice(a, b), scratch[:, : b - a])
                                    for a, b in zip(starts, [*starts[1:], n_cols])])
        zt, rest, chunks = self._buf
        re = zt.real.dtype
        zt_re, r_re = zt.view(re), rest.view(re)[:2]
        # each row's view is bound once: the solve returns the object it was given
        z, t = list(zt[:2]), list(zt[2:])
        *r, spare = list(rest) or t[:1]  # amf1's: T_1, dead once read
        self._apply(op, y_n, out=z[0], work=z[1])
        forcing = self.problem.forcing
        for t_k, c_k in zip(t, self.tab.c):  # T_k = g(t_n + c_k tau) + J y_n
            if forcing(t_n + c_k * self.tau, out=t_k) is not t_k:
                raise TypeError("forcing(t, out) must return out")
            t_k += z[0]
        last = len(self._rhs) - 1
        for nu, (coef, it) in enumerate(zip(self._rhs, self.scheme.iterations)):
            # r goes into Z in the first sweep (Z = 0 is idle until it ends),
            # over T in the last (nothing reads T after it), else into r
            src, dst = (zt_re[2:], zt_re[:2]) if not nu else (zt_re, r_re if nu < last else None)
            for cols, part in chunks:
                prod = np.matmul(coef, src[:, cols], out=part if dst is None else dst[:, cols])
                if dst is None:  # through the scratch, as the product reads T
                    np.copyto(zt_re[2:, cols], prod)
            rows = z if not nu else r if nu < last else t
            e1, free = self._solve(rows[0], spare)
            np.multiply(e1.view(re), it.low_coeff, out=free.view(re))
            rows[1] += free
            e2, free = self._solve(rows[1], free)
            if not nu and e2 is not z[1]:  # odd d: Z_2 = e2 is in Z_1
                np.copyto(z[1], e2)
                e2 = z[1]
            # dZ = (e1 + mix e2, e2), into Z = 0 in the first sweep; dZ_1 is
            # skipped after the last sweep if the corrector gives Z_1 no weight
            if nu < last or self._s_hat[0]:
                dz = free if nu or e1 is z[0] else z[0]
                np.multiply(e2.view(re), it.mix_coeff, out=dz.view(re))
                np.add(dz, e1, out=dz if nu else z[0])
                if nu:
                    z[0] += dz
            if nu:
                z[1] += e2
            if nu < last:  # T_k += J dZ_k
                dz, work = (dz, e1) if nu else (z[0], spare)
                self._add(op, dz, t[0], work)
                self._add(op, e2, t[1], work)
        acc = y_n  # y_{n+1} = y_n + s_hat . Z, the zero weights skipped
        for c, z_i in zip(self._s_hat, z):
            if c:
                term = z_i if c == 1.0 else np.multiply(z_i, c, out=t[0])
                acc = out = np.add(acc, term, out=out)
        return out

    def run(self, y0: np.ndarray, n_steps: int) -> np.ndarray:
        """Take n_steps steps from (0, y0); y0 is not modified.

        Raises ValueError unless n_steps is a whole number >= 0 and y0 a
        flat state of the problem's grid, and NonFiniteStateError, carrying
        the step count, as soon as the state is not finite.  The check is one
        reduction per step: a finite sum proves every entry finite, and only
        a non-finite sum is confirmed entry by entry.
        """
        check_count("n_steps", n_steps, 0)
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


def step_count(t_end: float, tau: float) -> int:
    """The steps of tau from t = 0 to t_end; raises ValueError for a negative
    or non-finite t_end, a t_end / tau past the float range, or a t_end that
    is not a whole number of steps."""
    if not (math.isfinite(t_end) and t_end >= 0.0):
        raise ValueError(f"end time must be non-negative and finite, got {t_end}")
    ratio = float(t_end) / tau
    if not math.isfinite(ratio):
        raise ValueError(f"t_end = {t_end} over tau = {tau} is not a finite step count")
    n_steps = int(round(ratio))
    if abs(ratio - n_steps) > 1e-12 * max(1.0, abs(ratio)):
        raise ValueError(
            f"t_end = {t_end} is not an integer number of steps of tau = {tau}"
        )
    return n_steps


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
    Raises ValueError for a non-positive or non-finite tau, a t_end that
    ``step_count`` refuses or an initial state of another shape than (m,),
    and NonFiniteStateError once the state is not finite.
    """
    stepper = Stepper(problem, scheme, tab, tau)
    # the step count and the returned t in float64, with the tau the Stepper
    # steps with: a NumPy float32 tau would divide and multiply in float32
    n_steps = step_count(t_end, stepper.tau)
    if y0 is None:
        if problem.exact is None:
            raise ValueError("problem has no exact solution; pass y0 explicitly")
        y0 = problem.exact(0.0)
    y = stepper.run(y0, n_steps)
    return StepRecord(t=n_steps * stepper.tau, y=y)
