"""Two-stage Radau IIA tableau and the iteration coefficients built on it.

The integrators in this package never solve the implicit Runge-Kutta stage
system exactly.  Each sweep replaces the Butcher matrix A by a rank-structured
approximation ``approx_a`` with a double eigenvalue ``gamma = sqrt(det A)``,
which is what makes a directionally factored linear solve possible.  This
module holds the tableau, the per-sweep coefficient sets, and the algebraic
checks that pin the published coefficient values down.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .splitops import check_count

SQRT6 = math.sqrt(6.0)

# gamma = sqrt(det A) for the 2-stage Radau IIA matrix (det A = 1/6)
GAMMA = 1.0 / SQRT6


@dataclass(frozen=True)
class ButcherTableau:
    """Coefficients of an s-stage Runge-Kutta method.

    a : (s, s) stage matrix
    b : (s,) quadrature weights
    c : (s,) abscissae
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


def radau2a_tableau() -> ButcherTableau:
    """Two-stage Radau IIA method (stage order 2, classical order 3, L-stable).

    Each entry is its rational value correctly rounded to float64.  The
    method is stiffly accurate: b is A's last row, so a step's output is its
    last stage.
    """
    a = np.array([[5.0 / 12.0, -1.0 / 12.0], [3.0 / 4.0, 1.0 / 4.0]])
    return ButcherTableau(
        a=a,
        b=a[-1].copy(),
        c=np.array([1.0 / 3.0, 1.0]),
    )


@dataclass(frozen=True)
class AmfIteration:
    """Coefficients of one inexact-Newton sweep.

    The sweep uses the similarity structure

        approx_a = gamma * mix @ inv(I - low) @ inv(mix)

    with ``mix = [[1, mix_coeff], [0, 1]]`` and ``low`` strictly lower
    triangular with entry ``low_coeff``.  By construction approx_a has the
    double eigenvalue gamma, so the stage solve factors into d tridiagonal
    solves with the single shift gamma*tau per direction.

    condition : the design condition the coefficient pair satisfies,
        "stage_consistency" or "output_row" (see ``verify_scheme_conditions``)
    """

    mix_coeff: float
    low_coeff: float
    condition: str
    approx_a: np.ndarray

    def __post_init__(self):
        if self.condition not in ("stage_consistency", "output_row"):
            raise ValueError(f"unknown design condition {self.condition!r}")


def _make_iteration(
    mix_coeff: float, low_coeff: float, condition: str, gamma: float
) -> AmfIteration:
    s, l = mix_coeff, low_coeff
    # closed form of gamma * mix @ inv(I - low) @ inv(mix); trace 2*gamma,
    # determinant gamma**2, hence the double eigenvalue gamma
    approx_a = gamma * np.array([[1.0 + s * l, -l * s * s], [l, 1.0 - s * l]])
    return AmfIteration(
        mix_coeff=s, low_coeff=l, condition=condition, approx_a=approx_a
    )


@dataclass(frozen=True)
class AmfScheme:
    """A fixed number q of sweeps with their per-sweep coefficients."""

    name: str
    q: int
    gamma: float
    iterations: tuple[AmfIteration, ...]


# published sweeps (mix_coeff, low_coeff, design condition), closed forms
# in sqrt(6)
_PAIR_A = (
    -(3.0 + 2.0 * SQRT6) / 9.0, 0.75 * (5.0 * SQRT6 - 12.0), "stage_consistency"
)
_PAIR_B = ((5.0 - 2.0 * SQRT6) / 9.0, 0.75 * SQRT6, "output_row")

# the shipped schemes; scheme id SCHEME_IDS[q - 1] runs q sweeps
SCHEME_IDS = ("amf1", "amf2", "amf3")
_SWEEPS = {1: (_PAIR_A,), 2: (_PAIR_A, _PAIR_B), 3: (_PAIR_B,) * 3}


def scheme_sweeps(scheme_id: str) -> int:
    """Sweep count q of a scheme id; case and surrounding blanks are ignored."""
    sid = scheme_id.strip().lower()
    if sid not in SCHEME_IDS:
        raise ValueError(f"unknown scheme {scheme_id!r}; expected one of {SCHEME_IDS}")
    return SCHEME_IDS.index(sid) + 1


def amf_scheme(q: int) -> AmfScheme:
    """Return the q-sweep scheme, q in {1, 2, 3}.

    q=1: one sweep, coefficients chosen so the stage-consistency condition
         (a - approx_a) @ c = 0 holds; order two.
    q=2: first sweep as q=1, second sweep annihilates the output row,
         e2^T inv(approx_a) (a - approx_a) = 0; order three.
    q=3: three identical sweeps, each with the output-row condition; order
         three with a wider usable step range.
    """
    check_count("q", q, 1)
    if q not in _SWEEPS:
        raise ValueError(f"sweep count must be 1, 2 or 3, got q={q!r}")
    iters = tuple(_make_iteration(s, l, cond, GAMMA) for s, l, cond in _SWEEPS[q])
    return AmfScheme(name=SCHEME_IDS[q - 1], q=int(q), gamma=GAMMA, iterations=iters)


def verify_scheme_conditions(scheme: AmfScheme, tab: ButcherTableau) -> dict[str, float]:
    """Residuals of the algebraic conditions defining each scheme.

    Returns a dict of named max-abs residuals, all of which should sit at
    rounding level (< 1e-14) for the published coefficients:

    reconstruction[i]      approx_a_i versus gamma * mix (I-low)^-1 mix^-1
    eigenvalue_pair[i]     (trace - 2*gamma, det - gamma^2) of approx_a_i
    stage_consistency[i]   (a - approx_a_i) @ c, if sweep i carries it
    output_row[i]          e2^T inv(approx_a_i) (a - approx_a_i), likewise
    """
    a, c = tab.a, tab.c
    g = scheme.gamma
    out: dict[str, float] = {}
    eye = np.eye(2)
    for i, it in enumerate(scheme.iterations):
        mix = np.array([[1.0, it.mix_coeff], [0.0, 1.0]])
        low = np.array([[0.0, 0.0], [it.low_coeff, 0.0]])
        rebuilt = g * mix @ np.linalg.inv(eye - low) @ np.linalg.inv(mix)
        out[f"reconstruction[{i}]"] = float(np.max(np.abs(it.approx_a - rebuilt)))
        tr = it.approx_a[0, 0] + it.approx_a[1, 1]
        det = np.linalg.det(it.approx_a)
        out[f"eigenvalue_pair[{i}]"] = float(max(abs(tr - 2.0 * g), abs(det - g * g)))
        if it.condition == "stage_consistency":
            residual = (a - it.approx_a) @ c
        else:
            row = np.linalg.solve(it.approx_a.T, eye[1])
            residual = row @ (a - it.approx_a)
        out[f"{it.condition}[{i}]"] = float(np.max(np.abs(residual)))
    return out
