"""Convergence studies: grid/step sequences at fixed tau/h, error digits, orders.

A study runs one scheme over a sequence of mesh resolutions with the step
size tied to the mesh (tau = q*h, so every scheme spends the same
number of right-hand-side evaluations per unit time), measures the end-point
global error in the weighted Euclidean norm, and reports

    eps2   = ||exact(t*) - computed(t*)||   (RMS over interior points)
    delta2 = -log10(eps2)                   (significant correct digits)
    p      = (delta2(h/2) - delta2(h)) / log10(2)

with p attached to the coarser of each exactly-halved pair of levels.  An
exact result (eps2 = 0, as at t* = 0) has delta2 = inf and no order.
"""

from __future__ import annotations

import math
import os
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .integrator import StepRecord, integrate, step_count, work_rows
from .problems import build_problem, problem_operator
from .splitops import GridSpec
from .tableau import AmfScheme, amf_scheme, radau2a_tableau, scheme_sweeps


@dataclass(frozen=True)
class StudyConfig:
    """One convergence study: a scheme against a sequence of grids.

    The step is tied to the mesh as tau = q*h, and t_end must be a whole
    number of such steps on every grid (at t_end = 1, each N divisible by q).
    """

    dim: int
    beta: float
    scheme_id: str
    grid_ns: tuple[int, ...]
    epsilon: float = 0.1
    t_end: float = 1.0


@dataclass(frozen=True)
class ConvergenceRow:
    """One grid level of a study; p is None on the last (or non-halved) row."""

    n_cells: int
    h: float
    tau: float
    eps2: float
    delta2: float
    p: Optional[float]


def weighted_norm(v: np.ndarray, grid: GridSpec) -> float:
    """Root-mean-square over the interior points, m^(-1/2) * ||v||_2.

    This is the discrete L2 normalization the reference error tables use;
    it differs from h^(dim/2) * ||v||_2 by the vanishing factor
    ((N-1)/N)^(dim/2).  Raises ValueError unless v has grid.m entries.
    """
    v = np.asarray(v)
    if v.size != grid.m:
        raise ValueError(f"v must have grid.m = {grid.m} entries, got {v.size}")
    return float(np.linalg.norm(v) / math.sqrt(grid.m))


def correct_digits(eps2: float) -> float:
    """delta2 = -log10(eps2), inf for an exact result."""
    return -math.log10(eps2) if eps2 else math.inf


def _physical_memory() -> int:
    """Bytes of physical memory; 0, unknown, where sysconf does not say."""
    try:
        return max(0, os.sysconf("SC_PHYS_PAGES")) * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return 0


def check_memory(dim: int, n: int, q: int) -> None:
    """Raise ValueError, naming both sizes, if a q-sweep run on the dim-D grid
    of n cells per axis needs more than the physical memory for its float64
    states: the Stepper's work rows, the initial state and the result."""
    need, have = (work_rows(q) + 2) * max(n - 1, 0) ** dim * 8, _physical_memory()
    if 0 < have < need:
        raise ValueError(f"N = {n}: the run's states need {need / 2**20:.4g} MiB, "
                         f"more than the {have / 2**20:.4g} MiB of physical memory")


def check_study(cfg: StudyConfig) -> AmfScheme:
    """The study's scheme; raises ValueError for a study that cannot run (an
    unknown scheme, a dim other than 2 or 3, a grid of fewer than 2 cells or
    one too large for the memory, a level that ``build_problem`` refuses (a
    non-finite beta, a bad epsilon), a t_end that some level's tau = q*h does
    not divide into whole steps, grids not strictly increasing), integrating
    nothing."""
    scheme = amf_scheme(scheme_sweeps(cfg.scheme_id))
    if cfg.dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {cfg.dim}")
    for n in cfg.grid_ns:
        if n < 2:
            raise ValueError(f"N = {n}: need at least 2 cells per axis")
        problem_operator(cfg.dim, n, cfg.beta, cfg.epsilon)  # build_problem's own checks
        step_count(cfg.t_end, scheme.q / n)  # integrate's own check of t_end
        check_memory(cfg.dim, n, scheme.q)
    if any(a >= b for a, b in zip(cfg.grid_ns, cfg.grid_ns[1:])):
        raise ValueError(f"grids must increase strictly, got {list(cfg.grid_ns)}")
    return scheme


def run_level(dim: int, n: int, beta: float, epsilon: float, scheme: AmfScheme,
              tau: float, t_end: float) -> tuple[StepRecord, ConvergenceRow]:
    """Integrate the manufactured problem on n cells per axis with Radau IIA from
    t = 0 to t_end; the run's record and the level's row, p None."""
    problem = build_problem(dim, n, beta, epsilon)  # refuses a dim other than 2 or 3
    record = integrate(problem, scheme, radau2a_tableau(), tau, t_end)
    eps2 = weighted_norm(problem.exact(t_end) - record.y, problem.op.grid)
    return record, ConvergenceRow(n, 1.0 / n, tau, eps2, correct_digits(eps2), None)


def run_convergence(cfg: StudyConfig) -> list[ConvergenceRow]:
    """Run the study and return one row per grid level, orders attached."""
    scheme = check_study(cfg)
    rows = [run_level(cfg.dim, n, cfg.beta, cfg.epsilon, scheme, scheme.q / n, cfg.t_end)[1]
            for n in cfg.grid_ns]
    for i, (row, finer) in enumerate(zip(rows, rows[1:])):
        if finer.n_cells == 2 * row.n_cells and math.isfinite(row.delta2 + finer.delta2):
            rows[i] = replace(row, p=(finer.delta2 - row.delta2) / math.log10(2.0))
    return rows


def render_table(rows: Union[Sequence[ConvergenceRow], Mapping[str, Sequence[ConvergenceRow]]],
                 format: str = "csv") -> str:
    """Render one study's rows, or a {scheme id: rows} mapping of studies on
    the same grids, as 'csv' (h,tau,eps2,delta2,p at 6 significant digits,
    after a scheme column when there are several studies) or 'markdown'
    (reference-table style: h as a unit fraction, then per study delta2 to 2
    decimals with the order estimate in parentheses).  Raises ValueError,
    naming every study's grids, for studies on different grids."""
    studies = rows if isinstance(rows, Mapping) else {"": rows}
    grids = {sid: [r.n_cells for r in study] for sid, study in studies.items()}
    if len(set(map(tuple, grids.values()))) > 1:
        raise ValueError(f"studies on different grids: {grids}")
    named = len(studies) > 1
    if format == "csv":
        lines = [("scheme," if named else "") + "h,tau,eps2,delta2,p"]
        for sid, study in studies.items():
            for r in study:
                p = f"{r.p:.6g}" if r.p is not None else ""
                lines.append(
                    (f"{sid}," if named else "")
                    + f"{r.h:.6g},{r.tau:.6g},{r.eps2:.6g},{r.delta2:.6g},{p}"
                )
        return "\n".join(lines) + "\n"
    if format in ("markdown", "md"):
        heads = list(studies) if named else ["delta2 (p)"]
        lines = ["| h | " + " | ".join(heads) + " |", "| --- |" + " --- |" * len(heads)]
        for level in zip(*studies.values()):
            cells = (f"{r.delta2:.2f}" + (f" ({r.p:.2f})" if r.p is not None else "")
                     for r in level)
            lines.append(f"| 1/{level[0].n_cells} | " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown table format {format!r}")
