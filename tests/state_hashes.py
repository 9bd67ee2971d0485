"""Print the SHA-1 of the result of a fixed set of runs, one line per run.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/state_hashes.py

Two commits whose output is equal line for line give bitwise the same final
states, stability samples and wedge scans on the machine that ran both.  The set covers
every product-solve kernel (the whole-line inverse at 2-D N=48, blocks at
2-D N=384 and N=768 and 3-D N=48 and N=64, the Thomas sweep at 3-D N=66 and
N=96), the schemes amf1, amf2 and amf3, a complex-stencil operator, a
complex initial state, R_q on a fixed sample array and the d=3,
theta=pi/6 wedge scans.  Each label ends in the run's product-solve kernel:
``kernel=line``, ``blocks`` or ``thomas`` as ``splitops._solve_block``
picks it from the grid's sizes, and ``kernel=diagonal`` for R_q and the
scans.  The bits also depend on the CPU, the NumPy build and the BLAS
thread count, so compare runs made on one machine with one BLAS thread; no
hash is a golden value.  Besides ``_solve_block``, which has kept its
contract since the product solve gained its block kernel, the script uses
only names that have been public since the package had its ``Stepper``, so
it can be run against an older checkout's ``src`` from the block kernel on.
Not collected by pytest.
"""

import cmath
import dataclasses
import hashlib
import math

import numpy as np

import amfrk
from amfrk.splitops import DirectionStencil, _solve_block

TAB = amfrk.radau2a_tableau()

# (dim, N, beta, scheme ids, steps); tau = q/N as in a convergence study
GRID_RUNS = (
    (2, 48, 1.0, ("amf1", "amf2", "amf3"), 16),  # whole-line inverse
    (2, 384, 1.0, ("amf1", "amf2", "amf3"), 8),  # blocks of 24
    (2, 768, 1.0, ("amf2",), 8),  # blocks of 24
    (3, 48, 1.0, ("amf1", "amf2", "amf3"), 8),  # blocks of 16
    (3, 64, 1.0, ("amf2",), 8),  # blocks of 8
    (3, 66, 1.0, ("amf1",), 8),  # Thomas
    (3, 96, 0.0, ("amf1", "amf2", "amf3"), 4),  # Thomas
)


def digest(data) -> str:
    """SHA-1 of an array's bytes, or of the repr of anything else (a float's
    repr round-trips, so equal reprs are equal bits)."""
    if isinstance(data, np.ndarray):
        return hashlib.sha1(np.ascontiguousarray(data).tobytes()).hexdigest()
    return hashlib.sha1(repr(data).encode()).hexdigest()


def kernel(grid) -> str:
    """The product solve's kernel on the grid, as the package picks it."""
    length = _solve_block(grid)
    return "thomas" if length is None else "line" if length == grid.n_interior else "blocks"


def final_state(problem, sid, steps, y0=None):
    scheme = amfrk.amf_scheme(amfrk.scheme_sweeps(sid))
    stepper = amfrk.Stepper(problem, scheme, TAB, scheme.q / problem.op.grid.n_cells)
    return stepper.run(problem.exact(0.0) if y0 is None else y0, steps)


def rotated(problem, angle):
    """The problem with every stencil weight turned by angle in the complex plane."""
    turn = cmath.exp(1j * angle)
    stencils = tuple(DirectionStencil(st.sub * turn, st.diag * turn, st.sup * turn)
                     for st in problem.op.stencils)
    return dataclasses.replace(problem, op=dataclasses.replace(problem.op, stencils=stencils))


def runs():
    """Yield (label, result) for every run of the set, in a fixed order."""
    for dim, n, beta, sids, steps in GRID_RUNS:
        problem = amfrk.build_problem(dim, n, beta)
        solve = f"kernel={kernel(problem.op.grid)}"
        for sid in sids:
            yield (f"{sid} {dim}-D N={n} beta={beta:g} steps={steps} {solve}",
                   final_state(problem, sid, steps))
    for dim, n in ((2, 48), (2, 384), (3, 48)):
        problem = amfrk.build_problem(dim, n, 1.0)
        solve = f"kernel={kernel(problem.op.grid)}"
        yield (f"amf2 {dim}-D N={n} stencils turned by pi/8 steps=4 {solve}",
               final_state(rotated(problem, math.pi / 8), "amf2", 4))
        yield (f"amf2 {dim}-D N={n} y0 = (1 + 0.5j) exact(0) steps=4 {solve}",
               final_state(problem, "amf2", 4, (1.0 + 0.5j) * problem.exact(0.0)))
    # R_q at z = z_1 + z_2 with z_1 = z_2 on 40 radii by 25 angles of the left half-plane
    parts = -np.outer(np.logspace(-3.0, 6.0, 40), np.exp(1j * np.linspace(-1.5, 1.5, 25)))
    for sid in amfrk.SCHEME_IDS:
        scheme = amfrk.amf_scheme(amfrk.scheme_sweeps(sid))
        w = (1.0 - (1.0 - scheme.gamma * parts) ** 2) / scheme.gamma
        yield (f"{sid} R_q on 1000 samples kernel=diagonal",
               amfrk.stability_function(scheme, TAB, 2.0 * parts, w))
    for sid in amfrk.SCHEME_IDS:
        res = amfrk.wedge_stability_scan(amfrk.amf_scheme(amfrk.scheme_sweeps(sid)), TAB,
                                         d=3, theta=math.pi / 6)
        yield (f"{sid} wedge scan d=3 theta=pi/6 kernel=diagonal",
               (res.max_modulus, res.argmax, sorted(res.per_ray.items()), res.n_samples,
                res.n_excluded))


if __name__ == "__main__":
    for label, result in runs():
        print(f"{digest(result)}  {label}", flush=True)
