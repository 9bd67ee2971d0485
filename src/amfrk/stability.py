"""Linear stability of the sweep iteration under directional factorization.

For the scalar test equation split across d directions, y' = (z_1 + ... +
z_d) y / tau, one step of the q-sweep method multiplies y by a rational
function R_q(z, w) of two complex arguments:

    z = z_1 + ... + z_d                  (the full eigenvalue times tau)
    w = (1 - prod_k (1 - gamma*z_k)) / gamma   (what the factored solve sees)

R_q is one ``Stepper`` step of length 1 from y_n = 1, without forcing, on the
diagonal operator J = z whose product solve multiplies by 1/(1 - gamma*w): the
sweep recurrence of the ``integrator`` docstring.  R_q has a pole where
1 - gamma*w = 0; only a call that meets one builds the mask that sets R to
complex infinity there.

A-stability in a wedge of half-angle theta means |R_q| <= 1 whenever every
-z_k lies within theta of the positive real axis.  The wedge scan samples
the boundary rays (where the maximum modulus principle puts any violation)
over the full cross product of radii per direction, for d <= 4 directions,
in blocks of 8192 samples, each one step of a ``Stepper`` kept while the
blocks keep its length.  z and w are symmetric in the directions, so a
sample and its permutations share R_q up to rounding, and the -theta ray
holds the +theta ray's conjugates, where |R_q| is bitwise the same: the
scan evaluates one sample per conjugate pair of permutation orbits, in full
blocks, then every permutation of the orbits near a ray combination's
largest |R_q| and of their conjugates.  A scan of more orbits than the cap
is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
import itertools
import math
from typing import NamedTuple, Optional

import numpy as np

from .integrator import Stepper
from .problems import SemidiscreteProblem
from .splitops import GridSpec, check_count
from .tableau import AmfScheme, ButcherTableau


@dataclass(frozen=True)
class ComplexPoint:
    """One scan sample: per-direction arguments and their combined pair."""

    parts: tuple
    z: complex
    w: complex


def combine_zw(zs, gamma: float) -> tuple[complex, complex]:
    """Combine per-direction eigenvalue arguments into the (z, w) pair.

    With one direction w = z (no factorization error); gamma must be finite and > 0.
    """
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    zs = [complex(v) for v in np.atleast_1d(zs)]
    if len(zs) == 0:
        raise ValueError("need at least one direction argument")
    z = sum(zs)
    prod = 1.0 + 0.0j
    for v in zs:
        prod *= 1.0 - gamma * v
    return z, (1.0 - prod) / gamma


class _Diagonal(NamedTuple):
    """J = diag(z) on a 1-D grid of the samples, given the inverse inv of its
    factored product 1 - gamma*w: a product solve multiplies by inv into its
    work buffer, as ``solve_pi`` leaves x there for odd d."""

    grid: GridSpec
    z: np.ndarray
    inv: np.ndarray
    dtype = np.dtype(complex)
    kernels = (  # the Stepper's: apply J, add J v, factor, product solve
        lambda op, v, out, work: np.multiply(v, op.z, out=out),
        lambda op, v, out, work: np.add(out, np.multiply(v, op.z, out=work), out=out),
        lambda op, sigma: op.inv,
        lambda op, rhs, inv, work: np.multiply(rhs, inv, out=work),
    )


_ONE = np.complex128(1.0).tobytes()


def _no_forcing(t, out):
    out.fill(0.0)
    return out


class _Evaluator:
    """R_q of one (scheme, tableau) on ``size`` samples a call, through one
    ``Stepper`` on one ``_Diagonal`` whose z and inv are refilled for each call."""

    def __init__(self, scheme: AmfScheme, tab: ButcherTableau, size: int):
        self.scheme, self.tab, self.size = scheme, tab, size
        op = _Diagonal(GridSpec(1, size + 1), *np.empty((2, size), complex))  # z, inv
        self.stepper = Stepper(SemidiscreteProblem(op, _no_forcing), scheme, tab, 1.0)
        # y_n = 1: a read-only view of one value, a fifth of broadcast_to's cost
        self.one = np.ndarray((size,), complex, _ONE, strides=(0,))

    def __call__(self, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        """R at the flat complex samples z and w, ``size`` of each."""
        _, zs, inv = self.stepper.problem.op
        zs[:] = z
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.subtract(1.0, np.multiply(self.scheme.gamma, w, out=inv), out=inv)
            pole = not inv.all() and inv == 0.0  # a mask only where there is a pole
            np.divide(1.0, inv, out=inv)
            out = self.stepper.step(0.0, self.one)
        out[pole] = np.inf  # out[False] selects nothing
        return out


def stability_function(scheme: AmfScheme, tab: ButcherTableau, z, w, *, _evaluator=None):
    """Step multiplier R_q(z, w); accepts scalars or broadcasting arrays.

    R is complex infinity at the pole 1 - gamma*w = 0; samples at or beyond
    floating range (a non-finite w too) never raise, they come back huge or
    non-finite.  Empty arrays give an empty array of their broadcast shape.
    _evaluator : the wedge scan's ``_Evaluator``, kept across its blocks; it
    must be of this scheme and tab at the samples' count (ValueError).  By
    default one is built for the call.
    """
    z, w = np.broadcast_arrays(np.asarray(z, dtype=complex), np.asarray(w, dtype=complex))
    shape, size = z.shape, z.size
    if not size:  # no samples: their 1-D grid would need at least one
        return np.empty(shape, complex)
    if _evaluator is None:
        _evaluator = _Evaluator(scheme, tab, size)
    elif not (_evaluator.scheme is scheme and _evaluator.tab is tab and _evaluator.size == size):
        raise ValueError(f"the evaluator is of another scheme, tableau or sample count "
                         f"({_evaluator.size} samples, given {size})")
    out = _evaluator(*(np.ascontiguousarray(a).reshape(-1) for a in (z, w)))
    return complex(out[0]) if shape == () else out.reshape(shape)


@dataclass(frozen=True)
class ScanResult:
    """Outcome of a wedge scan.

    max_modulus : largest finite |R_q| over the sample set
    argmax : sample attaining it
    per_ray : max |R_q| per combination of boundary rays, keyed by the tuple
        of ray angles (each is arg(-z_k))
    n_samples / n_excluded : samples scanned, and those of them with a non-finite |R_q|
    samples : with keep_samples, the arrays (values, index, modulus) in scan order:
        sample i takes values[index[k, i]] in direction k and has |R| = modulus[i]
    """

    max_modulus: float
    argmax: ComplexPoint
    per_ray: dict
    n_samples: int
    n_excluded: int
    samples: Optional[tuple] = None

    def csv_rows(self):
        """Yield CSV lines 'z1_re,z1_im,...,abs_R' for retained samples."""
        if self.samples is None:
            raise ValueError("scan was run without keep_samples")
        values, index, modulus = self.samples
        yield ",".join(f"z{k+1}_re,z{k+1}_im" for k in range(len(index))) + ",abs_r"
        cells = [f"{v.real:.9g},{v.imag:.9g}" for v in values.tolist()]
        for lo in range(0, modulus.size, _BLOCK):  # formatted a block at a time
            for ix, mod in zip(index[:, lo : lo + _BLOCK].T.tolist(),
                               modulus[lo : lo + _BLOCK].tolist()):
                yield ",".join([cells[i] for i in ix]) + f",{mod:.9g}"


_BLOCK = 1 << 13  # samples per evaluated block; a pass's full blocks share one Stepper
_SPREAD = 1e-11  # relative |R| spread of an orbit's samples allowed for: 8e-15 seen at maxima
_CAP = 10_000_000  # the most permutation orbits a scan evaluates, and samples it keeps
_MAX_D = 4  # directions: d! <= 24 permutations per orbit
_RADII = 40  # radii per ray when a scan is given none


def _rays(theta: float) -> np.ndarray:
    """The wedge boundary's ray angles: theta, -theta and 0, or 0 alone at theta = 0."""
    return np.array([0.0] if theta == 0.0 else [theta, -theta, 0.0])


def _radii(n: int = _RADII) -> np.ndarray:
    """n radii log-spaced on [1e-3, 1e6], the rays' sampling."""
    return np.logspace(-3.0, 6.0, n)


def check_scan(d: int, theta: float, n_radii: Optional[int] = None,
               keep_samples: bool = False) -> int:
    """d as an int; raises ValueError for a d, theta or n_radii (None: _RADII) the scan
    refuses: d past _MAX_D = 4, more than _CAP permutation orbits, or with keep_samples
    more than _CAP samples."""
    check_count("d", d, 1)
    if d > _MAX_D:
        raise ValueError(f"d must be at most {_MAX_D}, got d={d}")
    d = int(d)  # a NumPy integer's powers would wrap around
    if not 0.0 <= theta <= np.pi / 2:
        raise ValueError(f"wedge half-angle must lie in [0, pi/2], got {theta}")
    n_radii = _RADII if n_radii is None else n_radii
    check_count("n_radii", n_radii, 1)
    n = _rays(theta).size * int(n_radii)  # values per direction
    if (orbits := math.comb(n + d - 1, d)) > _CAP:
        raise ValueError(f"{d} directions of {n} values have {orbits} permutation orbits, "
                         f"past {_CAP}")
    if keep_samples and n**d > _CAP:
        raise ValueError(f"keep_samples would hold {n}**{d} samples, past {_CAP}")
    return d


def wedge_stability_scan(
    scheme: AmfScheme,
    tab: ButcherTableau,
    d: int,
    theta: float,
    radii=None,
    keep_samples: bool = False,
) -> ScanResult:
    """Scan |R_q| with every -z_k inside the wedge of half-angle theta.

    Each direction samples the wedge boundary: the rays arg(-z_k) = +-theta
    plus the negative real axis (just the real axis when theta = 0).  Radii
    default to _RADII = 40 points log-spaced on [1e-3, 1e6].  The scan covers
    the full (ray, radius) cross product of its n = n_rays*n_radii values
    across the d directions.  ``check_scan`` refuses at once, before anything
    is evaluated, a d that is not a whole number from 1 to _MAX_D = 4, more
    than _CAP permutation orbits, C(n + d - 1, d), and with keep_samples more
    than _CAP samples, n**d.  Samples are ordered with direction 0 fastest; z
    adds the directions in order and w's product takes each new factor from
    the left (vector complex products are not bitwise commutative).  The
    argmax is the first sample in that order of largest finite |R|.  Samples
    whose |R| is not finite, singular or past floating range, are counted in
    n_excluded, silently; a scan whose every sample is non-finite raises
    RuntimeError.  With keep_samples every sample is evaluated.  Without, R_q
    is evaluated once per conjugate pair of permutation orbits: once per orbit
    with no more -theta values than +theta values, in blocks that each hold
    _BLOCK samples but the last.  Then it evaluates every sample of the
    orbits within _SPREAD of their ray combination's largest |R|, and of their
    conjugate orbits: bitwise what evaluating every sample gives while an
    orbit's samples round less than _SPREAD / 2 apart there.
    """
    radii = _radii() if radii is None else np.asarray(radii, float)
    d = check_scan(d, theta, radii.size, keep_samples)
    if radii.ndim != 1 or not np.all(np.isfinite(radii) & (radii > 0)):
        raise ValueError("radii must be a 1-D array of finite positive values")
    rays = _rays(theta)
    n_rays, n_radii = rays.size, radii.size
    per_var = n_rays * n_radii
    # per-direction sample values: index = ray*n_radii + radius; the -theta ray holds
    # the conjugates of the +theta ray's
    values = -np.exp(1j * rays)[:, None] * radii[None, :]
    if theta > 0.0:
        values[1] = np.conj(values[0])
    values = values.reshape(-1)
    gamma = scheme.gamma
    fac, inv_gamma = 1.0 - gamma * values, 1.0 / gamma
    acc = np.full(n_rays**d, -np.inf)  # max |R| at combination sum ray_k*n_rays**k
    n_samples = per_var**d
    best, n_excluded = [-np.inf, n_samples], [0]  # (max |R|, its first sample's code)
    kept = None
    if keep_samples:  # value indices in the smallest integer type that holds them
        kept = (values, np.empty((d, n_samples), np.min_scalar_type(per_var - 1)),
                np.empty(n_samples))
    # a freed 2 MB array lifts glibc's mmap/trim thresholds: blocks reuse their pages
    np.empty(16 * _BLOCK, complex)
    # the last block's evaluator, built again when a block's length differs from its
    # own: a pass's full blocks share one, and no block steps more samples than it holds
    evaluator = [None]

    def digits(flat, base=per_var):  # a sample's scan-order code to its (d, n) value indices
        return np.array([(flat // base**k) % base for k in range(d)])

    def code(tuples, base=per_var):  # the inverse of digits
        return (tuples * base ** np.arange(len(tuples))[:, None]).sum(axis=0)

    def evaluate(zp, pp, last, combo, codes=None):
        # |R| at samples with value index `last` in direction d-1 (zp, pp: the sum and product
        # over the others); keeps the running maxima of finite |R| per ray combination and,
        # given the samples' codes, the first largest and the non-finite count
        z = values[last] if d == 1 else zp + values[last]
        w = z if d == 1 else (1.0 - fac[last] * pp) * inv_gamma
        if evaluator[0] is None or evaluator[0].size != z.size:
            evaluator[0] = None  # its buffers are freed before the next one's are made
            evaluator[0] = _Evaluator(scheme, tab, z.size)
        # by the module's name, so that a wrapper put on it sees every block
        mod = np.abs(stability_function(scheme, tab, z, w, _evaluator=evaluator[0]))
        finite = np.isfinite(mod)
        mod_f = mod if finite.all() else np.where(finite, mod, -np.inf)
        if codes is not None:
            n_excluded[0] += mod.size - int(np.count_nonzero(finite))
            top = float(mod_f.max())
            first = int(codes[mod_f == top].min())  # blocks come in any order
            if (top, -first) > (best[0], -best[1]):
                best[:] = top, first
        np.maximum.at(acc, combo, mod_f)
        return mod

    def run(idx):  # every sample of the (d, n) value indices idx
        zp, pp = values[idx[0]], fac[idx[0]]
        for ix in idx[1:-1]:
            zp, pp = zp + values[ix], fac[ix] * pp
        return evaluate(zp, pp, idx[-1], code(idx // n_radii, n_rays), code(idx))

    # samples past floating range come back non-finite and are excluded
    with np.errstate(over="ignore", invalid="ignore"):
        if keep_samples:  # every sample, for its own |R|, in scan order
            for lo in range(0, n_samples, _BLOCK):
                hi = min(lo + _BLOCK, n_samples)
                idx = digits(np.arange(lo, hi))
                kept[1][:, lo:hi], kept[2][lo:hi] = idx, run(idx)
        else:
            # z and w are symmetric in the directions, so each permutation orbit is first
            # evaluated once, at its first sample in scan order, whose value indices do not
            # increase from direction 0 to d-1.  Extended by one direction, such a tuple
            # takes a value a <= its last index; in scan order the tuples that allow a are
            # a tail from start[a], and the longer tuples with a begin at off[a]
            def extend(lo, hi):  # (shorter tuple, value a) at positions lo..hi-1 of the longer
                rows = np.arange(*np.searchsorted(off, [lo, hi - 1], side="right") + [-1, 0])
                n = np.diff(np.clip(off[rows[0] : rows[-1] + 2], lo, hi))
                return np.arange(lo, hi) - np.repeat(off[rows] - start[rows], n), np.repeat(rows, n)

            def near(mod, combo):  # within _SPREAD of the combination's maximum, or not finite
                return ~(mod < acc[combo] * (1.0 - _SPREAD))

            # the -theta ray holds the +theta ray's conjugates, and |R| is bitwise the same at
            # conjugate samples: an orbit with more -theta values than +theta values is left to
            # its conjugate orbit.  tilt counts a value's ray as -1 (+theta) or +1 (-theta)
            tilt = np.repeat([-1, 1, 0] if theta > 0.0 else [0], n_radii)
            (flat, excess), zp, pp = np.zeros((2, 1), int), values, fac  # the empty tuple
            for k in range(d):  # the tuples of directions < d-1, their sums, products and tilts
                ends = flat // per_var ** (k - 1) if k else [per_var]  # the empty tuple: any a
                start = np.searchsorted(ends, np.arange(per_var))
                off = np.concatenate(([0], np.cumsum(flat.size - start)))
                if k < d - 1:
                    sel, new = extend(0, off[-1])
                    flat, excess = flat[sel] + new * per_var**k, excess[sel] + tilt[new]
                    if k:
                        zp, pp = zp[sel] + values[new], fac[new] * pp[sel]
            # a value a extends only the shorter tuples from start[a] on whose tilts sum to at
            # most -tilt[a].  runs lists them ray by ray, as codes r*P + p of ray r and shorter
            # tuple p (of P), and a takes its run up to its ray's end (extend gives a place in
            # runs): each block but the last holds _BLOCK samples, all on one Stepper
            fast_combo = code(digits(flat) // n_radii, n_rays)
            runs = np.flatnonzero(excess <= -tilt[::n_radii, None])
            at = np.arange(per_var) // n_radii * flat.size  # a value's ray r, as r*P
            start, end = np.searchsorted(runs, [at + start, at + flat.size])
            off, runs, cands = np.concatenate(([0], np.cumsum(end - start))), runs % flat.size, []
            for lo in range(0, off[-1], _BLOCK):
                sel, last = extend(lo, min(lo + _BLOCK, off[-1]))
                sel = runs[sel]
                combo = fast_combo[sel] + last // n_radii * n_rays ** (d - 1)
                mod = evaluate(zp[sel], pp[sel], last, combo)
                keep = near(mod, combo)
                cands.append((flat[sel[keep]] + last[keep] * per_var ** (d - 1), mod[keep]))
            # the orbits within _SPREAD of their combination's maximum, or not finite, are
            # evaluated again with their conjugate orbits, every sample: per_ray, the maximum,
            # the argmax and the count of non-finite samples are what evaluating every sample
            # gives.  A ray combination keeps all its orbits or none, so acc holds the
            # first-pass maximum of every combination with candidates
            flat, mod = map(np.concatenate, zip(*cands))
            t = digits(flat)
            keep, t = near(mod, code(t // n_radii, n_rays)), tilt[t]
            plus = keep & (t.sum(axis=0) < 0)  # near, with their conjugate orbits left out
            # a conjugate swaps the +theta and -theta rays: value index a - n_radii*tilt[a]
            t = digits(np.concatenate([flat[keep], (flat - n_radii * code(t))[plus]]))
            # every sample of these orbits: permutation p puts direction p[k] of an orbit's t in
            # direction k.  Equal values of t sit side by side, and of the permutations that
            # only reorder them, the one that keeps their order stands for all
            perms = np.array(list(itertools.permutations(range(d))))
            order = np.argsort(perms, axis=1)  # order[p, j]: where p puts direction j of t
            ties = (t[:-1] == t[1:])[None] & (order[:, :-1] > order[:, 1:])[:, :, None]
            distinct = ~ties.any(axis=1)  # (permutation, orbit)
            off = np.concatenate(([0], np.cumsum(distinct.sum(axis=0))))
            for lo in range(0, off[-1], _BLOCK):  # the samples in orbit order, a block at a time
                hi = min(lo + _BLOCK, off[-1])
                m0, m1 = np.searchsorted(off, lo, side="right") - 1, np.searchsorted(off, hi)
                pos = np.flatnonzero(distinct[:, m0:m1].T)[lo - off[m0] : hi - off[m0]]
                run(t[perms[pos % len(perms)].T, m0 + pos // len(perms)])

    if best[0] == -np.inf:
        raise RuntimeError("every scan sample was non-finite (singular or past the float range)")
    combos = np.indices((n_rays,) * d).reshape(d, -1)[::-1]  # row k: each combination's ray k
    per_ray = dict(zip(map(tuple, rays[combos].T.tolist()), acc.tolist()))  # the rays are distinct
    parts = tuple(complex(values[i]) for i in digits(best[1]))
    return ScanResult(best[0], ComplexPoint(parts, *combine_zw(parts, gamma)), per_ray,
                      n_samples, n_excluded[0], kept)
