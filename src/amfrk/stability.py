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
over a cross product of radii per direction, in blocks of about 1.6*10^4
samples (each is one ``Stepper`` step).  z and w are symmetric in the
directions, so a sample and its permutations share R_q up to rounding: the
full cross product evaluates one sample per permutation orbit, then the
orbits near a ray combination's largest |R_q| sample by sample.  A larger
cross product is subsampled, and a subsample too large itself is refused.
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


def _no_forcing(t, out):
    out.fill(0.0)
    return out


def stability_function(scheme: AmfScheme, tab: ButcherTableau, z, w):
    """Step multiplier R_q(z, w); accepts scalars or broadcasting arrays.

    R is complex infinity at the pole 1 - gamma*w = 0; samples at or beyond
    floating range (a non-finite w too) never raise, they come back huge or
    non-finite.  Empty arrays give an empty array of their broadcast shape.
    """
    z, w = np.broadcast_arrays(np.asarray(z, dtype=complex), np.asarray(w, dtype=complex))
    shape, size = z.shape, z.size
    if not size:  # no samples: their 1-D grid would need at least one
        return np.empty(shape, complex)
    # one sample runs twice: NumPy's in-place product of one complex rounds apart
    z, w = (np.ascontiguousarray(np.resize(a, 2) if size == 1 else a).reshape(-1) for a in (z, w))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv = 1.0 - scheme.gamma * w
        pole = not inv.all() and inv == 0.0  # a mask only where there is a pole
        np.divide(1.0, inv, out=inv)
        op = _Diagonal(GridSpec(1, z.size + 1), z, inv)
        stepper = Stepper(SemidiscreteProblem(op, _no_forcing), scheme, tab, 1.0)
        out = stepper.step(0.0, np.broadcast_to(np.complex128(1.0), z.shape))
    out[pole] = np.inf  # out[False] selects nothing
    return complex(out[0]) if shape == () else out[:size].reshape(shape)


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


_BLOCK = 1 << 14  # samples per evaluated block; amortizes each R_q call's Stepper build
_DRAW = 1 << 18  # random tuples per generator call; fixes the subsample set
_SPREAD = 1e-11  # relative |R| spread of an orbit's samples allowed for: 8e-15 seen at maxima
_CAP = 4_000_000  # the largest cross product scanned whole, and the largest subsample's base
_N_RANDOM = 1_000_000  # random tuples (from seed 0) the subsample adds
_MAX_D = 63  # directions: np.indices((n_rays,) * d) has d + 1 axes, and NumPy allows 64
_RADII = 40  # radii per ray when a scan is given none


def _rays(theta: float) -> np.ndarray:
    """The wedge boundary's ray angles: theta, -theta and 0, or 0 alone at theta = 0."""
    return np.array([0.0] if theta == 0.0 else [theta, -theta, 0.0])


def _radii(n: int = _RADII) -> np.ndarray:
    """n radii log-spaced on [1e-3, 1e6], the rays' sampling."""
    return np.logspace(-3.0, 6.0, n)


def check_scan(d: int, theta: float, n_radii: Optional[int] = None) -> int:
    """d as an int; raises ValueError for a d, theta or n_radii (None: _RADII) the scan refuses."""
    check_count("d", d, 1)
    if d > _MAX_D:
        raise ValueError(f"d must be at most {_MAX_D}, got d={d}: the subsample's ray "
                         "indices would pass NumPy's 64 array dimensions")
    d = int(d)  # a NumPy integer's powers would wrap around
    if not 0.0 <= theta <= np.pi / 2:
        raise ValueError(f"wedge half-angle must lie in [0, pi/2], got {theta}")
    n_rays, n_radii = _rays(theta).size, (_RADII if n_radii is None else n_radii)
    check_count("n_radii", n_radii, 1)
    if n_rays**d * n_radii > _CAP:  # each direction more triples the subsample's base
        raise ValueError(f"{d} directions of {n_radii} radii would subsample "
                         f"{n_rays}**{d} * {n_radii} equal-radius tuples, past {_CAP}")
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
    default to _RADII = 40 points log-spaced on [1e-3, 1e6].  d is a whole
    number from 1 to _MAX_D = 63; ``check_scan`` refuses any other d at once.

    The full (ray, radius) cross product across the d directions is scanned
    when its size fits _CAP; otherwise a deterministic subsample is used
    (all ray combinations crossed with equal-radius-index tuples, plus
    _N_RANDOM random tuples drawn from seed 0).  When the equal-radius tuples
    alone, n_rays**d * n_radii, pass _CAP (d = 11 at the default radii) the
    scan raises ValueError before it evaluates anything.  Samples are ordered
    with direction 0 fastest; z adds the directions in order and w's product
    takes each new factor from the left (vector complex products are not
    bitwise commutative).  The argmax is the first sample of largest finite
    |R|.  Samples whose |R| is not finite, singular or past floating range,
    are counted in n_excluded, silently; a scan whose every sample is
    non-finite raises RuntimeError.  The full cross product (without
    keep_samples) evaluates R_q once per permutation orbit, C(n + d - 1, d)
    samples of n = n_rays*n_radii values, then sample by sample on the
    orbits within _SPREAD of their ray combination's largest |R|: bitwise
    what evaluating every sample gives while an orbit's samples round less
    than _SPREAD / 2 apart there.
    """
    radii = _radii() if radii is None else np.asarray(radii, float)
    d = check_scan(d, theta, radii.size)
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
    best, n_excluded = [-np.inf, None], [0]  # (max |R|, value indices)
    full = per_var**d <= _CAP
    n_samples = per_var**d if full else n_rays**d * n_radii + _N_RANDOM
    kept, n_kept = None, 0
    if keep_samples:  # value indices in the smallest integer type that holds them
        kept = (values, np.empty((d, n_samples), np.min_scalar_type(per_var - 1)),
                np.empty(n_samples))
    # a freed 4 MB array lifts glibc's mmap/trim thresholds: blocks reuse their pages
    np.empty(16 * _BLOCK, complex)

    def digits(flat, base=per_var):
        return [(flat // base**k) % base for k in range(d)]

    def code(tuples, base=per_var):  # the inverse of digits, on a (d, n) index array
        return (tuples * base ** np.arange(len(tuples))[:, None]).sum(axis=0)

    def evaluate(zp, pp, last, combo, at=None):
        # |R| at samples with value index `last` in direction d-1 (zp, pp: the sum and product
        # over the others); keeps the running maxima of finite |R| per ray combination and,
        # given at(pos) (a sample's value indices), the first largest and the non-finite count
        z = values[last] if d == 1 else zp + values[last]
        w = z if d == 1 else (1.0 - fac[last] * pp) * inv_gamma
        mod = np.abs(stability_function(scheme, tab, z, w))
        finite = np.isfinite(mod)
        mod_f = mod if finite.all() else np.where(finite, mod, -np.inf)
        if at and mod_f is not mod:
            n_excluded[0] += mod.size - int(np.count_nonzero(finite))
        if at and (top := float(mod_f.max())) > best[0]:
            best[0], best[1] = top, at(int(np.argmax(mod_f)))
        np.maximum.at(acc, combo, mod_f)
        return mod

    def point(idx):
        parts = tuple(complex(values[i]) for i in idx)
        return ComplexPoint(parts, *combine_zw(parts, gamma))

    # samples past floating range come back non-finite and are excluded
    with np.errstate(over="ignore", invalid="ignore"):
        if full and not keep_samples:
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

            flat, zp, pp = np.zeros(1, int), values, fac  # the empty tuple
            for k in range(d):  # the tuples of directions < d-1, their sums and products
                ends = flat // per_var ** (k - 1) if k else [per_var]  # the empty tuple: any a
                start = np.searchsorted(ends, np.arange(per_var))
                off = np.concatenate(([0], np.cumsum(flat.size - start)))
                if k < d - 1:
                    sel, new = extend(0, off[-1])
                    flat = flat[sel] + new * per_var**k
                    if k:
                        zp, pp = zp[sel] + values[new], fac[new] * pp[sel]
            fast_combo, cands = code(np.array(digits(flat)) // n_radii, n_rays), []
            for lo in range(0, off[-1], _BLOCK):
                sel, last = extend(lo, min(lo + _BLOCK, off[-1]))
                combo = fast_combo[sel] + last // n_radii * n_rays ** (d - 1)
                mod = evaluate(zp[sel], pp[sel], last, combo)
                keep = near(mod, combo)
                cands.append((flat[sel[keep]] + last[keep] * per_var ** (d - 1), mod[keep]))
            # the orbits within _SPREAD of their combination's maximum, or not finite, are
            # evaluated again, every sample in its own order: per_ray, the maximum, the
            # argmax and the count of non-finite samples are what evaluating every sample gives
            flat, mod = map(np.concatenate, zip(*cands))
            flat, size = flat[near(mod, code(np.array(digits(flat)) // n_radii, n_rays))], -1
            while flat.size > size:  # with all their samples: swaps of adjacent directions
                size, t = flat.size, digits(flat)
                swaps = ((t[k] - t[k + 1]) * (per_var - 1) * per_var**k for k in range(d - 1))
                flat = np.sort(np.concatenate([flat, *(flat + s for s in swaps)]))
                flat = flat[np.diff(flat, prepend=-1) > 0]  # np.unique hashes: 20x slower here
            batches = [digits(flat)]
        elif full:  # every sample, for its own |R|, in scan order
            batches = (digits(np.arange(s, min(s + _DRAW, per_var**d)))
                       for s in range(0, per_var**d, _DRAW))
        else:  # equal-radius-index tuples across every ray combination, then random
            ray_digits = [r.reshape(-1) * n_radii for r in np.indices((n_rays,) * d)[::-1]]
            rng = np.random.default_rng(0)
            diagonal = ([dig + ri for dig in ray_digits] for ri in range(n_radii))
            draws = (rng.integers(0, per_var, size=(d, min(_DRAW, _N_RANDOM - s)))
                     for s in range(0, _N_RANDOM, _DRAW))
            batches = itertools.chain(diagonal, draws)
        for batch in batches:
            for b0 in range(0, batch[0].size, _BLOCK):
                idx = [ix[b0 : b0 + _BLOCK] for ix in batch]
                zp, pp = values[idx[0]], fac[idx[0]]
                for ix in idx[1:-1]:
                    zp, pp = zp + values[ix], fac[ix] * pp
                mod = evaluate(zp, pp, idx[-1], code(np.array(idx) // n_radii, n_rays),
                               lambda pos: [ix[pos] for ix in idx])
                if keep_samples:
                    kept[1][:, n_kept : n_kept + mod.size] = idx
                    kept[2][n_kept : n_kept + mod.size] = mod
                    n_kept += mod.size

    if best[1] is None:
        raise RuntimeError("every scan sample was non-finite (singular or past the float range)")
    per_ray = {tuple(float(rays[(cid // n_rays**k) % n_rays]) for k in range(d)): m
               for cid, m in enumerate(acc.tolist())}  # the rays are distinct
    return ScanResult(best[0], point(best[1]), per_ray, n_samples, n_excluded[0], kept)

