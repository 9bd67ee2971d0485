"""Linear stability of the sweep iteration under directional factorization.

For the scalar test equation split across d directions, y' = (z_1 + ... +
z_d) y / tau, one step of the q-sweep method multiplies y by a rational
function R_q(z, w) of two complex arguments:

    z = z_1 + ... + z_d                  (the full eigenvalue times tau)
    w = (1 - prod_k (1 - gamma*z_k)) / gamma   (what the factored solve sees)

R_q is the ``Stepper``'s step from y_n = 1 on scalars.  Its product solve is
the factor inv = 1/(1 - gamma*w); from Z = 0, sweep nu updates the increments

    D = z A (e + Z) - Z,   r = (I - low) inv(mix) D,
    E_1 = r_1 inv,   E_2 = (r_2 + low E_1) inv,   Z += mix E,

and R_q = varpi + s_hat . (e + Z): as approx_a = T = gamma mix inv(I - low)
inv(mix), the recurrence G <- inv(I - w T) (e + (z A - w T) G) on G = e + Z.
As in the ``Stepper``, the first sweep (Z = 0) takes r = z kappa with the real
kappa = (I - low) inv(mix) A e, the last skips Z_1 when s_hat_1 = 0, and R
sums only the non-zero weights (R = 1 + Z_2 for Radau IIA).  R_q has a pole
at 1 - gamma*w = 0, the double eigenvalue of I - w T; only a call that meets
one builds the mask that sets R to complex infinity there.

A-stability in a wedge of half-angle theta means |R_q| <= 1 whenever every
-z_k lies within theta of the positive real axis.  The wedge scan samples
the boundary rays (where the maximum modulus principle puts any violation)
over a cross product of radii per direction, in blocks of about 10^4 samples
(their temporaries stay in L2 cache) that broadcast the slowest direction
against sums and products over the others; a reshape gives per-ray maxima.
Every operation from the samples to |R_q| is odd in the imaginary parts, so
a sample and its conjugate (each -z_k reflected in the real axis) have
bitwise the same |R_q|, and the scan evaluates one sample of each pair.
"""

from __future__ import annotations

from dataclasses import dataclass
import itertools
import math
from typing import Optional

import numpy as np

from .splitops import check_count
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
    _check_gamma(gamma)
    zs = [complex(v) for v in np.atleast_1d(zs)]
    if len(zs) == 0:
        raise ValueError("need at least one direction argument")
    z = sum(zs)
    prod = 1.0 + 0.0j
    for v in zs:
        prod *= 1.0 - gamma * v
    return z, (1.0 - prod) / gamma


def stability_function(scheme: AmfScheme, tab: ButcherTableau, z, w):
    """Step multiplier R_q(z, w); accepts scalars or broadcasting arrays.

    Runs the factored sweep of the module docstring, with the ``Stepper``'s
    skips, on float64 views of flat buffers (only z * A (e + Z) and r * inv are
    complex products).  R is complex infinity at the pole 1 - gamma*w = 0;
    samples at or beyond floating range (a non-finite w too) never raise, they
    come back huge or non-finite.
    """
    z, w = np.broadcast_arrays(np.asarray(z, dtype=complex), np.asarray(w, dtype=complex))
    shape, size = z.shape, z.size
    # one sample runs twice: NumPy's in-place product of one complex rounds apart
    z, w = (np.ascontiguousarray(np.resize(a, 2) if size == 1 else a).reshape(-1) for a in (z, w))
    buf = np.empty((7, z.size), dtype=complex)  # inv, Z, r (then E), 2 scratch
    inv, zs, r = buf[0], buf[1:3], buf[3:5]
    zsf, rf, tf = zs.view(float), r.view(float), buf[5:].view(float)
    a, ae = tab.a, tab.a.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.subtract(1.0, scheme.gamma * w, out=inv)
        pole = not inv.all() and inv == 0.0  # a mask only where there is a pole
        np.divide(1.0, inv, out=inv)
        for nu, it in enumerate(scheme.iterations):
            if nu:  # D = z A (e + Z) - Z, r = (I - low) inv(mix) D
                np.multiply(zsf[0], a[:, :1], out=rf)
                rf += np.multiply(zsf[1], a[:, 1:], out=tf)
                rf[:, ::2] += ae[:, None]
                r *= z
                rf -= zsf
                rf[0] -= np.multiply(rf[1], it.mix_coeff, out=tf[0])
                rf[1] -= np.multiply(rf[0], it.low_coeff, out=tf[0])
            else:  # from Z = 0: r = z kappa, kappa = (I - low) inv(mix) A e
                k0 = ae[0] - it.mix_coeff * ae[1]
                np.multiply(z.view(float), [[k0], [ae[1] - it.low_coeff * k0]], out=rf)
            r[0] *= inv  # E = ((1 - gamma*w) I - low)^-1 r, row by row
            rf[1] += np.multiply(rf[0], it.low_coeff, out=tf[0])
            e2 = np.multiply(r[1], inv, out=r[1] if nu else zs[1])  # from Z = 0: Z_2 = E_2
            if nu:
                zs[1] += e2
            if nu < len(scheme.iterations) - 1 or tab.s_hat[0]:  # no last Z_1 if s_hat_1 = 0
                dz = np.multiply(e2.view(float), it.mix_coeff, out=tf[0] if nu else zsf[0])
                dz += rf[0]  # dZ_1 = E_1 + mix E_2, written into Z_1 = 0 by the first sweep
                if nu:
                    zsf[0] += dz
        terms = [row if c == 1.0 else c * row for c, row in zip(tab.s_hat, zsf) if c]
        out = sum(terms[1:], terms[0]).view(complex) + (tab.varpi + tab.s_hat.sum())
    out[pole] = np.inf  # out[False] selects nothing
    return complex(out[0]) if shape == () else out[:size].reshape(shape)


@dataclass(frozen=True)
class ScanResult:
    """Outcome of a wedge scan.

    max_modulus : largest finite |R_q| over the sample set
    argmax : sample attaining it
    per_ray : max |R_q| per combination of boundary rays, keyed by the tuple
        of ray angles (each is arg(-z_k))
    n_samples / n_excluded : evaluated vs skipped (non-finite |R_q|) counts
    samples : optional retained rows (ComplexPoint, |R|) for export
    """

    max_modulus: float
    argmax: ComplexPoint
    per_ray: dict
    n_samples: int
    n_excluded: int
    samples: Optional[list] = None

    def csv_rows(self):
        """Yield CSV lines 'z1_re,z1_im,...,abs_R' for retained samples."""
        if self.samples is None:
            raise ValueError("scan was run without keep_samples")
        yield ",".join(f"z{k+1}_re,z{k+1}_im" for k in range(len(self.argmax.parts))) + ",abs_r"
        for pt, mod in self.samples:
            parts = ",".join(f"{v.real:.9g},{v.imag:.9g}" for v in pt.parts)
            yield f"{parts},{mod:.9g}"


_BLOCK = 1 << 14  # samples per evaluated block: its temporaries fit a core's L2
_DRAW = 1 << 18  # random tuples per generator call; fixes the subsample set


def wedge_stability_scan(
    scheme: AmfScheme,
    tab: ButcherTableau,
    d: int,
    theta: float,
    radii=None,
    angles=None,
    cap: int = 4_000_000,
    n_random: int = 1_000_000,
    seed: int = 0,
    keep_samples: bool = False,
) -> ScanResult:
    """Scan |R_q| with every -z_k inside the wedge of half-angle theta.

    Each direction samples the wedge boundary: the rays arg(-z_k) = +-theta
    plus the negative real axis (just the real axis when theta = 0), with
    optional extra interior rays via ``angles`` (offsets in [0, theta], added
    with both signs, each ray once however often it is given).  Radii
    default to 40 points log-spaced on [1e-3, 1e6].

    The full (ray, radius) cross product across the d directions is scanned
    when its size fits ``cap``; otherwise a deterministic subsample is used
    (all ray combinations crossed with equal-radius-index tuples, plus
    ``n_random`` seeded random tuples).  Samples are ordered with direction
    0 fastest; z adds the directions in order and w's product takes each new
    factor from the left (vector complex products are not bitwise
    commutative).  The argmax is the first sample of largest finite |R|.
    Samples whose |R| is not finite, singular or past floating range, are
    counted in n_excluded, silently.  The full cross product evaluates R_q on
    ((n_rays*n_radii)^d + n_radii^d) / 2 samples: those whose slowest
    direction off the zero ray is on a positive-angle ray, or with no such
    direction; each conjugate, later in the scan order, takes their |R|.
    """
    check_count("d", d, 1)
    check_count("cap", cap, 1)
    check_count("n_random", n_random, 0)
    if not 0.0 <= theta <= np.pi / 2:
        raise ValueError(f"wedge half-angle must lie in [0, pi/2], got {theta}")
    radii = np.logspace(-3.0, 6.0, 40) if radii is None else np.asarray(radii, float)
    if radii.ndim != 1 or radii.size == 0 or not np.all(np.isfinite(radii) & (radii > 0)):
        raise ValueError("radii must be a nonempty 1-D array of finite positive values")
    rays = [0.0] if theta == 0.0 else [theta, -theta, 0.0]
    for ang in angles if angles is not None else ():
        ang = float(ang)
        if not 0.0 <= ang <= theta:
            raise ValueError(f"interior ray angle {ang} outside [0, {theta}]")
        if ang not in rays:
            rays.extend([ang, -ang])
    rays_arr = np.asarray(rays)
    n_rays, n_radii = rays_arr.size, radii.size
    per_var = n_rays * n_radii
    # per-direction sample values: index = ray*n_radii + radius; a -a ray holds the
    # conjugates of the +a ray's, and mirror_ray / mirror_value map to the conjugate
    mirror_ray = np.array([rays.index(-r) for r in rays])
    mirror_value = (mirror_ray[:, None] * n_radii + np.arange(n_radii)).reshape(-1)
    values = -np.exp(1j * rays_arr)[:, None] * radii[None, :]
    values = np.where((rays_arr < 0)[:, None], np.conj(values[mirror_ray]), values).reshape(-1)
    gamma = scheme.gamma
    fac, inv_gamma = 1.0 - gamma * values, 1.0 / gamma
    acc = np.full(n_rays**d, -np.inf)  # max |R| at combination sum ray_k*n_rays**k
    best, counts = [-np.inf, None], [0, 0]  # (max |R|, value indices), (n, excluded)
    kept: Optional[list] = [] if keep_samples else None
    # a freed 4 MB array lifts glibc's mmap/trim thresholds: blocks reuse their pages
    np.empty(16 * _BLOCK, complex)

    def digits(flat, base=per_var, n_digits=d):
        return [(flat // base**k) % base for k in range(n_digits)]

    def mirror(flat, base, mates, n_digits=d):
        # flat index of the conjugate of each sample (or ray combination)
        return sum(mates[x] * base**k for k, x in enumerate(digits(flat, base, n_digits)))

    def evaluate(zp, pp, last, lone, index_at):
        # |R| at zp, pp (directions < d-1) and `last` (d-1), and with -inf where not finite;
        # a sample counts for its mirror too unless `lone`; keeps the first largest |R|
        z = values[last] if d == 1 else zp + values[last]
        w = z if d == 1 else (1.0 - fac[last] * pp) * inv_gamma
        mod = np.abs(stability_function(scheme, tab, z, w))
        finite = np.isfinite(mod)
        single = finite[..., lone]  # the self-conjugate samples
        n_bad = mod.size - int(np.count_nonzero(finite))
        counts[0] += 2 * mod.size - single.size
        counts[1] += 2 * n_bad - (single.size - int(np.count_nonzero(single)))
        mod_f = np.where(finite, mod, -np.inf) if n_bad else mod
        top = float(mod_f.max(initial=-np.inf))  # a zero-ray block may hold no sample
        if top > best[0]:
            best[0], best[1] = top, index_at(int(np.argmax(mod_f)))
        return mod_f, mod

    def point(idx):
        parts = tuple(complex(values[i]) for i in idx)
        return ComplexPoint(parts, *combine_zw(parts, gamma))

    # samples past floating range come back non-finite and are excluded
    with np.errstate(over="ignore", invalid="ignore"):
        if per_var**d <= cap:
            # a block is whole rows of direction d-1 or a run of groups in one row;
            # a group spans all radii of the k >= 1 fastest directions a block holds
            inner = per_var ** (d - 1)
            k = next((j for j in range(d - 1, 1, -1) if per_var**j <= _BLOCK), min(d - 1, 1))
            cols = per_var**k
            rows, width = max(1, _BLOCK // inner), min(inner, max(1, _BLOCK // cols) * cols)
            zp, pp = values, fac
            for _ in range(d - 2):
                zp = (zp[None, :] + values[:, None]).reshape(-1)
                pp = (fac[:, None] * pp[None, :]).reshape(-1)
            by_group = acc.reshape((-1,) + (n_rays,) * k)
            # rows on -a rays (skipped) and the mirror columns of zero-ray rows are not
            # evaluated: each takes its conjugate's |R|, at the end for the maxima
            shift = mirror(np.arange(inner), per_var, mirror_value, d - 1) - np.arange(inner)
            canon = np.flatnonzero(shift >= 0)
            zc, pc, lone = zp[canon], pp[canon], shift[canon] == 0
            mods = np.empty((per_var, inner)) if keep_samples else None
            up_or_zero = np.flatnonzero(mirror_ray >= np.arange(n_rays)).tolist()
            for ray, i0, c0 in itertools.product(up_or_zero, range(0, n_radii, rows),
                                                 range(0, inner, width)):
                i0 += ray * n_radii
                last = np.s_[i0 : min(i0 + rows, (ray + 1) * n_radii), None]
                on = slice(c0, min(c0 + width, inner))  # the columns evaluated
                n = on.stop - c0
                if mirror_ray[ray] > ray:
                    block, raw = evaluate(zp[None, on], pp[None, on], last, False,
                                          lambda pos: digits((i0 + pos // n) * inner + c0 + pos % n))
                else:  # zero-ray rows: their canonical columns
                    at = slice(*np.searchsorted(canon, [c0, on.stop]))
                    on = canon[at]
                    block = np.full((last[0].stop - i0, n), -np.inf)
                    block[:, on - c0], raw = evaluate(
                        zc[None, at], pc[None, at], last, lone[at],
                        lambda pos: digits((i0 + pos // on.size) * inner + on[pos % on.size]))
                if keep_samples:
                    mods[last[0], on] = raw
                groups = block.reshape((-1,) + (n_rays, n_radii) * k)
                slow = digits((i0 * inner + c0) // cols + np.arange(groups.shape[0]))
                slow_id = sum((s // n_radii) * n_rays**j for j, s in enumerate(slow[: d - k]))
                np.maximum.at(by_group, slow_id, groups.max(axis=tuple(range(2, 2 * k + 1, 2))))
            np.maximum(acc, acc[mirror(np.arange(acc.size), n_rays, mirror_ray)], out=acc)
            if keep_samples:
                flat = np.arange(per_var**d)
                mods = mods.reshape(-1)[np.minimum(flat, mirror(flat, per_var, mirror_value))]
                kept.extend((point(pt), float(m)) for pt, m in zip(zip(*digits(flat)), mods))
        else:
            # equal-radius-index tuples across every ray combination, then random
            ray_digits = [r.reshape(-1) * n_radii for r in np.indices((n_rays,) * d)[::-1]]
            rng = np.random.default_rng(seed)
            diagonal = ([dig + ri for dig in ray_digits] for ri in range(n_radii))
            draws = (rng.integers(0, per_var, size=(d, min(_DRAW, n_random - start)))
                     for start in range(0, n_random, _DRAW))
            for batch in itertools.chain(diagonal, draws):
                for b0 in range(0, batch[0].size, _BLOCK):
                    idx = [ix[b0 : b0 + _BLOCK] for ix in batch]
                    zp, pp = values[idx[0]], fac[idx[0]]
                    for ix in idx[1:-1]:
                        zp, pp = zp + values[ix], fac[ix] * pp
                    mod_f, mod = evaluate(zp, pp, idx[-1], True, lambda pos: [ix[pos] for ix in idx])
                    if keep_samples:
                        kept.extend((point(pt), float(m)) for pt, m in zip(zip(*idx), mod))
                    combo = sum((ix // n_radii) * n_rays**j for j, ix in enumerate(idx))
                    np.maximum.at(acc, combo, mod_f)

    if best[1] is None:
        raise RuntimeError("every scan sample was excluded as singular")
    per_ray: dict = {}
    for cid, m in enumerate(acc.tolist()):
        key = tuple(float(rays_arr[(cid // n_rays**k) % n_rays]) for k in range(d))
        per_ray[key] = max(m, per_ray.get(key, -np.inf))
    return ScanResult(best[0], point(best[1]), per_ray, counts[0], counts[1], kept)


def _check_gamma(gamma: float) -> None:
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")


def splitting_sup_bound(d: int, gamma: float) -> float:
    """Closed-form sup of |z / (1 - gamma*w)| over the left half-plane.

    For a d-direction splitting with all Re z_k <= 0 the ratio is bounded by
    (1/gamma) * sqrt((d-1)^(d-1) / d^(d-2)), attained on the imaginary axis
    with all directions equal; d = 1 gives 1/gamma (approached, not attained).
    Raises ValueError unless gamma is finite and > 0.
    """
    check_count("d", d, 1)
    _check_gamma(gamma)
    if d == 1:
        return 1.0 / gamma
    return float((1.0 / gamma) * np.sqrt((d - 1) ** (d - 1) / d ** (d - 2)))


def sampled_sup_ratio(
    d: int,
    gamma: float,
    n_diag: int = 4001,
    n_random: int = 20000,
    seed: int = 0,
) -> float:
    """Sampled sup of |z / (1 - gamma*w)| over imaginary-axis arguments.

    Samples the diagonal z_k = i*x around the known maximizer
    x = 1/(gamma*sqrt(d-1)) plus seeded random imaginary tuples; approaches
    splitting_sup_bound(d, gamma) from below.  Requires d >= 2 (for d = 1
    the sup is only approached as |z| grows without bound), a finite
    gamma > 0, n_diag >= 1 and n_random >= 0 (0: the diagonal alone).
    """
    check_count("d", d, 2)
    check_count("n_diag", n_diag, 1)
    check_count("n_random", n_random, 0)
    _check_gamma(gamma)
    x_star = 1.0 / (gamma * (d - 1) ** 0.5)
    zs = 1j * np.linspace(0.5 * x_star, 2.0 * x_star, n_diag)
    denom = (1.0 - gamma * zs) ** d
    vals = np.abs(d * zs / denom)
    out = float(vals.max())
    rng = np.random.default_rng(seed)
    zr = 1j * rng.uniform(-3.0 * x_star, 3.0 * x_star, size=(n_random, d))
    prod = np.prod(1.0 - gamma * zr, axis=1)
    vals_r = np.abs(zr.sum(axis=1) / prod)
    return max(out, float(vals_r.max(initial=0.0)))
