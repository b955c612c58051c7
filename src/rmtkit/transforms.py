"""Numerical free-probability engine.

Resolvent (Stieltjes transform), its functional inverse (Blue function),
R- and S-transforms, and free additive/multiplicative convolution by
subordination (Belinschi & Bercovici, J. Anal. Math. 101, 2007).  One loop,
``_subordinate``, solves every fixed point: the points of a grid in stages
of halving stride, each new point started from a monotone cubic of those
solved before it and iterated by Aitken's secant step where that step is
safe (Walker & Ni, SIAM J. Numer. Anal. 49, 2011).  The maps need
forward evaluations of the Cauchy transform or of psi alone; both come
from one real-arithmetic quadrature, ``_cauchy``.  A free convolution's
density is read off the transform its map evaluates first, at each
point's last iterate, with no quadrature after the solve.  ``blue``
inverts both transforms (S through the size-biased law), real and complex
w alike, by guarded Newton steps run through ``_subordinate``.

Conventions: densities are evaluated on the line ``z = lambda - i*eps`` with
small ``eps > 0``; on that line ``Im G > 0`` and ``rho = Im G / pi``.  For
``z`` in the upper half-plane ``Im G < 0``.
"""

from __future__ import annotations

import logging
import time

import numpy as np

from .density import GRID_POINTS, SpectralDensity

__all__ = [
    "TransformError",
    "PoleOnSupportError",
    "ConvergenceError",
    "resolvent",
    "blue",
    "r_transform",
    "s_transform",
    "free_add",
    "free_multiply",
]

logger = logging.getLogger(__name__)

NEWTON_TOL = 1e-12
# Subordination sweeps of one stage before giving up.  In the tests a point
# of a free sum or product needs at most 16 and one of the elliptic bulk
# 65; a sum of two Bernoulli laws, made only of atoms, contracts at a rate
# of 1 - O(eps) and needs 451.
MAX_SWEEPS = 2000
# Grid stride of the first stage of ``_subordinate``; each later stage
# halves it.  Over a free sum, a free product, a dressed spectrum and an
# elliptic bulk (the four cases of the tests' evaluation caps), top strides
# 64, 128, 256 and 512 took 17623, 17484, 17427 and 17406 map evaluations
# in all (21406 for one stride-8 coarse stage and one fine stage); 512
# saves 0.1% for one more stage.
COARSE_STRIDE = 256
# A point whose last two steps are both at most this, relative to
# 1 + |f(w)|, sits at its fixed point to working precision.
ROUNDING_TOL = 8 * np.finfo(float).eps
# Largest temporary of one quadrature block, in bytes.  A block holds two
# real (8-byte) temporaries of this size, which then fit in a core's L2
# cache: on a Xeon with 2 MB of L2 per core, 256 KB blocks ran the free
# convolutions as fast as 512 KB blocks and faster than 64 KB (per-block
# overhead) or 1 MB blocks.
BLOCK_BYTES = 2**18


class TransformError(RuntimeError):
    pass


class PoleOnSupportError(TransformError):
    pass


class ConvergenceError(TransformError):
    pass


# ---------------------------------------------------------------------------
# Quadrature

def _nodes(density: SpectralDensity):
    """Nodes x_k and weights c_k with sum_k c_k f(x_k) ~ int f d(density).

    The continuous part takes the trapezoid rule on its grid, each atom a
    node of its own mass; nodes of weight zero are dropped.
    """
    x = density.grid
    c = np.zeros_like(x)
    if x.size >= 2:
        half = np.diff(x) / 2
        c[:-1] += half
        c[1:] += half
        c *= density.density
    x = np.concatenate([x, [loc for loc, _ in density.atoms]])
    c = np.concatenate([c, [m for _, m in density.atoms]])
    keep = c != 0
    return x[keep], c[keep]


def _cauchy(x, c, z):
    """sum_k c_k / (z - x_k) at every z, in real arithmetic.

    With d = Re z - x_k and b = Im z, 1/(z - x_k) = (d - i b)/(d^2 + b^2).
    A row of the sum shares b, so a block of rows costs two real mat-vecs:
    ``(d * inv) @ c - i b (inv @ c)`` with ``inv = 1/(d^2 + b^2)``.  Each
    block's temporaries are at most ``BLOCK_BYTES``.  Returns a complex
    scalar for scalar ``z``, an array of its shape otherwise.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    re, im = flat.real, flat.imag
    out = np.empty(flat.size, dtype=complex)
    rows = max(1, min(flat.size, BLOCK_BYTES // (8 * x.size)))
    d = np.empty((rows, x.size))
    inv = np.empty((rows, x.size))
    for i in range(0, flat.size, rows):
        b = im[i:i + rows]
        n = b.size
        np.subtract(re[i:i + rows, None], x, out=d[:n])
        np.multiply(d[:n], d[:n], out=inv[:n])
        inv[:n] += (b * b)[:, None]
        np.reciprocal(inv[:n], out=inv[:n])
        out.imag[i:i + rows] = -b * (inv[:n] @ c)
        d[:n] *= inv[:n]
        out.real[i:i + rows] = d[:n] @ c
    return out.reshape(z.shape)[()]


def _lone_atom(density: SpectralDensity, name: str):
    """Location of the atom when ``density`` is one atom, else None.

    ``is_atomic`` lets through a continuous part of mass below 1e-12, which
    can still hold a first moment that matters: MP(1e13) puts its 1e-13 of
    bulk near 1e13, so its mean is 1.  Dropping such a part loses the
    mean, and a quadrature on its grid resolves nothing at the scale of
    the atom.  So a continuous part whose first moment exceeds
    ``1e-12 (1 + |atom|)`` raises TransformError naming the law ``name``.
    """
    if not (density.is_atomic and len(density.atoms) == 1):
        return None
    loc = density.atoms[0][0]
    if density.grid.size >= 2:
        first = float(np.trapezoid(density.grid * density.density,
                                   density.grid))
        if abs(first) > 1e-12 * (1 + abs(loc)):
            raise TransformError(
                f"{name} is one atom at {loc:.6g} plus a continuous part of "
                f"mass {density.continuous_mass():.3g} and first moment "
                f"{first:.6g}, too light to resolve and too heavy to drop")
    return loc


# ---------------------------------------------------------------------------
# Resolvent

def resolvent(density: SpectralDensity, z: complex) -> complex:
    """G(z) = int rho(x)/(z-x) dx + sum_k m_k/(z-x_k) by grid quadrature."""
    z = complex(z)
    _check_off_support(density, z)
    return complex(_cauchy(*_nodes(density), z))


def _check_off_support(density: SpectralDensity, z: complex) -> None:
    if abs(z.imag) > 1e-12:
        return
    x = z.real
    for loc, mass in density.atoms:
        if abs(x - loc) < 1e-12:
            raise PoleOnSupportError("pole on support")
    if density.grid.size >= 2:
        lo, hi = density.grid[0], density.grid[-1]
        if lo <= x <= hi and density.interpolate(x) > 1e-12:
            raise PoleOnSupportError("pole on support")


# ---------------------------------------------------------------------------
# Blue function and friends

def blue(density: SpectralDensity, w: complex) -> complex:
    """Functional inverse of the resolvent: the z with G(z) = w.

    Guarded Newton steps on ``G(z) = w`` run through ``_subordinate``.
    Complex w starts from ``1/w + mean``, which lies in the half-plane of
    the root.  The quadrature sum has spurious real roots between its poles,
    so each step is clamped to ``0.3(|z| + 0.1)`` and then halved until it
    stays in that half-plane.  A complex root closer to the support than the
    local grid step is a root of the quadrature sum, not of G, and raises
    ``ConvergenceError``.

    Real w raises ``ConvergenceError`` when G at ``hi + delta`` (w > 0) or
    ``lo - delta`` (w < 0) does not reach w (beyond the fold point).  As
    ``1/(z - lo) <= G(z) <= 1/(z - hi)`` above the support, it starts at
    ``max(hi + delta, lo + 1/w)`` or ``min(lo - delta, hi + 1/w)``, on the
    support's side of the root.  There G = sum_k c_k/(z - x_k), c_k > 0,
    is decreasing and convex (below it, decreasing and concave), so each
    Newton step stays real and short of the root, and the clamp only
    shortens it: the iterates approach the root monotonically and never
    enter the support.
    """
    w = complex(w)
    if w == 0:
        raise TransformError("Blue function diverges at w = 0")
    loc = _lone_atom(density, "blue's law")
    if loc is not None:
        # G(z) = 1/(z - m) inverts in closed form
        return loc + 1.0 / w
    xk, ck = _nodes(density)
    if abs(w.imag) <= 1e-12 * abs(w.real):
        w = w.real
        lo, hi = density.support()
        if density.grid.size:
            lo = min(lo, float(density.grid[0]))
            hi = max(hi, float(density.grid[-1]))
        delta = 1e-9 * max(hi - lo, 1e-12)
        edge, side = (hi + delta, "+") if w > 0 else (lo - delta, "-")
        g_edge = _cauchy(xk, ck, edge).real
        if (g_edge - w) * np.sign(w) <= 0:
            raise ConvergenceError(
                f"no z with G(z) = {w:.6g}: beyond the fold point "
                f"G(edge{side}) = {g_edge:.6g}")
        start = np.array([max(edge, lo + 1.0 / w) if w > 0
                          else min(edge, hi + 1.0 / w)], dtype=complex)
    else:
        start = np.array([1.0 / w + density.mean()])

    def newton(z, _):
        # z - (G(z) - w)/G'(z), with G' = -sum_k c_k/(z - x_k)^2; the map
        # reads its own image
        d = 1.0 / (z[:, None] - xk)
        step = (_cauchy(xk, ck, z) - w) / ((d * d) @ ck)
        limit = 0.3 * (np.abs(z) + 0.1)
        step *= limit / np.fmax(np.abs(step), limit)
        out = np.sign((z + step).imag) != np.sign(z.imag)
        if out.any():
            step[out] *= _halving(np.abs(step.imag[out]), np.abs(z.imag[out]))
        z = z + step
        return z, z

    z = complex(_subordinate(newton, start, start.real, "blue")[0])
    # closer to the support than one grid step, the quadrature sum has roots
    # among its poles that G itself does not have: w has no preimage there
    x, grid = z.real, density.grid
    if grid.size >= 2 and grid[0] <= x <= grid[-1]:
        i = min(max(int(np.searchsorted(grid, x)), 1), grid.size - 1)
        if (abs(z.imag) < grid[i] - grid[i - 1]
                and density.interpolate(x) > 1e-12):
            raise ConvergenceError(
                f"no z off the support with G(z) = {w:.6g}: the root "
                f"{z:.6g} lies within one grid step of the support")
    return z


def r_transform(density: SpectralDensity, w: complex) -> complex:
    """R(w) = B(w) - 1/w; R(0+) is the mean (first free cumulant)."""
    w = complex(w)
    return blue(density, w) - 1.0 / w


# ---------------------------------------------------------------------------
# S-transform

def s_transform(density: SpectralDensity, w: complex) -> complex:
    """S(w) = (1+w)/w * psi^{-1}(w), the multiplicative free transform.

    Defined for densities on [0, inf) with non-zero mean m.  With
    nu(dx) = x rho(dx)/m the size-biased law, psi(1/z) = m G_nu(z), so
    psi^{-1}(w) = 1/B_nu(w/m) and S(w) = (1+w)/w / B_nu(w/m).  On the
    principal branch psi maps y < 0 onto (-(1 - rho({0})), 0); real w at or
    below that bound raise ConvergenceError.

    Equivalent to the eta-transform formulation S(w) = -((1+w)/w)
    eta^{-1}(1+w) with eta(y) = -(1/y) G(-1/y); the sign placement here makes
    S(atom at c) = 1/c.
    """
    w = complex(w)
    if w == 0:
        raise TransformError("S-transform is defined for w != 0")
    mean = density.mean()
    if abs(mean) < 1e-14:
        raise TransformError("S-transform requires a density with non-zero mean")
    loc = _lone_atom(density, "s_transform's law")
    if loc is not None:
        return 1.0 / loc
    if density.support()[0] < 0:
        raise TransformError("S-transform requires non-negative support")
    floor = sum(m for loc, m in density.atoms if loc == 0.0) - 1.0
    if abs(w.imag) <= 1e-12 * abs(w.real) and w.real <= floor:
        raise ConvergenceError(
            f"no y with psi(y) = {w.real:.6g}: psi maps y < 0 onto "
            f"({floor:.6g}, 0)")
    nu = SpectralDensity(
        density.grid, density.grid * density.density / mean,
        tuple((loc, loc * m / mean) for loc, m in density.atoms))
    return (1.0 + w) / w / blue(nu, w / mean)


# ---------------------------------------------------------------------------
# Free convolutions by subordination

def _pchip(x, xp, fp):
    """The monotone cubic through (xp, fp) at x, xp increasing and x in
    [xp[0], xp[-1]] (Fritsch & Carlson, SIAM J. Numer. Anal. 17, 1980).

    Interior slopes are Fritsch & Butland's weighted harmonic mean of the
    two adjacent secants (SIAM J. Sci. Stat. Comput. 5, 1984), 0 where they
    differ in sign or one is 0; the end slopes take SciPy's three-point
    rule, so ``scipy.interpolate.PchipInterpolator`` agrees.  Each interval
    then stays between its two end values.  Each row of a 2-D ``fp`` takes
    its own cubic; fewer than 3 points, or a row not all finite, fall back
    to ``np.interp``.
    """
    def interp(rows):
        return np.apply_along_axis(lambda r: np.interp(x, xp, r), -1, rows)
    if xp.size < 3:
        return interp(fp)
    h = np.diff(xp)
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    d = np.zeros_like(fp)
    with np.errstate(all="ignore"):  # rows not all finite are redone below
        m = np.diff(fp) / h
        ml, mr = m[..., :-1], m[..., 1:]
        np.divide(w1 + w2, w1 / ml + w2 / mr, out=d[..., 1:-1],
                  where=np.sign(ml) * np.sign(mr) > 0)
        for i, j in ((0, 1), (-1, -2)):  # each end and its neighbour
            mi, mj = m[..., i], m[..., j]
            e = ((2 * h[i] + h[j]) * mi - h[i] * mj) / (h[i] + h[j])
            d[..., i] = np.where(np.sign(e) != np.sign(mi), 0.0, np.where(
                (np.sign(mi) != np.sign(mj)) & (np.abs(e) > 3 * np.abs(mi)),
                3 * mi, e))
        # Hermite cubic on each interval, in powers of s = x - xp[k]
        t = (d[..., :-1] + d[..., 1:] - 2 * m) / h
        c2, c3 = (m - d[..., :-1]) / h - t, t / h
        k = np.clip(np.searchsorted(xp, x, side="right") - 1, 0, h.size - 1)
        s = x - xp[k]
        out = fp[..., k] + s * (d[..., k] + s * (c2[..., k] + s * c3[..., k]))
    bad = ~np.isfinite(fp).all(axis=-1)
    return np.where(bad[..., None], interp(fp), out) if bad.any() else out


def _subordinate(f, z, grid, name):
    """Fixed point of w <- f(w, z) at every z, in stages of halving grid
    stride, and the reading the map takes on its way there.

    ``f(w, z)`` returns ``(image, reading)``: the map's image and a value
    it computed at w, such as G_a(w) for ``free_add``.  The iterates use
    the image alone.  The call returns each point's reading from its last
    evaluation, at the last iterate w_k, whose distance to the fixed point
    the stop below bounds; ``blue``'s map reads its own image f(w_k).

    ``grid``, the lambda of each z, must increase.  The first stage
    iterates every ``COARSE_STRIDE``-th point and the last from w = z;
    each later stage halves the stride and iterates the points it adds,
    down to 1 (``blue``'s single point takes the first stage alone).  A
    new point starts from all solved fixed points, interpolated in lambda
    by the monotone cubic ``_pchip`` (real and imaginary parts apart).  Its
    imaginary part then lies between two solved ones, so the start stays
    in the half-plane that the map sends into itself and converges from
    (Belinschi & Bercovici); a 4-point cubic can leave it.  Each solved
    point keeps the last ``rho_k`` (below) it measured, the map's
    derivative at its fixed point; a new point's first step is the secant
    step on the same cubic of that rho, unless its start's residual is
    already at ``ROUNDING_TOL``.  Every stop waits for a measured rho_k.

    Each sweep evaluates the map at every point still moving.  A point's
    next iterate is the secant step ``w_k + r_k / (1 - rho_k)`` on
    ``r = f(w) - w`` (Aitken's step, Anderson mixing of depth one; the step
    ``estimators.student_ml`` takes on its weights), with
    ``rho_k = (f(w_k) - f(w_{k-1})) / (w_k - w_{k-1})`` the map's observed
    derivative, where ``|rho_k| < 1`` and the step stays within
    ``|Im w_k| / 2`` of w_k, which keeps it at a bounded hyperbolic
    distance inside the half-plane; elsewhere it is the image f(w_k).

    A point stops once ``|r_k| / (1 - |rho_k|) <= NEWTON_TOL (1 + |f(w_k)|)``,
    a bound on its distance to the fixed point where the map contracts by
    |rho_k|; the ratio of successive steps would not do, as secant steps
    shrink them faster than the map contracts.  It also stops once its last
    two steps are both at most ``ROUNDING_TOL (1 + |f(w_k)|)``: within
    rounding of the fixed point rho_k is a ratio of rounding errors, and may
    read |rho_k| >= 1.

    Logs one DEBUG record on the ``rmtkit.transforms`` logger: caller,
    points, stages, sweeps (the most map evaluations any one point took),
    evaluations (over all points), secant steps, rounding stops, the worst
    point's lambda and its relative bound (its relative last step for a
    rounding stop), seconds.  Raises ConvergenceError when any point is
    still moving after MAX_SWEEPS sweeps of its stage.
    """
    started = time.perf_counter()
    stats = dict(caller=name, points=z.size, stages=0, sweeps=0,
                 evaluations=0, secant_steps=0, rounding_stops=0,
                 worst_lambda=np.nan, bound=0.0)
    w, reading = np.empty_like(z), np.empty_like(z)
    rho = np.full_like(z, np.nan)  # no estimate opens the first stage
    solved = np.zeros(z.size, dtype=bool)
    n, stride = np.arange(z.size), COARSE_STRIDE
    while not solved.all():
        idx = np.flatnonzero(((n % stride == 0) | (n == n[-1])) & ~solved)
        stride //= 2
        if idx.size:
            wa = z[idx]
            if solved.any():
                wr, wi, rr, ri = _pchip(grid[idx], grid[solved], np.stack(
                    [w.real, w.imag, rho.real, rho.imag])[:, solved])
                wa, rho[idx] = wr + 1j * wi, rr + 1j * ri
            stats["stages"] += 1
            _iterate(f, wa, z, idx, grid, w, reading, rho, stats, started)
            solved[idx] = True
    _log_subordinate(stats, started)
    return reading


def _iterate(f, wa, z, idx, grid, w, reading, rho, stats, started):
    """One stage of ``_subordinate``: iterate the points ``idx`` of z from
    ``wa``, write each one's last image f(w_k) into ``w``, the reading of
    that evaluation into ``reading`` and its last measured rho into
    ``rho``, and add to ``stats``.  The first sweep, which has no
    measured rho, takes its secant step on the estimate ``rho[idx]`` (NaN
    for none), except where the start is already at rounding level."""
    za = z[idx]
    # dw_prev = w_k - w_{k-1} and fp = f(w_{k-1}): NaN until two sweeps
    # have run, which blocks both stops
    fp = dw_prev = np.full(idx.size, np.nan, dtype=complex)
    for sweep in range(1, MAX_SWEEPS + 1):
        stats["evaluations"] += idx.size
        fa, ra = f(wa, za)
        r = fa - wa
        size = np.abs(r)
        scale = 1 + np.abs(fa)
        nxt, dw = fa, r
        with np.errstate(divide="ignore", invalid="ignore"):
            rho_k = (fa - fp) / dw_prev
            a = np.abs(rho_k)
            bounded = size <= NEWTON_TOL * scale * np.fmax(1 - a, 0)
            rounding = ((size <= ROUNDING_TOL * scale)
                        & (np.abs(dw_prev) <= ROUNDING_TOL * scale))
            done = bounded | rounding
            # secant steps where |rho| < 1, within |Im w|/2 of w; the
            # first sweep, with no rho_k yet, steps on the estimate
            secant = rho_k if sweep > 1 else np.where(
                size > ROUNDING_TOL * scale, rho[idx], np.nan)
            step = r / (1 - secant)
            sel = np.flatnonzero((np.abs(secant) < 1) & ~done
                                 & (np.abs(step) < 0.5 * np.abs(wa.imag)))
            if sel.size:
                nxt, dw = fa.copy(), r.copy()
                nxt[sel] = wa[sel] + step[sel]
                dw[sel] = step[sel]
                stats["secant_steps"] += sel.size
        if done.any():
            d = np.flatnonzero(done)
            w[idx[d]] = fa[d]
            reading[idx[d]] = ra[d]
            rho[idx[d]] = rho_k[d]
            # each stopped point's bound relative to the tolerance's scale;
            # a bounded stop with r != 0 has 1 - |rho| > 0
            rel = size[d] / scale[d]
            np.divide(rel, 1 - a[d], out=rel, where=bounded[d] & (rel > 0))
            worst = int(np.argmax(rel))
            if rel[worst] >= stats["bound"]:
                stats.update(bound=float(rel[worst]),
                             worst_lambda=float(grid[idx[d[worst]]]))
            stats["rounding_stops"] += int(np.count_nonzero(
                rounding[d] & ~bounded[d]))
            k = np.flatnonzero(~done)
            if not k.size:
                stats["sweeps"] = max(stats["sweeps"], sweep)
                return
            idx, za, nxt, dw, fa = (v.take(k) for v in (idx, za, nxt, dw, fa))
        wa, fp, dw_prev = nxt, fa, dw
    stats.update(sweeps=MAX_SWEEPS, unconverged=idx.size, bound=np.inf,
                 worst_lambda=float(grid[idx[0]]))
    _log_subordinate(stats, started)
    raise ConvergenceError(
        f"{stats['caller']}: {idx.size} grid points unconverged after "
        f"{MAX_SWEEPS} sweeps, first lambda={grid[idx[0]]:.6g}")


def _log_subordinate(stats, started):
    stats["seconds"] = time.perf_counter() - started
    logger.debug("subordinate: caller=%(caller)s points=%(points)d "
                 "stages=%(stages)d sweeps=%(sweeps)d "
                 "evaluations=%(evaluations)d secant_steps=%(secant_steps)d "
                 "rounding_stops=%(rounding_stops)d "
                 "worst_lambda=%(worst_lambda).6g bound=%(bound).3e "
                 "seconds=%(seconds).3f", stats)


def _halving(m, h):
    """2^-j, j the least with m 2^-j < h (m >= h > 0, elementwise): the
    halvings that bring the guarded Newton steps of ``blue`` below their
    bound.  With m = fm 2^em and h = fh 2^eh (frexp),
    j = em - eh + (fm >= fh)."""
    (fm, em), (fh, eh) = np.frexp(m), np.frexp(h)
    return np.ldexp(1.0, eh - em - (fm >= fh))


def free_add(a: SpectralDensity, b: SpectralDensity) -> SpectralDensity:
    """Density whose R-transform is R_a + R_b (free additive convolution).

    G_{a+b}(z) = G_a(w), where w is the fixed point of
    w <- z + h_b(z + h_a(w)) with h = 1/G - id.  G_a(w) is the map's first
    quadrature; the density is read off it at each point's last iterate.
    """
    loc = _lone_atom(a, "free_add's a")
    if loc is not None:
        return b.shifted(loc)
    loc = _lone_atom(b, "free_add's b")
    if loc is not None:
        return a.shifted(loc)

    (xa, ca), (xb, cb) = _nodes(a), _nodes(b)

    def h(g, w):
        # 1/G - id at w, from g = G(w)
        return 1.0 / g - w

    def f(w, z):
        g = _cauchy(xa, ca, w)
        v = z + h(g, w)
        return z + h(_cauchy(xb, cb, v), v), g

    lo_a, hi_a = a.support()
    lo_b, hi_b = b.support()
    lo, hi = lo_a + lo_b, hi_a + hi_b
    grid = np.linspace(lo, hi, GRID_POINTS)
    z = grid - 1j * 1e-4 * (hi - lo)
    rho = _subordinate(f, z, grid, "free_add").imag / np.pi
    return SpectralDensity.from_unnormalized(grid, rho)


def free_multiply(a: SpectralDensity, b: SpectralDensity) -> SpectralDensity:
    """Density whose S-transform is S_a * S_b (free multiplicative convolution).

    Subordination (see ``_product``) on a grid from
    ``lo = max(1e-9, lo_a lo_b / 4)`` to ``hi = 1.3 hi_a hi_b``.  Most of
    the product lies below the image of either factor's bulk, so the grid
    is even up to ``bulk_hi = min(hi, 1.3 q95(a) hi_b, 1.3 hi_a q95(b))``,
    q95 the 95% quantile, and a sparse geometric tail of ``GRID_POINTS // 5``
    points stretches from there to hi; ``eps = 1e-4 (bulk_hi - lo)``.
    """
    for d in (a, b):
        if d.support()[0] < -1e-10:
            raise TransformError(
                "free multiplication requires non-negative matrices")
    loc = _lone_atom(a, "free_multiply's a")
    if loc is not None:
        return b.scaled(loc)
    loc = _lone_atom(b, "free_multiply's b")
    if loc is not None:
        return a.scaled(loc)
    lo_a, hi_a = a.support()
    lo_b, hi_b = b.support()
    lo = max(1e-9, 0.25 * lo_a * lo_b)
    hi = 1.3 * hi_a * hi_b
    bulk_hi = min(hi, 1.3 * _quantile(a, 0.95) * hi_b,
                  1.3 * hi_a * _quantile(b, 0.95))
    n_tail = GRID_POINTS // 5 if bulk_hi < hi else 0
    grid = np.concatenate([
        np.linspace(lo, bulk_hi, GRID_POINTS - n_tail, endpoint=not n_tail),
        np.geomspace(bulk_hi, hi, n_tail)])
    return _product(a, b, grid, 1e-4 * (bulk_hi - lo), "free_multiply")


def _quantile(dens: SpectralDensity, p: float) -> float:
    """First grid point at which the cumulative mass reaches p."""
    if dens.grid.size < 2:
        return dens.support()[1]
    cum = np.concatenate([[0.0], np.cumsum(
        0.5 * (dens.density[1:] + dens.density[:-1]) * np.diff(dens.grid))])
    for loc, m in dens.atoms:
        cum += m * (dens.grid >= loc)
    k = np.searchsorted(cum, p * dens.mass())
    return float(dens.grid[min(k, dens.grid.size - 1)])


def _product(a: SpectralDensity, b: SpectralDensity, grid, eps: float,
             name: str) -> SpectralDensity:
    """Free product a (x) b read on ``grid - i*eps``, eps a scalar or one
    value per grid point; ``name``, the caller, labels the DEBUG record of
    ``_subordinate``.

    With y = 1/z, psi_{ab}(y) = psi_a(w), where w is the fixed point of
    w <- y * h_b(y * h_a(w)) with h = eta/id and eta = psi/(1 + psi);
    then G_{ab}(z) = y * (1 + psi_a(w)), with psi_a(w) the map's first
    quadrature at each point's last iterate: psi(w) = sum_k c_k x_k w /
    (1 - x_k w), the Cauchy sum of the size-biased weights ``x c`` at 1/w
    with no cancellation.  The product holds an atom at zero of mass m0 =
    max(a({0}), b({0})); its part m0 * y of G is taken out before the
    density is read.
    """
    (xa, ca), (xb, cb) = _nodes(a), _nodes(b)
    ca, cb = xa * ca, xb * cb  # size-biased

    def h(p, w):
        # eta/id at w, from p = psi(w)
        return p / ((1.0 + p) * w)

    def f(w, y):
        p = _cauchy(xa, ca, 1.0 / w)
        v = y * h(p, w)
        return y * h(_cauchy(xb, cb, 1.0 / v), v), p

    y = 1.0 / (grid - 1j * eps)
    psi = _subordinate(f, y, grid, name)
    m0 = max(sum(m for loc, m in d.atoms if loc == 0.0) for d in (a, b))
    rho = (y * (1.0 + psi - m0)).imag / np.pi
    return SpectralDensity.from_unnormalized(grid, rho, ((0.0, m0),))
