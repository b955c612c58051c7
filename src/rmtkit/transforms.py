"""Numerical free-probability engine.

Resolvent (Stieltjes transform), its functional inverse (Blue function),
R- and S-transforms, location of spectrum edges from stationary points of the
Blue function, and free additive/multiplicative convolution by subordination
(Belinschi & Bercovici, J. Anal. Math. 101, 2007): one fixed point per grid
point, iterated over the whole grid at once, with guarded secant steps, from
forward evaluations of the Cauchy transform or of psi alone; both come from
one real-arithmetic quadrature, ``_cauchy``.  One inversion engine,
``blue``, serves both inverse transforms: S inverts psi through ``blue`` of
the size-biased law.

Conventions: densities are evaluated on the line ``z = lambda - i*eps`` with
small ``eps > 0``; on that line ``Im G > 0`` and ``rho = Im G / pi``.  For
``z`` in the upper half-plane ``Im G < 0``.
"""

from __future__ import annotations

import logging
import time

import numpy as np
from scipy.optimize import brentq

from .density import SpectralDensity

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
    "spectrum_edges",
]

logger = logging.getLogger(__name__)

NEWTON_TOL = 1e-12
# Subordination sweeps before giving up.  The free convolutions of the tests
# need at most 44; inputs made only of atoms contract at a rate of
# 1 - O(eps), with Im w so small that the disc of ``_subordinate`` refuses
# most secant steps, and hit the cap.
MAX_SWEEPS = 2000
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


def _psi(x, c, y):
    """psi(y) = sum_k c_k x_k y/(1 - x_k y) at every y.

    Each term is x_k c_k / (1/y - x_k): the Cauchy sum of the size-biased
    weights ``x c`` at ``1/y``, with no cancellation.
    """
    return _cauchy(x, x * c, 1.0 / np.asarray(y, dtype=complex))


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

    Real w is solved by bracketed root-finding on the physical branch outside
    the support (G is monotone there).  Complex w runs guarded Newton steps
    on ``G(z) = w`` through ``_subordinate`` from ``1/w + mean``, which lies
    in the half-plane of the root.  The quadrature sum has spurious real
    roots between its poles, so each step is clamped to ``0.3(|z| + 0.1)``
    and then halved until it stays in that half-plane.  A complex root
    closer to the support than the local grid step is a root of the
    quadrature sum, not of G, and raises ``ConvergenceError``.
    """
    w = complex(w)
    if w == 0:
        raise TransformError("Blue function diverges at w = 0")
    if density.is_atomic and len(density.atoms) == 1:
        # G(z) = 1/(z - m) inverts in closed form
        return density.atoms[0][0] + 1.0 / w
    xk, ck = _nodes(density)
    if abs(w.imag) <= 1e-12 * abs(w.real):
        return complex(_blue_real(density, xk, ck, w.real))

    def newton(z, _):
        # z - (G(z) - w)/G'(z), with G' = -sum_k c_k/(z - x_k)^2
        d = 1.0 / (z[:, None] - xk)
        step = (_cauchy(xk, ck, z) - w) / ((d * d) @ ck)
        limit = 0.3 * (np.abs(z) + 0.1)
        step *= limit / np.fmax(np.abs(step), limit)
        # halve j times, j the least with |Im step| 2^-j < |Im z|: with
        # |Im step| = fm 2^em and |Im z| = fh 2^eh (frexp), that is
        # j = em - eh + (fm >= fh)
        out = np.sign((z + step).imag) != np.sign(z.imag)
        if out.any():
            (fm, em), (fh, eh) = (np.frexp(np.abs(v.imag[out]))
                                  for v in (step, z))
            step[out] *= np.ldexp(1.0, eh - em - (fm >= fh))
        return z + step

    start = np.array([1.0 / w + density.mean()])
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


def _blue_real(density: SpectralDensity, x, c, w: float) -> float:
    """The real z outside the support with G(z) = w; ``x, c`` are the
    nodes of ``density``."""
    def g(z):
        return _cauchy(x, c, z).real

    lo, hi = density.support()
    if density.grid.size:
        lo = min(lo, float(density.grid[0]))
        hi = max(hi, float(density.grid[-1]))
    span = max(hi - lo, 1e-12)
    delta = 1e-9 * span
    if w > 0:
        a = hi + delta
        g_a = g(a)
        if g_a <= w:
            raise ConvergenceError(
                f"no z with G(z) = {w:.6g}: beyond the fold point "
                f"G(edge+) = {g_a:.6g}")
        b = hi + max(2.0 / w, span)
    else:
        a = lo - delta
        g_a = g(a)
        if g_a >= w:
            raise ConvergenceError(
                f"no z with G(z) = {w:.6g}: beyond the fold point "
                f"G(edge-) = {g_a:.6g}")
        b = lo - max(-2.0 / w, span)
    # |G(z)| <= 1/dist(z, [lo, hi]) for a probability measure, so G(b) lies
    # between 0 and w/2 at these b: [a, b] always brackets the root.
    return brentq(lambda z: g(z) - w, a, b, xtol=1e-14, rtol=8.9e-16)


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
    if density.is_atomic and len(density.atoms) == 1:
        return 1.0 / density.atoms[0][0]
    mean = density.mean()
    if abs(mean) < 1e-14:
        raise TransformError("S-transform requires a density with non-zero mean")
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
# Spectrum edges

def spectrum_edges(blue_fn, w_scan=None, h: float = 1e-6):
    """Edges (lambda_minus, lambda_plus) = B at real stationary points of B.

    Stationary points are found by scanning B'(w) (central differences, step
    ``h`` scaled by |w|) for sign changes on both sides of w = 0 and refining
    with Brent's method.
    """
    def deriv(w):
        step = h * (1.0 + abs(w))
        try:
            return (_real(blue_fn(w + step)) - _real(blue_fn(w - step))) / (2 * step)
        except TransformError:
            return np.nan

    if w_scan is None:
        mags = np.logspace(-4, 3, 600)
        w_scan = np.concatenate([-mags[::-1], mags])

    edges = []
    prev_w, prev_d = None, None
    for w in w_scan:
        d = deriv(w)
        if not np.isfinite(d):
            prev_w, prev_d = None, None
            continue
        if prev_d is not None and np.sign(d) != np.sign(prev_d) and prev_d != 0:
            try:
                w_star = brentq(deriv, prev_w, w, xtol=1e-14)
                lam = _real(blue_fn(w_star))
                if np.isfinite(lam):
                    edges.append(lam)
            except (ValueError, TransformError):
                pass
        prev_w, prev_d = w, d

    edges = sorted(set(round(e, 9) for e in edges))
    if len(edges) < 2:
        raise TransformError(
            "fewer than two stationary points: one-sided or unbounded "
            f"support (found {edges})")
    return edges[0], edges[-1]


def _real(z) -> float:
    z = complex(z)
    if abs(z.imag) > 1e-6 * (1.0 + abs(z.real)):
        return np.nan
    return z.real


# ---------------------------------------------------------------------------
# Free convolutions by subordination

def _subordinate(f, z, grid, name):
    """Fixed point of w <- f(w, z) at every z, started at w = z.

    Each sweep evaluates the map at every point still moving.  A point's
    next iterate is the map's image f(w_k), or the secant step
    ``w_k + r_k / (1 - rho_k)`` on ``r = f(w) - w`` (Aitken's step, Anderson
    mixing of depth one) where the map's observed derivative
    ``rho_k = (f(w_k) - f(w_{k-1})) / (w_k - w_{k-1})`` has settled:
    ``|rho_k| < 1`` and ``|rho_k - rho_{k-1}| < 0.1 |rho_k|``, and where
    the step stays within ``|Im w_k| / 2`` of w_k.  Every map here sends the
    half-plane of z into itself, and that disc keeps the step at a bounded
    hyperbolic distance inside it.  A map whose rho does not settle, such as
    the damped Newton step of ``spectra.ewma_density``, runs as a plain
    fixed point.

    A point stops once ``|r_k| / (1 - |rho_k|) <= NEWTON_TOL (1 + |f(w_k)|)``,
    a bound on its distance to the fixed point where the map contracts by
    |rho_k|; the ratio of successive steps would not do, as secant steps
    shrink them faster than the map contracts.  It returns the map's own
    image f(w_k).  Logs one DEBUG record on the ``rmtkit.transforms`` logger
    (caller, points, sweeps, secant steps, the worst point's lambda and its
    relative bound, seconds); raises ConvergenceError when any point is
    still moving after MAX_SWEEPS sweeps.
    """
    started = time.perf_counter()
    stats = dict(caller=name, points=z.size, sweeps=0, secant_steps=0,
                 worst_lambda=np.nan, bound=np.inf)
    w = np.empty_like(z)
    idx = np.arange(z.size)
    # dw_prev = w_k - w_{k-1}, fp = f(w_{k-1}) and rp = rho_{k-1}: NaN until
    # two sweeps have run, which blocks both the stop and the secant step
    za, wa = z, z.copy()
    fp = dw_prev = rp = np.full(z.size, np.nan, dtype=complex)
    for sweep in range(1, MAX_SWEEPS + 1):
        fa = f(wa, za)
        r = fa - wa
        size = np.abs(r)
        scale = 1 + np.abs(fa)
        nxt, dw = fa, r
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = (fa - fp) / dw_prev
            a = np.abs(rho)
            done = size <= NEWTON_TOL * scale * np.fmax(1 - a, 0)
            # secant steps where rho has settled, within |Im w|/2 of w
            sel = np.flatnonzero(np.abs(rho - rp) < 0.1 * a)
            if sel.size:
                step = r[sel] / (1 - rho[sel])
                ok = ((np.abs(step) < 0.5 * np.abs(wa.imag[sel]))
                      & (a[sel] < 1) & ~done[sel])
                if ok.any():
                    sel, step = sel[ok], step[ok]
                    nxt, dw = fa.copy(), r.copy()
                    nxt[sel] = wa[sel] + step
                    dw[sel] = step
                    stats["secant_steps"] += sel.size
        if done.any():
            d = np.flatnonzero(done)
            w[idx[d]] = fa[d]
            k = np.flatnonzero(~done)
            if not k.size:
                # the worst point finished last; its bound, relative to the
                # tolerance's scale (a done point has 1 - |rho| > 0 or r = 0)
                rel = np.divide(size, scale * (1 - a),
                                out=np.zeros_like(size), where=size > 0)
                worst = int(np.argmax(rel))
                stats.update(sweeps=sweep, bound=float(rel[worst]),
                             worst_lambda=float(grid[idx[worst]]))
                _log_subordinate(stats, started)
                return w
            idx, za, nxt, dw, fa, rho = (
                v.take(k) for v in (idx, za, nxt, dw, fa, rho))
        wa, fp, dw_prev, rp = nxt, fa, dw, rho
    stats.update(sweeps=MAX_SWEEPS, unconverged=idx.size,
                 worst_lambda=float(grid[idx[0]]))
    _log_subordinate(stats, started)
    raise ConvergenceError(
        f"{name}: {idx.size} grid points unconverged after {MAX_SWEEPS} "
        f"sweeps, first lambda={grid[idx[0]]:.6g}")


def _log_subordinate(stats, started):
    stats["seconds"] = time.perf_counter() - started
    logger.debug("subordinate: caller=%(caller)s points=%(points)d "
                 "sweeps=%(sweeps)d secant_steps=%(secant_steps)d "
                 "worst_lambda=%(worst_lambda).6g bound=%(bound).3e "
                 "seconds=%(seconds).3f", stats)


def free_add(a: SpectralDensity, b: SpectralDensity,
             npoints: int = 2000) -> SpectralDensity:
    """Density whose R-transform is R_a + R_b (free additive convolution).

    G_{a+b}(z) = G_a(w), where w is the fixed point of
    w <- z + h_b(z + h_a(w)) with h = 1/G - id.
    """
    if a.is_atomic and len(a.atoms) == 1:
        return b.shifted(a.atoms[0][0])
    if b.is_atomic and len(b.atoms) == 1:
        return a.shifted(b.atoms[0][0])

    (xa, ca), (xb, cb) = _nodes(a), _nodes(b)

    def h(x, c, w):
        return 1.0 / _cauchy(x, c, w) - w

    lo_a, hi_a = a.support()
    lo_b, hi_b = b.support()
    lo, hi = lo_a + lo_b, hi_a + hi_b
    grid = np.linspace(lo, hi, npoints)
    z = grid - 1j * 1e-4 * (hi - lo)
    w = _subordinate(lambda w, z: z + h(xb, cb, z + h(xa, ca, w)), z, grid,
                     "free_add")
    rho = _cauchy(xa, ca, w).imag / np.pi
    return SpectralDensity.from_unnormalized(grid, rho)


def free_multiply(a: SpectralDensity, b: SpectralDensity,
                  npoints: int = 2000) -> SpectralDensity:
    """Density whose S-transform is S_a * S_b (free multiplicative convolution).

    Subordination (see ``_product``) on an even grid of ``npoints`` over
    [lo_a lo_b / 2, 1.1 hi_a hi_b].
    """
    for d in (a, b):
        if d.support()[0] < -1e-10:
            raise TransformError(
                "free multiplication requires non-negative matrices")
    lo_a, hi_a = a.support()
    lo_b, hi_b = b.support()
    lo = max(lo_a * lo_b * 0.5, 0.0)
    hi = hi_a * hi_b * 1.1 + 1e-9
    return _product(a, b, np.linspace(lo, hi, npoints), 1e-4 * (hi - lo),
                    "free_multiply")


def _product(a: SpectralDensity, b: SpectralDensity, grid, eps: float,
             name: str) -> SpectralDensity:
    """Free product a (x) b read on ``grid - i*eps``, eps a scalar or one
    value per grid point; ``name``, the caller, labels the DEBUG record of
    ``_subordinate``.

    With y = 1/z, psi_{ab}(y) = psi_a(w), where w is the fixed point of
    w <- y * h_b(y * h_a(w)) with h = eta/id and eta = psi/(1 + psi);
    then G_{ab}(z) = y * (1 + psi_a(w)).  The product holds an atom at zero
    of mass m0 = max(a({0}), b({0})); its part m0 * y of G is taken out
    before the density is read.
    """
    if a.is_atomic and len(a.atoms) == 1:
        return b.scaled(a.atoms[0][0])
    if b.is_atomic and len(b.atoms) == 1:
        return a.scaled(b.atoms[0][0])

    (xa, ca), (xb, cb) = _nodes(a), _nodes(b)

    def h(x, c, w):
        p = _psi(x, c, w)
        return p / ((1.0 + p) * w)

    y = 1.0 / (grid - 1j * eps)
    w = _subordinate(lambda w, y: y * h(xb, cb, y * h(xa, ca, w)), y, grid,
                     name)
    m0 = max(sum(m for loc, m in d.atoms if loc == 0.0) for d in (a, b))
    rho = (y * (1.0 + _psi(xa, ca, w) - m0)).imag / np.pi
    return SpectralDensity.from_unnormalized(grid, rho, ((0.0, m0),))
