"""Closed-form and self-consistent asymptotic eigenvalue/singular-value
densities: Marcenko-Pastur, EWMA, general-prior dressed spectra, the elliptic
(common stochastic volatility) ensemble, power-law priors and the random-SVD
null benchmark.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.special import (gammainccinv, gammaincinv, gammaln, lambertw,
                           roots_legendre)

from . import transforms
from .density import GRID_POINTS, SpectralDensity
from .transforms import ConvergenceError

__all__ = [
    "PowerLawPrior",
    "mp_density",
    "mp_edges",
    "wigner_semicircle",
    "ewma_density",
    "ewma_edges",
    "dressed_spectrum",
    "powerlaw_prior_density",
    "elliptic_student_density",
    "rsvd_benchmark",
    "rsvd_band",
]

log = logging.getLogger(__name__)

ATOM_Q = 1e-8  # below this q the densities collapse to an atom at 1
# largest distance of an EWMA density's mean from its exact value 1
EWMA_MEAN_TOL = 5e-3
PRIOR_TAIL_MASS = 1e-4  # tail mass beyond the power-law prior's truncation
ELLIPTIC_LAM_MAX = 1000.0  # upper end of the elliptic ensemble's grid
EIGENVALUE_FLOOR = 1e-8  # least eigenvalue of the power-law ladder


def _edge_grid(lo: float, hi: float, npoints: int) -> np.ndarray:
    """Grid clustered at both interval ends (square-root edge behaviour)."""
    u = np.linspace(0.0, np.pi, npoints)
    return lo + (hi - lo) * 0.5 * (1.0 - np.cos(u))


# ---------------------------------------------------------------------------
# Marcenko-Pastur

def mp_edges(q: float) -> tuple[float, float]:
    return (1.0 - np.sqrt(q)) ** 2, (1.0 + np.sqrt(q)) ** 2


def mp_density(q: float) -> SpectralDensity:
    """Marcenko-Pastur law at aspect ratio q = N/T.

    For q > 1 an atom of mass 1 - 1/q sits at zero.
    """
    if not 0 < q < np.inf:
        raise ValueError("q must be positive and finite")
    if q < ATOM_Q:
        return SpectralDensity.atom(1.0)
    lo, hi = mp_edges(q)
    grid = _edge_grid(lo, hi, GRID_POINTS)
    if not np.all(np.diff(grid) > 0):
        raise ValueError(f"q = {q:g} is too large: the {GRID_POINTS}-point "
                         "grid of its bulk is not strictly ascending")
    inner = np.clip(4.0 * grid * q - (grid + q - 1.0) ** 2, 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.sqrt(inner) / (2.0 * np.pi * grid * q)
    rho = np.nan_to_num(rho)
    # the bulk's mass min(1, 1/q), not 1 minus the atom's: that difference
    # rounds away at large q
    rho *= min(1.0, 1.0 / q) / np.trapezoid(rho, grid)
    atoms = ((0.0, 1.0 - 1.0 / q),) if q > 1 else ()
    return SpectralDensity(grid, rho, atoms)


def wigner_semicircle(sigma: float = 1.0) -> SpectralDensity:
    """Semicircle of variance sigma^2 on [-2 sigma, 2 sigma]."""
    r = 2.0 * sigma
    grid = _edge_grid(-r, r, GRID_POINTS)
    rho = np.sqrt(np.clip(r**2 - grid**2, 0.0, None)) / (2.0 * np.pi * sigma**2)
    return SpectralDensity.from_unnormalized(grid, rho)


# ---------------------------------------------------------------------------
# EWMA estimator spectrum

def ewma_edges(q: float) -> tuple[float, float]:
    """Edges of the EWMA spectrum, the two roots of lambda - log(lambda) =
    q + 1, in closed form: ``lambda = -W_k(-exp(-(q + 1)))`` with the
    Lambert W branch k = 0 for the lower edge and k = -1 for the upper."""
    if not 0 < q < np.inf:
        raise ValueError("q must be positive and finite")
    x = -np.exp(-(q + 1.0))
    return float(-lambertw(x, 0).real), float(-lambertw(x, -1).real)


def ewma_density(q: float) -> SpectralDensity:
    """Spectrum of the exponentially weighted estimator at q = N * epsilon.

    The resolvent solves ``z q G - q + log(1 - q G) = 0`` (Potters, Bouchaud
    & Laloux, Acta Phys. Pol. B 36, 2005).  With ``L = log(1 - q G)`` that
    reads ``L + z - q = z e^L``, so ``G = (z + W(-z e^(q - z)))/(q z)``
    with W the Lambert W function.  Inside the support the argument lies
    below -1/e, where W_0 is complex, and
    ``rho = |Im W_0(-lambda e^(q - lambda))| / (pi q lambda)``; at the two
    edges it is -1/e and rho is 0.  The grid is ``_edge_grid`` between the
    ``ewma_edges``.  The law has mean 1; a result whose mean is off by more
    than ``EWMA_MEAN_TOL`` raises ``ConvergenceError``.  That happens from
    q of about 11.5, where the grid's first step no longer resolves the
    ``1/lambda`` pile-up of mass just above the lower edge.
    """
    if not 0 < q < np.inf:
        raise ValueError("q must be positive and finite")
    if q < ATOM_Q:
        return SpectralDensity.atom(1.0)
    lo, hi = ewma_edges(q)
    grid = _edge_grid(lo, hi, GRID_POINTS)
    # at the edges the argument is -1/e to rounding, where lambertw can
    # return nan (at 151 of 400 edges for q from 1e-3 to 11)
    lam = grid[1:-1]
    rho = np.zeros(GRID_POINTS)
    rho[1:-1] = (np.abs(lambertw(-lam * np.exp(q - lam)).imag)
                 / (np.pi * q * lam))
    out = SpectralDensity.from_unnormalized(grid, rho)
    if abs(out.mean() - 1.0) > EWMA_MEAN_TOL:
        raise ConvergenceError(
            f"ewma_density: mean {out.mean():.6g} differs from 1 at q={q:g}; "
            "the grid does not resolve the lower edge")
    return out


# ---------------------------------------------------------------------------
# Dressed spectrum for a general true correlation density

def dressed_spectrum(rho_c: SpectralDensity, q: float) -> SpectralDensity:
    """Sample-matrix spectrum for true spectrum ``rho_c`` at aspect ratio q.

    The solution of ``G_E(z) = int rho_C(x)/(z - x (1 - q + q z G_E(z))) dx``
    is the free product of ``rho_c`` and MP(q) (Burda, Jurkiewicz & Waclaw,
    Phys. Rev. E 71, 2005), computed by ``transforms.free_multiply``.  For
    q > 1 it holds an atom of mass 1 - 1/q at zero.
    """
    return transforms.free_multiply(rho_c, mp_density(q))


# ---------------------------------------------------------------------------
# Power-law prior for the true spectrum

@dataclass(frozen=True)
class PowerLawPrior:
    """Power-law prior rho_C(x) = mu*A/(x - x0)^(1+mu) for x >= alpha.

    ``alpha`` equals the smallest eigenvalue; A and x0 are fixed by unit
    normalization and unit mean (Tr C = N).  ``alpha = 1`` degenerates to an
    atom at 1.
    """

    alpha: float
    mu: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if not 1.0 < self.mu < np.inf:
            raise ValueError("mu must be finite and exceed 1")

    @property
    def amplitude(self) -> float:
        # (1 - alpha)^2 when mu = 2
        return (1.0 - self.alpha) ** self.mu

    @property
    def lambda0(self) -> float:
        # 2*alpha - 1 when mu = 2
        return 1.0 - self.mu * (1.0 - self.alpha) / (self.mu - 1.0)

    def eigenvalue_ladder(self, N: int, k) -> np.ndarray:
        """Typical k-th largest eigenvalue, lambda_k = x0 + (A N / k)^(1/mu),
        floored at ``EIGENVALUE_FLOOR``."""
        k = np.asarray(k, dtype=float)
        lam = self.lambda0 + (self.amplitude * N / k) ** (1.0 / self.mu)
        return np.clip(lam, EIGENVALUE_FLOOR, None)


def powerlaw_prior_density(p: PowerLawPrior) -> SpectralDensity:
    """Continuous power-law prior, truncated where the tail mass drops below
    ``PRIOR_TAIL_MASS`` (the truncation is logged)."""
    if p.alpha >= 1.0:
        return SpectralDensity.atom(1.0)
    A, x0 = p.amplitude, p.lambda0
    hi = x0 + (A / PRIOR_TAIL_MASS) ** (1.0 / p.mu)
    log.info("power-law prior truncated at %.4g (tail mass %.1e)", hi,
             PRIOR_TAIL_MASS)
    u = np.linspace(0.0, 1.0, GRID_POINTS)
    grid = p.alpha + (hi - p.alpha) * u**3  # cluster points near the peak
    grid[0] = p.alpha
    rho = p.mu * A / (grid - x0) ** (1.0 + p.mu)
    return SpectralDensity.from_unnormalized(grid, rho)


# ---------------------------------------------------------------------------
# Elliptic (common stochastic volatility) ensemble

def elliptic_student_density(q: float, mu: float) -> SpectralDensity:
    """Sample spectrum of returns with a common random volatility, at aspect
    ratio q = N/T in (0, 1) and tail index mu > 2.

    With ``d_t = mu/s_t``, ``s_t ~ chi-squared(mu)``, the nonzero spectrum of
    E is ``q (rho_D [x] MP(1/q))``, the generalised Marcenko-Pastur law
    (Silverstein & Bai, J. Multivariate Anal. 54, 1995; Burda, Jurkiewicz &
    Waclaw, Phys. Rev. E 71, 2005): ``rho_E(lambda) = rho(lambda/q) / q^2``
    with rho the free product of the volatility law rho_D and MP(1/q).  In
    the bulk it is computed by ``transforms._product`` on
    ``GRID_POINTS - GRID_POINTS // 5`` points from 0.  At a fixed eps that
    quadrature does not resolve the power-law tail, whose density comes
    from the boundary-value expansion
    ``rho = mu P(q mu g) g^2 / (1 - g^2 R'(g))``, ``lambda = 1/g + PV R(g)``
    (P the chi-squared(mu) density and ``R(g) = mu int P(s)/(s - q mu g)
    ds``), read off a curve in g by ``_elliptic_tail``.  The tail is
    computed first: the bulk grid ends where the tail's density falls to
    ``_TAIL_RHO``, at 4 (1 + sqrt q)^2 at the least, and the bulk gives way
    to the tail where its own density falls through ``_TAIL_RHO``.  The
    density has no upper edge and decays as ``lambda^(-1 - mu/2)``; the
    grid is truncated at ``ELLIPTIC_LAM_MAX``.
    """
    if not 0 < q < 1:
        raise ValueError(
            "q must be positive and below 1 for the elliptic ensemble (at "
            "q >= 1 the spectrum acquires an atom at zero)")
    if not mu > 2:
        raise ValueError("mu must exceed 2")
    if mu >= 1e5:
        return mp_density(q)
    # chi-squared(mu) puts less than 1e-17 of its mass outside [s_lo, s_hi]
    s_lo = 2.0 * gammaincinv(0.5 * mu, 1e-17)
    s_hi = 2.0 * gammainccinv(0.5 * mu, 1e-17)
    lam_t, rho_t = _elliptic_tail(mu, q, s_lo, s_hi)

    floor = 4.0 * (1.0 + np.sqrt(q)) ** 2
    cross = lam_t[rho_t >= _TAIL_RHO]
    lam_s = cross.max() if cross.size else floor
    bulk_hi = min(ELLIPTIC_LAM_MAX, max(floor, lam_s))
    bulk = _edge_grid(1e-6, bulk_hi, GRID_POINTS - GRID_POINTS // 5)
    # rho_D, the law of d = mu/s; d above 1e5 holds a mass below 1e-5
    d = np.geomspace(mu / s_hi, min(1e5, mu / s_lo), GRID_POINTS)
    rho_d = SpectralDensity.from_unnormalized(
        d, _chi2_pdf(mu, mu / d) * mu / d**2)
    # Where rho_D is narrow (mu from about 200), the quadrature of MP(1/q) is
    # read within about eps of the axis and needs eps near its node spacing;
    # near the splice so wide an eps would smear the bulk over the tail.  So
    # eps falls from 1e-4 lam_s at 0 to 1e-5 at lam_s.
    eps = 1e-4 * np.clip(lam_s - bulk, 0.0, None) + 1e-5
    rho_b = transforms._product(rho_d, mp_density(1.0 / q), bulk / q, eps / q,
                                "elliptic_student_density").density / q**2
    # _product gives the bulk grid the whole mass; the tail above it holds
    # the part up to ELLIPTIC_LAM_MAX, which the bulk gives back
    above = lam_t >= bulk_hi
    rho_b *= 1.0 - np.trapezoid(rho_t[above], lam_t[above])
    keep = np.flatnonzero(rho_b >= _TAIL_RHO)[-1] + 1
    tail = lam_t > bulk[keep - 1]
    return SpectralDensity.from_unnormalized(
        np.concatenate([bulk[:keep], lam_t[tail]]),
        np.concatenate([rho_b[:keep], rho_t[tail]]))


# Density at which the bulk gives way to the tail expansion.  The expansion
# is first order in Im G: at (q, mu) = (0.5, 4) it lies 24% above the free
# product at lambda = 6, where rho = 0.02, 0.7% above it at rho = 1e-3
# (lambda = 14.4) and within 1e-5 of it from lambda = 15 on.
_TAIL_RHO = 1e-3
# Gauss-Legendre nodes of each part of the tail's quadrature; from 32 on,
# rho agrees with 400 nodes to 1e-6 at mu = 2.5 and to 1e-14 at mu = 4
_TAIL_NODES = 48


def _chi2_pdf(mu: float, s):
    k = 0.5 * mu
    return np.exp((k - 1.0) * np.log(s) - 0.5 * s - gammaln(k)
                  - k * np.log(2.0))


def _elliptic_tail(mu: float, q: float, s_lo: float, s_hi: float):
    """lambda and rho along the real branch of the tail, ascending in lambda.

    Both ``lambda = 1/g + PV R(g)`` and
    ``rho = mu P(x) g^2 / (1 - g^2 R'(g))``, x = q mu g, are explicit in g,
    and ``d lambda/dg = -(1 - g^2 R'(g))/g^2 < 0`` on the branch.  So g runs
    over ``GRID_POINTS`` geometric steps from ``1/ELLIPTIC_LAM_MAX`` up to the
    first point with ``1 - g^2 R' <= 0``, the turning point of the branch.
    It is met by x = s_hi at the latest: once P's mass lies below x,
    ``g^2 R' >= 1/q``.

    ``R = mu H[P](x)`` and ``R' = (mu/g) H[sP'](x)`` with
    ``H[f](x) = PV int f(s)/(s - x) ds``: R' is the PV integral of P',
    from ``d/dx H[f](x) = H[sf'](x)/x``.  Both come from one pole-subtracted
    quadrature at every g of a block: on [0, 2x]
    ``int (f(s) - f(x))/(s - x) ds``, as the PV of 1/(s - x) vanishes there,
    and the plain integral in log s over [max(2x, s_lo), s_hi], each by
    Gauss-Legendre.  A block's temporaries hold at most
    ``transforms.BLOCK_BYTES``.
    """
    u, w = roots_legendre(_TAIL_NODES)
    u, w = 0.5 * (u + 1.0), 0.5 * w

    def pq(s):
        p = _chi2_pdf(mu, s)
        return np.stack([p, p * (0.5 * mu - 1.0 - 0.5 * s)])

    g_all = np.geomspace(1.0 / ELLIPTIC_LAM_MAX, s_hi / (q * mu), GRID_POINTS)
    rows = max(1, transforms.BLOCK_BYTES // (16 * u.size))
    lam, rho = [], []
    for i in range(0, GRID_POINTS, rows):
        g = g_all[i:i + rows]
        x = q * mu * g[:, None]
        fx = pq(x)
        s = 2.0 * x * u
        h = 2.0 * x[:, 0] * (((pq(s) - fx) / (s - x)) @ w)
        lo = np.log(np.maximum(2.0 * x, s_lo))
        span = np.log(np.maximum(s_hi, 2.0 * x)) - lo
        s = np.exp(lo + span * u)
        h += span[:, 0] * ((pq(s) * (s / (s - x))) @ w)
        den = 1.0 - g * mu * h[1]
        stop = np.flatnonzero(den <= 0)
        k = stop[0] if stop.size else g.size
        lam.append(1.0 / g[:k] + mu * h[0, :k])
        rho.append(mu * fx[0, :k, 0] * g[:k] ** 2 / den[:k])
        if stop.size:
            break
    lam, rho = np.concatenate(lam)[::-1], np.concatenate(rho)[::-1]
    keep = lam <= ELLIPTIC_LAM_MAX
    return lam[keep], rho[keep]


# ---------------------------------------------------------------------------
# Random SVD null benchmark

def rsvd_band(n: float, m: float) -> tuple[float, float]:
    """Support [sqrt(gamma-), sqrt(gamma+)] of the null singular values."""
    gm = n + m - 2 * m * n - 2 * np.sqrt(m * n * (1 - n) * (1 - m))
    gp = n + m - 2 * m * n + 2 * np.sqrt(m * n * (1 - n) * (1 - m))
    gm, gp = max(gm, 0.0), min(gp, 1.0)
    return np.sqrt(gm), np.sqrt(gp)


def rsvd_benchmark(n: float, m: float) -> SpectralDensity:
    """Null density of singular values between whitened input and output sets.

    ``n = N/T`` and ``m = M/T``; atoms sit at 0 (rank deficit) and, when
    n + m > 1, at 1.
    """
    if not (0 < n < 1 and 0 < m < 1):
        raise ValueError("n and m must lie in (0, 1)")
    c_lo, c_hi = rsvd_band(n, m)
    gm, gp = c_lo**2, c_hi**2
    grid = _edge_grid(c_lo, c_hi, GRID_POINTS)
    c2 = grid**2
    inner = np.clip((c2 - gm) * (gp - c2), 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.sqrt(inner) / (np.pi * grid * (1.0 - c2))
    rho = np.nan_to_num(rho, posinf=0.0)
    atoms = []
    a0 = max(1.0 - n, 1.0 - m)
    if a0 > 0:
        atoms.append((0.0, a0))
    a1 = max(m + n - 1.0, 0.0)
    if a1 > 0:
        atoms.append((1.0, a1))
    return SpectralDensity.from_unnormalized(grid, rho, tuple(atoms))
