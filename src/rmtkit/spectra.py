"""Closed-form and self-consistent asymptotic eigenvalue/singular-value
densities: Marcenko-Pastur, EWMA, general-prior dressed spectra, the elliptic
(common stochastic volatility) ensemble, power-law priors and the random-SVD
null benchmark.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import gammainccinv, gammaincinv, gammaln, roots_legendre

from . import transforms
from .density import SpectralDensity
from .transforms import ConvergenceError

__all__ = [
    "PowerLawPrior",
    "EllipticParams",
    "mp_density",
    "mp_edges",
    "mp_blue",
    "wigner_semicircle",
    "wigner_blue",
    "ewma_density",
    "ewma_edges",
    "ewma_blue",
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


def _edge_grid(lo: float, hi: float, npoints: int) -> np.ndarray:
    """Grid clustered at both interval ends (square-root edge behaviour)."""
    u = np.linspace(0.0, np.pi, npoints)
    return lo + (hi - lo) * 0.5 * (1.0 - np.cos(u))


# ---------------------------------------------------------------------------
# Marcenko-Pastur

def mp_edges(q: float) -> tuple[float, float]:
    return (1.0 - np.sqrt(q)) ** 2, (1.0 + np.sqrt(q)) ** 2


def mp_density(q: float, npoints: int = 2000) -> SpectralDensity:
    """Marcenko-Pastur law at aspect ratio q = N/T.

    For q > 1 an atom of mass 1 - 1/q sits at zero.
    """
    if q <= 0:
        raise ValueError("q must be positive")
    if q < ATOM_Q:
        return SpectralDensity.atom(1.0)
    lo, hi = mp_edges(q)
    grid = _edge_grid(lo, hi, npoints)
    inner = np.clip(4.0 * grid * q - (grid + q - 1.0) ** 2, 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.sqrt(inner) / (2.0 * np.pi * grid * q)
    rho = np.nan_to_num(rho)
    atoms = ((0.0, 1.0 - 1.0 / q),) if q > 1 else ()
    return SpectralDensity.from_unnormalized(grid, rho, atoms)


def mp_blue(q: float):
    """Closed-form Blue function B(w) = 1/w + 1/(1 - q w)."""
    def B(w):
        return 1.0 / w + 1.0 / (1.0 - q * w)
    return B


def wigner_semicircle(sigma: float = 1.0, npoints: int = 2000) -> SpectralDensity:
    """Semicircle of variance sigma^2 on [-2 sigma, 2 sigma]."""
    r = 2.0 * sigma
    grid = _edge_grid(-r, r, npoints)
    rho = np.sqrt(np.clip(r**2 - grid**2, 0.0, None)) / (2.0 * np.pi * sigma**2)
    return SpectralDensity.from_unnormalized(grid, rho)


def wigner_blue(sigma: float = 1.0):
    """B(w) = sigma^2 w + 1/w (R(w) = sigma^2 w)."""
    def B(w):
        return sigma**2 * w + 1.0 / w
    return B


# ---------------------------------------------------------------------------
# EWMA estimator spectrum

def ewma_edges(q: float) -> tuple[float, float]:
    """Edges solve lambda = log(lambda) + q + 1."""
    if q <= 0:
        raise ValueError("q must be positive")

    def f(lam):
        return lam - np.log(lam) - q - 1.0

    lo = brentq(f, 1e-300, 1.0, xtol=1e-15, rtol=8.9e-16)
    hi = brentq(f, 1.0, 10.0 + 10.0 * q, xtol=1e-15, rtol=8.9e-16)
    return lo, hi


def ewma_blue(q: float):
    """B(w) = 1/w - log(1 - q w)/(q w)."""
    def B(w):
        with np.errstate(invalid="ignore"):
            return 1.0 / w - np.log(1.0 - q * w) / (q * w)
    return B


def ewma_density(q: float, npoints: int = 2000) -> SpectralDensity:
    """Spectrum of the exponentially weighted estimator at q = N * epsilon.

    Solves ``f(G) = z q G - q + log(1 - q G) = 0`` on the line
    ``z = lambda - i eps`` by Newton steps on every grid point at once, run
    as the fixed point of ``w = 1/G`` by ``transforms._subordinate`` from
    ``G = 1/z``.  A point's step is halved while ``|q dG| > |1 - q G| / 2``,
    which keeps ``1 - q G`` off the branch cut of the logarithm; the number
    of halvings comes at once from the binary exponents of both sides.  The
    halving does not keep ``Im G > 0``, so a point that converged to a root
    with ``Im G <= 0`` raises ``ConvergenceError``.  The law has mean 1; a
    result whose mean is off by more than ``EWMA_MEAN_TOL`` raises
    ``ConvergenceError`` too.  That happens from q of about 9, where the
    lower edge comes within a few ``eps`` of zero and the grid cannot
    resolve the mass near it.
    """
    if q <= 0:
        raise ValueError("q must be positive")
    if q < ATOM_Q:
        return SpectralDensity.atom(1.0)
    lo, hi = ewma_edges(q)
    grid = _edge_grid(lo, hi, npoints)
    eps = 1e-6 * (hi - lo)

    def newton(w, z):
        g = 1.0 / w
        u = 1.0 - q * g
        dg = -(z * q * g - q + np.log(u)) / (z * q - q / u)
        # halve the step j times, j the least with |q dG| 2^-j <= |u|/2:
        # with m = |q dG| = fm 2^em and |u|/2 = fh 2^eh (frexp), that is
        # j = em - eh + (fm > fh).  A non-finite step is not halved: the
        # point fails the stop rule.
        m, half_u = np.abs(q * dg), 0.5 * np.abs(u)
        over = np.isfinite(dg) & (m > half_u)
        if over.any():
            (fm, em), (fh, eh) = np.frexp(m[over]), np.frexp(half_u[over])
            dg[over] *= np.ldexp(1.0, eh - em - (fm > fh))
        return 1.0 / (g + dg)

    w = transforms._subordinate(newton, grid - 1j * eps, grid, "ewma_density")
    g = 1.0 / w
    bad = np.flatnonzero(g.imag <= 0)
    if bad.size:
        raise ConvergenceError(
            f"ewma_density: {bad.size} points converged to a root with "
            f"Im G <= 0 at q={q:g}, first lambda={grid[bad[0]]:.6g}")
    out = SpectralDensity.from_unnormalized(grid, g.imag / np.pi)
    if abs(out.mean() - 1.0) > EWMA_MEAN_TOL:
        raise ConvergenceError(
            f"ewma_density: mean {out.mean():.6g} differs from 1 at q={q:g}; "
            "the grid does not resolve the lower edge")
    return out


# ---------------------------------------------------------------------------
# Dressed spectrum for a general true correlation density

def dressed_spectrum(rho_c: SpectralDensity, q: float,
                     npoints: int = 2000) -> SpectralDensity:
    """Sample-matrix spectrum for true spectrum ``rho_c`` at aspect ratio q.

    The solution of ``G_E(z) = int rho_C(x)/(z - x (1 - q + q z G_E(z))) dx``
    is the free product of ``rho_c`` and MP(q) (Burda, Jurkiewicz & Waclaw,
    Phys. Rev. E 71, 2005), computed by ``transforms._product`` on the line
    ``z = lambda - i eps``.  For q > 1 it holds an atom of mass 1 - 1/q at
    zero.
    """
    if q <= 0:
        raise ValueError("q must be positive")
    c_lo, c_hi = rho_c.support()
    lo = max(1e-9, 0.25 * c_lo * (1.0 - np.sqrt(q)) ** 2)
    if q >= 1:
        lo = 1e-9
    hi = 1.3 * c_hi * (1.0 + np.sqrt(q)) ** 2
    # Most of the sample spectrum lies below the dressed image of the bulk of
    # rho_C; put the bulk of the grid there and stretch a sparse tail out to
    # the dressed image of its upper end.
    bulk_hi = min(hi, 1.3 * _quantile(rho_c, 0.95) * (1.0 + np.sqrt(q)) ** 2)
    if bulk_hi < hi:
        n_tail = npoints // 5
        grid = np.concatenate([
            np.linspace(lo, bulk_hi, npoints - n_tail, endpoint=False),
            np.geomspace(bulk_hi, hi, n_tail),
        ])
    else:
        grid = np.linspace(lo, hi, npoints)
    eps = 1e-4 * (bulk_hi - lo)
    return transforms._product(rho_c, mp_density(q), grid, eps,
                               "dressed_spectrum")


def _quantile(dens: SpectralDensity, p: float) -> float:
    """Location below which the density holds mass p."""
    lo, hi = dens.support()
    if dens.grid.size < 2:
        return hi
    cum = np.concatenate([[0.0], np.cumsum(
        0.5 * (dens.density[1:] + dens.density[:-1]) * np.diff(dens.grid))])
    for loc, m in dens.atoms:
        cum = cum + m * (dens.grid >= loc)
    idx = np.searchsorted(cum, p * dens.mass())
    idx = min(idx, dens.grid.size - 1)
    return float(dens.grid[idx])


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
        if self.mu <= 1.0:
            raise ValueError("mu must exceed 1")

    @property
    def amplitude(self) -> float:
        # (1 - alpha)^2 when mu = 2
        return (1.0 - self.alpha) ** self.mu

    @property
    def lambda0(self) -> float:
        # 2*alpha - 1 when mu = 2
        return 1.0 - self.mu * (1.0 - self.alpha) / (self.mu - 1.0)

    @property
    def lambda_min(self) -> float:
        return self.alpha

    def eigenvalue_ladder(self, N: int, k) -> np.ndarray:
        """Typical k-th largest eigenvalue, lambda_k = x0 + (A N / k)^(1/mu)."""
        k = np.asarray(k, dtype=float)
        return self.lambda0 + (self.amplitude * N / k) ** (1.0 / self.mu)


def powerlaw_prior_density(p: PowerLawPrior, npoints: int = 2000,
                           tail_mass: float = 1e-4) -> SpectralDensity:
    """Continuous power-law prior, truncated where the tail mass drops below
    ``tail_mass`` (the truncation is logged)."""
    if p.alpha >= 1.0:
        return SpectralDensity.atom(1.0)
    A, x0 = p.amplitude, p.lambda0
    hi = x0 + (A / tail_mass) ** (1.0 / p.mu)
    log.info("power-law prior truncated at %.4g (tail mass %.1e)", hi, tail_mass)
    u = np.linspace(0.0, 1.0, npoints)
    grid = p.alpha + (hi - p.alpha) * u**3  # cluster points near the peak
    grid[0] = p.alpha
    rho = p.mu * A / (grid - x0) ** (1.0 + p.mu)
    return SpectralDensity.from_unnormalized(grid, rho)


# ---------------------------------------------------------------------------
# Elliptic (common stochastic volatility) ensemble

@dataclass(frozen=True)
class EllipticParams:
    """Aspect ratio q and tail index mu of the volatility mixture."""

    q: float
    mu: float

    def __post_init__(self):
        if self.q <= 0:
            raise ValueError("q must be positive")
        if self.mu <= 2:
            raise ValueError("mu must exceed 2")


def elliptic_student_density(p: EllipticParams, npoints: int = 2000,
                             lam_max: float = 1000.0) -> SpectralDensity:
    """Sample spectrum of returns with a common random volatility.

    With ``d_t = mu/s_t``, ``s_t ~ chi-squared(mu)``, the nonzero spectrum of
    E is ``q (rho_D [x] MP(1/q))``, the generalised Marcenko-Pastur law
    (Silverstein & Bai, J. Multivariate Anal. 54, 1995; Burda, Jurkiewicz &
    Waclaw, Phys. Rev. E 71, 2005): ``rho_E(lambda) = rho(lambda/q) / q^2``
    with rho the free product of the volatility law rho_D and MP(1/q).  In
    the bulk it is computed by ``transforms._product`` on
    ``npoints - npoints // 5`` points from 0.  At a fixed eps that quadrature
    does not resolve the power-law tail, whose density comes from the
    boundary-value expansion ``rho = mu P(q mu g) g^2 / (1 - g^2 R'(g))``,
    ``lambda = 1/g + PV R(g)`` (P the chi-squared(mu) density and
    ``R(g) = mu int P(s)/(s - q mu g) ds``), read off a curve in g by
    ``_elliptic_tail``.  The tail is computed first: the bulk grid ends
    where the tail's density falls to ``_TAIL_RHO``, at 4 (1 + sqrt q)^2 at
    the least, and the bulk gives way to the tail where its own density
    falls through ``_TAIL_RHO``.  The density has no upper edge and decays
    as ``lambda^(-1 - mu/2)``; the grid is truncated at ``lam_max``.
    """
    if p.q >= 1:
        raise ValueError(
            "q >= 1 is unsupported for the elliptic ensemble (the spectrum "
            "acquires an atom at zero)")
    if p.mu >= 1e5:
        return mp_density(p.q, npoints)
    q, mu = p.q, p.mu
    # chi-squared(mu) puts less than 1e-17 of its mass outside [s_lo, s_hi]
    s_lo = 2.0 * gammaincinv(0.5 * mu, 1e-17)
    s_hi = 2.0 * gammainccinv(0.5 * mu, 1e-17)
    lam_t, rho_t = _elliptic_tail(mu, q, lam_max, npoints, s_lo, s_hi)

    floor = 4.0 * (1.0 + np.sqrt(q)) ** 2
    cross = lam_t[rho_t >= _TAIL_RHO]
    lam_s = cross.max() if cross.size else floor
    bulk_hi = min(lam_max, max(floor, lam_s))
    bulk = _edge_grid(1e-6, bulk_hi, npoints - npoints // 5)
    # rho_D, the law of d = mu/s; d above 1e5 holds a mass below 1e-5
    d = np.geomspace(mu / s_hi, min(1e5, mu / s_lo), 2000)
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
    # the part up to lam_max, which the bulk gives back
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


def _elliptic_tail(mu: float, q: float, lam_max: float, npoints: int,
                   s_lo: float, s_hi: float):
    """lambda and rho along the real branch of the tail, ascending in lambda.

    Both ``lambda = 1/g + PV R(g)`` and
    ``rho = mu P(x) g^2 / (1 - g^2 R'(g))``, x = q mu g, are explicit in g,
    and ``d lambda/dg = -(1 - g^2 R'(g))/g^2 < 0`` on the branch.  So g runs
    over ``npoints`` geometric steps from 1/lam_max up to the first point
    with ``1 - g^2 R' <= 0``, the turning point of the branch.  It is met by
    x = s_hi at the latest: once P's mass lies below x, ``g^2 R' >= 1/q``.

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

    g_all = np.geomspace(1.0 / lam_max, s_hi / (q * mu), npoints)
    rows = max(1, transforms.BLOCK_BYTES // (16 * u.size))
    lam, rho = [], []
    for i in range(0, npoints, rows):
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
    keep = lam <= lam_max
    return lam[keep], rho[keep]


# ---------------------------------------------------------------------------
# Random SVD null benchmark

def rsvd_band(n: float, m: float) -> tuple[float, float]:
    """Support [sqrt(gamma-), sqrt(gamma+)] of the null singular values."""
    gm = n + m - 2 * m * n - 2 * np.sqrt(m * n * (1 - n) * (1 - m))
    gp = n + m - 2 * m * n + 2 * np.sqrt(m * n * (1 - n) * (1 - m))
    gm, gp = max(gm, 0.0), min(gp, 1.0)
    return np.sqrt(gm), np.sqrt(gp)


def rsvd_benchmark(n: float, m: float, npoints: int = 2000) -> SpectralDensity:
    """Null density of singular values between whitened input and output sets.

    ``n = N/T`` and ``m = M/T``; atoms sit at 0 (rank deficit) and, when
    n + m > 1, at 1.
    """
    if not (0 < n < 1 and 0 < m < 1):
        raise ValueError("n and m must lie in (0, 1)")
    c_lo, c_hi = rsvd_band(n, m)
    gm, gp = c_lo**2, c_hi**2
    grid = _edge_grid(c_lo, c_hi, npoints)
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
