"""Closed-form and self-consistent asymptotic eigenvalue/singular-value
densities: Marcenko-Pastur, EWMA, general-prior dressed spectra, the elliptic
(common stochastic volatility) ensemble, power-law priors and the random-SVD
null benchmark.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import gammaln, roots_genlaguerre

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
    law has mean 1; a result whose mean is off by more than ``EWMA_MEAN_TOL``
    raises ``ConvergenceError``.  That happens from q of about 9, where the
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
    rho = np.clip((1.0 / w).imag / np.pi, 0.0, None)
    out = SpectralDensity.from_unnormalized(grid, rho)
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
    return transforms._product(rho_c, mp_density(q), grid, eps)


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


def _elliptic_r_transform(mu: float, q: float, n_nodes: int = 300):
    """R(w) = E_s[mu/(s - q*mu*w)] with s ~ chi-squared(mu).

    Gauss-Laguerre quadrature for the Gamma(mu/2) weight (s = 2u).
    """
    nodes, weights = roots_genlaguerre(n_nodes, mu / 2.0 - 1.0)
    weights = weights / np.exp(gammaln(mu / 2.0))
    s = 2.0 * nodes

    def R(w):
        return mu * np.sum(weights / (s - q * mu * w))

    def Rp(w):
        return q * mu**2 * np.sum(weights / (s - q * mu * w) ** 2)

    return R, Rp


def elliptic_student_density(p: EllipticParams, npoints: int = 2000,
                             lam_max: float = 1000.0) -> SpectralDensity:
    """Sample spectrum of returns with a common random volatility.

    In the bulk, solves ``lambda = 1/G + R(G)`` for the complex resolvent by
    Newton continuation from the crossover point.  In the tail the imaginary
    part of G is far below the quadrature resolution, so the density is
    computed from the boundary-value expansion
    ``rho = mu P(q mu g) g^2 / (1 - g^2 R'(g))`` with g the real solution of
    ``lambda = 1/g + PV R(g)`` (P the chi-squared(mu) volatility-mixing
    density).  The density has no upper edge and decays as
    ``lambda^(-1 - mu/2)``; the grid is truncated at ``lam_max``.
    """
    if p.q >= 1:
        raise ValueError(
            "q >= 1 is unsupported for the elliptic ensemble (the spectrum "
            "acquires an atom at zero)")
    if p.mu >= 1e5:
        return mp_density(p.q, npoints)
    R, Rp = _elliptic_r_transform(p.mu, p.q)

    # Newton on the quadrature-discretized equation is accurate where the
    # density (hence Im G) is appreciable; once rho falls below _TAIL_RHO the
    # near-real pole is no longer resolved by the quadrature nodes and the
    # principal-value expansion takes over.
    n_tail = npoints // 5
    bulk_hi = 4.0 * (1.0 + np.sqrt(p.q)) ** 2
    bulk = np.linspace(1e-6, min(bulk_hi, lam_max), npoints - n_tail)
    eps = 1e-5
    out = np.empty(bulk.size, dtype=complex)

    def solve(z, g):
        return transforms._damped_newton(lambda x: 1.0 / x + R(x) - z,
                                         lambda x: -1.0 / x**2 + Rp(x), g)

    g = 1.0 / (bulk[-1] - 1j * eps)
    bad = []
    for i in range(bulk.size - 1, -1, -1):
        lam = bulk[i]
        try:
            g = solve(lam - 1j * eps, g)
        except ConvergenceError:
            # near-stationary points (spectral edges) stall the iteration;
            # restart further from the real axis and walk eps back down
            try:
                g = 1.0 / (lam - 0.5j)
                for ee in np.geomspace(0.5, eps, 12):
                    g = solve(lam - 1j * ee, g)
            except ConvergenceError:
                bad.append(lam)
                out[i] = np.nan
                continue
        out[i] = g
    if bad:
        raise ConvergenceError(
            f"elliptic solver failed at lambda values {bad[:5]}"
            + ("..." if len(bad) > 5 else ""))
    rho_bulk = np.clip(out.imag / np.pi, 0.0, None)
    cut = np.nonzero(rho_bulk >= _TAIL_RHO)[0]
    if cut.size and bulk[cut[-1]] * 1.01 < lam_max:
        keep = cut[-1] + 1
        bulk, rho_bulk = bulk[:keep], rho_bulk[:keep]
        tail = np.geomspace(bulk[-1] * 1.01, lam_max, n_tail)
        rho_tail = _elliptic_tail_density(tail, p.mu, p.q)
        grid = np.concatenate([bulk, tail])
        rho = np.concatenate([rho_bulk, rho_tail])
    else:
        grid, rho = bulk, rho_bulk
    return SpectralDensity.from_unnormalized(grid, rho)


_TAIL_RHO = 0.02


def _chi2_pdf_factory(mu: float):
    c0 = np.exp(-gammaln(mu / 2.0) - (mu / 2.0) * np.log(2.0))
    k = mu / 2.0 - 1.0

    def pdf(s):
        return c0 * s**k * np.exp(-0.5 * s)

    return pdf


def _elliptic_pv_r(g: float, mu: float, q: float, pdf) -> float:
    """Principal value of R(g) = mu int P(s)/(s - q mu g) ds on the real axis,
    P the chi-squared(mu) density."""
    x = q * mu * g
    if x <= 0:
        return mu * quad(lambda s: pdf(s) / (s - x), 0.0, np.inf,
                         limit=200)[0]
    px = pdf(x)
    # PV int_0^{2x} ds/(s-x) vanishes, so subtracting the pole value there
    # leaves a regular integrand.
    inner = quad(lambda s: (pdf(s) - px) / (s - x), 0.0, 2.0 * x,
                 points=[x], limit=200)[0]
    outer = quad(lambda s: pdf(s) / (s - x), 2.0 * x, np.inf,
                 limit=200)[0]
    return mu * (inner + outer)


def _elliptic_tail_density(tail_grid: np.ndarray, mu: float,
                           q: float) -> np.ndarray:
    """rho on a grid beyond the crossover, where Im G -> 0+.

    Follows the real branch g(lambda) of ``lambda = 1/g + PV R(g)`` by
    continuation descending from the largest lambda (where g ~ 1/lambda is
    unambiguous), then evaluates
    ``rho = mu P(q mu g) g^2 / (1 - g^2 R'(g))``.
    """
    pdf = _chi2_pdf_factory(mu)
    out = np.empty(tail_grid.size)
    r0 = _elliptic_pv_r(1e-12, mu, q, pdf)  # ~ mu/(mu-2), the g->0 limit
    g_prev = 1.0 / (tail_grid[-1] - r0)
    for i in range(tail_grid.size - 1, -1, -1):
        lam = tail_grid[i]

        def f(g):
            return 1.0 / g + _elliptic_pv_r(g, mu, q, pdf) - lam

        a, b = 0.9 * g_prev, 1.2 * g_prev
        fa, fb = f(a), f(b)
        for _ in range(60):
            if fa > 0 >= fb:
                break
            if fa <= 0:
                a *= 0.8
                fa = f(a)
            else:
                b *= 1.2
                fb = f(b)
        else:
            raise ConvergenceError(
                f"tail branch lost at lambda={lam:.6g}")
        g = brentq(f, a, b, xtol=1e-15, rtol=8.9e-16)
        h = 1e-4 * g
        rp = (_elliptic_pv_r(g + h, mu, q, pdf)
              - _elliptic_pv_r(g - h, mu, q, pdf)) / (2.0 * h)
        denom = 1.0 - g * g * rp
        if denom <= 0:
            raise ConvergenceError(
                f"tail expansion invalid at lambda={lam:.6g} (inside the bulk)")
        out[i] = mu * pdf(q * mu * g) * g * g / denom
        g_prev = g
    return out


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
