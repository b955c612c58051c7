"""Synthetic market generators: Haar rotations, structured true-correlation
matrices, and Gaussian and heavy-tailed (common-volatility Student) panels."""

from __future__ import annotations

import numpy as np

from .estimators import CorrelationMatrix, ReturnPanel, standardize
from .spectra import PowerLawPrior

__all__ = [
    "GENERATOR_ID",
    "haar_rotation",
    "constant_correlation",
    "powerlaw_correlation",
    "gaussian_panel",
    "student_panel",
]

# Recorded in the header of ``rmtkit simulate``'s panel CSV, with the seed,
# so a run can be reproduced across versions.
GENERATOR_ID = "numpy-pcg64"


def haar_rotation(N: int, seed) -> np.ndarray:
    """Haar-distributed orthogonal matrix via QR of a Gaussian matrix with
    the R-diagonal sign fix."""
    if N < 1:
        raise ValueError("N must be positive")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((N, N))
    Q, R = np.linalg.qr(A)
    return Q * np.sign(np.diag(R))


def constant_correlation(N: int, rho: float) -> CorrelationMatrix:
    """Unit diagonal and ``rho`` everywhere else: one eigenvalue
    1 + (N-1) rho (the market mode) above N-1 eigenvalues at 1 - rho.  At
    rho = 0 this is the identity, bit for bit."""
    if N < 1:
        raise ValueError("N must be positive")
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    C = np.full((N, N), rho)
    np.fill_diagonal(C, 1.0)
    return CorrelationMatrix(C)


def powerlaw_correlation(N: int, alpha: float, seed) -> CorrelationMatrix:
    """The ladder eigenvalues of ``PowerLawPrior(alpha)`` (tail exponent 2)
    conjugated by a Haar rotation."""
    vals = PowerLawPrior(alpha).eigenvalue_ladder(N, np.arange(1, N + 1))
    O = haar_rotation(N, seed)
    return CorrelationMatrix((O * vals) @ O.T)


def gaussian_panel(C: CorrelationMatrix, T: int, seed) -> ReturnPanel:
    """T IID Gaussian rows with covariance C, built as X C^{1/2}."""
    if T < 2:
        raise ValueError("T must be at least 2")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((T, C.N))
    return ReturnPanel(X @ C.sqrt())


def student_panel(C_hat: CorrelationMatrix, mu: float, T: int,
                  seed) -> ReturnPanel:
    """Common-volatility heavy-tailed panel: r_t = sigma_t * xi_t with
    xi_t ~ Gaussian(C_hat) and sigma_t^2 = mu/s_t, s_t ~ chi-squared(mu).

    The unconditional covariance is (mu/(mu-2)) C_hat; the returned panel is
    column-standardized.

    Memory: the Gaussian draw and its product with C_hat^{1/2} are alive
    together for one matrix product; the volatility scaling is then done in
    place, and ``standardize`` copies the only unstandardized panel left.
    """
    if not 2 < mu < np.inf:
        raise ValueError("mu must be finite and exceed 2")
    if T < 2:
        raise ValueError("T must be at least 2")
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((T, C_hat.N)) @ C_hat.sqrt()
    s = rng.chisquare(mu, size=T)
    r *= np.sqrt(mu / s)[:, None]
    return standardize(ReturnPanel(r))
