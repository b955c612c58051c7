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

# Rows of standard normals drawn and multiplied by C^{1/2} at a time.  The
# panel's bits depend on it (BLAS may round a product's rows differently
# with the number of rows), so GENERATOR_ID names it.
BLOCK_ROWS = 256

# Recorded in the header of ``rmtkit simulate``'s panel CSV, with the seed,
# so a run can be reproduced across versions.
GENERATOR_ID = f"numpy-pcg64-rows{BLOCK_ROWS}"


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


def _correlated_normals(rng, S: np.ndarray, T: int) -> np.ndarray:
    """X S for a T x N standard normal X, drawn ``BLOCK_ROWS`` rows at a
    time into one preallocated T x N array.  The stream is read in the
    order of one ``(T, N)`` draw, so X keeps its bits; only the blocks'
    products may round differently from one whole product."""
    out = np.empty((T, S.shape[0]))
    for i in range(0, T, BLOCK_ROWS):
        j = min(i + BLOCK_ROWS, T)
        np.matmul(rng.standard_normal((j - i, S.shape[0])), S, out=out[i:j])
    return out


def gaussian_panel(C: CorrelationMatrix, T: int, seed) -> ReturnPanel:
    """T IID Gaussian rows with covariance C, built as X C^{1/2}.

    The product is formed in blocks of ``BLOCK_ROWS`` rows, so besides the
    panel only one block of X is alive.  Up to ``BLOCK_ROWS`` rows it is
    the one product ``X @ C.sqrt()`` bit for bit; beyond, an entry may
    differ from that product within its dot product's rounding.
    """
    if T < 2:
        raise ValueError("T must be at least 2")
    rng = np.random.default_rng(seed)
    return ReturnPanel(_correlated_normals(rng, C.sqrt(), T))


def student_panel(C_hat: CorrelationMatrix, mu: float, T: int,
                  seed) -> ReturnPanel:
    """Common-volatility heavy-tailed panel: r_t = sigma_t * xi_t with
    xi_t ~ Gaussian(C_hat) and sigma_t^2 = mu/s_t, s_t ~ chi-squared(mu).

    The unconditional covariance is (mu/(mu-2)) C_hat; the returned panel is
    column-standardized.

    All the normals are drawn before the chi-squares.

    Memory: the Gaussian product is formed in row blocks into one panel, as
    in ``gaussian_panel``, so only one block of the draw is alive beside
    it; the volatility scaling is then done in place, and ``standardize``
    copies the only unstandardized panel left.
    """
    if not 2 < mu < np.inf:
        raise ValueError("mu must be finite and exceed 2")
    if T < 2:
        raise ValueError("T must be at least 2")
    rng = np.random.default_rng(seed)
    r = _correlated_normals(rng, C_hat.sqrt(), T)
    s = rng.chisquare(mu, size=T)
    r *= np.sqrt(mu / s)[:, None]
    return standardize(ReturnPanel(r))
