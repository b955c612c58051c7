"""Synthetic market generators: Haar rotations, structured true-correlation
matrices, and Gaussian and heavy-tailed (common-volatility Student) panels."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import CorrelationMatrix, ReturnPanel, standardize
from .spectra import PowerLawPrior

__all__ = [
    "GENERATOR_ID",
    "TrueCorrelationSpec",
    "haar_rotation",
    "build_true_correlation",
    "gaussian_panel",
    "student_panel",
]

# Recorded in the header of ``rmtkit simulate``'s panel CSV, with the seed,
# so a run can be reproduced across versions.
GENERATOR_ID = "numpy-pcg64"


@dataclass(frozen=True)
class TrueCorrelationSpec:
    """Recipe for a population correlation matrix of size N.

    kinds: ``identity``; ``single_spike`` (unit diagonal, ``rho_bar``
    off-diagonal); ``powerlaw`` (the ladder eigenvalues of
    ``PowerLawPrior(alpha)``, tail exponent 2, conjugated by a Haar
    rotation).
    """

    kind: str
    N: int
    rho_bar: float = 0.0
    alpha: float = 0.5

    def __post_init__(self):
        if self.kind not in ("identity", "single_spike", "powerlaw"):
            raise ValueError(f"unknown correlation kind {self.kind!r}")
        if self.N < 1:
            raise ValueError("N must be positive")
        if self.kind == "single_spike" and not 0.0 <= self.rho_bar < 1.0:
            raise ValueError("rho_bar must lie in [0, 1)")
        if self.kind == "powerlaw" and not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")


def haar_rotation(N: int, seed) -> np.ndarray:
    """Haar-distributed orthogonal matrix via QR of a Gaussian matrix with
    the R-diagonal sign fix."""
    if N < 1:
        raise ValueError("N must be positive")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((N, N))
    Q, R = np.linalg.qr(A)
    return Q * np.sign(np.diag(R))


def build_true_correlation(spec: TrueCorrelationSpec, seed=None) -> CorrelationMatrix:
    N = spec.N
    if spec.kind == "identity":
        return CorrelationMatrix(np.eye(N))
    if spec.kind == "single_spike":
        C = np.full((N, N), spec.rho_bar)
        np.fill_diagonal(C, 1.0)
        return CorrelationMatrix(C)
    # powerlaw
    prior = PowerLawPrior(spec.alpha)
    vals = prior.eigenvalue_ladder(N, np.arange(1, N + 1))
    vals = np.clip(vals, 1e-8, None)
    O = haar_rotation(N, seed)
    C = (O * vals) @ O.T
    return CorrelationMatrix(C)


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
