"""Cross-correlations between two rectangular panels: singular values of the
cross matrix between their exactly whitened principal components, whitened
as an M x N matrix rather than as T x N panels, and the random band."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .estimators import (CorrelationMatrix, EstimatorError, ReturnPanel,
                         standardize)
from .spectra import rsvd_band

__all__ = [
    "CrossCorrelationResult",
    "cross_singulars",
]

# Multiplier on the soft-edge fluctuation scale used for the significance
# cut; set by Monte Carlo calibration at roughly the 1% false-positive level.
EDGE_BUFFER = 3.0
RANK_TOL = 1e-10  # least eigenvalue, relative to the top, of a kept direction


@dataclass(frozen=True)
class CrossCorrelationResult:
    singular_values: np.ndarray  # descending, in [0, 1]
    null_band: tuple  # (sqrt(gamma_minus), sqrt(gamma_plus))
    significant_count: int
    threshold: float


def _whitener(X: np.ndarray) -> np.ndarray:
    """W = V diag(lambda)^(-1/2) from the eigenpairs of
    ``CorrelationMatrix(X^T X / T)``: X W are X's exactly whitened principal
    components, in that matrix's descending order and with its sign rule.
    Null directions (eigenvalue below ``RANK_TOL`` times the top one) are
    dropped with a warning, so W can have fewer columns than X."""
    E = CorrelationMatrix(X.T @ X / X.shape[0])
    vals, vecs = E.eigenvalues, E.eigenvectors
    keep = vals > RANK_TOL * max(vals[0], 1e-30)
    if not np.all(keep):
        warnings.warn(
            f"dropping {int((~keep).sum())} null principal directions",
            stacklevel=3)
    return vecs[:, keep] / np.sqrt(vals[keep])


def cross_singulars(X: ReturnPanel, Y: ReturnPanel) -> CrossCorrelationResult:
    """Singular values of the T-normalized cross matrix between the whitened
    principal components of two panels, each standardized first if it is
    not, with the random benchmark band.

    ``K = W_Y^T (Y^T X / T) W_X`` (``_whitener``) is ``Yhat^T Xhat / T`` for
    the whitened panels X W_X and Y W_Y, which are never formed.  Its
    singular values are bounded by 1; those above sqrt(gamma_plus), read at
    the kept counts, plus ``EDGE_BUFFER`` fluctuation scales are significant.
    """
    if X.T != Y.T:
        raise EstimatorError("panels must share the same number of dates")
    if not X.is_standardized():
        X = standardize(X)
    if not Y.is_standardized():
        Y = standardize(Y)
    T = X.T
    Wx, Wy = _whitener(X.values), _whitener(Y.values)
    K = Wy.T @ (Y.values.T @ X.values / T) @ Wx
    s = np.linalg.svd(K, compute_uv=False)
    s = np.clip(s, 0.0, 1.0 + 1e-8)
    N, M = Wx.shape[1], Wy.shape[1]
    lo, hi = rsvd_band(N / T, M / T)
    # soft-edge fluctuation scale ~ T^(-2/3) in the effective dimension
    scale = min(N, M) ** (-2.0 / 3.0)
    threshold = hi + EDGE_BUFFER * scale
    significant = int(np.sum(s > threshold))
    return CrossCorrelationResult(s, (lo, hi), significant, threshold)
