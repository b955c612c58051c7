"""Cross-correlations between two rectangular panels: exact whitening into
principal components, singular values of the cross matrix, and the random
benchmark band for significance."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .estimators import (CorrelationMatrix, EstimatorError, ReturnPanel,
                         standardize)
from .spectra import rsvd_band

__all__ = [
    "CrossCorrelationResult",
    "normalize_principal_components",
    "cross_singulars",
]

# Multiplier on the soft-edge fluctuation scale used for the significance
# cut; set by Monte Carlo calibration at roughly the 1% false-positive level.
EDGE_BUFFER = 3.0
RANK_TOL = 1e-10  # least eigenvalue, relative to the top, of a kept direction


@dataclass(frozen=True)
class CrossCorrelationResult:
    singular_values: np.ndarray  # descending, in [0, 1]
    left_vectors: np.ndarray  # combinations of Y principal components
    right_vectors: np.ndarray  # combinations of X principal components
    null_band: tuple  # (sqrt(gamma_minus), sqrt(gamma_plus))
    significant_count: int
    threshold: float


def normalize_principal_components(panel: ReturnPanel) -> ReturnPanel:
    """Rotate a standardized panel onto its exactly whitened principal
    components: unit sample variance, zero mutual sample correlation.

    The components follow the eigenvectors of ``CorrelationMatrix(X^T X /
    T)``: its descending order and its sign rule (largest-magnitude
    component positive).  Null directions (eigenvalue below ``RANK_TOL``
    times the top one) are dropped with a warning, so the output can have
    fewer columns than the input.

    Memory: on a standardized input, at most one T x N array besides the
    input is alive at a time; the components are divided by sqrt(lambda) in
    place.  A caller that keeps no other name on the input frees it when
    this returns.
    """
    if not panel.is_standardized():
        panel = standardize(panel)
    X = panel.values
    E = CorrelationMatrix(X.T @ X / panel.T)
    vals, vecs = E.eigenvalues, E.eigenvectors
    keep = vals > RANK_TOL * max(vals[0], 1e-30)
    if not np.all(keep):
        warnings.warn(
            f"dropping {int((~keep).sum())} null principal directions",
            stacklevel=2)
    vals, vecs = vals[keep], vecs[:, keep]
    comps = X @ vecs
    comps /= np.sqrt(vals)
    return ReturnPanel(comps, time_ids=panel.time_ids)


def cross_singulars(Xhat: ReturnPanel, Yhat: ReturnPanel) -> CrossCorrelationResult:
    """Singular values of the T-normalized cross matrix between two whitened
    panels, with the random benchmark band.

    With both panels exactly whitened the singular values are bounded by 1;
    values above sqrt(gamma_plus) plus ``EDGE_BUFFER`` fluctuation scales are
    counted as significant.
    """
    if Xhat.T != Yhat.T:
        raise EstimatorError("panels must share the same number of dates")
    T = Xhat.T
    E = Yhat.values.T @ Xhat.values / T  # M x N cross matrix
    U, s, Vt = np.linalg.svd(E, full_matrices=False)
    s = np.clip(s, 0.0, 1.0 + 1e-8)
    n, m = Xhat.N / T, Yhat.N / T
    lo, hi = rsvd_band(n, m)
    # soft-edge fluctuation scale ~ T^(-2/3) in the effective dimension
    scale = min(Xhat.N, Yhat.N) ** (-2.0 / 3.0)
    threshold = hi + EDGE_BUFFER * scale
    significant = int(np.sum(s > threshold))
    return CrossCorrelationResult(s, U, Vt.T, (lo, hi), significant, threshold)

