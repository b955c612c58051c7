"""Return panels, empirical correlation estimators and eigen-structure
statistics."""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import blas, lapack
from scipy.stats import kurtosis

__all__ = [
    "ReturnPanel",
    "CorrelationMatrix",
    "EstimatorError",
    "standardize",
    "pearson",
    "ewma_estimator",
    "student_ml",
    "dual_spectrum_check",
    "eigenportfolio_report",
    "eigenvector_kurtosis",
]


class EstimatorError(ValueError):
    pass


logger = logging.getLogger(__name__)

# student_ml extrapolates each weight vector from this many past steps of the
# weight map (Anderson mixing); the estimated contraction rate is the largest
# secant ratio among as many recent iterates
ANDERSON_DEPTH = 6


@dataclass(frozen=True)
class ReturnPanel:
    """T x N matrix of returns with asset and time labels."""

    values: np.ndarray
    asset_ids: tuple = ()
    time_ids: tuple = ()

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise EstimatorError("panel values must be a T x N matrix")
        if not np.all(np.isfinite(values)):
            raise EstimatorError("panel contains non-finite entries")
        T, N = values.shape
        asset_ids = tuple(self.asset_ids) or tuple(f"A{i:04d}" for i in range(N))
        time_ids = tuple(self.time_ids) or tuple(range(T))
        if len(asset_ids) != N:
            raise EstimatorError("asset_ids length mismatch")
        if len(time_ids) != T:
            raise EstimatorError("time_ids length mismatch")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "asset_ids", asset_ids)
        object.__setattr__(self, "time_ids", time_ids)

    @property
    def T(self) -> int:
        return self.values.shape[0]

    @property
    def N(self) -> int:
        return self.values.shape[1]

    def window(self, start: int, stop: int) -> "ReturnPanel":
        return ReturnPanel(self.values[start:stop], self.asset_ids,
                           self.time_ids[start:stop])

    def is_standardized(self, tol: float = 1e-8) -> bool:
        mu = self.values.mean(axis=0)
        var = self.values.var(axis=0)
        return bool(np.all(np.abs(mu) < tol) and np.all(np.abs(var - 1) < tol))


class CorrelationMatrix:
    """Symmetric PSD correlation matrix with a cached eigendecomposition.

    Built from ``values``, the matrix is checked for symmetry (an exactly
    symmetric float array is held as given, not copied) and decomposed by
    ``eigh`` when its eigenpairs are first read.  A matrix built by
    ``with_spectrum`` holds eigenpairs instead, and forms ``values`` only
    when they are first read.  Eigenvalues are stored in descending order;
    the sign of each eigenvector is fixed so that its largest-magnitude
    component is positive.
    """

    def __init__(self, values, metadata=None):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise EstimatorError("correlation matrix must be square")
        asym = _max_gap(values, values.T) if values.size else 0.0
        if asym > 1e-10:
            raise EstimatorError(f"matrix is not symmetric (max gap {asym:.2e})")
        if asym:  # an exactly symmetric matrix is kept: 0.5 * (a + a) == a
            values = 0.5 * (values + values.T)
        self._values = values
        self._pairs = None
        self.metadata = {} if metadata is None else metadata

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            vals, vecs = self._pairs
            m = (vecs * vals) @ vecs.T
            self._values = 0.5 * (m + m.T)
        return self._values

    @property
    def N(self) -> int:
        return (self._values if self._pairs is None
                else self._pairs[1]).shape[0]

    @cached_property
    def _eig(self):
        if self._pairs is None:
            vals, vecs = np.linalg.eigh(self.values)
            order = np.argsort(vals)[::-1]
        else:
            vals, vecs = self._pairs
            order = np.argsort(-vals, kind="stable")
        vals, vecs = _require_psd(vals[order]), vecs[:, order]
        cols = np.arange(vecs.shape[1])
        flip = vecs[np.argmax(np.abs(vecs), axis=0), cols] < 0
        vecs[:, flip] *= -1.0
        return vals, vecs

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eig[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._eig[1]

    def spectrum(self) -> np.ndarray:
        """The eigenvalues in descending order, without the eigenvectors.

        A matrix built by ``with_spectrum`` returns ``eigenvalues``; any
        other takes them from ``eigvalsh``, about 2.5 times faster than
        ``eigh`` at N = 500, and caches nothing.  They may differ from
        ``eigenvalues`` by rounding."""
        if self._pairs is not None:
            return self.eigenvalues
        return _require_psd(np.linalg.eigvalsh(self.values)[::-1])

    def with_spectrum(self, new_eigenvalues, metadata=None) -> "CorrelationMatrix":
        """The matrix with this one's eigenvectors and new eigenvalues.

        The new matrix holds these eigenpairs as its own, so it is never
        decomposed: they are sorted to descending order and checked for PSD
        when first read.  Its ``values``, V diag(lambda) V^T symmetrised, are
        formed only when first read, so a caller that only solves against
        it (as ``portfolio.backtest`` does) never builds the N x N matrix."""
        out = CorrelationMatrix.__new__(CorrelationMatrix)
        out._values = None
        out._pairs = (np.array(new_eigenvalues, dtype=float),
                      self.eigenvectors)
        out.metadata = metadata or dict(self.metadata)
        return out

    def _invertible_eig(self):
        vals, vecs = self._eig
        if vals[-1] <= 1e-12:
            raise EstimatorError(
                "matrix is singular; clean it before inverting")
        return vals, vecs

    def inverse(self) -> np.ndarray:
        vals, vecs = self._invertible_eig()
        return (vecs / vals) @ vecs.T

    def solve(self, b) -> np.ndarray:
        """E^{-1} b for a vector b, as V((V^T b)/lambda), without forming
        the inverse."""
        vals, vecs = self._invertible_eig()
        return vecs @ ((vecs.T @ b) / vals)

    def sqrt(self) -> np.ndarray:
        vals, vecs = self._eig
        return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


# ---------------------------------------------------------------------------
# Estimators

def standardize(panel: ReturnPanel) -> ReturnPanel:
    """Demean and rescale every column to zero mean, unit variance."""
    values = panel.values
    if panel.T < 2:
        raise EstimatorError("need at least two observations")
    std = values.std(axis=0)
    bad = np.nonzero(std < 1e-15)[0]
    if bad.size:
        raise EstimatorError(
            f"constant column for asset {panel.asset_ids[bad[0]]}")
    out = values - values.mean(axis=0)
    out /= std
    return ReturnPanel(out, panel.asset_ids, panel.time_ids)


def pearson(panel: ReturnPanel) -> CorrelationMatrix:
    """E = X^T X with X = values/sqrt(T); requires a standardized panel."""
    if not panel.is_standardized(tol=1e-6):
        raise EstimatorError("pearson requires a standardized panel")
    E = panel.values.T @ panel.values / panel.T
    np.fill_diagonal(E, 1.0)
    return CorrelationMatrix(E, {"estimator": "pearson", "T": panel.T,
                                 "asset_ids": panel.asset_ids})


def ewma_estimator(panel: ReturnPanel, epsilon: float) -> CorrelationMatrix:
    """Exponentially weighted estimator with weights renormalized over the
    finite sample (most recent observation carries the largest weight)."""
    if not 0 < epsilon < 1:
        raise EstimatorError("epsilon must lie in (0, 1)")
    T = panel.T
    w = epsilon * (1.0 - epsilon) ** np.arange(T - 1, -1, -1, dtype=float)
    w /= w.sum()
    X = panel.values * np.sqrt(w)[:, None]
    return CorrelationMatrix(X.T @ X, {"estimator": "ewma", "epsilon": epsilon})


def student_ml(panel: ReturnPanel, mu: float, tol: float = 1e-9,
               max_iter: int = 500) -> CorrelationMatrix:
    """Maximum-likelihood correlation matrix under the multivariate Student
    model with tail index mu.

    The fixed point of ``C = ((N+mu)/T) sum_t r_t r_t^T / (mu + r_t^T C^{-1}
    r_t)`` is found as a fixed point of the T Student weights
    ``w_t = (N+mu) / (T (mu + r_t^T C(w)^{-1} r_t))`` with
    ``C(w) = R^T diag(w) R``, from the Pearson start ``w = 1/T``.  The
    quadratic forms come from one Cholesky factor of ``C(w)`` and one
    triangular solve.  Each new weight vector is the Anderson mixture of the
    last ``ANDERSON_DEPTH`` steps of the weight map; the plain step is taken
    instead (and counted as a fallback) when a mixed iterate has a weight
    <= 0 or a larger residual than the current one.

    ``tol`` bounds the distance to the fixed point, in max-abs entries of C:
    the loop stops when the plain-map step ``s`` satisfies
    ``s / (1 - rho) <= tol``, with ``rho`` the largest secant contraction
    ratio of the map observed over the recent iterates, and returns the plain
    image of the last iterate.  Raises ``EstimatorError`` on a singular
    iterate and after ``max_iter`` iterations.
    """
    if mu <= 2:
        raise EstimatorError("mu must exceed 2")
    if not panel.is_standardized(tol=1e-6):
        raise EstimatorError("student_ml requires a standardized panel")
    started = time.perf_counter()
    R = panel.values
    T, N = R.shape
    # one T x N buffer holds the scaled panel of each Gram matrix and the
    # right-hand sides of each triangular solve
    work = np.empty((T, N))

    def gram(w):
        # lower triangle of R^T diag(w) R; the upper one stays zero
        np.multiply(R, np.sqrt(w)[:, None], out=work)
        return blas.dsyrk(1.0, work.T, lower=1)

    def weight_map(C):
        L, info = lapack.dpotrf(C, lower=1)
        if info == 0:
            np.copyto(work, R)
            Y, info = lapack.dtrtrs(L, work.T, lower=1, overwrite_b=1)
        if info != 0:
            raise EstimatorError("singular iterate in student_ml")
        return (N + mu) / (T * (mu + np.einsum("ij,ij->j", Y, Y)))

    def evaluate(w):
        C = gram(w)
        g = weight_map(C)
        Cg = gram(g)
        return w, C, g, Cg, _max_gap(Cg, C)

    state = evaluate(np.full(T, 1.0 / T))
    d_res, d_img, rates = [], [], []
    stats = dict(n=N, t=T, iterations=0, step=state[-1], bound=np.inf,
                 fallbacks=0)
    for iteration in range(1, max_iter + 1):
        w, C, g, Cg, step = state
        rho = max(rates, default=1.0)
        bound = step / (1.0 - rho) if rho < 1.0 else np.inf
        stats.update(iterations=iteration, step=step, bound=bound)
        if bound <= tol:
            _log_student_ml(stats, started)
            return CorrelationMatrix(Cg + np.tril(Cg, -1).T,
                                     {"estimator": "student_ml", "mu": mu})
        mixed = None
        if d_res:
            gamma = np.linalg.lstsq(np.column_stack(d_res), g - w,
                                    rcond=None)[0]
            candidate = g - np.column_stack(d_img) @ gamma
            if np.all(candidate > 0):
                mixed = evaluate(candidate)
            if mixed is None or mixed[-1] > step:
                stats["fallbacks"] += 1
                mixed = None
                d_res.clear()
                d_img.clear()
        state = mixed or evaluate(g)
        w_new, C_new, g_new, Cg_new, _ = state
        d_res.append((g_new - w_new) - (g - w))
        d_img.append(g_new - g)
        moved = _max_gap(C_new, C)
        # a secant across a move at rounding level measures only noise
        if moved > 1e-13 * np.max(np.abs(C)):
            rates.append(_max_gap(Cg_new, Cg) / moved)
        del d_res[:-ANDERSON_DEPTH], d_img[:-ANDERSON_DEPTH]
        del rates[:-ANDERSON_DEPTH]
    _log_student_ml(stats, started)
    raise EstimatorError(
        f"student_ml did not converge in {max_iter} iterations "
        f"(last residual {stats['step']:.2e}, "
        f"error bound {stats['bound']:.2e})")


def _max_gap(A, B):
    gap = A - B
    return float(np.max(np.abs(gap, out=gap)))


def _require_psd(vals):
    """Descending eigenvalues ``vals``, unless the last is below -1e-10."""
    if vals[-1] < -1e-10:
        raise EstimatorError(
            f"matrix is not PSD (min eigenvalue {vals[-1]:.2e})")
    return vals


def _log_student_ml(stats, started):
    stats["seconds"] = time.perf_counter() - started
    logger.debug("student_ml: N=%(n)d T=%(t)d iterations=%(iterations)d "
                 "step=%(step).3e bound=%(bound).3e fallbacks=%(fallbacks)d "
                 "seconds=%(seconds).3f", stats)


def dual_spectrum_check(panel: ReturnPanel):
    """Compare the N x N spectrum with the (rescaled) T x T dual spectrum.

    Returns (eigs_N, eigs_T_rescaled, max_relative_gap) over the shared
    non-zero eigenvalues.
    """
    R = panel.values
    T, N = R.shape
    E = R.T @ R / T
    Edual = R @ R.T / N  # T x T dual, eigenvalues (T/N) * lambda
    eigs_n = np.sort(np.linalg.eigvalsh(E))[::-1]
    eigs_t = np.sort(np.linalg.eigvalsh(Edual))[::-1] * (N / T)
    k = min(N, T)
    a, b = eigs_n[:k], eigs_t[:k]
    scale = max(a[0], 1e-30)
    keep = (a > 1e-12 * scale) & (b > 1e-12 * scale)
    gap = np.max(np.abs(a[keep] - b[keep]) / a[keep]) if keep.any() else 0.0
    return eigs_n, eigs_t, float(gap)


@dataclass(frozen=True)
class EigenportfolioRow:
    eigenvalue: float
    realized_variance: float
    max_abs_cross_covariance: float


def eigenportfolio_report(E: CorrelationMatrix, panel: ReturnPanel):
    """Realized variance and mutual covariances of the eigenportfolios.

    For E estimated from this panel the realized variance of portfolio alpha
    equals its eigenvalue, and different eigenportfolios are uncorrelated.
    """
    P = panel.values @ E.eigenvectors  # T x N portfolio returns
    cov = P.T @ P / panel.T
    rows = []
    for a in range(E.N):
        cross = np.abs(np.delete(cov[a], a))
        rows.append(EigenportfolioRow(
            float(E.eigenvalues[a]), float(cov[a, a]),
            float(cross.max()) if cross.size else 0.0))
    return rows


def eigenvector_kurtosis(E: CorrelationMatrix) -> np.ndarray:
    """Excess kurtosis of the components of each eigenvector, by rank.

    Rotationally invariant (Haar) eigenvectors give values near zero;
    localized eigenvectors give large positive values.
    """
    return kurtosis(E.eigenvectors, axis=0, fisher=True, bias=True)
