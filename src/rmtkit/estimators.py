"""Return panels, the correlation-matrix container and empirical
correlation estimators."""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import blas, lapack

__all__ = [
    "ReturnPanel",
    "CorrelationMatrix",
    "EstimatorError",
    "standardize",
    "pearson",
    "ewma_estimator",
    "student_ml",
]


class EstimatorError(ValueError):
    pass


logger = logging.getLogger(__name__)

# student_ml's stop reads the largest secant contraction ratio among this
# many recent iterates
RATE_WINDOW = 6
# largest |column mean| and |column variance - 1| of a standardized panel
STANDARDIZED_TOL = 1e-6


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

    def is_standardized(self) -> bool:
        return not _unstandardized(self.values).any()


def _unstandardized(values):
    """Which columns miss zero mean or unit variance by STANDARDIZED_TOL.

    The variance is read as the mean square less the squared mean, which
    forms no T x N temporary; where the mean passes it cancels nothing."""
    mu = values.mean(axis=0)
    var = np.einsum("ij,ij->j", values, values) / values.shape[0] - mu * mu
    return ~((np.abs(mu) < STANDARDIZED_TOL)
             & (np.abs(var - 1) < STANDARDIZED_TOL))


class _Eigenbasis:
    """The eigenvectors of a symmetric matrix A, held in factored form.

    ``dsytrd`` reduces A to a tridiagonal T = Q^T A Q and keeps Q as its
    Householder reflectors; ``dstevd`` gives T's eigenpairs, T = Z diag(lam)
    Z^T.  The eigenvectors of A are the columns of Q Z.  ``solve`` applies
    them to a few vectors at O(N^2) each; the dense N x N matrix
    (``vectors``) costs one N^3 back-transformation (``dormqr``) and is formed
    only when first read (LAPACK Users' Guide, section 2.4.4).
    """

    def __init__(self, a):
        n = a.shape[0]
        lwork = int(lapack.dsytrd_lwork(n, lower=1)[0])
        c, d, e, tau, _ = lapack.dsytrd(a, lower=1, lwork=lwork)
        # Q fixes e_1; its reflectors are dormqr's on rows and columns 1..
        self._refl = np.asfortranarray(c[1:, :-1])
        self._tau = tau
        del c  # before dstevd takes its N x N workspace
        if n > 1:
            lam, z, info = lapack.dstevd(d, e)
            if info > 0:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
        else:  # dstevd's wrapper rejects a 1 x 1 tridiagonal
            lam, z = d, np.ones((1, 1), order="F")
        self._z = z
        # descending columns of Q Z, the order of ``vectors``
        self.order = np.argsort(lam)[::-1]
        self.eigenvalues = lam[self.order]

    def _reflect(self, trans, c, lwork):
        """Q c ('N') or Q^T c ('T'), in place, for an N x k array c."""
        if c.shape[0] > 1:
            c[1:] = lapack.dormqr("L", trans, self._refl, self._tau, c[1:],
                                  lwork, overwrite_c=1)[0]
        return c

    @cached_property
    def vectors(self):
        """Q Z in descending order, each column's largest-magnitude
        component made positive.

        ``dormqr`` runs on the unsorted Z with dsyevd's own workspace, N^2 +
        4N + 1: below N = 80 that is less than its optimal workspace, which
        changes its blocking.  So the columns equal ``np.linalg.eigh``'s bit
        for bit."""
        n = self._z.shape[0]
        vecs = self._reflect("N", self._z.copy(order="F"), n * n + 4 * n + 1)
        vecs = vecs[:, self.order]
        cols = np.arange(n)
        flip = vecs[np.argmax(np.abs(vecs), axis=0), cols] < 0
        vecs[:, flip] *= -1.0
        return vecs

    def solve(self, w, cols, b):
        """(Q Z) diag(1/w) (Q Z)^T b for an N or N x k array b, where w[k]
        belongs to column ``cols[k]`` of ``vectors`` (column k if ``cols`` is
        None).  ``vectors``' sign flips cancel, so Z is used unsorted."""
        lam = np.empty_like(w)
        lam[self.order if cols is None else self.order[cols]] = w
        b = np.array(b, dtype=float)
        c = b.reshape(b.shape[0], -1)
        # a workspace of one row of c selects dormqr's unblocked path, O(N^2)
        # per column; the blocked one adds O(32 N^2) for its triangular
        # factors, which pays only for a dozen columns or more
        k = c.shape[1]
        y = self._z.T @ self._reflect("T", c, k)
        y /= lam[:, None]
        return self._reflect("N", self._z @ y, k).reshape(b.shape)


class CorrelationMatrix:
    """Symmetric PSD correlation matrix with a cached eigendecomposition.

    Built from ``values``, the matrix is checked for symmetry and finite
    entries (an exactly symmetric float array is held as given, not copied).
    Its eigenpairs come from ``dsytrd`` and ``dstevd`` when first read, kept
    in factored form (``_Eigenbasis``): ``eigenvalues`` and ``solve`` never
    form the dense eigenvectors, which one ``dormqr`` builds when
    ``eigenvectors``, ``inverse`` or ``sqrt`` first reads them.  A matrix
    built by ``with_spectrum`` holds eigenvalues on its parent's basis
    instead, and forms ``values`` only when they are first read.
    Eigenvalues are stored in descending order; the sign of each eigenvector
    is fixed so that its largest-magnitude component is positive.
    ``asset_ids`` labels the rows and columns (empty for unlabelled).
    """

    def __init__(self, values, asset_ids=()):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise EstimatorError("correlation matrix must be square")
        # the gap is NaN exactly when an entry is NaN or infinite (inf - inf)
        with np.errstate(invalid="ignore"):
            asym = _max_gap(values, values.T) if values.size else 0.0
        if np.isnan(asym):
            raise EstimatorError("correlation matrix has non-finite entries")
        if asym > 1e-10:
            raise EstimatorError(f"matrix is not symmetric (max gap {asym:.2e})")
        if asym:  # an exactly symmetric matrix is kept: 0.5 * (a + a) == a
            values = 0.5 * (values + values.T)
        self._values = values
        # a held spectrum: eigenvalue k belongs to column _cols[k] of the
        # basis' vectors (column k if _cols is None)
        self._held = self._cols = None
        self.asset_ids = tuple(asset_ids)

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            vecs = self._tri.vectors
            if self._cols is not None:
                vecs = vecs[:, self._cols]
            m = (vecs * self._held) @ vecs.T
            self._values = 0.5 * (m + m.T)
        return self._values

    @property
    def N(self) -> int:
        return (self._values if self._held is None else self._held).shape[0]

    @cached_property
    def _tri(self):
        return _Eigenbasis(self.values)

    @cached_property
    def _sorted(self):
        """The eigenvalues in descending order, checked for PSD, and the
        columns of ``_tri.vectors`` they belong to (None: in order)."""
        if self._held is None:
            return _require_psd(self._tri.eigenvalues), None
        # a held spectrum is re-sorted with a stable sort; the vectors are
        # the parent's, permuted (a copy) only if the order changes, which
        # it never does for clip
        vals, cols = self._held, self._cols
        order = np.argsort(-vals, kind="stable")
        if np.any(order != np.arange(order.size)):
            vals = vals[order]
            cols = order if cols is None else cols[order]
        return _require_psd(vals), cols

    @cached_property
    def _eig(self):
        vals, cols = self._sorted
        vecs = self._tri.vectors
        return vals, (vecs if cols is None else vecs[:, cols])

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._sorted[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._eig[1]

    def with_spectrum(self, new_eigenvalues) -> "CorrelationMatrix":
        """The matrix with this one's eigenvectors and asset ids and new
        eigenvalues, the k-th handed for this one's k-th largest.

        It shares this one's factored basis and is never decomposed: its
        eigenvalues are sorted and checked for PSD when first read, ``solve``
        forms no dense eigenvectors, and its ``values`` (V diag(lambda) V^T
        from the pairs as handed, symmetrised) are formed only when read, so
        a caller that only solves (``portfolio.backtest``) builds no N x N
        matrix.  Eigenvalues tied within rounding (runs of this one's sorted
        eigenvalues with gaps at most ``N * eps * max|lambda|``) share the
        mean of the values handed for them: E sets only a cluster's
        projector, not the basis rounding picks inside it (Kato, ch. II)."""
        vals, cols = self._sorted
        new = np.array(new_eigenvalues, dtype=float)
        tol = vals.size * np.finfo(float).eps * np.abs(vals).max()
        starts = np.flatnonzero(np.r_[True, vals[:-1] - vals[1:] > tol])
        if starts.size < vals.size:  # a cluster handed one value keeps it
            counts = np.diff(np.r_[starts, vals.size])
            first = np.repeat(new[starts], counts)
            new = first + np.repeat(
                np.add.reduceat(new - first, starts) / counts, counts)
        out = CorrelationMatrix.__new__(CorrelationMatrix)
        out._values, out._held, out._cols = None, new, cols
        out.__dict__["_tri"] = self._tri
        out.asset_ids = self.asset_ids
        return out

    def _invertible(self):
        vals, cols = self._sorted
        if vals[-1] <= 1e-12:
            raise EstimatorError(
                "matrix is singular; clean it before inverting")
        return vals, cols

    def inverse(self) -> np.ndarray:
        vals, _ = self._invertible()
        vecs = self.eigenvectors
        return (vecs / vals) @ vecs.T

    def solve(self, b) -> np.ndarray:
        """E^{-1} b for an N-vector or N x k matrix b, without forming the
        inverse or the dense eigenvectors: Q Z ((Z^T Q^T b) / lambda), with
        Q applied as reflectors (``_Eigenbasis.solve``)."""
        vals, cols = self._invertible()
        return self._tri.solve(vals, cols, b)

    def sqrt(self) -> np.ndarray:
        vals, vecs = self._eig
        return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


# ---------------------------------------------------------------------------
# Estimators

def standardize(panel: ReturnPanel) -> ReturnPanel:
    """Demean and rescale every column to zero mean, unit variance.

    The result passes ``is_standardized``, or ``EstimatorError`` names the
    first column that cannot be standardized."""
    values = panel.values
    if panel.T < 2:
        raise EstimatorError("need at least two observations")
    mean = values.mean(axis=0)
    std = values.std(axis=0)
    bad = np.nonzero(_constant(std, mean, panel.T))[0]
    if bad.size:
        raise EstimatorError(
            f"constant column for asset {panel.asset_ids[bad[0]]}")
    out = values - mean
    out /= std
    # the rounding of the mean leaves a residual of up to about
    # n * eps * |mean| / std in the output: a column whose spread is small
    # against its level is centred and scaled a second time
    bad = np.nonzero(_unstandardized(out))[0]
    if bad.size:
        col = out[:, bad]
        col -= col.mean(axis=0)
        col /= col.std(axis=0)
        out[:, bad] = col
        bad = bad[_unstandardized(col)]
        if bad.size:
            raise EstimatorError(
                f"cannot standardize the column for asset "
                f"{panel.asset_ids[bad[0]]}")
    return ReturnPanel(out, panel.asset_ids, panel.time_ids)


def _constant(std, mean, n):
    """Which columns of n rows with these stds and means are constant.

    A column held at a level a reads a std of up to n * eps * |a|, the
    rounding of its summed mean, so the bound scales with the level."""
    return std <= np.maximum(1e-15, n * np.finfo(float).eps * np.abs(mean))


def pearson(panel: ReturnPanel) -> CorrelationMatrix:
    """E = X^T X with X = values/sqrt(T); requires a standardized panel."""
    if not panel.is_standardized():
        raise EstimatorError("pearson requires a standardized panel")
    return CorrelationMatrix(_corr(panel.values), panel.asset_ids)


def _corr(X: np.ndarray) -> np.ndarray:
    """X^T X / T with a unit diagonal, for a standardized T x N block X."""
    E = X.T @ X / X.shape[0]
    np.fill_diagonal(E, 1.0)
    return E


def ewma_estimator(panel: ReturnPanel, epsilon: float) -> CorrelationMatrix:
    """Exponentially weighted estimator with weights renormalized over the
    finite sample (most recent observation carries the largest weight)."""
    if not 0 < epsilon < 1:
        raise EstimatorError("epsilon must lie in (0, 1)")
    T = panel.T
    w = epsilon * (1.0 - epsilon) ** np.arange(T - 1, -1, -1, dtype=float)
    w /= w.sum()
    X = panel.values * np.sqrt(w)[:, None]
    return CorrelationMatrix(X.T @ X, panel.asset_ids)


def student_ml(panel: ReturnPanel, mu: float, tol: float = 1e-9,
               max_iter: int = 500) -> CorrelationMatrix:
    """Maximum-likelihood correlation matrix under the multivariate Student
    model with tail index mu.

    The fixed point of ``C = ((N+mu)/T) sum_t r_t r_t^T / (mu + r_t^T C^{-1}
    r_t)`` is found as a fixed point of the T Student weights
    ``w_t = (N+mu) / (T (mu + r_t^T C(w)^{-1} r_t))`` with
    ``C(w) = R^T diag(w) R``, from the Pearson start ``w = 1/T``.  The map
    returns its weights divided by their sum: at the fixed point they sum
    to 1 already (the trace of ``C^{-1} C`` is N), so the fixed point is
    the same, and the division removes the map's slow scale mode.  The
    quadratic forms come from one Cholesky factor of ``C(w)`` and one
    triangular solve.  Once two contraction ratios ``rho`` (below) are
    measured, the next weight vector is Aitken's step ``w + (g(w) - w) /
    (1 - rho)`` on the last one, where it is below 1, as in
    ``transforms._subordinate``; the plain step ``g(w)`` is taken instead,
    and a fallback counted, when that candidate has a weight <= 0 or a
    larger step than the current one.  A plain step's ``C(w)`` is the Gram
    matrix of the last image, already formed.

    ``tol`` bounds the distance to the fixed point, in max-abs entries of C:
    the loop stops when the plain-map step ``s`` satisfies
    ``s / (1 - rho) <= tol``, with ``rho`` the largest secant contraction
    ratio of the map observed over the last ``RATE_WINDOW`` iterates, and
    returns the plain image of the last iterate.  Raises ``EstimatorError``
    on a singular iterate and after ``max_iter`` iterations.
    """
    if not 2 < mu < np.inf:
        raise EstimatorError("mu must be finite and exceed 2")
    if not panel.is_standardized():
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
        g = 1.0 / (mu + np.einsum("ij,ij->j", Y, Y))
        return g / g.sum()

    def evaluate(w, C=None):
        C = gram(w) if C is None else C
        g = weight_map(C)
        Cg = gram(g)
        return w, C, g, Cg, _max_gap(Cg, C)

    state = evaluate(np.full(T, 1.0 / T))
    rates = []
    stats = dict(n=N, t=T, iterations=0, step=state[-1], bound=np.inf,
                 fallbacks=0, secant_steps=0)
    for iteration in range(1, max_iter + 1):
        w, C, g, Cg, step = state
        rho = max(rates, default=1.0)
        bound = step / (1.0 - rho) if rho < 1.0 else np.inf
        stats.update(iterations=iteration, step=step, bound=bound)
        if bound <= tol:
            _log_student_ml(stats, started)
            return CorrelationMatrix(Cg + np.tril(Cg, -1).T, panel.asset_ids)
        secant = None
        # the first rate, measured at the Pearson start, extrapolates badly
        if len(rates) >= 2 and rates[-1] < 1.0:
            candidate = w + (g - w) / (1.0 - rates[-1])
            if np.all(candidate > 0):
                secant = evaluate(candidate)
            if secant is None or secant[-1] > step:
                stats["fallbacks"] += 1
                secant = None
            else:
                stats["secant_steps"] += 1
        state = secant or evaluate(g, Cg)
        _, C_new, _, Cg_new, _ = state
        moved = _max_gap(C_new, C)
        # a secant across a move at rounding level measures only noise
        if moved > 1e-13 * np.max(np.abs(C)):
            rates.append(_max_gap(Cg_new, Cg) / moved)
        del rates[:-RATE_WINDOW]
    _log_student_ml(stats, started)
    raise EstimatorError(
        f"student_ml did not converge in {max_iter} iterations "
        f"(last residual {stats['step']:.2e}, "
        f"error bound {stats['bound']:.2e})")


def _max_gap(A, B):
    gap = A - B
    return float(np.max(np.abs(gap, out=gap)))


def _require_psd(vals):
    """Descending eigenvalues ``vals``, unless one is not finite or the last
    is below -1e-10."""
    if not np.all(np.isfinite(vals)):
        raise EstimatorError("matrix has non-finite eigenvalues")
    if vals[-1] < -1e-10:
        raise EstimatorError(
            f"matrix is not PSD (min eigenvalue {vals[-1]:.2e})")
    return vals


def _log_student_ml(stats, started):
    stats["seconds"] = time.perf_counter() - started
    logger.debug("student_ml: N=%(n)d T=%(t)d iterations=%(iterations)d "
                 "step=%(step).3e bound=%(bound).3e fallbacks=%(fallbacks)d "
                 "secant_steps=%(secant_steps)d seconds=%(seconds).3f", stats)
