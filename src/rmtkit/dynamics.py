"""Exponentially weighted tracking of the top eigenpair: the simulated track,
its stationary angle distribution, and value/vector variograms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .estimators import ReturnPanel

__all__ = [
    "EigenTrack",
    "track_top",
    "stationary_angle_density",
    "theoretical_variograms",
    "empirical_variogram",
]


@dataclass(frozen=True)
class EigenTrack:
    """Time series of the top eigenpair of an exponentially weighted
    correlation estimate, one row per update, in the panel's row order.
    Consecutive eigenvectors are sign-aligned."""

    lambda1: np.ndarray
    v1: np.ndarray  # steps x N, unit rows
    # angle to the reference vector, radians in [0, pi]; None without one
    theta: np.ndarray | None

    def __post_init__(self):
        for name in ("lambda1", "v1", "theta"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, np.asarray(value, dtype=float))


def track_top(panel: ReturnPanel, epsilon: float,
              v_ref: np.ndarray | None = None,
              e_init: np.ndarray | None = None) -> EigenTrack:
    """Update E_t = (1-eps) E_{t-1} + eps r_t r_t^T from E_0 = I (or
    ``e_init``) and record the top eigenpair after each of the T updates:
    row t of the returned ``EigenTrack`` is the pair of E_t, one row per
    panel row.

    Up to ``kernels.STACKED_MAX_N`` assets every pair is exact.  Above it a
    step is a power iterate whose distance to the top eigenvector, estimated
    from the contraction rate of its last steps, is at most
    ``kernels.BOUND_TOL`` (0.8 ``kernels.POWER_TOL``); every
    ``kernels.FULL_EVERY``-th step is either proven to lie within an angle
    of ``POWER_TOL`` of the top eigenvector (by its residual and the
    Frobenius norm of E_t) or taken exactly.  When E_0 is PSD the iteration
    runs on ``E_t - sigma`` with ``sigma`` half the measured lambda_2 and
    below lambda_1 / 2, which keeps the top eigenvector dominant and
    contracts faster; otherwise ``sigma`` is 0.

    ``theta`` is the angle to ``v_ref``, and None when no ``v_ref`` is
    given.  ``v_ref`` must be a finite, non-zero vector of length N and
    ``e_init`` a finite symmetric N x N matrix; anything else raises
    ``ValueError``."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    N = panel.N
    if v_ref is not None:
        v_ref = np.asarray(v_ref, dtype=float)
        if v_ref.shape != (N,) or not np.all(np.isfinite(v_ref)):
            raise ValueError(f"v_ref must be a finite vector of length {N}")
        if not np.any(v_ref):
            raise ValueError("v_ref must be non-zero")
        v_ref = v_ref / np.linalg.norm(v_ref)
    if e_init is not None:
        e_init = np.asarray(e_init, dtype=float)
        if e_init.shape != (N, N) or not np.all(np.isfinite(e_init)):
            raise ValueError(f"e_init must be a finite {N} x {N} matrix")
        # the tracker reads one triangle only
        if np.abs(e_init - e_init.T).max() > 1e-12 * np.abs(e_init).max():
            raise ValueError("e_init must be symmetric")
    lam, vecs = kernels.track_top(np.ascontiguousarray(panel.values),
                                  epsilon, e_init=e_init)
    theta = (None if v_ref is None
             else np.arccos(np.clip(vecs @ v_ref, -1.0, 1.0)))
    return EigenTrack(lam, vecs, theta)


def stationary_angle_density(Lambda1: float, Lambda_b: float, epsilon: float,
                             theta_grid: np.ndarray) -> np.ndarray:
    """Stationary density of the angle between the tracked and the true top
    eigenvector, numerically normalized over [0, pi].

    P(theta) is proportional to
    [(2 cos^2 theta - cos 2theta Lambda_b/Lambda1) /
     (2 sin^2 theta + cos 2theta Lambda1/Lambda0)]^(1/4 epsilon),
    with ``Lambda0`` set so that the small-angle variance of the density
    equals the stationary variance of the angle process,
    eps*Lambda1*Lambda_b / (2 (Lambda1 - Lambda_b)^2), which direct
    simulation of the tracker reproduces to a few percent.  Numerator and
    denominator are positive for every Lambda1 > Lambda_b > 0.  The
    normalization integrates over a grid geometric in theta toward the peaks
    at 0 and pi and the dip at pi/2, of width about sqrt(Lambda_b / (2
    Lambda1)), which resolves them however narrow they are.
    """
    if not Lambda1 > Lambda_b > 0:
        raise ValueError("need Lambda1 > Lambda_b > 0")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    # Lambda1/Lambda0 = 1/(1 + Y) puts the log-density curvature at
    # theta = 0 at minus the inverse of that variance; Y is written with no
    # product of the two eigenvalues, which would overflow
    a = 1.0 - Lambda_b / Lambda1
    with np.errstate(over="ignore"):  # NumPy scalars overflow as floats do
        Y = 2.0 * a * (Lambda1 - Lambda_b) / Lambda_b - a / (1.0 + a)
    if not np.isfinite(Y):  # the density at theta = 0 would take log(0)
        raise ValueError(f"Lambda1/Lambda_b = {Lambda1:.3g}/{Lambda_b:.3g} "
                         "is too large: 2 Lambda1/Lambda_b overflows")
    theta_grid = np.asarray(theta_grid, dtype=float)

    def log_unnorm(th):
        c = np.cos(2.0 * th)
        num = 2.0 * np.cos(th) ** 2 - c * (Lambda_b / Lambda1)
        den = 2.0 * np.sin(th) ** 2 + c / (1.0 + Y)
        return (np.log(num) - np.log(den)) / (4.0 * epsilon)

    def toward(lo):
        # offsets from lo to pi/4 at a log step of 5e-4, on which the
        # trapezoid rule's relative error is about step^2 / 12
        n = int(np.log(np.pi / 4 / lo) / 5e-4) + 2
        return np.geomspace(lo, np.pi / 4, n)

    # P is symmetric about pi/2.  The first offset from 0 (from pi/2), 1e-4
    # of the spread or of a radian (of the dip's width), leaves a negligible
    # first segment; one below pi/2's float spacing would round to pi/2
    spread = np.sqrt(epsilon * Lambda_b / (2.0 * Lambda1)) / a
    dip = max(1e-4 * np.sqrt(Lambda_b / (2.0 * Lambda1)),
              4 * np.spacing(np.pi / 2))
    half = np.concatenate([[0.0], toward(1e-4 * min(spread, 1.0)),
                           np.pi / 2 - toward(dip)[-2::-1], [np.pi / 2]])
    lf = log_unnorm(half)
    shift = lf.max()
    Z = 2.0 * np.trapezoid(np.exp(lf - shift), half)
    return np.exp(log_unnorm(theta_grid) - shift) / Z


def theoretical_variograms(Lambda1: float, Lambda_b: float, epsilon: float,
                           tau_grid: np.ndarray):
    """Stationary-model variograms of the top eigenvalue and eigenvector:
    2 Lambda1^2 eps (1 - e^{-eps tau}) and
    eps Lambda1 Lambda_b / (Lambda1 - Lambda_b)^2 (1 - e^{-eps tau}).

    Both follow from first-order perturbation of E_t: the off-diagonal entry
    is an AR(1) process with coefficient 1 - eps, so the angle
    theta ~ E_12 / (Lambda1 - Lambda_b) has the stationary variance
    eps Lambda1 Lambda_b / (2 (Lambda1 - Lambda_b)^2) that
    ``stationary_angle_density`` is built on, and the sign-aligned variogram
    2 - 2|cos dtheta| saturates at twice that variance.
    """
    if not (Lambda1 > Lambda_b > 0 and epsilon > 0):
        raise ValueError("need Lambda1 > Lambda_b > 0 and epsilon > 0")
    tau = np.asarray(tau_grid, dtype=float)
    decay = 1.0 - np.exp(-epsilon * tau)
    return (2.0 * Lambda1 ** 2 * epsilon * decay,
            epsilon * Lambda1 * Lambda_b / (Lambda1 - Lambda_b) ** 2 * decay)


def empirical_variogram(track: EigenTrack, tau_grid):
    """Mean squared lag-tau changes of the tracked eigenvalue and (sign
    aligned) eigenvector, averaged over all T - tau pairs at every lag.

    Every lag-tau pair of a stationary track has the same expectation, so
    the all-pairs mean is unbiased and has the smallest variance."""
    lam, v = track.lambda1, track.v1
    steps = len(lam)
    tau_grid = np.asarray(tau_grid)
    val = np.zeros(len(tau_grid))
    vec = np.zeros(len(tau_grid))
    for i, tau in enumerate(tau_grid):
        tau = int(tau)
        if tau <= 0:
            continue
        if tau >= steps:
            raise ValueError(f"lag {tau} exceeds track length {steps}")
        val[i] = float(np.mean((lam[tau:] - lam[:-tau]) ** 2))
        overlap = np.abs(np.einsum("ij,ij->i", v[tau:], v[:-tau]))
        vec[i] = float(np.mean(2.0 - 2.0 * overlap))
    return val, vec

