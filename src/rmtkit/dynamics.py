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
    correlation estimate.  Consecutive eigenvectors are sign-aligned."""

    times: np.ndarray
    lambda1: np.ndarray
    v1: np.ndarray  # steps x N, unit rows
    # angle to the reference vector, radians in [0, pi]; None without one
    theta: np.ndarray | None
    epsilon: float

    def __post_init__(self):
        for name in ("times", "lambda1", "v1", "theta"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, np.asarray(value, dtype=float))


def track_top(panel: ReturnPanel, epsilon: float,
              v_ref: np.ndarray | None = None,
              e_init: np.ndarray | None = None) -> EigenTrack:
    """Update E_t = (1-eps) E_{t-1} + eps r_t r_t^T from E_0 = I (or
    ``e_init``) and record the top eigenpair at each step.

    Up to ``kernels.STACKED_MAX_N`` assets every pair is exact.  Above it a
    step is a power iterate whose distance to the top eigenvector, estimated
    from the contraction rate of its last steps, is at most
    ``kernels.BOUND_TOL`` (0.8 ``kernels.POWER_TOL``); every
    ``kernels.FULL_EVERY``-th step is either proven to lie within an angle
    of ``POWER_TOL`` of the top eigenvector (by its residual and the
    Frobenius norm of E_t) or taken exactly.

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
    if e_init is not None:
        e_init = np.asarray(e_init, dtype=float)
        if e_init.shape != (N, N) or not np.all(np.isfinite(e_init)):
            raise ValueError(f"e_init must be a finite {N} x {N} matrix")
        # the tracker reads one triangle only
        if np.abs(e_init - e_init.T).max() > 1e-12 * np.abs(e_init).max():
            raise ValueError("e_init must be symmetric")
    lam, theta, vecs = kernels.track_top(
        np.ascontiguousarray(panel.values), epsilon, v_ref,
        e_init=e_init)
    times = np.arange(panel.T, dtype=float)
    return EigenTrack(times, lam, vecs, theta, epsilon)


def stationary_angle_density(Lambda1: float, Lambda_b: float, epsilon: float,
                             theta_grid: np.ndarray,
                             Lambda0: float | None = None) -> np.ndarray:
    """Stationary density of the angle between the tracked and the true top
    eigenvector, numerically normalized over [0, pi].

    P(theta) is proportional to
    [(1 + cos 2theta (1 - Lambda_b/Lambda1)) /
     (1 - cos 2theta (1 - Lambda1/Lambda0))]^(1/4 epsilon).

    By default ``Lambda0`` is set so that the small-angle variance of the
    density equals the stationary variance of the angle process,
    eps*Lambda1*Lambda_b / (2 (Lambda1 - Lambda_b)^2), which direct
    simulation of the tracker reproduces to a few percent.  Pass ``Lambda0``
    explicitly to evaluate other readings of the two-parameter family.
    """
    if not Lambda1 > Lambda_b > 0:
        raise ValueError("need Lambda1 > Lambda_b > 0")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if Lambda0 is None:
        # choose the denominator coefficient so that the log-density
        # curvature at theta = 0 equals -1/var with
        # var = eps*Lambda1*Lambda_b / (2 (Lambda1-Lambda_b)^2)
        a = 1.0 - Lambda_b / Lambda1
        curvature_target = 2.0 * (Lambda1 - Lambda_b) ** 2 / (Lambda1 * Lambda_b)
        Y = curvature_target - a / (1.0 + a)
        Lambda0 = Lambda1 * (1.0 + Y)
    theta_grid = np.asarray(theta_grid, dtype=float)

    def log_unnorm(th):
        c = np.cos(2.0 * th)
        num = 1.0 + c * (1.0 - Lambda_b / Lambda1)
        den = 1.0 - c * (1.0 - Lambda1 / Lambda0)
        if np.any(num <= 0) or np.any(den <= 0):
            raise ValueError("non-integrable parameter combination")
        return (np.log(num) - np.log(den)) / (4.0 * epsilon)

    fine = np.linspace(0.0, np.pi, 20001)
    lf = log_unnorm(fine)
    shift = lf.max()
    Z = np.trapezoid(np.exp(lf - shift), fine)
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
    if not Lambda1 > Lambda_b > 0 or epsilon <= 0:
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

