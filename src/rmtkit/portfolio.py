"""Minimum-variance portfolio construction, the in/true/out-of-sample risk
measures, and a rolling out-of-sample backtest for cleaning schemes."""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .cleaning import CleaningScheme, apply_scheme
from .estimators import (CorrelationMatrix, EstimatorError, ReturnPanel,
                         _constant)

__all__ = [
    "RiskReport",
    "BacktestRow",
    "markowitz_weights",
    "risk_triple",
    "theoretical_risk_ratios",
    "backtest",
]

logger = logging.getLogger(__name__)

# backtest forms a window's sums again where a column's running variance has
# cancelled to this fraction of its mean square about the shift, or below
_CANCELLED = 1e-2


@dataclass(frozen=True)
class RiskReport:
    in_sample: float
    out_of_sample: float
    true_risk: float | None = None


def markowitz_weights(C: CorrelationMatrix, g: np.ndarray) -> np.ndarray:
    """Minimum-risk weights at unit expected gain (w^T g = 1):
    w = C^{-1} g / (g^T C^{-1} g)."""
    g = _nonzero_gain(g)
    Cg = C.solve(g)
    return Cg / (g @ Cg)


def risk_triple(E: CorrelationMatrix, C_true: CorrelationMatrix | None,
                g: np.ndarray) -> RiskReport:
    """In-sample risk from the estimate E; true and out-of-sample risks when
    the population matrix is known, all at unit expected gain.

    R^2_in = 1/(g^T E^{-1} g); R^2_true = 1/(g^T C^{-1} g);
    R^2_out = g^T E^{-1} C E^{-1} g / (g^T E^{-1} g)^2.  Returned values
    are risks (square roots).
    """
    g = _nonzero_gain(g)
    Einv_g = E.solve(g)
    denom = g @ Einv_g
    r_in = 1.0 / math.sqrt(denom)
    if C_true is None:
        return RiskReport(r_in, float("nan"))
    r_true = 1.0 / math.sqrt(g @ C_true.solve(g))
    r_out = math.sqrt(Einv_g @ (C_true.values @ Einv_g)) / denom
    return RiskReport(r_in, r_out, r_true)


def _nonzero_gain(g, where=""):
    """g as a float array; a zero g has no unit-gain portfolio."""
    g = np.asarray(g, dtype=float)
    if not np.any(g):
        raise ValueError(f"predicted-gain vector g must be non-zero{where}")
    return g


def theoretical_risk_ratios(q: float) -> tuple[float, float]:
    """(R_in/R_true, R_out/R_true) = (sqrt(1-q), 1/sqrt(1-q)) for large
    minimum-variance portfolios built on a sample matrix with q = N/T."""
    if not 0.0 <= q < 1.0:
        raise ValueError(
            "q must lie in [0, 1): at q >= 1 the in-sample risk vanishes "
            "(singular estimate)")
    return math.sqrt(1.0 - q), 1.0 / math.sqrt(1.0 - q)


# ---------------------------------------------------------------------------
# Rolling backtest

@dataclass(frozen=True)
class BacktestRow:
    in_risk2: float
    out_risk2: float


def backtest(panel: ReturnPanel, scheme: CleaningScheme | None,
             window: int = 1000, horizon: int = 99, step: int = 100,
             predictor: str = "momentum", seed=None):
    """Rolling minimum-variance backtest.

    At each rebalance date t: estimate E on the trailing ``window`` days,
    standardized by their volatility sigma, clean it with ``scheme`` (None =
    raw), take the predictor g from day-t returns normalized to unit length,
    set w = E^{-1}g/(g^T E^{-1}g), and measure the realized variance of
    sum_i (w_i/sigma_i) r_i over the next ``horizon`` days.  Returns (rows,
    mean_in_risk2, mean_out_risk2).

    E comes from running sums over the window, M = sum (r - c)(r - c)^T and
    s = sum (r - c) about a fixed shift c (Welford 1962; Chan, Golub &
    LeVeque 1983): the next window adds the products of the ``step`` rows
    that enter and subtracts those of the rows that leave, and with m = s/W
    and d = 1/sigma, E = (M/W - m m^T) * (d d^T) with a unit diagonal.  The
    sums are formed again from the window itself, with c its mean and s = 0,
    at the first window, once ``window`` rows have entered since they were
    last formed (so every window when ``step >= window``), and where a
    column's variance M_ii/W - m_i^2 has cancelled to ``_CANCELLED`` of its
    mean square about c or below.  Logs one DEBUG record on the
    ``rmtkit.portfolio`` logger: windows, both kinds of rebuild, seconds.

    ``predictor='random'`` replaces g by a unit-norm random vector (requires
    a seed).  A day whose returns are all zero gives no momentum predictor
    and raises ``ValueError``.
    """
    if window < 2:
        raise ValueError("window must be at least 2 days")
    if horizon < 1:
        raise ValueError("horizon must be a positive number of days")
    if panel.T < window + horizon + 1:
        raise EstimatorError(
            f"insufficient history: need {window + horizon + 1} days, "
            f"have {panel.T}")
    if step < 1:
        raise ValueError("step must be a positive number of days")
    if predictor not in ("momentum", "random"):
        raise ValueError("predictor must be 'momentum' or 'random'")
    if predictor == "random" and seed is None:
        raise ValueError("random predictor requires a seed")
    rng = np.random.default_rng(seed) if predictor == "random" else None
    started = time.perf_counter()
    R, W = panel.values, window
    stats = dict(periodic=0, cancelled=0)
    entered = W  # rows entered since the sums were formed from a window
    rows = []
    for t in range(W, panel.T - horizon, step):
        rebuild = entered >= W
        if rebuild:
            stats["periodic"] += 1
        else:
            new = R[t - step:t] - c
            old = R[t - step - W:t - W] - c
            M += new.T @ new
            M -= old.T @ old
            s += new.sum(axis=0)
            s -= old.sum(axis=0)
            m = s / W
            msq = M.diagonal() / W
            var = msq - m * m
            rebuild = bool(np.any(var <= _CANCELLED * msq))
            stats["cancelled"] += rebuild
        if rebuild:
            hist = R[t - W:t]
            c = hist.mean(axis=0)
            X = hist - c
            M = X.T @ X
            del X  # the window's copy, which the update windows do not need
            s = np.zeros(panel.N)
            m = s
            var = M.diagonal() / W
            entered = 0
        sigma = np.sqrt(var)
        if np.any(_constant(sigma, c + m, W)):
            raise EstimatorError("constant column inside backtest window")
        d = 1.0 / sigma
        V = M / W
        V -= np.outer(m, m)
        V *= np.outer(d, d)
        np.fill_diagonal(V, 1.0)
        E = CorrelationMatrix(V)
        entered += step
        if scheme is not None:
            E = apply_scheme(E, scheme)
        if predictor == "momentum":
            g = R[t] / sigma
        else:
            g = rng.standard_normal(panel.N)
        g = _nonzero_gain(g, f" (date index {t})")
        g = g / np.linalg.norm(g)
        Einv_g = E.solve(g)
        denom = g @ Einv_g
        w = Einv_g / denom
        in_risk2 = 1.0 / denom
        fut = R[t + 1:t + 1 + horizon]
        pnl = fut @ (w / sigma)
        out_risk2 = float(np.mean(pnl ** 2))
        rows.append(BacktestRow(float(in_risk2), out_risk2))
    stats.update(windows=len(rows), seconds=time.perf_counter() - started)
    logger.debug("backtest: windows=%(windows)d periodic_rebuilds=%(periodic)d "
                 "cancellation_rebuilds=%(cancelled)d seconds=%(seconds).3f",
                 stats)
    mean_in = math.fsum(r.in_risk2 for r in rows) / len(rows)
    mean_out = math.fsum(r.out_risk2 for r in rows) / len(rows)
    return rows, mean_in, mean_out
