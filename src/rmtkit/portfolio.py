"""Minimum-variance portfolio construction, the in/true/out-of-sample risk
measures, and a rolling out-of-sample backtest for cleaning schemes."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cleaning import CleaningScheme, apply_scheme
from .estimators import CorrelationMatrix, EstimatorError, ReturnPanel, _corr

__all__ = [
    "RiskReport",
    "BacktestRow",
    "markowitz_weights",
    "risk_triple",
    "theoretical_risk_ratios",
    "backtest",
]


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
    date_index: int
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
    rows = []
    for t in range(window, panel.T - horizon, step):
        hist = panel.values[t - window:t]
        sigma = hist.std(axis=0)
        if np.any(sigma < 1e-15):
            raise EstimatorError("constant column inside backtest window")
        X = hist - hist.mean(axis=0)
        X /= sigma
        E = CorrelationMatrix(_corr(X))
        if scheme is not None:
            E = apply_scheme(E, scheme)
        if predictor == "momentum":
            g = panel.values[t] / sigma
        else:
            g = rng.standard_normal(panel.N)
        g = _nonzero_gain(g, f" (date index {t})")
        g = g / np.linalg.norm(g)
        Einv_g = E.solve(g)
        denom = g @ Einv_g
        w = Einv_g / denom
        in_risk2 = 1.0 / denom
        fut = panel.values[t + 1:t + 1 + horizon]
        pnl = fut @ (w / sigma)
        out_risk2 = float(np.mean(pnl ** 2))
        rows.append(BacktestRow(t, float(in_risk2), out_risk2))
    mean_in = math.fsum(r.in_risk2 for r in rows) / len(rows)
    mean_out = math.fsum(r.out_risk2 for r in rows) / len(rows)
    return rows, mean_in, mean_out
