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
    "residual_test",
]


@dataclass(frozen=True)
class RiskReport:
    in_sample: float
    out_of_sample: float
    true_risk: float | None = None


def markowitz_weights(C: CorrelationMatrix, g: np.ndarray) -> np.ndarray:
    """Minimum-risk weights at unit expected gain (w^T g = 1):
    w = C^{-1} g / (g^T C^{-1} g)."""
    g = np.asarray(g, dtype=float)
    if not np.any(g):
        raise ValueError("predicted-gain vector g must be non-zero")
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
    g = np.asarray(g, dtype=float)
    Einv_g = E.solve(g)
    denom = g @ Einv_g
    r_in = 1.0 / math.sqrt(denom)
    if C_true is None:
        return RiskReport(r_in, float("nan"))
    r_true = 1.0 / math.sqrt(g @ C_true.solve(g))
    r_out = math.sqrt(Einv_g @ (C_true.values @ Einv_g)) / denom
    return RiskReport(r_in, r_out, r_true)


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


def _window_estimates(panel: ReturnPanel, scheme: CleaningScheme | None,
                      window: int, horizon: int, step: int):
    """Checks the arguments, then yields (t, sigma, X, E) at each rebalance
    date t: the trailing ``window`` days X standardized by their volatility
    sigma, and their correlation matrix E cleaned with ``scheme``."""
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

    def estimates():
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
            yield t, sigma, X, E

    return estimates()


def backtest(panel: ReturnPanel, scheme: CleaningScheme | None,
             window: int = 1000, horizon: int = 99, step: int = 100,
             predictor: str = "momentum", seed=None):
    """Rolling minimum-variance backtest.

    At each rebalance date t: estimate E on the trailing ``window`` days,
    clean it with ``scheme`` (None = raw), take the predictor g from day-t
    returns normalized to unit length, set w = E^{-1}g/(g^T E^{-1}g), and
    measure the realized variance of sum_i (w_i/sigma_i) r_i over the next
    ``horizon`` days, with sigma_i the trailing-window volatility.  Returns
    (rows, mean_in_risk2, mean_out_risk2).

    ``predictor='random'`` replaces g by a unit-norm random vector (requires
    a seed).
    """
    estimates = _window_estimates(panel, scheme, window, horizon, step)
    if predictor not in ("momentum", "random"):
        raise ValueError("predictor must be 'momentum' or 'random'")
    rng = np.random.default_rng(seed) if predictor == "random" else None
    if predictor == "random" and seed is None:
        raise ValueError("random predictor requires a seed")
    rows = []
    for t, sigma, _, E in estimates:
        if predictor == "momentum":
            g = panel.values[t] / sigma
        else:
            g = rng.standard_normal(panel.N)
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


def residual_test(panel: ReturnPanel, scheme: CleaningScheme | None,
                  window: int = 1000, horizon: int = 99,
                  step: int = 100) -> tuple[float, float]:
    """Per-stock conditional-variance test.

    The cleaned matrix predicts the residual variance of stock i given all
    others as 1/(E^{-1})_ii.  Returns (mean predicted/realized in-window,
    mean predicted/realized out-of-window) averaged over stocks and dates;
    both near 1 means the cleaned matrix explains cross-sectional structure
    well.
    """
    in_ratios, out_ratios = [], []
    for t, sigma, X, E in _window_estimates(panel, scheme, window, horizon,
                                            step):
        Einv = E.inverse()
        d = np.diag(Einv)
        predicted = 1.0 / d
        # residual of the regression of stock i on the others implied by the
        # matrix: residual_i = (E^{-1} x)_i / (E^{-1})_ii, unit diagonal in B
        B = Einv / d[:, None]
        fut = (panel.values[t + 1:t + 1 + horizon] / sigma)
        realized_in = np.mean((X @ B.T) ** 2, axis=0)
        realized_out = np.mean((fut @ B.T) ** 2, axis=0)
        in_ratios.append(np.mean(predicted / np.clip(realized_in, 1e-12, None)))
        out_ratios.append(np.mean(predicted / np.clip(realized_out, 1e-12, None)))
    return float(np.mean(in_ratios)), float(np.mean(out_ratios))
