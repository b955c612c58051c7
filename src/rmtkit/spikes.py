"""Outlier eigenvalue theory: spike maps for Wigner and sample-correlation
matrices, soft-edge fluctuation scales, heavy-tail regimes and a spike
detector."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .estimators import CorrelationMatrix

__all__ = [
    "EdgeScaling",
    "SpikeReport",
    "Outlier",
    "bbp_map_mp",
    "bbp_map_wigner",
    "invert_spike_mp",
    "edge_scaling_mp",
    "edge_scaling_wigner",
    "heavy_tail_regime",
    "HeavyTailRegime",
    "detect_spikes",
]


@dataclass(frozen=True)
class EdgeScaling:
    """Soft-edge location and fluctuation scale.

    The largest eigenvalue of a null matrix fluctuates on the scale
    ``gamma * N^(-width_exponent)`` around ``lambda_plus``.  For an edge
    density vanishing like ``(lambda_plus - lambda)^theta`` the width
    exponent is 1/(1 + theta); the square-root edge (theta = 1/2) gives 2/3.
    """

    lambda_plus: float
    gamma: float
    N: int
    theta: float = 0.5

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")

    @property
    def width_exponent(self) -> float:
        return 1.0 / (1.0 + self.theta)

    @property
    def scale(self) -> float:
        """Absolute fluctuation scale gamma * N^(-width_exponent)."""
        return self.gamma * self.N ** (-self.width_exponent)

    def threshold(self, u: float) -> float:
        return self.lambda_plus + u * self.scale


def edge_scaling_mp(q: float, N: int) -> EdgeScaling:
    """Soft-edge scaling of a null sample correlation matrix:
    lambda_+ = (1+sqrt(q))^2, gamma = sqrt(q) lambda_+^(2/3)."""
    if q <= 0 or N <= 0:
        raise ValueError("q and N must be positive")
    lam_plus = (1.0 + np.sqrt(q)) ** 2
    return EdgeScaling(lam_plus, np.sqrt(q) * lam_plus ** (2.0 / 3.0), N)


def edge_scaling_wigner(N: int) -> EdgeScaling:
    """Wigner variant: lambda_+ = 2, gamma = 1."""
    return EdgeScaling(2.0, 1.0, N)


# ---------------------------------------------------------------------------
# Spike maps

def bbp_map_mp(Lambda: float, q: float) -> float:
    """Location of the sample top eigenvalue for a true spike Lambda.

    Above the condensation threshold 1 + sqrt(q) the spike detaches to
    Lambda + Lambda*q/(Lambda - 1); below it sticks to the bulk edge."""
    if Lambda <= 0 or q <= 0:
        raise ValueError("Lambda and q must be positive")
    if Lambda <= 1.0 + np.sqrt(q):
        return (1.0 + np.sqrt(q)) ** 2
    return Lambda + Lambda * q / (Lambda - 1.0)


def bbp_map_wigner(Lambda: float) -> tuple[float, float]:
    """(top eigenvalue, squared eigenvector overlap) for a rank-one
    perturbation of a Wigner matrix."""
    if Lambda <= 1.0:
        return 2.0, 0.0
    return Lambda + 1.0 / Lambda, 1.0 - Lambda ** (-2)


def invert_spike_mp(lambda_obs: float, q: float) -> float:
    """True spike Lambda implied by an observed outlier eigenvalue.

    Inverts lambda = Lambda + Lambda*q/(Lambda-1) on the physical branch
    Lambda > 1 + sqrt(q)."""
    lam_plus = (1.0 + np.sqrt(q)) ** 2
    if lambda_obs <= lam_plus:
        raise ValueError(
            f"observed eigenvalue {lambda_obs:.6g} is inside the bulk "
            f"(edge {lam_plus:.6g})")
    b = 1.0 + lambda_obs - q
    disc = b * b - 4.0 * lambda_obs
    disc = max(disc, 0.0)
    return 0.5 * (b + np.sqrt(disc))


# ---------------------------------------------------------------------------
# Heavy tails

@dataclass(frozen=True)
class HeavyTailRegime:
    label: str  # TracyWidom | Frechet | Marginal
    mu: float
    lambda_max_exponent: float | None = None  # N-growth exponent, Frechet only
    note: str = ""


def heavy_tail_regime(mu: float) -> HeavyTailRegime:
    """Classify the largest-eigenvalue statistics by the element tail index.

    mu > 4: Tracy-Widom; 2 < mu < 4: Frechet with lambda_max growing as
    N^(2/mu - 1/2); mu = 4: marginal mixture."""
    if mu <= 2:
        raise ValueError("mu <= 2 (infinite-variance regime) is unsupported")
    if mu > 4:
        return HeavyTailRegime("TracyWidom", mu)
    if mu == 4:
        return HeavyTailRegime(
            "Marginal", mu,
            note="delta peak at the bulk edge 2 plus a transformed Frechet tail")
    return HeavyTailRegime("Frechet", mu, lambda_max_exponent=2.0 / mu - 0.5)


# ---------------------------------------------------------------------------
# Detector

@dataclass(frozen=True)
class Outlier:
    index: int
    eigenvalue: float
    implied_spike: float
    overlap_estimate: float  # 1 - Lambda^-2, Wigner-derived heuristic


@dataclass(frozen=True)
class SpikeReport:
    outliers: tuple
    threshold: float
    edge: EdgeScaling
    q: float
    u_threshold: float

    def to_text(self) -> str:
        lines = [
            f"# spike report: q={self.q:.6g} N={self.edge.N} "
            f"threshold={self.threshold:.6g} (u={self.u_threshold:.3g})",
            f"# bulk edge {self.edge.lambda_plus:.6g}, "
            f"fluctuation scale {self.edge.scale:.3e}",
            "# overlap estimates use the Wigner formula 1 - Lambda^-2 "
            "(heuristic for correlation spikes)",
        ]
        if not self.outliers:
            lines.append("no outliers")
        for o in self.outliers:
            lines.append(
                f"outlier rank={o.index} lambda={o.eigenvalue:.6g} "
                f"implied_spike={o.implied_spike:.6g} "
                f"overlap~={o.overlap_estimate:.4f}")
        return "\n".join(lines) + "\n"


def detect_spikes(E: CorrelationMatrix, q: float,
                  u_threshold: float = 3.0) -> SpikeReport:
    """Flag eigenvalues above the bulk edge plus ``u_threshold`` fluctuation
    scales and report the implied true spikes.

    The overlap estimate reuses the Wigner formula (no closed form is
    implemented for correlation spikes) and is labelled a heuristic.  Only
    eigenvalues are read, so ``E.spectrum()`` takes them without the
    eigenvectors.
    """
    edge = edge_scaling_mp(q, E.N)
    threshold = edge.threshold(u_threshold)
    outliers = []
    for rank, lam in enumerate(E.spectrum(), start=1):
        if lam <= threshold:
            break
        implied = invert_spike_mp(float(lam), q)
        outliers.append(Outlier(rank, float(lam), implied,
                                max(0.0, 1.0 - implied ** (-2))))
    return SpikeReport(tuple(outliers), threshold, edge, q, u_threshold)
