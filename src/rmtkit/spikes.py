"""Outlier eigenvalue theory: the spike map of sample-correlation matrices,
the soft-edge fluctuation scale and a spike detector."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import CorrelationMatrix

__all__ = [
    "EdgeScaling",
    "SpikeReport",
    "Outlier",
    "bbp_map_mp",
    "invert_spike_mp",
    "edge_scaling_mp",
    "detect_spikes",
]


@dataclass(frozen=True)
class EdgeScaling:
    """Soft-edge location and fluctuation scale.

    The largest eigenvalue of a null matrix fluctuates on the scale
    ``gamma * N^(-2/3)`` around ``lambda_plus``: an edge density vanishing
    like ``(lambda_plus - lambda)^theta`` gives the exponent 1/(1 + theta),
    and the square-root edge (theta = 1/2) 2/3.
    """

    lambda_plus: float
    gamma: float
    N: int

    def __post_init__(self):
        if not 0 < self.gamma < np.inf:
            raise ValueError("gamma must be positive and finite")
        if self.N < 1:
            raise ValueError("N must be positive")

    @property
    def scale(self) -> float:
        """Absolute fluctuation scale gamma * N^(-2/3)."""
        return self.gamma * self.N ** (-2.0 / 3.0)

    def threshold(self, u: float) -> float:
        return self.lambda_plus + u * self.scale


def edge_scaling_mp(q: float, N: int) -> EdgeScaling:
    """Soft-edge scaling of a null sample correlation matrix:
    lambda_+ = (1+sqrt(q))^2, gamma = sqrt(q) lambda_+^(2/3)."""
    if not 0 < q < np.inf:
        raise ValueError("q must be positive and finite")
    lam_plus = (1.0 + np.sqrt(q)) ** 2
    return EdgeScaling(lam_plus, np.sqrt(q) * lam_plus ** (2.0 / 3.0), N)


# ---------------------------------------------------------------------------
# Spike maps

def bbp_map_mp(Lambda: float, q: float) -> float:
    """Location of the sample top eigenvalue for a true spike Lambda.

    Above the condensation threshold 1 + sqrt(q) the spike detaches to
    Lambda + Lambda*q/(Lambda - 1); below it sticks to the bulk edge."""
    if not (0 < Lambda < np.inf and 0 < q < np.inf):
        raise ValueError("Lambda and q must be positive and finite")
    if Lambda <= 1.0 + np.sqrt(q):
        return (1.0 + np.sqrt(q)) ** 2
    return Lambda + Lambda * q / (Lambda - 1.0)


def invert_spike_mp(lambda_obs: float, q: float) -> float:
    """True spike Lambda implied by an observed outlier eigenvalue.

    Inverts lambda = Lambda + Lambda*q/(Lambda-1) on the physical branch
    Lambda > 1 + sqrt(q)."""
    if not 0 < q < np.inf:
        raise ValueError("q must be positive and finite")
    lam_plus = (1.0 + np.sqrt(q)) ** 2
    if not np.isfinite(lambda_obs):
        raise ValueError("observed eigenvalue must be finite")
    if lambda_obs <= lam_plus:
        raise ValueError(
            f"observed eigenvalue {lambda_obs:.6g} is inside the bulk "
            f"(edge {lam_plus:.6g})")
    b = 1.0 + lambda_obs - q
    disc = b * b - 4.0 * lambda_obs
    disc = max(disc, 0.0)
    return 0.5 * (b + np.sqrt(disc))


# ---------------------------------------------------------------------------
# Detector

@dataclass(frozen=True)
class Outlier:
    index: int
    eigenvalue: float
    implied_spike: float
    # squared overlap of the sample and true eigenvectors,
    # (1 - q/(L-1)^2) / (1 + q/(L-1)) at L = implied_spike
    overlap_estimate: float


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
            "# overlap estimates use the spiked-covariance formula "
            "(1 - q/(Lambda-1)^2)/(1 + q/(Lambda-1))",
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

    The overlap estimate is the squared overlap of the sample and true
    top eigenvectors of a spiked covariance in the limit of large N at
    fixed q, ``(1 - q/(Lambda-1)^2) / (1 + q/(Lambda-1))`` (Paul, Statist.
    Sinica 17, 2007; Benaych-Georges & Nadakuditi, Adv. Math. 227, 2011),
    read at the implied spike.  At q = 1/2 and Lambda = 4 it is 0.810, and
    four seeded sample correlation matrices at N = 400, T = 800 measured
    0.818 on average; the Wigner formula ``1 - Lambda^-2`` gives 0.938.
    Only eigenvalues are read, so E never forms its dense eigenvectors.
    """
    if not np.isfinite(u_threshold):
        raise ValueError("u_threshold must be finite")
    edge = edge_scaling_mp(q, E.N)
    threshold = edge.threshold(u_threshold)
    outliers = []
    for rank, lam in enumerate(E.eigenvalues, start=1):
        if lam <= threshold:
            break
        implied = invert_spike_mp(float(lam), q)
        # implied > 1 + sqrt(q), so the overlap lies in [0, 1)
        a = q / (implied - 1.0)
        outliers.append(Outlier(rank, float(lam), implied,
                                (1.0 - a / (implied - 1.0)) / (1.0 + a)))
    return SpikeReport(tuple(outliers), threshold, edge, q, u_threshold)
