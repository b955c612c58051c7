"""The four correlation-matrix cleaning schemes: eigenvalue clipping,
power-law eigenvalue replacement, and shrinkage towards the identity or the
constant-correlation target.  Each maps one estimate E to another with E's
asset ids."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import CorrelationMatrix
from .spectra import PowerLawPrior

__all__ = [
    "CleaningScheme",
    "SCHEME_KINDS",
    "clip",
    "powerlaw_clean",
    "shrink_identity",
    "shrink_const_corr",
    "apply_scheme",
]

SCHEME_KINDS = ("clip", "powerlaw", "shrink", "ledoit")

# (1-alpha)N within this of an integer is that integer: binary rounding of a
# decimal alpha leaves the product off by up to about N * 2^-52 ((1 - 0.45)
# * 100 reads 55.00000000000001), which ceil would round up to one
# eigenvalue too many; the tolerance holds for N below 4e6
COUNT_TOL = 1e-9


@dataclass(frozen=True)
class CleaningScheme:
    """Choice of cleaning procedure plus its strength parameter alpha."""

    kind: str
    alpha: float
    mu: float = 2.0  # power-law tail exponent (powerlaw kind only)

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme {self.kind!r}; pick from {SCHEME_KINDS}")
        _check_alpha(self.alpha)
        if self.kind == "powerlaw":  # the prior's own checks on alpha and mu
            PowerLawPrior(self.alpha, self.mu)


def clip(E: CorrelationMatrix, alpha: float) -> CorrelationMatrix:
    """Eigenvalue clipping: keep the (1-alpha)N largest eigenvalues, replace
    the rest by a common value chosen to preserve the trace.

    A fractional (1-alpha)N keeps ceil((1-alpha)N) eigenvalues, with the
    product read as exact for a decimal alpha (``COUNT_TOL``).  The trace
    is kept; the diagonal is not rescaled to 1.
    """
    _check_alpha(alpha)
    vals = E.eigenvalues
    N = E.N
    n_keep = int(np.ceil((1.0 - alpha) * N - COUNT_TOL))
    new_vals = vals.copy()
    if n_keep < N:
        kept = vals[:n_keep].sum()
        new_vals[n_keep:] = (N - kept) / (N - n_keep)
    return E.with_spectrum(new_vals)


def powerlaw_clean(E: CorrelationMatrix, alpha: float,
                   mu: float = 2.0) -> CorrelationMatrix:
    """Replace eigenvalues k >= 2 by the power-law ladder value, keeping the
    top (market) eigenvalue and all eigenvectors.

    No global trace rescaling is applied, so the trace of the result is that
    of the ladder plus the top eigenvalue, not N.
    """
    N = E.N
    prior = PowerLawPrior(alpha, mu)
    new_vals = E.eigenvalues.copy()
    k = np.arange(2, N + 1)
    new_vals[1:] = prior.eigenvalue_ladder(N, k)
    return E.with_spectrum(new_vals)


def shrink_identity(E: CorrelationMatrix, alpha: float) -> CorrelationMatrix:
    """Linear shrinkage (1-alpha) E + alpha I."""
    _check_alpha(alpha)
    out = (1.0 - alpha) * E.values + alpha * np.eye(E.N)
    return CorrelationMatrix(out, E.asset_ids)


def shrink_const_corr(E: CorrelationMatrix, alpha: float) -> CorrelationMatrix:
    """Shrinkage towards the constant-correlation target: unit diagonal and
    the mean off-diagonal correlation everywhere else."""
    _check_alpha(alpha)
    N = E.N
    off = E.values[~np.eye(N, dtype=bool)]
    rho_bar = off.mean() if off.size else 0.0
    target = np.full((N, N), rho_bar)
    np.fill_diagonal(target, 1.0)
    out = (1.0 - alpha) * E.values + alpha * target
    return CorrelationMatrix(out, E.asset_ids)


def apply_scheme(E: CorrelationMatrix, scheme: CleaningScheme) -> CorrelationMatrix:
    if scheme.kind == "clip":
        return clip(E, scheme.alpha)
    if scheme.kind == "powerlaw":
        return powerlaw_clean(E, scheme.alpha, scheme.mu)
    if scheme.kind == "shrink":
        return shrink_identity(E, scheme.alpha)
    return shrink_const_corr(E, scheme.alpha)


def _check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
