"""Random-matrix tools for large empirical correlation matrices: asymptotic
spectra and free-probability transforms, cleaning schemes, spiked-model
detection, a portfolio-risk backtest harness, eigenpair tracking, and
synthetic market generators."""

from .density import DensityError, SpectralDensity
from .estimators import CorrelationMatrix, EstimatorError, ReturnPanel

__version__ = "0.1.0"

__all__ = [
    "SpectralDensity",
    "DensityError",
    "CorrelationMatrix",
    "ReturnPanel",
    "EstimatorError",
    "__version__",
]
