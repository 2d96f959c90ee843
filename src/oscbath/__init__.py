"""Covariance-matrix simulator for two coupled oscillators in a thermal bath.

Evolves the 4x4 covariance matrix of two position-coupled, asymmetric
harmonic oscillators under Markovian damping, and tracks purity,
logarithmic negativity and Gaussian quantum discord over time and over
parameter sweeps. See the README for the CLI and the acceptance suite.

Each module's ``__all__`` is its public API, and the package re-exports
them after ``__version__``: errors, model, dynamics, measures, sweep.
"""

from .errors import *
from .model import *
from .dynamics import *
from .measures import *
from .sweep import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += errors.__all__
__all__ += model.__all__
__all__ += dynamics.__all__
__all__ += measures.__all__
__all__ += sweep.__all__
