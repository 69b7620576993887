"""Busy-cycle age/excess mean values for the M/G/inf queue.

Exact engines (closed forms, series, adaptive quadrature), distribution-free
and reliability-class bounds, and a Monte Carlo busy-cycle simulator, plus a
CLI that recomputes the published reference tables with per-cell status.

Each module's ``__all__`` is its public API; the package re-exports exactly
those lists.
"""

from . import analytics, bounds, distributions, errors, simulator
from .analytics import *
from .bounds import *
from .distributions import *
from .errors import *
from .simulator import *

__version__ = "0.1.0"

__all__ = [*analytics.__all__, *bounds.__all__, *distributions.__all__,
           *errors.__all__, *simulator.__all__, "__version__"]
