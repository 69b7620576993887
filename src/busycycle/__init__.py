"""Busy-cycle age/excess mean values for the M/G/inf queue.

Exact engines (closed forms, series, adaptive quadrature), distribution-free
and reliability-class bounds, and a Monte Carlo busy-cycle simulator, plus a
CLI that recomputes the published reference tables with per-cell status.
"""

from .analytics import (
    BusyCycleMetrics,
    beta_c,
    beta_quadrature,
    exp_series,
    mean_busy_period,
    mean_cycle,
    power_double_series,
)
from .bounds import (
    BoundsReport,
    Comparison,
    build_report,
    class_lower_bound,
    class_upper_bound,
    gap_ratio,
    proposition1,
    sathe_interval,
)
from .distributions import (
    QueueParameters,
    ServiceDistribution,
    deterministic,
    exponential,
    from_spec,
    integrated_tail,
    make_distribution,
    power_function,
    residual_tail,
    scale,
    special_a,
    special_b,
    uniform01,
)
from .errors import (
    AccuracyError,
    ArrivalRateMismatchError,
    BusyCycleError,
    ClassViolationError,
    DomainError,
    RunawayCycleError,
    UnsupportedClosedFormError,
    UnsupportedMomentError,
)
from .simulator import (
    SimulationEstimate,
    estimate_beta_c,
    time_average_age,
)

__version__ = "0.1.0"

__all__ = [
    "BusyCycleMetrics", "beta_c", "beta_quadrature", "exp_series",
    "mean_busy_period", "mean_cycle", "power_double_series",
    "BoundsReport", "Comparison", "build_report", "class_lower_bound",
    "class_upper_bound", "gap_ratio", "proposition1", "sathe_interval",
    "QueueParameters", "ServiceDistribution", "deterministic", "exponential",
    "from_spec", "integrated_tail", "make_distribution", "power_function",
    "residual_tail", "scale", "special_a", "special_b", "uniform01",
    "AccuracyError", "ArrivalRateMismatchError", "BusyCycleError",
    "ClassViolationError", "DomainError", "RunawayCycleError",
    "UnsupportedClosedFormError", "UnsupportedMomentError",
    "SimulationEstimate", "estimate_beta_c", "time_average_age",
    "__version__",
]
