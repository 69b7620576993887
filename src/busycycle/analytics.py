"""Exact and numerical busy-cycle mean values.

For the infinite-server queue with Poisson arrivals (rate lam) and service
law G (mean alpha, rho = lam * alpha):

    E[Z]  = e^rho / lam                       (mean busy cycle)
    E[B]  = (e^rho - 1) / lam                 (mean busy period)
    beta  = int_0^inf (e^(lam * r(t)) - 1) dt,  r(t) = int_t^inf [1-G(v)] dv
    beta_c = beta + 1/lam                     (cycle age/excess mean)
    E[Z^2] = 2 E[Z] beta_c

beta has closed forms for every catalog member; an adaptive quadrature
engine covers the general case.  The exponent is always evaluated through
the residual tail r(t), which is nonnegative and nonincreasing, so the
integrand never suffers cancellation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .distributions import QueueParameters, _number
from .errors import AccuracyError, DomainError, UnsupportedClosedFormError
from .quadrature import _refine, _support_breaks, integrate_adaptive

__all__ = [
    "BusyCycleMetrics",
    "mean_cycle",
    "mean_busy_period",
    "exp_series",
    "beta_quadrature",
    "beta_c",
]

DEFAULT_QUAD_TOL = 1e-9


@dataclass(frozen=True)
class BusyCycleMetrics:
    """Mean-value bundle for one queue configuration.

    ``error_estimate`` is an absolute bound on the numerical error of
    ``beta``; closed forms carry a few-ulp bound, with two known misses:
    ``deterministic`` charges nothing for the rounding of rho = lam * mean,
    which e^rho amplifies (up to 4.5 times its bound near rho = 24), and
    ``special_b``'s 4 sinh^2(rho/2)/lam misses by up to 1.05 times.
    ``beta_c`` = beta + 1/lam rounds 1/lam before the sum, so it lies
    within ``error_estimate`` plus one ulp of ``beta_c``.
    """

    e_z: float
    e_b: float
    beta: float
    beta_c: float
    z_second_moment: float
    method: str            # closed-form | series | quadrature
    error_estimate: float


def _overflow(params: QueueParameters, what: str) -> DomainError:
    """The DomainError, naming rho and lambda, for ``what`` of a queue
    leaving the float range."""
    return DomainError(f"rho = {params.traffic_intensity:g}, lambda = "
                       f"{params.arrival_rate:g}: {what} the float range")


def mean_cycle(params: QueueParameters) -> float:
    """E[Z] = e^rho / lam; DomainError when it overflows."""
    e_z = math.exp(params.traffic_intensity) / params.arrival_rate
    if not math.isfinite(e_z):
        raise _overflow(params, "the busy-cycle moments overflow")
    return e_z


def mean_busy_period(params: QueueParameters) -> float:
    """E[B] = (e^rho - 1) / lam; DomainError when it overflows."""
    e_b = math.expm1(params.traffic_intensity) / params.arrival_rate
    if not math.isfinite(e_b):
        raise _overflow(params, "the mean busy period overflows")
    return e_b


# ---------------------------------------------------------------------------
# series engines
# ---------------------------------------------------------------------------

def exp_series(rho: float):
    """(S(rho), abs error estimate), S(rho) = sum_{n>=1} rho^n / (n * n!).

    Terms follow the recurrence t_n = t_{n-1} * rho * (n-1) / n^2 and are
    accumulated with compensated summation to float resolution, which keeps
    the sum accurate up to its overflow (the peak term stays far below
    it).  rho must be finite and >= 0.
    """
    rho = _number(rho, "rho", "finite and >= 0")
    return _positive_series(rho, rho, 1, -1, 1, 0)


def _positive_series(rho: float, first: float, a: int, b: int, c: int, d: int):
    """(sum, abs error estimate) of the all-positive series t_1 + t_2 + ...
    with t_1 = ``first`` and t_n = t_(n-1) rho (a n + b) / (n (c n + d)),
    by compensated summation.  The ratio comes as four integers, not a
    callback, so a term costs no call and its integer factors are exact.
    The sum stops past n > rho at the first term t_n at most eps/4 of the
    total (``<=``, so a subnormal rho, whose terms underflow to 0, stops
    too); DomainError at the first total that is not finite.

    The estimate is 4 t_n for the omitted tail plus (n + 2) eps of the
    total for the rounding: each term carries the roundings of the
    products before it, so the rounding charge grows with the term count.
    """
    eps = sys.float_info.epsilon
    total = 0.0
    comp = 0.0
    term = first
    n = 1
    inf = math.inf
    while True:
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if not total < inf:  # a term or the sum overflowed, or is nan
            raise DomainError(f"rho = {rho:g}: S(rho) overflows the float range")
        n += 1
        term *= rho * (a * n + b) / (n * (c * n + d))
        if n > rho and term <= 0.25 * eps * total:
            return total, 4.0 * term + (n + 2) * eps * total


def _power_beta_series(lam: float, c: float):
    """(beta, abs error estimate) for the power member via series.

    The cycle integral over the [0, 1] support expands as
    beta = e^rho sum_{k>=0} (-lam)^k M_k / k! - 1, with
    M_k = int_0^1 t^k (1 - t^c/(c+1))^k dt and rho = lam c/(c+1).
    For c = 1 it regroups into the all-positive series
    sum_{k>=1} rho^k / (k! (2k+1)) of ``_positive_series``, with its
    estimate.  For c != 1 the k-sum is summed inside its integral:
    sum_k (-lam)^k M_k / k! =
    int_0^1 e^(-lam h(t)) dt with h(t) = t - t^(c+1)/(c+1), so no term
    alternates.  Its part past k = 0, s = int_0^1 expm1(-lam h(t)) dt, is
    refined to 1e-15 of itself after t = v^2 softens the t^(c+1) kink at
    0, and beta = expm1(rho) + e^rho s.  The estimate is e^rho times the
    integral's, plus 16 eps of expm1(rho) + e^rho |s| for the rounding.
    """
    rho = lam * c / (c + 1.0)
    if c == 1.0:  # sum_{k>=1} rho^k / (k! (2k+1)): all terms positive
        return _positive_series(rho, rho / 3.0, 2, -1, 2, 1)

    def h(v):  # t (c - expm1(c ln t)) / (c+1) at t = v^2, free of cancellation
        return v * v * (c - np.expm1(2.0 * c * np.log(v))) / (c + 1.0)

    s, err_s = _refine(lambda v: np.expm1(-lam * h(v)) * (2.0 * v),
                       (0.0, 1.0), 1e-15)[:2]
    # beta = e^rho (1 + s) - 1, regrouped so that no near-1 quantities are
    # subtracted and small traffic intensities stay fully accurate
    exp_rho = math.exp(rho)
    beta = math.expm1(rho) + exp_rho * s
    # the rounding charge on expm1(rho) + e^rho |s|, written with
    # expm1(rho) = -e^rho expm1(-rho) so that it cannot overflow
    return beta, exp_rho * (err_s + 16.0 * sys.float_info.epsilon
                            * (abs(s) - math.expm1(-rho)))


# ---------------------------------------------------------------------------
# quadrature engine for the cycle integral
# ---------------------------------------------------------------------------

def beta_quadrature(params: QueueParameters, tol: float = DEFAULT_QUAD_TOL):
    """(beta, abs error estimate) for beta = int_0^inf (e^(lam r(t)) - 1) dt.

    The exponent lam * r(t) = rho - lam * I(t) is evaluated through the
    residual tail, so it is nonnegative, nonincreasing, and exactly zero
    past the service support; the integrand inherits those properties.
    Panel breakpoints sit at 0, at mean * 2^k below the support end and at
    the end.  An unbounded support ends at the first mean * 2^k where
    r(t) < 1e-16 * mean, a test relative to the mean, so a short mean
    (rho << 1) is resolved as finely as a long one.  AccuracyError is
    raised when no such point is found or the refinement fails, and
    DomainError when beta or its error estimate leaves the float range.
    """
    tol = _number(tol, "tol")
    lam = params.arrival_rate
    dist = params.service
    if params.traffic_intensity == 0.0:
        return 0.0, 0.0

    def integrand(t):
        return np.expm1(lam * dist.residual_tail_fn(t))

    breaks = _support_breaks(
        dist.mean, dist.support_end,
        lambda t: np.asarray(dist.residual_tail_fn(t)) < 1e-16 * dist.mean,
        f"{dist.name}: residual tail stays above 1e-16 * mean")
    # a beta past the float range overflows inside the panel sums; the one
    # check is on the result, so those sums run without float warnings
    with np.errstate(over="ignore", invalid="ignore"):
        value, err, _n = integrate_adaptive(integrand, breaks, tol)
    if not (math.isfinite(value) and math.isfinite(err)):
        raise _overflow(params, "beta overflows")
    return value, err


# ---------------------------------------------------------------------------
# closed forms and the dispatching front end
# ---------------------------------------------------------------------------

def beta_closed_form(params: QueueParameters):
    """(beta, method, abs error) via the member-specific closed form/series.

    Raises UnsupportedClosedFormError for laws outside the catalog.
    """
    lam = params.arrival_rate
    rho = params.traffic_intensity
    kind = params.service.spec.get("type")
    if kind == "exponential":  # beta = mean S(rho)
        s, err = exp_series(rho)
        mean = params.service.mean
        return mean * s, "series", mean * err
    if kind in ("power", "uniform01"):
        c = params.service.spec.get("c", 1.0)
        beta, err = _power_beta_series(lam, c)
        return beta, "series", err
    if kind == "deterministic":
        if rho < 1.0:  # (rho^2/2)(1 + rho/3 (1 + rho/4 (...))), no cancellation
            s = 1.0
            for n in range(20, 2, -1):
                s = 1.0 + rho * s / n
            beta = 0.5 * rho * rho * s / lam
        else:
            beta = (math.expm1(rho) - rho) / lam
    elif kind == "special_a":  # the law's own rho, not lam * fl(rho / lam)
        beta = math.expm1(params.service.spec["rho"]) / lam
    elif kind == "special_b":
        # e^rho + e^-rho - 2 = 4 sinh^2(rho/2), exact at small rho
        beta = 4.0 * math.sinh(0.5 * params.service.spec["rho"]) ** 2 / lam
    else:
        raise UnsupportedClosedFormError(
            f"no closed form for {params.service.name}"
        )
    return beta, "closed-form", 4e-16 * beta


def beta_c(params: QueueParameters, strategy: str = "auto",
           quad_tol: float = DEFAULT_QUAD_TOL) -> BusyCycleMetrics:
    """Full metrics bundle for one configuration.

    ``strategy`` is one of "auto" (closed forms where available, quadrature
    otherwise), "closed-form", or "quadrature".  ``quad_tol`` steers the
    quadrature only, and must be finite and positive whichever engine runs.
    """
    if strategy not in ("auto", "closed-form", "quadrature"):
        raise DomainError(f"unknown strategy {strategy!r}")
    # checked up front: auto may never reach quadrature
    quad_tol = _number(quad_tol, "quad_tol")
    lam = params.arrival_rate
    rho = params.traffic_intensity

    if rho == 0.0:
        # idle-only queue: Z is exponential(lam)
        beta, method, err = 0.0, "closed-form", 0.0
    elif strategy == "closed-form":
        beta, method, err = beta_closed_form(params)
    else:
        method = "quadrature"
        if strategy == "auto":
            try:
                beta, method, err = beta_closed_form(params)
            except (AccuracyError, UnsupportedClosedFormError):
                pass
        if method == "quadrature":
            beta, err = beta_quadrature(params, quad_tol)

    e_z = mean_cycle(params)
    bc = beta + 1.0 / lam
    z2 = 2.0 * e_z * bc
    # every other field is finite whenever E[Z^2] is
    if not (math.isfinite(z2) and math.isfinite(err)):
        raise _overflow(params, "the busy-cycle moments overflow")
    return BusyCycleMetrics(
        e_z=e_z, e_b=mean_busy_period(params), beta=beta, beta_c=bc,
        z_second_moment=z2, method=method, error_estimate=err,
    )

