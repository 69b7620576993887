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
from dataclasses import dataclass

import numpy as np

from .distributions import QueueParameters
from .errors import AccuracyError, DomainError, UnsupportedClosedFormError
from .quadrature import (_kronrod_nodes, _refine, _support_breaks,
                         integrate_adaptive)

__all__ = [
    "BusyCycleMetrics",
    "mean_cycle",
    "mean_busy_period",
    "exp_series",
    "power_double_series",
    "beta_closed_form",
    "beta_quadrature",
    "beta_c",
]

DEFAULT_SERIES_TOL = 1e-10
DEFAULT_QUAD_TOL = 1e-9

# Above this traffic intensity the alternating general-c power series loses
# too many digits in float64; quadrature takes over.
_POWER_SERIES_RHO_LIMIT = 6.0


@dataclass(frozen=True)
class BusyCycleMetrics:
    """Mean-value bundle for one queue configuration.

    ``error_estimate`` is an absolute bound on the numerical error of
    ``beta``; closed forms carry a few-ulp bound.  ``beta_c`` = beta + 1/lam
    adds the rounding of that sum, half an ulp of ``beta_c``.
    """

    e_z: float
    e_b: float
    beta: float
    beta_c: float
    z_second_moment: float
    method: str            # closed-form | series | quadrature
    error_estimate: float


def mean_cycle(params: QueueParameters) -> float:
    """E[Z] = e^rho / lam."""
    return math.exp(params.traffic_intensity) / params.arrival_rate


def mean_busy_period(params: QueueParameters) -> float:
    """E[B] = (e^rho - 1) / lam."""
    return math.expm1(params.traffic_intensity) / params.arrival_rate


# ---------------------------------------------------------------------------
# series engines
# ---------------------------------------------------------------------------

def exp_series(rho: float, tol: float = DEFAULT_SERIES_TOL) -> float:
    """S(rho) = sum_{n>=1} rho^n / (n * n!).

    Terms follow the recurrence t_n = t_{n-1} * rho * (n-1) / n^2 and are
    accumulated with compensated summation, which keeps the sum accurate
    up to rho = 50 and beyond (the peak term stays far below overflow).
    """
    if rho < 0.0:
        raise DomainError(f"rho must be >= 0, got {rho}")
    if not (tol > 0.0):
        raise DomainError(f"tol must be positive, got {tol}")
    if rho == 0.0:
        return 0.0
    return _positive_series(rho, rho, tol, 1, -1, 1, 0)[0]


def _positive_series(rho: float, first: float, tol: float,
                     a: int, b: int, c: int, d: int):
    """(sum, first omitted term) of the all-positive series t_1 + t_2 + ...
    with t_1 = ``first`` and t_n = t_(n-1) rho (a n + b) / (n (c n + d)),
    by compensated summation.  The ratio comes as four integers, not a
    callback, so a term costs no call and its integer factors are exact.
    The sum stops past n > rho once a term falls under tol/4 of the total.
    """
    total = 0.0
    comp = 0.0
    term = first
    n = 1
    while True:
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        n += 1
        term *= rho * (a * n + b) / (n * (c * n + d))
        if n > rho and term < 0.25 * tol * total:
            return total, term
        if n > 200000:  # cannot happen for sane rho; guards the loop
            raise AccuracyError(
                f"positive series at rho = {rho} did not converge", total, term
            )


def power_double_series(arrival_rate: float, c: float,
                        tol: float = DEFAULT_SERIES_TOL):
    """(beta_c, abs error estimate) for the power-function service law.

    The underlying expansion of the cycle integral over the [0, 1] support is

        beta_c = 1/lam + e^rho * sum_{k>=0} (-lam)^k M_k / k!  -  1,
        M_k = int_0^1 t^k (1 - t^c/(c+1))^k dt,  rho = lam c/(c+1).

    For c = 1 the inner integrals collapse and the expansion regroups into
    the all-positive series sum_k rho^k/(k! (2k+1)), stable for any rho.
    For other c every M_k comes from one Gauss-Kronrod node table on [0, 1]
    (see ``_power_beta_series``).  The k-sum alternates, so float64
    supports it only up to moderate traffic intensity; past that an
    AccuracyError is raised and callers should fall back to quadrature.
    The estimate adds one ulp of beta_c for the sum beta + 1/lam.
    """
    lam = float(arrival_rate)
    c = float(c)
    if not (lam > 0.0):
        raise DomainError(f"arrival_rate must be positive, got {lam}")
    if not (c > 0.0):
        raise DomainError(f"c must be positive, got {c}")
    beta, err = _power_beta_series(lam, c, tol)
    bc = beta + 1.0 / lam
    return bc, err + math.ulp(bc)


def _power_beta_series(lam: float, c: float, tol: float):
    """(beta, abs error estimate) for the power member via series.

    For c != 1 the inner integrals M_k = int_0^1 h(t)^k dt, with
    h(t) = t - t^(c+1)/(c+1), all come from one table of nodes and weights:
    panels are refined once on the envelope expm1(lam h) = sum_k (lam h)^k/k!,
    which weights each k by its share of the series' absolute sum, after
    t = s^2 softens the t^(c+1) kink at 0.  M_k is then w . h^k, a running
    product.  Rounding is charged per term summed.
    """
    if not (tol > 0.0):
        raise DomainError(f"tol must be positive, got {tol}")
    rho = lam * c / (c + 1.0)
    if c == 1.0:  # sum_{k>=1} rho^k / (k! (2k+1)): all terms positive
        total, term = _positive_series(rho, rho / 3.0, tol, 2, -1, 2, 1)
        return total, term * 4.0 + 4e-16 * total

    def h(s):  # t (c - expm1(c ln t)) / (c+1) at t = s^2, free of cancellation
        return s * s * (c - np.expm1(2.0 * c * np.log(s))) / (c + 1.0)

    # at 1e-15 the table's M_k errors stay inside the rounding charge below
    _total, _err, a, b, _values = _refine(
        lambda s: np.expm1(lam * h(s)) * (2.0 * s), (0.0, 1.0), 1e-15)
    nodes, weights = _kronrod_nodes(a, b)
    hs = h(nodes).ravel()
    wk = (weights * (2.0 * nodes)).ravel()  # w h^k, k = 0

    # beta = e^rho (1 + s) - 1 = expm1(rho) + e^rho s with s the k >= 1 part
    # of sum (-lam)^k M_k / k!; the regrouping avoids subtracting near-1
    # quantities and keeps small traffic intensities fully accurate.
    exp_rho = math.exp(rho)
    floor = lam * c / (2.0 * (c + 2.0))  # beta >= lam E[S^2] / 2
    total = 0.0
    comp = 0.0
    abs_sum = 0.0
    coeff = 1.0          # (-lam)^k / k!
    bound = rho          # rho^(k+1) / (k+1)!
    k = 0
    small_streak = 0
    while True:
        k += 1
        coeff *= -lam / k
        wk = wk * hs
        term = coeff * float(wk.sum())
        abs_sum += abs(term)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if not math.isfinite(total):  # (-lam)^k / k! overflowed
            break
        bound *= rho / (k + 1)
        if k > lam and abs(term) < 0.25 * tol * max(abs(total), 1e-300) \
                and bound < tol:
            small_streak += 1
            if small_streak >= 3:
                break
        else:
            small_streak = 0
        if k > 5000:
            raise AccuracyError(
                "power series did not converge",
                max(floor, math.expm1(rho) + exp_rho * total), math.inf,
            )
    beta = math.expm1(rho) + exp_rho * total
    scale = abs(math.expm1(rho)) + exp_rho * abs_sum
    float_err = 4e-16 * k * scale
    trunc_err = abs(term) * 8.0 * exp_rho
    err = float_err + trunc_err
    if not (beta > 0.0 and err <= max(tol, 1e-9) * beta):
        raise AccuracyError(
            f"power series for c={c}, lam={lam} is cancellation-limited "
            f"(estimated error {err:.2e} on {beta:.6e})",
            best_estimate=max(floor, beta),
            error_estimate=err,
        )
    return beta, err


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
    raised when no such point is found or the refinement fails.
    """
    if not (tol > 0.0):
        raise DomainError(f"tol must be positive, got {tol}")
    lam = params.arrival_rate
    dist = params.service
    if params.traffic_intensity == 0.0:
        return 0.0, 0.0

    def integrand(t):
        return np.expm1(lam * dist.residual_tail_fn(t))

    breaks = _support_breaks(
        dist.mean, dist.support_end,
        lambda t: float(dist.residual_tail_fn(t)) < 1e-16 * dist.mean,
        f"{dist.name}: residual tail stays above 1e-16 * mean")
    value, err, _n = integrate_adaptive(integrand, breaks, tol)
    return value, err


# ---------------------------------------------------------------------------
# closed forms and the dispatching front end
# ---------------------------------------------------------------------------

def beta_closed_form(params: QueueParameters,
                     tol: float = DEFAULT_SERIES_TOL):
    """(beta, method, abs error) via the member-specific closed form/series.

    Raises UnsupportedClosedFormError for laws outside the catalog.
    """
    lam = params.arrival_rate
    rho = params.traffic_intensity
    kind = params.service.spec.get("type")
    if rho == 0.0:
        return 0.0, "closed-form", 0.0
    if kind == "exponential":
        s = exp_series(rho, tol)
        beta = params.service.mean * s
        return beta, "series", beta * max(tol, 4e-16)
    if kind in ("power", "uniform01"):
        c = params.service.spec.get("c", 1.0)
        beta, err = _power_beta_series(lam, c, tol)
        return beta, "series", err
    if kind == "deterministic":
        if rho < 1.0:  # (rho^2/2)(1 + rho/3 (1 + rho/4 (...))), no cancellation
            s = 1.0
            for n in range(20, 2, -1):
                s = 1.0 + rho * s / n
            beta = 0.5 * rho * rho * s / lam
        else:
            beta = (math.expm1(rho) - rho) / lam
    elif kind == "special_a":
        beta = math.expm1(rho) / lam
    elif kind == "special_b":
        # e^rho + e^-rho - 2 = 4 sinh^2(rho/2), exact at small rho
        beta = 4.0 * math.sinh(0.5 * rho) ** 2 / lam
    else:
        raise UnsupportedClosedFormError(
            f"no closed form for {params.service.name}"
        )
    return beta, "closed-form", 4e-16 * beta


def beta_c(params: QueueParameters, strategy: str = "auto",
           series_tol: float = DEFAULT_SERIES_TOL,
           quad_tol: float = DEFAULT_QUAD_TOL) -> BusyCycleMetrics:
    """Full metrics bundle for one configuration.

    ``strategy`` is one of "auto" (closed forms where available, quadrature
    otherwise), "closed-form", or "quadrature".
    """
    if strategy not in ("auto", "closed-form", "quadrature"):
        raise DomainError(f"unknown strategy {strategy!r}")
    lam = params.arrival_rate
    rho = params.traffic_intensity

    if rho == 0.0:
        # idle-only queue: Z is exponential(lam)
        beta, method, err = 0.0, "closed-form", 0.0
    elif strategy == "closed-form":
        beta, method, err = beta_closed_form(params, series_tol)
    else:
        method = "quadrature"
        # auto sends the general-c power law past the rho its alternating
        # series supports straight to quadrature
        if strategy == "auto" and not (params.service.spec.get("type") == "power"
                                       and rho > _POWER_SERIES_RHO_LIMIT):
            try:
                beta, method, err = beta_closed_form(params, series_tol)
            except (AccuracyError, UnsupportedClosedFormError):
                pass
        if method == "quadrature":
            beta, err = beta_quadrature(params, quad_tol)

    e_z = mean_cycle(params)
    bc = beta + 1.0 / lam
    z2 = 2.0 * e_z * bc
    # every other field is finite whenever E[Z^2] is
    if not (math.isfinite(z2) and math.isfinite(err)):
        raise DomainError(f"rho = {rho:g}, lambda = {lam:g}: the busy-cycle "
                          f"moments overflow the float range")
    return BusyCycleMetrics(
        e_z=e_z, e_b=mean_busy_period(params), beta=beta, beta_c=bc,
        z_second_moment=z2, method=method, error_estimate=err,
    )

