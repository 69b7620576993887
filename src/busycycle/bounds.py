"""Distribution-free and reliability-class bounds on the cycle age/excess mean.

All bounds are pure functions of (lam, alpha, scv, mu2, mu3, c); none of them
consults the computed beta_c, so sandwich tests against the analytic engines
are genuinely independent.

The distribution-free interval (here labeled "sathe" after its originator)
depends only on rho, lam and the service SCV:

    E[Z] - alpha + rho^2 scv / (2 lam)  <=  beta_c
    beta_c  <=  E[Z] - alpha + (scv/lam)(e^rho - 1 - rho)

Its lower endpoint is also the universal floor valid for every service law
(labeled "universal"); the minimum over all laws with fixed alpha and lam is
attained by constant service.

Class bounds sharpen the floor when the service law is known to satisfy a
reliability property.  They share one construction: if the residual tail
dominates q * alpha * e^(-theta t), then

    beta_c >= E[Z] - alpha + (first two defect terms of the dominating law),

which evaluates to E[Z] - alpha + (alpha rho / 2)(2q - 1 + rho(3q^2 - 2)/6)
for theta = 1/alpha.  The M/NWUE case has q = 1; the DFR case has
q = e^((1 - scv)/2); the IMRL case uses theta = 2 alpha / mu2 and
q = e^(1 - 2 alpha mu3 / (3 mu2^2)).  Exponential moments collapse DFR and
IMRL back onto the M/NWUE formula, which fixes the coefficient readings.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

from .distributions import DFR, IMRL, NBUE, NWUE, QueueParameters
from .errors import ClassViolationError, DomainError, UnsupportedMomentError

__all__ = [
    "BoundsReport",
    "Comparison",
    "sathe_interval",
    "proposition1",
    "class_lower_bound",
    "class_upper_bound",
    "gap_ratio",
    "build_report",
    "LOWER_CLASSES",
    "UPPER_CLASSES",
]

LOWER_CLASSES = ("m-nwue", "dfr", "imrl", "power", "uniform01")
UPPER_CLASSES = ("power", "uniform01", "m-nbue")  # report print order


class Comparison(enum.Enum):
    """Position of beta_c relative to E[Z], decided from rho and scv alone."""

    BELOW_EZ = "below-EZ"
    ABOVE_EZ = "above-EZ"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class BoundsReport:
    """Labeled bounds plus the tightest interval they imply."""

    lower_bounds: tuple      # ((label, value), ...)
    upper_bounds: tuple
    tightest: tuple          # (max lower, min upper)
    gap_ratio: Optional[float]
    consistent: bool         # every lower <= every upper


def sathe_interval(arrival_rate: float, mean_service: float, scv: float):
    """Distribution-free (lower, upper) for beta_c from (lam, alpha, scv)."""
    lam = float(arrival_rate)
    alpha = float(mean_service)
    if not (lam > 0.0) or not (alpha > 0.0):
        raise DomainError("arrival_rate and mean_service must be positive")
    if scv < 0.0:
        raise DomainError(f"scv must be >= 0, got {scv}")
    rho = lam * alpha
    e_z = math.exp(rho) / lam
    lower = e_z - alpha + rho * rho * scv / (2.0 * lam)
    upper = e_z - alpha + (scv / lam) * (math.expm1(rho) - rho)
    return _finite(lower, rho, lam), _finite(upper, rho, lam)


def proposition1(rho: float, scv: float) -> Comparison:
    """Compare beta_c with E[Z] knowing only rho and scv.

    beta_c <= E[Z] when scv <= rho/(e^rho - 1 - rho); beta_c >= E[Z] when
    scv >= 2/rho.  The below-test runs first; both can hold only in the
    rho -> 0 limit, where the below conclusion is the sharper one.
    """
    if not (rho > 0.0):
        raise DomainError(f"rho must be positive, got {rho}")
    if scv < 0.0:
        raise DomainError(f"scv must be >= 0, got {scv}")
    if scv <= rho / (math.expm1(rho) - rho):
        return Comparison.BELOW_EZ
    if scv >= 2.0 / rho:
        return Comparison.ABOVE_EZ
    return Comparison.INDETERMINATE


def _finite(bound: float, rho: float, lam: float) -> float:
    """``bound``, or DomainError when e^rho / lam overflowed it."""
    if not math.isfinite(bound):
        raise DomainError(f"rho = {rho:g}, lambda = {lam:g}: the bound "
                          f"overflows the float range")
    return bound


def _two_term_floor(e_z: float, alpha: float, rho: float, q: float) -> float:
    """E[Z] - alpha + (alpha rho/2)(2q - 1 + rho (3q^2 - 2)/6)."""
    return e_z - alpha + (alpha * rho / 2.0) * (
        2.0 * q - 1.0 + rho * (3.0 * q * q - 2.0) / 6.0
    )


def _normalize(kind: str) -> str:
    return kind.strip().lower().replace("/", "-").replace("(c)", "").rstrip("()")


def _check_tag(params: QueueParameters, tag: str, assume_tags) -> None:
    tags = params.service.class_tags | frozenset(assume_tags)
    if tag not in tags:
        raise ClassViolationError(
            f"{params.service.name} is not known to be {tag}; "
            f"pass assume_tags={{'{tag}'}} only if you can establish it"
        )


def _power_c(params: QueueParameters, kind: str) -> float:
    """c of a power/uniform01 member; the uniform01 bounds need c = 1."""
    spec = params.service.spec
    if spec.get("type") not in ("power", "uniform01"):
        raise ClassViolationError(
            f"power-function bounds apply only to the power/uniform01 members, "
            f"not {params.service.name}"
        )
    c = float(spec.get("c", 1.0))
    if kind == "uniform01" and c != 1.0:
        raise ClassViolationError(f"the uniform01 bound needs c = 1, got c = {c:g}")
    return c


def class_lower_bound(kind: str, params: QueueParameters,
                      assume_tags=frozenset()) -> float:
    """Reliability-class lower bound on beta_c.

    ``kind`` is one of m-nwue (valid for exponential and NWUE laws), dfr,
    imrl, power, uniform01.
    """
    return _finite(_class_lower(_normalize(kind), params, assume_tags),
                   params.traffic_intensity, params.arrival_rate)


def _class_lower(kind: str, params: QueueParameters, assume_tags) -> float:
    lam = params.arrival_rate
    alpha = params.service.mean
    rho = params.traffic_intensity
    e_z = math.exp(rho) / lam

    if kind == "m-nwue":
        _check_tag(params, NWUE, assume_tags)
        return _two_term_floor(e_z, alpha, rho, 1.0)
    if kind == "dfr":
        _check_tag(params, DFR, assume_tags)
        s = params.service.scv  # raises UnsupportedMomentError when absent
        q = math.exp((1.0 - s) / 2.0)
        return _two_term_floor(e_z, alpha, rho, q)
    if kind == "imrl":
        _check_tag(params, IMRL, assume_tags)
        mu2 = params.service.moment2
        mu3 = params.service.moment3
        if mu2 is None or mu3 is None:
            raise UnsupportedMomentError(
                f"{params.service.name}: the IMRL bound needs mu2 and mu3"
            )
        q = math.exp(1.0 - 2.0 * alpha * mu3 / (3.0 * mu2 * mu2))
        # same two-term construction with decay rate 2 alpha / mu2:
        # E[Z] - alpha + (lam/4)(2 mu2 q - 2 alpha^2 + rho (3 mu2 q^2 - 4 alpha^2)/6)
        return e_z - alpha + (lam / 4.0) * (
            2.0 * mu2 * q - 2.0 * alpha * alpha
            + rho * (3.0 * mu2 * q * q - 4.0 * alpha * alpha) / 6.0
        )
    if kind in ("power", "uniform01"):
        c = _power_c(params, kind)
        return e_z + (rho - 2.0 * c * (c + 2.0)) / (2.0 * (c + 1.0) * (c + 2.0))
    raise DomainError(f"unknown lower-bound class {kind!r}")


def class_upper_bound(kind: str, params: QueueParameters,
                      assume_tags=frozenset()) -> float:
    """Reliability-class upper bound on beta_c.

    ``kind`` is one of m-nbue (valid for exponential and NBUE laws), power,
    uniform01.
    """
    return _finite(_class_upper(_normalize(kind), params, assume_tags),
                   params.traffic_intensity, params.arrival_rate)


def _class_upper(kind: str, params: QueueParameters, assume_tags) -> float:
    lam = params.arrival_rate
    alpha = params.service.mean
    rho = params.traffic_intensity
    e_b = math.expm1(rho) / lam

    if kind == "m-nbue":
        _check_tag(params, NBUE, assume_tags)
        return 1.0 / lam + min(
            2.0 * (e_b - alpha), (rho / 2.0) * (e_b + alpha)
        )
    if kind in ("power", "uniform01"):
        c = _power_c(params, kind)
        return (
            1.0 / lam
            + (c + 1.0) ** 2 / (c * (c + 2.0)) * e_b
            - (c + 1.0) / (c + 2.0)
        )
    raise DomainError(f"unknown upper-bound class {kind!r}")


def gap_ratio(lower: float, upper: float, reference: float) -> float:
    """(upper - lower) / reference, the bound-gap quality measure."""
    if upper < lower:
        raise DomainError(f"upper ({upper}) must be >= lower ({lower})")
    if not (reference > 0.0):
        raise DomainError(f"reference must be positive, got {reference}")
    return (upper - lower) / reference


def build_report(params: QueueParameters, reference: Optional[float] = None,
                 assume_tags=frozenset()) -> BoundsReport:
    """Assemble every bound applicable to ``params`` into one report.

    ``reference`` (typically the computed beta_c) enables the gap ratio.
    Class bounds whose prerequisites (tags, moments, power type) are
    missing are omitted.
    """
    lowers = []
    uppers = []
    try:
        lo, up = sathe_interval(params.arrival_rate, params.service.mean,
                                params.service.scv)
        lowers += [("sathe", lo), ("universal", lo)]  # same floor, universal validity
        uppers.append(("sathe", up))
    except UnsupportedMomentError:
        pass
    for rows, bound, kinds in ((lowers, class_lower_bound, LOWER_CLASSES),
                               (uppers, class_upper_bound, UPPER_CLASSES)):
        for kind in kinds:
            try:
                rows.append((kind, bound(kind, params, assume_tags)))
            except (ClassViolationError, UnsupportedMomentError):
                pass

    max_lower = max((v for _, v in lowers), default=-math.inf)
    min_upper = min((v for _, v in uppers), default=math.inf)
    scale = max(abs(max_lower), abs(min_upper), 1.0)
    consistent = max_lower <= min_upper + 1e-12 * scale

    ratio = None
    if reference is not None and lowers and uppers and min_upper >= max_lower:
        ratio = gap_ratio(max_lower, min_upper, reference)

    return BoundsReport(
        lower_bounds=tuple(lowers),
        upper_bounds=tuple(uppers),
        tightest=(max_lower, min_upper),
        gap_ratio=ratio,
        consistent=consistent,
    )
