"""Service-time distribution catalog for the infinite-server queue model.

Every member exposes the same analytic surface: CDF, mean, raw moments,
one tail, the residual tail r(t) = int_t^inf [1 - G(v)] dv in a
cancellation-free form, and an inverse-transform quantile used for
sampling.  The integrated tail I(t) = int_0^t [1 - G(v)] dv is derived as
alpha - r(t).  A law given only by its CDF (``make_distribution``) takes
both r(t) and the quantile from one table of 1 - G built at construction,
with no quadrature call per node and no root finder per draw.  Values are
immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    AccuracyError,
    ArrivalRateMismatchError,
    DomainError,
    UnsupportedMomentError,
)
from .quadrature import _gauss_kronrod, _refine, _support_breaks

__all__ = [
    "ServiceDistribution",
    "QueueParameters",
    "exponential",
    "deterministic",
    "special_a",
    "special_b",
    "power_function",
    "uniform01",
    "scale",
    "from_spec",
    "make_distribution",
    "integrated_tail",
    "residual_tail",
]

# Tags a distribution may carry; bounds are keyed on these.
NBUE = "NBUE"
NWUE = "NWUE"
DFR = "DFR"
IMRL = "IMRL"
KNOWN_TAGS = frozenset({NBUE, NWUE, DFR, IMRL})

# Largest traffic intensity whose e^rho is a finite float.
RHO_MAX = math.log(sys.float_info.max)

# User-CDF tail table: relative tolerance and panel budget of its
# quadrature, the largest relative gap between the tabulated mean and the
# declared one, and the rounding a cdf value may show outside [0, 1] or as
# a decrease.
_TABLE_TOL = 1e-13
_TABLE_PANELS = 4096
_MEAN_TOL = 1e-8
_G_SLACK = 4.0 * sys.float_info.epsilon
# Quantile bisection stops once a bracket is under _XTOL + _RTOL * t, the
# absolute and relative tolerances brentq used here before.
_XTOL = 1e-14
_RTOL = 4.0 * sys.float_info.epsilon


def _check_rho(rho: float) -> None:
    if not rho <= RHO_MAX:
        raise DomainError(f"rho = {rho:g} exceeds log(DBL_MAX) = {RHO_MAX:.6g}; "
                          f"e^rho overflows the float range")


def _power(x: float, n: int, what: str) -> float:
    """x ** n for x > 0, or DomainError when it overflows or underflows to 0."""
    try:
        value = x ** n
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise DomainError(f"{what} = {x:g}: its power {n} is outside the float range")
    return value


def _li2_one_minus_exp(rho: float) -> float:
    """Li2(1 - e^rho) for rho > 0: by Landen's identity -rho^2/2 - Li2(y)
    with y = 1 - e^-rho, and for y > 1/2 the reflection
    Li2(y) = pi^2/6 + rho ln y - Li2(e^-rho), so the power series
    Li2(x) = sum x^n/n^2 runs at x <= 1/2, where 60 terms exhaust float64."""
    y = -math.expm1(-rho)
    x = y if y <= 0.5 else math.exp(-rho)
    series = 0.0
    for n in range(60, 0, -1):
        series = series * x + 1.0 / (n * n)
    li2 = series * x
    if y > 0.5:
        li2 = math.pi ** 2 / 6.0 + rho * math.log1p(-x) - li2
    return -0.5 * rho * rho - li2


@dataclass(frozen=True)
class ServiceDistribution:
    """A service-time law together with the analytic pieces the queue
    computations need.

    ``residual_tail_fn`` accepts scalars or numpy arrays and is the one tail
    a law defines; the integrated tail is derived as I(t) = mean - r(t).
    ``quantile_fn`` is the generalized inverse of the CDF, also vectorized.
    """

    name: str
    mean: float
    moment2: Optional[float]
    moment3: Optional[float]
    cdf: Callable
    residual_tail_fn: Callable
    quantile_fn: Callable
    class_tags: frozenset = frozenset()
    support_end: float = math.inf
    embedded_arrival_rate: Optional[float] = None
    spec: dict = field(default_factory=dict)

    @property
    def scv(self) -> float:
        """Squared coefficient of variation (mu2 - mean^2) / mean^2."""
        if self.moment2 is None:
            raise UnsupportedMomentError(
                f"{self.name}: second moment unavailable, cannot form SCV"
            )
        if self.mean == 0.0:
            raise UnsupportedMomentError("SCV undefined for a zero-mean service")
        mean2 = _power(self.mean, 2, f"{self.name}: mean")
        return (self.moment2 - mean2) / mean2

    def __repr__(self) -> str:  # keep reprs short and informative
        return f"ServiceDistribution({self.name})"


@dataclass(frozen=True)
class QueueParameters:
    """Arrival rate plus service law; the traffic intensity is always derived."""

    arrival_rate: float
    service: ServiceDistribution

    def __post_init__(self):
        if not (self.arrival_rate > 0.0) or not math.isfinite(self.arrival_rate):
            raise DomainError(f"arrival_rate must be positive, got {self.arrival_rate}")
        lam = self.service.embedded_arrival_rate
        if lam is not None and lam != self.arrival_rate:
            raise ArrivalRateMismatchError(
                f"service law was built for arrival rate {lam}, "
                f"queue uses {self.arrival_rate}"
            )
        _check_rho(self.traffic_intensity)

    @property
    def traffic_intensity(self) -> float:
        return self.arrival_rate * self.service.mean


# ---------------------------------------------------------------------------
# catalog constructors
# ---------------------------------------------------------------------------

def exponential(mean: float) -> ServiceDistribution:
    """Exponential service with the given mean."""
    if not (mean > 0.0):
        raise DomainError(f"exponential mean must be positive, got {mean}")
    a = float(mean)

    def cdf(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 0.0, 0.0, -np.expm1(-np.maximum(t, 0.0) / a))

    def rtail(t):
        return a * np.exp(-np.asarray(t, dtype=float) / a)

    def quantile(u):
        return -a * np.log1p(-np.asarray(u, dtype=float))

    return ServiceDistribution(
        name=f"exponential(mean={a:g})",
        mean=a,
        moment2=2.0 * a * a,
        moment3=6.0 * _power(a, 3, "exponential mean"),
        cdf=cdf,
        residual_tail_fn=rtail,
        quantile_fn=quantile,
        class_tags=frozenset({NBUE, NWUE, DFR, IMRL}),
        spec={"type": "exponential", "mean": a},
    )


def deterministic(mean: float) -> ServiceDistribution:
    """Unit mass at ``mean``.  mean == 0 gives the idle-only limit in which
    every service takes no time (rho = 0)."""
    if not (0.0 <= mean < math.inf):
        raise DomainError(f"deterministic mean must be >= 0 and finite, got {mean}")
    a = float(mean)

    def cdf(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < a, 0.0, 1.0)

    def rtail(t):
        return np.maximum(a - np.asarray(t, dtype=float), 0.0)

    def quantile(u):
        u = np.asarray(u, dtype=float)
        return np.full(u.shape, a) if u.shape else a

    return ServiceDistribution(
        name=f"deterministic(mean={a:g})",
        mean=a,
        moment2=a * a,
        moment3=None,
        cdf=cdf,
        residual_tail_fn=rtail,
        quantile_fn=quantile,
        class_tags=frozenset({NBUE}) if a > 0.0 else frozenset(),
        support_end=a,
        spec={"type": "deterministic", "mean": a},
    )


def special_a(arrival_rate: float, rho: float) -> ServiceDistribution:
    """First logistic-form member: G(t) = e^-rho / (e^-rho + (1-e^-rho)e^(-lam t)).

    Carries an atom of mass e^-rho at zero and has mean rho/lam.  Its busy
    cycle is exponentially distributed, which makes the cycle age/excess
    mean equal to the mean cycle length.
    """
    return _logistic("special_a", arrival_rate, rho)


def special_b(arrival_rate: float, rho: float) -> ServiceDistribution:
    """Second logistic-form member:
    G(t) = 1 - 1 / (1 + e^-rho (e^(k t) - 1)) with k = lam / (1 - e^-rho).

    Continuous, mean rho/lam; its busy period is exponentially distributed
    with mean (e^rho - 1)/lam, which pins the cycle age/excess mean at
    (e^rho + e^-rho - 1)/lam.
    """
    return _logistic("special_b", arrival_rate, rho)


def _logistic(kind: str, arrival_rate: float, rho: float) -> ServiceDistribution:
    """The two logistic-form members.  Both have mean rho/lam and the
    residual tail r(t) = log1p((e^rho - 1) e^(-k t)) / lam, with k = lam
    for special_a and k = lam / (1 - e^-rho) for special_b; only the cdf,
    the quantile and the E[S^2] factor differ."""
    lam = float(arrival_rate)
    rho = float(rho)
    if not (lam > 0.0):
        raise DomainError(f"arrival_rate must be positive, got {lam}")
    if not (rho > 0.0):
        raise DomainError(f"rho must be positive, got {rho}")
    _check_rho(rho)
    atom = kind == "special_a"   # special_a has mass em at zero
    em = math.exp(-rho)
    grow = math.expm1(rho)       # e^rho - 1
    k = lam if atom else lam / -math.expm1(-rho)

    def cdf(t):
        t = np.asarray(t, dtype=float)
        decay = np.exp(-k * np.maximum(t, 0.0))
        d = em + (1.0 - em) * decay
        return np.where(t < 0.0, 0.0, em / d if atom else 1.0 - decay / d)

    def rtail(t):
        t = np.asarray(t, dtype=float)
        return np.log1p(grow * np.exp(-k * t)) / lam

    def quantile(u):
        u = np.asarray(u, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if atom:
                t = np.log((1.0 - em) * u / (em * (1.0 - u))) / lam
            else:
                t = np.log1p(math.exp(rho) * u / (1.0 - u)) / k
        return np.where(u <= (em if atom else 0.0), 0.0, t)

    # E[S^2] = -2 Li2(1 - e^rho) / lam^2 for special_a, times (1 - e^-rho)
    # for special_b; the dilogarithm by its power series
    li2 = _li2_one_minus_exp(rho)
    lam2 = _power(lam, 2, "arrival_rate")
    mu2 = -2.0 * li2 / lam2 if atom else 2.0 * math.expm1(-rho) * li2 / lam2

    return ServiceDistribution(
        name=f"{kind}(lam={lam:g}, rho={rho:g})",
        mean=rho / lam,
        moment2=mu2,
        moment3=None,
        cdf=cdf,
        residual_tail_fn=rtail,
        quantile_fn=quantile,
        embedded_arrival_rate=lam,
        spec={"type": kind, "rho": rho},
    )


def power_function(c: float) -> ServiceDistribution:
    """Power-function service on [0, 1]: G(t) = t^c, mean c/(c+1)."""
    c = float(c)
    if not (0.0 < c < math.inf):
        raise DomainError(f"power parameter c must be positive and finite, got {c}")
    a = c / (c + 1.0)

    def cdf(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 0.0, 0.0, np.clip(t, 0.0, 1.0) ** c)

    def rtail(t):
        # alpha - I(t) = u + expm1((c+1) log1p(-u))/(c+1) with u = 1 - t,
        # evaluated at min(t, 1); exact 0 at t >= 1 and cancellation-free
        # near the support edge.  At t = 0, log1p(-1) = -inf feeds expm1
        # and lands exactly on alpha.
        t = np.asarray(t, dtype=float)
        u = 1.0 - np.clip(t, 0.0, 1.0)
        with np.errstate(divide="ignore"):
            return u + np.expm1((c + 1.0) * np.log1p(-u)) / (c + 1.0)

    def quantile(u):
        return np.asarray(u, dtype=float) ** (1.0 / c)

    kind = "uniform01" if c == 1.0 else "power"
    specd = {"type": "uniform01"} if c == 1.0 else {"type": "power", "c": c}
    return ServiceDistribution(
        name=f"{kind}(c={c:g})" if c != 1.0 else "uniform01",
        mean=a,
        moment2=c / (c + 2.0),
        moment3=None,
        cdf=cdf,
        residual_tail_fn=rtail,
        quantile_fn=quantile,
        support_end=1.0,
        spec=specd,
    )


def uniform01() -> ServiceDistribution:
    """Uniform service on [0, 1] (power function with c = 1)."""
    return power_function(1.0)


def scale(dist: ServiceDistribution, factor: float) -> ServiceDistribution:
    """Service times multiplied by ``factor`` (> 0).

    Class tags survive scaling.  The two logistic-form members rescale onto
    themselves with the arrival rate divided by ``factor``.
    """
    if not (factor > 0.0):
        raise DomainError(f"scale factor must be positive, got {factor}")
    k = float(factor)
    key = _CATALOG.get(dist.spec.get("type"), (None, None))[1]
    if key == "mean":
        return from_spec({**dist.spec, "mean": dist.mean * k})
    if key == "rho":
        return from_spec(dist.spec, dist.embedded_arrival_rate / k)

    base = dist

    def cdf(t):
        return base.cdf(np.asarray(t, dtype=float) / k)

    def rtail(t):
        return k * base.residual_tail_fn(np.asarray(t, dtype=float) / k)

    def quantile(u):
        return k * base.quantile_fn(u)

    return ServiceDistribution(
        name=f"scaled({base.name}, k={k:g})",
        mean=k * base.mean,
        moment2=None if base.moment2 is None else k * k * base.moment2,
        moment3=None if base.moment3 is None else k**3 * base.moment3,
        cdf=cdf,
        residual_tail_fn=rtail,
        quantile_fn=quantile,
        class_tags=base.class_tags,
        support_end=k * base.support_end,
        embedded_arrival_rate=None,
        spec={"type": "scaled", "base": dict(base.spec), "factor": k},
    )


def make_distribution(
    cdf: Callable,
    mean: float,
    moment2: Optional[float] = None,
    moment3: Optional[float] = None,
    name: str = "user",
    support_end: float = math.inf,
    class_tags=frozenset(),
) -> ServiceDistribution:
    """Wrap a user-supplied CDF in the common contract.

    ``cdf`` must map a numpy array of times to an array of probabilities of
    the same shape.  Construction tabulates the survival 1 - G once: the
    adaptive Gauss-Kronrod engine refines panels seeded at 0, at mean * 2^k
    below the end and at the end, where end is ``support_end`` or, for an
    unbounded support, the first mean * 2^k at which G reaches 1.  The
    table keeps G at every node it evaluated and the reverse cumulative
    sums of the panel integrals.  From it

    * r(t) = int_t^end [1 - G(v)] dv is the sum of the panels past t plus
      one 15-point Kronrod rule on the rest of t's panel, one array call
      of ``cdf`` for all t (r(t <= 0) is the declared mean);
    * the quantile brackets each u between two tabulated nodes and bisects
      G(t) >= u, the generalized inverse, to 1e-14 absolute plus a few ulp.

    Raises DomainError when the tabulated G leaves [0, 1] or decreases, or
    when the table's integral of 1 - G differs from ``mean`` by more than
    1e-8 relative; AccuracyError when an unbounded support finds no end.
    No reliability class is assumed; pass ``class_tags`` only for
    properties you can actually establish.
    """
    if not (0.0 < mean < math.inf):
        raise DomainError(f"mean must be positive and finite, got {mean}")
    tags = frozenset(class_tags)
    if not tags <= KNOWN_TAGS:
        raise DomainError(f"unknown class tags: {sorted(tags - KNOWN_TAGS)}")
    if not (support_end > 0.0):
        raise DomainError(f"support_end must be positive, got {support_end}")
    mean = float(mean)

    def G(t):
        return np.asarray(cdf(t), dtype=float)

    edges, tail_after, t_tab, g_tab = _tail_table(G, mean, float(support_end), name)
    last = len(edges) - 2  # index of the last panel

    def rtail(t):
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(edges, t, side="right") - 1, 0, last)
        b = edges[i + 1]
        part, _err = _gauss_kronrod(lambda v: 1.0 - G(v), np.clip(t, 0.0, b), b)
        return np.where(t <= 0.0, mean, np.maximum(tail_after[i] + part, 0.0))

    def quantile(u):
        u = np.asarray(u, dtype=float)
        # first node with G >= u; u <= G(0) gets the empty bracket [0, 0],
        # and u past the last G converges to end
        i = np.searchsorted(g_tab, u)
        hi = t_tab[np.minimum(i, len(t_tab) - 1)]
        lo = t_tab[np.maximum(i - 1, 0)]
        # each step halves every bracket, so the step count is known up front
        ratio = np.max((hi - lo) / (_XTOL + _RTOL * lo), initial=0.0)
        for _ in range(math.ceil(math.log2(ratio)) if ratio > 1.0 else 0):
            mid = 0.5 * (lo + hi)
            ge = G(mid) >= u
            hi = np.where(ge, mid, hi)
            lo = np.where(ge, lo, mid)
        return hi

    return ServiceDistribution(
        name=name,
        mean=mean,
        moment2=moment2,
        moment3=moment3,
        cdf=lambda t: G(np.asarray(t, dtype=float)),
        residual_tail_fn=rtail,
        quantile_fn=quantile,
        class_tags=tags,
        support_end=support_end,
        spec={"type": "user", "name": name},
    )


def _tail_table(G, mean: float, support_end: float, name: str):
    """(panel edges, integral of 1 - G past each panel, node times, G at the
    nodes) for ``make_distribution``, validated against the declared mean."""
    times, probs = [], []

    def survival(t):
        g = G(t)
        if g.shape != t.shape:
            raise DomainError(f"{name}: cdf must map an array of times to an "
                              f"array of the same shape")
        times.append(t)
        probs.append(g)
        return 1.0 - g

    breaks = _support_breaks(
        mean, support_end, lambda t: not survival(np.array([t]))[0] > 0.0,
        f"{name}: G stays below 1")  # G(t) >= 1, or nan, ends the support

    def nodes():
        """Every time G was evaluated at, sorted, and G there, validated."""
        t_all = np.concatenate(times)
        order = np.argsort(t_all, kind="stable")
        t_tab, g_tab = t_all[order], np.concatenate(probs)[order]
        outside = ~((g_tab >= -_G_SLACK) & (g_tab <= 1.0 + _G_SLACK))
        if outside.any():
            bad = float(g_tab[outside][0])
            raise DomainError(f"{name}: cdf returned {bad!r}, outside [0, 1]")
        falls = np.diff(g_tab) < -_G_SLACK
        if falls.any():
            k = int(np.argmax(falls))
            (t0, t1), (g0, g1) = t_tab[k:k + 2].tolist(), g_tab[k:k + 2].tolist()
            raise DomainError(f"{name}: cdf decreases from {g0!r} at t = {t0!r} "
                              f"to {g1!r} at t = {t1!r}")
        return t_tab, g_tab

    try:
        _total, _err, a, b, values = _refine(survival, breaks, _TABLE_TOL,
                                             _TABLE_PANELS)
    except AccuracyError:
        nodes()  # an invalid cdf is the likelier cause
        raise
    edges = np.append(a, b[-1])
    survival(edges)  # G at the edges joins the nodes
    t_tab, g_tab = nodes()
    inside = np.cumsum(values[::-1])[::-1]
    table_mean = float(inside[0])
    if not abs(table_mean - mean) <= _MEAN_TOL * mean:
        raise DomainError(f"{name}: the cdf integrates to a mean of "
                          f"{table_mean!r}, but mean = {mean!r} was declared")
    return edges, np.append(inside[1:], 0.0), t_tab, np.maximum.accumulate(g_tab)


# ---------------------------------------------------------------------------
# textual distribution format (shared with the CLI / config files)
# ---------------------------------------------------------------------------

# each catalog type: its constructor and the one key it reads besides
# "type", or None; a "rho" member also takes the queue's arrival rate
_CATALOG = {"exponential": (exponential, "mean"),
            "deterministic": (deterministic, "mean"),
            "special_a": (special_a, "rho"), "special_b": (special_b, "rho"),
            "power": (power_function, "c"), "uniform01": (uniform01, None)}


def from_spec(spec: dict, arrival_rate: Optional[float] = None) -> ServiceDistribution:
    """Build a catalog member from its key-value form.

    Supported forms: {"type":"exponential","mean":m}, {"type":"deterministic",
    "mean":m}, {"type":"special_a","rho":r}, {"type":"special_b","rho":r},
    {"type":"power","c":c}, {"type":"uniform01"}.  The two special forms
    inherit the queue-level arrival rate.  A key the type does not read is
    a DomainError.
    """
    if not isinstance(spec, dict) or "type" not in spec:
        raise DomainError(f"distribution spec must be a dict with a 'type': {spec!r}")
    kind = spec["type"]
    entry = _CATALOG.get(kind) if isinstance(kind, str) else None
    if entry is None:
        raise DomainError(f"unknown distribution type {kind!r}")
    build, key = entry
    for other in spec:
        if other != "type" and (other != key or key is None):
            raise DomainError(f"distribution spec {spec!r}: type {kind!r} "
                              f"does not read {other!r}")
    if key is None:
        return build()
    value = _req(spec, key)
    if key != "rho":
        return build(value)
    if arrival_rate is None:
        raise DomainError(f"{kind} needs the queue arrival rate")
    return build(arrival_rate, value)


def _req(spec: dict, key: str) -> float:
    if key not in spec:
        raise DomainError(f"distribution spec {spec!r} is missing {key!r}")
    if isinstance(spec[key], bool):  # float(True) would read as 1.0
        raise DomainError(f"distribution spec {spec!r} has a non-numeric {key!r}")
    try:
        value = float(spec[key])
    except (TypeError, ValueError):
        raise DomainError(
            f"distribution spec {spec!r} has a non-numeric {key!r}") from None
    except OverflowError:  # an int too large for a float
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"distribution spec {spec!r} has a non-finite {key!r}")
    return value


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def integrated_tail(dist: ServiceDistribution, t):
    """I(t) = int_0^t [1 - G(v)] dv, derived as mean - r(t), for t >= 0."""
    return dist.mean - residual_tail(dist, t)


def residual_tail(dist: ServiceDistribution, t):
    """mean - I(t) = int_t^inf [1 - G(v)] dv, computed without cancellation."""
    arr = np.asarray(t, dtype=float)
    if not np.all(arr >= 0.0):  # nan fails too
        raise DomainError(f"residual tail needs t >= 0, got {t}")
    out = dist.residual_tail_fn(arr)
    return float(out) if arr.shape == () else out
