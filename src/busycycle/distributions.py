"""Service-time distribution catalog for the infinite-server queue model.

Every member exposes the same analytic surface: CDF, mean, raw moments,
one tail, the residual tail r(t) = int_t^inf [1 - G(v)] dv in a
cancellation-free form, and an inverse-transform quantile used for
sampling.  The integrated tail I(t) = int_0^t [1 - G(v)] dv is derived as
alpha - r(t).  A law given only by its CDF (``make_distribution``) takes
both r(t) and the quantile from one table of 1 - G built at construction,
with no quadrature call per node and a few cdf calls per draw; the
quantile builds its inverse tables from it on its first draw and searches
them through a guide table.  Values are immutable after construction, bar
that one-time build, and safe for concurrent reads.
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
from .quadrature import _gauss_kronrod, _kronrod_nodes, _refine, _support_breaks

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

# User-CDF tail table: relative tolerance of its quadrature, the largest
# relative gap between a tabulated moment and the declared one, and the
# rounding a cdf value may show outside [0, 1] or as a decrease.
_TABLE_TOL = 1e-13
_MEAN_TOL = 1e-8
_G_SLACK = 4.0 * sys.float_info.epsilon
# The table's first refinement is also seeded at mean * 2^-k, k = 1 ... this
# count.  A density singular at 0 (t^c with c < 1, Weibull shape < 1) has
# its error piled in the panel at 0, which refinement otherwise halves one
# cdf call at a time: power c = 0.5 took 18 cdf calls, Weibull(1/2) 32.
# The benchmark's general_g pass (its six laws, in-process, 2 cores) took
# 11-14% less time than with no seeds for 13 to 24 octaves, a flat range,
# and 8-11% less for 6 to 10.
_TABLE_OCTAVES = 16
# User-CDF quantile: a draw q passes once G(q - tol) < u <= G(q), with
# tol = _XTOL + _RTOL * q the absolute and relative tolerances brentq used
# here before.  Each draw takes _SECANT steps from the table's guess; one
# that fails the check has G evaluated at _PROBES times tol on either side
# of its last step, and its bracket is then cut into _PARTS equal parts per
# cdf call, at _CUTS, until it is under tol / 2.
_XTOL = 1e-14
_RTOL = 4.0 * sys.float_info.epsilon
_SECANT = 3
_PROBES = np.outer((-1.0, 1.0), 2.0 ** np.arange(-1.0, 24.0)).ravel()
_PARTS = 32
_CUTS = np.arange(1.0, _PARTS) / _PARTS
# The most buckets a quantile's guide table takes; the search is exact
# for any count.
_GUIDE_MAX = 1 << 16


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
    ``variance``, when a law knows it in closed form, spares the SCV the
    cancellation of moment2 - mean^2.
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
    variance: Optional[float] = None

    @property
    def scv(self) -> float:
        """Squared coefficient of variation variance / mean^2.

        A law that supplies its variance has it used as given.  Otherwise
        it is mu2 - mean^2, which cancels when the variance is tiny against
        mean^2, so it is floored at 0: rounding cannot make the SCV negative.
        """
        if self.moment2 is None:
            raise UnsupportedMomentError(
                f"{self.name}: second moment unavailable, cannot form SCV"
            )
        if self.mean == 0.0:
            raise UnsupportedMomentError("SCV undefined for a zero-mean service")
        mean2 = _power(self.mean, 2, f"{self.name}: mean")
        if self.variance is not None:
            return self.variance / mean2
        return max(self.moment2 - mean2, 0.0) / mean2

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
        # a numpy float32 rate would carry its precision into every result
        object.__setattr__(self, "arrival_rate", float(self.arrival_rate))
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
        # -a log1p(-u) in one new array, for the simulator's memory
        x = np.negative(u, dtype=float)
        if not isinstance(x, np.ndarray):  # a scalar u
            return -a * np.log1p(x)
        np.log1p(x, out=x)
        x *= -a
        return x

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
        variance=a * a,
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
        variance=0.0,
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
    em1 = -math.expm1(-rho)      # 1 - e^-rho, without cancellation
    grow = math.expm1(rho)       # e^rho - 1
    k = lam if atom else lam / em1

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
                t = np.log(em1 * u / (em * (1.0 - u))) / lam
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
        variance=c / ((c + 1.0) ** 2 * (c + 2.0)),
    )


def uniform01() -> ServiceDistribution:
    """Uniform service on [0, 1] (power function with c = 1)."""
    return power_function(1.0)


def scale(dist: ServiceDistribution, factor: float) -> ServiceDistribution:
    """Service times multiplied by ``factor`` (> 0).

    Class tags survive scaling.  The two logistic-form members rescale onto
    themselves with the arrival rate divided by ``factor``.  DomainError is
    raised when the scaled mean, or a known moment2 or moment3, is not a
    finite float or underflows to 0.
    """
    if not (0.0 < factor < math.inf):
        raise DomainError(f"scale factor must be positive and finite, got {factor}")
    k = float(factor)
    key = _CATALOG.get(dist.spec.get("type"), (None, None))[1]
    if key == "mean":
        return from_spec({**dist.spec, "mean": dist.mean * k})
    if key == "rho":
        return from_spec(dist.spec, dist.embedded_arrival_rate / k)

    base = dist
    mean = k * base.mean
    moment2 = None if base.moment2 is None else k * k * base.moment2
    try:
        moment3 = None if base.moment3 is None else k**3 * base.moment3
    except OverflowError:  # float ** raises where * gives inf
        moment3 = math.inf
    for what, value in (("mean", mean), ("moment2", moment2),
                        ("moment3", moment3)):
        if value is not None and not (0.0 < value < math.inf):
            raise DomainError(f"scale factor {k!r} takes the {what} of "
                              f"{base.name} out of the float range")

    def cdf(t):
        return base.cdf(np.asarray(t, dtype=float) / k)

    def rtail(t):
        return k * base.residual_tail_fn(np.asarray(t, dtype=float) / k)

    def quantile(u):
        # k q_b can round down so far that cdf's (k q_b) / k falls below q_b;
        # one ulp up then restores G(q(u)) >= u
        qb = base.quantile_fn(u)
        q = k * qb
        return np.where(q / k < qb, np.nextafter(q, math.inf), q)

    return ServiceDistribution(
        name=f"scaled({base.name}, k={k:g})",
        mean=mean,
        moment2=moment2,
        moment3=moment3,
        cdf=cdf,
        residual_tail_fn=rtail,
        quantile_fn=quantile,
        class_tags=base.class_tags,
        support_end=k * base.support_end,
        embedded_arrival_rate=None,
        spec={"type": "scaled", "base": dict(base.spec), "factor": k},
        variance=None if base.variance is None else k * k * base.variance,
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
    adaptive Gauss-Kronrod engine refines panels seeded at 0, at mean * 2^-k
    for k = 16, ..., 1, at mean * 2^k below the end and at the end, where
    end is ``support_end`` or, for an unbounded support, the first
    mean * 2^k at which G reaches 1.  The seeds below the mean let a
    density singular at 0 (t^c with c < 1, Weibull shape < 1) be resolved
    in a few cdf calls rather than one split per call on the way to 0.
    The table keeps G at every node it evaluated and the reverse
    cumulative sums of the panel integrals.  From it

    * r(t) = int_t^end [1 - G(v)] dv is the sum of the panels past t plus
      one 15-point Kronrod rule on the rest of t's panel, one array call
      of ``cdf`` for all t (r(t <= 0) is the declared mean);
    * the quantile is the generalized inverse, the smallest t with
      G(t) >= u, to 1e-14 absolute plus a few ulp.  Its inverse tables are
      built from the table on its first draw, so r(t) and ``beta_c`` never
      build them.  A guide table into the distinct tabulated G values
      (``np.searchsorted``'s index, found in one lookup and one step for
      nearly every u) brackets u between two nodes and picks a monotone
      (Fritsch-Carlson) cubic of the inverse built from the table, whose
      value is the first guess.  A Newton step on the cubic's slope and
      two secant steps refine it, and two cdf values check the result q:
      G(q - tol) < u <= G(q), tol = 1e-14 + 8.9e-16 q.
      Only the draws that fail (G flat at float resolution, kinks, atoms)
      fall back to cutting their bracket into 32 equal parts per cdf call,
      each with a round count from its own bracket.  So the
      quantile is elementwise: ``quantile_fn(u)[i]`` is ``quantile_fn(u[i])``
      bit for bit, whatever else ``u`` holds.

    Raises DomainError when the tabulated G leaves [0, 1] or decreases, or
    when the table's integral of 1 - G differs from ``mean``, or its
    integral of k t^(k-1) (1 - G) from a given ``moment2`` (k = 2) or
    ``moment3`` (k = 3), by more than 1e-8 relative; AccuracyError when an
    unbounded support finds no end.
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

    edges, tail_after, t_tab, g_tab = _tail_table(
        G, name, float(support_end), (mean, moment2, moment3))
    last = len(edges) - 2  # index of the last panel
    tables = None  # the quantile's, built on its first call

    def rtail(t):
        t = np.asarray(t, dtype=float)
        # np.minimum(np.maximum(...)) gives np.clip's values, NaN included,
        # without its dispatch cost
        i = np.minimum(np.maximum(np.searchsorted(edges, t, side="right") - 1, 0),
                       last)
        b = edges[i + 1]
        part, _err = _gauss_kronrod(lambda v: 1.0 - G(v),
                                    np.minimum(np.maximum(t, 0.0), b), b)
        return np.where(t <= 0.0, mean, np.maximum(tail_after[i] + part, 0.0))

    def quantile(u):
        nonlocal tables
        built = tables
        if built is None:
            # a pure function of the tail table: threads that race here
            # build equal tables, and whichever rebind lands last is kept
            built = tables = _inverse_table(t_tab, g_tab)
        knots, guide, hi_tab, cubic = built
        u = np.asarray(u, dtype=float)
        # first tabulated G >= u; u <= G(0) gets the empty bracket [0, 0],
        # and u past the last G the empty bracket [end, end]
        flat = u.ravel()
        i = _guide_search(knots, guide, flat)
        x = hi_tab[i]
        k = np.flatnonzero((i > 0) & (i < knots.size - 1))
        if k.size:
            x[k] = _invert(G, flat[k], *np.take(cubic, i[k] - 1, axis=0).T)
        return x.reshape(u.shape)

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


def _tail_table(G, name: str, support_end: float, moments: tuple):
    """(panel edges, integral of 1 - G past each panel, node times, G at the
    nodes) for ``make_distribution``, validated against the declared
    moments E[S^k] = int k t^(k-1) (1 - G) dt, k = 1, 2, 3, that are given."""
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
        moments[0], support_end, lambda t: not survival(np.array([t]))[0] > 0.0,
        f"{name}: G stays below 1",  # G(t) >= 1, or nan, ends the support
        below=_TABLE_OCTAVES)

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
        _total, _err, a, b, values = _refine(survival, breaks, _TABLE_TOL)
    except AccuracyError:
        nodes()  # an invalid cdf is the likelier cause
        raise
    edges = np.append(a, b[-1])
    survival(edges)  # G at the edges joins the nodes
    t_tab, g_tab = nodes()
    # refinement evaluated G at every Kronrod node of the converged panels
    x, w = _kronrod_nodes(a, b)
    tail_w = w * (1.0 - g_tab[np.searchsorted(t_tab, x)])
    for k, declared in enumerate(moments, 1):
        if declared is None:
            continue
        what = "mean" if k == 1 else f"moment{k}"
        table = float(np.sum(k * x ** (k - 1) * tail_w))
        if not abs(table - declared) <= _MEAN_TOL * table:
            raise DomainError(f"{name}: the cdf integrates to a {what} of "
                              f"{table!r}, but {what} = {declared!r} was declared")
    inside = np.cumsum(values[::-1])[::-1]
    return edges, np.append(inside[1:], 0.0), t_tab, np.maximum.accumulate(g_tab)


def _inverse_table(t_tab, g_tab):
    """(knots g, guide, bracket right ends, cubic rows) of the generalized
    inverse t(u) of a tabulated nondecreasing G, for ``make_distribution``'s
    quantile.

    Each distinct G value g[j] is kept at its leftmost node, hi[j]; the
    last node (the support end) is a sentinel past the last g.  So u in
    (g[j-1], g[j]] has the bracket [lo, hi[j]], with lo the node before
    hi[j], where G is still g[j-1]; u <= g[0] or u > g[-1] has an empty
    one.  ``_guide_search`` finds j through the guide; the knots are g
    followed by a +inf sentinel, past which its step cannot go.  Row j - 1
    of the cubic rows holds lo, hi[j], g[j-1], g[j] - g[j-1] and the
    coefficients of the Hermite cubic
    lo + c1 s + c2 s^2 + c3 s^3, s = (u - g[j-1]) / (g[j] - g[j-1]),
    through the bracket ends.  Its end slopes are Fritsch-Carlson weighted
    harmonic means of the neighbouring secants (secants at the two outer
    ends), each within 3 times its own secant, so the cubic is monotone.
    """
    rise = np.flatnonzero(g_tab[1:] > g_tab[:-1]) + 1
    first = np.append(0, rise)  # the leftmost node of each distinct G
    g = g_tab[first]
    hi = t_tab[np.append(first, t_tab.size - 1)]
    lo = t_tab[rise - 1]
    du, dt = np.diff(g), hi[1:-1] - lo
    # end slopes relative to the bracket's secant, a at lo and b at hi
    a, b = np.ones(du.size), np.ones(du.size)
    w1, w2 = 2.0 * du[1:] + du[:-1], du[1:] + 2.0 * du[:-1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        r = (dt[:-1] * du[1:]) / (du[:-1] * dt[1:])  # left over right secant
        b[:-1] = (w1 + w2) / (w1 + w2 * r)
        a[1:] = (w1 + w2) / (w1 / r + w2)
    a, b = np.fmax(a, 0.0), np.fmax(b, 0.0)  # 0/0 and inf/inf give 0
    rows = np.column_stack((lo, hi[1:-1], g[:-1], du, dt * a,
                            dt * (3.0 - 2.0 * a - b), dt * (a + b - 2.0)))
    # K buckets, a power of two so that u K is exact: bucket j holds the u
    # with j <= u K < j + 1, and guide[j] is the first knot >= j / K (0 for
    # j = 0, which also takes every u < 0)
    buckets = min(1 << (4 * g.size - 1).bit_length(), _GUIDE_MAX)
    guide = np.searchsorted(g, np.arange(buckets) / buckets)
    guide[0] = 0
    return np.append(g, np.inf), guide, hi, rows


def _guide_search(knots, guide, u):
    """np.searchsorted(knots[:-1], u) for every float in the 1-d array u,
    through the guide table of ``_inverse_table`` (Hoermann and Leydold,
    2003): from guide[floor(u K)], clamped to [0, K - 1], one step forward
    where the knot is still below u; the few u that are still short, and
    NaN, go to np.searchsorted."""
    buckets = guide.size
    j = u * buckets
    np.fmax(j, 0.0, out=j)  # before the int cast: NaN becomes bucket 0
    np.minimum(j, buckets - 1, out=j)
    i = guide[j.astype(np.intp)]
    i += knots[i] < u
    short = np.flatnonzero(~(knots[i] >= u))  # the +inf sentinel stops the rest
    if short.size:
        i[short] = np.searchsorted(knots[:-1], u[short])
    return i


def _invert(G, u, lo, hi, g0, du, c1, c2, c3):
    """The smallest t with G(t) >= u, for g0 < u <= g0 + du in the bracket
    [lo, hi] with G(lo) = g0 and G(hi) = g0 + du.

    The cubic lo + c1 s + c2 s^2 + c3 s^3, s = (u - g0) / du, gives the
    first guess x.  A Newton step on the cubic's slope and secant steps
    follow, _SECANT in all, each kept inside the bracket as it shrinks.
    Then q = x + tol/2, tol = _XTOL + _RTOL x, is returned when it passes
    the check G(q - (_XTOL + _RTOL q)) < u <= G(q).  Where it fails (G
    moves only at float resolution, or has a kink or an atom), G at
    _PROBES tol from x narrows the bracket, and ``_bisect`` ends it.  Every
    step acts on each element alone, so element i of the result depends
    on u[i] only.
    """
    s = (u - g0) / du
    x = np.fmin(np.fmax(lo + s * (c1 + s * (c2 + s * c3)), lo), hi)
    f = G(x) - u
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        dx = np.where(f != 0.0, f * (c1 + s * (2.0 * c2 + 3.0 * s * c3)) / du, 0.0)
    for step in range(_SECANT):
        up = f >= 0.0
        lo, hi = np.where(up, lo, x), np.where(up, x, hi)
        x, xp, fp = np.fmin(np.fmax(x - dx, lo), hi), x, f
        if step + 1 < _SECANT:
            f = G(x) - u
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                dx = np.where(f != fp, f * (x - xp) / (f - fp), 0.0)
    tol = _XTOL + _RTOL * x
    q = x + 0.5 * tol
    n = q.size
    ge = G(np.concatenate((q - (_XTOL + _RTOL * q), q))) >= np.concatenate((u, u))
    k = np.flatnonzero(ge[:n] | ~ge[n:])
    if k.size:
        lo, hi = lo[k], hi[k]
        pts = np.fmin(np.fmax(x[k, None] + tol[k, None] * _PROBES,
                              lo[:, None]), hi[:, None])
        ge = G(pts.ravel()).reshape(pts.shape) >= u[k, None]
        lo = np.maximum(lo, np.max(np.where(ge, -np.inf, pts), axis=1))
        hi = np.minimum(hi, np.min(np.where(ge, pts, np.inf), axis=1))
        q[k] = _bisect(G, u[k], lo, hi)
    return q


def _bisect(G, u, lo, hi):
    """hi after cutting each bracket [lo, hi], G(lo) < u <= G(hi), into
    _PARTS parts per cdf call and keeping the first part whose right end
    has G >= u, until it is under half of _XTOL + _RTOL lo, which leaves
    G(hi - tol) < u room for rounding.  The round count of each element
    comes from its own bracket alone."""
    ratio = 2.0 * (hi - lo) / (_XTOL + _RTOL * lo)
    rounds = np.ceil(np.log2(np.fmax(ratio, 1.0)) / math.log2(_PARTS))
    for r in range(int(np.max(rounds, initial=0.0))):
        k = np.flatnonzero(rounds > r)
        cuts = lo[k, None] + (hi[k] - lo[k])[:, None] * _CUTS
        ge = G(cuts.ravel()).reshape(cuts.shape) >= u[k, None]
        # the new bracket is the first part whose right end has G >= u:
        # [lo, cut 0] when cut 0 has, [cut j - 1, cut j] when cut j is the
        # first that has, and [last cut, hi] when none has (argmax is then
        # 0, and index j - 1 = -1 is the last cut)
        hit = ge.any(axis=1)
        j = ge.argmax(axis=1)
        rows = np.arange(k.size)
        lo[k] = np.where(hit & (j == 0), lo[k], cuts[rows, j - 1])
        hi[k] = np.where(hit, cuts[rows, j], hi[k])
    return hi


# ---------------------------------------------------------------------------
# textual distribution format (shared with the CLI / config files)
# ---------------------------------------------------------------------------

# each catalog type: its constructor and the one key it reads besides
# "type", or None; a "rho" member also takes the queue's arrival rate
_CATALOG = {"exponential": (exponential, "mean"),
            "deterministic": (deterministic, "mean"),
            "special_a": (special_a, "rho"), "special_b": (special_b, "rho"),
            "power": (power_function, "c"), "uniform01": (uniform01, None)}


def _shown(value) -> str:
    """repr(value), cut with an ellipsis past 200 characters, so that an
    error on outside input stays short."""
    text = repr(value)
    return text if len(text) <= 200 else text[:200] + "…"


def from_spec(spec: dict, arrival_rate: Optional[float] = None) -> ServiceDistribution:
    """Build a catalog member from its key-value form.

    Supported forms: {"type":"exponential","mean":m}, {"type":"deterministic",
    "mean":m}, {"type":"special_a","rho":r}, {"type":"special_b","rho":r},
    {"type":"power","c":c}, {"type":"uniform01"}.  The two special forms
    inherit the queue-level arrival rate.  A key the type does not read is
    a DomainError.
    """
    if not isinstance(spec, dict) or "type" not in spec:
        raise DomainError(f"distribution spec must be a dict with a 'type': {_shown(spec)}")
    kind = spec["type"]
    entry = _CATALOG.get(kind) if isinstance(kind, str) else None
    if entry is None:
        raise DomainError(f"unknown distribution type {_shown(kind)}")
    build, key = entry
    for other in spec:
        if other != "type" and (other != key or key is None):
            raise DomainError(f"distribution spec {_shown(spec)}: type {kind!r} "
                              f"does not read {_shown(other)}")
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
        raise DomainError(f"distribution spec {_shown(spec)} is missing {key!r}")
    if isinstance(spec[key], bool):  # float(True) would read as 1.0
        raise DomainError(f"distribution spec {_shown(spec)} has a non-numeric {key!r}")
    try:
        value = float(spec[key])
    except (TypeError, ValueError):
        raise DomainError(
            f"distribution spec {_shown(spec)} has a non-numeric {key!r}") from None
    except OverflowError:  # an int too large for a float
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"distribution spec {_shown(spec)} has a non-finite {key!r}")
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
