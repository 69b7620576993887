"""Service-time distribution catalog for the infinite-server queue model.

Every member exposes the same analytic surface: CDF, mean, raw moments,
one tail, the residual tail r(t) = int_t^inf [1 - G(v)] dv in a
cancellation-free form, and an inverse-transform quantile used for
sampling.  The integrated tail I(t) = int_0^t [1 - G(v)] dv is derived as
alpha - r(t).  A law given only by its CDF (``make_distribution``) takes
both r(t) and the quantile from one table of 1 - G built at construction,
with no quadrature call per node and about three cdf values per draw; the
quantile builds its inverse tables from it on its first draw, with no cdf
call, and searches them through a guide table.  The table of 1 - G holds
read-only copies of what the cdf returned, so a cdf may reuse its output
buffer.  Values are immutable after construction, bar that one-time build,
and safe for concurrent reads.
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
from .quadrature import (
    _G_WEIGHTS,
    _GK_NODES,
    _K_WEIGHTS,
    _gauss_kronrod,
    _kronrod_nodes,
    _refine,
    _support_breaks,
)

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
# Draws per slice of the logistic quantiles' division (``_divide_by_gap``):
# its one temporary takes 64 KiB however many draws a call makes.
_SLICE = 8192

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
# User-CDF quantile: a draw q passes once G(q - tol) < u <= G(q).  Each
# bracket of the inverse table fixes its tol: the larger of _XTOL + _RTOL t
# at its left end t, the absolute and relative tolerances brentq used here
# before, and G's resolution in t there, _ULPS eps g t', with g the G at
# its right end and t' its least slope dt/du.  eps g is one to two float
# steps of any u in the bracket, so where G rises by a few float steps over
# tol, tol spans them.  Each draw takes one Newton step from the table's
# quintic guess and is checked; one that fails takes a secant step from
# its q and is checked again.  A draw that fails both has its bracket, cut
# at the points both checks evaluated, cut into _PARTS equal parts per cdf
# call, at _CUTS, until it is under half of _XTOL + _RTOL lo.
_XTOL = 1e-14
_RTOL = 4.0 * sys.float_info.epsilon
_ULPS = 4.0
_PARTS = 32
_CUTS = np.arange(1.0, _PARTS) / _PARTS
# The most buckets a quantile's guide table takes; the search is exact
# for any count.
_GUIDE_MAX = 1 << 16


def _lagrange(s):
    """(l, l', l'') of the Lagrange basis l_m of the degree-16 interpolant
    through the 17 points -1, the Kronrod nodes and 1, at the y that lie s
    of the way from each point j < 16 to point j + 1, for each s in (0, 1),
    along axes [j, s, m].  l_m is a product over the other points n, l_m' =
    l_m S1 and l_m'' = l_m (S1^2 - S2), with S1 and S2 the sums of 1 / (y -
    x_n) and of its square over n != m."""
    x = np.array([-1.0] + _GK_NODES.tolist() + [1.0])
    y = x[:-1, None] + np.diff(x)[:, None] * s
    same = np.eye(x.size, dtype=bool)  # [m, n]: n == m, left out
    gap = np.where(same, 1.0, (y[..., None] - x)[..., None, :])
    basis = np.prod(gap, axis=-1) / np.prod(np.where(same, 1.0, x[:, None] - x), axis=1)
    inv = np.where(same, 0.0, 1.0 / gap)
    s1, s2 = inv.sum(axis=-1), (inv * inv).sum(axis=-1)
    return basis, basis * s1, basis * (s1 * s1 - s2)


def _differentiation():
    """(17, 2 * 17 + 2) weights: column j of a panel's G values at its left
    edge, 15 Kronrod nodes and right edge, on [-1, 1], summed against
    these gives the derivative of their degree-16 interpolant at point j
    for j < 17, the second derivative at point j - 17 for j < 34
    (barycentric formulas, Berrut and Trefethen 2004, in math.fsum),
    K15 - G7 of G, the Kronrod rule's error estimate, for j = 34, and G's
    rise over the panel for j = 35."""
    x = [-1.0] + _GK_NODES.tolist() + [1.0]
    n = len(x)
    w = [1.0 / math.prod(x[j] - x[k] for k in range(n) if k != j)
         for j in range(n)]
    d1 = [[w[j] / w[i] / (x[i] - x[j]) if i != j else 0.0 for j in range(n)]
          for i in range(n)]
    d2 = [[0.0] * n for _ in range(n)]
    for i in range(n):
        d1[i][i] = -math.fsum(d1[i])
        for j in range(n):
            if j != i:
                d2[i][j] = 2.0 * d1[i][j] * (d1[i][i] - 1.0 / (x[i] - x[j]))
        d2[i][i] = -math.fsum(d2[i])
    defect = [0.0] + (_K_WEIGHTS - _G_WEIGHTS).tolist() + [0.0]
    rise = [-1.0] + [0.0] * (n - 2) + [1.0]
    return np.array(d1 + d2 + [defect, rise]).T.copy()


_DIFF = _differentiation()
# A bracket of the quantile's table whose quintic may miss its check is cut
# into 2^_SPLITS equal parts in t, at the points _GRID of the way across.
# The outer ends keep the bracket's own nodes; a panel's G values at its
# left edge, 15 Kronrod nodes and right edge, on [-1, 1], summed against
# _CUT_WEIGHTS[j, :, d, k] give derivative d = 0, 1, 2 of their degree-16
# interpolant at the point _GRID[k + 1] of the way from point j to j + 1.
_SPLITS = 2
_GRID = np.arange((1 << _SPLITS) + 1) / (1 << _SPLITS)
_CUT_WEIGHTS = np.stack(_lagrange(_GRID[1:-1]), axis=-1).transpose(0, 2, 3, 1).copy()
# Brackets are cut only when those that need it hold this much of the
# probability.  Cutting is about 30 array passes when the table is built,
# some 170 us; what it saves is the fallback of the draws that miss, per
# quantile call.  In the benchmark's general_g estimates (1000 cycles,
# about 3000 draws) cutting cost 137 us net on Weibull(1/2), whose
# brackets to cut hold 0.6%, and 135-141 us on the exponential law of
# mean 1/2 (9.7%), whose misses all pass the secant step, and saved 92
# and 304 us on Kumaraswamy(2, 3) (33.5%), whose misses also reach the
# 32-part search (medians of 4571 interleaved pairs in process).  The
# break-even lies between 9.7% and 33.5%.
_CUT_MASS = 0.2
# A panel is rough, and takes its slopes from parabolas in u rather than
# from its interpolant in t, when |K15 - G7| of G exceeds this share of
# G's rise over it, a rise floored at this value: a panel that holds less
# probability has too few draws to pay for the parabolas.  The panel at 0
# of a density singular there (t^(1/2), Weibull shape 1/2) reads 4.7e-4,
# smooth panels 1e-10 or less, and the panels where G is within 1e-7 of 1
# (G flat at float resolution) hold under 1e-6.
_ROUGH = 1e-6
# The quintic Hermite coefficients c1 ... c5 of a bracket, the rows, from
# its ends: (hi - lo, t' du at lo and at hi, -t'' du^2 at lo and at hi),
# and the ends of the secant, per unit hi - lo, which has c1 = hi - lo.
_QUINTIC = np.array([[0.0, 1.0, 0.0, 0.0, 0.0],
                     [0.0, 0.0, 0.0, -0.5, 0.0],
                     [10.0, -6.0, -4.0, 1.5, -0.5],
                     [-15.0, 8.0, 7.0, -1.5, 1.0],
                     [6.0, -3.0, -3.0, 0.5, -0.5]])
_SECANT_ENDS = np.array([[1.0], [1.0], [1.0], [0.0], [0.0]])


_BOOLS = (bool, np.bool_)  # float(True) would read as 1.0
# Each range a public numeric parameter may take, keyed by its wording.
_RANGES = {"finite and positive": lambda x: 0.0 < x < math.inf,
           "finite and >= 0": lambda x: 0.0 <= x < math.inf,
           "positive": lambda x: x > 0.0, ">= 0": lambda x: x >= 0.0,
           "finite": math.isfinite, "a number": lambda x: not math.isnan(x)}


def _number(value, name: str, rule: str = "finite and positive") -> float:
    """``value`` as a Python float: the one reading of every public numeric
    parameter.  DomainError, naming ``name``, for a bool (Python or numpy),
    a value ``float()`` cannot read, an int past the float range, NaN, or
    a value outside ``rule``, a key of ``_RANGES``."""
    try:
        if isinstance(value, _BOOLS):
            raise TypeError
        x = float(value)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a number, got {_shown(value)}") from None
    except OverflowError:  # an int past the float range
        x = math.nan
    if not _RANGES[rule](x):
        raise DomainError(f"{name} must be {rule}, got {_shown(value)}")
    return x


def _tags(value, name: str) -> frozenset:
    """``value`` as a frozenset of known class tags: the one reading of every
    tag-set parameter.  DomainError, naming ``name``, for a value that is
    not a collection of names (a string too, whose letters a set would
    read as tags), and for a tag outside KNOWN_TAGS."""
    try:
        if isinstance(value, str):
            raise TypeError
        tags = frozenset(value)
    except TypeError:
        raise DomainError(f"{name} must be a set of class tags, got "
                          f"{_shown(value)}") from None
    if not tags <= KNOWN_TAGS:
        raise DomainError(f"unknown class tags: {sorted(tags - KNOWN_TAGS, key=repr)}")
    return tags


def _floats(values, name: str) -> np.ndarray:
    """``values`` as a float array, or DomainError, naming ``name``, for
    bools, non-numbers, NaN and values below 0."""
    try:
        arr = np.asarray(values)
        if arr.dtype.kind == "b":
            raise TypeError
        arr = arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{name} must be numbers, got {_shown(values)}") from None
    if not np.all(arr >= 0.0):  # NaN fails too
        raise DomainError(f"{name} must be >= 0, got {_shown(values)}")
    return arr


def _shown(value) -> str:
    """repr(value) on one line, its runs of white space made one space, cut
    with an ellipsis past 200 characters, so that an error on outside
    input stays short (numpy prints a long array over several lines)."""
    text = " ".join(repr(value).split())
    return text if len(text) <= 200 else text[:200] + "…"


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
    A catalog law's quantile creates one new array the size of its draws,
    with at most small temporaries beside it: the simulator calls it on
    each chunk's uniforms, and a second such array, freed with the first,
    lets malloc trim the heap, so that the next chunk faults its pages
    back in.
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
            raise UnsupportedMomentError(f"{self.name}: SCV undefined for a zero mean")
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
        object.__setattr__(self, "arrival_rate",
                           _number(self.arrival_rate, "arrival_rate"))
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
    a = _number(mean, "exponential mean")

    def cdf(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 0.0, 0.0, -np.expm1(-np.maximum(t, 0.0) / a))

    def rtail(t):
        return a * np.exp(-np.asarray(t, dtype=float) / a)

    def quantile(u):
        # -a log1p(-u) in one new array (see ServiceDistribution)
        x = np.negative(u, dtype=float)
        with np.errstate(divide="ignore"):  # u = 1 maps to inf
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
    every service takes no time (rho = 0); on the command line it is
    ``--dist '{"type":"deterministic","mean":0}'``."""
    a = _number(mean, "deterministic mean", "finite and >= 0")

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
        moment2=a * a if a * a < math.inf else _power(a, 2, "deterministic mean"),
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


def _divide_by_gap(t, u, d: float) -> None:
    """t /= d (1 - u) in place, for flat arrays of one size, a slice at a
    time through one buffer of _SLICE floats, freed on return, before the
    caller makes its next temporary.  Each slice's -, * and / round as the
    whole arrays' would."""
    buf = np.empty(min(t.size, _SLICE))
    for s in range(0, t.size, _SLICE):
        den = np.subtract(1.0, u[s:s + _SLICE], out=buf[:min(_SLICE, t.size - s)])
        if d != 1.0:  # 1.0 (1 - u) is 1 - u, exactly
            den *= d
        t[s:s + _SLICE] /= den


def _logistic(kind: str, arrival_rate: float, rho: float) -> ServiceDistribution:
    """The two logistic-form members.  Both have mean rho/lam and the
    residual tail r(t) = log1p((e^rho - 1) e^(-k t)) / lam, with k = lam
    for special_a and k = lam / (1 - e^-rho) for special_b; only the cdf,
    the quantile and the E[S^2] factor differ."""
    lam = _number(arrival_rate, "arrival_rate")
    rho = _number(rho, "rho")
    _check_rho(rho)
    atom = kind == "special_a"   # special_a has mass em at zero
    em = math.exp(-rho)
    em1 = -math.expm1(-rho)      # 1 - e^-rho, without cancellation
    grow = math.expm1(rho)       # e^rho - 1
    k = lam if atom else lam / em1
    # the quantile is log(c u / (d (1 - u))) / k for special_a and
    # log1p(c u / (1 - u)) / k for special_b, with G(0) = em or 0
    c, d = (em1, em) if atom else (math.exp(rho), 1.0)
    log = np.log if atom else np.log1p
    at_zero = em if atom else 0.0
    # c u / (d (1 - u)) < e^rho 2^53 for u < 1, since 1 - u >= 2^-53, so it
    # can overflow only when rho passes RHO_MAX - 53 log 2 = RHO_MAX - 36.7
    may_overflow = rho > RHO_MAX - 37.0
    log_c_d = math.log(em1) + rho if atom else rho  # log(c / d)

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
        t = np.multiply(c, u, out=np.empty(u.shape))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            _divide_by_gap(t.reshape(-1), u.reshape(-1), d)
            log(t, out=t)
            t /= k
            if may_overflow:
                # where c u / (d (1 - u)) passed the float range, log1p's 1
                # is below its ulp: log(c / d) + log u - log1p(-u)
                big = (t == math.inf) & (u < 1.0)
                v = u[big]
                t[big] = (log_c_d + np.log(v) - np.log1p(-v)) / k
        t[u <= at_zero] = 0.0  # as np.where would: a NaN u stays NaN
        return t

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
    c = _number(c, "power parameter c")
    a = c / (c + 1.0)

    def cdf(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 0.0, 0.0, np.clip(t, 0.0, 1.0) ** c)

    def rtail(t):
        # alpha - I(t) = (c (1 - t) + t expm1(c ln t)) / (c + 1) at t in
        # [0, 1]: both terms are O(c), so no O(1) terms cancel and a small c
        # keeps its digits.  Exact 0 at t >= 1; at t = 0, ln 0 = -inf gives
        # expm1 = -1 and lands exactly on alpha.
        t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
        with np.errstate(divide="ignore"):
            return (c * (1.0 - t) + t * np.expm1(c * np.log(t))) / (c + 1.0)

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
        variance=c / (_power(c + 1.0, 2, "power parameter c + 1") * (c + 2.0)),
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
    k = _number(factor, "scale factor")
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
    mean * 2^k at which G reaches 1.  That search asks the cdf about 8
    octaves per call, so it may evaluate G up to 7 octaves past the end
    it finds, and keeps G only up to that end: the table is the one a
    search one octave per call builds.  The seeds below the mean let a
    density singular at 0 (t^c with c < 1, Weibull shape < 1) be resolved
    in a few cdf calls rather than one split per call on the way to 0.
    The table keeps G at every node it evaluated and the reverse
    cumulative sums of the panel integrals, in read-only arrays of its
    own: it copies what the cdf returns, so a cdf may return a buffer it
    reuses from call to call.  From it

    * r(t) = int_t^end [1 - G(v)] dv is the sum of the panels past t plus
      one 15-point Kronrod rule on the rest of t's panel, one array call
      of ``cdf`` for all t (r(t <= 0) is the declared mean);
    * the quantile is the generalized inverse, the smallest t with
      G(t) >= u, to 1e-14 absolute plus a few ulp, or to G's own
      resolution where that is coarser; NaN for a NaN u.  Its inverse
      tables are built from the table on its first draw, with no cdf
      call, so r(t) and ``beta_c`` never build them.  A guide table into
      the tabulated G values (``np.searchsorted``'s index, found in one
      lookup and one step for nearly every u) brackets u between two
      adjacent nodes of one panel, and the quintic Hermite interpolant of
      the inverse there (Hoermann and Leydold, 2003) gives the first
      guess.  Its end slopes t' = 1/G' and t'' = -G''/G'^3 come from the
      derivatives of the panel's degree-16 interpolant through its Kronrod
      nodes and edges, or, on a panel no polynomial in t follows (a density
      singular at 0), from parabolas in u through neighbouring nodes.  One
      Newton step on the quintic's slope refines the guess, and two cdf
      values check the result q: G(q - tol) < u <= G(q), with tol the
      larger of 1e-14 + 8.9e-16 t at the bracket's left end t and 4 eps g
      t', G's resolution in t, for g the G at the bracket's right end and
      t' its least slope dt/du.  A bracket whose quintic the interpolant
      shows would leave the step more than tol / 2 off is cut into 4 equal
      parts in t, whose outer ends keep the bracket's nodes with their
      tabulated G, slopes and curvatures, and whose inner ends take theirs
      from the same interpolant, so no cdf call; this is done when such
      brackets hold 20% of the probability or more, where it costs less
      than the fallback of the draws that would miss (Kumaraswamy(2,
      3), 33.5%), and below that those draws are left to the fallback
      (the exponential law, 9.7%).  So most draws take three cdf values.  A
      draw that fails takes a secant step from q and is checked once
      more; each failed check cuts its bracket at the two points it
      evaluated, and only the draws that fail both (kinks, atoms, a
      density strongly singular at 0) fall back to cutting what is left
      of their bracket into 32 equal parts per cdf call, each with a
      round count from its own bracket.  So the quantile is elementwise:
      ``quantile_fn(u)[i]`` is ``quantile_fn(u[i])`` bit for bit, whatever
      else ``u`` holds.

    Raises DomainError when the tabulated G leaves [0, 1] or decreases, or
    when the table's integral of 1 - G differs from ``mean``, or its
    integral of k t^(k-1) (1 - G) from a given ``moment2`` (k = 2) or
    ``moment3`` (k = 3), by more than 1e-8 relative; AccuracyError when an
    unbounded support finds no end.
    Every cdf output, at construction and later, that is text, complex
    (even with a zero imaginary part) or objects ``float`` cannot read
    raises DomainError naming the law, and so does a float output narrower
    than float64 (float32, float16): the table's tolerance, 1e-13, is below
    its resolution, so the table could not converge.  An error the cdf
    raises itself passes through unchanged, at construction and later:
    from ``quantile_fn``, ``residual_tail_fn``, ``beta_c`` and
    ``estimate_beta_c``, whose threads are all joined before it is raised.
    No reliability class is assumed; pass ``class_tags`` only for
    properties you can actually establish.
    """
    mean = _number(mean, "mean")
    moment2 = None if moment2 is None else _number(moment2, "moment2")
    moment3 = None if moment3 is None else _number(moment3, "moment3")
    support_end = _number(support_end, "support_end", "positive")
    tags = _tags(class_tags, "class_tags")

    def G(t):
        values = cdf(t)  # an error the cdf raises passes through
        try:
            g = np.asarray(values)
            if g.dtype.kind not in "biufO":  # text, complex, dates
                raise TypeError
            if g.dtype.kind != "f" or g.dtype.itemsize >= 8:
                return g.astype(float, copy=False)
        except (TypeError, ValueError, OverflowError):
            raise DomainError(f"{name}: cdf returned {_shown(values)}, not "
                              f"real numbers") from None
        raise DomainError(f"{name}: cdf returned {g.dtype} values, whose "
                          f"resolution {np.finfo(g.dtype).eps:.3g} is coarser "
                          f"than the table tolerance {_TABLE_TOL:g}; return "
                          f"float64")

    table = _tail_table(G, name, support_end, (mean, moment2, moment3))
    tables = None  # the quantile's, built on its first call

    def rtail(t):
        t = np.asarray(t, dtype=float)
        # t's panel among the left edges: t before the first, or past the
        # end, is in the first or the last
        i = np.maximum(table.edges[:-1].searchsorted(t, side="right") - 1, 0)
        b = table.edges[i + 1]
        part, _err = _gauss_kronrod(lambda v: 1.0 - G(v),
                                    np.minimum(np.maximum(t, 0.0), b), b)
        return np.where(t <= 0.0, mean, np.maximum(table.tail_after[i] + part, 0.0))

    def quantile(u):
        nonlocal tables
        if tables is None:
            # a pure function of the tail table: threads that race here
            # build equal tables, and whichever rebind lands last is kept
            tables = _inverse_table(table)
        knots, guide, hi_tab, quintic = tables
        u = np.asarray(u, dtype=float)
        # first tabulated G >= u; u <= G(0) gets the empty bracket [0, 0],
        # and u past the last G the empty bracket [end, end]
        flat = u.ravel()
        i = _guide_search(knots, guide, flat)
        inner = (i > 0) & (i < knots.size - 1)  # false for NaN
        if flat.size and inner.all():  # no draw to gather or scatter
            return _invert(G, flat, *quintic.take(i, axis=1)).reshape(u.shape)
        x = hi_tab[i]
        x[np.isnan(flat)] = np.nan
        k = np.flatnonzero(inner)
        if k.size:
            x[k] = _invert(G, flat[k], *quintic.take(i[k], axis=1))
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


@dataclass(frozen=True, eq=False)
class _Table:
    """The table of 1 - G that ``make_distribution`` builds from a user's
    cdf: the converged panels' edges, the integral of 1 - G past each
    panel, and, in one row per panel, its 17 points (left edge, 15 Kronrod
    nodes, right edge) and G at them.  Every array is the table's own and
    read-only."""

    edges: np.ndarray
    tail_after: np.ndarray
    t: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        for arr in vars(self).values():
            arr.setflags(write=False)


def _tail_table(G, name: str, support_end: float, moments: tuple) -> _Table:
    """The ``_Table`` of ``G`` for ``make_distribution``, validated against
    the declared moments E[S^k] = int k t^(k-1) (1 - G) dt, k = 1, 2, 3,
    that are given.  It keeps copies of the values G returned, so a cdf
    may return a buffer it reuses."""
    times, probs = [], []

    def survival(t):
        g = G(t)
        if g.shape != t.shape:
            raise DomainError(f"{name}: cdf must map an array of times to an "
                              f"array of the same shape")
        probs.append(g.copy())
        times.append(t)
        return 1.0 - probs[-1]

    def past_end(t):
        # G(t) >= 1, or nan, ends the support.  G is kept up to the first
        # such t only, so the table holds the nodes a search one point at
        # a time would have given it.
        ended = ~(survival(t) > 0.0)
        n = int(np.argmax(ended)) + 1 if ended.any() else t.size
        times[-1], probs[-1] = t[:n], probs[-1][:n]
        return ended

    breaks = _support_breaks(moments[0], support_end, past_end,
                             f"{name}: G stays below 1", below=_TABLE_OCTAVES)

    def nodes():
        """Every time G was evaluated at, sorted, and G there, validated."""
        t_all = np.concatenate(times)
        order = t_all.argsort(kind="stable")
        t_tab, g_tab = t_all[order], np.concatenate(probs)[order]
        outside = ~((g_tab >= -_G_SLACK) & (g_tab <= 1.0 + _G_SLACK))
        if outside.any():
            bad = float(g_tab[outside][0])
            raise DomainError(f"{name}: cdf returned {bad!r}, outside [0, 1]")
        falls = g_tab[1:] - g_tab[:-1] < -_G_SLACK
        if falls.any():
            k = int(np.argmax(falls))
            (t0, t1), (g0, g1) = t_tab[k:k + 2].tolist(), g_tab[k:k + 2].tolist()
            raise DomainError(f"{name}: cdf decreases from {g0!r} at t = {t0!r} "
                              f"to {g1!r} at t = {t1!r}")
        return t_tab, g_tab

    first = len(probs)  # the refinement's first cdf call
    try:
        _total, _err, a, b, values = _refine(survival, breaks, _TABLE_TOL)
    except AccuracyError:
        nodes()  # an invalid cdf is the likelier cause
        raise
    calls = len(probs) - first
    edges = np.concatenate((a, b[-1:]))
    survival(edges)  # G at the edges joins the nodes
    g_edges = probs[-1]
    t_tab, g_tab = nodes()
    # refinement evaluated G at every Kronrod node of the converged panels
    x, w = _kronrod_nodes(a, b)
    if calls == 1:
        # the seed panels converged: that one call's nodes are theirs, in
        # order, so its values are G at x with no search
        g_x = probs[first].reshape(x.shape)
    else:
        g_x = g_tab[t_tab.searchsorted(x)]
    tail_w = w * (1.0 - g_x)
    for k, declared in enumerate(moments, 1):
        if declared is None:
            continue
        what = "mean" if k == 1 else f"moment{k}"
        if k == 1:  # k t^(k-1) is exactly 1
            table = float(tail_w.sum())
        else:  # no inf * 0 where G is 1 at a huge t
            t = np.where(tail_w != 0.0, x, 0.0)
            table = float((k * t ** (k - 1) * tail_w).sum())
        if not abs(table - declared) <= _MEAN_TOL * table:
            raise DomainError(f"{name}: the cdf integrates to a {what} of "
                              f"{table!r}, but {what} = {declared!r} was declared")
    inside = values[::-1].cumsum()[::-1]
    return _Table(edges, np.concatenate((inside[1:], [0.0])),
                  np.concatenate((a[:, None], x, b[:, None]), axis=1),
                  np.concatenate((g_edges[:-1, None], g_x, g_edges[1:, None]), axis=1))


def _panel_slopes(g, width):
    """(G', G'', rough) at the 17 points of each panel, from the rows of G
    values ``g`` (left edge, 15 Kronrod nodes, right edge) and the panel
    widths: the derivatives of each row's degree-16 interpolant, and
    whether |K15 - G7| of G exceeds _ROUGH of G's rise over the panel (of
    _ROUGH, if the rise is less), so that no polynomial follows G there.
    np.einsum adds the 17 terms of each value in a fixed order, so a
    panel's values have the same bits alone and among any others."""
    d = np.einsum("pk,kj->pj", g, _DIFF)
    half = 0.5 * width[:, None]
    rough = np.abs(d[:, -2]) > _ROUGH * np.fmax(d[:, -1], _ROUGH)
    return d[:, :17] / half, d[:, 17:-2] / (half * half), rough


def _parabolic_slopes(t, g):
    """(t', -t'') at the 17 points of each row of nodes t and G values g:
    at each inner point those of the parabola of t in u = G through it and
    its two neighbours, at an edge those of the parabola of the point
    beside it.  On the panel at 0 of a law with G ~ t^(1/2) there, t is a
    parabola in u, so they are exact, where the derivatives of the
    degree-16 interpolant in t miss G' by up to 60%."""
    du = np.diff(g, axis=1)
    secant = np.diff(t, axis=1) / du
    span = du[:, :-1] + du[:, 1:]
    curve = np.empty_like(t)  # -t''
    curve[:, 1:-1] = 2.0 * (secant[:, :-1] - secant[:, 1:]) / span
    curve[:, 0], curve[:, -1] = curve[:, 1], curve[:, -2]
    slope = np.empty_like(t)
    slope[:, 1:-1] = (du[:, :-1] * secant[:, 1:] + du[:, 1:] * secant[:, :-1]) / span
    slope[:, 0] = secant[:, 0] + 0.5 * du[:, 0] * curve[:, 0]
    slope[:, -1] = secant[:, -1] - 0.5 * du[:, -1] * curve[:, -1]
    return slope, curve


def _inverse_table(table: _Table):
    """(knots g, guide, t at the knots, quintic rows) of the generalized
    inverse t(u) of the G that ``_tail_table`` tabulated, for
    ``make_distribution``'s quantile.  Building calls no cdf.

    The nodes t are those of the table's panels: each panel's left edge
    and 15 Kronrod nodes, then the support end, with g their G values made
    nondecreasing by a running maximum.  Two adjacent nodes of a panel
    make a bracket.  The first knot >= u, g[i], brackets u in (g[i-1],
    g[i]], and t[i] is the leftmost node where G reaches g[i]; i = 0 (u <=
    G(0)) and i past the last knot have no bracket and the quantile t[i],
    the support end for the latter.  ``_guide_search`` finds i through the
    guide; the knots are g followed by a +inf sentinel, past which its
    step cannot go.

    Column i of the quintic rows (column 0 serves no u) holds t[i-1],
    g[i-1], g[i] - g[i-1], the coefficients of t[i-1] + c1 s + ... + c5
    s^5, s = (u - g[i-1]) / (g[i] - g[i-1]), the ends lo and hi of the
    bracket of nodes around it, G(lo) < u <= G(hi), and its check's tol
    (see _XTOL).  The quintic is the Hermite interpolant of t(u) through
    t[i-1] and t[i] with the slopes t' = 1/G' and t'' = -G''/G'^3 there
    (Hoermann and Leydold, 2003), from ``_panel_slopes`` on the panel that
    holds both ends, or from ``_parabolic_slopes`` on a panel it finds
    rough (a density singular at 0 or at the end, a kink).  Where t' or
    t'' is not finite at either end (G' <= 0, say), it is the secant, c1 =
    t[i] - t[i-1] and c2 = ... = c5 = 0.  When the brackets whose quintic
    may miss its check (``_cut``) hold _CUT_MASS of the probability or
    more, each of them becomes 2^_SPLITS equal parts in t whose outer ends
    keep the bracket's g, t' and -t'' and whose inner ends take theirs
    from the panel's interpolant (``_parts``); the other brackets stay
    whole.  (Each row is one of these quantities, so a draw's values
    are contiguous arrays.)
    """
    width = table.edges[1:] - table.edges[:-1]
    t = np.concatenate((table.t[:, :-1].ravel(), table.t[-1, -1:]))
    g = np.concatenate((table.g[:, :-1].ravel(), table.g[-1, -1:]))
    np.maximum.accumulate(g, out=g)
    # node pair (i - 1, i) is points j and j + 1 of panel p, i - 1 = 16 p + j
    dt, du = t[1:] - t[:-1], g[1:] - g[:-1]
    # column i serves u in (g[i-1], g[i]]; column 0, which none does, is
    # left as it comes
    quintic = np.empty((11, dt.size + 1))
    rows = quintic[:, 1:]
    rows[:3], rows[8:10] = (t[:-1], g[:-1], du), (t[:-1], t[1:])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # panels 1e-200 or 1e300 wide take G'' past the float range
        g_prime, g_second, rough = _panel_slopes(table.g, width)
        slope = 1.0 / np.fmax(g_prime, 0.0)  # t', inf where G' <= 0
        bend = g_second * slope * slope * slope  # -t''
        if rough.any():
            k = np.flatnonzero(rough)
            slope[k], bend[k] = _parabolic_slopes(table.t[k], table.g[k])
        ends = _hermite(dt.reshape(-1, 16), du.reshape(-1, 16), slope, bend)
        finite = np.isfinite(ends.sum(axis=0))
        if not finite.all():  # the secant, t' = dt / du and t'' = 0, there
            k = np.flatnonzero(~finite)
            ends[:, k] = _SECANT_ENDS * ends[0, k]
        np.einsum("jk,km->jm", _QUINTIC, ends, out=rows[3:8])
        # the check's tolerance: at least _ULPS eps g[i] times the least
        # t' of the bracket, the least of dt and du t' at each end (all dt
        # on a secant) over du; no u falls where du = 0
        floor = ends[:3].min(axis=0) / du
        floor *= (_ULPS * sys.float_info.epsilon) * g[1:]
        np.fmax(_XTOL + _RTOL * t[:-1], np.fmin(floor, sys.float_info.max),
                out=rows[10])
        # G's interpolant halfway across each bracket in t, the middle one
        # of its inner cut points
        middle = _CUT_WEIGHTS[:, :, 0, _GRID.size // 2 - 1]
        g_middle = np.einsum("pk,jk->pj", table.g, middle)
        cut = _cut(rows, dt, g_middle.ravel())
        if rough.any():  # no polynomial in t follows G there
            cut &= ~np.repeat(rough, 16)
        if np.dot(du, cut) >= _CUT_MASS:
            parts = np.where(cut, 1 << _SPLITS, 1)
            quintic = quintic[:, np.repeat(np.arange(cut.size + 1), np.append(1, parts))]
            rows = quintic[:, 1:]
            rows[:8, np.flatnonzero(np.repeat(cut, parts))] = _parts(
                np.flatnonzero(cut), table.g, 0.5 * width, t, dt, g, slope, bend)
    knots = np.concatenate((rows[1], g[-1:], [np.inf]))
    t_knots = np.concatenate((rows[0], t[-1:], t[-1:]))
    # K buckets, a power of two so that u K is exact: bucket j holds the u
    # with j <= u K < j + 1, and guide[j] is the first knot >= j / K, the
    # count of knots g < j / K, that is of knots with floor(g K) + 1 <= j
    # (0 for j = 0, which also takes every u < 0).  int() truncates, so a
    # g below 0 by rounding counts from j = 1, as it should for j > 0, and
    # one above 1 by rounding in no bucket.
    buckets = min(1 << (4 * knots.size - 5).bit_length(), _GUIDE_MAX)
    first = (knots[:-1] * buckets).astype(np.intp) + 1
    guide = np.bincount(first, minlength=buckets + 2)[:buckets].cumsum()
    guide[0] = 0
    return knots, guide, t_knots, quintic


def _hermite(dt, du, slope, bend):
    """The (5, n) Hermite data, dt and du t' and du^2 (-t'') at each end, of
    the brackets between adjacent points of each row of t' and -t''
    values, slope and bend, dt wide in t and du in u."""
    ends = np.empty((5,) + du.shape)
    ends[0] = dt
    np.multiply(du, slope[:, :-1], out=ends[1])
    np.multiply(du, slope[:, 1:], out=ends[2])
    du2 = du * du
    np.multiply(du2, bend[:, :-1], out=ends[3])
    np.multiply(du2, bend[:, 1:], out=ends[4])
    return ends.reshape(5, -1)


def _cut(rows, dt, g_middle):
    """Whether the quintic of each bracket of the quintic rows, dt wide, may
    leave its Newton step further than tol / 2 from t(u), with tol the
    check's, from G at the bracket's middle in t, g_middle.  The step, on
    the quintic's slope, from a guess e off lands about e times the slope
    error off; a quintic Hermite guess is off by about E s^3 (1 - s)^3,
    with E = 64 e(1/2), so the product is at most 2.25 e(1/2)^2 / dt, and
    a part 1/2^_SPLITS as wide has it 2^(11 _SPLITS) times smaller.  The
    step's own curvature error, |G''/G'| e^2 / 2, is far smaller in the
    tails where this bites (a 50th of it on [2, 4) for the exponential law
    of mean 1/2)."""
    s = (g_middle - rows[1]) / rows[2]
    c1, c2, c3, c4, c5 = rows[3:8]
    e = s * (c1 + s * (c2 + s * (c3 + s * (c4 + s * c5)))) - 0.5 * dt
    # NaN, where du = 0, compares false
    return 4.5 * e * e > dt * rows[10]


def _parts(k, g_panel, half, t, dt, g, slope, bend):
    """Rows 0 - 7 of the quintic rows (t and g at the left end, g's rise and
    c1 ... c5) of the 2^_SPLITS equal parts in t of each bracket k, in
    order, from g, t' and -t'' at their ends: at the bracket's own ends its
    nodes' g and the t' and -t'' tabulated there, ``slope`` and ``bend``
    (per panel and point); at the inner ends those of the panel's
    interpolant (_CUT_WEIGHTS), with g kept between the bracket's ends and
    nondecreasing.  ``half`` is each panel's half width.  np.einsum adds
    each value's 17 terms in a fixed order, so a bracket's parts have the
    same bits whatever else is cut."""
    p, j = np.divmod(k, 16)
    v = np.einsum("sk,skdc->dsc", g_panel[p], _CUT_WEIGHTS[j])
    h = half[p, None]
    ends = np.empty((3, k.size, _GRID.size))  # g, t', -t'' by bracket and part end
    ends[:, :, 0] = g[k], slope[p, j], bend[p, j]
    ends[:, :, -1] = g[k + 1], slope[p, j + 1], bend[p, j + 1]
    g_cut, t_prime, t_bend = ends
    g_cut[:, 1:-1] = v[0]
    np.divide(h, np.fmax(v[1], 0.0), out=t_prime[:, 1:-1])  # inf where G' <= 0
    t_bend[:, 1:-1] = v[2] * t_prime[:, 1:-1] ** 3 / (h * h)
    np.minimum(g_cut, g[k + 1, None], out=g_cut)
    np.maximum.accumulate(g_cut, axis=1, out=g_cut)
    block = np.empty((8, k.size, 1 << _SPLITS))
    width = dt[k, None] * (1.0 / (1 << _SPLITS))
    np.multiply(width, _GRID[:-1] * (1 << _SPLITS), out=block[0])
    block[0] += t[k, None]
    block[1] = g_cut[:, :-1]
    np.subtract(g_cut[:, 1:], g_cut[:, :-1], out=block[2])
    # a part with t' or t'' not finite gets a guess clamped to an end of
    # its bracket, which the check sends to the fallback
    np.einsum("jk,km->jm", _QUINTIC, _hermite(width, block[2], t_prime, t_bend),
              out=block[3:].reshape(5, -1))
    return block.reshape(8, -1)


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
    found = knots[i] >= u  # the +inf sentinel stops all but NaN
    if not found.all():
        short = np.flatnonzero(~found)
        i[short] = np.searchsorted(knots[:-1], u[short])
    return i


def _invert(G, u, base, g0, du, c1, c2, c3, c4, c5, lo, hi, tol):
    """The smallest t with G(t) >= u, for g0 < u <= g0 + du, a part of the
    bracket [lo, hi] of tabulated nodes, G(lo) < u <= G(hi), whose check
    has the tolerance tol.

    The quintic base + c1 s + ... + c5 s^5, s = (u - g0) / du, gives the
    first guess x, and a Newton step on the quintic's slope dt/du follows,
    kept inside the bracket.  Its result passes as q = x + tol/2 (at most
    hi) when ``_checked`` finds G(q - tol) < u <= G(q).  A draw that fails
    has its bracket cut at x and at the points checked, and takes a
    secant step from q, with the G(q) the check computed, through x (none
    where G is the same at both); the second and last check follows.
    Where that fails too (G has a kink or an atom, or a density strongly
    singular at 0), its bracket is cut at the points the second check
    evaluated as well, and ``_bisect`` ends it.  Every step acts on each
    element alone, so element i of the result depends on u[i] only.
    """
    s = np.subtract(u, g0)
    s /= du
    # Horner's scheme gives the quintic, base + s b, and its slope in s, d,
    # in place in two buffers: b = c4 + s c5 and d = b + s c5, then b = c +
    # s b and d = b + s d for c = c3, c2, c1, and x = base + s b in b's
    # buffer; every product is rounded before its sum, as when written out
    d = np.multiply(s, c5)
    b = d + c4
    d += b
    for c in (c3, c2, c1):
        np.multiply(s, b, out=b)
        b += c
        np.multiply(s, d, out=d)
        d += b
    np.multiply(s, b, out=b)
    b += base
    x = np.fmin(np.fmax(b, lo, out=b), hi, out=b)
    f = G(x) - u
    # a step past the float range, or NaN, is clamped to the bracket
    with np.errstate(over="ignore", invalid="ignore"):
        step = np.multiply(f, d, out=d)
        step /= du
        np.subtract(x, step, out=step)
        np.fmin(np.fmax(step, lo, out=step), hi, out=step)
    q, k, left, g_left, g_q = _checked(G, u, step, hi, tol)
    if not k.size:
        return q
    u, x, f, lo, hi, g_q = u[k], x[k], f[k], lo[k], hi[k], g_q[k]
    step, tol = q[k], tol[k]
    # x and the two points checked are bracket ends
    below = f < 0.0
    lo, hi = _narrowed(u, np.where(below, x, lo), np.where(below, hi, x),
                       left[k], g_left[k], step, g_q)
    f_q = g_q - u
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        secant = np.where(f_q != f, f_q * (step - x) / (f_q - f), 0.0)
        step = np.fmin(np.fmax(step - secant, lo), hi)
    q[k], j, left, g_left, g_q = _checked(G, u, step, hi, tol)
    if not j.size:
        return q
    k, u = k[j], u[j]
    lo, hi = _narrowed(u, lo[j], hi[j], left[j], g_left[j], q[k], g_q[j])
    q[k] = _bisect(G, u, lo, hi)
    return q


def _narrowed(u, lo, hi, left, g_left, q, g_q):
    """The brackets [lo, hi], G(lo) < u <= G(hi), cut at the two points a
    failed check evaluated: q - tol, ``left``, is the new hi where G there
    is >= u, and q the new lo where G(q) < u."""
    return (np.where(g_q < u, np.fmax(lo, q), lo),
            np.where(g_left >= u, np.fmin(hi, left), hi))


def _checked(G, u, x, hi, tol):
    """(q, the indices of the q that fail, q - tol, G(q - tol), G(q)) for
    q = x + tol / 2, or hi, where G >= u, if that is less: q fails unless
    G(q - tol) < u <= G(q)."""
    q = np.fmin(x + 0.5 * tol, hi)
    n = q.size
    pts = np.concatenate((q - tol, q))
    g = G(pts)
    return q, ((g[:n] >= u) | (g[n:] < u)).nonzero()[0], pts[:n], g[:n], g[n:]


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
    if key not in spec:
        raise DomainError(f"distribution spec {_shown(spec)} is missing {key!r}")
    try:  # the constructor checks the range
        value = _number(spec[key], key, "a number")
    except DomainError:
        raise DomainError(f"distribution spec {_shown(spec)} has a non-numeric "
                          f"{key!r}") from None
    if key != "rho":
        return build(value)
    if arrival_rate is None:
        raise DomainError(f"{kind} needs the queue arrival rate")
    return build(arrival_rate, value)


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def integrated_tail(dist: ServiceDistribution, t):
    """I(t) = int_0^t [1 - G(v)] dv, derived as mean - r(t), for t >= 0."""
    return dist.mean - residual_tail(dist, t)


def residual_tail(dist: ServiceDistribution, t):
    """mean - I(t) = int_t^inf [1 - G(v)] dv, computed without cancellation."""
    arr = _floats(t, "t")
    out = dist.residual_tail_fn(arr)
    return float(out) if arr.shape == () else out
