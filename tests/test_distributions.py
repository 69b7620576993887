"""Distribution catalog: analytic invariants against numeric oracles."""

import json
import math
import re
import subprocess
import sys
import threading
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

import busycycle as bc
from busycycle import distributions
from busycycle.distributions import _li2_one_minus_exp
from busycycle.errors import (
    AccuracyError,
    ArrivalRateMismatchError,
    DomainError,
    UnsupportedMomentError,
)

# (label, factory, needs_lambda) for the whole catalog at a fixed config
CATALOG = [
    ("exponential", lambda: bc.exponential(1.0)),
    ("deterministic", lambda: bc.deterministic(0.5)),
    ("special_a", lambda: bc.special_a(1.0, 0.5)),
    ("special_a_big", lambda: bc.special_a(2.0, 2.0)),
    ("special_b", lambda: bc.special_b(1.0, 0.5)),
    ("special_b_big", lambda: bc.special_b(2.0, 2.0)),
    ("power_c1", lambda: bc.power_function(1.0)),
    ("power_c2", lambda: bc.power_function(2.0)),
    ("power_c05", lambda: bc.power_function(0.5)),
    ("uniform01", bc.uniform01),
]


def _grid(dist, n=240):
    end = dist.support_end if math.isfinite(dist.support_end) else 12.0 * max(dist.mean, 1.0)
    return np.linspace(0.0, end, n)


@pytest.mark.parametrize("label,factory", CATALOG)
def test_cdf_is_a_distribution_function(label, factory):
    dist = factory()
    t = _grid(dist)
    g = np.asarray(dist.cdf(t), dtype=float)
    assert np.all(np.diff(g) >= -1e-15), f"{label}: G must be nondecreasing"
    assert np.all((g >= 0.0) & (g <= 1.0 + 1e-15))
    far = dist.support_end if math.isfinite(dist.support_end) else 80.0 * max(dist.mean, 1.0)
    assert float(dist.cdf(far)) == pytest.approx(1.0, abs=1e-10)
    assert float(dist.cdf(-1.0)) == 0.0


@pytest.mark.parametrize("label,factory", CATALOG)
def test_integrated_tail_shape_and_limit(label, factory):
    dist = factory()
    t = _grid(dist)
    i = np.asarray(bc.integrated_tail(dist, t), dtype=float)
    di = np.diff(i)
    assert np.all(di >= -1e-12), f"{label}: I must be nondecreasing"
    # concavity: the integrand 1 - G is nonincreasing
    assert np.all(np.diff(di) <= 1e-10), f"{label}: I must be concave"
    far = dist.support_end if math.isfinite(dist.support_end) else 100.0 * max(dist.mean, 1.0)
    # mean recovered as the I(t) limit
    assert bc.integrated_tail(dist, far) == pytest.approx(dist.mean, rel=1e-8)


@pytest.mark.parametrize("label,factory", CATALOG)
def test_integrated_tail_matches_numeric_integration(label, factory):
    dist = factory()
    end = dist.support_end if math.isfinite(dist.support_end) else 10.0 * max(dist.mean, 1.0)
    for t in np.linspace(0.05 * end, end, 7):
        ref, _ = integrate.quad(
            lambda v: 1.0 - float(dist.cdf(v)), 0.0, t, limit=200,
        )
        assert bc.integrated_tail(dist, float(t)) == pytest.approx(ref, abs=1e-9)


@pytest.mark.parametrize("label,factory", CATALOG)
def test_residual_tail_complements_integrated_tail(label, factory):
    dist = factory()
    for t in _grid(dist, 60):
        i = bc.integrated_tail(dist, float(t))
        r = bc.residual_tail(dist, float(t))
        assert r >= 0.0
        assert i + r == pytest.approx(dist.mean, rel=1e-12, abs=1e-15)


def test_integrated_tail_examples():
    assert bc.integrated_tail(bc.deterministic(0.5), 0.3) == pytest.approx(0.3, rel=1e-14)
    assert bc.integrated_tail(bc.deterministic(0.5), 2.0) == pytest.approx(0.5, rel=1e-14)
    # analytic limit of the first logistic member: mean rho/lam
    assert bc.integrated_tail(bc.special_a(1.0, 0.5), 60.0) == pytest.approx(0.5, rel=1e-10)
    assert bc.integrated_tail(bc.power_function(1.0), 0.5) == pytest.approx(0.375, rel=1e-14)


def test_integrated_tail_rejects_negative_time():
    with pytest.raises(DomainError):
        bc.integrated_tail(bc.exponential(1.0), -0.1)
    with pytest.raises(DomainError):
        bc.residual_tail(bc.exponential(1.0), -2.0)


def test_special_members_mean_is_rho_over_lambda():
    # numeric tail integration arbitrates the transcription of both forms
    for dist, expected in [
        (bc.special_a(1.0, 0.5), 0.5),
        (bc.special_a(2.0, 3.0), 1.5),
        (bc.special_b(1.0, 0.5), 0.5),
        (bc.special_b(2.0, 3.0), 1.5),
        (bc.special_b(10.0, 5.0), 0.5),
    ]:
        ref, _ = integrate.quad(lambda v: 1.0 - float(dist.cdf(v)), 0.0, np.inf, limit=400)
        assert ref == pytest.approx(expected, rel=1e-8)
        assert dist.mean == pytest.approx(expected, rel=1e-15)


def test_scv_examples():
    assert bc.exponential(0.7).scv == pytest.approx(1.0, rel=1e-12)
    assert bc.deterministic(3.0).scv == pytest.approx(0.0, abs=1e-15)
    assert bc.power_function(1.0).scv == pytest.approx(1.0 / 3.0, rel=1e-12)
    # general power: 1/(c(c+2))
    assert bc.power_function(2.0).scv == pytest.approx(1.0 / 8.0, rel=1e-12)


@pytest.mark.parametrize("c", [1e-8, 1.0, 2.5, 1e8, 1e12])
def test_power_scv_is_formed_without_cancellation(c):
    # mu2 - mean^2 cancels at large c: it gave 2.22e-16 at c = 1e8, where
    # the SCV is 1.0e-16; the variance the law supplies keeps a few ulp
    exact = 1 / (Fraction(c) * (Fraction(c) + 2))
    scv = bc.power_function(c).scv
    assert abs(Fraction(scv) - exact) <= 4 * Fraction(math.ulp(float(exact)))
    # scaling keeps the SCV
    assert bc.scale(bc.power_function(c), 3.0).scv == pytest.approx(scv, rel=1e-15)


def test_scv_consistency_invariant():
    for _, factory in CATALOG:
        dist = factory()
        assert dist.scv == pytest.approx(
            (dist.moment2 - dist.mean**2) / dist.mean**2, rel=1e-12
        )


def _mp_li2_one_minus_exp(rho):
    """Li2(1 - e^rho) from mpmath at 40 digits."""
    with mpmath.workdps(40):
        return float(mpmath.polylog(2, 1 - mpmath.exp(mpmath.mpf(rho))))


@pytest.mark.parametrize("rho,li2", [
    (0.25, -0.266058756798404),
    (0.5, -0.565963578395303),
    (1.0, -1.27750463411225),
    (2.0, -3.21389456921962),
    (5.0, -14.1043809885007),
    # 1 - e^rho cancels at small rho; e^rho nears the float range at 700
    *((rho, _mp_li2_one_minus_exp(rho)) for rho in (1e-12, 1e-10, 1e-6, 50.0, 700.0)),
])
def test_special_second_moments_against_dilogarithm(rho, li2):
    # mu2 closed forms: A: -2 Li2(1-e^rho)/lam^2, B: -2(1-e^-rho) Li2(1-e^rho)/lam^2
    lam = 2.0
    a = bc.special_a(lam, rho)
    b = bc.special_b(lam, rho)
    assert a.moment2 == pytest.approx(-2.0 * li2 / lam**2, rel=1e-12, abs=0.0)
    assert b.moment2 == pytest.approx(-2.0 * -math.expm1(-rho) * li2 / lam**2,
                                      rel=1e-12, abs=0.0)


@pytest.mark.parametrize("lam", [0.3, 1.0, 7.0])
@pytest.mark.parametrize("rho", [1e-6, 0.01, 0.5, 3.0, 40.0])
def test_special_a_is_special_b_with_an_atom_at_zero(lam, rho):
    # special_a(lam, rho) is special_b(lam (1 - e^-rho), rho) given mass
    # 1 - e^-rho, plus an atom e^-rho at 0: r and E[S^2] scale by 1 - e^-rho
    # and q_a(u) = q_b((u - e^-rho) / (1 - e^-rho)) for u > e^-rho, whose
    # argument is formed at 40 digits: in floats the rounding of e^-rho
    # moves it by 5e-12 relative at rho = 0.01 and by 1e-7 at rho = 1e-6
    em, f = math.exp(-rho), -math.expm1(-rho)
    a, b = bc.special_a(lam, rho), bc.special_b(lam * f, rho)
    t = a.mean * np.array([0.0, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0])
    assert a.residual_tail_fn(t) == pytest.approx(f * b.residual_tail_fn(t),
                                                  rel=1e-12, abs=0.0)
    assert a.moment2 == pytest.approx(f * b.moment2, rel=1e-12, abs=0.0)
    u = em + f * np.array([0.001, 0.1, 0.5, 0.9])
    with mpmath.workdps(40):
        e = mpmath.exp(-mpmath.mpf(rho))
        v = np.array([float((mpmath.mpf(x) - e) / (1 - e)) for x in u])
    assert a.quantile_fn(u) == pytest.approx(b.quantile_fn(v), rel=1e-12, abs=0.0)


def test_dilogarithm_of_one_minus_exp_on_a_log_grid():
    for rho in np.geomspace(1e-12, 700.0, 241):
        ref = _mp_li2_one_minus_exp(float(rho))
        assert _li2_one_minus_exp(float(rho)) == pytest.approx(ref, rel=1e-15, abs=0.0), rho


def test_special_b_rate_against_mpmath_at_small_rho():
    # k = lam / (1 - e^-rho) cancels at small rho; its residual tail and
    # quantile carry k
    with mpmath.workdps(40):
        for rho in map(float, np.geomspace(1e-12, 2.0, 60)):
            dist = bc.special_b(1.0, rho)
            r = mpmath.mpf(rho)
            k = -1 / mpmath.expm1(-r)
            for t in (0.5 * dist.mean, dist.mean, 2.0 * dist.mean):
                ref = mpmath.log1p(mpmath.expm1(r) * mpmath.exp(-k * t))
                assert float(dist.residual_tail_fn(t)) == pytest.approx(
                    float(ref), rel=2e-15, abs=0.0), (rho, t)
            ref = mpmath.log1p(mpmath.exp(r)) / k  # the median
            assert float(dist.quantile_fn(0.5)) == pytest.approx(
                float(ref), rel=2e-15, abs=0.0), rho


def test_special_a_quantile_against_mpmath_near_the_atom():
    # t = log((1 - e^-rho) u / (e^-rho (1 - u))) / lam at the same float u.
    # Its relative condition number is 1/|log x|, at most about 600 on
    # this grid, and x carries a few ulp, so 1e-12 holds with room; 1 - em
    # in place of -expm1(-rho) missed by 1.6e-8 at rho = 1e-6.
    with mpmath.workdps(40):
        for rho in (1e-6, 1e-3, 0.5):
            dist = bc.special_a(1.0, rho)
            em = math.exp(-rho)
            e = mpmath.exp(-mpmath.mpf(rho))
            for share in (0.001, 0.1):
                u = em + share * (1.0 - em)
                m = mpmath.mpf(u)
                ref = float(mpmath.log((1 - e) * m / (e * (1 - m))))
                assert float(dist.quantile_fn(u)) == pytest.approx(
                    ref, rel=1e-12, abs=0.0), (rho, share)


def test_moments_outside_the_float_range_are_domain_errors():
    # lam^2 and mean^3 once overflowed or divided by zero past the range
    for make, args in ((bc.special_a, (1e300, 1.0)), (bc.special_a, (1e-300, 1.0)),
                       (bc.special_b, (1e300, 1.0)), (bc.special_b, (1e-300, 1.0)),
                       (bc.exponential, (1e300,))):
        with pytest.raises(DomainError):
            make(*args)
    with pytest.raises(DomainError):
        bc.power_function(1e-300).scv  # mean^2 underflows


@pytest.mark.parametrize("make", [
    lambda: bc.special_a(1.0, 1.0),
    lambda: bc.special_b(1.0, 1.0),
])
def test_special_second_moments_against_numeric(make):
    dist = make()
    ref, _ = integrate.quad(
        lambda t: 2.0 * t * (1.0 - float(dist.cdf(t))), 0.0, np.inf, limit=400
    )
    assert dist.moment2 == pytest.approx(ref, rel=1e-8)


def test_sampling_examples():
    rng = np.random.default_rng(1)
    assert bc.deterministic(2.0).quantile_fn(rng.random()) == 2.0
    assert float(bc.exponential(1.0).quantile_fn(0.5)) == pytest.approx(
        0.6931471805599453, rel=1e-15
    )
    # atom handling: u at or below e^-0.5 = 0.60653066 maps to zero
    a = bc.special_a(1.0, 0.5)
    assert float(a.quantile_fn(0.60653065)) == 0.0
    assert float(a.quantile_fn(0.6066)) > 0.0


@pytest.mark.parametrize("label,factory", CATALOG)
def test_empirical_mean_within_four_standard_errors(label, factory):
    dist = factory()
    rng = np.random.default_rng(20240817)
    n = 1_000_000
    x = np.asarray(dist.quantile_fn(rng.random(n)), dtype=float)
    se = x.std(ddof=1) / math.sqrt(n)
    assert abs(x.mean() - dist.mean) <= 4.0 * max(se, 1e-12), label


def test_special_a_zero_atom_frequency():
    rho = 0.5
    dist = bc.special_a(1.0, rho)
    rng = np.random.default_rng(7)
    n = 400_000
    x = np.asarray(dist.quantile_fn(rng.random(n)), dtype=float)
    frac = float((x == 0.0).mean())
    p = math.exp(-rho)
    se = math.sqrt(p * (1 - p) / n)
    assert abs(frac - p) <= 4.0 * se


@settings(max_examples=60, derandomize=True, deadline=None)
@given(u=st.floats(min_value=1e-6, max_value=1.0 - 1e-9))
def test_quantile_roundtrip_continuous_members(u):
    for dist in (bc.exponential(1.3), bc.power_function(2.0), bc.special_b(1.0, 1.0)):
        t = float(dist.quantile_fn(u))
        assert float(dist.cdf(t)) == pytest.approx(u, rel=1e-9, abs=1e-12)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(u1=st.floats(min_value=1e-6, max_value=1 - 1e-7),
       u2=st.floats(min_value=1e-6, max_value=1 - 1e-7))
def test_quantile_monotone(u1, u2):
    lo, hi = sorted((u1, u2))
    for _, factory in CATALOG:
        dist = factory()
        assert float(dist.quantile_fn(lo)) <= float(dist.quantile_fn(hi)) + 1e-12


def test_class_tags():
    assert bc.exponential(1.0).class_tags == frozenset({"NBUE", "NWUE", "DFR", "IMRL"})
    assert bc.deterministic(1.0).class_tags == frozenset({"NBUE"})
    for maker in (lambda: bc.special_a(1, 1), lambda: bc.special_b(1, 1),
                  lambda: bc.power_function(1.0)):
        assert maker().class_tags == frozenset()


def test_queue_parameters_derived_intensity_and_mismatch():
    p = bc.QueueParameters(2.0, bc.exponential(0.5))
    assert p.traffic_intensity == 2.0 * 0.5
    with pytest.raises(ArrivalRateMismatchError):
        bc.QueueParameters(2.0, bc.special_a(1.0, 0.5))
    with pytest.raises(DomainError):
        bc.QueueParameters(-1.0, bc.exponential(0.5))


def test_constructor_domain_errors():
    with pytest.raises(DomainError):
        bc.exponential(0.0)
    with pytest.raises(DomainError):
        bc.deterministic(-1.0)
    with pytest.raises(DomainError):
        bc.power_function(0.0)
    with pytest.raises(DomainError):
        bc.special_a(1.0, 0.0)
    with pytest.raises(DomainError):
        bc.special_b(0.0, 1.0)


def test_traffic_intensity_past_the_float_range_is_rejected():
    # e^rho overflows past rho = log(DBL_MAX) ~ 709.78
    for dist in (bc.exponential(800.0), bc.deterministic(710.0)):
        with pytest.raises(DomainError):
            bc.QueueParameters(1.0, dist)
    for make in (bc.special_a, bc.special_b):
        with pytest.raises(DomainError):
            make(1.0, 800.0)
    assert bc.QueueParameters(1.0, bc.exponential(709.0)).traffic_intensity == 709.0


@pytest.mark.parametrize("call", [
    lambda: bc.deterministic(math.nan),
    lambda: bc.deterministic(math.inf),
    lambda: bc.power_function(math.inf),
    lambda: bc.proposition1(1.0, math.nan),
    lambda: bc.residual_tail(bc.exponential(1.0), math.nan),
    lambda: bc.integrated_tail(bc.exponential(1.0), math.nan),
    lambda: bc.time_average_age([math.nan]),
    lambda: bc.time_average_age([0.0, 0.0]),
    lambda: bc.class_lower_bound(5, bc.QueueParameters(2.0, bc.exponential(0.5))),
    lambda: bc.gap_ratio(math.nan, 1.0, 1.0),
    lambda: bc.proposition1(math.inf, 1.0),
    lambda: bc.power_double_series(math.inf, 2.0),
    lambda: bc.power_double_series(1.0, math.inf),
    lambda: bc.scale(bc.make_distribution(
        lambda t: -np.expm1(-np.maximum(t, 0.0)), mean=1.0), math.inf),
    lambda: bc.beta_c(bc.QueueParameters(1.0, bc.exponential(1.0)), "closed-form",
                      series_tol=math.inf),
    lambda: bc.beta_c(bc.QueueParameters(1.0, bc.exponential(1.0)), quad_tol=math.nan),
    lambda: bc.beta_c(bc.QueueParameters(1.0, bc.exponential(1.0)), quad_tol=0.0),
    lambda: bc.beta_c(bc.QueueParameters(1.0, bc.exponential(1.0)), "quadrature",
                      quad_tol=math.inf),
    lambda: bc.exp_series(1.0, math.inf),
    lambda: bc.exp_series(math.nan),
    lambda: bc.exp_series(math.inf),
    lambda: bc.power_double_series(1.0, 2.0, math.inf),
    lambda: bc.power_double_series(1.0, 1.0, math.inf),
    lambda: bc.beta_quadrature(bc.QueueParameters(1.0, bc.exponential(1.0)), math.inf),
], ids=["deterministic-nan", "deterministic-inf", "power-inf", "proposition1-nan",
        "residual-tail-nan", "integrated-tail-nan", "age-nan", "age-all-zero",
        "class-not-a-name", "gap-ratio-nan", "proposition1-inf",
        "power-series-lambda-inf", "power-series-c-inf", "scale-inf",
        "beta-c-series-tol-inf", "beta-c-quad-tol-nan", "beta-c-quad-tol-zero",
        "beta-c-quad-tol-inf", "exp-series-tol-inf", "exp-series-rho-nan",
        "exp-series-rho-inf", "power-series-tol-inf", "power-series-c1-tol-inf",
        "quadrature-tol-inf"])
def test_api_values_without_a_finite_answer_are_domain_errors(call):
    # each once returned nan, built a law with a nan mean or raised an
    # untyped error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            call()


def test_zero_mean_service_is_the_idle_only_limit():
    zero = bc.deterministic(0.0)
    assert zero.mean == 0.0
    assert float(zero.cdf(0.0)) == 1.0
    assert bc.integrated_tail(zero, 5.0) == 0.0
    with pytest.raises(UnsupportedMomentError):
        zero.scv


def test_scale_properties():
    base = bc.power_function(1.0)
    s = bc.scale(base, 3.0)
    assert s.mean == pytest.approx(1.5, rel=1e-15)
    assert s.moment2 == pytest.approx(9.0 * base.moment2, rel=1e-15)
    assert s.support_end == 3.0
    assert bc.integrated_tail(s, 1.5) == pytest.approx(
        3.0 * bc.integrated_tail(base, 0.5), rel=1e-14
    )
    # scaling is closed for the catalog members that embed the arrival rate
    a = bc.scale(bc.special_a(2.0, 1.0), 2.0)
    assert a.spec["type"] == "special_a"
    assert a.embedded_arrival_rate == 1.0
    assert a.mean == pytest.approx(1.0, rel=1e-15)
    assert bc.scale(bc.exponential(1.0), 2.0).spec == {"type": "exponential", "mean": 2.0}
    assert bc.exponential(1.0).class_tags == bc.scale(bc.exponential(1.0), 5.0).class_tags
    # the other two catalog laws stay catalog laws, with their closed forms
    for dist, k, spec, lam, mean in (
        (bc.deterministic(0.5), 4.0, {"type": "deterministic", "mean": 2.0}, None, 2.0),
        (bc.special_b(2.0, 1.0), 2.0, {"type": "special_b", "rho": 1.0}, 1.0, 1.0),
    ):
        s = bc.scale(dist, k)
        assert s.spec == spec
        assert s.embedded_arrival_rate == lam
        assert s.mean == pytest.approx(mean, rel=1e-15)
        assert bc.beta_c(bc.QueueParameters(lam or 1.0, s)).method != "quadrature"


def test_scale_generic_wrappers_are_the_base_law_rescaled():
    # power and user laws have no scale key: scale wraps their cdf and
    # quantile, which must stay the base law's rescaled bit for bit, bar
    # one ulp where (3 q_b) rounds down far enough that (3 q) / 3 < q_b
    u = np.concatenate((U_GRID, np.random.default_rng(5).random(100_000)))
    t = np.concatenate(([-1.0, 0.0, 1e-300, 2.999, 3.0, 3.0001, 50.0],
                        np.random.default_rng(6).random(200) * 4.0))
    for base in (bc.power_function(2.5),
                 bc.make_distribution(_weibull_half_cdf, mean=0.5)):
        s = bc.scale(base, 3)
        assert s.spec["type"] == "scaled"
        assert np.array_equal(s.cdf(t), base.cdf(t / 3)), base.name
        q = np.asarray(s.quantile_fn(u))
        qb = np.asarray(base.quantile_fn(u))
        low = (3 * qb) / 3 < qb
        assert low.any(), base.name
        assert np.array_equal(q, np.where(low, np.nextafter(3 * qb, np.inf),
                                          3 * qb)), base.name
        # G(q(u)) >= u up to the base law's own rounding: u^(1/c) carries
        # the rounding of 1/c times |ln u| (3.8e-14 relative at u = 1e-300)
        assert np.all(s.cdf(q) >= u * (1.0 - 1e-13)), base.name
    # the user law keeps the generalized inverse exactly
    assert np.all(s.cdf(q) >= u)


def _exp10_cdf(t):
    return -np.expm1(-np.maximum(t, 0.0) / 10.0)


@pytest.mark.parametrize("base,factor,what", [
    (lambda: bc.make_distribution(_exp10_cdf, mean=10.0), 1e308, "mean"),
    (lambda: bc.power_function(2.0), 1e308, "moment2"),
    (lambda: bc.make_distribution(_exp10_cdf, mean=10.0, moment3=6000.0),
     1e103, "moment3"),
    (lambda: bc.power_function(2.0), 1e-200, "moment2"),
    (lambda: bc.make_distribution(_exp10_cdf, mean=10.0, moment3=6000.0),
     1e-110, "moment3"),
], ids=["user-mean", "power-moment2", "user-moment3", "power-moment2-underflow",
        "user-moment3-underflow"])
def test_scale_refuses_a_factor_that_overflows_a_moment(base, factor, what):
    # a finite factor once gave a law with mean or moment2 inf, refused
    # later with a "rho = inf" message, and k**3 raised OverflowError; a
    # tiny one gave moment2 or moment3 0, refused later through the mean
    law = base()
    message = re.escape(f"scale factor {factor!r}") + f".*{what}"
    with pytest.raises(DomainError, match=message):
        bc.scale(law, factor)
    assert bc.scale(law, 1e100).mean == 1e100 * law.mean


def test_from_spec_round_trip():
    cases = [
        ({"type": "exponential", "mean": 0.5}, None),
        ({"type": "deterministic", "mean": 0.5}, None),
        ({"type": "special_a", "rho": 0.5}, 2.0),
        ({"type": "special_b", "rho": 0.5}, 2.0),
        ({"type": "power", "c": 2.0}, None),
        ({"type": "uniform01"}, None),
    ]
    for spec, lam in cases:
        dist = bc.from_spec(spec, arrival_rate=lam)
        assert dist.spec["type"] == spec["type"]
    with pytest.raises(DomainError):
        bc.from_spec({"type": "weibull"})
    with pytest.raises(DomainError):
        bc.from_spec({"type": "special_a", "rho": 1.0})  # needs arrival rate
    with pytest.raises(DomainError):
        bc.from_spec({"type": "power"})  # missing c
    for bad in (math.inf, math.nan, "inf"):
        with pytest.raises(DomainError):
            bc.from_spec({"type": "exponential", "mean": bad})
    # float(True) is 1.0, so a JSON boolean must not pass as a number
    for spec in ({"type": "exponential", "mean": None}, {"type": "power", "c": [2]},
                 {"type": "deterministic", "mean": None},
                 {"type": "special_a", "rho": {}},
                 {"type": "exponential", "mean": True}, {"type": "power", "c": True},
                 {"type": "deterministic", "mean": False},
                 {"type": "special_b", "rho": True}):
        with pytest.raises(DomainError):
            bc.from_spec(spec, arrival_rate=1.0)
    # float() refuses the string and overflows on the integer: both typed
    for bad in ("abc", 10**400):
        with pytest.raises(DomainError):
            bc.from_spec({"type": "deterministic", "mean": bad})
    # a key the type does not read is refused, and named
    for spec, key in (({"type": "power", "c": 2, "mean": 5}, "mean"),
                      ({"type": "uniform01", "c": 1.0}, "c"),
                      ({"type": "exponential", "mean": 1.0, "rho": 2.0}, "rho"),
                      ({"type": "special_b", "rho": 0.5, "lam": 2.0}, "lam"),
                      ({"type": "deterministic", "mean": 1.0, 3: 4}, 3)):
        with pytest.raises(DomainError, match=re.escape(f"does not read {key!r}")):
            bc.from_spec(spec, arrival_rate=1.0)
    with pytest.raises(DomainError):
        bc.from_spec({"type": ["power"], "c": 2.0})  # an unhashable type


def test_user_supplied_distribution_contract():
    # half-normal-ish toy law via its CDF only
    dist = bc.make_distribution(
        cdf=lambda t: -np.expm1(-np.maximum(t, 0.0) ** 2),
        mean=math.sqrt(math.pi) / 2.0,
        name="rayleigh-like",
    )
    assert dist.class_tags == frozenset()
    ref, _ = integrate.quad(lambda v: math.exp(-v * v), 0.0, 1.0)
    assert bc.integrated_tail(dist, 1.0) == pytest.approx(ref, rel=1e-8)
    u = 0.7
    assert float(dist.cdf(float(dist.quantile_fn(u)))) == pytest.approx(u, rel=1e-9)
    with pytest.raises(UnsupportedMomentError):
        dist.scv
    with pytest.raises(DomainError):
        bc.make_distribution(cdf=lambda t: t, mean=1.0, class_tags={"SHINY"})


def _exp_cdf(t):
    return -np.expm1(-np.maximum(t, 0.0) / 0.5)


def _weibull_half_cdf(t):
    # Weibull shape 1/2, scale 1/4: mean 1/2
    return -np.expm1(-np.sqrt(np.maximum(t, 0.0) / 0.25))


def _kumaraswamy_cdf(t):
    # Kumaraswamy(2, 3) on [0, 1]: mean 16/35; 1 - (1 - t^2)^3 cancels near 0
    return 1.0 - (1.0 - np.clip(t, 0.0, 1.0) ** 2) ** 3


# (label, cdf, mean, support end, G' bounded) for the user-CDF path
USER_LAWS = [
    ("exponential", _exp_cdf, 0.5, math.inf, True),
    ("uniform01", lambda t: np.clip(t, 0.0, 1.0), 0.5, 1.0, True),
    ("power_c25", lambda t: np.clip(t, 0.0, 1.0) ** 2.5, 2.5 / 3.5, 1.0, True),
    ("power_c05", lambda t: np.clip(t, 0.0, 1.0) ** 0.5, 1.0 / 3.0, 1.0, False),
    ("weibull_half", _weibull_half_cdf, 0.5, math.inf, False),
    ("kumaraswamy", _kumaraswamy_cdf, 16.0 / 35.0, 1.0, True),
]
# 0, interior values, values within 1e-12 of 1, and 1 itself
U_GRID = np.array([0.0, 1e-300, 1e-12, 1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-6,
                   1.0 - 1e-12, 1.0 - 1e-13, np.nextafter(1.0, 0.0), 1.0])


@pytest.mark.parametrize("label,cdf,mean,end,bounded_density", USER_LAWS)
def test_user_quantile_is_the_generalized_inverse(label, cdf, mean, end,
                                                  bounded_density):
    dist = bc.make_distribution(cdf, mean=mean, support_end=end)
    q = np.asarray(dist.quantile_fn(U_GRID))
    g = dist.cdf(q)
    assert np.all(np.diff(q) >= 0.0), label
    # G(q(u)) >= u, and G stays below u the quantile's tolerance further left
    assert np.all(g >= U_GRID), label
    left = np.maximum(q - 1.01 * (1e-14 + 4.0 * np.finfo(float).eps * q), 0.0)
    below = dist.cdf(left) < U_GRID
    assert np.all(below | (q == 0.0)), label
    if bounded_density:
        np.testing.assert_allclose(g, U_GRID, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("label,cdf,mean,end,bounded_density", USER_LAWS)
def test_user_quantile_is_elementwise(label, cdf, mean, end, bounded_density):
    # one fallback round count per element: an array call gives each
    # element the bits a call on that element alone gives, which the
    # simulator's quantile windows rely on
    dist = bc.make_distribution(cdf, mean=mean, support_end=end)
    u = np.concatenate((U_GRID, np.random.default_rng(11).random(300)))
    together = np.asarray(dist.quantile_fn(u))
    alone = np.array([float(dist.quantile_fn(x)) for x in u])
    assert np.array_equal(together, alone), label
    assert np.array_equal(np.asarray(dist.quantile_fn(u[:3])), alone[:3]), label


def test_user_quantile_past_the_last_tabulated_g_is_the_support_end():
    # a left-continuous cdf never reaches 1 on [0, 0.7]: the whole mass
    # sits at the support end, so every u past G's last value maps there
    dist = bc.make_distribution(lambda t: np.where(t <= 0.7, 0.0, 1.0),
                                mean=0.7, support_end=0.7)
    u = np.array([1e-12, 0.5, 1.0 - 1e-12, 1.0])
    assert np.all(dist.quantile_fn(u) == 0.7)
    assert float(dist.quantile_fn(0.0)) == 0.0


@pytest.mark.parametrize("label,cdf,mean,end,bounded_density", USER_LAWS)
def test_user_quantile_draws_pass_a_kolmogorov_test(label, cdf, mean, end,
                                                    bounded_density):
    dist = bc.make_distribution(cdf, mean=mean, support_end=end)
    x = dist.quantile_fn(np.random.default_rng(20261018).random(20_000))
    assert stats.kstest(x, cdf).pvalue > 1e-3, label


def _flat_kink_cdf(t):
    # G(t) = t up to 1/2, flat at 1/2 up to 1, then t - 1/2 up to 3/2
    return np.clip(t, 0.0, 0.5) + np.clip(t - 1.0, 0.0, 0.5)


@pytest.mark.parametrize("label,cdf,mean,end,bounded_density",
                         USER_LAWS + [("flat_kink", _flat_kink_cdf, 0.75, 1.5, True)])
def test_user_quantile_contract_on_random_draws(label, cdf, mean, end,
                                                bounded_density, monkeypatch):
    dist = bc.make_distribution(cdf, mean=mean, support_end=end)
    bisected = []
    bisect = distributions._bisect

    def spy(G, u, lo, hi):
        bisected.extend(u.tolist())
        return bisect(G, u, lo, hi)

    monkeypatch.setattr(distributions, "_bisect", spy)
    u = np.concatenate((U_GRID, np.random.default_rng(13).random(10_000)))
    q = np.asarray(dist.quantile_fn(u))
    # the generalized inverse: G(q) >= u exactly, and G below u the
    # quantile's tolerance further left
    assert np.all(dist.cdf(q) >= u), label
    left = np.maximum(q - 1.01 * (1e-14 + 4.0 * np.finfo(float).eps * q), 0.0)
    assert np.all((dist.cdf(left) < u) | (q == 0.0)), label
    # elementwise: each draw alone, the draws reversed and in uneven chunks
    # give the same bits
    alone = np.array([float(dist.quantile_fn(x)) for x in u[:400]])
    assert np.array_equal(q[:400], alone), label
    assert np.array_equal(np.asarray(dist.quantile_fn(u[::-1]))[::-1], q), label
    cuts = np.cumsum(np.random.default_rng(14).integers(1, 600, 30))
    chunks = [np.asarray(dist.quantile_fn(part)) for part in np.split(u, cuts)]
    assert np.array_equal(np.concatenate(chunks), q), label
    if label == "flat_kink":
        # u = 1/2 ends at the kink left of the flat stretch: the interpolated
        # guess fails its check there and goes to the 32-part fallback
        assert 0.5 in bisected
        assert 0.5 <= float(dist.quantile_fn(0.5)) <= 0.5 + 1e-14


@pytest.mark.parametrize("label,cdf,mean,end,bounded_density", USER_LAWS)
def test_user_quantile_evaluates_few_cdf_points_per_draw(label, cdf, mean, end,
                                                         bounded_density):
    evaluated = [0]

    def counted(t):
        evaluated[0] += np.size(t)
        return cdf(t)

    dist = bc.make_distribution(counted, mean=mean, support_end=end)
    evaluated[0] = 0  # construction's table is not counted
    dist.quantile_fn(np.random.default_rng(17).random(4096))
    assert evaluated[0] / 4096 <= 8.0, (label, evaluated[0] / 4096)


def test_user_table_is_built_in_few_cdf_calls():
    # the first refinement is seeded below the mean too, so a law steep at
    # 0 does not reach 0 one panel split, and one cdf call, at a time
    # (power c = 0.5 took 18 calls, Weibull(1/2) 32, power c = 0.2 23)
    limits = {"exponential": 10, "uniform01": 2, "power_c25": 2, "power_c05": 2,
              "weibull_half": 16, "kumaraswamy": 2, "power_c02": 7}
    laws = [law[:4] for law in USER_LAWS]
    laws.append(("power_c02", lambda t: np.clip(t, 0.0, 1.0) ** 0.2, 0.2 / 1.2, 1.0))
    for label, cdf, mean, end in laws:
        calls = [0]

        def counted(t, cdf=cdf):
            calls[0] += 1
            return cdf(t)

        bc.make_distribution(counted, mean=mean, support_end=end)
        assert calls[0] <= limits[label], (label, calls[0])


def test_user_quantile_rarely_falls_back_on_a_cdf_that_cancels_near_0(monkeypatch):
    # 1 - (1 - t^2)^3 loses its digits near 0; the table's knots there keep
    # the cubic's guess good enough that almost no draw needs the 32-part
    # search (1.06% of these draws did without the seeds below the mean)
    dist = bc.make_distribution(_kumaraswamy_cdf, mean=16.0 / 35.0, support_end=1.0)
    bisected = [0]
    bisect = distributions._bisect

    def spy(G, u, lo, hi):
        bisected[0] += u.size
        return bisect(G, u, lo, hi)

    monkeypatch.setattr(distributions, "_bisect", spy)
    dist.quantile_fn(np.random.default_rng(29).random(200_000))
    assert bisected[0] <= 200, bisected[0]


def _spy_on_inverse_table(monkeypatch):
    """The list of tables each ``_inverse_table`` call returns."""
    built = []
    build = distributions._inverse_table

    def spy(t_tab, g_tab):
        built.append(build(t_tab, g_tab))
        return built[-1]

    monkeypatch.setattr(distributions, "_inverse_table", spy)
    return built


@pytest.mark.parametrize(
    "label,cdf,mean,end,bounded_density",
    # G may start below 0 by rounding: u < 0 then still finds knot 0
    USER_LAWS + [("below_zero", lambda t: np.clip(t, 0.0, 1.0) - 1e-17, 0.5, 1.0, True)])
def test_user_quantile_guide_search_is_searchsorted(label, cdf, mean, end,
                                                    bounded_density, monkeypatch):
    built = _spy_on_inverse_table(monkeypatch)
    bc.make_distribution(cdf, mean=mean, support_end=end).quantile_fn(0.5)
    knots, guide = built[0][:2]
    g = knots[:-1]  # the last knot is a +inf sentinel
    u = np.concatenate((
        np.random.default_rng(19).random(100_000),
        g, np.nextafter(g, -np.inf), np.nextafter(g, np.inf),
        [0.0, -0.0, 5e-324, 1.0, 2.0, -1.0, np.inf, -np.inf, np.nan]))
    found = distributions._guide_search(knots, guide, u)
    assert np.array_equal(found, np.searchsorted(g, u)), label
    # K, a power of two, is the smallest >= 4 x the knot count, up to 2^16
    assert guide.size == min(2 ** math.ceil(math.log2(4 * g.size)), 2 ** 16), label


def test_user_quantile_tables_are_built_on_the_first_draw(monkeypatch):
    built = _spy_on_inverse_table(monkeypatch)
    for cdf, mean, end in ((_exp_cdf, 0.5, math.inf),
                           (lambda t: np.clip(t, 0.0, 1.0) ** 2.5, 2.5 / 3.5, 1.0)):
        built.clear()
        dist = bc.make_distribution(cdf, mean=mean, support_end=end)
        dist.residual_tail_fn(np.linspace(0.0, 3.0, 7))
        bc.beta_c(bc.QueueParameters(1.0 / mean, dist))
        assert len(built) == 0
        u = np.random.default_rng(21).random(500)
        first = dist.quantile_fn(u)
        assert len(built) == 1
        for _ in range(3):
            assert np.array_equal(dist.quantile_fn(u), first)
            dist.quantile_fn(0.25)
        assert len(built) == 1


@pytest.mark.parametrize("label,cdf,mean,end,bounded_density", USER_LAWS)
def test_user_quantile_first_draw_from_several_threads(label, cdf, mean, end,
                                                       bounded_density):
    # the simulator may make a law's first draw from two threads at once;
    # each thread may build the tables, and each gets a serial call's bits
    u = np.random.default_rng(23).random(3000)
    serial = bc.make_distribution(cdf, mean=mean, support_end=end).quantile_fn(u)
    dist = bc.make_distribution(cdf, mean=mean, support_end=end)
    n = 4  # more threads than the two the simulator uses
    barrier = threading.Barrier(n)
    drawn = [None] * n

    def draw(k):
        barrier.wait()
        drawn[k] = dist.quantile_fn(u)

    threads = [threading.Thread(target=draw, args=(k,)) for k in range(n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads), label
    for x in drawn:
        assert x is not None and np.array_equal(x, serial), label


def test_user_residual_tail_matches_closed_form():
    dist = bc.make_distribution(_weibull_half_cdf, mean=0.5)
    t = np.array([0.0, 1e-9, 0.01, 0.3, 2.0, 40.0, 400.0])
    x = np.sqrt(t / 0.25)
    exact = 0.5 * (1.0 + x) * np.exp(-x)
    np.testing.assert_allclose(dist.residual_tail_fn(t), exact,
                               rtol=1e-11, atol=1e-14 * 0.5)
    assert float(dist.residual_tail_fn(-1.0)) == 0.5


def test_user_cdf_validation():
    # the unknown-tag check comes first, even for an invalid cdf
    with pytest.raises(DomainError, match="unknown class tags"):
        bc.make_distribution(lambda t: 2.0 * t, mean=1.0, class_tags={"SHINY"})
    for cdf in (lambda t: 2.0 * np.clip(t, 0.0, 1.0),
                lambda t: np.clip(t, 0.0, 1.0) - 0.1,
                lambda t: np.full_like(t, np.nan)):
        with pytest.raises(DomainError, match=r"outside \[0, 1\]"):
            bc.make_distribution(cdf, mean=0.5, support_end=1.0)
    with pytest.raises(DomainError, match="decreases"):
        bc.make_distribution(lambda t: np.where(t < 0.5, t, t - 0.2),
                             mean=0.6, support_end=1.0)
    with pytest.raises(DomainError, match="same shape"):
        bc.make_distribution(lambda t: 0.5, mean=0.5, support_end=1.0)
    # the cdf's own mean against the declared one, at 1e-8 relative
    with pytest.raises(DomainError) as exc:
        bc.make_distribution(_exp_cdf, mean=0.6)
    assert "mean = 0.6 was declared" in str(exc.value)
    table_mean = float(str(exc.value).split("mean of ")[1].split(",")[0])
    assert table_mean == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(DomainError, match="declared"):
        bc.make_distribution(_exp_cdf, mean=0.5 * (1.0 + 2e-8))
    bc.make_distribution(_exp_cdf, mean=0.5 * (1.0 + 5e-9))
    for mean in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            bc.make_distribution(_exp_cdf, mean=mean)
    # a defective law never reaches 1: a typed error, not a hang
    with pytest.raises(AccuracyError):
        bc.make_distribution(lambda t: 0.5 * _exp_cdf(t), mean=0.5)


def test_declared_moments_are_checked_against_the_table():
    # E[S^k] = int k t^(k-1) (1 - G) dt on the table, at 1e-8 relative
    with pytest.raises(DomainError) as exc:
        bc.make_distribution(_exp_cdf, mean=0.5, moment2=10.0)
    assert "moment2 = 10.0 was declared" in str(exc.value)
    table_m2 = float(str(exc.value).split("moment2 of ")[1].split(",")[0])
    assert table_m2 == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(DomainError, match="moment3 = 11.25000225 was declared"):
        bc.make_distribution(_weibull_half_cdf, mean=0.5, moment2=1.5,
                             moment3=11.25 * (1.0 + 2e-7))
    for bad in (math.inf, math.nan, -1.5):
        with pytest.raises(DomainError, match="moment2"):
            bc.make_distribution(_weibull_half_cdf, mean=0.5, moment2=bad)
    # each law's true moments pass
    true_moments = {"exponential": (0.5, 0.75), "uniform01": (1 / 3, 0.25),
                    "power_c25": (2.5 / 4.5, 2.5 / 5.5),
                    "power_c05": (0.5 / 2.5, 0.5 / 3.5),
                    "weibull_half": (1.5, 11.25),
                    "kumaraswamy": (0.25, 16.0 / 105.0)}
    for label, cdf, mean, end, _bounded in USER_LAWS:
        m2, m3 = true_moments[label]
        dist = bc.make_distribution(cdf, mean=mean, moment2=m2, moment3=m3,
                                    support_end=end)
        assert (dist.moment2, dist.moment3) == (m2, m3), label


def test_cli_import_leaves_scipy_integrate_and_optimize_unloaded():
    code = ("import sys, busycycle.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


# Runs cli.main on each argv of argv[2] (JSON) and prints [[code, stdout]];
# with argv[1] == "block" a meta-path finder refuses every scipy import.
_CLI_RUNNER = """
import contextlib, io, json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

if sys.argv[1] == "block":
    sys.meta_path.insert(0, NoScipy())
from busycycle import cli
runs = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    runs.append([code, out.getvalue()])
try:
    import scipy
    runs.append("scipy importable")
except ImportError:
    runs.append("scipy blocked")
print(json.dumps(runs))
"""


def test_cli_runs_with_scipy_blocked():
    lam = ["--lambda", "2"]
    argvs = [
        ["metrics", *lam, "--dist", '{"type":"power","c":2.5}'],
        ["metrics", *lam, "--dist", '{"type":"special_a","rho":1}'],
        ["metrics", *lam, "--dist", '{"type":"exponential","mean":0.5}'],
        ["bounds", *lam, "--dist", '{"type":"special_b","rho":1}'],
        ["bounds", *lam, "--dist", '{"type":"uniform01"}'],
        ["simulate", *lam, "--dist", '{"type":"exponential","mean":0.5}',
         "--cycles", "2000", "--seed", "7"],
        *(["table", "--which", w] for w in ("1", "2", "3")),
    ]

    def run(mode):
        proc = subprocess.run(
            [sys.executable, "-c", _CLI_RUNNER, mode, json.dumps(argvs)],
            capture_output=True, text=True, check=True)
        return json.loads(proc.stdout)

    blocked, free = run("block"), run("free")
    assert blocked[-1] == "scipy blocked" and free[-1] == "scipy importable"
    assert "method          series" in free[0][1]
    for argv, b, f in zip(argvs, blocked, free):
        assert b == f, argv
