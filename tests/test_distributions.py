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
from scipy import integrate, special, stats

import busycycle as bc
from busycycle import analytics, distributions, quadrature, simulator
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
    lambda: bc.beta_c(bc.QueueParameters(1.0, bc.exponential(1.0)), quad_tol=math.nan),
    lambda: bc.beta_c(bc.QueueParameters(1.0, bc.exponential(1.0)), quad_tol=0.0),
    lambda: bc.beta_c(bc.QueueParameters(1.0, bc.exponential(1.0)), "quadrature",
                      quad_tol=math.inf),
    lambda: bc.exp_series(math.nan),
    lambda: bc.exp_series(math.inf),
    lambda: bc.beta_quadrature(bc.QueueParameters(1.0, bc.exponential(1.0)), math.inf),
    lambda: bc.residual_tail(bc.exponential(1.0), 10**400),
    lambda: bc.integrated_tail(bc.exponential(1.0), 10**400),
    lambda: bc.time_average_age([10**400, 1.0]),
    lambda: bc.time_average_age(["abc"]),
    lambda: bc.residual_tail(bc.exponential(1.0), True),
    lambda: bc.exponential(10**400),
    lambda: bc.exponential("abc"),
    lambda: bc.exponential(True),
    lambda: bc.exponential(np.True_),
    lambda: bc.QueueParameters(True, bc.exponential(1.0)),
    lambda: bc.deterministic(1e200),
    lambda: bc.power_function(1e300),
], ids=["deterministic-nan", "deterministic-inf", "power-inf", "proposition1-nan",
        "residual-tail-nan", "integrated-tail-nan", "age-nan", "age-all-zero",
        "class-not-a-name", "gap-ratio-nan", "proposition1-inf",
        "power-series-lambda-inf", "power-series-c-inf", "scale-inf",
        "beta-c-quad-tol-nan", "beta-c-quad-tol-zero", "beta-c-quad-tol-inf",
        "exp-series-rho-nan", "exp-series-rho-inf", "quadrature-tol-inf",
        "residual-tail-huge-int", "integrated-tail-huge-int",
        "age-huge-int", "age-string", "residual-tail-bool", "exponential-huge-int",
        "exponential-string", "exponential-bool", "exponential-numpy-bool",
        "queue-bool-rate", "deterministic-mean-squared-overflows",
        "power-c-plus-1-squared-overflows"])
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

# the hyperexponential law of scv 5, mean 1 and balanced means, p_i / mu_i
# = 1/2: phase probabilities p and rates 2 p
_HYPER_P = 0.5 * (1.0 + math.sqrt(4.0 / 6.0)), 0.5 * (1.0 - math.sqrt(4.0 / 6.0))


def _hyperexponential_cdf(t):
    t = np.maximum(t, 0.0)
    return -sum(p * np.expm1(-2.0 * p * t) for p in _HYPER_P)


def _loglogistic_ends(t):
    """(r, r^4, t <= 1) for the log-logistic law of shape 4, scale 1, with r
    = t up to 1 and 1 / t past it, so that no power overflows."""
    t = np.maximum(t, 0.0)
    small = t <= 1.0
    r = np.where(small, t, 1.0 / np.where(small, 1.0, t))
    return r, r ** 4, small


def _loglogistic_cdf(t):
    # t^4 / (1 + t^4) up to 1, 1 / (1 + t^-4) past it
    _r, z, small = _loglogistic_ends(t)
    return np.where(small, z, 1.0) / (1.0 + z)


def _loglogistic_density(t):
    # 4 t^3 / (1 + t^4)^2 up to 1, 4 t^-5 / (1 + t^-4)^2 past it
    r, z, small = _loglogistic_ends(t)
    return 4.0 * r ** 3 * np.where(small, 1.0, r * r) / (1.0 + z) ** 2


# Laws none of the quantile's constants was tuned on, in the same form.
# The gamma laws are left out: scipy.special.gammainc(0.5, t) falls at 55
# of the 199 steps between 200 consecutive floats from t = 1.13, so the
# exact left-hand assertion fails on 16 of 10 012 gamma 1/2 draws whatever
# the quantile does; that is the cdf's property, not the quantile's.
HELD_OUT_LAWS = [
    ("lognormal_15", lambda t: special.ndtr(np.log(np.maximum(t, 1e-300)) / 1.5),
     math.exp(1.125), math.inf, True),
    ("hyperexponential_scv5", _hyperexponential_cdf, 1.0, math.inf, True),
    ("lomax_45", lambda t: -np.expm1(-4.5 * np.log1p(np.maximum(t, 0.0))),
     1.0 / 3.5, math.inf, True),
    ("beta_half", lambda t: (2.0 / math.pi) * np.arcsin(np.sqrt(np.clip(t, 0.0, 1.0))),
     0.5, 1.0, False),
    ("loglogistic_4", _loglogistic_cdf, math.pi / (2.0 * math.sqrt(2.0)), math.inf,
     True),
]
# each law's exact density, for the quantile's tolerance in t
DENSITY = {
    "exponential": lambda t: 2.0 * np.exp(-2.0 * t),
    "uniform01": lambda t: np.where(t <= 1.0, 1.0, 0.0),
    "power_c25": lambda t: 2.5 * np.minimum(t, 1.0) ** 1.5,
    "power_c05": lambda t: 0.5 / np.sqrt(np.minimum(t, 1.0)),
    "weibull_half": lambda t: np.exp(-2.0 * np.sqrt(t)) / np.sqrt(t),
    "kumaraswamy": lambda t: 6.0 * t * (1.0 - np.minimum(t, 1.0) ** 2) ** 2,
    # the left density at the kink t = 1/2, where the flat stretch starts
    "flat_kink": lambda t: np.where((t <= 0.5) | (t > 1.0), 1.0, 0.0),
    "lognormal_15": lambda t: np.exp(-0.5 * (np.log(np.maximum(t, 1e-300)) / 1.5) ** 2)
    / (np.maximum(t, 1e-300) * 1.5 * math.sqrt(2.0 * math.pi)),
    "hyperexponential_scv5": lambda t: sum(2.0 * p * p * np.exp(-2.0 * p * t)
                                           for p in _HYPER_P),
    "lomax_45": lambda t: 4.5 * np.exp(-5.5 * np.log1p(t)),
    "beta_half": lambda t: 1.0 / (math.pi * np.sqrt(t * (1.0 - t))),
    "loglogistic_4": _loglogistic_density,
}


def _quantile_tolerance(label, u, q):
    """The quantile's tolerance in t at q: 1e-14 + 4 eps q, or, where G's
    float resolution at u spans more, 8 float steps of u over the density
    at q."""
    with np.errstate(divide="ignore"):
        spanned = 8.0 * np.spacing(u) / DENSITY[label](q)
    return np.maximum(1e-14 + 4.0 * np.finfo(float).eps * q, spanned)


# 0, interior values, values within 1e-12 of 1, and 1 itself
U_GRID = np.array([0.0, 1e-300, 1e-12, 1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-6,
                   1.0 - 1e-12, 1.0 - 1e-13, np.nextafter(1.0, 0.0), 1.0])


@pytest.mark.parametrize("label,cdf,mean,end,bounded_density",
                         USER_LAWS + HELD_OUT_LAWS)
def test_user_quantile_is_the_generalized_inverse(label, cdf, mean, end,
                                                  bounded_density):
    dist = bc.make_distribution(cdf, mean=mean, support_end=end)
    q = np.asarray(dist.quantile_fn(U_GRID))
    g = dist.cdf(q)
    assert np.all(np.diff(q) >= 0.0), label
    # G(q(u)) >= u, and G stays below u the quantile's tolerance further left
    assert np.all(g >= U_GRID), label
    left = np.maximum(q - 1.01 * _quantile_tolerance(label, U_GRID, q), 0.0)
    below = dist.cdf(left) < U_GRID
    assert np.all(below | (q == 0.0)), label
    if bounded_density:
        np.testing.assert_allclose(g, U_GRID, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("label,cdf,mean,end,bounded_density",
                         USER_LAWS + HELD_OUT_LAWS)
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


@pytest.mark.parametrize("label,cdf,mean,end,bounded_density",
                         USER_LAWS + HELD_OUT_LAWS)
def test_user_quantile_draws_pass_a_kolmogorov_test(label, cdf, mean, end,
                                                    bounded_density):
    dist = bc.make_distribution(cdf, mean=mean, support_end=end)
    x = dist.quantile_fn(np.random.default_rng(20261018).random(20_000))
    assert stats.kstest(x, cdf).pvalue > 1e-3, label


# each held-out law's r(t) = int_t^inf [1 - G(v)] dv in closed form, for
# mpmath at its working precision.  The log-logistic r is int 1 / (1 + v^4)
# summed as a hypergeometric series, in v up to 1 and in 1/v past it: its
# log/atan antiderivative cancels about 3 log10 t digits, so at 30 digits
# quad's far nodes moved the reference by 2e-4.
HELD_OUT_R = {
    "lognormal_15": lambda t: (
        mpmath.exp(mpmath.mpf(1.125)) * mpmath.ncdf(1.5 - mpmath.log(t) / 1.5)
        - t * mpmath.ncdf(-mpmath.log(t) / 1.5)),
    "hyperexponential_scv5": lambda t: sum(mpmath.exp(-2 * mpmath.mpf(p) * t)
                                           for p in _HYPER_P) / 2,
    "lomax_45": lambda t: (1 + t) ** mpmath.mpf(-3.5) / mpmath.mpf(3.5),
    "beta_half": lambda t: (0.5 - t + 2 / mpmath.pi * (
        (t - 0.5) * mpmath.asin(mpmath.sqrt(t)) + mpmath.sqrt(t * (1 - t)) / 2)),
    "loglogistic_4": lambda t: (
        mpmath.pi / mpmath.sqrt(8) - t * mpmath.hyp2f1(1, 0.25, 1.25, -t ** 4)
        if t <= 1 else mpmath.hyp2f1(1, 0.75, 1.75, -t ** -4) / (3 * t ** 3)),
}
# the table ends where the float G reaches 1 and charges nothing for the
# tail beyond (ROADMAP item 7): these estimates fall short of the error
SHORT_ESTIMATES = {"lognormal_15", "lomax_45", "loglogistic_4"}


@pytest.mark.parametrize("label,cdf,mean,end,rho", [
    pytest.param(label, cdf, mean, end, rho, id=f"{label}-{rho:g}", marks=(
        pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP "
                          "item 7: the tail past the float G = 1 is not charged")
        if label in SHORT_ESTIMATES else ()))
    for label, cdf, mean, end, _ in HELD_OUT_LAWS for rho in (0.3, 1.0, 3.0)])
def test_held_out_beta_c_is_within_its_estimate_of_mpmath(label, cdf, mean, end, rho):
    lam = rho / mean
    m = bc.beta_c(bc.QueueParameters(lam, bc.make_distribution(
        cdf, mean=mean, support_end=end)))
    r = HELD_OUT_R[label]
    with mpmath.workdps(30):
        lm = mpmath.mpf(lam)
        # octave cuts every 2^4 from mean / 16, up to the support end
        cuts = [0] + [math.ldexp(mean, k) for k in range(-4, 24, 4)
                      if math.ldexp(mean, k) < end] + [end]
        ref = 1 / lm + mpmath.quad(lambda t: mpmath.expm1(lm * r(t)), cuts)
        assert abs(m.beta_c - ref) <= m.error_estimate + math.ulp(m.beta_c), (
            label, rho, float(abs(m.beta_c - ref) / ref), m.error_estimate / m.beta_c)


def _flat_kink_cdf(t):
    # G(t) = t up to 1/2, flat at 1/2 up to 1, then t - 1/2 up to 3/2
    return np.clip(t, 0.0, 0.5) + np.clip(t - 1.0, 0.0, 0.5)


@pytest.mark.parametrize("label,cdf,mean,end,bounded_density",
                         USER_LAWS + [("flat_kink", _flat_kink_cdf, 0.75, 1.5, True)]
                         + HELD_OUT_LAWS)
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
    left = np.maximum(q - 1.01 * _quantile_tolerance(label, u, q), 0.0)
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


# cdf points per draw: 3 for a draw that passes its first check (the
# guess, then q - tol and q), 2 more for one that needs the second.
# Measured: 3.0 on the power laws, 3.0005 on Kumaraswamy(2, 3), whose
# brackets are cut, 3.0054 on Weibull(1/2) and 3.141 on the exponential
# law, whose misses are left to the fallback; the cubic guess with three
# refining steps took 5.00 to 6.79, the quintic before its brackets were
# cut 3.0 to 3.82
CDF_POINTS_PER_DRAW = {"exponential": 3.15, "uniform01": 3.0, "power_c25": 3.0,
                       "power_c05": 3.0, "weibull_half": 3.006, "kumaraswamy": 3.001}


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
    per_draw = evaluated[0] / 4096
    assert per_draw <= CDF_POINTS_PER_DRAW[label], (label, per_draw)


def test_user_quantile_bisects_from_the_bracket_both_checks_left():
    # power c = 0.1 sends more draws past both checks than any other law
    # measured: 340 of these 4096.  They cut their bracket at the points
    # the checks evaluated and bisect what is left, 10.84 cdf values per
    # draw; 50 probes around the secant step before bisecting took 13.0
    evaluated = [0]

    def counted(t):
        evaluated[0] += np.size(t)
        return np.clip(t, 0.0, 1.0) ** 0.1

    dist = bc.make_distribution(counted, mean=0.1 / 1.1, support_end=1.0)
    evaluated[0] = 0  # construction's table is not counted
    dist.quantile_fn(np.random.default_rng(17).random(4096))
    assert evaluated[0] / 4096 <= 11.0, evaluated[0] / 4096


@pytest.mark.parametrize("label,cdf,mean,end,bounded_density", USER_LAWS)
def test_user_panel_slopes_are_the_panels_own(label, cdf, mean, end,
                                              bounded_density, monkeypatch):
    # a panel's G', G'' and roughness have the same bits computed alone and
    # within the whole table, so the quantile's table does not depend on
    # how many panels it has
    panels = []
    build = distributions._inverse_table
    monkeypatch.setattr(distributions, "_inverse_table",
                        lambda *args: panels.append(args) or build(*args))
    bc.make_distribution(cdf, mean=mean, support_end=end).quantile_fn(0.5)
    edges, x, g_x, g_edges = panels[0]
    g = np.concatenate((g_edges[:-1, None], g_x, g_edges[1:, None]), axis=1)
    width = np.diff(edges)
    whole = distributions._panel_slopes(g, width)
    for p in range(width.size):
        alone = distributions._panel_slopes(g[p:p + 1], width[p:p + 1])
        for part, row in zip(alone, whole):
            assert part[0].tobytes() == row[p].tobytes(), (label, p)


def test_user_table_is_built_in_few_cdf_calls():
    # the first refinement is seeded below the mean too, so a law steep at
    # 0 does not reach 0 one panel split, and one cdf call, at a time
    # (power c = 0.5 took 18 calls, Weibull(1/2) 32, power c = 0.2 23); the
    # support search asks about 8 octaves per call (the exponential law
    # took 10 calls and Weibull(1/2) 16 at one octave per call)
    limits = {"exponential": 4, "uniform01": 2, "power_c25": 2, "power_c05": 2,
              "weibull_half": 7, "kumaraswamy": 2, "power_c02": 7}
    laws = [law[:4] for law in USER_LAWS]
    laws.append(("power_c02", lambda t: np.clip(t, 0.0, 1.0) ** 0.2, 0.2 / 1.2, 1.0))
    for label, cdf, mean, end in laws:
        calls = [0]

        def counted(t, cdf=cdf):
            calls[0] += 1
            return cdf(t)

        bc.make_distribution(counted, mean=mean, support_end=end)
        assert calls[0] <= limits[label], (label, calls[0])


def _one_point_search(mean, end, negligible, what, below=0):
    """quadrature._support_breaks as a search one point at a time: ask
    ``negligible`` about each mean * 2^k on its own, and stop at the first
    that holds."""
    breaks = [0.0] + [t for t in (math.ldexp(mean, -k) for k in range(below, 0, -1))
                      if t < end]
    up = []
    t = mean
    while t < end and len(up) < 200:
        up.append(t)
        if math.isinf(end) and negligible(np.array([t]))[0]:
            return breaks + up
        t *= 2.0
    if math.isinf(end):
        raise AccuracyError(f"{what}: no end", best_estimate=math.inf,
                            error_estimate=math.inf)
    return breaks + up + [end]


def _weibull_cdf(shape):
    return lambda t: -np.expm1(-np.maximum(t, 0.0) ** shape)


# Weibull shapes 0.75 and 0.7, scale 1: G reaches 1 at mean * 2^7 and
# mean * 2^8, the last point of the search's first call and the first of
# its second
SEARCH_LAWS = [law[:4] for law in USER_LAWS] + [
    ("weibull_075", _weibull_cdf(0.75), math.gamma(1.0 + 1.0 / 0.75), math.inf),
    ("weibull_07", _weibull_cdf(0.7), math.gamma(1.0 + 1.0 / 0.7), math.inf)]


@pytest.mark.parametrize("label,cdf,mean,end", SEARCH_LAWS)
def test_batched_support_search_keeps_the_one_point_tables(label, cdf, mean, end,
                                                           monkeypatch):
    # the upward search asks about several octaves per call, yet the tail
    # table, and so beta_c, has the bits of the search one point per call,
    # with no float warning from the octaves past the end
    tables, ends = [], []
    tail_table = distributions._tail_table
    monkeypatch.setattr(distributions, "_tail_table",
                        lambda *args: tables.append(tail_table(*args)) or tables[-1])

    def spied(search):
        return lambda *args, **kw: ends.append(search(*args, **kw)) or ends[-1]

    results = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for search in (quadrature._support_breaks, _one_point_search):
            monkeypatch.setattr(distributions, "_support_breaks", spied(search))
            monkeypatch.setattr(analytics, "_support_breaks", spied(search))
            dist = bc.make_distribution(cdf, mean=mean, support_end=end)
            results.append([bc.beta_quadrature(bc.QueueParameters(lam / mean, dist))
                            for lam in (0.5, 2.0, 8.0)])
    batched, reference = tables
    for a, b in zip(batched, reference):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), label
    assert ends[:4] == ends[4:], label  # the table's end, then beta's three
    assert results[0] == results[1], label
    if label == "weibull_075":
        assert ends[0][-1] == math.ldexp(mean, 7)
    if label == "weibull_07":
        assert ends[0][-1] == math.ldexp(mean, 8)


def test_tail_table_takes_g_at_its_nodes_as_a_search_of_every_value_would(
        monkeypatch):
    # a table whose seed panels converge takes G at its Kronrod nodes from
    # the refinement's one cdf call, and one that splits searches the
    # sorted record of every value; both give the search's bits
    tables, integrand_calls = [], []
    tail_table, refine = distributions._tail_table, distributions._refine

    def recorded(*args):
        tables.append(tail_table(*args))
        return tables[-1]

    def counted(f, *args):
        def integrand(x):
            integrand_calls.append(x.size)
            return f(x)
        return refine(integrand, *args)

    monkeypatch.setattr(distributions, "_tail_table", recorded)
    monkeypatch.setattr(distributions, "_refine", counted)
    converged = set()
    for label, cdf, mean, end, _bounded in USER_LAWS + HELD_OUT_LAWS:
        record = []

        def spy(t, cdf=cdf):
            g = cdf(t)
            record.append((np.array(t, dtype=float), np.array(g, dtype=float)))
            return g

        tables.clear()
        integrand_calls.clear()
        bc.make_distribution(spy, mean=mean, support_end=end)
        (_edges, _after, x, g_x, _g_edges), = tables
        t_all = np.concatenate([t for t, _g in record])
        g_all = np.concatenate([g for _t, g in record])
        order = np.argsort(t_all, kind="stable")
        want = g_all[order][np.searchsorted(t_all[order], x)]
        assert g_x.tobytes() == want.tobytes(), label
        converged.add(len(integrand_calls) == 1)
    assert converged == {True, False}


@pytest.mark.parametrize("label,cdf,mean,end,bounded_density",
                         USER_LAWS + HELD_OUT_LAWS)
def test_user_quantile_of_nan_is_nan(label, cdf, mean, end, bounded_density):
    # NaN once drew the support end (32.0 for the exponential law)
    dist = bc.make_distribution(cdf, mean=mean, support_end=end)
    u = np.array([0.25, np.nan, 0.75, np.nan, 1.0])
    q = dist.quantile_fn(u)
    assert np.isnan(q[[1, 3]]).all(), label
    assert np.array_equal(q[[0, 2, 4]], dist.quantile_fn(u[[0, 2, 4]])), label
    assert math.isnan(float(dist.quantile_fn(math.nan))), label


@pytest.mark.parametrize("label,cdf,mean,end,bounded_density",
                         USER_LAWS + HELD_OUT_LAWS)
def test_user_quantile_of_interior_draws_has_the_bits_of_the_gathering_path(
        label, cdf, mean, end, bounded_density, monkeypatch):
    # draws that all fall between two knots go to _invert without being
    # gathered and scattered; an appended u = 0, which has no bracket,
    # sends the same draws through the gathering path
    dist = bc.make_distribution(cdf, mean=mean, support_end=end)
    u = np.random.default_rng(17).random(4096)
    inverted = []
    invert = distributions._invert

    def spy(G, u, *rows):
        inverted.append(u.size)
        return invert(G, u, *rows)

    monkeypatch.setattr(distributions, "_invert", spy)
    direct = np.asarray(dist.quantile_fn(u))
    gathered = np.asarray(dist.quantile_fn(np.append(u, 0.0)))[:-1]
    assert inverted == [u.size, u.size], label  # every draw is interior
    assert direct.tobytes() == gathered.tobytes(), label


def test_exponential_quantile_of_1_is_inf_without_a_warning():
    law = bc.exponential(2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert law.quantile_fn(1.0) == math.inf
        assert np.array_equal(law.quantile_fn(np.array([0.0, 1.0])), [0.0, math.inf])


def test_user_quantile_rarely_falls_back_on_a_cdf_that_cancels_near_0(monkeypatch):
    # 1 - (1 - t^2)^3 loses its digits near 0; the table's knots there keep
    # the quintic's guess good enough that no draw needs the 32-part search
    # (1.06% of these draws did without the seeds below the mean, and 112
    # before the brackets that miss were cut)
    dist = bc.make_distribution(_kumaraswamy_cdf, mean=16.0 / 35.0, support_end=1.0)
    bisected = [0]
    bisect = distributions._bisect

    def spy(G, u, lo, hi):
        bisected[0] += u.size
        return bisect(G, u, lo, hi)

    monkeypatch.setattr(distributions, "_bisect", spy)
    dist.quantile_fn(np.random.default_rng(29).random(200_000))
    assert bisected[0] == 0, bisected[0]


def _spy_on_inverse_table(monkeypatch):
    """The list of tables each ``_inverse_table`` call returns."""
    built = []
    build = distributions._inverse_table

    def spy(*args):
        built.append(build(*args))
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


class _CdfOutage(Exception):
    """An error of the user's cdf, not of busycycle."""


def test_cdf_errors_after_construction_pass_through(monkeypatch):
    # the cdf works while the law is built, then raises its own error:
    # every later caller sees that very exception, and the threads a
    # simulation starts are all joined
    outage = _CdfOutage("the cdf's data source is gone")
    down = [False]

    def cdf(t):
        if down[0]:
            raise outage
        return _exp_cdf(t)

    dist = bc.make_distribution(cdf, mean=0.5)
    down[0] = True
    calls = [
        lambda: dist.quantile_fn(np.array([0.3, 0.9])),  # the first draw
        lambda: dist.quantile_fn(0.5),  # a later one, tables built
        lambda: dist.residual_tail_fn(np.array([0.1, 2.0])),
        lambda: bc.beta_c(bc.QueueParameters(2.0, dist)),
    ]
    for call in calls:
        with pytest.raises(_CdfOutage) as info:
            call()
        assert info.value is outage
    monkeypatch.setattr(simulator, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(simulator, "_THREADED_ARRIVALS", 0)
    before = threading.active_count()
    with pytest.raises(_CdfOutage) as info:
        bc.estimate_beta_c(bc.QueueParameters(2.0, dist), 1000, seed=1,
                           replications=2)
    assert info.value is outage
    assert threading.active_count() == before


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


@pytest.mark.parametrize("label,cdf,mean,end", [
    ("uniform on [0, 1e300]", lambda t: np.clip(t / 1e300, 0.0, 1.0), 5e299, 1e300),
    ("exponential of mean 1e-200", lambda t: -np.expm1(-np.maximum(t, 0.0) / 1e-200),
     1e-200, math.inf)])
def test_user_quantile_on_panels_far_from_unit_width(label, cdf, mean, end):
    # G'' of a panel 1e300 or 1e-200 wide leaves the float range: the table
    # is built without a float warning and the draws keep the contract
    dist = bc.make_distribution(cdf, mean=mean, support_end=end)
    u = np.random.default_rng(31).random(2000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = dist.quantile_fn(u)
    assert np.all(cdf(q) >= u), label
    left = np.maximum(q - (1e-14 + 4.0 * np.finfo(float).eps * q), 0.0)
    assert np.all((cdf(left) < u) | (q == 0.0)), label


def test_declared_moments_pass_with_a_support_end_near_the_float_limit():
    # G is 1 long before t = 1e308; k t^(k-1) (1 - G) there was inf * 0,
    # a float warning and a moment2 of nan that refused the true moments
    law = bc.make_distribution(lambda t: -np.expm1(-np.maximum(t, 0.0)), mean=1.0,
                               moment2=2.0, moment3=6.0, support_end=1e308)
    assert (law.moment2, law.moment3, law.support_end) == (2.0, 6.0, 1e308)


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
