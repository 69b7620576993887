"""Analytic engines: closed forms, series, and quadrature against oracles.

Frozen expected values were computed with 40-digit arithmetic from the
defining integrals/series; runtime oracles use scipy (exponential integral,
QUADPACK) which are implementations independent of the package engines.
"""

import dataclasses
import math
import statistics
import time
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

import busycycle as bc
from busycycle.analytics import _power_beta_series, beta_closed_form
from busycycle.errors import (
    AccuracyError,
    DomainError,
    UnsupportedClosedFormError,
)
from busycycle import quadrature
from busycycle.quadrature import (_G_WEIGHTS, _GK_NODES, _K_WEIGHTS, _gauss_kronrod,
                                  _refine)


def _z_second_moment_alt(params):
    """The rejected reading of E[Z^2]: the cycle integral scaled by e^rho
    once instead of twice, 2 E[Z] (beta e^-rho + 1/lam)."""
    m = bc.beta_c(params)
    return 2.0 * m.e_z * (m.beta * math.exp(-params.traffic_intensity)
                          + 1.0 / params.arrival_rate)


# S(rho) = sum rho^n/(n n!), frozen from high-precision evaluation
S_TABLE = {
    0.5: 0.57015142052158603,
    1.0: 1.3179021514544039,
    2.0: 3.683871510540412,
    5.0: 37.998621778467544,
    10.0: 2489.3491754839822,
    50.0: 1.0585636897131691e20,
}

GRID_RHO = [0.1, 0.5, 1.0, 2.0, 5.0]


def _members_for(rho):
    """The five catalog members configured to a common traffic intensity."""
    return [
        ("exponential", bc.QueueParameters(rho, bc.exponential(1.0))),
        ("constant", bc.QueueParameters(rho, bc.deterministic(1.0))),
        ("special_a", bc.QueueParameters(1.0, bc.special_a(1.0, rho))),
        ("special_b", bc.QueueParameters(1.0, bc.special_b(1.0, rho))),
        ("power", bc.QueueParameters(2.0 * rho, bc.power_function(1.0))),
    ]


# ---------------------------------------------------------------------------
# series engines
# ---------------------------------------------------------------------------

def test_exp_series_examples():
    assert bc.exp_series(0.0) == (0.0, 0.0)
    assert bc.exp_series(0.5)[0] == pytest.approx(0.57015142052158603, rel=1e-10)
    assert bc.exp_series(1.0)[0] == pytest.approx(1.3179021514544039, rel=1e-10)
    with pytest.raises(DomainError):
        bc.exp_series(-0.1)


@pytest.mark.parametrize("rho", [0.5, 1.0, 5.0, 10.0, 50.0])
def test_exp_series_against_exponential_integral_oracle(rho):
    # independent oracle: S(rho) = Ei(rho) - gamma - ln(rho)
    oracle = special.expi(rho) - np.euler_gamma - math.log(rho)
    assert bc.exp_series(rho)[0] == pytest.approx(oracle, rel=1e-10)
    assert bc.exp_series(rho)[0] == pytest.approx(S_TABLE[rho], rel=1e-10)


def test_exp_series_stability_at_fifty():
    # magnitude ~1e20 must still carry 8+ significant digits
    assert bc.exp_series(50.0)[0] == pytest.approx(
        1.0585636897131691e20, rel=1e-10
    )


def test_exp_series_past_the_float_range_is_a_domain_error():
    # the running sum overflowed to inf and then nan, so the stopping test
    # never held: 200 000 terms, then an AccuracyError
    assert bc.exp_series(712.0)[0] == pytest.approx(2.3216800838e306, rel=1e-9)
    for rho in (720.0, 1e308):
        with pytest.raises(DomainError, match="overflows the float range"):
            bc.exp_series(rho)


def test_exp_series_at_subnormal_rho_is_its_first_term():
    # the stopping test "term < tol/4 * total" never held once its right
    # side underflowed: 200 000 terms, then an AccuracyError
    assert bc.exp_series(5e-324) == (5e-324, 0.0)
    assert bc.exp_series(1e-320) == (1e-320, 0.0)


def test_series_error_estimates_cover_mpmath_on_grid():
    # both all-positive series, summed to float resolution: the closed-form
    # exponential beta = rho S(rho) at lambda = 1 and the c = 1 power series
    # sum_{k>=1} rho^k / (k! (2k+1)) = 1F1(1/2; 3/2; rho) - 1, against
    # 40-digit hypergeometric values; both once missed at rho = 709
    misses, ratios = [], []
    with mpmath.workdps(40):
        for rho in map(float, np.geomspace(1e-10, 709.0, 60)):
            beta, method, err = beta_closed_form(
                bc.QueueParameters(1.0, bc.exponential(rho)))
            assert (method, beta, err) == (
                "series", *(rho * x for x in bc.exp_series(rho)))
            ref = mpmath.mpf(rho) ** 2 * mpmath.hyp2f2(1, 1, 2, 2, rho)
            power_beta, power_err = _power_beta_series(2.0 * rho, 1.0)
            power_ref = mpmath.hyp1f1(0.5, 1.5, rho) - 1
            for label, value, estimate, exact in (
                    ("exponential", beta, err, ref),
                    ("power c = 1", power_beta, power_err, power_ref)):
                actual = float(abs(value - exact))
                if actual > estimate:
                    misses.append((label, rho, actual / estimate))
                ratios.append(estimate / actual if actual else math.inf)
    assert not misses
    assert statistics.median(ratios) <= 1e3


def test_power_series_c1_frozen_grid():
    # beta for uniform service: frozen from the defining integral
    expected = {
        0.1: 0.0343576135040385,
        0.5: 0.194957661910228,
        1.0: 0.462651745907182,
        2.0: 1.36445389280521,
        5.0: 16.1721577738415,
    }
    for rho, beta in expected.items():
        lam = 2.0 * rho
        assert bc.power_double_series(lam, 1.0)[0] == pytest.approx(
            beta + 1.0 / lam, rel=1e-10
        )


def test_power_series_c1_large_rho_stable():
    # all-positive regrouping keeps c=1 usable at high intensity
    assert bc.power_double_series(20.0, 1.0)[0] == pytest.approx(
        1167.28046358, rel=1e-9
    )
    assert bc.power_double_series(100.0, 1.0)[0] == pytest.approx(
        5.23819176218e19, rel=1e-9
    )


@pytest.mark.parametrize("lam,c", [(1.5, 2.0), (1.0, 0.5), (3.0, 3.7),
                                   (2.0, 2.0), (1e-3, 2.0)])
def test_power_series_general_c_matches_quadrature(lam, c):
    params = bc.QueueParameters(lam, bc.power_function(c))
    series = bc.power_double_series(lam, c)[0]
    quad = bc.beta_quadrature(params, tol=1e-11)[0] + 1.0 / lam
    assert series == pytest.approx(quad, rel=1e-8)


def _mp_power_beta(lam, c):
    """beta = int_0^1 expm1(lam r(t)) dt, r(t) = 1 - t - (1 - t^(c+1))/(c+1),
    in mpmath at its working precision; the integrand peaks at t = 0 with
    width 1/lam, so the interval is split at 4^k / lam."""
    cm, lm = mpmath.mpf(c), mpmath.mpf(lam)
    cuts = [0] + [p for p in (1 / lm, 4 / lm, 16 / lm, 64 / lm) if p < 0.5] + [1]
    return mpmath.quad(lambda t: mpmath.expm1(
        lm * (1 - t - (1 - t ** (cm + 1)) / (cm + 1))), cuts)


def test_power_series_error_estimate_covers_mpmath_on_grid():
    grid = [(c, rho) for c in map(float, np.geomspace(0.2, 5.0, 20))
            for rho in map(float, np.geomspace(0.01, 6.0, 20))]
    # small and high traffic intensities, which the alternating k-sum once
    # refused from rho = 7.75
    grid += [(c, rho) for c in map(float, np.geomspace(0.05, 20.0, 12))
             for rho in map(float, np.geomspace(1e-4, 60.0, 14))]
    misses = []
    with mpmath.workdps(30):
        for c, rho in grid:
            lam = rho * (c + 1.0) / c
            ref = _mp_power_beta(lam, c)
            beta, err = _power_beta_series(lam, c)
            if abs(beta - ref) > err:
                misses.append((c, rho, float(abs(beta - ref)) / err))
    assert not misses


def test_power_double_series_estimate_covers_the_returned_beta_c():
    # beta_c = beta + 1/lam carries the rounding of that sum; at c = 5,
    # rho = 0.01 it is 180 times beta's own estimate
    misses = []
    with mpmath.workdps(40):
        for c in (0.5, 2.0, 5.0):
            for rho in (0.01, 0.3, 2.0):
                lam = rho * (c + 1.0) / c
                cm, lm = mpmath.mpf(c), mpmath.mpf(lam)
                ref = 1 / lm + mpmath.quad(lambda t: mpmath.expm1(
                    lm * (1 - t - (1 - t ** (cm + 1)) / (cm + 1))), [0, 1])
                value, err = bc.power_double_series(lam, c)
                if abs(value - ref) > err:
                    misses.append((c, rho, float(abs(value - ref)) / err))
    assert not misses


def test_power_series_general_c_answers_at_high_intensity():
    # rho = 40: the alternating k-sum refused here as cancellation-limited
    value, err = bc.power_double_series(60.0, 2.0)
    with mpmath.workdps(30):
        ref = 1 / mpmath.mpf(60) + _mp_power_beta(60.0, 2.0)
    assert abs(value - ref) <= err
    assert err <= 1e-10 * value


def test_power_series_past_rho_six_answers_or_refuses_cleanly():
    # it answers: at (71.08, 3.16) the alternating k-sum once returned
    # beta = -1.5e29, and at (242, 0.1) its truncation bound
    # rho^(k+1) / (k+1)! overflowed
    points = [(rho * (c + 1.0) / c, c)
              for c in map(float, np.geomspace(0.05, 20.0, 12))
              for rho in map(float, np.geomspace(6.0, 60.0, 12))]
    for lam, c in points + [(71.07629936490926, 3.1622776601683795), (242.0, 0.1)]:
        beta, err = _power_beta_series(lam, c)
        assert 0.0 < err <= 1e-10 * beta, (lam, c)


@pytest.mark.parametrize("lam,c", [(1e20, 1e-18), (1e14, 1e-12), (1.0, 1e-6)])
def test_power_quadrature_agrees_with_the_series_at_small_c(lam, c):
    # the residual tail once cancelled at small c: quadrature gave beta = 0
    # with estimate 0 at (1e20, 1e-18), a 4096-panel AccuracyError at
    # (1e14, 1e-12), and a miss of 2472 times the summed estimates at
    # (1, 1e-6)
    params = bc.QueueParameters(lam, bc.power_function(c))
    quad = bc.beta_c(params, "quadrature")
    series = bc.beta_c(params, "closed-form")
    assert (quad.method, series.method) == ("quadrature", "series")
    assert abs(quad.beta - series.beta) <= quad.error_estimate + series.error_estimate


def test_power_series_domain_errors():
    with pytest.raises(DomainError):
        bc.power_double_series(0.0, 1.0)
    with pytest.raises(DomainError):
        bc.power_double_series(1.0, -2.0)
    # a subnormal rate: 1/lam overflows, and (inf, inf) was returned
    for lam in (5e-324, 1e-310):
        with pytest.raises(DomainError, match="overflows"):
            bc.power_double_series(lam, 3.0)
    # rho = lam c / (c + 1) past log(DBL_MAX): float warnings, then a bare
    # OverflowError
    for lam, c in ((1065.0, 2.0), (1e308, 0.5)):
        with pytest.raises(DomainError, match="exceeds log"):
            bc.power_double_series(lam, c)


def test_a_float32_rate_gives_the_float64_result():
    # the rate is stored as a Python float: a float32 one kept its type and
    # gave beta_c = 2.5701513, 1.2e-7 off, with an error estimate of 5.7e-11
    params = bc.QueueParameters(np.float32(0.5), bc.exponential(1.0))
    assert type(params.arrival_rate) is float
    value = bc.beta_c(params).beta_c
    assert type(value) is float
    assert value == bc.beta_c(bc.QueueParameters(0.5, bc.exponential(1.0))).beta_c


# ---------------------------------------------------------------------------
# plain mean values
# ---------------------------------------------------------------------------

def test_mean_cycle_values():
    assert bc.mean_cycle(bc.QueueParameters(1.0, bc.exponential(0.5))) == pytest.approx(
        1.6487212707001282, rel=1e-12
    )
    assert bc.mean_cycle(bc.QueueParameters(2.0, bc.exponential(0.5))) == pytest.approx(
        1.3591409142295225, rel=1e-12
    )
    assert bc.mean_cycle(bc.QueueParameters(3.0, bc.deterministic(0.0))) == pytest.approx(
        1.0 / 3.0, rel=1e-15
    )


def test_mean_values_past_the_float_range_are_domain_errors():
    # e^rho / lambda overflowed to inf: at a subnormal rate for E[Z] only
    # (E[B] = 1 there), and at rho = 709, lambda = 0.1 for both
    tiny = bc.QueueParameters(1e-310, bc.exponential(1.0))
    with pytest.raises(DomainError, match="lambda = 1e-310"):
        bc.mean_cycle(tiny)
    assert bc.mean_busy_period(tiny) == 1.0
    heavy = bc.QueueParameters(0.1, bc.exponential(7090.0))
    for mean in (bc.mean_cycle, bc.mean_busy_period):
        with pytest.raises(DomainError, match="rho = 709, lambda = 0.1"):
            mean(heavy)


def test_mean_busy_period_values():
    assert bc.mean_busy_period(
        bc.QueueParameters(2.0, bc.exponential(0.5))
    ) == pytest.approx(0.8591409142295226, rel=1e-12)
    assert bc.mean_busy_period(bc.QueueParameters(3.0, bc.deterministic(0.0))) == 0.0
    eb = bc.mean_busy_period(bc.QueueParameters(10.0, bc.exponential(0.5)))
    assert eb == pytest.approx(14.74131591025766, rel=1e-12)
    # cross-table identity: second logistic member's cell = E[B] + e^-5/10
    assert eb + math.exp(-5.0) / 10.0 == pytest.approx(14.741989705, rel=1e-9)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_beta_quadrature_examples():
    det = bc.QueueParameters(1.0, bc.deterministic(0.5))
    assert bc.beta_quadrature(det)[0] == pytest.approx(0.14872127070012819, rel=1e-9)
    sa = bc.QueueParameters(1.0, bc.special_a(1.0, 0.5))
    assert bc.beta_quadrature(sa)[0] == pytest.approx(0.6487212707001282, rel=1e-9)
    idle = bc.QueueParameters(2.0, bc.deterministic(0.0))
    assert bc.beta_quadrature(idle)[0] == 0.0


def test_beta_quadrature_matches_quadpack():
    # fully independent route: QUADPACK on the raw integrand
    params = bc.QueueParameters(2.0, bc.power_function(1.0))
    ref, _ = integrate.quad(
        lambda t: math.expm1(2.0 * float(params.service.residual_tail_fn(t))),
        0.0, 1.0,
    )
    assert bc.beta_quadrature(params, tol=1e-11)[0] == pytest.approx(ref, rel=1e-9)


def test_beta_quadrature_budget_error_carries_best_estimate(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 3)
    params = bc.QueueParameters(1.0, bc.exponential(1.0))
    with pytest.raises(AccuracyError) as exc:
        bc.beta_quadrature(params, 1e-13)
    assert exc.value.best_estimate == pytest.approx(1.3179021514544039, rel=1e-3)
    assert exc.value.error_estimate > 0


def test_refine_keeps_the_error_of_a_panel_too_narrow_to_split():
    # one panel one ulp wide: its error cannot shrink, so it stays in the
    # estimate the AccuracyError carries instead of being dropped
    with pytest.raises(AccuracyError, match="too narrow to split") as exc:
        _refine(lambda x: np.ones_like(x), [1.0, math.nextafter(1.0, 2.0)], 1e-17)
    width = math.ulp(1.0)
    assert exc.value.best_estimate == pytest.approx(width, rel=1e-15)
    assert exc.value.error_estimate == pytest.approx(1e-16 * width, rel=1e-12)


def _counted(f):
    """``f`` and the list of the array sizes it has been called on."""
    sizes = []

    def counted(x):
        sizes.append(x.size)
        return f(x)

    return counted, sizes


def test_refine_returns_seed_panels_that_converge_as_they_are():
    # GK15 integrates t^2 exactly, so the seed panels meet the tolerance
    # on their first call and come back with no split
    f, sizes = _counted(np.square)
    pts = np.array([0.0, 0.5, 1.0, 3.0])
    total, total_err, a, b, values = _refine(f, [3.0, 0.0, 1.0, 0.5, 1.0], 1e-12)
    assert sizes == [15 * 3]
    assert a.tobytes() == pts[:-1].tobytes() and b.tobytes() == pts[1:].tobytes()
    seed_values, seed_errs = _gauss_kronrod(np.square, pts[:-1], pts[1:])
    assert values.tobytes() == seed_values.tobytes()
    assert total == float(values.sum()) and total_err == float(seed_errs.sum())
    assert total == pytest.approx(9.0, rel=1e-15)


def test_refine_returns_split_panels_sorted_and_contiguous():
    f, sizes = _counted(np.sqrt)
    total, total_err, a, b, values = _refine(f, [0.0, 0.25, 1.0], 1e-12)
    assert len(sizes) > 1 and len(a) > 2
    assert a[0] == 0.0 and b[-1] == 1.0
    assert np.all(a < b) and np.array_equal(a[1:], b[:-1])
    assert total_err <= 1e-12 * total and total == pytest.approx(2.0 / 3.0, rel=1e-10)
    assert total == pytest.approx(float(values.sum()), rel=1e-14)


def test_gauss_kronrod_constants_integrate_polynomials_exactly():
    # on [-1, 1] the 15-point Kronrod rule is exact for t^k, k <= 22, and the
    # 7-point Gauss rule for k <= 13; the float constants, summed exactly
    nodes = [mpmath.mpf(x) for x in _GK_NODES.tolist()]
    for weights, degree in ((_K_WEIGHTS, 22), (_G_WEIGHTS, 13)):
        for k in range(degree + 1):
            exact = mpmath.mpf(2) / (k + 1) if k % 2 == 0 else 0
            rule = mpmath.fsum(mpmath.mpf(w) * x ** k
                               for w, x in zip(weights.tolist(), nodes))
            assert abs(rule - exact) <= 4e-16, (degree, k)


def _mp_beta(kind, lam, rho):
    """beta at 40 digits from each law's closed form; uniform on [0, 2 alpha]
    by quadrature of expm1(lam r(t)), r(t) = (2 alpha - t)^2 / (4 alpha)."""
    lm, r = mpmath.mpf(lam), mpmath.mpf(rho)
    if kind == "exponential":
        return (r / lm) * (mpmath.ei(r) - mpmath.euler - mpmath.log(r))
    if kind == "deterministic":
        return (mpmath.expm1(r) - r) / lm
    if kind == "special_a":
        return mpmath.expm1(r) / lm
    if kind == "special_b":
        return 4 * mpmath.sinh(r / 2) ** 2 / lm
    end = 2 * r / lm
    return mpmath.quad(lambda t: mpmath.expm1(lm * (end - t) ** 2 / (2 * end)),
                       [0, end / 2, end])


def _law(kind, lam, rho):
    if kind == "uniform":
        return bc.scale(bc.uniform01(), 2.0 * rho / lam)
    if kind in ("special_a", "special_b"):
        return getattr(bc, kind)(lam, rho)
    return getattr(bc, kind)(rho / lam)


def test_beta_quadrature_against_mpmath_from_tiny_to_large_rho():
    # the support cut is relative to the mean: at rho = 1e-6 a cut at
    # lam * r(t) < 1e-16 from t = 1/lam once lost 37% of beta
    worst = 0.0
    with mpmath.workdps(40):
        for kind in ("exponential", "deterministic", "special_a", "special_b",
                     "uniform"):
            for lam in (0.1, 1.0, 20.0):
                for rho in map(float, np.geomspace(1e-6, 50.0, 12)):
                    params = bc.QueueParameters(lam, _law(kind, lam, rho))
                    beta = bc.beta_quadrature(params)[0]
                    ref = _mp_beta(kind, lam, params.traffic_intensity)
                    worst = max(worst, float(abs(beta - ref) / ref))
    assert worst <= 1e-13


def test_quadrature_of_a_short_mean_agrees_with_the_series():
    for dist in (bc.exponential(1e-6), bc.special_b(1.0, 1e-6)):
        params = bc.QueueParameters(1.0, dist)
        quad = bc.beta_c(params, "quadrature").beta
        assert quad == pytest.approx(bc.beta_c(params).beta, rel=1e-9, abs=0.0)


def test_deterministic_closed_form_against_mpmath():
    # e^rho - 1 - rho cancels at small rho; each value must sit inside its
    # own error estimate
    misses = []
    with mpmath.workdps(40):
        for rho in map(float, np.geomspace(1e-12, 300.0, 400)):
            params = bc.QueueParameters(1.0, bc.deterministic(rho))
            m = bc.beta_c(params, "closed-form")
            ref = mpmath.expm1(mpmath.mpf(rho)) - rho
            if abs(m.beta - ref) > m.error_estimate:
                misses.append(rho)
    assert not misses


def test_beta_quadrature_rejects_bad_tolerance():
    params = bc.QueueParameters(1.0, bc.exponential(1.0))
    with pytest.raises(DomainError):
        bc.beta_quadrature(params, tol=-1e-9)


def test_beta_quadrature_refuses_a_beta_past_the_float_range():
    # e^rho is still finite at rho = 709.7, but beta's panel sums overflow:
    # a typed error, with no float warning on the way
    params = bc.QueueParameters(0.5, bc.special_a(0.5, 709.7))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="beta overflows the float range"):
            bc.beta_quadrature(params)


# ---------------------------------------------------------------------------
# the metrics bundle
# ---------------------------------------------------------------------------

def test_beta_c_closed_forms():
    # frozen truths for one cell per member family
    m = bc.beta_c(bc.QueueParameters(1.0, bc.exponential(1.0)))
    assert m.beta_c == pytest.approx(2.3179021514544039, rel=1e-10)
    assert m.method == "series"
    m = bc.beta_c(bc.QueueParameters(1.0, bc.deterministic(5.0)))
    assert m.beta_c == pytest.approx(math.exp(5.0) - 5.0, rel=1e-12)
    assert m.method == "closed-form"
    m = bc.beta_c(bc.QueueParameters(1.0, bc.special_b(1.0, 1.0)))
    assert m.beta_c == pytest.approx(2.0861612696304874, rel=1e-12)
    m = bc.beta_c(bc.QueueParameters(1.0, bc.exponential(50.0)))
    assert m.beta_c == pytest.approx(5.2928184485682357e21, rel=1e-9)


def test_beta_c_bundle_invariants():
    for rho in (0.25, 1.0, 3.0):
        for label, params in _members_for(rho):
            m = bc.beta_c(params)
            lam = params.arrival_rate
            assert m.beta_c == m.beta + 1.0 / lam, label  # exact by construction
            assert m.e_z == pytest.approx(m.e_b + 1.0 / lam, rel=1e-12)
            assert m.z_second_moment == pytest.approx(
                2.0 * m.e_z * m.beta_c, rel=1e-12
            )
            assert m.error_estimate >= 0.0


def test_beta_c_strategies():
    params = bc.QueueParameters(2.0, bc.exponential(0.5))
    closed = bc.beta_c(params, "closed-form")
    quad = bc.beta_c(params, "quadrature")
    assert closed.method == "series"
    assert quad.method == "quadrature"
    assert closed.beta_c == pytest.approx(quad.beta_c, rel=1e-9)
    with pytest.raises(DomainError):
        bc.beta_c(params, "guess")


def test_beta_c_closed_form_unsupported_for_user_laws():
    dist = bc.make_distribution(
        cdf=lambda t: -np.expm1(-np.maximum(t, 0.0) ** 2),
        mean=math.sqrt(math.pi) / 2.0,
    )
    params = bc.QueueParameters(0.5, dist)
    with pytest.raises(UnsupportedClosedFormError):
        bc.beta_c(params, "closed-form")
    m = bc.beta_c(params)  # auto falls back to quadrature
    assert m.method == "quadrature"
    assert m.beta_c > 1.0 / 0.5 / 1.0  # beta > 0


def _weibull_half_beta_c(scale, lam):
    """beta_c for Weibull(1/2) service by QUADPACK on its closed-form
    residual tail r(t) = 2 s (1 + x) e^-x, x = sqrt(t/s)."""
    def r(t):
        x = math.sqrt(t / scale)
        return 2.0 * scale * (1.0 + x) * math.exp(-x)
    beta, _ = integrate.quad(lambda t: math.expm1(lam * r(t)), 0.0, math.inf,
                             epsabs=0.0, epsrel=1e-13, limit=500)
    return beta + 1.0 / lam


@pytest.mark.parametrize("label,cdf,mean,lam,reference", [
    ("weibull_half", lambda t: -np.expm1(-np.sqrt(np.maximum(t, 0.0) / 0.25)),
     0.5, 1.0, lambda: _weibull_half_beta_c(0.25, 1.0)),
    ("exp_twin", lambda t: -np.expm1(-np.maximum(t, 0.0) / 0.556223),
     0.556223, 1.91036,
     lambda: bc.beta_c(bc.QueueParameters(1.91036, bc.exponential(0.556223))).beta_c),
])
def test_user_cdf_beta_c_matches_independent_reference(label, cdf, mean, lam,
                                                       reference):
    # the numeric residual tail must decay to zero, or the search for
    # where to cut the unbounded support never stops
    params = bc.QueueParameters(lam, bc.make_distribution(cdf, mean=mean))
    assert float(params.service.residual_tail_fn(0.0)) == mean
    m = bc.beta_c(params)
    assert m.method == "quadrature"
    assert m.beta_c == pytest.approx(reference(), rel=1e-9), label


# catalog members rewritten as bare CDFs: (catalog law, cdf, support end)
USER_TWINS = {
    "exponential": (bc.exponential(0.5),
                    lambda t: -np.expm1(-np.maximum(t, 0.0) / 0.5), math.inf),
    "uniform01": (bc.uniform01(), lambda t: np.clip(t, 0.0, 1.0), 1.0),
    "power_c05": (bc.power_function(0.5),
                  lambda t: np.clip(t, 0.0, 1.0) ** 0.5, 1.0),
    "power_c25": (bc.power_function(2.5),
                  lambda t: np.clip(t, 0.0, 1.0) ** 2.5, 1.0),
    "power_c02": (bc.power_function(0.2),
                  lambda t: np.clip(t, 0.0, 1.0) ** 0.2, 1.0),
    # support_end at the atom
    "deterministic": (bc.deterministic(0.7),
                      lambda t: np.where(t < 0.7, 0.0, 1.0), 0.7),
}


@pytest.mark.parametrize("label", sorted(USER_TWINS))
@pytest.mark.parametrize("rho", [0.5, 3.0])
def test_user_cdf_twin_matches_catalog_beta_c(label, rho):
    law, cdf, end = USER_TWINS[label]
    lam = rho / law.mean
    user = bc.make_distribution(cdf, mean=law.mean, support_end=end)
    m = bc.beta_c(bc.QueueParameters(lam, user))
    assert m.method == "quadrature"
    assert m.beta_c == pytest.approx(
        bc.beta_c(bc.QueueParameters(lam, law)).beta_c, rel=1e-9), label


def test_support_search_that_never_ends_raises():
    flat = dataclasses.replace(
        bc.exponential(1.0),
        residual_tail_fn=lambda t: np.ones_like(np.asarray(t, dtype=float)),
    )
    with pytest.raises(AccuracyError):
        bc.beta_quadrature(bc.QueueParameters(1.0, flat))


def test_beta_c_rejects_moments_past_the_float_range():
    # rho = 700 is a valid queue, but E[Z^2] ~ 1e608 is not a float
    with pytest.raises(DomainError):
        bc.beta_c(bc.QueueParameters(1.0, bc.exponential(700.0)))


def test_beta_c_degenerate_rho_zero():
    m = bc.beta_c(bc.QueueParameters(2.0, bc.deterministic(0.0)))
    assert m.beta == 0.0
    assert m.beta_c == 0.5
    assert m.e_z == 0.5
    assert m.e_b == 0.0
    assert m.z_second_moment == 0.5
    assert m.error_estimate == 0.0


@pytest.mark.parametrize("rho", GRID_RHO)
def test_closed_form_vs_quadrature_full_grid(rho):
    for label, params in _members_for(rho):
        cf = bc.beta_c(params, "closed-form")
        qd = bc.beta_c(params, "quadrature", quad_tol=1e-10)
        rel = abs(cf.beta_c - qd.beta_c) / cf.beta_c
        assert rel <= 1e-8, f"{label} rho={rho}: {rel:.2e}"


def test_integrand_identity_residual_nonnegative_and_monotone():
    # exponent of the cycle integral: lam * residual(t), nonincreasing, >= 0
    for rho in (0.5, 2.0):
        for label, params in _members_for(rho):
            dist = params.service
            end = dist.support_end if math.isfinite(dist.support_end) \
                else 30.0 * max(dist.mean, 1.0)
            t = np.linspace(0.0, end, 200)
            r = np.asarray(dist.residual_tail_fn(t), dtype=float)
            assert np.all(r >= 0.0), label
            assert np.all(np.diff(r) <= 1e-12), label
            assert r[0] == pytest.approx(dist.mean, rel=1e-12)


def test_scale_covariance():
    # beta_c(lam/k, k-scaled service) = k * beta_c(lam, service)
    for k in (0.5, 2.0, 10.0):
        for label, params in _members_for(1.0):
            ref = bc.beta_c(params).beta_c
            scaled = bc.QueueParameters(
                params.arrival_rate / k, bc.scale(params.service, k)
            )
            strategy = "auto" if scaled.service.spec["type"] != "scaled" else "quadrature"
            got = bc.beta_c(scaled, strategy, quad_tol=1e-12).beta_c
            assert got == pytest.approx(k * ref, rel=1e-10), (label, k)


def test_constant_service_collapse():
    # gamma_s = 0 collapse: beta_c = E[Z] - alpha
    for rho in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        params = bc.QueueParameters(rho, bc.deterministic(1.0))
        m = bc.beta_c(params)
        assert m.beta_c == pytest.approx(m.e_z - 1.0, rel=1e-10)


def test_z_second_moment_values():
    def z2(params):
        return bc.beta_c(params).z_second_moment

    assert z2(bc.QueueParameters(2.0, bc.deterministic(0.0))) == \
        pytest.approx(2.0 / 4.0, rel=1e-15)
    # first logistic member: beta_c = E[Z], so E[Z^2] = 2 E[Z]^2 = 2 e^(2 rho)/lam^2
    for lam, rho in ((1.0, 0.5), (2.0, 1.0)):
        got = z2(bc.QueueParameters(lam, bc.special_a(lam, rho)))
        assert got == pytest.approx(2.0 * math.exp(2 * rho) / lam**2, rel=1e-12)
    got = z2(bc.QueueParameters(1.0, bc.deterministic(0.5)))
    assert got == pytest.approx(3.78784238621796, rel=1e-10)


def test_z_second_moment_alt_is_distinct():
    params = bc.QueueParameters(2.0, bc.exponential(0.5))
    normative = bc.beta_c(params).z_second_moment
    alt = _z_second_moment_alt(params)
    assert normative == pytest.approx(3.15035564922232, rel=1e-10)
    assert alt == pytest.approx(2.01809198995672, rel=1e-10)
    assert alt < normative


def test_quadrature_agrees_at_extreme_intensity():
    # the dynamic range of the integrand reaches e^50 here
    cases = [
        bc.QueueParameters(1.0, bc.exponential(50.0)),
        bc.QueueParameters(1.0, bc.deterministic(50.0)),
        bc.QueueParameters(1.0, bc.special_a(1.0, 50.0)),
        bc.QueueParameters(1.0, bc.special_b(1.0, 50.0)),
        bc.QueueParameters(100.0, bc.power_function(1.0)),
    ]
    for params in cases:
        cf = bc.beta_c(params, "closed-form").beta_c
        qd = bc.beta_c(params, "quadrature", quad_tol=1e-10).beta_c
        assert qd == pytest.approx(cf, rel=1e-9), params.service.name


def test_auto_strategy_takes_the_general_c_series_at_high_intensity():
    params = bc.QueueParameters(40.0, bc.power_function(3.7))
    m = bc.beta_c(params)
    assert m.method == "series"
    assert m.beta_c == pytest.approx(
        bc.beta_quadrature(params, tol=1e-10)[0] + 1.0 / 40.0, rel=1e-9
    )


def test_full_grid_runtime_stays_interactive():
    t0 = time.perf_counter()
    for rho in GRID_RHO:
        for _, params in _members_for(rho):
            bc.beta_c(params, "closed-form")
            bc.beta_c(params, "quadrature")
    assert time.perf_counter() - t0 < 10.0
