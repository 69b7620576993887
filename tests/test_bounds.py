"""Bounds: frozen endpoint values, reduction identities, sandwich checks."""

import math
import re

import numpy as np
import pytest

import busycycle as bc
from busycycle import cli
from busycycle.bounds import Comparison
from busycycle.errors import (
    ClassViolationError,
    DomainError,
    UnsupportedMomentError,
)


def test_sathe_interval_collapses_at_zero_scv():
    lam, alpha = 2.0, 0.5
    lo, up = bc.sathe_interval(lam, alpha, 0.0)
    e_z = math.exp(lam * alpha) / lam
    assert lo == up == pytest.approx(e_z - alpha, rel=1e-14)


def test_sathe_interval_frozen_values():
    lo, up = bc.sathe_interval(2.0, 0.5, 1.0)
    assert lo == pytest.approx(1.1091409142295226, rel=1e-12)
    assert up == pytest.approx(1.2182818284590450, rel=1e-12)
    assert lo < 1.1589510757272 < up  # brackets the exponential value
    lo, up = bc.sathe_interval(1.0, 1.0, 1.0)
    assert lo == pytest.approx(2.2182818284590452, rel=1e-12)
    assert up == pytest.approx(2.4365636569180902, rel=1e-12)
    assert lo < 2.3179021514544039 < up


def test_sathe_lower_offset_matches_half_alpha_rho_at_unit_scv():
    # rho^2 * 1 / (2 lam) == alpha rho / 2
    for lam, alpha in ((2.0, 0.5), (3.0, 1.5), (0.5, 4.0)):
        rho = lam * alpha
        lo, _ = bc.sathe_interval(lam, alpha, 1.0)
        e_z = math.exp(rho) / lam
        assert lo - (e_z - alpha) == pytest.approx(alpha * rho / 2.0, rel=1e-12)


def test_sathe_domain_errors():
    with pytest.raises(DomainError):
        bc.sathe_interval(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        bc.sathe_interval(1.0, 1.0, -0.5)


def test_bounds_past_the_float_range_raise():
    # rho = 709.5 <= log(DBL_MAX), but e^rho / lam = 3e308 overflows
    with pytest.raises(DomainError):
        bc.sathe_interval(0.5, 1419.0, 1.0)
    params = bc.QueueParameters(0.5, bc.exponential(1419.0))
    for kind in ("m-nwue", "dfr", "imrl"):
        with pytest.raises(DomainError):
            bc.class_lower_bound(kind, params)
    with pytest.raises(DomainError):
        bc.class_upper_bound("m-nbue", params)
    with pytest.raises(DomainError):
        bc.build_report(params)
    # just inside the range the bounds stay finite
    lo, up = bc.sathe_interval(1.0, 709.0, 1.0)
    assert math.isfinite(lo) and math.isfinite(up)


def test_proposition1_examples():
    assert bc.proposition1(0.5, 0.0) is Comparison.BELOW_EZ
    assert bc.proposition1(1.0, 2.0) is Comparison.ABOVE_EZ  # boundary attained
    # 1 <= 1/(e - 2) = 1.392..., so unit scv still sits below E[Z] at rho = 1
    assert bc.proposition1(1.0, 1.0) is Comparison.BELOW_EZ
    assert bc.proposition1(2.0, 0.9) is Comparison.INDETERMINATE
    with pytest.raises(DomainError):
        bc.proposition1(0.0, 1.0)


def test_proposition1_never_contradicts_computed_position():
    for rho in (0.25, 0.5, 1.0, 2.0, 5.0):
        members = [
            bc.QueueParameters(rho, bc.exponential(1.0)),
            bc.QueueParameters(rho, bc.deterministic(1.0)),
            bc.QueueParameters(1.0, bc.special_a(1.0, rho)),
            bc.QueueParameters(1.0, bc.special_b(1.0, rho)),
            bc.QueueParameters(2.0 * rho, bc.power_function(1.0)),
        ]
        for params in members:
            verdict = bc.proposition1(rho, params.service.scv)
            m = bc.beta_c(params)
            slack = 1e-9 * m.e_z
            if verdict is Comparison.BELOW_EZ:
                assert m.beta_c <= m.e_z + slack, params.service.name
            elif verdict is Comparison.ABOVE_EZ:
                assert m.beta_c >= m.e_z - slack, params.service.name


def _excess_defect(rho):
    """e^rho - 1 - rho; direct term summation below 1e-3 because the
    expm1-based difference loses ~4e-4 of the gap at rho = 1e-6."""
    if rho >= 1e-3:
        return math.expm1(rho) - rho
    term = rho * rho / 2.0
    total = term
    k = 2
    while term > 1e-25 * total:
        k += 1
        term *= rho / k
        total += term
    return total


def test_observation_inequality_and_limit():
    # 2/rho dominates rho/(e^rho - 1 - rho) on (0, 50]
    for rho in [1e-6, 1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0]:
        gap = 2.0 / rho - rho / _excess_defect(rho)
        assert gap >= 0.0
    rho = 1e-6
    gap = 2.0 / rho - rho / _excess_defect(rho)
    assert abs(gap - 2.0 / 3.0) <= 1e-4


def test_class_lower_bounds_frozen_values():
    p = bc.QueueParameters(2.0, bc.exponential(0.5))
    assert bc.class_lower_bound("M/NWUE", p) == pytest.approx(
        1.1508075808961894, rel=1e-12
    )
    p10 = bc.QueueParameters(10.0, bc.exponential(0.5))
    assert bc.class_lower_bound("M/NWUE", p10) == pytest.approx(
        16.632982576924327, rel=1e-12
    )
    pw = bc.QueueParameters(2.0, bc.power_function(1.0))
    assert bc.class_lower_bound("Power(c)", pw) == pytest.approx(
        0.94247424756285595, rel=1e-12
    )
    # uniform01 is the c = 1 specialization
    assert bc.class_lower_bound("Uniform01", pw) == bc.class_lower_bound("power", pw)


def test_class_upper_bounds_frozen_values():
    p = bc.QueueParameters(2.0, bc.exponential(0.5))
    up = bc.class_upper_bound("M/NBUE", p)
    assert up == pytest.approx(1.1795704571147612, rel=1e-12)
    # the min picks (rho/2)(E[B] + alpha) here: 0.5 + min(0.71828, 0.67957)
    e_b = bc.mean_busy_period(p)
    assert up == pytest.approx(0.5 + 0.5 * (e_b + 0.5), rel=1e-12)
    pw = bc.QueueParameters(2.0, bc.power_function(1.0))
    assert bc.class_upper_bound("power", pw) == pytest.approx(
        0.97885455230603016, rel=1e-12
    )
    assert bc.class_upper_bound("uniform01", pw) == bc.class_upper_bound("power", pw)


def test_dfr_reduction_to_exponential():
    # at scv = 1 the DFR floor must coincide with the M/NWUE floor
    for lam, alpha in ((1.0, 1.0), (2.0, 0.5), (0.5, 6.0), (10.0, 0.5)):
        p = bc.QueueParameters(lam, bc.exponential(alpha))
        dfr = bc.class_lower_bound("DFR", p)
        nwue = bc.class_lower_bound("M/NWUE", p)
        assert dfr == pytest.approx(nwue, rel=1e-12)


def test_imrl_reduction_to_exponential():
    # exponential moments (mu2 = 2 a^2, mu3 = 6 a^3) zero the exponent and
    # the IMRL floor must also collapse onto the M/NWUE floor
    for lam, alpha in ((1.0, 1.0), (2.0, 0.5), (0.5, 6.0), (10.0, 0.5)):
        p = bc.QueueParameters(lam, bc.exponential(alpha))
        d = p.service
        assert d.moment2 == pytest.approx(2 * alpha**2, rel=1e-15)
        assert d.moment3 == pytest.approx(6 * alpha**3, rel=1e-15)
        q_exponent = 1.0 - 2.0 * alpha * d.moment3 / (3.0 * d.moment2**2)
        assert q_exponent == pytest.approx(0.0, abs=1e-15)
        imrl = bc.class_lower_bound("IMRL", p)
        nwue = bc.class_lower_bound("M/NWUE", p)
        assert imrl == pytest.approx(nwue, rel=1e-12)


@pytest.mark.parametrize("lam,floor,beta_c", [
    (0.5, 2.19905198, 2.393), (1.0, 1.41266301, 1.828),
    (2.0, 1.39478219, 2.347), (4.0, 2.44957776, 5.023),
])
def test_imrl_floor_with_q_below_one(lam, floor, beta_c):
    # Weibull(1/2), scale 1/4: mean 1/2, mu2 = 1.5, mu3 = 11.25, and
    # q = e^(1 - 2 alpha mu3 / (3 mu2^2)) = e^(-2/3), unlike the exponential
    alpha, mu2, mu3 = 0.5, 1.5, 11.25
    weibull = bc.make_distribution(
        lambda t: -np.expm1(-np.sqrt(np.maximum(t, 0.0) / 0.25)), mean=alpha,
        moment2=mu2, moment3=mu3, class_tags={"DFR", "IMRL", "NWUE"})
    p = bc.QueueParameters(lam, weibull)
    rho = lam * alpha
    q = math.exp(1.0 - 2.0 * alpha * mu3 / (3.0 * mu2 * mu2))
    expected = math.exp(rho) / lam - alpha + (lam / 4.0) * (
        2.0 * mu2 * q - 2.0 * alpha**2 + rho * (3.0 * mu2 * q * q - 4.0 * alpha**2) / 6.0)
    value = bc.class_lower_bound("imrl", p)
    assert value == pytest.approx(expected, rel=1e-14)
    assert value == pytest.approx(floor, rel=1e-8)
    computed = bc.beta_c(p).beta_c
    assert computed == pytest.approx(beta_c, rel=1e-3)
    assert value < computed


def test_power_bounds_equal_sathe_at_power_scv():
    # the power-function bounds are the distribution-free interval evaluated
    # at scv = 1/(c(c+2)); equality is an algebraic identity
    for lam, c in ((2.0, 1.0), (10.0, 1.0), (3.0, 2.0), (1.0, 0.5)):
        p = bc.QueueParameters(lam, bc.power_function(c))
        lo, up = bc.sathe_interval(lam, p.service.mean, 1.0 / (c * (c + 2.0)))
        assert bc.class_lower_bound("power", p) == pytest.approx(lo, rel=1e-12)
        assert bc.class_upper_bound("power", p) == pytest.approx(up, rel=1e-12)


def test_class_bounds_refuse_untagged_distributions():
    pw = bc.QueueParameters(2.0, bc.power_function(1.0))
    with pytest.raises(ClassViolationError):
        bc.class_lower_bound("M/NWUE", pw)
    with pytest.raises(ClassViolationError):
        bc.class_upper_bound("M/NBUE", pw)
    # caller assertion opens the gate
    val = bc.class_lower_bound("M/NWUE", pw, assume_tags={"NWUE"})
    assert val > 0
    # power bounds refuse non-power members; uniform01 additionally needs c=1
    pe = bc.QueueParameters(2.0, bc.exponential(0.5))
    with pytest.raises(ClassViolationError):
        bc.class_lower_bound("power", pe)
    with pytest.raises(ClassViolationError):
        bc.class_upper_bound("uniform01", pe)
    pc2 = bc.QueueParameters(1.0, bc.power_function(2.0))
    with pytest.raises(ClassViolationError):
        bc.class_lower_bound("uniform01", pc2)


def test_imrl_requires_third_moment():
    p = bc.QueueParameters(1.0, bc.deterministic(1.0))
    with pytest.raises(UnsupportedMomentError):
        bc.class_lower_bound("IMRL", p, assume_tags={"IMRL"})
    # mu2 = 2e160: mu2^2 overflows, so the report leaves the IMRL row out
    huge = bc.QueueParameters(1e-80, bc.exponential(1e80))
    with pytest.raises(UnsupportedMomentError, match=r"mu2\^2 leaves the float range"):
        bc.class_lower_bound("imrl", huge)
    report = bc.build_report(huge)
    assert [kind for kind, _ in report.lower_bounds] == ["sathe", "universal",
                                                         "m-nwue", "dfr"]


def test_unknown_class_names_rejected():
    p = bc.QueueParameters(2.0, bc.exponential(0.5))
    with pytest.raises(DomainError):
        bc.class_lower_bound("NBU", p)
    with pytest.raises(DomainError):
        bc.class_upper_bound("DFR", p)


def test_gap_ratio_examples():
    # exponential, lam = 2: published ratio reproduced from the bound pair
    p = bc.QueueParameters(2.0, bc.exponential(0.5))
    lo = bc.class_lower_bound("M/NWUE", p)
    up = bc.class_upper_bound("M/NBUE", p)
    assert bc.gap_ratio(lo, up, 1.1589510757272) == pytest.approx(
        0.024818024516, rel=1e-9
    )
    # power, lam = 10, with the reference value the published ratio used
    pw = bc.QueueParameters(10.0, bc.power_function(1.0))
    lo = bc.class_lower_bound("power", pw)
    up = bc.class_upper_bound("power", pw)
    assert bc.gap_ratio(lo, up, 17.272158) == pytest.approx(0.25071787, rel=1e-6)
    assert bc.gap_ratio(1.0, 1.0, 2.0) == 0.0
    with pytest.raises(DomainError):
        bc.gap_ratio(1.0, 0.5, 1.0)
    with pytest.raises(DomainError):
        bc.gap_ratio(0.5, 1.0, 0.0)
    # finite bounds and reference whose ratio overflows once returned inf
    for lower, upper, reference in ((0.0, 1e308, 5e-324), (-1e308, 1e308, 1.0)):
        with pytest.raises(DomainError, match="overflows the float range"):
            bc.gap_ratio(lower, upper, reference)
    assert bc.gap_ratio(-2.0, -1.0, 4.0) == 0.25  # bounds of either sign


def test_build_report_exponential_all_classes():
    p = bc.QueueParameters(1.0, bc.exponential(1.0))
    ref = bc.beta_c(p).beta_c
    rep = bc.build_report(p, reference=ref)
    lower_labels = [l for l, _ in rep.lower_bounds]
    upper_labels = [l for l, _ in rep.upper_bounds]
    assert lower_labels == ["sathe", "universal", "m-nwue", "dfr", "imrl"]
    assert upper_labels == ["sathe", "m-nbue"]
    lo, up = rep.tightest
    assert lo <= ref <= up
    assert rep.consistent
    assert rep.gap_ratio == pytest.approx((up - lo) / ref, rel=1e-14)
    # sathe floor doubles as the universal floor
    vals = dict(rep.lower_bounds)
    assert vals["sathe"] == vals["universal"]


def test_build_report_power_has_dual_labels():
    p = bc.QueueParameters(2.0, bc.power_function(1.0))
    rep = bc.build_report(p)
    vals_lo = dict(rep.lower_bounds)
    vals_up = dict(rep.upper_bounds)
    assert vals_lo["power"] == vals_lo["uniform01"]
    assert vals_up["power"] == vals_up["uniform01"]
    assert rep.consistent
    assert rep.gap_ratio is None


@pytest.mark.parametrize("dist,lower,upper", [
    (bc.uniform01(),
     ["sathe", "universal", "m-nwue", "dfr", "power", "uniform01"],
     ["sathe", "power", "uniform01", "m-nbue"]),
    (bc.exponential(1.0),
     ["sathe", "universal", "m-nwue", "dfr", "imrl"],
     ["sathe", "m-nbue"]),
])
def test_build_report_label_order_with_every_tag_asserted(dist, lower, upper):
    p = bc.QueueParameters(2.0, dist)
    rep = bc.build_report(p, assume_tags={"NBUE", "NWUE", "DFR", "IMRL"})
    assert [l for l, _ in rep.lower_bounds] == lower
    assert [l for l, _ in rep.upper_bounds] == upper


def test_build_report_untagged_member_gets_only_distribution_free_rows():
    p = bc.QueueParameters(1.0, bc.special_b(1.0, 1.0))
    rep = bc.build_report(p)
    assert [l for l, _ in rep.lower_bounds] == ["sathe", "universal"]
    assert [l for l, _ in rep.upper_bounds] == ["sathe"]


def test_build_report_with_no_bound_at_all_is_an_error():
    # both reports were tightest = (-inf, inf), "consistent"
    untagged = bc.make_distribution(lambda t: -np.expm1(-np.maximum(t, 0.0)), mean=1.0,
                                    name="untagged")
    for dist in (bc.deterministic(0.0), untagged):
        with pytest.raises(UnsupportedMomentError, match=f"^{re.escape(dist.name)}: "
                           f".*, so no distribution-free bound applies"):
            bc.build_report(bc.QueueParameters(2.0, dist))


def test_tag_sets_are_read_one_way_everywhere():
    # None and 5 were bare TypeErrors; "NWUE" was read as its letters, and
    # an unknown tag was silently ignored by the bounds
    untagged = bc.make_distribution(lambda t: -np.expm1(-t), 1.0)
    p = bc.QueueParameters(2.0, untagged)
    floor = bc.class_lower_bound("m-nwue", bc.QueueParameters(2.0, bc.exponential(1.0)))
    calls = {
        "make_distribution": lambda tags: bc.make_distribution(
            lambda t: -np.expm1(-t), 1.0, class_tags=tags).class_tags,
        "class_lower_bound": lambda tags: bc.class_lower_bound(
            "m-nwue", p, assume_tags=tags),
        "class_upper_bound": lambda tags: bc.class_upper_bound(
            "m-nbue", p, assume_tags=tags),
        "build_report": lambda tags: dict(bc.build_report(
            p, assume_tags=tags).lower_bounds).get("m-nwue"),
    }
    for call in calls.values():
        for tags in (None, 5, "NWUE", {"FOO"}, {"nwue"}, ["NWUE", 3]):
            with pytest.raises(DomainError):
                call(tags)
    assert calls["make_distribution"]({"NWUE"}) == frozenset({"NWUE"})
    assert calls["class_lower_bound"]({"NWUE"}) == floor
    with pytest.raises(ClassViolationError):  # NWUE does not make a law NBUE
        calls["class_upper_bound"]({"NWUE"})
    assert calls["build_report"]({"NWUE"}) == floor
    # unknown names of mixed types are sorted by repr, not a bare TypeError
    with pytest.raises(DomainError, match=r"unknown class tags: \['BAR', 'FOO', 3\]"):
        bc.class_lower_bound("m-nwue", p, assume_tags=["FOO", 3, "NWUE", "BAR"])


def test_sandwich_spot_checks():
    # bounds never consult beta_c, so this is a genuine cross-check
    for rho in (0.1, 0.5, 1.0, 2.0, 5.0):
        cases = [
            bc.QueueParameters(rho, bc.exponential(1.0)),
            bc.QueueParameters(rho, bc.deterministic(1.0)),
            bc.QueueParameters(1.0, bc.special_a(1.0, rho)),
            bc.QueueParameters(1.0, bc.special_b(1.0, rho)),
            bc.QueueParameters(2.0 * rho, bc.power_function(1.0)),
        ]
        for params in cases:
            ref = bc.beta_c(params).beta_c
            rep = bc.build_report(params, reference=ref)
            lo, up = rep.tightest
            slack = 1e-10 * ref
            assert lo - slack <= ref <= up + slack, (params.service.name, rho)


def test_power_scv_is_never_negative_so_near_deterministic_laws_bound(capsys):
    # (m2 - mean^2) / mean^2 cancels: from c ~ 2.1e8 the power law's SCV,
    # truly 1 / (c (c + 2)), once rounded below 0 (-1.1e-16 at c = 3e8), and
    # bounds and compare exited 2 on "scv must be >= 0"
    assert min(bc.power_function(c).scv for c in np.logspace(-8, 12, 4001)) >= 0.0
    for c in (1e8, 3e8, 1e12):
        queue = ["--lambda", "1", "--dist", '{"type":"power","c":%r}' % c]
        assert cli.main(["bounds", *queue]) == 0, c
        assert capsys.readouterr().out.endswith("consistent        yes\n"), c
        assert cli.main(["compare", *queue, "--cycles", "1000"]) == 0, c
        assert capsys.readouterr().out.endswith("sandwich            PASS\n"), c
