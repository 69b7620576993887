"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Criteria 1 and 2 check the engines against oracles the tests compute from
scipy special functions (Ei for the exponential law, erfi for the power
law, elementary closed forms otherwise), and the published table digits
against the registry in ``busycycle/data/paper_cells.json``.  A cell the
registry marks PASS must reproduce its published digits at the stated
tolerance; an APPROX or ERRATUM cell must show the disagreement the
registry records, and each erratum's replacement must equal the oracle at
its printed 8 digits.  The misprints stay named in the printed summary.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import special

import busycycle as bc
from busycycle import tables
from busycycle.simulator import _accumulate


def _z_second_moment_alt(params):
    """The rejected reading of E[Z^2]: the cycle integral scaled by e^rho
    once instead of twice, 2 E[Z] (beta e^-rho + 1/lam)."""
    m = bc.beta_c(params)
    return 2.0 * m.e_z * (m.beta * math.exp(-params.traffic_intensity)
                          + 1.0 / params.arrival_rate)


# one line per criterion; conftest echoes these in the terminal summary
CRITERION_LINES: list = []


def _report(name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  {detail}" if detail else "")
    CRITERION_LINES.append(line)
    print(line)


def _rel(a, b):
    return abs(a - b) / abs(b)


def _member(row, lam, alpha):
    if row == "exponential":
        return bc.QueueParameters(lam, bc.exponential(alpha))
    if row == "constant":
        return bc.QueueParameters(lam, bc.deterministic(alpha))
    if row == "special_a":
        return bc.QueueParameters(lam, bc.special_a(lam, lam * alpha))
    if row == "special_b":
        return bc.QueueParameters(lam, bc.special_b(lam, lam * alpha))
    if row == "power":
        return bc.QueueParameters(lam, bc.power_function(1.0))
    raise AssertionError(row)


# the oracles agree with 50-digit evaluation to ~1e-15 and the engines
# agree with the oracles to a few 1e-13 on every table cell
ORACLE_TOL = 1e-10


def _oracle_beta_c(row, lam, alpha):
    """beta_c from scipy special functions, independent of the engines."""
    rho = lam * alpha
    if row == "exponential":
        # beta = alpha S(rho) with S(rho) = Ei(rho) - gamma - ln(rho)
        beta = alpha * (special.expi(rho) - np.euler_gamma - math.log(rho))
    elif row == "constant":
        beta = (math.exp(rho) - 1.0 - rho) / lam
    elif row == "special_a":
        beta = (math.exp(rho) - 1.0) / lam
    elif row == "special_b":
        beta = (math.exp(rho) + math.exp(-rho) - 2.0) / lam
    elif row == "power":
        # uniform service on [0, 1]: beta = int_0^1 e^(rho u^2) du - 1
        x = math.sqrt(rho)
        beta = 0.5 * math.sqrt(math.pi) * special.erfi(x) / x - 1.0
    else:
        raise AssertionError(row)
    return float(beta) + 1.0 / lam


def _registered_beta_c_cells():
    """Registry cells of tables 1 and 2, keyed by (table, row, lam, alpha)."""
    return {
        (c.table, c.distribution, c.arrival_rate, c.mean_service): c
        for which in (1, 2) for c in tables.compute_table(which)
    }


# --------------------------------------------------------------------------
# criterion 1: golden cells reproduce the published digits at 1e-6, or
# show the disagreement the registry records for them
# --------------------------------------------------------------------------

GOLDEN_CELLS = [
    # (table, row, lam, alpha, published, tolerance)
    (1, "constant", 1.0, 0.5, 1.1487213, 1e-6),
    (1, "constant", 1.0, 1.0, 1.7182818, 1e-6),
    (1, "constant", 1.0, 5.0, 143.41316, 1e-6),
    (1, "constant", 1.0, 10.0, 22016.466, 1e-6),
    (1, "constant", 1.0, 50.0, 5.1847055e21, 1e-6),
    (1, "special_a", 1.0, 0.5, 1.6487213, 1e-6),
    (1, "special_a", 1.0, 1.0, 2.7182818, 1e-6),
    (1, "special_a", 1.0, 5.0, 148.41316, 1e-6),
    (1, "special_a", 1.0, 10.0, 22026.466, 1e-6),
    (1, "special_a", 1.0, 50.0, 5.1847055e21, 1e-6),
    (1, "special_b", 1.0, 0.5, 1.2552519, 1e-6),
    (1, "special_b", 1.0, 1.0, 2.0861613, 1e-6),
    (1, "special_b", 1.0, 5.0, 147.41990, 1e-6),
    (1, "special_b", 1.0, 10.0, 22025.466, 1e-6),
    (1, "special_b", 1.0, 50.0, 5.1847055e21, 1e-6),
    (1, "exponential", 1.0, 0.5, 1.2850757, 1e-6),
    (1, "exponential", 1.0, 1.0, 2.3178568, 1e-6),
    (2, "constant", 2.0, 0.5, 0.85914091, 1e-6),
    (2, "constant", 10.0, 0.5, 14.341316, 1e-6),
    (2, "constant", 20.0, 0.5, 1100.8233, 1e-6),
    (2, "constant", 100.0, 0.5, 5.1847055e19, 1e-6),
    (2, "special_a", 2.0, 0.5, 1.3591409, 1e-6),
    (2, "special_a", 10.0, 0.5, 14.841316, 1e-6),
    (2, "special_a", 20.0, 0.5, 1101.3233, 1e-6),
    (2, "special_a", 100.0, 0.5, 5.1847055e19, 1e-6),
    (2, "special_b", 2.0, 0.5, 1.0430806, 1e-6),
    (2, "special_b", 10.0, 0.5, 14.741990, 1e-6),
    (2, "special_b", 20.0, 0.5, 1101.2733, 1e-6),
    (2, "special_b", 100.0, 0.5, 5.1847055e19, 1e-6),
    (2, "exponential", 2.0, 0.5, 1.1589511, 1e-6),
    (2, "exponential", 10.0, 0.5, 19.099311, 1e-6),
    (2, "exponential", 20.0, 0.5, 1244.7304, 1e-6),
    (2, "power", 2.0, 0.5, 1.9626517, 1e-6),
    (2, "power", 10.0, 0.5, 17.272158, 1e-6),
    # series-engine cell at the highest intensity, tighter tolerance
    (1, "exponential", 1.0, 50.0, 5.2920661e21, 1e-7),
]

def _check_golden_cell(cell, got, registry):
    """Failure message for one golden cell, or None when every check holds.

    The engine must match the oracle.  A cell the registry marks PASS must
    reproduce its published digits at the stated tolerance; any other cell
    must show exactly the disagreement the registry records.
    """
    table, row, lam, alpha, published, tol = cell
    name = f"table{table} {row} lam={lam:g} alpha={alpha:g}"
    oracle = _oracle_beta_c(row, lam, alpha)
    if _rel(got, oracle) > ORACLE_TOL:
        return (f"{name}: computed {got!r} vs oracle {oracle!r} "
                f"(rel {_rel(got, oracle):.2e} > {ORACLE_TOL:g})")
    entry = registry.get((table, row, lam, alpha))
    if entry is None:
        return f"{name}: no such beta_c cell in the registry"
    expected = entry.expected_status
    if expected == "PASS":
        rel = _rel(published, got)
        if rel > tol:
            return (f"{name}: published {published:.8g} vs computed {got:.8g} "
                    f"(rel {rel:.2e} > {tol:g}), registered PASS")
        return None
    status = tables.classify(published, got)
    if status != expected:
        return (f"{name}: published {published:.8g} vs computed {got:.8g} "
                f"classifies as {status}, registered {expected}")
    if row == "power" and _rel(published, got + 1.0) > 1e-7:
        return (f"{name}: published {published:.8g} is not computed + 1 "
                f"= {got + 1.0:.8g}")
    return None


def test_criterion_1_golden_cells():
    t0 = time.perf_counter()
    computed = [
        bc.beta_c(_member(row, lam, alpha), "closed-form").beta_c
        for _, row, lam, alpha, _, _ in GOLDEN_CELLS
    ]
    elapsed = time.perf_counter() - t0

    registry = _registered_beta_c_cells()
    failures = []
    confirmed = {"PASS": 0, "APPROX": 0, "ERRATUM": 0}
    for cell, got in zip(GOLDEN_CELLS, computed):
        failure = _check_golden_cell(cell, got, registry)
        if failure:
            failures.append(failure)
        else:
            confirmed[registry[cell[:4]].expected_status] += 1
    ok = not failures and elapsed < 1.0
    _report("criterion 1: golden table cells at stated tolerance", ok,
            f"{confirmed['PASS']}/{len(GOLDEN_CELLS)} reproduce at stated "
            f"tolerance; {confirmed['APPROX']} APPROX and "
            f"{confirmed['ERRATUM']} ERRATUM source cells confirmed against "
            f"the oracle; {elapsed:.2f}s")
    assert elapsed < 1.0
    assert not failures, (
        f"{len(failures)} golden cell(s) failed:\n  " + "\n  ".join(failures)
    )


# --------------------------------------------------------------------------
# criterion 2: errata registry cells match their replacements at 1e-3
# --------------------------------------------------------------------------

# every beta_c cell of tables 1-2 whose published digits are inconsistent
ERRATA_CELLS = [
    (1, "exponential", 1.0, 5.0),
    (1, "exponential", 1.0, 10.0),
    (2, "exponential", 100.0, 0.5),
    (2, "power", 2.0, 0.5),
    (2, "power", 10.0, 0.5),
    (2, "power", 20.0, 0.5),
]


def _check_erratum(key, registry):
    """Failure message for one erratum cell, or None when every check holds."""
    table, row, lam, alpha = key
    name = f"table{table} {row} lam={lam:g} alpha={alpha:g}"
    cell = registry.get(key)
    if cell is None:
        return f"{name}: no such beta_c cell in the registry"
    if not cell.status == cell.expected_status == "ERRATUM":
        return (f"{name}: classified {cell.status}, registered "
                f"{cell.expected_status}; both must be ERRATUM")
    if cell.replacement is None:
        return f"{name}: registry gives no replacement"
    rel = _rel(cell.replacement, cell.computed)
    if rel > 1e-3:
        return (f"{name}: replacement {cell.replacement:.8g} vs computed "
                f"{cell.computed:.8g} (rel {rel:.2e} > 1e-3)")
    oracle = _oracle_beta_c(row, lam, alpha)
    if _rel(cell.computed, oracle) > ORACLE_TOL:
        return (f"{name}: computed {cell.computed!r} vs oracle {oracle!r} "
                f"(rel {_rel(cell.computed, oracle):.2e} > {ORACLE_TOL:g})")
    if float(f"{oracle:.8g}") != cell.replacement:
        return (f"{name}: replacement {cell.replacement:.8g} vs oracle "
                f"{oracle:.8g} at 8 digits")
    return None


def test_criterion_2_errata_detection():
    registry = _registered_beta_c_cells()
    failures = [msg for msg in (_check_erratum(key, registry)
                                for key in ERRATA_CELLS) if msg]
    confirmed = len(ERRATA_CELLS) - len(failures)
    failures += [f"registered ERRATUM {key} is not in ERRATA_CELLS"
                 for key, cell in registry.items()
                 if cell.expected_status == "ERRATUM"
                 and key not in ERRATA_CELLS]
    ok = not failures
    _report("criterion 2: errata cells match replacements at 1e-3", ok,
            f"{confirmed}/{len(ERRATA_CELLS)} "
            "registered errata flagged; replacements within 1e-3 of the "
            "computed cell and equal to the oracle at 8 digits")
    assert not failures, (
        f"{len(failures)} errata check(s) failed:\n  " + "\n  ".join(failures)
    )


# --------------------------------------------------------------------------
# criterion 3: bound-gap ratios
# --------------------------------------------------------------------------

def test_criterion_3_gap_ratios():
    checks = []

    def exp_ratio(lam, reference):
        p = bc.QueueParameters(lam, bc.exponential(0.5))
        lo = bc.class_lower_bound("m-nwue", p)
        up = bc.class_upper_bound("m-nbue", p)
        return bc.gap_ratio(lo, up, reference)

    def pow_ratio(lam, reference):
        p = bc.QueueParameters(lam, bc.power_function(1.0))
        lo = bc.class_lower_bound("power", p)
        up = bc.class_upper_bound("power", p)
        return bc.gap_ratio(lo, up, reference)

    def beta_c_of(row, lam):
        return bc.beta_c(_member(row, lam, 0.5)).beta_c

    # exponential lam 2/10/20 against the published ratios, computed reference
    for lam, published in ((2.0, 0.024818024), (10.0, 0.62565866),
                           (20.0, 0.87899084)):
        got = exp_ratio(lam, beta_c_of("exponential", lam))
        checks.append((f"exponential lam={lam:g}", got, published))
        assert got == pytest.approx(published, rel=1e-3)

    # exponential lam=100: the published ratio is reproduced only with the
    # erroneous published reference value; both ratios are reported
    p100_paper_ref = 5.9392749e19
    with_paper = exp_ratio(100.0, p100_paper_ref)
    with_computed = exp_ratio(100.0, beta_c_of("exponential", 100.0))
    checks.append(("exponential lam=100 (published ref)", with_paper, 0.87295261))
    checks.append(("exponential lam=100 (computed ref)", with_computed, 0.9798))
    assert with_paper == pytest.approx(0.87295261, rel=1e-3)
    assert with_computed == pytest.approx(0.9798, rel=1e-3)

    # power lam 2/10: published ratios used the unit-offset reference values
    # (computed + 1); reproduced with those references and reported both ways
    for lam, published, paper_ref in ((2.0, 0.018536302, 1.9626517),
                                      (10.0, 0.25071787, 17.272158)):
        with_paper = pow_ratio(lam, paper_ref)
        computed_ref = beta_c_of("power", lam)
        assert paper_ref == pytest.approx(computed_ref + 1.0, rel=1e-7)
        checks.append((f"power lam={lam:g} (published ref)", with_paper, published))
        assert with_paper == pytest.approx(published, rel=1e-3)

    # power lam=100: the unit offset is invisible at this magnitude and the
    # published ratio matches the computed reference directly
    got = pow_ratio(100.0, beta_c_of("power", 100.0))
    checks.append(("power lam=100", got, 0.32992972))
    assert got == pytest.approx(0.32992972, rel=1e-3)

    worst = max(_rel(a, b) for _, a, b in checks)
    _report("criterion 3: bound-gap ratios at 1e-3", True,
            f"{len(checks)} ratios, worst rel {worst:.2e}")


# --------------------------------------------------------------------------
# criterion 4: closed form vs quadrature across the grid
# --------------------------------------------------------------------------

def test_criterion_4_closed_form_vs_quadrature():
    t0 = time.perf_counter()
    worst = 0.0
    for rho in (0.1, 0.5, 1.0, 2.0, 5.0):
        members = [
            _member("exponential", rho, 1.0),
            _member("constant", rho, 1.0),
            _member("special_a", 1.0, rho),
            _member("special_b", 1.0, rho),
            _member("power", 2.0 * rho, 0.5),
        ]
        for params in members:
            cf = bc.beta_c(params, "closed-form").beta_c
            qd = bc.beta_c(params, "quadrature", quad_tol=1e-10).beta_c
            worst = max(worst, _rel(cf, qd))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    _report("criterion 4: closed form vs quadrature at 1e-8", ok,
            f"25 configurations, worst rel {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-8
    assert elapsed < 10.0


# --------------------------------------------------------------------------
# criterion 5: simulation oracle across the catalog
# --------------------------------------------------------------------------

def test_criterion_5_simulation_oracle():
    # uniform01 is the power member at c=1 (identical law), so the power row
    # covers it; the five distinct catalog shapes run at each intensity
    t0 = time.perf_counter()
    n = 1_000_000
    rows = []
    for j, rho in enumerate((0.25, 0.5, 1.0, 2.0)):
        members = [
            _member("exponential", rho, 1.0),
            _member("constant", rho, 1.0),
            _member("special_a", 1.0, rho),
            _member("special_b", 1.0, rho),
            _member("power", 2.0 * rho, 0.5),
        ]
        for i, params in enumerate(members):
            analytic = bc.beta_c(params).beta_c
            est = bc.estimate_beta_c(params, n, seed=41000 + 10 * j + i)
            err = abs(est.beta_c_hat - analytic)
            allowed = max(3.0 * est.std_error, 0.005 * analytic)
            rows.append((params.service.name, rho, err, allowed))
            assert err <= allowed, (
                f"{params.service.name} rho={rho}: |{est.beta_c_hat:.6f} - "
                f"{analytic:.6f}| = {err:.2e} > {allowed:.2e}"
            )
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120.0
    _report("criterion 5: simulation oracle (20 runs of 1e6 cycles)", ok,
            f"{elapsed:.1f}s, all within max(3 SE, 0.5%)")
    assert elapsed < 120.0


# --------------------------------------------------------------------------
# criterion 6: sandwich suite
# --------------------------------------------------------------------------

def test_criterion_6_sandwich():
    violations = []
    count = 0

    def check(params, rho):
        nonlocal count
        count += 1
        ref = bc.beta_c(params).beta_c
        rep = bc.build_report(params, reference=ref)
        lo, up = rep.tightest
        slack = 1e-10 * abs(ref)
        if not (lo - slack <= ref <= up + slack) or not rep.consistent:
            violations.append((params.service.name, rho, lo, ref, up))

    for rho in (0.1, 0.5, 1.0, 2.0, 5.0):
        check(_member("exponential", rho, 1.0), rho)
        check(_member("constant", rho, 1.0), rho)
        check(_member("special_a", 1.0, rho), rho)
        check(_member("special_b", 1.0, rho), rho)
        check(_member("power", 2.0 * rho, 0.5), rho)
    for rho in (10.0,):
        check(_member("exponential", rho, 1.0), rho)
        check(_member("constant", rho, 1.0), rho)
        check(_member("power", 2.0 * rho, 0.5), rho)

    _report("criterion 6: bounds sandwich the computed value", not violations,
            f"{count} configurations, {len(violations)} violations")
    assert not violations, violations


# --------------------------------------------------------------------------
# criterion 7: property suite
# --------------------------------------------------------------------------

def test_criterion_7_properties():
    # scale covariance at 1e-10
    for k in (0.5, 2.0, 10.0):
        for params in (
            _member("exponential", 1.0, 1.0),
            _member("constant", 1.0, 1.0),
            _member("special_a", 1.0, 1.0),
            _member("special_b", 1.0, 1.0),
            _member("power", 2.0, 0.5),
        ):
            ref = bc.beta_c(params).beta_c
            scaled = bc.QueueParameters(
                params.arrival_rate / k, bc.scale(params.service, k))
            strategy = ("quadrature"
                        if scaled.service.spec["type"] == "scaled" else "auto")
            got = bc.beta_c(scaled, strategy, quad_tol=1e-12).beta_c
            assert got == pytest.approx(k * ref, rel=1e-10), \
                (params.service.name, k)

    # constant-service collapse: beta_c = E[Z] - alpha
    for rho in (0.1, 1.0, 5.0):
        m = bc.beta_c(_member("constant", rho, 1.0))
        assert m.beta_c == pytest.approx(m.e_z - 1.0, rel=1e-10)

    # first logistic member: mean rho/lam and beta_c = E[Z]
    for rho in (0.5, 2.0):
        params = _member("special_a", 1.0, rho)
        assert params.service.mean == pytest.approx(rho, rel=1e-15)
        assert bc.integrated_tail(params.service, 200.0) == pytest.approx(
            rho, rel=1e-8)
        m = bc.beta_c(params)
        assert m.beta_c == pytest.approx(m.e_z, rel=1e-12)

    # second logistic member: beta_c = (e^rho + e^-rho - 1)/lam, both routes
    for lam, rho in ((1.0, 0.5), (2.0, 1.0), (1.0, 5.0)):
        params = bc.QueueParameters(lam, bc.special_b(lam, rho))
        target = (math.exp(rho) + math.exp(-rho) - 1.0) / lam
        assert bc.beta_c(params, "closed-form").beta_c == pytest.approx(
            target, rel=1e-12)
        assert bc.beta_quadrature(params, tol=1e-10)[0] + 1 / lam == pytest.approx(
            target, rel=1e-8)

    # reliability-class reductions onto the M/NWUE floor at 1e-12
    for lam, alpha in ((1.0, 1.0), (2.0, 0.5), (10.0, 0.5)):
        p = bc.QueueParameters(lam, bc.exponential(alpha))
        nwue = bc.class_lower_bound("m-nwue", p)
        assert bc.class_lower_bound("dfr", p) == pytest.approx(nwue, rel=1e-12)
        assert bc.class_lower_bound("imrl", p) == pytest.approx(nwue, rel=1e-12)

    # classifier consistency
    for rho in (0.25, 1.0, 2.0, 5.0):
        for params in (
            _member("exponential", rho, 1.0),
            _member("constant", rho, 1.0),
            _member("special_a", 1.0, rho),
            _member("special_b", 1.0, rho),
            _member("power", 2.0 * rho, 0.5),
        ):
            verdict = bc.proposition1(rho, params.service.scv)
            m = bc.beta_c(params)
            if verdict is bc.Comparison.BELOW_EZ:
                assert m.beta_c <= m.e_z * (1 + 1e-9)
            elif verdict is bc.Comparison.ABOVE_EZ:
                assert m.beta_c >= m.e_z * (1 - 1e-9)

    # threshold ordering 2/rho >= rho/(e^rho - 1 - rho), limit 2/3 at 0
    for rho in (1e-6, 1e-3, 0.1, 1.0, 10.0, 50.0):
        defect = sum_defect = rho * rho / 2.0
        k = 2
        while True:
            k += 1
            defect *= rho / k
            sum_defect += defect
            if defect < 1e-25 * sum_defect:
                break
        assert 2.0 / rho >= rho / sum_defect
        if rho == 1e-6:
            assert abs((2.0 / rho - rho / sum_defect) - 2.0 / 3.0) <= 1e-4

    _report("criterion 7: property suite", True,
            "scaling, collapses, closed identities, reductions, classifier")


# --------------------------------------------------------------------------
# criterion 8: deterministic CLI simulation output
# --------------------------------------------------------------------------

def test_criterion_8_byte_identical_simulation():
    argv = [sys.executable, "-m", "busycycle.cli", "simulate",
            "--lambda", "2", "--dist", '{"type":"exponential","mean":0.5}',
            "--cycles", "50000", "--seed", "424242", "--reps", "2"]
    r1 = subprocess.run(argv, capture_output=True, check=True)
    r2 = subprocess.run(argv, capture_output=True, check=True)
    ok = r1.stdout == r2.stdout and len(r1.stdout) > 0
    _report("criterion 8: byte-identical simulate output", ok,
            f"{len(r1.stdout)} bytes")
    assert ok


# --------------------------------------------------------------------------
# criterion 9: simulated second moment arbitrates the formula reading
# --------------------------------------------------------------------------

def test_criterion_9_second_moment_arbitration():
    params = bc.QueueParameters(2.0, bc.exponential(0.5))
    candidate_consistent = bc.beta_c(params).z_second_moment  # 2 E[Z] beta_c
    candidate_alt = _z_second_moment_alt(params)            # single busy scale
    assert candidate_consistent == pytest.approx(3.15035564922232, rel=1e-10)
    assert candidate_alt == pytest.approx(2.01809198995672, rel=1e-10)

    n = 10_000_000
    sums = _accumulate(params, n, seed=2026, replication=0)
    m2 = sums[1] / n
    m4 = sums[3] / n
    se = math.sqrt(max(m4 - m2 * m2, 0.0) / n)

    d_consistent = abs(m2 - candidate_consistent) / se
    d_alt = abs(m2 - candidate_alt) / se

    print("second-moment arbitration report (exponential, lam=2, alpha=0.5,")
    print(f"  {n} cycles): simulated E[Z^2] = {m2:.7f}  (SE {se:.2e})")
    print(f"  candidate 2*E[Z]*beta_c      = {candidate_consistent:.7f}"
          f"  -> {d_consistent:6.2f} SE away")
    print(f"  candidate with single e^rho  = {candidate_alt:.7f}"
          f"  -> {d_alt:6.2f} SE away")
    print("  verdict: the data matches 2*E[Z]*beta_c; the other reading "
          "drops one factor of e^rho from the cycle-integral term")

    ok = d_consistent <= 3.0 and d_alt >= 5.0
    _report("criterion 9: simulated E[Z^2] matches 2 E[Z] beta_c", ok,
            f"{d_consistent:.2f} SE vs {d_alt:.1f} SE")
    assert d_consistent <= 3.0
    assert d_alt >= 5.0
