"""Reference-table registry: statuses, replacements, and cross-table logic."""

import math

import mpmath
import pytest

import busycycle as bc
from busycycle import analytics, tables
from busycycle.errors import DomainError


@pytest.fixture(scope="module")
def all_cells():
    return {w: tables.compute_table(w) for w in (1, 2, 3)}


def _cell(cells, which, row, lam, alpha):
    for c in cells[which]:
        if (c.distribution == row and c.arrival_rate == lam
                and c.mean_service == alpha):
            return c
    raise AssertionError(f"cell not found: t{which} {row} {lam} {alpha}")


def test_registry_loads_and_covers_all_tables():
    reg = tables.load_registry()
    assert set(reg) >= {"table1", "table2", "table3"}
    assert len(reg["table1"]["rows"]) == 4
    assert len(reg["table2"]["rows"]) == 5
    assert len(reg["table3"]["rows"]) == 2


def test_every_cell_status_matches_registry_expectation(all_cells):
    for which, cells in all_cells.items():
        for c in cells:
            assert c.status == c.expected_status, (
                f"table {which} {c.distribution} lam={c.arrival_rate} "
                f"alpha={c.mean_service}: computed status {c.status}, "
                f"registry expects {c.expected_status} (rel {c.rel_delta:.3g})"
            )


def test_classify_thresholds():
    assert tables.classify(1.0000005, 1.0) == "PASS"
    assert tables.classify(1.0005, 1.0) == "APPROX"
    assert tables.classify(1.01, 1.0) == "ERRATUM"


def test_registered_errata_are_never_pass(all_cells):
    # the four cross-table inconsistent beta_c cells
    expected_errata = [
        (1, "exponential", 1.0, 5.0),
        (1, "exponential", 1.0, 10.0),
        (2, "exponential", 100.0, 0.5),
        (2, "power", 20.0, 0.5),
    ]
    for which, row, lam, alpha in expected_errata:
        c = _cell(all_cells, which, row, lam, alpha)
        assert c.status == "ERRATUM"
        assert c.replacement is not None
        assert c.computed == pytest.approx(c.replacement, rel=1e-6)


def test_erratum_replacements_follow_cross_table_derivations(all_cells):
    # table1 exponential alpha=5 must be 10x the table2 lam=10 cell
    t1 = _cell(all_cells, 1, "exponential", 1.0, 5.0)
    t2 = _cell(all_cells, 2, "exponential", 10.0, 0.5)
    assert t1.computed == pytest.approx(10.0 * t2.computed, rel=1e-10)
    # table2 exponential lam=100 must be table1 alpha=50 over 100
    t2b = _cell(all_cells, 2, "exponential", 100.0, 0.5)
    t1b = _cell(all_cells, 1, "exponential", 1.0, 50.0)
    assert t2b.computed == pytest.approx(t1b.computed / 100.0, rel=1e-10)


def test_power_row_unit_offset_structure(all_cells):
    # the published power cells at lam 2 and 10 sit exactly one unit above
    # the computed values; at lam=20 additionally the leading digit was lost
    for lam in (2.0, 10.0):
        c = _cell(all_cells, 2, "power", lam, 0.5)
        assert c.paper_value == pytest.approx(c.computed + 1.0, rel=1e-7)
    c20 = _cell(all_cells, 2, "power", 20.0, 0.5)
    assert c20.paper_value + 1000.0 == pytest.approx(c20.computed + 1.0, rel=1e-7)
    # and the power value at lam=2 violates the distribution-free ceiling
    up = bc.sathe_interval(2.0, 0.5, 1.0 / 3.0)[1]
    assert _cell(all_cells, 2, "power", 2.0, 0.5).paper_value > up


def test_table3_reports_ratio_with_published_reference(all_cells):
    c = _cell(all_cells, 3, "exponential", 100.0, 0.5)
    assert c.status == "ERRATUM"
    assert c.ratio_with_paper_reference == pytest.approx(0.87295261, rel=1e-6)
    assert c.computed == pytest.approx(0.97957366, rel=1e-6)
    for lam, published in ((2.0, 0.018536302), (10.0, 0.25071787)):
        c = _cell(all_cells, 3, "power", lam, 0.5)
        assert c.ratio_with_paper_reference == pytest.approx(published, rel=1e-6)
    # the lam=20 power ratio matches no derivable reference
    c = _cell(all_cells, 3, "power", 20.0, 0.5)
    assert c.ratio_with_paper_reference is None
    assert c.status == "ERRATUM"


def test_table3_pass_cells(all_cells):
    assert _cell(all_cells, 3, "exponential", 2.0, 0.5).status == "PASS"
    assert _cell(all_cells, 3, "exponential", 10.0, 0.5).status == "PASS"
    assert _cell(all_cells, 3, "power", 100.0, 0.5).status == "PASS"
    assert _cell(all_cells, 3, "exponential", 20.0, 0.5).status == "APPROX"


def test_golden_rows_all_pass(all_cells):
    for row in ("constant", "special_a", "special_b"):
        for c in all_cells[1] + all_cells[2]:
            if c.distribution == row:
                assert c.status == "PASS", (row, c.arrival_rate, c.mean_service)


def test_series_cells_match_mpmath(all_cells):
    # beta_c = 1/lam + alpha S(lam alpha) for the exponential rows, and
    # 1/lam + 1F1(1/2; 3/2; lam/2) - 1 for the power row (c = 1), in
    # 40-digit arithmetic; the series once stopped at 1e-10 of the sum
    worst = 0.0
    with mpmath.workdps(40):
        for c in all_cells[1] + all_cells[2]:
            lam, alpha = mpmath.mpf(c.arrival_rate), mpmath.mpf(c.mean_service)
            if c.distribution == "exponential":
                rho = lam * alpha
                beta = alpha * rho * mpmath.hyp2f2(1, 1, 2, 2, rho)
            elif c.distribution == "power":
                beta = mpmath.hyp1f1(0.5, 1.5, lam / 2) - 1
            else:
                continue
            exact = 1 / lam + beta
            worst = max(worst, float(abs(c.computed - exact) / exact))
    assert worst <= 1e-14


def test_compute_table_rejects_bad_number():
    # a float or bool once ended in a bare KeyError ('table1.0')
    for which in (4, 1.0, 2.0, True, "1"):
        with pytest.raises(DomainError, match=f"got {which!r}$"):
            tables.compute_table(which)


def test_unknown_table_row_is_a_domain_error(monkeypatch):
    reg = tables.load_registry()
    reg["table1"]["rows"]["gamma"] = reg["table1"]["rows"]["exponential"]
    monkeypatch.setattr(tables, "load_registry", lambda: reg)
    with pytest.raises(DomainError, match="unknown table row 'gamma'"):
        tables.compute_table(1)


def test_table_command_exit_3_when_registry_expectation_flips(monkeypatch, capsys):
    # a cell whose status deviates from the shipped registry must fail CI
    from busycycle.cli import main
    reg = tables.load_registry()
    reg["table1"]["rows"]["constant"]["expected_status"][0] = "ERRATUM"
    monkeypatch.setattr(tables, "load_registry", lambda: reg)
    code = main(["table", "--which", "1"])
    err = capsys.readouterr().err
    assert code == 3
    assert "UNEXPECTED STATUS" in err


def test_cells_expose_consistent_rho(all_cells):
    for cells in all_cells.values():
        for c in cells:
            assert c.rho == pytest.approx(c.arrival_rate * c.mean_service, rel=1e-15)
            assert math.isfinite(c.computed)


# ---------------------------------------------------------------------------
# engine values are computed once per process; annotations on every call
# ---------------------------------------------------------------------------

def test_warm_tables_call_no_engine(monkeypatch):
    warm = {w: tables.compute_table(w) for w in (1, 2, 3)}
    calls = []
    original = analytics.beta_c

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(analytics, "beta_c", spy)
    for w in (1, 2, 3):
        assert tables.compute_table(w) == warm[w]
    assert calls == []


def test_changing_a_returned_table_leaves_the_next_call(all_cells):
    first = tables.compute_table(2)
    assert first is not tables.compute_table(2)
    first.clear()
    assert tables.compute_table(2) == all_cells[2]
    assert tables.load_registry() is not tables.load_registry()


def test_flipped_expectation_exits_3_with_table_1_cached(monkeypatch, capsys):
    from busycycle.cli import main
    tables.compute_table(1)
    reg = tables.load_registry()
    reg["table1"]["rows"]["special_b"]["expected_status"][2] = "APPROX"
    monkeypatch.setattr(tables, "load_registry", lambda: reg)
    assert main(["table", "--which", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("UNEXPECTED STATUS: special_b ")
    assert err.endswith("expected APPROX, got PASS\n") and err.count("\n") == 1


def test_a_new_paper_reference_gets_its_own_ratio(monkeypatch, all_cells):
    # formed with the authoritative beta_c of table 2, the ratio with the
    # published reference is the authoritative ratio
    beta_c = _cell(all_cells, 2, "exponential", 100.0, 0.5).computed
    authoritative = _cell(all_cells, 3, "exponential", 100.0, 0.5)
    assert authoritative.ratio_with_paper_reference != pytest.approx(
        authoritative.computed, rel=1e-3)
    reg = tables.load_registry()
    row = reg["table3"]["rows"]["exponential"]
    i = reg["table3"]["columns"].index(100.0)
    row["paper_reference"][i] = beta_c
    monkeypatch.setattr(tables, "load_registry", lambda: reg)
    cell = _cell({3: tables.compute_table(3)}, 3, "exponential", 100.0, 0.5)
    assert cell.paper_reference == beta_c
    assert cell.ratio_with_paper_reference == pytest.approx(cell.computed, rel=1e-12)
    assert cell.computed == authoritative.computed
