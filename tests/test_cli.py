"""CLI surface: golden output, exit codes, config files, determinism."""

import json

import pytest

from busycycle.cli import main

EXP_HALF = '{"type":"exponential","mean":0.5}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_metrics_golden_exponential(capsys):
    code, out, _ = run_cli(capsys, "metrics", "--lambda", "2", "--dist", EXP_HALF)
    assert code == 0
    lines = dict(
        (ln.split(None, 1)[0], ln.split(None, 1)[1].strip())
        for ln in out.strip().splitlines()
    )
    assert lines["beta_c"] == "1.1589511"
    assert lines["E[Z]"] == "1.3591409"
    assert lines["E[B]"] == "0.85914091"
    assert lines["beta"] == "0.65895108"
    assert lines["E[Z^2]"] == "3.1503556"
    assert lines["method"] == "series"


def test_metrics_prints_computed_value_for_drifted_cell(capsys):
    # the published table prints 2.3178568 here; the engines are
    # authoritative and the CLI reports the series value
    code, out, _ = run_cli(capsys, "metrics", "--lambda", "1",
                           "--dist", '{"type":"exponential","mean":1}')
    assert code == 0
    assert "beta_c          2.3179022" in out


def test_metrics_special_a_equals_mean_cycle(capsys):
    code, out, _ = run_cli(
        capsys, "metrics", "--lambda", "1",
        "--dist", '{"type":"special_a","rho":0.5}',
    )
    assert code == 0
    assert "beta_c          1.6487213" in out
    assert "E[Z]            1.6487213" in out


def test_metrics_rho_zero_escape(capsys):
    code, out, _ = run_cli(capsys, "metrics", "--lambda", "2", "--rho", "0")
    assert code == 0
    assert "beta_c          0.5" in out
    assert "E[Z^2]          0.5" in out


def test_metrics_rejects_nonzero_rho_escape(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "metrics", "--lambda", "2", "--rho", "0.5")
    assert exc.value.code == 2


def test_metrics_rejects_zero_mean_deterministic(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "metrics", "--lambda", "2",
                "--dist", '{"type":"deterministic","mean":0}')
    assert exc.value.code == 2


def test_usage_errors_exit_2(capsys):
    for argv in (
        ["metrics", "--lambda", "2", "--dist", "{not json"],
        ["metrics", "--dist", EXP_HALF],           # missing lambda
        ["metrics", "--lambda", "2"],              # missing dist and rho
        ["metrics", "--lambda", "2", "--dist", '{"type":"weibull"}'],
        ["table"],                                  # missing --which
        ["metrics", "--lambda", "2", "--dist", "[1]"],
        ["metrics", "--lambda", "2", "--dist",
         '{"type":"exponential","mean":Infinity}'],
        ["metrics", "--lambda", "2", "--dist", '{"type":"exponential","mean":null}'],
        ["metrics", "--lambda", "2", "--dist", '{"type":"power","c":[2]}'],
        ["metrics", "--lambda", "2", "--dist", '{"type":"deterministic","mean":null}'],
        ["metrics", "--lambda", "2", "--dist", '{"type":"deterministic","mean":"abc"}'],
        ["metrics", "--lambda", "1", "--dist", '{"type":"exponential","mean":800}'],
        ["bounds", "--lambda", "1", "--dist", '{"type":"deterministic","mean":710}'],
        ["metrics", "--lambda", "1", "--dist", '{"type":"special_a","rho":800}'],
        ["metrics", "--lambda", "1", "--dist", '{"type":"exponential","mean":true}'],
    ):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, *argv)
        assert exc.value.code == 2, argv
    capsys.readouterr()
    # typed engine errors: one "error:" line on stderr, nothing on stdout
    for argv in (
        ["metrics", "--lambda", "1", "--dist", '{"type":"exponential","mean":700}'],
        ["metrics", "--lambda", "1", "--dist", '{"type":"uniform01"}',
         "--tol-series", "0"],
        ["metrics", "--lambda", "1", "--dist", '{"type":"power","c":2}',
         "--tol-series", "nan"],
        ["metrics", "--lambda", "1e-200", "--rho", "0"],  # E[Z^2] = 2e400
        # rho = 709.5 is in range, but e^rho / lambda overflows every bound
        ["bounds", "--lambda", "0.5", "--dist", '{"type":"exponential","mean":1419}',
         "--no-reference"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv


def test_metrics_json_format(capsys):
    code, out, _ = run_cli(capsys, "metrics", "--lambda", "2",
                           "--dist", EXP_HALF, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["beta_c"] == "1.1589511"


def test_bounds_command(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--lambda", "2", "--dist", EXP_HALF)
    assert code == 0
    assert "lower[m-nwue]     1.1508076" in out
    assert "upper[m-nbue]     1.1795705" in out
    assert "gap_ratio" in out
    assert "consistent        yes" in out


def test_bounds_assume_tags(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--lambda", "2",
        "--dist", '{"type":"uniform01"}', "--assume-tags", "NBUE",
    )
    assert code == 0
    assert "lower[power]" in out
    assert "upper[m-nbue]" in out


def test_table_commands_exit_zero_with_errata(capsys):
    for which in ("1", "2", "3"):
        code, out, _ = run_cli(capsys, "table", "--which", which)
        assert code == 0
        assert "status" in out
    # table 2 lists the power errata explicitly
    code, out, _ = run_cli(capsys, "table", "--which", "2")
    assert "ERRATUM" in out
    assert "errata (computed value is authoritative):" in out


def test_table_csv_golden_lines(capsys):
    code, out, _ = run_cli(capsys, "table", "--which", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("distribution,lambda,alpha,rho,quantity,"
                        "paper_value,computed,rel_delta,status")
    assert lines[1] == ("exponential,1,0.5,0.5,beta_c,1.2850757,"
                        "1.2850757,7.98e-09,PASS")
    assert lines[2].startswith("exponential,1,1,1,beta_c,2.3178568,2.3179022,")
    assert lines[2].endswith("APPROX")


def test_table_json_is_machine_readable(capsys):
    code, out, _ = run_cli(capsys, "table", "--which", "3", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    by_key = {(r["distribution"], r["lambda"]): r for r in rows}
    assert by_key[("power", 100.0)]["status"] == "PASS"
    cell = by_key[("exponential", 100.0)]
    assert cell["status"] == "ERRATUM"
    assert cell["ratio_with_paper_reference"] == pytest.approx(0.87295261, rel=1e-6)
    assert "replacement" in cell


def test_simulate_output_is_deterministic(capsys):
    argv = ["simulate", "--lambda", "2", "--dist", EXP_HALF,
            "--cycles", "20000", "--seed", "99"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "beta_c_hat" in out1


def test_simulate_high_rho_warns_and_caps(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--lambda", "1",
        "--dist", '{"type":"exponential","mean":5}', "--seed", "1",
    )
    assert code == 0
    assert "warning" in err
    cycles_line = [ln for ln in out.splitlines() if ln.startswith("cycles")][0]
    assert cycles_line.split()[-1] == "10000"


def test_simulate_refuses_runaway_work(capsys):
    # 1000 cycles at rho = 30 expect about 1e16 arrivals: refused before
    # any draw, after the high-rho warning
    code, out, err = run_cli(capsys, "simulate", "--lambda", "1", "--dist",
                             '{"type":"exponential","mean":30}', "--cycles", "1000")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].startswith("error: ")


def test_compare_exponential(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--lambda", "2", "--dist", EXP_HALF,
        "--cycles", "100000", "--seed", "3",
    )
    assert code == 0
    assert "beta_c_analytic     1.1589511" in out
    assert "analytic_inside_ci  yes" in out
    assert "sandwich            PASS" in out
    assert "position_vs_EZ      below-EZ" in out


def test_compare_power_sandwich_uses_computed_value(capsys):
    # bounds (0.9425, 0.9789) must contain the computed 0.96265175
    code, out, _ = run_cli(
        capsys, "compare", "--lambda", "2", "--dist", '{"type":"uniform01"}',
        "--cycles", "50000", "--seed", "5",
    )
    assert code == 0
    assert "beta_c_analytic     0.96265175" in out
    assert "sandwich            PASS" in out


def test_compare_constant_service_interval_collapses(capsys):
    # zero scv: the distribution-free interval degenerates to the exact value
    code, out, _ = run_cli(
        capsys, "compare", "--lambda", "1",
        "--dist", '{"type":"deterministic","mean":0.5}',
        "--cycles", "50000", "--seed", "4",
    )
    assert code == 0
    assert "beta_c_analytic     1.1487213" in out
    assert "tightest            [1.1487213, 1.1487213]" in out
    assert "sandwich            PASS" in out


def test_config_file_defaults_and_flag_priority(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "lambda": 2.0,
        "dist": {"type": "exponential", "mean": 0.5},
    }))
    code, out, _ = run_cli(capsys, "metrics", "--config", str(cfg))
    assert code == 0
    assert "beta_c          1.1589511" in out
    # an explicit flag beats the config value: lambda 1 with the config's
    # mean-0.5 service gives rho = 0.5
    code, out, _ = run_cli(capsys, "metrics", "--config", str(cfg),
                           "--lambda", "1")
    assert code == 0
    assert "beta_c          1.2850757" in out
    assert "rho             0.5" in out


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "metrics", "--config", str(bad))
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "metrics", "--config", str(tmp_path / "missing.json"))
    assert exc.value.code == 2


def test_config_numbers_as_json_strings(tmp_path, capsys):
    cfg = tmp_path / "strings.json"
    cfg.write_text(json.dumps({
        "lambda": "2",
        "dist": {"type": "exponential", "mean": 0.5},
        "cycles": "1000",
        "seed": "4",
    }))
    code, out, _ = run_cli(capsys, "metrics", "--config", str(cfg))
    assert code == 0
    assert "beta_c          1.1589511" in out
    code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg),
                           "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[:6] == ["key,value", "lambda,2", "rho,1", "cycles,1000",
                         "replications,1", "seed,4"]


POWER_BOUNDS = [
    ("lambda", "1"),
    ("rho", "0.71428571"),
    ("lower[sathe]", "1.3511171"),
    ("lower[universal]", "1.3511171"),
    ("lower[power]", "1.3511171"),
    ("upper[sathe]", "1.3576361"),
    ("upper[power]", "1.3576361"),
    ("tightest", "[1.3511171, 1.3576361]"),
    ("reference_beta_c", "1.353772"),
    ("gap_ratio", "0.0048154712"),
    ("consistent", "yes"),
]

UNIFORM_SIMULATE = [
    ("lambda", "3"),
    ("rho", "1.5"),
    ("cycles", "2000"),
    ("replications", "1"),
    ("seed", "7"),
    ("beta_c_hat", "1.1784593"),
    ("std_error", "0.02968804"),
    ("ci95", "[1.1202718, 1.2366468]"),
    ("E[Z]_hat", "1.4940576"),
    ("E[Z^2]_hat", "3.5213724"),
    ("per_replication", "1.1784593"),
]

EXPONENTIAL_COMPARE = [
    ("lambda", "1"),
    ("rho", "0.5"),
    ("beta_c_analytic", "1.2850757"),
    ("method", "series"),
    ("beta_c_simulated", "1.3279741"),
    ("std_error", "0.032219051"),
    ("ci95", "[1.2648259, 1.3911223]"),
    ("analytic_inside_ci", "yes"),
    ("lower[sathe]", "1.2737213"),
    ("lower[universal]", "1.2737213"),
    ("lower[m-nwue]", "1.2841379"),
    ("lower[dfr]", "1.2841379"),
    ("lower[imrl]", "1.2841379"),
    ("upper[sathe]", "1.2974425"),
    ("upper[m-nbue]", "1.2871803"),
    ("tightest", "[1.2841379, 1.2871803]"),
    ("gap_ratio", "0.0023674716"),
    ("position_vs_EZ", "below-EZ"),
    ("sandwich", "PASS"),
]


@pytest.mark.parametrize("argv,pairs", [
    (["bounds", "--lambda", "1", "--dist", '{"type":"power","c":2.5}'],
     POWER_BOUNDS),
    (["simulate", "--lambda", "3", "--dist", '{"type":"uniform01"}',
      "--cycles", "2000", "--seed", "7"], UNIFORM_SIMULATE),
    (["compare", "--lambda", "1", "--dist", '{"type":"exponential","mean":0.5}',
      "--cycles", "2000", "--seed", "7"], EXPONENTIAL_COMPARE),
])
def test_record_commands_exact_csv_and_json(capsys, argv, pairs):
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out == "key,value\n" + "".join(f"{k},{v}\n" for k, v in pairs)
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    body = ",\n".join(f'  "{k}": "{v}"' for k, v in pairs)
    assert out == "{\n" + body + "\n}\n"


def test_table_plain_header_and_reference_row(capsys):
    code, out, _ = run_cli(capsys, "table", "--which", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "table 3 (bound gap ratios)"
    assert lines[1] == ("distribution   lambda   alpha    rho    paper_value"
                        "       computed  rel_delta status")
    assert lines[6] == ("exponential       100     0.5     50     0.87295261"
                        "     0.97957366      0.109 ERRATUM")
    assert lines[7] == (" " * 42 + "with published reference     0.87295261")
