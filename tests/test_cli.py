"""CLI surface: golden output, exit codes, config files, determinism."""

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import busycycle.cli
from busycycle.cli import main

EXP_HALF = '{"type":"exponential","mean":0.5}'
DEEP = "[" * 5000 + "]" * 5000  # JSON nested past the recursion limit


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_captured(argv):
    """(exit code, stdout, stderr) of one call; usage errors included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


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


IDLE_ONLY = '{"type":"deterministic","mean":0}'


def test_metrics_rho_zero_escape(capsys):
    # the idle-only limit rho = 0 is the zero-mean deterministic law
    code, out, _ = run_cli(capsys, "metrics", "--lambda", "2", "--dist", IDLE_ONLY)
    assert code == 0
    assert "beta_c          0.5" in out
    assert "E[Z^2]          0.5" in out


def test_metrics_has_no_rho_option(capsys):
    for rho in ("0", "0.5"):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "metrics", "--lambda", "2", "--rho", rho)
        assert exc.value.code == 2


def test_zero_mean_law_runs_metrics_and_simulate_but_has_no_bounds(capsys):
    for command in ("metrics", "simulate"):
        code, out, _ = run_cli(capsys, command, "--lambda", "2", "--dist", IDLE_ONLY,
                               *(["--cycles", "1000"] if command == "simulate" else []))
        assert code == 0 and "rho" in out and not NOT_FINITE.search(out), command
    # no SCV, so no distribution-free bound: both refuse, with one message
    errors = set()
    for command in ("bounds", "compare"):
        code, out, err = run_cli(capsys, command, "--lambda", "2", "--dist", IDLE_ONLY)
        assert (code, out) == (2, ""), command
        errors.add(err)
    assert errors == {"error: deterministic(mean=0) has no SCV, so no "
                      "distribution-free bound applies\n"}


def test_usage_errors_exit_2(capsys):
    for argv in (
        ["metrics", "--lambda", "2", "--dist", "{not json"],
        ["metrics", "--dist", EXP_HALF],           # missing lambda
        ["metrics", "--lambda", "2"],              # missing dist
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
        # moments outside the float range
        ["metrics", "--lambda", "1e300", "--dist", '{"type":"special_a","rho":1}'],
        ["metrics", "--lambda", "1e-300", "--dist", '{"type":"special_b","rho":1}'],
        ["metrics", "--lambda", "1e-300", "--dist",
         '{"type":"exponential","mean":1e300}'],
        ["metrics", "--lambda", "1", "--dist", '{"type":"special_a","rho":800}'],
        ["metrics", "--lambda", "1", "--dist", '{"type":"exponential","mean":true}'],
        # a key the type does not read
        ["metrics", "--lambda", "2", "--dist", '{"type":"power","c":2,"mean":5}'],
        # an integer too large for a float
        ["metrics", "--lambda", "1", "--dist",
         '{"type":"exponential","mean":1%s}' % ("0" * 400)],
        # nesting too deep to parse: as the spec, in a value and in the type
        ["bounds", "--lambda", "1", "--dist", DEEP],
        ["bounds", "--lambda", "1", "--dist", '{"type":"exponential","mean":%s}' % DEEP],
        ["bounds", "--lambda", "1", "--dist", '{"type":%s,"mean":1}' % DEEP],
    ):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, *argv)
        assert exc.value.code == 2, argv
    capsys.readouterr()
    # typed engine errors: one "error:" line on stderr, nothing on stdout
    for argv in (
        ["metrics", "--lambda", "1", "--dist", '{"type":"exponential","mean":700}'],
        ["metrics", "--lambda", "1e-200", "--dist", IDLE_ONLY],  # E[Z^2] = 2e400
        # rho = 709.5 is in range, but e^rho / lambda overflows every bound
        ["bounds", "--lambda", "0.5", "--dist", '{"type":"exponential","mean":1419}',
         "--no-reference"],
        ["bounds", "--lambda", "1", "--dist", '{"type":"power","c":1e-300}'],
        ["metrics", "--lambda", "50", "--dist", '{"type":"special_b","rho":709.7}',
         "--strategy", "quadrature"],
        # cycle lengths whose powers leave the float range
        ["simulate", "--lambda", "1e-300", "--dist", '{"type":"uniform01"}',
         "--cycles", "1000"],
        # the idle periods' E[I^4] leaves the float range before any draw
        ["simulate", "--lambda", "1e-306", "--dist", '{"type":"uniform01"}',
         "--cycles", "1000"],
        ["simulate", "--lambda", "1e200", "--dist",
         '{"type":"deterministic","mean":1e-200}', "--cycles", "1000"],
        # cycle counts too large for a float
        *([command, "--lambda", "1", "--dist", '{"type":"exponential","mean":0.5}',
           flag, "1" + "0" * 400]
          for command in ("simulate", "compare") for flag in ("--cycles", "--reps")),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv


def test_closed_form_power_series_answers_past_rho_six(capsys):
    # the alternating k-sum once gave beta = -1.5e29 at the first, then
    # exited 2 at both as cancellation-limited; the series prints the beta_c
    # quadrature prints
    for lam, c, expected in (("71.07629936490926", "3.1622776601683795",
                              "3.9827375e+21"), ("242", "0.1", "38164278")):
        lines = {}
        for strategy in ("closed-form", "quadrature"):
            code, out, err = run_cli(capsys, "metrics", "--lambda", lam, "--dist",
                                     '{"type":"power","c":%s}' % c,
                                     "--strategy", strategy)
            assert (code, err) == (0, ""), (lam, c, strategy)
            lines[strategy] = dict(ln.split(None, 1) for ln in out.splitlines())
        assert lines["closed-form"]["method"] == "series"
        assert lines["closed-form"]["beta_c"] == lines["quadrature"]["beta_c"] \
            == expected


def test_long_dist_specs_are_cut_in_the_usage_error():
    # both once echoed the whole spec: 1961 and 5184 bytes on stderr
    nested = "[" * 900 + "]" * 900
    for spec, tail in (
        ('{"type":"exponential","mean":%s}' % nested, "… has a non-numeric 'mean'"),
        ('{"type":"exponential","mean":1,"k":"%s"}' % ("x" * 5000),
         "…: type 'exponential' does not read 'k'"),
    ):
        code, out, err = run_captured(["bounds", "--lambda", "1", "--dist", spec])
        assert (code, out) == (2, "")
        usage, error = err.splitlines()
        assert usage.startswith("usage: ") and err.count("\n") == 2
        assert error.startswith("busycycle: error: distribution spec {'type': ")
        assert error.endswith(tail)
        assert len(err.encode()) < 400


def test_tolerances_are_checked_whatever_the_strategy(capsys):
    # --tol-quad nan and 0 once passed under auto, which never ran quadrature
    queue = ["--lambda", "1", "--dist", '{"type":"exponential","mean":1}']
    for flags, message in (
        (["--tol-quad", "nan"], "quad_tol must be finite and positive, got nan"),
        (["--tol-quad", "0"], "quad_tol must be finite and positive, got 0.0"),
    ):
        assert run_cli(capsys, "metrics", *queue, *flags) == (
            2, "", f"error: {message}\n"), flags


def test_series_tolerance_is_not_an_option(tmp_path):
    # both series are summed to float resolution: --tol-series is a usage
    # error, and a tol_series config key is ignored like any key the
    # command lacks
    queue = ["--lambda", "2", "--dist", EXP_HALF]
    code, out, err = run_captured(["metrics", *queue, "--tol-series", "1e-12"])
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --tol-series 1e-12" in err
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"tol_series": 1e-12}))
    assert run_captured(["metrics", "--config", str(cfg), *queue]) == \
        run_captured(["metrics", *queue])


def test_subnormal_rho_series_ends_in_the_moments_overflow(capsys):
    # rho near 1e-320: the stopping test "term < tol/4 * total" never held once
    # its right side underflowed, so 200 000 terms (170 ms) ended in an
    # AccuracyError
    code, out, err = run_cli(capsys, "metrics", "--lambda", "1e-300", "--dist",
                             '{"type":"exponential","mean":1e-20}',
                             "--strategy", "closed-form")
    assert (code, out) == (2, "")
    assert err.startswith("error: rho = ") and err.endswith(
        ", lambda = 1e-300: the busy-cycle moments overflow the float range\n")


def test_compare_where_e_rho_minus_1_minus_rho_underflows(capsys):
    # proposition1 divided by e^rho - 1 - rho = 0 at rho = 1e-20
    code, out, _ = run_cli(capsys, "compare", "--lambda", "1e-8", "--dist",
                           '{"type":"power","c":1e-12}', "--cycles", "1000")
    assert code == 0
    assert "position_vs_EZ      below-EZ" in out


def test_quadrature_overflow_exits_2_without_float_warnings():
    # a fresh interpreter, so numpy's once-per-site warnings would show
    argv = ["metrics", "--lambda", "0.5", "--dist",
            '{"type":"special_a","rho":709.7}', "--strategy", "quadrature"]
    proc = subprocess.run([sys.executable, "-m", "busycycle.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "beta overflows the float range" in proc.stderr
    assert "Warning" not in proc.stderr


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_closed_stdout_ends_with_status_141_and_no_traceback(unbuffered,
                                                               monkeypatch):
    # stdout is a pipe whose read end is closed before the command starts:
    # buffered, the failed flush at exit once printed "Exception ignored"
    # and exited 120; unbuffered, the first print raised a traceback
    if unbuffered:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    else:
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    for argv in (["metrics", "--lambda", "2", "--dist", EXP_HALF],
                 ["table", "--which", "1"]):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "busycycle.cli", *argv],
                stdout=write, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write)
        assert proc.returncode == 141, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr


@pytest.mark.parametrize("unbuffered", [False, True])
def test_help_on_a_closed_stdout_ends_with_status_141(unbuffered, monkeypatch):
    # argparse drops the error of its own write: unbuffered, help on a
    # closed stdout once exited 0 as if it had been read
    if unbuffered:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    else:
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    for argv in (["--help"], ["simulate", "--help"]):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "busycycle.cli", *argv],
                stdout=write, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write)
        assert proc.returncode == 141, (argv, proc.stderr)
        assert proc.stderr == ""


def test_in_process_help_and_usage_errors_print_as_before(capsys):
    # help still goes to stdout and exits 0; a usage error's message still
    # goes through argparse to stderr and exits 2
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: busycycle [-h]")
    assert "Busy-cycle age/excess mean values" in out and err == ""
    with pytest.raises(SystemExit) as info:
        main(["table", "--which", "4"])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: busycycle table")
    assert "invalid choice: 4" in err


def test_in_process_main_lets_a_broken_pipe_through(monkeypatch):
    # only the command turns a closed stdout into status 141; a caller of
    # main sees the error its stream raised
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", Closed())
    with pytest.raises(BrokenPipeError):
        main(["metrics", "--lambda", "2", "--dist", EXP_HALF])
    with pytest.raises(BrokenPipeError):  # help too, as any output
        main(["--help"])


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


def test_bounds_rejects_unknown_assume_tags(capsys):
    # a misspelt tag used to be dropped, and with it the m-nbue bound
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "bounds", "--lambda", "2", "--dist", '{"type":"uniform01"}',
                "--assume-tags", "NBEU")
    assert exc.value.code == 2
    assert "unknown class tags: ['NBEU']" in capsys.readouterr().err


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


JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                | st.floats(allow_nan=True, allow_infinity=True) | st.text())
JSON_RECORDS = st.dictionaries(st.text(), JSON_SCALARS, max_size=8)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(value=JSON_RECORDS | st.lists(JSON_RECORDS, max_size=4))
@example(value={"quote \" back\\slash": "tab\tnl\nnul\x00 é 漢 😀  ",
                "none": None, "yes": True, "no": False, "int": -10**30,
                "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
                "-0": -0.0, "tiny": 5e-324})
@example(value={})
@example(value=[{}, {"a": 1}, {}])
def test_json_text_is_json_dumps_with_indent_2(value):
    # the commands' JSON goes through the C encoder, byte for byte as the
    # pure-Python one that json.dumps runs with an indent
    assert busycycle.cli._json_text(value) == json.dumps(value, indent=2)


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
    assert "defaulting to 10000 cycles" in err
    cycles_line = [ln for ln in out.splitlines() if ln.startswith("cycles")][0]
    assert cycles_line.split()[-1] == "10000"


def test_simulate_cycles_zero_is_refused_without_claiming_the_default(capsys):
    # an explicit --cycles is never replaced by the high-rho default
    code, out, err = run_cli(capsys, "simulate", "--lambda", "1", "--dist",
                             '{"type":"exponential","mean":5}', "--cycles", "0")
    assert (code, out) == (2, "")
    assert "warning" in err
    assert "defaulting" not in err
    assert err.splitlines()[-1].startswith("error: ")


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
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"lambda": "\xff"}')
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "metrics", "--config", str(not_utf8))
    assert exc.value.code == 2
    # nesting too deep to parse, as the file and in a value
    for name, text in (("deep.json", "[" * 100_000 + "]" * 100_000),
                       ("deep_dist.json", '{"lambda": 1, "dist": %s}' % DEEP)):
        (tmp_path / name).write_text(text)
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "bounds", "--config", str(tmp_path / name))
        assert exc.value.code == 2, name
    capsys.readouterr()


def test_config_value_too_deep_to_encode_is_a_usage_error(tmp_path, monkeypatch):
    # a config value becomes its flag's JSON text; encoding may hit the
    # recursion limit where decoding did not
    def too_deep(value):
        raise RecursionError("maximum recursion depth exceeded")

    cfg = tmp_path / "run.json"
    cfg.write_text('{"dist": {"type": "exponential", "mean": 1}}')
    monkeypatch.setattr(json, "dumps", too_deep)
    code, out, err = run_captured(["bounds", "--config", str(cfg), "--lambda", "1"])
    assert (code, out) == (2, "")
    assert err.endswith("error: config key 'dist' is nested too deeply\n")


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


UNIFORM = {"type": "uniform01"}
EXP_HALF_SPEC = {"type": "exponential", "mean": 0.5}


@pytest.mark.parametrize("command,cfg,flags", [
    ("bounds", {"lambda": 2, "dist": UNIFORM, "assume_tags": ["NBUE"]},
     ["--assume-tags", '["NBUE"]']),
    ("bounds", {"lambda": 2, "dist": UNIFORM, "assume_tags": "NBUE"},
     ["--assume-tags", "NBUE"]),
    ("bounds", {"lambda": 2, "dist": EXP_HALF_SPEC, "no_reference": True},
     ["--no-reference"]),
    ("bounds", {"lambda": 2, "dist": EXP_HALF_SPEC, "no_reference": False}, []),
    ("bounds", {"lambda": 2, "dist": EXP_HALF_SPEC, "no_reference": "false"}, None),
    ("metrics", {"lambda": True, "dist": EXP_HALF_SPEC}, ["--lambda", "true"]),
    ("metrics", {"lambda": 2, "dist": EXP_HALF_SPEC, "format": "xml"},
     ["--format", "xml"]),
    ("metrics", {"lambda": 2, "dist": EXP_HALF_SPEC, "tol_quad": 1e-12},
     ["--tol-quad", "1e-12"]),
    ("simulate", {"lambda": 2, "dist": EXP_HALF_SPEC, "cycles": 1000.5},
     ["--cycles", "1000.5"]),
    ("simulate", {"lambda": 2, "dist": EXP_HALF_SPEC, "cycles": 1000.0},
     ["--cycles", "1000.0"]),
])
def test_config_keys_read_as_their_flags(tmp_path, command, cfg, flags):
    # the same checks as the flags: an answer or exit 2, never a traceback
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_captured([command, "--config", str(path)])
    assert code in (0, 2)
    if flags is not None:
        queue = ["--lambda", "2", "--dist", json.dumps(cfg["dist"])]
        assert run_captured([command, *queue, *flags])[:2] == (code, out)


def test_config_values_do_not_outlive_their_call(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"lambda": 1, "format": "json"}))
    code, out, _ = run_cli(capsys, "metrics", "--config", str(cfg),
                           "--dist", EXP_HALF)
    assert code == 0 and json.loads(out)["beta_c"] == "1.2850757"
    code, out, _ = run_cli(capsys, "metrics", "--lambda", "2", "--dist", EXP_HALF)
    assert code == 0
    assert "beta_c          1.1589511" in out


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

# The simulated values below are what the unwindowed round loop of
# tests/test_simulator.py (gaps from Philox key (7, 0), services from its
# jumped() stream) and the delta method give, to 8 significant digits.
UNIFORM_SIMULATE = [
    ("lambda", "3"),
    ("rho", "1.5"),
    ("cycles", "2000"),
    ("replications", "1"),
    ("seed", "7"),
    ("beta_c_hat", "1.1718074"),
    ("std_error", "0.028464365"),
    ("ci95", "[1.1160183, 1.2275965]"),
    ("E[Z]_hat", "1.4838312"),
    ("E[Z^2]_hat", "3.4775288"),
    ("per_replication", "1.1718074"),
]

EXPONENTIAL_COMPARE = [
    ("lambda", "1"),
    ("rho", "0.5"),
    ("beta_c_analytic", "1.2850757"),
    ("method", "series"),
    ("beta_c_simulated", "1.2918063"),
    ("std_error", "0.027333978"),
    ("ci95", "[1.2382326, 1.3453799]"),
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


# ---------------------------------------------------------------------------
# fuzz: any argv ends in a finite answer, a typed error or a drifted table
# ---------------------------------------------------------------------------

FUZZ_VALUES = [0, -1, 1e-300, 1e-12, 1e-6, 0.3, 1, 2.5, 7, 30, 120, 700, 709.7,
               710, 1e6, 1e300, "1", "x", None, True, [1], {}]
FUZZ_LAMBDAS = ["1e-300", "1e-8", "0.5", "1", "3", "50", "1e6", "1e300", "0", "-2"]
# the parameter each type reads; uniform01 reads none, weibull is unknown
FUZZ_TYPES = {"exponential": "mean", "deterministic": "mean", "special_a": "rho",
              "special_b": "rho", "power": "c", "uniform01": "c",
              "weibull": "shape"}
NOT_FINITE = re.compile(r"(?i)\b(nan|inf|infinity)\b")


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(["metrics", "bounds", "simulate", "table",
                                    "compare"]))
    argv = [command, "--format", draw(st.sampled_from(["plain", "csv", "json"]))]
    if command == "table":
        return argv + ["--which", draw(st.sampled_from(["1", "2", "3"]))]
    kind = draw(st.sampled_from(sorted(FUZZ_TYPES)))
    spec = {"type": kind, FUZZ_TYPES[kind]: draw(st.sampled_from(FUZZ_VALUES))}
    argv += ["--lambda", draw(st.sampled_from(FUZZ_LAMBDAS)),
             "--dist", json.dumps(spec)]
    if command == "metrics":
        argv += ["--strategy", draw(st.sampled_from(
            ["auto", "closed-form", "quadrature"]))]
        argv += ["--tol-quad", draw(st.sampled_from(["1e-12", "1e-9", "1e-3",
                                                     "0", "nan"]))]
    elif command == "bounds":
        argv += ["--assume-tags", draw(st.sampled_from(
            ["", "NBUE", "NWUE,DFR", "IMRL", "SHINY"]))]
        if draw(st.booleans()):
            argv.append("--no-reference")
    else:
        argv += ["--cycles", draw(st.sampled_from(["1000", "2000"])),
                 "--seed", draw(st.sampled_from(["0", "7"])),
                 "--reps", draw(st.sampled_from(["1", "2"]))]
    return argv


@settings(max_examples=300, derandomize=True, deadline=None)
@given(argv=fuzz_argv())
def test_fuzzed_argv_exit_0_2_or_3_with_finite_stdout(argv):
    code, out, err = run_captured(argv)
    assert code in (0, 2, 3), argv
    assert "Traceback" not in out + err, argv
    assert not NOT_FINITE.search(out), (argv, out)


def _config_value(text):
    """A flag's text as a config value: its JSON reading where it has one."""
    try:
        return json.loads(text)
    except ValueError:
        return text


@settings(max_examples=100, derandomize=True, deadline=None)
@given(argv=fuzz_argv(), move=st.lists(st.booleans(), min_size=6, max_size=6))
@example(argv=["bounds", "--format", "plain", "--lambda", "2", "--dist", EXP_HALF,
               "--assume-tags", "", "--no-reference"],
         move=[False, False, False, False, True, False])
def test_fuzzed_options_moved_to_a_config_file_print_the_same(argv, move):
    command, options, i = argv[0], [], 1
    while i < len(argv):  # (flag, text), or (switch, None)
        switch = argv[i] == "--no-reference"
        options.append((argv[i], None if switch else argv[i + 1]))
        i += 1 if switch else 2
    moved = [opt for opt, m in zip(options, move) if m]
    cfg = {flag[2:].replace("-", "_"):
           True if text is None else _config_value(text) for flag, text in moved}
    kept = [tok for opt in options if opt not in moved
            for tok in opt if tok is not None]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "run.json")
        path.write_text(json.dumps(cfg))
        via_config = run_captured([command, "--config", str(path), *kept])
    assert via_config[:2] == run_captured(argv)[:2], (argv, cfg)


def test_benchmark_traced_entry_points_exist(monkeypatch, capsys):
    # the benchmark's tracer wraps these names from outside the package, so
    # a deleted or renamed one must fail here rather than in a benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    for mod, attr, _make in spans._wrappers(tracer):
        assert callable(getattr(mod, attr, None)), f"{mod.__name__}.{attr}"
    tracer.install()
    try:
        code = busycycle.cli.main(["metrics", "--lambda", "2", "--dist", EXP_HALF])
    finally:
        tracer.restore()
    assert code == 0
    assert tracer.verify_restored() == []
    assert {"cli", "analytics.beta_c", "analytics.series"} <= {
        span[1] for span in tracer.spans}
    assert busycycle.cli.main is main


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

COMMANDS = ["metrics", "bounds", "simulate", "table", "compare"]
USAGE_PATHS = [
    *([command, "-h"] for command in COMMANDS),
    ["metrics", "--lambda"],                         # a missing value
    ["table", "--which"],
    ["metrics", "--lambda", "2", "--dist", EXP_HALF, "--format", "xml"],
    ["table", "--which", "4"],
    ["metrics", "--lambda", "2", "--dist", EXP_HALF, "--strategy", "foo"],
    ["bounds", "--lambda", "2", "--dist", EXP_HALF, "extra"],
    ["metrics", "--lambda", "2", "--dist", EXP_HALF, "--bogus"],
    ["table", "--which", "1", "--", "--format", "csv"],
    ["metrics", "--lambda", "2", "--dist", "[1]"],   # --dist's JSON check
    # errors that handlers print through the top-level parser
    ["metrics", "--lambda", "2", "--dist", '{"type":"weibull"}'],
    ["table"],
    [], ["-h"], ["foo"], ["--bogus", "metrics"],
]


@pytest.mark.parametrize("argv", USAGE_PATHS, ids=lambda argv: " ".join(
    argv).replace(EXP_HALF, "EXP_HALF") or "no-argv")
def test_usage_paths_print_what_the_full_parser_prints(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "100")
    run_captured(argv)  # builds the cached parser, if no earlier test did
    shipped = run_captured(argv)
    # a fresh parser, through the full top-level pass
    fresh = busycycle.cli._build_parser.__wrapped__
    monkeypatch.setattr(busycycle.cli, "_build_parser", fresh)
    monkeypatch.setattr(busycycle.cli, "_parse",
                        argparse.ArgumentParser.parse_args)
    assert run_captured(argv) == shipped
    code, out, err = shipped
    assert "usage: busycycle" in out + err
    assert code == (0 if "-h" in argv else 2)


CONFIG = "<config file>"  # the path of a config file a test writes
VALID_ARGV = [
    ["metrics", "--lambda", "2", "--dist", EXP_HALF],
    ["metrics", "--lam", "2", "--dist", EXP_HALF, "--strategy", "quadrature",
     "--tol-quad", "1e-10", "--format=json"],
    ["metrics", "--config", CONFIG, "--lambda", "3"],
    ["bounds", "--lambda", "-1", "--dist", EXP_HALF, "--assume-tags", "NBUE",
     "--no-reference"],
    ["bounds", "--config", CONFIG],
    ["simulate", "--lambda", "3", "--dist", '{"type":"uniform01"}', "--cycles",
     "2000", "--seed", "7", "--reps", "2", "--format=csv"],
    ["table", "--which", "2", "--format=json"],
    ["table", "--format", "csv", "--which=3"],
    ["compare", "--config", CONFIG, "--cycles", "2000", "--seed", "7"],
]
# a "--" is argparse's to read: Python 3.11 leaves one that ends a call
# unrecognized
DASHES = [
    ["metrics", "--lambda", "2", "--dist", EXP_HALF, "--"],
    ["table", "--", "--which", "1"],
    ["--", "table", "--which", "1"],
]


@pytest.mark.parametrize("argv", USAGE_PATHS + VALID_ARGV + DASHES,
                         ids=lambda argv: " ".join(argv).replace(
                             EXP_HALF, "EXP_HALF") or "no-argv")
def test_main_parses_what_the_full_pass_parses(monkeypatch, tmp_path, argv):
    # the namespace main hands a handler, and what a call prints and
    # returns, are those of parse_args on the same parser
    monkeypatch.setenv("COLUMNS", "100")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"lambda": 2, "dist": json.loads(EXP_HALF),
                                  "format": "json", "cycles": 1000}))
    valid = argv in VALID_ARGV
    argv = [str(config) if arg == CONFIG else arg for arg in argv]
    parsed = []
    for handler in ("run_metrics", "run_bounds", "run_simulate", "run_table",
                    "run_compare"):
        monkeypatch.setattr(busycycle.cli, handler,
                            lambda args, _parser: parsed.append(args) or 0)
    parser = busycycle.cli._build_parser.__wrapped__()
    monkeypatch.setattr(busycycle.cli, "_build_parser", lambda: parser)
    dispatched = run_captured(argv), parsed[:]
    parsed.clear()
    monkeypatch.setattr(busycycle.cli, "_parse",
                        argparse.ArgumentParser.parse_args)
    assert (run_captured(argv), parsed) == dispatched
    if valid:
        assert dispatched[0] == (0, "", "") and len(parsed) == 1
        assert parsed[0].command == argv[0]


def test_cached_parser_formats_help_at_the_current_width(monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    wide = run_captured(["metrics", "-h"])
    monkeypatch.setenv("COLUMNS", "60")
    narrow = run_captured(["metrics", "-h"])
    assert narrow != wide
    monkeypatch.setattr(busycycle.cli, "_build_parser",
                        busycycle.cli._build_parser.__wrapped__)
    assert run_captured(["metrics", "-h"]) == narrow


def test_the_parser_is_built_once_per_process(monkeypatch):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def recording(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", recording)
    busycycle.cli._build_parser.cache_clear()
    metrics = ["metrics", "--lambda", "2", "--dist", EXP_HALF]
    assert run_captured(metrics)[0] == 0
    assert built == COMMANDS
    built.clear()
    assert run_captured(metrics)[0] == 0
    assert run_captured(["table", "--which", "3", "--format", "csv"])[0] == 0
    assert run_captured(["-h"])[0] == 0
    assert built == []
