"""Seeded operation corpora for the benchmark workloads, their independent
references, and the checks that decide whether an operation succeeded.

An operation is a JSON-serialisable dict, so a corpus hashes to a stable
digest and regenerates exactly from ``(workload, seed)``:

* ``{"kind": "cli", "argv": [...]}`` runs ``busycycle.cli.main(argv)``
  in-process with stdout and stderr captured;
* ``{"kind": "beta_c" | "estimate", "law": name, ...}`` builds a user-CDF
  law with ``make_distribution`` and calls ``analytics.beta_c`` or
  ``simulator.estimate_beta_c``.

Every call goes through the module attribute at call time
(``cli.main``, ``analytics.beta_c``, ...), so spans installed by
``spans.py`` see it.  Probes are operations whose correct outcome is a
finite, correct answer or a typed error (exit 2); they run once per run,
outside the timed loop, and are counted separately.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

import busycycle.analytics
import busycycle.bounds
import busycycle.cli
import busycycle.distributions
import busycycle.simulator
from busycycle.distributions import QueueParameters
from busycycle.errors import BusyCycleError

WORKLOADS = ("catalog", "general_g", "oracle")

# Printed values carry 8 significant digits (half a unit in the 8th digit is
# at most 5e-8 relative), so a printed engine value is checked to 2e-7.
PRINT_REL_TOL = 2e-7
# API values are full doubles; the engines target 1e-9 to 1e-10.
API_REL_TOL = 1e-7
# A simulated estimate must lie within this many standard errors.
SIM_SIGMAS = 6.0

CATALOG_LAWS = ("exponential", "deterministic", "special_a", "special_b",
                "uniform01", "power")
# log-uniform traffic-intensity strata spanning the published range
RHO_STRATA = ((0.05, 0.3), (0.3, 2.0), (2.0, 8.0), (8.0, 50.0))
FORMATS = ("plain", "csv", "json")
# total simulated events per oracle operation (cycles x e^rho x reps)
ORACLE_EVENTS = 1_200_000
ORACLE_REPS = 2

_NONFINITE = re.compile(r"(?i)\b(nan|-?inf(inity)?)\b")


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _num(x: float) -> str:
    """Six significant digits: short argv, exactly reproducible inputs."""
    return f"{x:.6g}"


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------

def _catalog_point(rng: random.Random, law: str, rho: float):
    """(lambda, dist spec) of a catalog law at traffic intensity ~rho."""
    if law == "uniform01":
        return float(_num(2.0 * rho)), {"type": "uniform01"}
    if law == "power":
        c = 1.0
        while abs(c - 1.0) < 0.2:  # c = 1 is the uniform01 member
            c = float(_num(_loguniform(rng, 0.3, 3.0)))
        return float(_num(rho * (c + 1.0) / c)), {"type": "power", "c": c}
    lam = float(_num(_loguniform(rng, 0.5, 20.0)))
    if law in ("special_a", "special_b"):
        return lam, {"type": law, "rho": float(_num(rho))}
    return lam, {"type": law, "mean": float(_num(rho / lam))}


def _cli(argv) -> dict:
    return {"kind": "cli", "argv": argv}


def _law_args(command: str, lam: float, spec: dict, fmt: str) -> list:
    return [command, "--lambda", _num(lam), "--dist",
            json.dumps(spec, separators=(",", ":")), "--format", fmt]


def _catalog(rng: random.Random) -> dict:
    ops = []
    for i, law in enumerate(CATALOG_LAWS):
        for j, (lo, hi) in enumerate(RHO_STRATA):
            for strategy in ("auto", "quadrature"):
                lam, spec = _catalog_point(rng, law, _loguniform(rng, lo, hi))
                argv = _law_args("metrics", lam, spec, rng.choice(FORMATS))
                if strategy != "auto":
                    argv += ["--strategy", strategy]
                ops.append(_cli(argv))
            if j in (i % 4, (i + 2) % 4):
                lam, spec = _catalog_point(rng, law, _loguniform(rng, lo, hi))
                ops.append(_cli(_law_args("bounds", lam, spec,
                                          rng.choice(FORMATS))))
    # every table in every format: the tables are the slowest operations,
    # so a seeded format would move the tail latency with the seed
    for which in (1, 2, 3):
        for fmt in FORMATS:
            ops.append(_cli(["table", "--which", str(which), "--format", fmt]))
    # The ROADMAP edge probes.  Each must end in a finite answer or exit 2.
    probes = [
        _cli(["metrics", "--lambda", "1", "--dist",
              '{"type":"exponential","mean":800}']),
        _cli(["bounds", "--lambda", "1", "--dist",
              '{"type":"deterministic","mean":710}']),
        _cli(["metrics", "--lambda", "1", "--dist",
              '{"type":"exponential","mean":Infinity}']),
        _cli(["metrics", "--lambda", "1", "--dist", "[1]"]),
    ]
    return _corpus(rng, ops, probes, first=ops[0])


class Law(NamedTuple):
    """A user-CDF law as functions of its parameter dict."""

    cdf: Callable        # cdf(t, params)
    mean: Callable
    moment2: Callable
    support_end: Callable


def _exp_cdf(t, p):
    return -np.expm1(-np.maximum(t, 0.0) / p["mean"])


def _power_cdf(t, p):
    return np.clip(t, 0.0, 1.0) ** p["c"]


def _kumaraswamy_cdf(t, p):
    # Kumaraswamy(2, 3) on [0, 1]: 1 - (1 - t^2)^3
    return 1.0 - (1.0 - np.clip(t, 0.0, 1.0) ** 2) ** 3


def _weibull_cdf(t, p):
    # Weibull shape 1/2, scale s: mean 2 s, scv 5
    return -np.expm1(-np.sqrt(np.maximum(t, 0.0) / p["scale"]))


USER_LAWS = {
    "exp_twin": Law(_exp_cdf, lambda p: p["mean"],
                    lambda p: 2.0 * p["mean"] ** 2, lambda p: math.inf),
    "power_twin": Law(_power_cdf, lambda p: p["c"] / (p["c"] + 1.0),
                      lambda p: p["c"] / (p["c"] + 2.0), lambda p: 1.0),
    "kumaraswamy": Law(_kumaraswamy_cdf, lambda p: 16.0 / 35.0,
                       lambda p: 0.25, lambda p: 1.0),
    "weibull_half": Law(_weibull_cdf, lambda p: 2.0 * p["scale"],
                        lambda p: 24.0 * p["scale"] ** 2, lambda p: math.inf),
}
# laws with no catalog twin, also checked against the sathe interval
NO_TWIN = ("kumaraswamy", "weibull_half")


def _general_g(rng: random.Random) -> dict:
    # Fixed laws and rates; the seed sets the simulation seeds and the
    # order.  Every law sits near rho = 1 (the Weibull law at 1/2).
    laws = [
        ("exp_twin", {"mean": 0.5}, 2.0),
        ("power_twin", {"c": 1.0}, 2.0),
        ("power_twin", {"c": 0.5}, 3.0),
        ("power_twin", {"c": 2.5}, 1.4),
        ("kumaraswamy", {}, 2.2),
        ("weibull_half", {"scale": 0.25}, 1.0),
    ]
    ops, probes = [], []
    for law, params, lam in laws:
        base = {"law": law, "params": params, "lam": lam}
        # Weibull(1/2)'s numeric residual tail never falls below the 1e-16
        # cut-off, so the support search runs away (beta_c near 1e60): its
        # beta_c is a probe.  The exponential twin does the same at some
        # rates (mean 0.556223, lambda 1.91036), not at the one used here.
        if law == "weibull_half":
            probes.append({"kind": "beta_c", **base})
        else:
            ops.append({"kind": "beta_c", **base})
        ops.append({"kind": "estimate", **base, "cycles": 1000,
                    "sim_seed": rng.randrange(2**32)})
    first = next(op for op in ops if op["kind"] == "beta_c")
    return _corpus(rng, ops, probes, first)


def _oracle(rng: random.Random) -> dict:
    configs = []
    for rho in (1.0, 3.0, 5.0):
        lam = float(_num(_loguniform(rng, 0.5, 2.0)))
        configs.append((lam, {"type": "exponential",
                              "mean": float(_num(rho / lam))}))
    for law in ("deterministic", "uniform01", "special_b", "power"):
        rho = rng.uniform(1.9, 2.1)
        if law == "power":
            configs.append((float(_num(rho * 3.5 / 2.5)),
                            {"type": "power", "c": 2.5}))
        else:
            configs.append(_catalog_point(rng, law, rho))
    ops = []
    for lam, spec in configs:
        rho = lam * busycycle.distributions.from_spec(spec, lam).mean
        cycles = max(1000, round(ORACLE_EVENTS / (ORACLE_REPS * math.exp(rho))))
        argv = _law_args("simulate", lam, spec, "json")
        argv += ["--cycles", str(cycles), "--seed", str(rng.randrange(2**32)),
                 "--reps", str(ORACLE_REPS)]
        ops.append(_cli(argv))
    return _corpus(rng, ops, [], first=ops[0])


def _corpus(rng: random.Random, ops: list, probes: list, first: dict) -> dict:
    """Shuffle the operations into a seeded mix.  ``first`` names the
    operation a fresh interpreter runs to time ``setup_s``: a cheap one of
    the same kind on every seed."""
    rng.shuffle(ops)
    return {"ops": ops, "probes": probes,
            "first": next(i for i, op in enumerate(ops) if op is first)}


def build(workload: str, seed: int) -> dict:
    """The corpus ``{"ops": [...], "probes": [...], "first": i}`` of one
    workload."""
    builders = {"catalog": _catalog, "general_g": _general_g,
                "oracle": _oracle}
    return builders[workload](random.Random(f"{workload}:{seed}"))


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    code: Optional[int]        # exit code; None after an uncaught exception
    stdout: str
    error: Optional[str]       # uncaught exception type, if any
    value: object = None       # API result object


def user_params(op: dict) -> QueueParameters:
    law, p = USER_LAWS[op["law"]], op["params"]
    dist = busycycle.distributions.make_distribution(
        lambda t: law.cdf(t, p), mean=law.mean(p), moment2=law.moment2(p),
        name=op["law"] + "".join(f"({k}={v})" for k, v in p.items()),
        support_end=law.support_end(p))
    return QueueParameters(op["lam"], dist)


def execute(op: dict) -> Outcome:
    """Run one operation and capture what a caller would see."""
    if op["kind"] == "cli":
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = busycycle.cli.main(op["argv"])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback at the command line
            return Outcome(None, out.getvalue(), type(exc).__name__)
        return Outcome(code, out.getvalue(), None)
    try:
        params = user_params(op)
        if op["kind"] == "beta_c":
            value = busycycle.analytics.beta_c(params)
            text = f"{value.beta_c!r} {value.method}\n"
        else:
            value = busycycle.simulator.estimate_beta_c(
                params, op["cycles"], seed=op["sim_seed"])
            text = f"{value.beta_c_hat!r} {value.std_error!r}\n"
    except BusyCycleError as exc:
        return Outcome(2, "", type(exc).__name__)
    except Exception as exc:
        return Outcome(None, "", type(exc).__name__)
    return Outcome(0, text, None, value)


# ---------------------------------------------------------------------------
# independent references (mpmath, the catalog twin, the published registry)
# ---------------------------------------------------------------------------

def _mp():
    import mpmath
    mpmath.mp.dps = 30
    return mpmath


def catalog_beta_c(lam: float, spec: dict) -> float:
    """beta_c of a catalog law from its closed form, or from mpmath
    quadrature of the cycle integral for the power law."""
    mp = _mp()
    L = mp.mpf(lam)
    kind = spec["type"]
    if kind in ("exponential", "deterministic"):
        a = mp.mpf(spec["mean"])
        rho = L * a
        if kind == "exponential":  # a * S(rho), S = Ein
            beta = a * (mp.ei(rho) - mp.euler - mp.log(rho))
        else:
            beta = (mp.expm1(rho) - rho) / L
    elif kind == "special_a":
        beta = mp.expm1(mp.mpf(spec["rho"])) / L
    elif kind == "special_b":
        beta = 4 * mp.sinh(mp.mpf(spec["rho"]) / 2) ** 2 / L
    elif kind == "uniform01":
        beta = mp.sqrt(mp.pi / (2 * L)) * mp.erfi(mp.sqrt(L / 2)) - 1
    elif kind == "power":
        c = mp.mpf(spec["c"])

        def r(t):
            return (1 - t) - (1 - t ** (c + 1)) / (c + 1)

        beta = mp.quad(lambda t: mp.expm1(L * r(t)), _unit_breaks(mp, L))
    else:
        raise ValueError(f"no reference for {kind!r}")
    return float(beta + 1 / L)


def _unit_breaks(mp, L):
    """Breakpoints on [0, 1] that resolve an integrand decaying over 1/L."""
    pts = [mp.mpf(0)]
    for k in (1, 4, 16):
        if k / L < 1:
            pts.append(k / L)
    return pts + [mp.mpf(1)]


def user_beta_c(op: dict) -> float:
    """beta_c of a user-CDF law: its catalog twin, or mpmath quadrature of
    the closed-form residual tail."""
    law, p, lam = op["law"], op["params"], op["lam"]
    if law == "exp_twin":
        return catalog_beta_c(lam, {"type": "exponential", "mean": p["mean"]})
    if law == "power_twin":
        spec = ({"type": "uniform01"} if p["c"] == 1.0
                else {"type": "power", "c": p["c"]})
        return catalog_beta_c(lam, spec)
    mp = _mp()
    L = mp.mpf(lam)
    if law == "kumaraswamy":
        def r(t):
            return (1 - t) - (1 - t**3) + 3 * (1 - t**5) / 5 - (1 - t**7) / 7

        beta = mp.quad(lambda t: mp.expm1(L * r(t)), _unit_breaks(mp, L))
    else:
        s = mp.mpf(p["scale"])

        def r(t):
            x = mp.sqrt(t / s)
            return 2 * s * (1 + x) * mp.exp(-x)

        beta = mp.quad(lambda t: mp.expm1(L * r(t)),
                       [0, s, 10 * s, 100 * s, 1000 * s, mp.inf])
    return float(beta + 1 / L)


def load_registry(root) -> dict:
    path = root / "src" / "busycycle" / "data" / "paper_cells.json"
    return json.loads(path.read_text())


def _table_cell_refs(registry: dict, which: int) -> list:
    """The registry entry of every cell in print order, with an mpmath
    beta_c for the two beta_c tables."""
    reg = registry[f"table{which}"]
    cells = []
    for row, data in reg["rows"].items():
        for i, col in enumerate(reg["columns"]):
            if reg["column_key"] == "mean_service":
                lam, alpha = reg["arrival_rate"], col
            else:
                lam, alpha = col, reg["mean_service"]
            ref = None
            if reg["quantity"] == "beta_c":
                spec = {
                    "exponential": {"type": "exponential", "mean": alpha},
                    "constant": {"type": "deterministic", "mean": alpha},
                    "special_a": {"type": "special_a", "rho": lam * alpha},
                    "special_b": {"type": "special_b", "rho": lam * alpha},
                    "power": {"type": "uniform01"},
                }[row]
                ref = catalog_beta_c(lam, spec)
            cells.append({
                "row": row, "lam": lam, "alpha": alpha, "beta_c": ref,
                "paper": float(data["paper"][i]),
                "status": data["expected_status"][i],
                "replacement": (None if data["replacement"][i] is None
                                else float(data["replacement"][i])),
            })
    return cells


def references(workload: str, corpus: dict, root) -> dict:
    """Reference data for every op and probe, keyed by list position."""
    registry = load_registry(root) if workload == "catalog" else None

    def ref(op):
        if op["kind"] != "cli":
            if op["law"] not in NO_TWIN:
                return {"beta_c": user_beta_c(op)}
            dist = user_params(op).service
            return {"beta_c": user_beta_c(op),
                    "interval": busycycle.bounds.sathe_interval(
                        op["lam"], dist.mean, dist.scv)}
        argv = op["argv"]
        if argv[0] == "table":
            which = int(argv[argv.index("--which") + 1])
            return {"cells": _table_cell_refs(registry, which)}
        lam = float(argv[argv.index("--lambda") + 1])
        try:
            value = catalog_beta_c(lam, json.loads(argv[argv.index("--dist") + 1]))
        except (ValueError, TypeError, KeyError, OverflowError):
            return {}  # an edge probe with no valid law
        # past the float range (an edge probe) there is no float reference
        return {"beta_c": value} if math.isfinite(value) else {}

    return {"ops": [ref(op) for op in corpus["ops"]],
            "probes": [ref(op) for op in corpus["probes"]]}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    rel_err: Optional[float] = None
    rel_se: Optional[float] = None     # simulate / estimate only


def _pairs(text: str, fmt: str) -> dict:
    if fmt == "json":
        return json.loads(text)
    lines = text.strip().splitlines()
    if fmt == "csv":
        return dict(line.split(",", 1) for line in lines[1:])
    return dict(line.split(None, 1) for line in lines)


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref)


def _table_rows(text: str, fmt: str) -> list:
    """(distribution, computed, status) for every cell, in print order."""
    if fmt == "json":
        return [(d["distribution"], float(d["computed"]), d["status"])
                for d in json.loads(text)]
    rows = []
    if fmt == "csv":
        for line in text.strip().splitlines()[1:]:
            f = line.split(",")
            if f[4] != "gap_ratio_vs_paper_reference":
                rows.append((f[0], float(f[6]), f[8]))
        return rows
    for line in text.strip().splitlines()[2:]:
        f = line.split()
        if len(f) == 8 and not line.startswith(" "):
            rows.append((f[0], float(f[5]), f[7]))
    return rows


def _check_table(out: Outcome, fmt: str, ref: dict) -> Verdict:
    rows = _table_rows(out.stdout, fmt)
    cells = ref["cells"]
    if len(rows) != len(cells):
        return Verdict(False, f"{len(rows)} cells printed, {len(cells)} expected")
    worst = 0.0
    for (row, computed, status), cell in zip(rows, cells):
        if row != cell["row"] or status != cell["status"]:
            return Verdict(False, f"cell {row} status {status}")
        # the published digits, or their registered replacement, at the
        # tolerance the cell's status promises
        if cell["replacement"] is not None:
            published, tol = cell["replacement"], PRINT_REL_TOL
        else:
            published = cell["paper"]
            tol = {"PASS": 1e-6, "APPROX": 1e-3}.get(status, math.inf)
        if _rel(computed, published) > tol:
            return Verdict(False, f"cell {row} {computed} vs {published}")
        if cell["beta_c"] is not None:
            err = _rel(computed, cell["beta_c"])
            if err > PRINT_REL_TOL:
                return Verdict(False, f"cell {row} {computed} vs mpmath")
            worst = max(worst, err)
    return Verdict(True, rel_err=worst)


def _check_cli(op: dict, ref: dict, out: Outcome) -> Verdict:
    argv = op["argv"]
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "plain"
    if argv[0] == "table":
        return _check_table(out, fmt, ref)
    kv = _pairs(out.stdout, fmt)
    if argv[0] == "simulate":
        hat, se = float(kv["beta_c_hat"]), float(kv["std_error"])
        err = abs(hat - ref["beta_c"])
        if not se > 0.0 or err > SIM_SIGMAS * se:
            return Verdict(False, f"estimate {hat} +- {se} vs {ref['beta_c']}")
        return Verdict(True, rel_err=err / ref["beta_c"], rel_se=se / hat)
    key = "beta_c" if argv[0] == "metrics" else "reference_beta_c"
    err = _rel(float(kv[key]), ref["beta_c"])
    if err > PRINT_REL_TOL:
        return Verdict(False, f"{key} {kv[key]} vs {ref['beta_c']}")
    if argv[0] == "bounds":
        lo, up = (float(v) for v in kv["tightest"].strip("[]").split(","))
        b = ref["beta_c"]
        if kv["consistent"] != "yes" or not (
                lo <= b * (1 + PRINT_REL_TOL) and b <= up * (1 + PRINT_REL_TOL)):
            return Verdict(False, f"bounds [{lo}, {up}] miss {b}")
    return Verdict(True, rel_err=err)


def check(op: dict, ref: dict, out: Outcome) -> Verdict:
    """Did this operation end correctly?  Failures: an uncaught exception,
    an unexpected exit code (a drifted table cell exits 3), nan or inf in
    the output, or a value outside its reference tolerance."""
    if out.code is None:
        return Verdict(False, f"uncaught {out.error}")
    if out.code != 0:
        return Verdict(False, f"exit {out.code}")
    if _NONFINITE.search(out.stdout):
        return Verdict(False, "non-finite value printed")
    try:
        if op["kind"] == "cli":
            return _check_cli(op, ref, out)
    except (KeyError, ValueError, IndexError) as exc:
        return Verdict(False, f"unparseable output: {exc!r}")
    if op["kind"] == "beta_c":
        value = out.value.beta_c
        err = _rel(value, ref["beta_c"])
        if err > API_REL_TOL:
            return Verdict(False, f"beta_c {value} vs {ref['beta_c']}")
        lo, hi = ref.get("interval", (value, value))
        if not lo * (1 - API_REL_TOL) <= value <= hi * (1 + API_REL_TOL):
            return Verdict(False, f"beta_c {value} outside [{lo}, {hi}]")
        return Verdict(True, rel_err=err)
    est = out.value
    err = abs(est.beta_c_hat - ref["beta_c"])
    if not est.std_error > 0.0 or err > SIM_SIGMAS * est.std_error:
        return Verdict(False, f"estimate {est.beta_c_hat} vs {ref['beta_c']}")
    return Verdict(True, rel_err=err / ref["beta_c"],
                   rel_se=est.std_error / est.beta_c_hat)


def check_probe(op: dict, ref: dict, out: Outcome) -> Verdict:
    """A probe passes with a typed error (exit 2) or a correct answer."""
    if out.code == 2:
        return Verdict(True, "typed error")
    if out.code == 0 and not ref:
        # no float reference exists; a finite answer is the correct end
        if _NONFINITE.search(out.stdout):
            return Verdict(False, "non-finite value printed")
        return Verdict(True, "finite answer")
    return check(op, ref, out)
