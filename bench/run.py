#!/usr/bin/env python3
"""busycycle benchmark: one closed-loop client driving one workload.

    python3 bench/run.py --workload catalog|general_g|oracle \
        [--seed 1] [--seconds 20] [--trace 0|1]

Run from the repository root; the package is imported from ``src/``.  The
seed fixes the whole corpus (``workloads.build``).  Seed 1 is the default;
seed 7919 is held out for validating a later performance claim.

One process issues each operation only after the previous one returned.
Before timing it builds the corpus, computes the independent references,
runs one untimed warm-up pass over the corpus (imports, parser, registry,
page cache) and the probes, and times ``setup_s`` in fresh interpreters
(the only subprocesses).  The timed loop then repeats whole corpus passes
for ``--seconds``; every operation's output is checked against its
reference and against the warm-up pass byte for byte.  Operation timings
are scaled to a reference host speed (``HostSpeed``); the unscaled figures
are printed too.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half with spans around every layer (``spans.py``),
reports the per-layer metrics per corpus pass and the tracing overhead,
and checks that every wrapped binding is the original object afterwards.
The last stdout line is the JSON result; the lines before it give every
metric by name with its unit, and the run context.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("catalog", "general_g", "oracle")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# The tail percentile is fixed per workload, so a faster program does not
# switch to a higher percentile; at the default run length each leaves well
# over ten samples beyond it (see the "beyond" count printed beside it).
TAIL_PERCENTILE = {"catalog": 99.0, "general_g": 90.0, "oracle": 90.0}
SETUP_REPS = 7
SE_TARGET = 0.01  # sim_s_to_1pct: seconds to reach 1% relative SE
# Host-speed scaling: the calibration kernel's time on the reference host
# (2-core 2.0 GHz Xeon sandbox, median of 3000 runs: 1.93 ms), how often it
# runs, and how many of its runs on each side of a timing set the speed.
REF_KERNEL_S = 2.0e-3
CALIBRATE_EVERY_S = 0.05
CALIBRATION_SIDE = 3


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads(limit: int) -> dict:
    """Cap BLAS/OpenMP pools at ``limit`` threads; must precede numpy."""
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= limit:
            os.environ[var] = str(limit)
    return {var: os.environ[var] for var in THREAD_VARS}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


class HostSpeed:
    """How fast the shared host runs, relative to the reference host.

    Other tenants' load changes the speed of the same code by up to half
    again, over periods of seconds, while this process keeps its cores
    (its CPU time equals its wall time).  A fixed kernel of interpreter and
    NumPy work, sharing no code with busycycle, runs every
    ``CALIBRATE_EVERY_S`` of workload time.  A timing taken at kernel
    sample ``mark`` is multiplied by REF_KERNEL_S / (median of the kernel
    times just before and just after it) and so reads as if taken at the
    reference speed.  Raw timings are printed beside.
    """

    def __init__(self):
        import numpy as np
        self._x = np.random.default_rng(0).random(4096)
        self._np = np
        self.samples = []
        self._last = -math.inf

    def _kernel(self):
        np, x = self._np, self._x
        total, table, words = 0, {}, []
        for i in range(6000):
            total += i * i
            table[i & 255] = total
            if i % 40 == 0:
                words.append(f"--opt{i}={total % 9973}")
        " ".join(words).split()
        for _ in range(20):
            np.sort(x)
            np.expm1(-x).sum()
            np.searchsorted(x, 0.5)

    def calibrate(self, runs: int = 1) -> int:
        """Time the kernel ``runs`` times; return the sample count so far,
        the ``mark`` of a timing taken next."""
        for _ in range(runs):
            t0 = time.perf_counter()
            self._kernel()
            self._last = time.perf_counter()
            self.samples.append(self._last - t0)
        return len(self.samples)

    def mark(self) -> int:
        """Calibrate if the last kernel run is stale; the current mark."""
        if time.perf_counter() - self._last >= CALIBRATE_EVERY_S:
            return self.calibrate()
        return len(self.samples)

    def factor(self, mark: int) -> float:
        side = CALIBRATION_SIDE
        return REF_KERNEL_S / statistics.median(
            self.samples[max(0, mark - side):mark + side])

    def run_factor(self, since: int = 0) -> float:
        """Factor from every kernel run from sample ``since`` on."""
        return REF_KERNEL_S / statistics.median(self.samples[since:])


class Stats:
    """What one timed phase saw; times are scaled by ``finish``."""

    def __init__(self):
        self.records = []       # (pass, raw seconds, mark, rel SE or None)
        self.passes = 0
        self.failed = 0
        self.max_rel_err = 0.0
        self.reasons = []

    def finish(self, speed: HostSpeed):
        speed.calibrate(CALIBRATION_SIDE)  # the "after" side of the last ops
        self.raw_latencies = [raw for _, raw, _, _ in self.records]
        self.latencies = [raw * speed.factor(mark)
                          for _, raw, mark, _ in self.records]
        self.busy_s = sum(self.latencies)
        # per pass: sum over simulations of seconds x (rel SE / 1%)^2
        self.sim_cost = [0.0] * self.passes
        for (n, _, _, rel_se), dt in zip(self.records, self.latencies):
            if rel_se is not None:
                self.sim_cost[n] += dt * (rel_se / SE_TARGET) ** 2

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def throughput(self) -> float:
        return self.attempted / self.busy_s


def timed_passes(wl, corpus, refs, expected, seconds: float,
                 speed: HostSpeed) -> Stats:
    """Repeat whole corpus passes until ``seconds`` of wall time are used."""
    stats = Stats()
    clock = time.perf_counter
    start = clock()
    while stats.passes == 0 or clock() - start < seconds:
        for op, ref, want in zip(corpus["ops"], refs["ops"], expected):
            mark = speed.mark()
            t0 = clock()
            out = wl.execute(op)
            raw = clock() - t0
            verdict = wl.check(op, ref, out)
            if verdict.ok and out.stdout != want:
                verdict = wl.Verdict(False, "output differs from the warm-up pass")
            stats.records.append((stats.passes, raw, mark,
                                  verdict.rel_se if verdict.ok else None))
            if not verdict.ok:
                stats.failed += 1
                stats.reasons.append(f"{describe(op)}: {verdict.reason}")
            else:
                stats.max_rel_err = max(stats.max_rel_err, verdict.rel_err)
        stats.passes += 1
    stats.finish(speed)
    return stats


def measure_setup(workload: str, seed: int, expected: str, speed: HostSpeed):
    """Median wall time, scaled to the reference host speed, of fresh
    interpreters that import busycycle.cli and print the workload's set-up
    result; the first, which may compile bytecode, is discarded.  Also
    returns whether every output matched."""
    cmd = [sys.executable, str(BENCH / "first_result.py"), workload, str(seed)]
    times, matched = [], True
    for i in range(SETUP_REPS + 1):
        mark = speed.calibrate(CALIBRATION_SIDE)
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        dt = time.perf_counter() - t0
        speed.calibrate(CALIBRATION_SIDE)
        matched &= proc.returncode == 0 and proc.stdout == expected
        if i:
            times.append(dt * speed.factor(mark))
    return statistics.median(times), matched


def describe(op: dict) -> str:
    if op["kind"] == "cli":
        return " ".join(op["argv"])
    return f"{op['kind']} {op['law']} {op['params']} lambda={op['lam']}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "busycycle" / "__init__.py").is_file():
        print(f"error: no busycycle package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 1
    threads_env = cap_threads(nproc())
    sys.path.insert(0, str(SRC))
    import busycycle
    if Path(busycycle.__file__).resolve().parent != SRC / "busycycle":
        print(f"error: imported busycycle from {busycycle.__file__}",
              file=sys.stderr)
        return 1
    import mpmath
    import numpy
    import scipy

    import spans
    import workloads as wl

    corpus = wl.build(args.workload, args.seed)
    refs = wl.references(args.workload, corpus, ROOT)

    # warm-up pass: also fixes the expected bytes of every output
    expected, correct, reasons = [], True, []
    for op, ref in zip(corpus["ops"], refs["ops"]):
        out = wl.execute(op)
        expected.append(out.stdout)
        verdict = wl.check(op, ref, out)
        if not verdict.ok:
            correct = False
            reasons.append(f"warm-up {describe(op)}: {verdict.reason}")
    stdout_sha = sha256("".join(expected))

    probe_lines, probes_failed = [], 0
    for op, ref in zip(corpus["probes"], refs["probes"]):
        verdict = wl.check_probe(op, ref, wl.execute(op))
        probes_failed += not verdict.ok
        probe_lines.append(f"probe {'ok  ' if verdict.ok else 'FAIL'} "
                           f"{describe(op)}: {verdict.reason}")

    speed = HostSpeed()
    setup_s = None
    if args.trace == 0:
        setup_s, matched = measure_setup(args.workload, args.seed,
                                         expected[corpus["first"]], speed)
        if not matched:
            correct = False
            reasons.append("set-up run printed a different first result")
        stats = timed_passes(wl, corpus, refs, expected, args.seconds, speed)
        phases = [stats]
    else:
        stats = timed_passes(wl, corpus, refs, expected, args.seconds / 2, speed)
        tracer = spans.Tracer()
        mark = len(speed.samples)
        tracer.install()
        try:
            traced = timed_passes(wl, corpus, refs, expected, args.seconds / 2,
                                  speed)
        finally:
            tracer.restore()
        leftover = tracer.verify_restored()
        if leftover:
            correct = False
            reasons.append(f"wrapped bindings not restored: {leftover}")
        phases = [stats, traced]

    attempted = sum(s.attempted for s in phases)
    failed = sum(s.failed for s in phases)
    correct = correct and failed == 0
    for s in phases:
        reasons.extend(s.reasons[:5])

    n_ops, n_probes = len(corpus["ops"]), len(corpus["probes"])
    lat = sorted(stats.latencies)
    tail_p = TAIL_PERCENTILE[args.workload]
    beyond = sum(1 for x in lat if x > percentile(lat, tail_p))
    fail_ratio = ((stats.failed + stats.passes * probes_failed)
                  / (stats.attempted + stats.passes * n_probes))
    sim_cost = statistics.median(stats.sim_cost)

    end_to_end = {
        "throughput_ops_s": (stats.throughput, "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (percentile(lat, tail_p) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    # Correctness and oracle-efficiency figures: printed on every run, and
    # part of the traced result (they can be 0, so they carry no bound).
    checks = {
        "fail_ratio": (fail_ratio, "ratio"),
        "max_rel_err": (stats.max_rel_err, "ratio"),
        "sim_s_to_1pct": (sim_cost, "s"),
        "probes.attempted": (float(n_probes), "count"),
        "probes.failed": (float(probes_failed), "count"),
    }

    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "mpmath": mpmath.__version__, "machine": platform.machine(),
        "threads_env": threads_env,
        "corpus_sha256": sha256(json.dumps(corpus, sort_keys=True)),
        "ops_per_pass": n_ops, "probes": n_probes,
        "stdout_sha256": stdout_sha,
    }
    print("context " + json.dumps(context, sort_keys=True))
    for line in probe_lines:
        print(line)
    for reason in reasons:
        print(f"failure {reason}")
    print(f"passes {stats.passes}, operations {stats.attempted}, "
          f"failed {stats.failed}; probes failed {probes_failed} of {n_probes}")
    raw = sorted(stats.raw_latencies)
    print(f"unscaled: throughput {len(raw) / sum(raw):.6g} 1/s, p50 "
          f"{statistics.median(raw) * 1e3:.6g} ms, p{tail_p:g} "
          f"{percentile(raw, tail_p) * 1e3:.6g} ms; host speed factor "
          f"{speed.run_factor():.4f} (median of {len(speed.samples)} kernel runs)")

    def show(name, value, unit, note=""):
        if value is not None:
            print(f"{name} {value:.6g} {unit}{note}")

    for name, (value, unit) in end_to_end.items():
        note = (f" (p{tail_p:g}, {beyond} of {len(lat)} samples beyond)"
                if name == "latency_tail_ms" else "")
        show(name, value, unit, note)
    for name, (value, unit) in checks.items():
        show(name, value, unit)

    if args.trace == 0:
        metrics = end_to_end
    else:
        metrics = dict(checks)
        metrics.update(tracer.summary(traced.passes, speed.run_factor(mark)))
        metrics.update({
            "trace.untraced_ops_s": (stats.throughput, "1/s"),
            "trace.traced_ops_s": (traced.throughput, "1/s"),
            "trace.overhead_ratio": (stats.throughput / traced.throughput, "ratio"),
        })
        for name, value in tracer.rel_se_by_law().items():
            print(f"simulator.rel_se[{name}] {value:.6g} ratio")
        for name, (value, unit) in metrics.items():
            if name not in checks:
                show(name, value, unit)

    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
