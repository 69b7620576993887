#!/usr/bin/env python3
"""Smoke check of the benchmark at tiny size (about a minute).

    python3 bench/smoke.py

For every workload, untraced and traced, with one second of timing it
asserts that the run exits 0 and ends in the JSON result line, that every
metric BENCHMARK.json names is in the result with its declared unit and is
printed by name with that unit, that no in-range operation failed, and that
the probes were counted.  It then copies only BENCHMARK.json and the
benchmark directory to an empty directory and asserts that the run there
exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PROBES = {"catalog": 4, "general_g": 1, "oracle": 0}


def run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_run(spec: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], where
    assert result["correct"] is True, f"{where}: incorrect\n{proc.stdout}"
    assert result["attempted"] >= 1 and result["failed"] == 0, where

    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared), where
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
               if len(line.split()) >= 3}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], f"{where}: {m['name']} unit {got['unit']}"
        assert isinstance(got["value"], float), f"{where}: {m['name']}"
        assert printed.get(m["name"]) == m["unit"], f"{where}: {m['name']} not printed"
    for m in spec["end_to_end"]:  # printed on traced runs too, bar setup_s
        assert m["name"] == "setup_s" or printed.get(m["name"]) == m["unit"], where

    if trace:
        # no in-range operation failed, so fail_ratio is the probes' share
        metrics = result["metrics"]
        probes = metrics["probes.attempted"]["value"]
        ops = json.loads(lines[0].split(" ", 1)[1])["ops_per_pass"]
        assert probes == PROBES[workload], where
        assert math.isclose(metrics["fail_ratio"]["value"],
                            metrics["probes.failed"]["value"] / (ops + probes)), where
    print(f"ok {where}: {result['attempted']} operations")


def check_without_package() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, tmp / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(tmp, "catalog", 0)
        assert proc.returncode != 0, "ran without the package"
        assert '"correct"' not in proc.stdout, "printed a result"
    print("ok without the package: exit", proc.returncode)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace)
    check_without_package()
    return 0


if __name__ == "__main__":
    sys.exit(main())
