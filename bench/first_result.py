"""Set-up timing: a fresh interpreter imports busycycle.cli, runs the set-up
operation of a workload's corpus and prints its output.

    python3 bench/first_result.py <workload> <seed>

run.py times this whole process, start to exit, as ``setup_s``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import busycycle.cli  # noqa: E402,F401  the import being measured

import workloads  # noqa: E402

corpus = workloads.build(sys.argv[1], int(sys.argv[2]))
op = corpus["ops"][corpus["first"]]
sys.stdout.write(workloads.execute(op).stdout)
