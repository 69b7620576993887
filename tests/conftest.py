import os
import sys
from pathlib import Path

# Subprocesses started by the tests (``python -m busycycle.cli``) import the
# package from the source tree too, as the pytest ``pythonpath`` setting
# does for this process.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the per-criterion PASS/FAIL lines from the acceptance module."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "CRITERION_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
