"""Shared fixtures and the acceptance summary printer.

test_acceptance registers one verdict per criterion; the terminal-summary
hook prints them as single pass/fail lines at the end of the run so they
are visible regardless of output capturing.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import carlat

ACCEPTANCE_RESULTS = {}

x86_64_only = pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                                 reason="OpenBLAS core types are x86-64 kernels")


def output_under_two_blas_kernels(script: str) -> list:
    """Standard output of ``script`` in two fresh interpreters, so that OpenBLAS
    reads the core type when it loads: under its default kernel, then under
    its oldest x86-64 one.  With another BLAS the variable does nothing and
    the two runs agree trivially."""
    root = Path(carlat.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root), os.environ.get("PYTHONPATH")]))}
    env.pop("OPENBLAS_CORETYPE", None)
    return [subprocess.run([sys.executable, "-c", script], env=kernel, capture_output=True,
                           text=True, check=True).stdout
            for kernel in (env, {**env, "OPENBLAS_CORETYPE": "Prescott"})]


def record_acceptance(number: int, label: str, passed: bool, detail: str = ""):
    ACCEPTANCE_RESULTS[number] = (label, bool(passed), detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    tr = terminalreporter
    tr.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        label, passed, detail = ACCEPTANCE_RESULTS[number]
        verdict = "PASS" if passed else "FAIL"
        line = f"criterion {number} [{verdict}] {label}"
        if detail:
            line += f" ({detail})"
        tr.write_line(line, green=passed, red=not passed)


@pytest.fixture
def rng_seed():
    return 20240817
