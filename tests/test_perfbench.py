"""The benchmark under perfbench/ drives palnet through its public API; its
self-test runs every workload at toy size, traced and untraced, and checks
each call's bits and every named metric.  Running it here makes a change to
palnet that breaks the benchmark fail the test suite."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.strip().splitlines()[-1] == "selftest passed"
