"""The benchmark's self-test as part of the suite.

`perfbench/selftest.py` fails on any failed operation, and each workload's
output checks count as operations, so a package change that breaks a
benchmark workload fails here before any timed run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py", "train-small", "transfer-small", "split-large"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
