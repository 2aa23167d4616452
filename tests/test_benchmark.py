"""The benchmark under ``perfbench/`` still runs against the package.

The benchmark's tracer wraps package functions and methods by name, and
its output checks read the package's patch records, so a rename in
``src/`` would otherwise break only traced benchmark runs. Its self-test
writes only below the git-ignored ``perfbench/out/``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
