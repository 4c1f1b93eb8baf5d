"""The benchmark's self-test passes against the sources in this checkout.

`perfbench/test_bench.py` pins some package internals, for example how often
enumeration calls `omlat.search.canonical_certificate`, so a change under
`src/` can break the benchmark without failing any other test here.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_self_test_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
