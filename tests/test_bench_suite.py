"""The benchmark's own tests, run as part of this suite.

bench/tests pins the structure the benchmark measures: a traced degree
estimate makes at least three coarse_blowup_normalize calls, records
grids.weights and curves.gradients spans, and solves for stencil weights.
Its conftest puts bench/ first on sys.path, so it runs in a process of its
own: collected with tests/, its conftest would shadow this one's helpers."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "bench/tests"], cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
