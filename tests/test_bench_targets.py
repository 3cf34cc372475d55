"""The benchmark harness under ``bench/`` wraps shiftdim's functions by
name.  Installing every wrapper in a fresh interpreter fails when one of
those names is renamed or removed.  The test only reads ``bench/``."""

import os
import subprocess
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

INSTALL = """
import startup
startup.load_library()
from tracing import Probe, StageMemory, Tracer
Tracer().install()
Probe().install()
StageMemory().install()
"""


def test_every_benchmark_patch_target_exists():
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL], cwd=BENCH, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
