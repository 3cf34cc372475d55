"""Set-up probe of a benchmark run; ``run.py`` starts it.

    startup.py WORKLOAD

Imports shiftdim, builds the workload's presentations with
``spec_from_config`` (which checks primitivity) and prints ``ready``:
everything a run does before its first timed call.  It imports nothing
of the benchmark beyond the presentation texts and ``speed.py``, so its
time is the program's start-up alone.  It samples the machine's speed
meanwhile and prints, after ``ready``, the number of samples and the
seconds they took.
"""

import os
import sys
import types

from configs import SETUP
from speed import Speedometer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def load_library():
    """Import shiftdim from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    import shiftdim
    import shiftdim.cli
    import shiftdim.config
    import shiftdim.pipeline

    if not os.path.abspath(shiftdim.__file__).startswith(SRC + os.sep):
        raise ImportError(f"shiftdim imported from {shiftdim.__file__}, not {SRC}")
    return types.SimpleNamespace(
        pipeline=shiftdim.pipeline, cli=shiftdim.cli, config=shiftdim.config
    )


def main(workload: str) -> int:
    speed = Speedometer()
    speed.start()
    lib = load_library()
    for text in SETUP[workload]:
        lib.config.spec_from_config(text)
    speed.stop()
    print(f"ready {speed.count} {speed.total!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
