"""Write ``pins.json``: the outcome of every operation and the size
counters of one pass of each workload, taken from the code in this
checkout.

    python3 bench/pin.py [WORKLOAD ...]

Pin only a commit whose certificates are known good: the benchmark counts
every later difference as a failed operation.  Workloads not named keep
their current pins.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from child import PINS
from startup import ROOT, load_library
from tracing import Probe
from workloads import WORKLOADS, run_pass


def main(names) -> int:
    lib = load_library()
    probe = Probe()
    probe.install()
    pins = {}
    if os.path.exists(PINS):
        with open(PINS) as fh:
            pins = json.load(fh)
    work_dir = os.path.join(ROOT, ".bench_work", "pin")
    try:
        for name in names or sorted(WORKLOADS):
            p = run_pass(name, lib, None, probe, work_dir, seed=0)
            if p.failures:
                print(f"{name}: not pinned, operations raised: {p.failures}", file=sys.stderr)
                return 1
            pins[name] = {"ops": p.outcomes, "counters": p.counters}
            print(f"{name}: pinned {len(p.outcomes)} operations in {p.seconds:.1f} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(PINS, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
