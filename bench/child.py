"""One timing or memory process of a benchmark run; ``run.py`` starts it.

    child.py time   WORKLOAD WORK_DIR SEED SECONDS TRACED
    child.py memory WORKLOAD WORK_DIR SEED

``time`` runs passes for SECONDS (at least one pass; another starts only
if one as long as the last still fits).  With TRACED 1 it records spans;
with TRACED 0 it samples the machine's speed (``speed.py``) instead, so
that no span holds a sample.  ``memory`` runs one pass under
``tracemalloc``.  Each prints one JSON object as the last line of its
standard output.  The set-up probe is ``startup.py``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import tracemalloc

from speed import Speedometer
from startup import load_library
from tracing import Probe, StageMemory, Tracer, layer_metrics, wrapper_costs
from workloads import run_pass

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


def load_pins(workload: str) -> dict:
    with open(PINS) as fh:
        return json.load(fh)[workload]


def pass_record(p) -> dict:
    return {
        "seconds": p.seconds,
        "op_seconds": p.op_seconds,
        "op_reference_seconds": p.op_reference_seconds,
        "attempted": p.attempted,
        "failed": p.failed,
        "failures": p.failures,
        "counters": p.counters,
    }


def main(argv) -> int:
    mode, workload, work_dir, seed = argv[0], argv[1], argv[2], int(argv[3])
    lib = load_library()
    pins = load_pins(workload)
    probe = Probe()
    probe.install()
    if mode == "memory":
        memory = StageMemory()
        memory.install()
        tracemalloc.start()
        p = run_pass(workload, lib, pins, probe, work_dir, seed)
        tracemalloc.stop()
        print(json.dumps({"passes": [pass_record(p)], "alloc_peak_mb": memory.peak_mb}))
        return 0

    seconds, traced = float(argv[4]), argv[5] == "1"
    tracer = Tracer() if traced else None
    speed = Speedometer()
    if tracer:
        costs = wrapper_costs()
        tracer.install()
    else:
        speed.start()
    passes = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        p = run_pass(workload, lib, pins, probe, work_dir, seed, speed)
        record = pass_record(p)
        if tracer:
            spans, counts = tracer.take()
            # The probe's counting sits inside the spans of the calls it
            # counts, so the traced pass time includes it.
            record["layers"] = layer_metrics(spans, counts, p.seconds + p.probe_seconds, costs)
            del spans
        passes.append(record)
        # Start another pass only if one as long as this one still fits.
        now = time.perf_counter()
        if now + (now - began) > start + seconds:
            break
    speed.stop()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"passes": passes, "peak_rss_mb": peak_mb}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
