"""Benchmark of shiftdim's certify and verify paths.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of ``workloads.py`` in a closed loop, one operation at a
time, in fresh child processes that never overlap.  Every certificate is
checked against ``pins.json``.  With ``--trace 0`` it reports the
end-to-end metrics, with times rescaled to a reference machine speed
(``speed.py``); with ``--trace 1`` the per-layer metrics of a
traced timing run, with the tracing overhead priced from the measured
cost of a span, and, from a separate run under ``tracemalloc``, the
allocation peak of each stage.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  NOTES.md describes the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from speed import reference_seconds
from tracing import MEMORY_LAYERS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
STARTUP = os.path.join(HERE, "startup.py")

# Set-up is timed in this many children, half before and half after the
# timing child.
SETUP_PROBES = 16
# Children are killed once a run has taken this long, so that it ends
# within 180 s even when one hangs.
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


class Runner:
    """Starts the child processes of one run, within one time budget."""

    def __init__(self, workload: str):
        self.workload = workload
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def _remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its time budget")
        return left

    def child(self, *args) -> dict:
        cmd = [sys.executable, CHILD, args[0], self.workload, *map(str, args[1:])]
        try:
            done = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=self._remaining()
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"child {args[0]} killed after the run's time budget")
        if done.returncode != 0:
            raise BenchError(f"child {args[0]} exited {done.returncode}:\n{done.stderr[-2000:]}")
        return json.loads(done.stdout.strip().splitlines()[-1])

    def setup_seconds(self) -> tuple[float, float]:
        """Time from starting a child to its first possible timed call, as
        measured and rescaled to the reference speed, both without the
        child's speed samples."""
        cmd = [sys.executable, STARTUP, self.workload]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            seconds = time.perf_counter() - start
            _, err = proc.communicate(timeout=self._remaining())
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        words = line.split()
        if len(words) != 3 or words[0] != "ready" or proc.returncode != 0:
            raise BenchError(f"setup child failed:\n{err[-2000:]}")
        samples, sampled = int(words[1]), float(words[2])
        seconds -= sampled
        return seconds, reference_seconds(seconds, samples, sampled)


def op_times(passes: list[dict], key: str = "op_reference_seconds") -> list[list[float]]:
    """Each operation's times across the passes: rescaled to the reference
    speed, or as measured with ``key="op_seconds"``."""
    return [list(times) for times in zip(*(p[key] for p in passes))]


def pass_seconds(passes: list[dict], key: str = "op_reference_seconds") -> float:
    """The time of one pass: the sum over its operations of each
    operation's median across the passes."""
    return sum(statistics.median(times) for times in op_times(passes, key))


def median_pass(passes: list[dict]) -> dict:
    """The pass whose time is the lower median."""
    target = statistics.median_low(p["seconds"] for p in passes)
    return next(p for p in passes if p["seconds"] == target)


def report_passes(label: str, passes: list[dict], labels: list[str]) -> None:
    print(f"{label}: {len(passes)} passes")
    for name, rescaled, measured in zip(labels, op_times(passes), op_times(passes, "op_seconds")):
        print(f"  {name}: median {statistics.median(rescaled):.4f} s at reference speed, "
              f"{statistics.median(measured):.4f} s as measured, over {len(measured)} samples")
    for p in passes:
        for name, why in p["failures"].items():
            print(f"  failed {name}: {why}")


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    spec = WORKLOADS[workload]
    labels = spec.labels(seed)
    print(f"workload {workload}, seed {seed}, {seconds} s of timed passes")
    print(f"operation order: {', '.join(labels)}")
    work_dir = os.path.join(ROOT, ".bench_work", f"{workload}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        runner = Runner(workload)
        setup = []
        if not trace:
            setup += [runner.setup_seconds() for _ in range(SETUP_PROBES // 2)]
        timing = runner.child("time", work_dir, seed, seconds, int(trace))
        runs = [timing]
        if trace:
            runs.append(runner.child("memory", work_dir, seed))
        if not trace:
            # Half the probes after the timed child, so that one slow spell
            # of a shared machine does not set the figure.
            setup += [runner.setup_seconds() for _ in range(SETUP_PROBES - len(setup))]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass  # another run still uses it

    passes = [p for child in runs for p in child["passes"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    counters = {json.dumps(p["counters"], sort_keys=True) for p in passes}
    consistent = len(counters) == 1
    if not consistent:
        print(f"size counters differ between passes: {sorted(counters)}")
    report_passes("traced" if trace else "untraced", timing["passes"], labels)

    if not trace:
        metrics = {
            "setup_s": (statistics.median(rescaled for _, rescaled in setup), "s"),
            "run_s": (pass_seconds(timing["passes"]), "s"),
            "peak_rss_mb": (timing["peak_rss_mb"], "MB"),
            "cert_bytes": (timing["passes"][0]["counters"]["cert_bytes"], "bytes"),
            "pass_share": ((attempted - failed) / attempted, "share"),
        }
        measured = [seconds for seconds, _ in setup]
        print(f"run: {metrics['run_s'][0]:.4f} s at reference speed, "
              f"{pass_seconds(timing['passes'], 'op_seconds'):.4f} s as measured")
        print(f"setup over {len(setup)} children: median {metrics['setup_s'][0]:.4f} s at "
              f"reference speed, {statistics.median(measured):.4f} s as measured")
    else:
        chosen = median_pass(timing["passes"])
        metrics = {name: (value, _unit(name)) for name, value in chosen["layers"].items()}
        for name, value in chosen["counters"].items():
            if name != "cert_bytes":
                metrics[name] = (value, _unit(name))
        for layer in MEMORY_LAYERS:
            metrics[f"{layer}.alloc_peak_mb"] = (runs[1]["alloc_peak_mb"].get(layer, 0.0), "MB")

    return {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if not os.path.isfile(os.path.join(ROOT, "src", "shiftdim", "__init__.py")):
        print(f"no shiftdim sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
