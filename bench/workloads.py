"""The benchmark's two workloads and the checks on their outputs.

A workload is a sequence of operations run in a closed loop: one pass
runs every operation once, in order, and the next pass starts when it
ends.  Each operation is timed on its own; the checks between operations
(hashing outputs) are not, and the time the probe takes to count sizes
is left out of the operation's time.

Every operation has a pinned *outcome*: the verdicts and sha256 of the
canonical certificates it produced, or the exit code and message of a
``verify``.  An operation fails when it raises, when an earlier operation
it depends on failed, or when its outcome differs from the pin.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import shutil
import time
from dataclasses import dataclass
from fractions import Fraction

from configs import FIBONACCI, THUE_MORSE, TRIBONACCI
from speed import Speedometer, reference_seconds

PAST_LEN = 6


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class OperationFailed(Exception):
    """Raised by :meth:`Pass.op` to abandon the rest of a pass."""


class Pass:
    """One pass of a workload.

    ``pins`` maps operation label to pinned outcome; ``None`` records the
    outcomes instead of checking them (used to make the pins).  When
    ``speed`` is running, each operation's time is also rescaled to the
    reference speed (``op_reference_seconds``); otherwise that list
    repeats ``op_seconds``."""

    def __init__(self, pins: dict | None, probe, speed: Speedometer):
        self.pins = pins
        self.probe = probe
        self.speed = speed
        self.seconds = 0.0
        self.probe_seconds = 0.0
        self.op_seconds: list[float] = []
        self.op_reference_seconds: list[float] = []
        self.outcomes: dict[str, object] = {}
        self.failures: dict[str, str] = {}
        self.counters: dict[str, int] = {"cert_bytes": 0}
        self.attempted = 0
        self.failed = 0

    def op(self, label: str, call, *args):
        """Time ``call(*args)``, leaving out the probe's counting and the
        speed samples."""
        spent = self.probe.spent
        samples, sampled = self.speed.count, self.speed.total
        start = time.perf_counter()
        try:
            return call(*args)
        except Exception as exc:  # any error of the program is a failed operation
            self.failures[label] = f"{type(exc).__name__}: {exc}"
            raise OperationFailed(label) from exc
        finally:
            elapsed = time.perf_counter() - start
            probe_seconds = self.probe.spent - spent
            samples, sampled = self.speed.count - samples, self.speed.total - sampled
            own = elapsed - probe_seconds - sampled
            self.probe_seconds += probe_seconds
            self.seconds += own
            self.op_seconds.append(own)
            self.op_reference_seconds.append(reference_seconds(own, samples, sampled))

    def outcome(self, label: str, value, cert_bytes: int) -> None:
        self.outcomes[label] = value
        self.counters["cert_bytes"] += cert_bytes
        if self.pins is not None and self.pins.get(label) != value:
            self.failures[label] = f"outcome differs from pin: {value!r}"

    def stage(self, label: str, call, *args, certs, out_dir=None):
        """Run a pipeline stage and serialise the certificates ``certs``
        picks from its result, both inside the timed operation (the CLI
        emits every certificate it builds), and write them to ``out_dir``
        as ``--out`` does."""

        def run():
            result = call(*args)
            picked = certs(result)
            texts = {n: (c.verdict, c.canonical_json()) for n, c in picked.items()}
            if out_dir:
                for n, (_, text) in texts.items():
                    with open(os.path.join(out_dir, f"{n}.json"), "w") as fh:
                        fh.write(text)
            return result, texts

        result, texts = self.op(label, run)
        encoded = {n: (verdict, text.encode()) for n, (verdict, text) in texts.items()}
        self.outcome(
            label,
            {n: {"verdict": v, "sha256": sha256(b)} for n, (v, b) in encoded.items()},
            sum(len(b) for _, b in encoded.values()),
        )
        return result

    def failed_count(self, labels) -> int:
        """Operations of ``labels`` that did not complete with the pinned
        outcome (including those never reached)."""
        return sum(1 for label in labels if label in self.failures or label not in self.outcomes)


def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# -- fib-skew-dad --------------------------------------------------------------

SKEW_WINDOW = (-2, 0, 3)


def fib_skew_dad_labels(seed):
    return ["config", "cover", "rokhlin", "amen", "dad", "verify"]


def _verify(lib, path: str) -> tuple[int, str]:
    with contextlib.redirect_stdout(io.StringIO()) as text:
        code = lib.cli.main(["verify", path])
    return code, text.getvalue().strip()


def fib_skew_dad(p: Pass, lib, work_dir: str, seed: int) -> None:
    """The dad path with ``--out``, then ``shiftdim verify`` on the dad
    certificate it wrote: re-checking from witnesses, with no construction
    search."""
    pipeline = lib.pipeline
    out = _fresh_dir(os.path.join(work_dir, "dad"))
    spec, _ = p.op("config", lib.config.spec_from_config, FIBONACCI)
    p.outcome("config", {}, 0)
    graph = p.stage("cover", pipeline.run_cover, spec, 1700, PAST_LEN, None,
                    certs=lambda r: {"cover": r[1]})[0]
    cover = p.stage("rokhlin", pipeline.run_rokhlin, graph, 11,
                    certs=lambda r: {"rokhlin": r[1]})[0]
    emap, _, orbit, _, _ = p.stage(
        "amen", pipeline.run_amen, graph, cover, SKEW_WINDOW, 37, Fraction(2),
        certs=lambda r: {"amen_pairs": r[3], "amen": r[4]},
    )
    p.stage("dad", pipeline.run_dad, graph, emap, orbit, SKEW_WINDOW, 3, Fraction(2),
            certs=lambda r: {"dad": r[1]}, out_dir=out)
    # `shiftdim verify` runs as a command of its own, without these objects.
    del spec, graph, cover, emap, orbit
    path = os.path.join(out, "dad.json")
    code, message = p.op("verify", _verify, lib, path)
    p.outcome("verify", {"exit": code, "message": message}, os.path.getsize(path))


# -- tm-trib-front -------------------------------------------------------------

PRESENTATIONS = {"tm": THUE_MORSE, "trib": TRIBONACCI}
FRONT_STAGES = ("config", "lang", "special", "cover", "rokhlin", "towerdim")


def _presentation_order(seed):
    order = sorted(PRESENTATIONS)
    random.Random(seed).shuffle(order)
    return order


def tm_trib_front_labels(seed):
    return [f"{name}/{stage}" for name in _presentation_order(seed) for stage in FRONT_STAGES]


def _front(p: Pass, lib, name: str) -> None:
    """One presentation's chain.  Its objects are freed when it returns, so
    the presentation that runs second does not run beside the first one's
    cover graph, and the seed's order changes neither time nor memory."""
    pipeline = lib.pipeline
    spec, _ = p.op(f"{name}/config", lib.config.spec_from_config, PRESENTATIONS[name])
    p.outcome(f"{name}/config", {}, 0)
    p.stage(f"{name}/lang", pipeline.run_lang, spec, 400, None,
            certs=lambda r: {"lang": r[1]})
    p.stage(f"{name}/special", pipeline.run_special, spec, 400,
            certs=lambda r: {"special": r[1]})
    graph = p.stage(f"{name}/cover", pipeline.run_cover, spec, 2000, PAST_LEN, None,
                    certs=lambda r: {"cover": r[1]})[0]
    cover = p.stage(f"{name}/rokhlin", pipeline.run_rokhlin, graph, 5,
                    certs=lambda r: {"rokhlin": r[1]})[0]
    p.stage(f"{name}/towerdim", pipeline.run_towerdim, graph, cover, (-1, 0, 1),
            certs=lambda r: {"towerdim": r[1]})


def tm_trib_front(p: Pass, lib, work_dir: str, seed: int) -> None:
    for name in _presentation_order(seed):
        try:
            _front(p, lib, name)
        except OperationFailed:
            continue  # the other presentation does not depend on this one


@dataclass(frozen=True)
class Workload:
    body: object  # body(pass, lib, work_dir, seed) runs one pass
    labels: object  # labels(seed) lists the pass's operations in order


WORKLOADS = {
    "fib-skew-dad": Workload(fib_skew_dad, fib_skew_dad_labels),
    "tm-trib-front": Workload(tm_trib_front, tm_trib_front_labels),
}


def run_pass(workload: str, lib, pins, probe, work_dir: str, seed: int,
             speed: Speedometer | None = None) -> Pass:
    """One pass, checked against ``pins`` (``None`` records instead)."""
    spec = WORKLOADS[workload]
    p = Pass(None if pins is None else pins["ops"], probe, speed or Speedometer())
    try:
        spec.body(p, lib, work_dir, seed)
    except OperationFailed:
        pass  # recorded in p.failures; later operations count as failed
    p.counters.update(probe.drain())
    labels = spec.labels(seed)
    p.attempted = len(labels)
    p.failed = p.failed_count(labels)
    if pins is not None and p.counters != pins["counters"]:
        p.failed = max(p.failed, 1)
        p.failures["counters"] = f"size counters differ from pin: {p.counters}"
    return p
