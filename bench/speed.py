"""The machine's speed while the program runs, for rescaling its times.

The benchmark's machine is a share of a host whose vCPUs switch, every
fraction of a second and for spells of minutes, between a fast and a
slower state.  A :class:`Speedometer` samples that state while the
program runs: a timer signal interrupts it every ``INTERVAL_S`` of wall
time, and the handler times ``probe``, a fixed pure-Python loop, on the
same vCPU at the same moment.  The probe hashes tuples, looks them up in
a dict and does small-integer arithmetic, the kind of work shiftdim's
words, covers and towers do.  The mean probe time over an
operation, divided by ``REFERENCE_PROBE_S``, is how much slower than the
reference speed the machine ran during that operation; dividing the
operation's time by it gives the time the operation would have taken at
the reference speed.

This module imports only ``signal`` and ``time``, so that the set-up
probe can start it before importing shiftdim without adding to the time
it measures.
"""

import signal
import time

# Timer period of the samples, in seconds of wall time.
INTERVAL_S = 0.005
# The probe's time at the reference speed: about its mean time, when it
# interrupts the workloads, on the fast state of the 2-vCPU Intel Xeon
# (2.0 GHz) virtual machine the benchmark was tuned on, with Python 3.11.
REFERENCE_PROBE_S = 0.000090

_SEQUENCE = tuple((i * 2654435761 >> 7) % 3 for i in range(1200))
_WORDS = tuple(_SEQUENCE[i:i + 8] for i in range(0, 1200, 3))
_INDEX = {word: n for n, word in enumerate(_WORDS)}


def probe() -> int:
    """Looks up each of 400 words of up to eight letters, hashing it anew.
    It allocates no container, so it never sets off a garbage collection
    of the program's objects, whose time would count as the machine's."""
    s = 0
    for i in range(len(_WORDS)):
        s += _INDEX[_WORDS[i]] + i * i % 7
    return s


class Speedometer:
    """Times ``probe`` on every tick of a wall-clock timer.

    ``count`` and ``total`` accumulate over the samples; a caller reads
    them before and after the span it measures.  ``total`` is also the
    time the probes took away from the program, which the caller leaves
    out of the span's time."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.count = 0
        self.total = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        probe()
        self.total += time.perf_counter() - start
        self.count += 1

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def reference_seconds(seconds: float, samples: int, probe_total: float) -> float:
    """``seconds`` of program time, during which ``samples`` probes took
    ``probe_total`` in all, rescaled to the reference speed.  Without a
    sample the time is returned as measured."""
    if samples == 0:
        return seconds
    return seconds * REFERENCE_PROBE_S * samples / probe_total
