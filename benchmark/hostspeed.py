"""Host-speed sampling, so timings taken on a shared host are comparable.

On a host shared with other tenants, the same single-threaded code runs up
to ~1.5x slower for stretches of seconds (CPU time and wall time slow down
together, so this is not preemption). While a measured section runs, a
SIGPROF timer interrupts it every TICK_S of CPU time to time a small fixed
loop of interpreter and numpy work. The section's seconds, minus the time
spent in those samples, are multiplied by REFERENCE_S / mean(sample time):
that is, they are reported at the host's reference speed.
"""

from __future__ import annotations

import signal
import time

import numpy as np

TICK_S = 0.02
# median time of _probe() on the host the benchmark was defined on
# (2 vCPU Xeon at 2.1 GHz, Python 3.11, numpy 2.4)
REFERENCE_S = 3.5e-4


def _probe() -> float:
    started = time.perf_counter()
    total = 0
    for i in range(800):
        total += i * i % 7
    vec = np.ones(1)
    for _ in range(40):
        total += float(np.dot(vec, vec * vec) + np.dot(vec, vec))
    text = ",".join(f"{k * 0.1:.17g}" for k in range(150))
    del total, text
    return time.perf_counter() - started


class HostSpeed:
    """Context manager that samples host speed while it is active."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.samples = []
        self._previous = None

    def _tick(self, signum, frame):
        self.samples.append(_probe())

    def __enter__(self):
        if self.enabled:
            self._previous = signal.signal(signal.SIGPROF, self._tick)
            signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, self._previous)
            self.samples.append(_probe())
        return False

    def scaled(self, seconds: float) -> float:
        """Seconds measured inside the context, at the reference speed."""
        if not self.enabled:
            return seconds
        spent = sum(self.samples[:-1])
        return (seconds - spent) * REFERENCE_S / (sum(self.samples) / len(self.samples))
