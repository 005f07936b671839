"""A fixed reference workload, timed at a steady cadence through a run, that
scales the end-to-end times to one machine speed.

The benchmark's host is shared: the speed it gives this process drifts with
other tenants' load, by up to ~2x for Python-heavy code, over seconds and
minutes. Every kind of work slows together (see README.md, "Steadiness"),
so the time of a fixed piece of work, taken while a phase runs, measures
the slowdown that phase met. A phase's scaled time is its time with the
probes taken out, divided by the mean probe time around it over
REFERENCE_S. The probe does not touch mvclda.

A SIGALRM interval timer runs the probe every INTERVAL_S; Python runs the
handler between bytecodes of the main thread, so probes land inside long
phases too (after the numpy call in progress returns).
"""

from __future__ import annotations

import bisect
import random
import signal
import time

import numpy as np

INTERVAL_S = 0.2
# the probe's time on the reference machine (README.md) in a quiet moment;
# scaled times are times at the speed that gives the probe this time
REFERENCE_S = 0.0095


# allocated once, so that the probe leaves the program's heap alone
_MAT = np.linspace(0.0, 1.0, 160 * 160).reshape(160, 160)
_PROD = np.empty_like(_MAT)
_BIG = np.linspace(0.0, 1.0, 500_000)
_SCALED = np.empty_like(_BIG)


def reference_work() -> None:
    """A Python integer loop, dictionary and string work and small numpy
    calls, then matrix products and passes over a 4 MB array: the two kinds
    of work the pipeline's time goes to, which a busy host slows by
    different amounts (README.md, "Steadiness")."""
    acc = 0
    for i in range(30_000):
        acc += i & 7
    counts: dict[str, int] = {}
    rng = random.Random(1)
    for _ in range(5_000):
        key = "w%d" % rng.randrange(1000)
        counts[key] = counts.get(key, 0) + 1
    base = np.linspace(-1.0, 1.0, 64)
    v = base.copy()
    for _ in range(400):
        v = np.tanh(v * 0.5 + base)
    for _ in range(3):
        np.matmul(_MAT, _MAT, out=_PROD)
        float(np.multiply(_BIG, 1.0001, out=_SCALED).sum())


class Prober:
    """Runs `reference_work` every INTERVAL_S between `start` and `stop`
    and keeps each probe's (start_ns, end_ns)."""

    def __init__(self):
        self.starts: list[int] = []
        self.ends: list[int] = []
        self._previous = None

    def _on_alarm(self, _signum, _frame) -> None:
        t0 = time.perf_counter_ns()
        reference_work()
        self.starts.append(t0)
        self.ends.append(time.perf_counter_ns())

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    # -- scaling -------------------------------------------------------------
    def _window(self, start_ns: int, end_ns: int, margin_ns: int = 0) -> range:
        lo = bisect.bisect_left(self.starts, start_ns - margin_ns)
        hi = bisect.bisect_right(self.ends, end_ns + margin_ns)
        return range(lo, max(lo, hi))

    def probe_ns(self, start_ns: int, end_ns: int) -> int:
        """Time spent in probes that ran inside [start_ns, end_ns]."""
        return sum(self.ends[i] - self.starts[i] for i in self._window(start_ns, end_ns))

    def slowdown(self, start_ns: int, end_ns: int) -> float:
        """Mean probe time over REFERENCE_S, over the probes inside the
        interval and the nearest one on each side of it."""
        idx = self._window(start_ns, end_ns, margin_ns=int(INTERVAL_S * 1e9))
        if not idx:  # a long numpy call held the handler back: the nearest
            lo = bisect.bisect_left(self.starts, start_ns)
            idx = [i for i in (lo - 1, lo) if 0 <= i < len(self.starts)]
        mean = sum(self.ends[i] - self.starts[i] for i in idx) / len(idx) / 1e9
        return mean / REFERENCE_S

    def scaled(self, start_ns: int, end_ns: int) -> float:
        """Seconds of [start_ns, end_ns], probes taken out, at reference speed."""
        net = (end_ns - start_ns - self.probe_ns(start_ns, end_ns)) / 1e9
        return net / self.slowdown(start_ns, end_ns)
