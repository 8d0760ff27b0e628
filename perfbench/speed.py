"""Machine-speed probe: a fixed pure-Python kernel run on a timer.

The host's CPUs change speed in phases of a second to minutes (see the
README's "Noise"), by up to a factor of two, and no accounting the
process can read shows it. A run's raw times move with those phases.
The probe measures them as the run goes: an interval timer raises
SIGALRM every INTERVAL_S seconds, and the handler runs kernel() twice,
once to win back the caches the workload has taken and once timed. The
kernel mixes dict and str work, integer arithmetic, scattered reads of a
small list and small-object allocation, the kinds of work the package's
Python code does. Timed cold, or with a larger list, it measured cache
misses more than the CPU's speed and tracked the package's code worse.

For a timed interval, norm_s() takes out the probes' own time and
scales the rest by REFERENCE_NS / (mean timed kernel near the interval):
the interval's length at the speed where one kernel takes REFERENCE_NS.
The kernel never touches the package, so a change to the package moves
normalised times as it moves raw ones.

While the process has live child processes (a Pool's workers) the probe
skips its turn: the children load the same CPUs, so the kernel would
measure their load, not the host's speed. Interval timers are not
inherited across fork, so the workers run no probes either.
"""

from __future__ import annotations

import random
import signal
import time
from multiprocessing import process

INTERVAL_S = 0.04
# Shortest stretch of time whose probes set the speed of an interval.
SPEED_WINDOW_S = 1.0
# One kernel's time on the machine the README describes, at its usual
# speed; it only fixes the scale of normalised times.
REFERENCE_NS = 1_000_000

_TABLE = list(range(4_096))
random.Random(0).shuffle(_TABLE)


def kernel() -> int:
    d: dict[int, int] = {}
    s = 0
    for i in range(900):
        d[i & 255] = d.get(i & 255, 0) + i
        s += len(str(i))
    for i in range(2_500):
        s = (s * 31 + i) & 0xFFFFFFF
    table = _TABLE
    for i in range(0, 4_096, 2):
        s += table[table[i]]
    items = [(i, -i, frozenset((i, i & 7))) for i in range(120)]
    items.sort(key=lambda t: t[1])
    return s + items[0][0]


class SpeedProbe:
    """Runs kernel() every INTERVAL_S seconds between start() and stop()."""

    def __init__(self) -> None:
        # (start ns, probe ns, timed kernel ns) per probe, in time order.
        self.samples: list[tuple[int, int, int]] = []
        self._old_handler = None

    def _tick(self, _signum, _frame) -> None:
        if process._children:  # multiprocessing's set of live children
            return
        t0 = time.perf_counter_ns()
        kernel()
        t1 = time.perf_counter_ns()
        kernel()
        t2 = time.perf_counter_ns()
        self.samples.append((t0, t2 - t0, t2 - t1))

    def start(self) -> None:
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler or signal.SIG_DFL)

    def inside(self, t0_ns: int, t1_ns: int) -> list[tuple[int, int, int]]:
        """The probes that started in [t0_ns, t1_ns)."""
        return [p for p in self.samples if t0_ns <= p[0] < t1_ns]

    def net_ns(self, t0_ns: int, t1_ns: int) -> int:
        """The length of [t0_ns, t1_ns) less the probes inside it."""
        return t1_ns - t0_ns - sum(p[1] for p in self.inside(t0_ns, t1_ns))

    def norm_s(self, t0_ns: int, t1_ns: int) -> float:
        """Seconds the work in [t0_ns, t1_ns) takes at the reference speed.

        The speed is the mean timed kernel of the probes inside the
        interval, widened about its middle to SPEED_WINDOW_S if shorter
        and doubled until it holds a probe.
        """
        if not self.samples:
            raise RuntimeError("no speed probe ran")
        mid = (t0_ns + t1_ns) // 2
        half = max(t1_ns - t0_ns, int(SPEED_WINDOW_S * 1e9)) // 2
        while not (ref := self.inside(mid - half, mid + half)):
            half *= 2
        speed = REFERENCE_NS * len(ref) / sum(p[2] for p in ref)
        return self.net_ns(t0_ns, t1_ns) * speed / 1e9
