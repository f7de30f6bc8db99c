"""A speed gauge for the shared machine the benchmark runs on.

The benchmark runs on a few cores of a shared host whose speed changes with
its neighbours' load, from one second to the next and over minutes: the
same code can take up to twice as long, and more while the host takes the
CPU away.  So a run times a short, fixed pure-Python probe every
PROBE_INTERVAL_S between its operations, and scales each timed interval by
REFERENCE_S over the median probe time within WINDOW_S of it.  A scaled
time reads as the time the interval would have taken on a machine on which
the probe takes REFERENCE_S, so runs in slow and fast stretches of the host
measure the same figure.

The probe is an instruction dispatch loop over a stack and a dict
environment that appends to a log: the kind of work sasm's engines spend
their time on, with none of sasm's code, so a change to sasm never moves
it.  It runs with the cyclic collector off, so its time does not depend on
what the workload keeps alive.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

# The probe's time at full speed, in seconds: its best time on the 2-core
# x86-64 machine the benchmark was written on (CPython 3.11.7).
REFERENCE_S = 0.0045
PROBE_INTERVAL_S = 0.1
WINDOW_S = 0.3

_PROGRAM = (  # s = sum((i * i) % 7 for i in range(n))
    ("push", 0), ("store", "s"), ("push", 0), ("store", "i"),
    ("load", "i"), ("load", "n"), ("lt", None), ("jz", 21),
    ("load", "s"), ("load", "i"), ("load", "i"), ("mul", None),
    ("push", 7), ("mod", None), ("add", None), ("store", "s"),
    ("load", "i"), ("push", 1), ("add", None), ("store", "i"),
    ("jmp", 4), ("load", "s"), ("halt", None),
)


def probe(n: int = 1500) -> int:
    """Run the program above for n iterations; returns s plus the log's
    length."""
    env = {"n": n}
    stack: list = []
    log = []
    pc = 0
    while True:
        op, arg = _PROGRAM[pc]
        pc += 1
        log.append((op, pc))
        if op == "push":
            stack.append(arg)
        elif op == "load":
            stack.append(env[arg])
        elif op == "store":
            env[arg] = stack.pop()
        elif op == "jz":
            if not stack.pop():
                pc = arg
        elif op == "jmp":
            pc = arg
        elif op == "halt":
            return stack.pop() + len(log)
        else:
            b = stack.pop()
            a = stack.pop()
            stack.append(a < b if op == "lt" else a * b if op == "mul"
                         else a % b if op == "mod" else a + b)


class Gauge:
    """Probe times over a run, and the scale they give a timed interval."""

    def __init__(self):
        self.times: list[float] = []      # when each probe ended
        self.durations: list[float] = []  # how long each took
        self.spent = 0.0                  # seconds spent probing
        self._last = float("-inf")

    def tick(self) -> None:
        """Probe if PROBE_INTERVAL_S has passed since the last probe.  Call
        it only between timed operations."""
        start = time.perf_counter()
        if start - self._last < PROBE_INTERVAL_S:
            return
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            probe()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.times.append(end)
        self.durations.append(end - t0)
        self.spent += time.perf_counter() - start
        self._last = end

    def scale(self, start: float, seconds: float) -> float:
        """REFERENCE_S over the median time of the probes within WINDOW_S
        of the interval [start, start + seconds], or of the probes just
        before and after that window if none is in it."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, start + seconds + WINDOW_S)
        window = self.durations[lo:hi] or self.durations[max(lo - 1, 0):lo + 1]
        return REFERENCE_S / statistics.median(window)
