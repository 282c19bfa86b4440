"""Machine speed, measured beside the operations, to scale times to a fixed speed.

On a shared host the core this benchmark runs on changes speed by up to 2x
for seconds to minutes at a time, as other tenants load it: the reference
computation below takes 1.2 to 1.4 ms in one stretch and 2.3 to 2.9 ms in
the next.  Wall times of the same code then spread with the host's load,
not with the code.  So the runner times the reference between and inside
operations, and scales each piece of an operation's wall time by
(REFERENCE_S / the reference time around it) ** exponent: a time "at
reference speed".  The exponent is the workload's sensitivity to a loaded
core relative to the reference's: 1 unless the workload measured otherwise.

The reference does the two kinds of work polycf does -- interpreted
Fraction arithmetic and big-integer products with a gcd -- and is the
geometric mean of the two parts' times, because a loaded core slows the
first about twice as much as the second.  It is the benchmark's own code and
never calls polycf, so a change to polycf moves scaled times just as it
would move wall times on a steady machine.
"""

from __future__ import annotations

import contextlib
import gc
import math
import signal
import time
from fractions import Fraction
from statistics import median

# About the reference computation's time on an idle core of the machine the
# benchmark was made on (Intel Xeon, 2 vCPUs; 2.3 to 2.9 ms when its host is
# busy).  It fixes only the scale of scaled times.
REFERENCE_S = 0.00125
# Each reading is the median of this many timings of each part.
REPEATS = 3
# Seconds of operation time between two readings.
SEGMENT_S = 0.25


def _fraction_part() -> Fraction:
    """Product of two degree-11 Fraction polynomials, evaluated at 7 points."""
    p = [Fraction(i + 1, i + 2) for i in range(12)]
    q = [Fraction(2 * i + 1, 3) for i in range(12)]
    r = [Fraction(0)] * 23
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            r[i + j] += a * b
    acc = Fraction(0)
    for x in range(1, 8):
        v = Fraction(0)
        for c in reversed(r):
            v = v * Fraction(x, 7) + c
        acc += v
    return acc


def _bigint_part() -> int:
    """500 steps of the Apery recurrence in plain ints, then a gcd."""
    p0, p1, q0, q1 = 1, 5, 0, 1
    for n in range(1, 500):
        a = ((34 * n + 51) * n + 27) * n + 5
        b = -(n**6)
        p0, p1 = p1, a * p1 + b * p0
        q0, q1 = q1, a * q1 + b * q0
    return math.gcd(p1, q1)


def reference_seconds() -> float:
    """One reading: the reference computation's time now, garbage collector off."""
    parts = ([], [])
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REPEATS):
            for times, part in zip(parts, (_fraction_part, _bigint_part)):
                t0 = time.perf_counter()
                part()
                times.append(time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return math.sqrt(median(parts[0]) * median(parts[1]))


class Gauge:
    """Readings of the reference, between operations and inside long ones.

    Each operation runs inside op(); its wall time is cut into pieces at the
    readings, and each piece is scaled by (REFERENCE_S / the mean of the
    readings at its two ends) ** exponent.  A reading is taken once SEGMENT_S of
    operation time has gathered since the last one: between operations, or
    inside a long operation from a SIGALRM handler (the reading's own time
    is left out of the operation's).  collect() returns the wall and scaled
    seconds of each operation since the last collect().
    """

    def __init__(self):
        self.exponent = 1.0  # the workload's speed_exponent, once it is known
        self.last = reference_seconds()
        self.readings = [self.last]
        self._pieces: list[tuple[int, float]] = []  # (slot, wall seconds) since the last reading
        self._wall: list[float] = []
        self._scaled: list[float] = []
        self._slot = None  # slot of the running operation
        self._start = 0.0  # start of its open piece
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _gathered(self) -> float:
        return sum(d for _, d in self._pieces)

    def _close_piece(self, slot: int):
        d = time.perf_counter() - self._start
        self._pieces.append((slot, d))
        self._wall[slot] += d

    def _read(self):
        now = reference_seconds()
        factor = (REFERENCE_S / ((self.last + now) / 2)) ** self.exponent
        for slot, d in self._pieces:
            self._scaled[slot] += d * factor
        self._pieces.clear()
        self.last = now
        self.readings.append(now)

    def _on_alarm(self, signum, frame):
        if self._slot is None:  # fired as the operation ended
            return
        self._close_piece(self._slot)
        self._read()
        signal.setitimer(signal.ITIMER_REAL, SEGMENT_S)
        self._start = time.perf_counter()

    @contextlib.contextmanager
    def op(self, read_inside: bool = True):
        """Time one operation; with read_inside, readings may interrupt it."""
        self._wall.append(0.0)
        self._scaled.append(0.0)
        self._start = time.perf_counter()
        self._slot = len(self._wall) - 1
        if read_inside:
            signal.setitimer(signal.ITIMER_REAL, max(SEGMENT_S - self._gathered(), 0.001))
        try:
            yield
        finally:
            # the handler does nothing once the slot is cleared
            slot, self._slot = self._slot, None
            if read_inside:
                signal.setitimer(signal.ITIMER_REAL, 0)
            self._close_piece(slot)
        if self._gathered() >= SEGMENT_S:
            self._read()

    def flush(self):
        """Take a reading now if any operation time is unscaled."""
        if self._pieces:
            self._read()

    def collect(self) -> tuple[list[float], list[float]]:
        """(wall seconds, scaled seconds) per operation since the last collect."""
        self.flush()
        out = (self._wall, self._scaled)
        self._wall, self._scaled = [], []
        return out
