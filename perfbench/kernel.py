"""Fixed reference kernel that measures how fast this interpreter runs now.

The kernel does the kind of work the library's inner loops do: it builds a
dict keyed by tuples with frozenset values, then scans tuples of a small
carrier, looking entries up and taking unions and memberships.  Its work
never changes, so its time tracks only the machine's current speed.

Every timed operation is bracketed by kernel readings, and the kernel is
also run every SAMPLE_INTERVAL seconds while the operation runs (from a
SIGALRM handler, whose time is taken out of the operation's).  The
operation's time is scaled by K_NOMINAL / K_local, where K_local is the
mean kernel time over those passes, passes slower than three times their
median (the system interrupted them) left out.  K_NOMINAL is the kernel's
time at this machine's quiet speed, so scaled times read as seconds at
that speed; see README.md for how it was chosen.
"""
from __future__ import annotations

import itertools
import signal
import statistics
import time

K_NOMINAL = 0.000320
SIZE = 7
BRACKET_PASSES = 3
SAMPLE_INTERVAL = 0.01


def kernel():
    """One pass of the fixed work; returns a checksum so it cannot be
    skipped."""
    rng = range(SIZE)
    f = {(a, b): frozenset({(a + b) % SIZE, (a * b + 1) % SIZE})
         for a in rng for b in rng}
    g = {(a, b): (a * b) % SIZE for a in rng for b in rng}
    acc = 0
    for t in itertools.product(rng, repeat=3):
        left = f[(g[t[:2]], t[2])]
        right = f[(t[0], g[t[1:]])] | f[t[:2]]
        acc += len(left | right) + (t[2] in right)
    return acc


def kernel_time(passes=BRACKET_PASSES):
    """Times of several kernel passes, in seconds."""
    out = []
    for _ in range(passes):
        t0 = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t0)
    return out


def scale(readings):
    """K_NOMINAL / K_local for the kernel passes read around and during
    one operation."""
    cut = 3 * statistics.median(readings)
    kept = [r for r in readings if r <= cut]
    return K_NOMINAL * len(kept) / sum(kept)


class Meter:
    """Times operations one after another, reading the kernel around and
    during each.

    The reading after one operation is the reading before the next, so an
    operation costs one bracket reading plus its in-flight samples.
    """

    def __init__(self):
        self.before = kernel_time()
        self.samples = []
        self.paused = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.paused += time.perf_counter() - t0

    def measure(self, fn):
        """Run fn(); return its result, its seconds without the sampling,
        and the kernel readings that go with it."""
        self.samples = []
        paused = self.paused
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
        raw = t1 - t0 - (self.paused - paused)
        before, self.before = self.before, kernel_time()
        return out, raw, before + self.samples + self.before
