"""Drift-corrected timing: a fixed pure-Python reference kernel and the meter
that normalises every timed interval by it.

The CPU speed of a shared VM wanders by tens of percent within seconds, so
raw wall-clock figures from two runs of the same code disagree.  The meter
runs the reference kernel on a timer, every 30 ms, between and inside timed
intervals, and scales each interval by

    NOMINAL_REF_S / mean(reference shots around and inside it)

so that gated values read as seconds "at nominal speed".  The kernel calls
no collapsekit code; it uses the library's instruction mix (int bit
operations, tuple/set/dict churn, sorting and big-int arithmetic).

Each reference interval is guarded: the process must hold exactly one
thread and must not burn more CPU time than wall time.  Background work
left running by the code under test would slow the kernel, inflate the
reference and read as a fake speed-up, so the run is rejected instead.
"""

from __future__ import annotations

import bisect
import gc
import os
import signal
import statistics
import threading
import time

#: Median duration of one `reference_shot()` on the machine the benchmark
#: was calibrated on (2 vCPU x86-64 VM, CPython 3.11).  Changing it rescales
#: every gated time, so it is fixed here, not measured per run.
NOMINAL_REF_S = 0.0017

#: Wall time between reference shots.
PERIOD_S = 0.03

#: Expected checksum of one kernel pass; a mismatch means the kernel no
#: longer does the work it was calibrated with.
KERNEL_CHECKSUM = 21027139894167560


class GuardError(RuntimeError):
    """A reference interval saw extra threads or more CPU than wall time."""


def kernel() -> int:
    """One fixed pass of pure-Python work shaped like the library's."""
    acc = 0
    seen: dict[int, tuple[int, ...]] = {}
    for r in range(8):
        masks = [((i * 2654435761) ^ (r * 40503)) & 0x3FF for i in range(48)]
        faces = set()
        for m in masks:
            verts = tuple(v for v in range(10) if (m >> v) & 1)
            faces.add(verts)
            seen[m & 0xFF] = verts
        maximal = []
        for f in sorted(faces, key=len, reverse=True):
            fm = 0
            for v in f:
                fm |= 1 << v
            if not any(fm & ~g == 0 for g in maximal):
                maximal.append(fm)
        maximal.sort()
        big = 1
        for m in maximal[:12]:
            big = big * (m | 1) - (big >> 7)
        acc = (acc * 31 + big % 1_000_003 + len(seen)) % (1 << 61)
    return acc


def _thread_count() -> int:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def reference_shot() -> float:
    """Wall time of one kernel pass, guarded."""
    if threading.active_count() != 1 or _thread_count() != 1:
        raise GuardError(
            f"reference kernel needs a single-threaded process; found "
            f"{threading.active_count()} Python / {_thread_count()} OS threads"
        )
    # the kernel's garbage would otherwise trigger collections that walk
    # the library's heap inside the shot; with the collector off, a pending
    # collection runs later, in library code, and is charged to the op
    enabled = gc.isenabled()
    gc.disable()
    try:
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        got = kernel()
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
    finally:
        if enabled:
            gc.enable()
    if got != KERNEL_CHECKSUM:
        raise GuardError(
            f"reference kernel checksum {got} != {KERNEL_CHECKSUM}")
    if cpu > wall * 1.25 + 0.0002:
        raise GuardError(
            f"reference interval used {cpu * 1e3:.2f} ms CPU in "
            f"{wall * 1e3:.2f} ms wall: something else runs in this process"
        )
    return wall


class DriftMeter:
    """Samples the reference kernel on a timer and normalises intervals.

    SIGALRM fires every PERIOD_S seconds of wall time, also in the middle
    of a long op, and its handler runs one guarded reference shot.  Time
    spent in the handler is excluded from every measurement: `clock()` is
    wall time minus handler time.  An interval is normalised by the mean of
    the shots taken during it plus the last one before and the first one
    after it, so a 3-second op is corrected by ~100 shots and a 3 ms op by
    its two neighbours.  The mean, not the median: the speed flips between
    two states within a second, and the median of a bimodal window jumps
    between them (a 10 s nc-leray op spread 30% normalised by the median,
    4% by the mean).

    `norm_clock()` is a normalised clock for spans that do not map onto
    intervals (the traced pass's self times): each stretch between two
    shots advances it at the speed its opening shot measured, so a long
    call is normalised segment by segment as it runs.

    A guard failure inside the handler is kept in `violation` and re-raised
    by `check()`; raising from the handler would surface inside library
    code, which could catch it.
    """

    def __init__(self):
        self.stamps: list[float] = []   # clock() at each shot
        self.refs: list[float] = []     # shot durations
        self.raw: list[float] = []
        self.spans: list[tuple[float, float]] = []
        self.stolen = 0.0
        self.violation: GuardError | None = None
        self._busy = False
        self._norm_base = 0.0      # norm_clock() at the last shot
        self._factor = 0.0         # its speed since the last shot
        self._shot()
        self.check()
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _handler(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        try:
            self._shot()
        finally:
            self.stolen += time.perf_counter() - t0
            self._busy = False

    def _shot(self) -> None:
        stamp = self.clock()
        try:
            self.refs.append(reference_shot())
        except GuardError as exc:
            self.violation = self.violation or exc
            return
        if self.stamps:
            self._norm_base += (stamp - self.stamps[-1]) * self._factor
        self._factor = NOMINAL_REF_S / self.refs[-1]
        self.stamps.append(stamp)

    def clock(self) -> float:
        """Wall time minus the time spent in reference shots."""
        while True:
            before = self.stolen
            now = time.perf_counter()
            after = self.stolen
            if before == after:
                return now - after

    def norm_clock(self) -> float:
        """`clock()` at nominal speed, normalised segment by segment."""
        while True:
            shots = len(self.stamps)
            value = self._norm_base + (self.clock()
                                       - self.stamps[-1]) * self._factor
            if shots == len(self.stamps):
                return value

    def check(self) -> None:
        if self.violation is not None:
            raise self.violation

    def time(self, fn, *args):
        """Run fn(*args) as one timed interval; returns (index, result)."""
        t0 = self.clock()
        result = fn(*args)
        t1 = self.clock()
        self.raw.append(t1 - t0)
        self.spans.append((t0, t1))
        return len(self.raw) - 1, result

    def stop(self) -> None:
        """Stop the timer and restore the previous SIGALRM handler."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def close(self) -> None:
        """Stop the timer and take the closing shot."""
        self.stop()
        self._shot()
        self.check()

    def window(self, t0: float, t1: float) -> list[float]:
        """Shots inside [t0, t1] plus the nearest one on each side."""
        lo = max(bisect.bisect_left(self.stamps, t0) - 1, 0)
        hi = min(bisect.bisect_right(self.stamps, t1) + 1, len(self.refs))
        return self.refs[lo:hi]

    def normalised(self, index: int) -> float:
        t0, t1 = self.spans[index]
        return self.raw[index] * NOMINAL_REF_S / statistics.fmean(
            self.window(t0, t1))
