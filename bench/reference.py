"""A fixed reference loop, timed at intervals inside a worker, that scales
its measured times to one machine speed.

The speed of a small shared machine drifts: the same audit sweep can take
twice as long from one minute to the next, with CPU time tracking wall
time, so a median of raw seconds over a run measures the machine as much
as the program.  The worker therefore arms a one-shot ``SIGALRM`` timer:
after every ``INTERVAL_S`` of its own work the handler times one pass of
``reference_loop`` (plain Python: small objects, dict and frozenset
lookups, integer bit operations, like the audits), re-arms the timer and
books its own time as paused, not as work.  The garbage collector is off
during a pass: a full collection of the program's heap landing in one
pass would outweigh the rest, and a pass frees all it allocates, so the
program's collections come when they would have come anyway.  A window of
work (set-up, or the audits) is then reported as

    scaled seconds = work seconds * REFERENCE_S / mean reference time

where the mean is over the passes timed inside that window: the time the
work would have taken had the machine run the reference loop in
``REFERENCE_S``.  The raw seconds are kept beside it.
"""
from __future__ import annotations

import gc
import signal
import time

INTERVAL_S = 0.04
# about one pass of reference_loop on an idle core of a 2-core x86-64
# machine under CPython 3.11; a fixed constant, it only sets the scale
REFERENCE_S = 0.0025


class _Cell:
    __slots__ = ("bits", "next")

    def __init__(self, bits: int, nxt: "_Cell | None") -> None:
        self.bits = bits
        self.next = nxt

    def meet(self, other: "_Cell") -> int:
        return self.bits & other.bits


def reference_loop(n: int = 2000) -> int:
    memo: dict = {}
    acc = 0
    cell = None
    for i in range(n):
        cell = _Cell((i * 2654435761) & 0xFFFFFFFFFFFF, cell)
        key = (i & 31, cell.bits & 7)
        hit = memo.get(key)
        if hit is None:
            memo[key] = hit = frozenset({i & 15, key[0]})
        acc ^= cell.meet(cell.next or cell) >> (len(hit) & 3)
        acc = sum(b for b in (acc >> 8, i) if b & 1) + len(str(i))
    return acc


class Ticker:
    """Times ``reference_loop`` every ``INTERVAL_S`` of work, from SIGALRM.

    ``window()`` closes the current window of work: it times one more pass
    (so no window is without one) and returns the window's raw work
    seconds and mean reference time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.paused = 0.0
        self._opened = (0.0, 0, 0.0)  # perf_counter, samples, paused at open

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        self._opened = (time.perf_counter(), 0, 0.0)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _probe(self) -> float:
        collecting = gc.isenabled()
        gc.disable()
        began = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - began)
        if collecting:
            gc.enable()
        return began

    def _tick(self, signum, frame) -> None:
        began = self._probe()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        self.paused += time.perf_counter() - began

    def window(self) -> tuple[float, float, int]:
        """(work seconds, mean reference seconds, passes) since the last
        window closed; a new window opens when the closing pass is done."""
        closed = time.perf_counter()
        opened, first, paused = self._opened
        work = closed - opened - (self.paused - paused)
        self._probe()
        taken = self.samples[first:]
        self._opened = (time.perf_counter(), len(self.samples), self.paused)
        return work, sum(taken) / len(taken), len(taken)
