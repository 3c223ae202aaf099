"""Host-speed reference: a fixed piece of work timed all through a run.

On a shared virtual machine the same call can take 1x to 2x its fastest
time, and the host switches between fast and slow phases every few seconds
to minutes, so raw wall times of runs made minutes apart spread more than
any change worth measuring. The benchmark therefore samples the host's
speed all through the run: a ``SIGALRM`` timer interrupts the program every
``INTERVAL_S`` of wall time and times one pass of this reference work, and
the run's times are scaled to a host on which a pass takes ``REFERENCE_S``:

    scaled = seconds * REFERENCE_S / mean(passes taken while timing)

The passes fall inside the timed calls, evenly in wall time, so the fast and
slow stretches of the host weigh the same in the passes' mean as in the
calls' summed time. ``HostClock.now`` leaves out the time spent in passes,
so a call timed with it does not count them. A single pass reads
anywhere from 0.5x to 2x its median; the mean over 100 and more passes a
run does not.

The reference does what the simulator spends its time on: ordered
dataclasses on a heap, keyed blake2b draws, dict updates and deep copies,
all in plain Python. It lives in the benchmark's own files, so a change to
coopmesh never changes its work.
"""

from __future__ import annotations

import copy
import hashlib
import heapq
import signal
import statistics
import struct
from dataclasses import dataclass, field
from time import perf_counter

# One pass's typical time on a 2-vCPU Intel Xeon virtual machine with
# Python 3.11.7; scaled times read close to raw times there.
REFERENCE_S = 0.02
REFERENCE_STEPS = 2250
# Wall time between passes: a pass every quarter second samples phases that
# last a few seconds, at about 8% of the run's time.
INTERVAL_S = 0.25


@dataclass(order=True)
class _Event:
    slot: int
    priority: int
    event_id: int
    payload: object = field(compare=False, default=None)


def reference_work(steps: int = REFERENCE_STEPS) -> int:
    queue: list[_Event] = []
    totals: dict[int, float] = {}
    state = {
        "nodes": [
            {"id": i, "neighbors": list(range(i, i + 8)), "rank": 1.0 * i}
            for i in range(30)
        ]
    }
    for i in range(steps):
        material = struct.pack("<qqq", 7, i, i % 13)
        u = int.from_bytes(hashlib.blake2b(material, digest_size=8).digest(), "little") / 2**64
        heapq.heappush(queue, _Event(int(u * 1000) + i, i % 3, i))
        if len(queue) > 300:
            event = heapq.heappop(queue)
            key = event.event_id % 101
            totals[key] = totals.get(key, 0.0) + u
        if i % 600 == 0:
            copy.deepcopy(state)
    return len(totals)


class HostClock:
    """Samples the host's speed while started, and keeps the time spent on
    it out of ``now``. Unstarted, ``now`` is ``perf_counter``."""

    def __init__(self):
        reference_work()  # untimed: let the interpreter specialise it
        self.references: list[float] = []
        self._in_passes = 0.0
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a pass outlasted the interval; skip, do not nest
            return
        self._busy = True
        start = perf_counter()
        reference_work()
        self.references.append(perf_counter() - start)
        self._in_passes += perf_counter() - start
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> float:
        """``perf_counter`` minus the time spent in reference passes."""
        while True:
            spent = self._in_passes
            now = perf_counter()
            if self._in_passes == spent:  # no pass ran in between
                return now - spent

    def scale(self, seconds: float, first: int = 0, last: int | None = None) -> float:
        """``seconds`` of this run's host time on the reference host, by the
        passes ``references[first:last]``; by the next pass, or else the
        last, when none fell in that stretch."""
        passes = (
            self.references[first:last]
            or self.references[first:first + 1]
            or self.references[-1:]
        )
        return seconds * REFERENCE_S / statistics.fmean(passes)
