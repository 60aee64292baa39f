"""Host-speed calibration for the end-to-end timings.

The host this benchmark was built on is a shared, noisy 2-vCPU machine:
the same cell takes anywhere between 0.65 s and 1.2 s depending on what
other tenants run, in phases that last 10-20 s.  A median over one run
cannot hide phases that long, so every timed piece of work is
bracketed by a *calibration probe* and normalized by it.

The probe is fixed work written here, in the benchmark, so no change
to the simulator moves it.  It mixes the three kinds of work the
simulator does, because a slow phase does not slow them equally:
integer arithmetic, small-object churn (dict, set, heap, attribute
access) and pointer chasing over a table larger than the private
caches.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time
from typing import List

#: probe seconds that define the reference host speed (a round figure
#: between the probe times of the host above in its fast and slow phases)
REFERENCE_PROBE_S = 0.035

_INT_ITERS = 150_000
_OBJ_ITERS = 8_000
_TABLE_SIZE = 1 << 15
_CHASE_STEPS = 40_000


class _Item:
    __slots__ = ("key", "hits")

    def __init__(self, key: int) -> None:
        self.key = key
        self.hits = 0


def _integer_loop() -> int:
    acc = 0
    for i in range(_INT_ITERS):
        acc += i * i
    return acc


def _object_loop() -> int:
    heap: list = []
    table: dict = {}
    live: set = set()
    for i in range(_OBJ_ITERS):
        k = (i * 7919) % 1009
        item = table.get(k)
        if item is None:
            item = table[k] = _Item(k)
        item.hits += 1
        heapq.heappush(heap, (item.hits + k * 0.5, i, item))
        if k in live:
            live.discard(k)
        else:
            live.add(k)
        if len(heap) > 64:
            heapq.heappop(heap)
    return len(live)


class HostClock:
    """Normalizes wall times by the probes run around them.

    A probe runs before the first piece of timed work and after each
    one.  A wall time ``w`` is normalized by the mean ``p`` of the four
    probes nearest to it, two on each side, which smooths out a probe
    that fell into a short burst: ``w * REFERENCE_PROBE_S / p`` is the
    time the work would take on a host whose probe runs in
    ``REFERENCE_PROBE_S``.
    """

    def __init__(self) -> None:
        rng = random.Random(0)
        self._table = [[i] for i in range(_TABLE_SIZE)]
        self._chase = [rng.randrange(_TABLE_SIZE) for _ in range(_CHASE_STEPS)]
        self.probes: List[float] = [self.probe()]

    def _pointer_chase(self) -> int:
        table = self._table
        acc = 0
        for i in self._chase:
            acc += table[i][0]
        return acc

    def probe(self) -> float:
        """Wall seconds of one calibration probe."""
        t0 = time.perf_counter()
        _integer_loop()
        _object_loop()
        self._pointer_chase()
        return time.perf_counter() - t0

    def mark(self) -> int:
        """Probe the host after a piece of work that ended just now.

        Returns the index of the probe that ran just before that work;
        pass it to :meth:`normalize` once the later probes exist too.
        """
        self.probes.append(self.probe())
        return len(self.probes) - 2

    def normalize(self, wall_s: float, mark: int) -> float:
        """``wall_s`` of the work recorded by ``mark``, normalized."""
        window = self.probes[max(0, mark - 1): mark + 3]
        return wall_s * REFERENCE_PROBE_S / statistics.fmean(window)

    def calibration_ms(self) -> float:
        """Median probe time of this run, in milliseconds."""
        return statistics.median(self.probes) * 1e3
