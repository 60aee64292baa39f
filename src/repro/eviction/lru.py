"""Least Recently Used — StarPU's default eviction policy.

The paper runs every scheduler except DARTS+LUF on LRU, and attributes
both EAGER's collapse on row-major 2D matmul and DARTS's "domino effect"
to pathological LRU behaviour under memory pressure.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.eviction.base import EvictionPolicy


class LruPolicy(EvictionPolicy):
    """Evict the candidate whose last load-or-use is the oldest.

    ``_recency`` lists the tracked data least recently touched first (a
    touch re-inserts the key).  An untracked candidate counts as older
    than any tracked one; among several, the lowest id goes.
    """

    name = "lru"

    def __init__(self, gpu, view=None, scheduler=None) -> None:
        super().__init__(gpu, view, scheduler)
        self._recency: Dict[int, None] = {}

    def _touch(self, d: int) -> None:
        recency = self._recency
        recency.pop(d, None)
        recency[d] = None

    def on_insert(self, data_id: int) -> None:
        self._touch(data_id)

    def on_access(self, data_id: int) -> None:
        self._touch(data_id)

    def on_evict(self, data_id: int) -> None:
        self._recency.pop(data_id, None)

    def choose_victim(self, candidates: Set[int]) -> int:
        recency = self._recency
        if recency.keys() >= candidates:
            for d in recency:
                if d in candidates:
                    return d
        return min(candidates - recency.keys())
