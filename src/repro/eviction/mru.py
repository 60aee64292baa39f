"""Most Recently Used eviction (ablation baseline).

MRU is the classic antidote to cyclic-scan patterns that defeat LRU:
when a working set loops over more data than fit, evicting the *most*
recently used datum keeps the rest of the loop resident.  Included to
show the paper's EAGER pathology is an LRU artefact, not a law.
"""

from __future__ import annotations

from typing import Set

from repro.eviction.lru import LruPolicy


class MruPolicy(LruPolicy):
    """Evict the candidate touched most recently.

    Reads LRU's recency order from the other end.  A candidate never
    touched counts as the oldest, so it goes only when no candidate is
    tracked, and then the lowest id goes.
    """

    name = "mru"

    def choose_victim(self, candidates: Set[int]) -> int:
        for d in reversed(self._recency):
            if d in candidates:
                return d
        return min(candidates)
