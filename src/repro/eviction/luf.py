"""Least Used in the Future — the paper's Algorithm 6 (DARTS+LUF).

When an eviction is needed on GPU ``k``:

1. for each resident candidate ``D``, compute ``nb(D)`` (uses of ``D`` by
   tasks in ``taskBuffer_k`` — tasks already handed to the runtime, whose
   placement cannot change) and ``np(D)`` (uses by tasks in
   ``plannedTasks_k`` — reserved by DARTS but still revocable);
2. if some candidate has ``nb(D) = 0``, evict the one among them with
   minimal ``np(D)``;
3. otherwise fall back to Belady's rule over the task buffer: evict the
   candidate whose next use there is furthest in the future.

``nb(D) = 0`` is read as absence from the buffer's inputs, and ``np``
is counted only when every such candidate is also planned.

The scheduler is then notified through ``on_data_evicted`` and removes
the planned tasks that depended on the victim (Algorithm 6, line 8) —
that part lives in :class:`repro.schedulers.darts.Darts`.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.eviction.base import EvictionPolicy


class LufPolicy(EvictionPolicy):
    """Least Used in the Future (Algorithm 6)."""

    name = "luf"

    def choose_victim(self, candidates: Set[int]) -> int:
        assert self.view is not None
        graph = self.view.graph
        inputs_of = graph.inputs_of
        buffer = self.view.task_buffer(self.gpu)
        used: Set[int] = set()
        for t in buffer:
            used.update(inputs_of(t))
        unused = candidates - used
        if unused:
            planned = (
                self.scheduler.planned_tasks(self.gpu)
                if self.scheduler is not None
                else ()
            )
            in_plan: Set[int] = set()
            for t in planned:
                in_plan.update(inputs_of(t))
            never = unused - in_plan
            if never:
                return min(never)
            np_: Dict[int, int] = dict.fromkeys(unused, 0)
            for t in planned:
                for d in inputs_of(t):
                    if d in np_:
                        np_[d] += 1
            return min(np_, key=lambda d: (np_[d], d))
        # Belady fallback over the task buffer (rarely reached, per paper).

        def next_use(d: int) -> int:
            for offset, t in enumerate(buffer):
                if d in graph.inputs_of(t):
                    return offset
            return len(buffer)  # unreachable given nb[d] > 0, kept safe

        return max(sorted(candidates), key=lambda d: (next_use(d), -d))
