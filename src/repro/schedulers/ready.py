"""The Ready reordering heuristic (paper Algorithm 2).

Given a list of tasks already allocated to a GPU, repeatedly start the
task *requiring the fewest data transfers* given what the GPU memory
currently holds (resident or already being fetched).  Shared by DMDAR,
hMETIS+R, mHFP and FIXED+R through :class:`ReadyScheduler`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Set

from repro.schedulers.base import Scheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.runtime import RuntimeView


class ReadyLists:
    """Per-GPU task lists with Ready-order popping.

    ``last_scanned`` exposes how many queue entries the latest
    :meth:`pop_ready` examined, so schedulers can charge decision
    operations to the runtime's virtual scheduler clock.

    :meth:`pop_ready` reads a per-GPU missing-bytes array, built from the
    view's held-sets at construction and updated by :meth:`on_fetch_issued`
    / :meth:`on_data_evicted` as the owner scheduler receives those hooks.
    The cache always equals a fresh ``missing_bytes`` sum: every held-set
    entry arrives with an event (fetch issue or output allocation), and
    data sizes are whole bytes, so the float ``±size`` updates are exact
    in any order.  ``check_incremental`` asserts the equality (tests).
    """

    def __init__(
        self, view: "RuntimeView", parts: Sequence[Iterable[int]]
    ) -> None:
        self.view = view
        self.lists: List[List[int]] = [[] for _ in range(view.n_gpus)]
        for gpu, part in enumerate(parts):
            self.lists[gpu].extend(part)
        self.last_scanned = 0
        #: GPUs removed from the device set by :meth:`drop_gpu`
        self._dead: Set[int] = set()
        graph = view.graph
        self._graph = graph
        self._sizes = sizes = [d.size for d in graph.data]
        #: per-GPU missing bytes per task
        self._mb: List[List[float]] = []
        for g in range(view.n_gpus):
            held = view.held(g)
            self._mb.append(
                [
                    sum(sizes[d] for d in graph.inputs_of(t) if d not in held)
                    for t in range(graph.n_tasks)
                ]
            )

    def on_fetch_issued(self, gpu: int, data_id: int) -> None:
        mb = self._mb[gpu]
        sz = self._sizes[data_id]
        for t in self._graph.users_of(data_id):
            mb[t] -= sz

    def on_data_evicted(self, gpu: int, data_id: int) -> None:
        mb = self._mb[gpu]
        sz = self._sizes[data_id]
        for t in self._graph.users_of(data_id):
            mb[t] += sz

    def drop_gpu(self, gpu: int, requeued: Iterable[int]) -> None:
        """Remove ``gpu`` from the device set, redistributing its tasks.

        ``requeued`` (the tasks the runtime pulled back from the dead
        GPU's buffer) plus whatever was still allocated to it are handed
        to the surviving lists, each orphan going to the currently
        shortest list (ties to the lowest GPU index — deterministic).
        The dead GPU's list is left empty so ``steal_half`` never picks
        it as a victim and ``pop_*`` never returns work for it.
        """
        self._dead.add(gpu)
        orphans = list(requeued) + self.lists[gpu]
        self.lists[gpu] = []
        alive = [
            g for g in range(len(self.lists)) if g not in self._dead
        ]
        if not alive:
            raise RuntimeError("drop_gpu removed the last surviving GPU")
        for task in orphans:
            target = min(alive, key=lambda g: (len(self.lists[g]), g))
            self.lists[target].append(task)

    def check_incremental(self) -> None:
        """Assert the cache equals fresh ``missing_bytes`` (tests)."""
        for g in range(len(self.lists)):
            if g in self._dead:
                continue  # wiped memory makes the cached rows stale
            for t in range(self._graph.n_tasks):
                fresh = self.view.missing_bytes(g, t)
                assert self._mb[g][t] == fresh, (
                    f"gpu{g} task{t}: cached {self._mb[g][t]} != {fresh}"
                )

    def pop_ready(self, gpu: int) -> Optional[int]:
        """Remove and return the task with the fewest missing bytes.

        Ties go to list position, preserving the allocation order the
        partitioning/packing phase chose.  Tasks whose dependencies have
        not completed yet are skipped; returns ``None`` when no task in
        the list is released (the list may still be non-empty).
        """
        lst = self.lists[gpu]
        is_released = self.view.is_released
        self.last_scanned = 0
        best_pos = -1
        best_missing = float("inf")
        mb = self._mb[gpu]
        for pos, task in enumerate(lst):
            self.last_scanned += 1
            if not is_released(task):
                continue
            missing = mb[task]
            if missing < best_missing:
                best_pos, best_missing = pos, missing
                if missing == 0:
                    break
        if best_pos < 0:
            return None
        return lst.pop(best_pos)

    def pop_fifo(self, gpu: int) -> Optional[int]:
        """Head pop (DMDA without Ready): first *released* task."""
        lst = self.lists[gpu]
        if not self.view.has_dependencies:
            return lst.pop(0) if lst else None
        for pos, task in enumerate(lst):
            if self.view.is_released(task):
                return lst.pop(pos)
        return None

    def steal_half(self, thief: int) -> bool:
        """Task stealing used by hMETIS+R and mHFP (paper §IV-B).

        The idle GPU takes half of the remaining tasks of the most loaded
        GPU, from the tail of its list (the paper observed more slack for
        communication near the end of a package).  Returns True if any
        task moved.
        """
        victims = [
            (len(lst), k)
            for k, lst in enumerate(self.lists)
            if k != thief and lst
        ]
        if not victims:
            return False
        load, victim = max(victims, key=lambda lv: (lv[0], -lv[1]))
        take = max(1, load // 2)
        moved = self.lists[victim][-take:]
        del self.lists[victim][-take:]
        self.lists[thief].extend(moved)
        return True


class ReadyScheduler(Scheduler):
    """Base of the strategies that run per-GPU :class:`ReadyLists`.

    A subclass builds ``self._lists`` in ``prepare`` (DMDA's allocation,
    hMETIS+R's partition, mHFP's packages, a FIXED schedule) and sets
    ``use_ready`` / ``use_stealing``.  This base pops each GPU's next
    task — Ready order or list head — and, once that GPU's list is
    empty, steals half of the most loaded list when stealing is on.
    """

    use_ready = True
    use_stealing = False
    _lists: ReadyLists

    def next_task(self, gpu: int) -> Optional[int]:
        while True:
            if self.use_ready:
                task = self._lists.pop_ready(gpu)
                self.charge_ops(self._lists.last_scanned)
            else:
                task = self._lists.pop_fifo(gpu)
                self.charge_ops(1)
            if task is not None:
                return task
            if self._lists.lists[gpu]:
                return None  # blocked on dependencies, not out of work
            if not (self.use_stealing and self._lists.steal_half(gpu)):
                return None

    def on_fetch_issued(self, gpu: int, data_id: int) -> None:
        self._lists.on_fetch_issued(gpu, data_id)

    def on_data_evicted(self, gpu: int, data_id: int) -> None:
        self._lists.on_data_evicted(gpu, data_id)

    def remaining_order(self, gpu: int) -> Sequence[int]:
        return tuple(self._lists.lists[gpu])
