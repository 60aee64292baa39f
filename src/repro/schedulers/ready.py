"""The Ready reordering heuristic (paper Algorithm 2).

Given a list of tasks already allocated to a GPU, repeatedly start the
task *requiring the fewest data transfers* given what the GPU memory
currently holds (resident or already being fetched).  Shared by DMDAR,
hMETIS+R, mHFP and FIXED+R through :class:`ReadyScheduler`.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush, heapreplace
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set

from repro.schedulers.base import Scheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.runtime import RuntimeView


#: Heap entries pack ``(missing_bytes, slot)`` into one int:
#: ``missing_bytes << _SLOT_BITS | slot``.  A slot is the enlistment
#: counter, so it never reaches ``1 << _SLOT_BITS`` in practice.
_SLOT_BITS = 40
_SLOT_MASK = (1 << _SLOT_BITS) - 1


class ReadyLists:
    """Per-GPU task lists with Ready-order popping.

    ``last_scanned`` is how many queue entries the paper's linear scan
    would have examined for the latest :meth:`pop_ready`, so schedulers
    can charge decision operations to the runtime's virtual scheduler
    clock.

    Missing bytes come from a per-GPU array that holds a value only for
    the tasks listed on that GPU: :meth:`_enlist` computes it from the
    view's held-set, and :meth:`on_fetch_issued` / :meth:`on_data_evicted`
    update it for the listed users of the datum as the owner scheduler
    receives those hooks.  A listed task's value always equals a fresh
    ``missing_bytes`` sum: every held-set entry arrives with an event
    (fetch issue or output allocation), and data sizes are whole bytes.
    ``check_incremental`` asserts the equality (tests).

    The pop itself reads a per-GPU lazy min-heap keyed ``(missing bytes,
    slot)``.  Every enlistment at a list's tail takes the next *slot*
    from one global counter, so slot order is list order.  An entry may
    be stale (its task was popped or moved, so the slot no longer
    matches), superseded (a fetch pushed a lower key) or too low (an
    eviction raised the true key; evictions push nothing).  Stale and
    unreleased entries are dropped when they reach the top, too-low ones
    are re-keyed; an unreleased task re-enters through
    :meth:`on_task_done` once its last predecessor completes.  The
    invariant is that every released, listed task has an entry keyed at
    most its true key, which ``check_index`` asserts (tests).
    """

    def __init__(
        self, view: "RuntimeView", parts: Sequence[Iterable[int]]
    ) -> None:
        self.view = view
        n_gpus = view.n_gpus
        self.lists: List[List[int]] = [[] for _ in range(n_gpus)]
        self.last_scanned = 0
        #: GPUs removed from the device set by :meth:`drop_gpu`
        self._dead: Set[int] = set()
        graph = view.graph
        self._graph = graph
        self._sizes = [int(d.size) for d in graph.data]
        #: per-GPU missing bytes per task, current while it is listed there
        self._mb: List[List[int]] = [[0] * graph.n_tasks for _ in range(n_gpus)]
        #: slot -> the task enlisted at it
        self._task_at: List[int] = []
        #: per-GPU task -> slot while listed on that GPU, else -1
        self._slot: List[List[int]] = [
            [-1] * graph.n_tasks for _ in range(n_gpus)
        ]
        self._heap: List[List[int]] = [[] for _ in range(n_gpus)]
        for gpu, part in enumerate(parts):
            self._enlist(gpu, part)

    def _enlist(self, gpu: int, tasks: Iterable[int]) -> None:
        """Append ``tasks`` to ``gpu``'s list at fresh tail slots."""
        lst = self.lists[gpu]
        slot = self._slot[gpu]
        heap = self._heap[gpu]
        mb = self._mb[gpu]
        task_at = self._task_at
        sizes = self._sizes
        inputs_of = self._graph.inputs_of
        holds = self.view.holds
        for task in tasks:
            s = len(task_at)
            task_at.append(task)
            slot[task] = s
            lst.append(task)
            m = mb[task] = sum(
                sizes[d] for d in inputs_of(task) if not holds(gpu, d)
            )
            heappush(heap, m << _SLOT_BITS | s)

    def _compact(self, gpu: int) -> None:
        """Rebuild ``gpu``'s heap from its listed tasks' true keys."""
        mb = self._mb[gpu]
        slot = self._slot[gpu]
        heap = [mb[t] << _SLOT_BITS | slot[t] for t in self.lists[gpu]]
        heapify(heap)
        self._heap[gpu] = heap

    def on_fetch_issued(self, gpu: int, data_id: int) -> None:
        mb = self._mb[gpu]
        slot = self._slot[gpu]
        heap = self._heap[gpu]
        sz = self._sizes[data_id]
        for t in self._graph.users_of(data_id):
            s = slot[t]
            if s >= 0:
                m = mb[t] = mb[t] - sz
                heappush(heap, m << _SLOT_BITS | s)
        if len(heap) > 2 * len(self.lists[gpu]):
            self._compact(gpu)

    def on_data_evicted(self, gpu: int, data_id: int) -> None:
        mb = self._mb[gpu]
        slot = self._slot[gpu]
        sz = self._sizes[data_id]
        for t in self._graph.users_of(data_id):
            if slot[t] >= 0:
                mb[t] += sz

    def on_task_done(self, task: int) -> None:
        """Index the successors ``task``'s completion released."""
        view = self.view
        for succ in view.successors(task):
            if not view.is_released(succ):
                continue
            for gpu, slot in enumerate(self._slot):
                s = slot[succ]
                if s >= 0:
                    heappush(
                        self._heap[gpu], self._mb[gpu][succ] << _SLOT_BITS | s
                    )
                    break

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
        slot = self._slot[gpu]
        for task in self.lists[gpu]:
            slot[task] = -1
        self.lists[gpu] = []
        self._heap[gpu] = []
        alive = [
            g for g in range(len(self.lists)) if g not in self._dead
        ]
        if not alive:
            raise RuntimeError("drop_gpu removed the last surviving GPU")
        for task in orphans:
            target = min(alive, key=lambda g: (len(self.lists[g]), g))
            self._enlist(target, (task,))

    def check_incremental(self) -> None:
        """Assert each listed task's cached value equals a fresh
        ``missing_bytes`` (tests)."""
        for g, lst in enumerate(self.lists):
            for t in lst:
                fresh = self.view.missing_bytes(g, t)
                assert self._mb[g][t] == fresh, (
                    f"gpu{g} task{t}: cached {self._mb[g][t]} != {fresh}"
                )

    def check_index(self) -> None:
        """Assert the slots follow list order and every released, listed
        task has a heap entry keyed at most its true key (tests)."""
        for g, lst in enumerate(self.lists):
            slot = self._slot[g]
            slots = [slot[t] for t in lst]
            assert all(s >= 0 for s in slots), f"gpu{g}: unslotted task"
            assert slots == sorted(set(slots)), f"gpu{g}: slots out of order"
            assert all(self._task_at[slot[t]] == t for t in lst)
            listed = sum(1 for s in slot if s >= 0)
            assert listed == len(lst), f"gpu{g}: {listed} slotted tasks"
            lowest: Dict[int, int] = {}
            for entry in self._heap[g]:
                t = self._task_at[entry & _SLOT_MASK]
                if slot[t] == entry & _SLOT_MASK:
                    lowest[t] = min(lowest.get(t, entry), entry)
            for t in lst:
                if not self.view.is_released(t):
                    continue
                key = self._mb[g][t] << _SLOT_BITS | slot[t]
                assert lowest.get(t, key + 1) <= key, (
                    f"gpu{g} task{t}: no heap entry at or below its key"
                )

    def pop_ready(self, gpu: int) -> Optional[int]:
        """Remove and return the task with the fewest missing bytes.

        Ties go to list position, preserving the allocation order the
        partitioning/packing phase chose.  Tasks whose dependencies have
        not completed yet are skipped; returns ``None`` when no task in
        the list is released (the list may still be non-empty).

        ``last_scanned`` is what the paper's front-to-back scan examines:
        up to and including a winner that misses nothing (no later entry
        can beat it), the whole list otherwise, 0 for an empty list.
        """
        lst = self.lists[gpu]
        heap = self._heap[gpu]
        slot = self._slot[gpu]
        mb = self._mb[gpu]
        task_at = self._task_at
        is_released = self.view.is_released
        while heap:
            entry = heap[0]
            s = entry & _SLOT_MASK
            task = task_at[s]
            if slot[task] != s or not is_released(task):
                heappop(heap)  # popped/moved, or back on release
                continue
            key = mb[task] << _SLOT_BITS | s
            if entry != key:
                heapreplace(heap, key)  # evicted input since pushed
                continue
            heappop(heap)
            slot[task] = -1
            pos = lst.index(task)
            self.last_scanned = len(lst) if mb[task] else pos + 1
            del lst[pos]
            return task
        self.last_scanned = len(lst)
        return None

    def pop_fifo(self, gpu: int) -> Optional[int]:
        """Head pop (DMDA without Ready): first *released* task."""
        lst = self.lists[gpu]
        for pos, task in enumerate(lst):
            if self.view.is_released(task):
                self._slot[gpu][task] = -1
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
        slot = self._slot[victim]
        for task in moved:
            slot[task] = -1
        self._enlist(thief, moved)
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

    def task_done(self, gpu: int, task_id: int) -> None:
        self._lists.on_task_done(task_id)

    def remaining_order(self, gpu: int) -> Sequence[int]:
        return tuple(self._lists.lists[gpu])
