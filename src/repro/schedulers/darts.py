"""DARTS — Data-Aware Reactive Task Scheduling (paper Algorithm 5).

Fully dynamic strategy that considers *data movement before task
allocation*.  When GPU ``k`` asks for work and its reservation list
``plannedTasks_k`` is empty, DARTS scans ``dataNotInMem_k`` for the datum
``D`` that, if loaded, unlocks the most **free tasks** — tasks whose
other inputs are all already on the GPU.  All those tasks are reserved
for the GPU; the datum with the highest remaining use count wins ties
(broken randomly so different GPUs rarely chase the same data).

If no single datum unlocks a task (e.g. at start-up when every task needs
two absent inputs), the base algorithm picks a random unprocessed task;
the **3inputs** variant instead looks for a datum unlocking tasks at one
*additional* load's distance — decisive for the 3D matmul and Cholesky
scenarios with ≥ 3 inputs per task.

Variants controlling scheduling cost (paper §V-E/F):

* **OPTI** — stop the scan at the first datum unlocking ≥ 1 task;
* **threshold** — scan at most ``threshold`` candidate data per refill.

Eviction coupling (Algorithm 6, line 8): when the LUF policy — or any
other — evicts ``V`` from GPU ``k``, planned tasks depending on ``V`` are
un-reserved (returned to the common pool) and ``V`` returns to
``dataNotInMem_k``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Set

from repro.schedulers.base import Scheduler


class Darts(Scheduler):
    """Algorithm 5, with the paper's variants as constructor flags."""

    def __init__(
        self,
        three_inputs: bool = False,
        opti: bool = False,
        threshold: Optional[int] = None,
        threshold_activation_ratio: float = 1.75,
    ) -> None:
        super().__init__()
        if threshold is not None and threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.three_inputs = three_inputs
        self.opti = opti
        self.threshold = threshold
        #: the paper enables the threshold "for working sets larger than
        #: 3 500 MB only" on a 4×500 MB node — i.e. beyond 1.75× the
        #: cumulated GPU memory; we keep that rule scale-free.
        self.threshold_activation_ratio = threshold_activation_ratio
        self.name = "DARTS"
        if opti:
            self.name += "+OPTI"
        if three_inputs:
            self.name += "-3inputs"
        if threshold is not None:
            self.name += "+threshold"

    # ------------------------------------------------------------------
    def prepare(self, view) -> None:
        super().prepare(view)
        graph = view.graph
        self._rng = view.rng
        #: tasks not yet reserved by any GPU nor executed
        self._unowned: Set[int] = set(range(graph.n_tasks))
        #: remaining unprocessed tasks using each datum (tie-break metric)
        self._remaining_users: List[int] = [
            graph.degree(d) for d in range(graph.n_data)
        ]
        #: early-exit scan order, most remaining users first, then id:
        #: ``-remaining_users[d] * n_data + d`` (``0 <= d < n_data``)
        self._order_key: List[int] = [
            -ru * graph.n_data + d
            for d, ru in enumerate(self._remaining_users)
        ]
        self._planned: List[Deque[int]] = [
            deque() for _ in range(view.n_gpus)
        ]
        self._data_not_in_mem: List[Set[int]] = [
            set(range(graph.n_data)) for _ in range(view.n_gpus)
        ]
        self._executed: Set[int] = set()
        #: GPUs lost to injected device failures (never refilled again)
        self._dead_gpus: Set[int] = set()
        total_memory = sum(g.memory_bytes for g in view.platform.gpus)
        self._threshold_active = (
            self.threshold is not None
            and graph.working_set_bytes
            > self.threshold_activation_ratio * total_memory
        )
        self._build_index()

    # ------------------------------------------------------------------
    # incremental free-task index
    # ------------------------------------------------------------------
    #
    # ``n(D)`` of Algorithm 5 counts the unowned, released tasks whose
    # only input absent from held(g) is ``D``.  Per GPU ``g`` and task
    # ``t``:
    #   _miss_count[g][t]  — number of t's inputs not in held(g);
    #   _miss_sum[g][t]    — sum of those input ids (when the count is 1
    #                        this identifies the single missing datum);
    #   _free_by_datum[g]  — datum d → set of *unowned* tasks whose only
    #                        missing input on g is d.
    # Updated on held-set transitions (fetch issue, output allocation,
    # eviction) and on tasks entering/leaving the unowned pool, so
    # ``_refill`` answers "how many free tasks would loading d unlock"
    # with one len() instead of rescanning ``users_of``.  Dependency
    # release is filtered at query time (``is_released`` flips as tasks
    # finish, without any per-datum event).  ``check_index`` asserts
    # equality with a fresh rescan.
    def _build_index(self) -> None:
        view = self.view
        graph = view.graph
        self._miss_count: List[List[int]] = []
        self._miss_sum: List[List[int]] = []
        self._free_by_datum: List[Dict[int, Set[int]]] = []
        for g in range(view.n_gpus):
            held = view.held(g)
            mc = []
            ms = []
            idx: Dict[int, Set[int]] = {}
            for t in range(graph.n_tasks):
                missing = [x for x in graph.inputs_of(t) if x not in held]
                mc.append(len(missing))
                ms.append(sum(missing))
                if len(missing) == 1 and t in self._unowned:
                    idx.setdefault(missing[0], set()).add(t)
            self._miss_count.append(mc)
            self._miss_sum.append(ms)
            self._free_by_datum.append(idx)

    def _index_remove_task(self, t: int) -> None:
        """``t`` leaves the unowned pool (planned or taken)."""
        for g in range(self.view.n_gpus):
            if self._miss_count[g][t] == 1:
                s = self._free_by_datum[g].get(self._miss_sum[g][t])
                if s is not None:
                    s.discard(t)

    def _index_add_task(self, t: int) -> None:
        """``t`` returns to the unowned pool (un-reserved on eviction)."""
        for g in range(self.view.n_gpus):
            if self._miss_count[g][t] == 1:
                self._free_by_datum[g].setdefault(
                    self._miss_sum[g][t], set()
                ).add(t)

    def check_index(self) -> None:
        """Assert the index equals a from-scratch recomputation (tests)."""
        view = self.view
        graph = view.graph
        assert self._order_key == [
            -ru * graph.n_data + d
            for d, ru in enumerate(self._remaining_users)
        ], "order key out of step with remaining users"
        for g in range(view.n_gpus):
            if g in self._dead_gpus:
                continue  # wiped memory makes the dead GPU's rows stale
            held = view.held(g)
            idx: Dict[int, Set[int]] = {}
            for t in range(graph.n_tasks):
                missing = [x for x in graph.inputs_of(t) if x not in held]
                assert self._miss_count[g][t] == len(missing), (
                    f"gpu{g} task{t}: miss_count "
                    f"{self._miss_count[g][t]} != {len(missing)}"
                )
                assert self._miss_sum[g][t] == sum(missing), (
                    f"gpu{g} task{t}: miss_sum "
                    f"{self._miss_sum[g][t]} != {sum(missing)}"
                )
                if len(missing) == 1 and t in self._unowned:
                    idx.setdefault(missing[0], set()).add(t)
            live = {d: s for d, s in self._free_by_datum[g].items() if s}
            assert live == idx, f"gpu{g}: free_by_datum {live} != {idx}"

    # ------------------------------------------------------------------
    # Algorithm 5
    # ------------------------------------------------------------------
    def next_task(self, gpu: int) -> Optional[int]:
        planned = self._planned[gpu]
        if planned:
            self.charge_ops(1)
            return planned.popleft()
        if not self._unowned:
            return None
        return self._refill(gpu)

    def _refill(self, gpu: int) -> Optional[int]:
        graph = self.view.graph
        inmem = self.view.held(gpu)
        planned = self._planned[gpu]
        threshold = self.threshold if self._threshold_active else None
        deps = self.view.has_dependencies
        not_in_mem = self._data_not_in_mem[gpu]
        idx = self._free_by_datum[gpu]

        n_max = 0
        candidates: List[int] = []
        scanned = 0
        # Iterate a sorted copy: deterministic under a fixed seed, and the
        # set is mutated on selection.  The full scan is order-blind (it
        # takes the max, ties broken randomly), but the early-exit modes
        # are order-*sensitive*: visit data with the most remaining
        # unprocessed users first, so the first hit is usually a good
        # one (cheap to order, and what makes OPTI "close to optimal").
        # One sort either way; the packed (-users, d) order key keeps the
        # id tie order the old stable double sort produced.
        if self.opti or threshold is not None:
            scan_order = sorted(not_in_mem, key=self._order_key.__getitem__)
        else:
            scan_order = sorted(not_in_mem)
        for d in scan_order:
            if d in inmem:
                not_in_mem.discard(d)  # stale entry: purge, don't revisit
                continue
            scanned += 1
            self.charge_ops(len(graph.users_of(d)))
            s = idx.get(d)
            if not s:
                n_d = 0
            elif deps:
                n_d = sum(1 for t in s if self.view.is_released(t))
            else:
                n_d = len(s)
            if n_d > n_max:
                n_max = n_d
                candidates = [d]
                if self.opti:
                    break
            elif n_d == n_max and n_d > 0:
                candidates.append(d)
            if threshold is not None and scanned >= threshold:
                break

        if n_max > 0:
            d_opt = self._select_candidate(candidates)
            self.charge_ops(len(graph.users_of(d_opt)))
            s = idx.get(d_opt, set())
            # users_of order, not set order: the plan must be deterministic
            free = [
                t
                for t in graph.users_of(d_opt)
                if t in s and (not deps or self.view.is_released(t))
            ]
            for t in free:
                self._unowned.discard(t)
                self._index_remove_task(t)
                planned.append(t)
            self._data_not_in_mem[gpu].discard(d_opt)
            return planned.popleft()

        # No datum unlocks a task with a single load.
        if self.three_inputs:
            self.charge_ops(len(self._unowned))
            task = self._best_two_load_task(gpu, inmem)
            if task is not None:
                self._take(gpu, task)
                return task
        self.charge_ops(1)
        task = self._random_unowned()
        if task is None:
            return None
        self._take(gpu, task)
        return task

    def _select_candidate(self, candidates: List[int]) -> int:
        """Among equally-unlocking data, prefer the most used overall."""
        if len(candidates) == 1:
            return candidates[0]
        best = max(self._remaining_users[d] for d in candidates)
        top = sorted(d for d in candidates if self._remaining_users[d] == best)
        return top[0] if len(top) == 1 else self._rng.choice(top)

    def _best_two_load_task(
        self, gpu: int, inmem: Set[int]
    ) -> Optional[int]:
        """The 3inputs variant's fallback: tasks two loads away.

        Find the datum ``D`` maximising the number of unowned tasks that
        need ``D`` plus exactly one other absent datum; return one such
        task (so both its missing inputs get loaded).
        """
        graph = self.view.graph
        score: Dict[int, int] = {}
        task_for: Dict[int, int] = {}
        for t in sorted(self._unowned):
            if not self.view.is_released(t):
                continue
            missing = [x for x in graph.inputs_of(t) if x not in inmem]
            if len(missing) != 2:
                continue
            for d in missing:
                score[d] = score.get(d, 0) + 1
                task_for.setdefault(d, t)
        if not score:
            return None
        best = max(score.values())
        top = sorted(d for d, s in score.items() if s == best)
        d = top[0] if len(top) == 1 else self._rng.choice(top)
        return task_for[d]

    def _random_unowned(self) -> Optional[int]:
        pool = sorted(
            t for t in self._unowned if self.view.is_released(t)
        )
        if not pool:
            return None
        return self._rng.choice(pool)

    def _take(self, gpu: int, task: int) -> None:
        """Direct allocation (Algorithm 5 line 13)."""
        self._unowned.discard(task)
        self._index_remove_task(task)
        for d in self.view.graph.inputs_of(task):
            self._data_not_in_mem[gpu].discard(d)

    # ------------------------------------------------------------------
    # notifications
    # ------------------------------------------------------------------
    def task_done(self, gpu: int, task_id: int) -> None:
        self._executed.add(task_id)
        n_data = self.view.graph.n_data
        for d in self.view.graph.inputs_of(task_id):
            self._remaining_users[d] -= 1
            self._order_key[d] += n_data

    def on_data_loaded(self, gpu: int, data_id: int) -> None:
        self._data_not_in_mem[gpu].discard(data_id)

    def on_fetch_issued(self, gpu: int, data_id: int) -> None:
        """``data_id`` joins ``gpu``'s held-set: one less missing input
        for each of its users there."""
        mc = self._miss_count[gpu]
        ms = self._miss_sum[gpu]
        idx = self._free_by_datum[gpu]
        unowned = self._unowned
        for t in self.view.graph.users_of(data_id):
            old = mc[t]
            mc[t] = old - 1
            ms[t] -= data_id
            if t in unowned:
                if old == 1:
                    s = idx.get(data_id)
                    if s is not None:
                        s.discard(t)
                elif old == 2:
                    idx.setdefault(ms[t], set()).add(t)

    def on_device_lost(self, gpu: int, requeued: Sequence[int]) -> None:
        """Return the dead GPU's reservations to the common pool.

        Both the runtime-pulled ``requeued`` tasks and this scheduler's
        own ``plannedTasks`` reservations for ``gpu`` become unowned
        again, re-entering the free-task index so surviving GPUs pick
        them up on their next refill.  The dead GPU's per-GPU index rows
        are left frozen — they are never queried again (``next_task`` is
        never called for a dead GPU; ``check_index`` skips it).
        """
        self._dead_gpus.add(gpu)
        returned = list(requeued) + list(self._planned[gpu])
        self._planned[gpu].clear()
        for t in returned:
            if t in self._executed or t in self._unowned:
                continue
            self._unowned.add(t)
            self._index_add_task(t)

    def on_data_evicted(self, gpu: int, data_id: int) -> None:
        """Algorithm 6 line 8: un-reserve planned tasks needing the victim."""
        self._data_not_in_mem[gpu].add(data_id)
        graph = self.view.graph
        mc = self._miss_count[gpu]
        ms = self._miss_sum[gpu]
        idx = self._free_by_datum[gpu]
        unowned = self._unowned
        for t in graph.users_of(data_id):
            old = mc[t]
            mc[t] = old + 1
            ms[t] += data_id
            if t in unowned:
                if old == 0:
                    idx.setdefault(data_id, set()).add(t)
                elif old == 1:
                    s = idx.get(ms[t] - data_id)
                    if s is not None:
                        s.discard(t)
        planned = self._planned[gpu]
        if not planned:
            return
        self.charge_ops(len(planned))
        keep: List[int] = []
        for t in planned:
            if data_id in graph.inputs_of(t):
                self._unowned.add(t)
                self._index_add_task(t)
            else:
                keep.append(t)
        if len(keep) != len(planned):
            planned.clear()
            planned.extend(keep)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def planned_tasks(self, gpu: int) -> Sequence[int]:
        return tuple(self._planned[gpu])

    def describe(self) -> str:
        flags = []
        if self.opti:
            flags.append("OPTI")
        if self.three_inputs:
            flags.append("3inputs")
        if self.threshold is not None:
            flags.append(f"threshold={self.threshold}")
        return f"DARTS({', '.join(flags)})" if flags else "DARTS"
