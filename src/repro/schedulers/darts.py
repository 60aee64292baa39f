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
from typing import (
    Collection,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

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
        #: released tasks not yet reserved by any GPU nor executed: what
        #: a refill may plan or take
        self._pool: Set[int] = set()
        released = [t for t in range(graph.n_tasks) if view.is_released(t)]
        #: tasks waiting on a predecessor; none is owned, so the unowned
        #: tasks number ``len(_pool) + _unreleased``
        self._unreleased = graph.n_tasks - len(released)
        #: tasks reading each datum: what scanning it charges
        self._degree: List[int] = [
            graph.degree(d) for d in range(graph.n_data)
        ]
        #: remaining unprocessed tasks using each datum (tie-break metric)
        self._remaining_users: List[int] = list(self._degree)
        #: early-exit scan order, most remaining users first, then id:
        #: ``-remaining_users[d] * n_data + d`` (``0 <= d < n_data``)
        self._order_key: List[int] = [
            -ru * graph.n_data + d
            for d, ru in enumerate(self._remaining_users)
        ]
        #: every datum, in early-exit scan order once sorted
        self._order: List[int] = list(range(graph.n_data))
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
        self._build_index(released)

    # ------------------------------------------------------------------
    # incremental free-task index
    # ------------------------------------------------------------------
    #
    # ``n(D)`` of Algorithm 5 counts the pool tasks (unowned, released)
    # whose only input absent from held(g) is ``D``.  Per GPU ``g``:
    #   _miss_count[g][t]  — number of t's inputs not in held(g), kept
    #                        only while t is in the pool (``_pool_add``);
    #   _miss_sum[g][t]    — sum of those input ids (when the count is 1
    #                        this identifies the single missing datum);
    #   _free_by_datum[g]  — datum d → set of pool tasks whose only
    #                        missing input on g is d, so n(d) is a len();
    #   _buckets[g]        — n → data of ``dataNotInMem_g`` with
    #                        n(d) = n > 0, and _bucket_of[g][d] that n
    #                        (0: no bucket), current for every datum not
    #                        in _dirty[g];
    #   _dirty[g]          — data whose free set or ``dataNotInMem_g``
    #                        membership changed since the buckets were
    #                        last brought up to date;
    #   _scan_ops[g]       — Σ degree(d) over ``dataNotInMem_g \ held(g)``,
    #                        what the paper's full scan charges.
    # Updated on held-set transitions (fetch issue, output allocation,
    # eviction), on tasks entering/leaving the pool (a ``task_done``
    # release hook adds the successors it releases) and on
    # ``dataNotInMem`` changes, so a full-scan refill moves only the
    # dirty data between buckets and reads the highest one.
    # ``check_index`` asserts equality with a fresh rescan.
    def _build_index(self, released: List[int]) -> None:
        view = self.view
        graph = view.graph
        self._miss_count: List[List[int]] = []
        self._miss_sum: List[List[int]] = []
        self._free_by_datum: List[Dict[int, Set[int]]] = []
        self._buckets: List[Dict[int, Set[int]]] = []
        self._bucket_of: List[List[int]] = []
        self._dirty: List[Set[int]] = []
        self._scan_ops: List[int] = []
        for g in range(view.n_gpus):
            held = view.held(g)
            self._miss_count.append([0] * graph.n_tasks)
            self._miss_sum.append([0] * graph.n_tasks)
            self._free_by_datum.append({})
            self._buckets.append({})
            self._bucket_of.append([0] * graph.n_data)
            self._dirty.append(set())
            self._scan_ops.append(
                sum(u for d, u in enumerate(self._degree) if d not in held)
            )
        for t in released:
            self._pool_add(t)

    def _pool_remove(self, t: int) -> None:
        """``t`` leaves the pool (planned or taken)."""
        self._pool.discard(t)
        for g in range(self.view.n_gpus):
            if self._miss_count[g][t] == 1:
                d = self._miss_sum[g][t]
                s = self._free_by_datum[g].get(d)
                if s is not None:
                    s.discard(t)
                self._dirty[g].add(d)

    def _pool_add(self, t: int) -> None:
        """``t`` joins the pool (released, or un-reserved)."""
        self._pool.add(t)
        holds = self.view.holds
        inputs = self.view.graph.inputs_of(t)
        for g in range(self.view.n_gpus):
            count = total = 0
            for x in inputs:
                if not holds(g, x):
                    count += 1
                    total += x
            self._miss_count[g][t] = count
            self._miss_sum[g][t] = total
            if count == 1:
                self._free_by_datum[g].setdefault(total, set()).add(t)
                self._dirty[g].add(total)

    def _drop_not_in_mem(self, gpu: int, d: int) -> None:
        """``d`` leaves ``dataNotInMem_gpu`` (claimed for loading)."""
        not_in_mem = self._data_not_in_mem[gpu]
        if d in not_in_mem:
            not_in_mem.remove(d)
            self._dirty[gpu].add(d)
            if not self.view.holds(gpu, d):
                self._scan_ops[gpu] -= self._degree[d]

    def check_index(self) -> None:
        """Assert the index equals a from-scratch recomputation (tests)."""
        view = self.view
        graph = view.graph
        assert self._order_key == [
            -ru * graph.n_data + d
            for d, ru in enumerate(self._remaining_users)
        ], "order key out of step with remaining users"
        assert all(view.is_released(t) for t in self._pool), (
            "unreleased task in the pool"
        )
        assert not any(t in self._pool for q in self._planned for t in q), (
            "planned task in the pool"
        )
        unreleased = sum(
            1 for t in range(graph.n_tasks) if not view.is_released(t)
        )
        assert self._unreleased == unreleased, (
            f"unreleased {self._unreleased} != {unreleased}"
        )
        for g in range(view.n_gpus):
            if g in self._dead_gpus:
                continue  # wiped memory makes the dead GPU's rows stale
            held = view.held(g)
            idx: Dict[int, Set[int]] = {}
            for t in self._pool:
                missing = [x for x in graph.inputs_of(t) if x not in held]
                assert self._miss_count[g][t] == len(missing), (
                    f"gpu{g} task{t}: miss_count "
                    f"{self._miss_count[g][t]} != {len(missing)}"
                )
                assert self._miss_sum[g][t] == sum(missing), (
                    f"gpu{g} task{t}: miss_sum "
                    f"{self._miss_sum[g][t]} != {sum(missing)}"
                )
                if len(missing) == 1:
                    idx.setdefault(missing[0], set()).add(t)
            live = {d: s for d, s in self._free_by_datum[g].items() if s}
            assert live == idx, f"gpu{g}: free_by_datum {live} != {idx}"
            not_in_mem = self._data_not_in_mem[g]
            scan = sum(self._degree[d] for d in not_in_mem if d not in held)
            assert self._scan_ops[g] == scan, (
                f"gpu{g}: scan_ops {self._scan_ops[g]} != {scan}"
            )
            bucket_of = self._bucket_of[g]
            for d in range(graph.n_data):
                if d in self._dirty[g]:
                    continue
                n = len(idx.get(d, ())) if d in not_in_mem else 0
                assert bucket_of[d] == n, (
                    f"gpu{g} datum{d}: bucket {bucket_of[d]} != {n}"
                )
            buckets: Dict[int, Set[int]] = {}
            for d, n in enumerate(bucket_of):
                if n:
                    buckets.setdefault(n, set()).add(d)
            assert self._buckets[g] == buckets, (
                f"gpu{g}: buckets {self._buckets[g]} != {buckets}"
            )

    # ------------------------------------------------------------------
    # Algorithm 5
    # ------------------------------------------------------------------
    def next_task(self, gpu: int) -> Optional[int]:
        planned = self._planned[gpu]
        if planned:
            self.charge_ops(1)
            return planned.popleft()
        if not self._pool and not self._unreleased:
            return None
        return self._refill(gpu)

    def _refill(self, gpu: int) -> Optional[int]:
        n_max, candidates = self._scan(gpu)
        if n_max > 0:
            d_opt = self._select_candidate(candidates)
            self.charge_ops(self._degree[d_opt])
            s = self._free_by_datum[gpu][d_opt]
            # users_of order, not set order: the plan must be deterministic
            free = [t for t in self.view.graph.users_of(d_opt) if t in s]
            planned = self._planned[gpu]
            for t in free:
                self._pool_remove(t)
                planned.append(t)
            self._drop_not_in_mem(gpu, d_opt)
            return planned.popleft()

        # No datum unlocks a task with a single load.
        if self.three_inputs:
            self.charge_ops(len(self._pool) + self._unreleased)
            task = self._best_two_load_task(gpu)
            if task is not None:
                self._take(gpu, task)
                return task
        self.charge_ops(1)
        task = self._random_unowned()
        if task is None:
            return None
        self._take(gpu, task)
        return task

    def _scan(self, gpu: int) -> Tuple[int, Collection[int]]:
        """Algorithm 5's scan of ``dataNotInMem_gpu``, charged.

        Returns the most pool tasks a single load unlocks and the data
        unlocking that many (none when it is 0).  The full scan is
        order-blind — it takes the max, and ``_select_candidate`` sorts
        the ties — so it reads the highest count bucket and charges the
        whole scan, ``_scan_ops``, at once.
        """
        if self.opti or self._threshold_active:
            return self._ordered_scan(gpu)
        buckets = self._buckets[gpu]
        dirty = self._dirty[gpu]
        if dirty:
            idx = self._free_by_datum[gpu]
            not_in_mem = self._data_not_in_mem[gpu]
            bucket_of = self._bucket_of[gpu]
            for d in dirty:
                s = idx.get(d)
                n = len(s) if s and d in not_in_mem else 0
                old = bucket_of[d]
                if n == old:
                    continue
                bucket_of[d] = n
                if old:
                    b = buckets[old]
                    b.discard(d)
                    if not b:
                        del buckets[old]
                if n:
                    b = buckets.get(n)
                    if b is None:
                        buckets[n] = {d}
                    else:
                        b.add(d)
            dirty.clear()
        self.charge_ops(self._scan_ops[gpu])
        if not buckets:
            return 0, ()
        n_max = max(buckets)
        return n_max, buckets[n_max]

    def _ordered_scan(self, gpu: int) -> Tuple[int, Collection[int]]:
        """The early-exit (OPTI/threshold) scan.

        Order-*sensitive*: visit data with the most remaining
        unprocessed users first, so the first hit is usually a good one
        (cheap to order, and what makes OPTI "close to optimal").  The
        packed (-users, d) order key keeps the id tie order the old
        stable double sort produced.  ``_order`` holds every datum and
        is re-sorted in place, which is nearly free on the nearly
        sorted list a few ``task_done`` calls leave; data outside
        ``dataNotInMem_gpu`` are skipped, so the visit order is that of
        ``sorted(dataNotInMem_gpu)`` by the same key.
        """
        holds = self.view.holds
        not_in_mem = self._data_not_in_mem[gpu]
        idx = self._free_by_datum[gpu]
        degree = self._degree
        limit = self.threshold if self._threshold_active else None
        n_max = 0
        candidates: List[int] = []
        scanned = 0
        ops = 0
        order = self._order
        order.sort(key=self._order_key.__getitem__)
        for d in order:
            if d not in not_in_mem:
                continue
            if holds(gpu, d):
                not_in_mem.discard(d)  # stale entry: purge, don't revisit
                continue
            scanned += 1
            ops += degree[d]
            s = idx.get(d)
            n_d = len(s) if s else 0
            if n_d > n_max:
                n_max = n_d
                candidates = [d]
                if self.opti:
                    break
            elif n_d == n_max and n_d > 0:
                candidates.append(d)
            if limit is not None and scanned >= limit:
                break
        self.charge_ops(ops)
        return n_max, candidates

    def _select_candidate(self, candidates: Collection[int]) -> int:
        """Among equally-unlocking data, prefer the most used overall."""
        if len(candidates) == 1:
            return next(iter(candidates))
        best = max(self._remaining_users[d] for d in candidates)
        top = sorted(d for d in candidates if self._remaining_users[d] == best)
        return top[0] if len(top) == 1 else self._rng.choice(top)

    def _best_two_load_task(self, gpu: int) -> Optional[int]:
        """The 3inputs variant's fallback: tasks two loads away.

        Find the datum ``D`` maximising the number of pool tasks that
        need ``D`` plus exactly one other absent datum; return one such
        task (so both its missing inputs get loaded).
        """
        graph = self.view.graph
        holds = self.view.holds
        mc = self._miss_count[gpu]
        score: Dict[int, int] = {}
        task_for: Dict[int, int] = {}
        for t in sorted(self._pool):
            if mc[t] != 2:
                continue
            for d in graph.inputs_of(t):
                if not holds(gpu, d):
                    score[d] = score.get(d, 0) + 1
                    task_for.setdefault(d, t)
        if not score:
            return None
        best = max(score.values())
        top = sorted(d for d, s in score.items() if s == best)
        d = top[0] if len(top) == 1 else self._rng.choice(top)
        return task_for[d]

    def _random_unowned(self) -> Optional[int]:
        pool = sorted(self._pool)
        if not pool:
            return None
        return self._rng.choice(pool)

    def _take(self, gpu: int, task: int) -> None:
        """Direct allocation (Algorithm 5 line 13)."""
        self._pool_remove(task)
        for d in self.view.graph.inputs_of(task):
            self._drop_not_in_mem(gpu, d)

    # ------------------------------------------------------------------
    # notifications
    # ------------------------------------------------------------------
    def task_done(self, gpu: int, task_id: int) -> None:
        self._executed.add(task_id)
        view = self.view
        n_data = view.graph.n_data
        for d in view.graph.inputs_of(task_id):
            self._remaining_users[d] -= 1
            self._order_key[d] += n_data
        for succ in view.successors(task_id):
            if view.is_released(succ):
                self._unreleased -= 1
                self._pool_add(succ)

    def on_data_loaded(self, gpu: int, data_id: int) -> None:
        # held since its fetch was issued: n(d) and the scan charge
        # already exclude it
        self._data_not_in_mem[gpu].discard(data_id)

    def on_fetch_issued(self, gpu: int, data_id: int) -> None:
        """``data_id`` joins ``gpu``'s held-set: one less missing input
        for each of its users there."""
        mc = self._miss_count[gpu]
        ms = self._miss_sum[gpu]
        idx = self._free_by_datum[gpu]
        dirty = self._dirty[gpu]
        pool = self._pool
        dirty.add(data_id)
        if data_id in self._data_not_in_mem[gpu]:
            self._scan_ops[gpu] -= self._degree[data_id]
        for t in self.view.graph.users_of(data_id):
            if t not in pool:
                continue
            old = mc[t]
            mc[t] = old - 1
            ms[t] -= data_id
            if old == 1:
                s = idx.get(data_id)
                if s is not None:
                    s.discard(t)
            elif old == 2:
                d = ms[t]
                idx.setdefault(d, set()).add(t)
                dirty.add(d)

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
            if t in self._executed or t in self._pool:
                continue
            self._pool_add(t)

    def on_data_evicted(self, gpu: int, data_id: int) -> None:
        """Algorithm 6 line 8: un-reserve planned tasks needing the victim."""
        self._data_not_in_mem[gpu].add(data_id)
        self._scan_ops[gpu] += self._degree[data_id]
        graph = self.view.graph
        mc = self._miss_count[gpu]
        ms = self._miss_sum[gpu]
        idx = self._free_by_datum[gpu]
        dirty = self._dirty[gpu]
        pool = self._pool
        dirty.add(data_id)
        for t in graph.users_of(data_id):
            if t not in pool:
                continue
            old = mc[t]
            mc[t] = old + 1
            ms[t] += data_id
            if old == 0:
                idx.setdefault(data_id, set()).add(t)
            elif old == 1:
                d = ms[t] - data_id
                s = idx.get(d)
                if s is not None:
                    s.discard(t)
                dirty.add(d)
        planned = self._planned[gpu]
        if not planned:
            return
        self.charge_ops(len(planned))
        keep: List[int] = []
        for t in planned:
            if data_id in graph.inputs_of(t):
                self._pool_add(t)
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
