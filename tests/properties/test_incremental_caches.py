"""Property tests for the incrementally-maintained hot-path caches.

The core optimization replaced from-scratch rescans with incremental
state (memory present/fetching/evictable sets, the DARTS free-task
index with its count buckets and scan charge, the Ready missing-bytes
cache and its pop heap).  These tests drive the caches through
arbitrary operation sequences — both synthetic ones against a bare
:class:`DeviceMemory` and real simulations on random graphs with
uniform or heterogeneous whole-byte sizes, on graphs with outputs (C
tiles, and produced data read downstream), on a Cholesky DAG losing a
GPU mid-run, under every list owner (DMDAR, mHFP, FIXED+R) and every
DARTS scan path — and assert at every step that each cache equals a
fresh recomputation, every Ready pop the linear scan it replaces, and
every DARTS refill the full scan it replaces, which is the invariant
the byte-identity argument rests on.  The Ready cache and DARTS's miss
counters hold values only for live entries (tasks listed on a GPU,
tasks in the pool), so those are what the checks compare.

Victim choice is held to the same standard: LRU/MRU read a
recency-ordered dict and LUF counts only the uses that decide, and both
must pick what the per-candidate rules they replaced
(:func:`reference_lru_victim`, :func:`reference_luf_victim`) pick, over
random histories and in every eviction of real runs.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import TaskGraph
from repro.core.schedule import Schedule
from repro.dag.deps import DependencySet
from repro.dag.workloads import cholesky_dag
from repro.eviction.lru import LruPolicy
from repro.eviction.luf import LufPolicy
from repro.eviction.mru import MruPolicy
from repro.schedulers.darts import Darts
from repro.schedulers.dmda import Dmdar
from repro.schedulers.eager import Eager
from repro.schedulers.fixed import FixedSchedule
from repro.schedulers.hfp import Mhfp
from repro.simulator.faults import DeviceFailure, FaultPlan
from repro.simulator.memory import MemoryFullError
from repro.simulator.runtime import simulate
from repro.workloads.matmul2d import matmul2d
from repro.workloads.randomgraph import random_bipartite

from tests.conftest import toy_platform
from tests.eviction.test_policies import FakeScheduler, FakeView
from tests.simulator.test_memory import make_memory

N_DATA = 8


@st.composite
def memory_ops(draw):
    """A sequence of (op, datum/delta) actions on one DeviceMemory."""
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["request", "pin", "unpin", "evict", "advance"]
                ),
                st.integers(0, N_DATA - 1),
            ),
            min_size=1,
            max_size=60,
        )
    )
    capacity = draw(st.integers(2, N_DATA))
    return ops, float(capacity)


class TestMemoryIncrementalSets:
    @given(memory_ops())
    @settings(max_examples=150, deadline=None)
    def test_sets_match_rescan_after_arbitrary_ops(self, case):
        """present/fetching/evictable stay equal to a fresh rescan."""
        ops, capacity = case
        eng, mem, _policy, _ready, _evicted = make_memory(
            capacity=capacity, sizes=[1.0] * N_DATA
        )
        pinned = []
        for op, d in ops:
            if op == "request":
                try:
                    mem.request(d)
                except MemoryFullError:
                    pass
            elif op == "pin":
                if mem.holds(d):
                    mem.pin(d)
                    pinned.append(d)
            elif op == "unpin":
                if d in pinned:
                    mem.unpin(d)
                    pinned.remove(d)
            elif op == "evict":
                if d in mem.evictable():
                    mem.evict(d)
            elif op == "advance":
                eng.run(until=eng.now + float(d + 1))
            mem.check_invariants()
        eng.run()
        mem.check_invariants()


def reference_refill(darts, gpu):
    """The scan of ``dataNotInMem_gpu`` as a loop over every datum.

    This is ``Darts._refill``'s scan from before the count buckets,
    minus its purge of stale entries (the reference must not mutate).
    Returns ``(n_max, candidates, ops)``: the most free tasks a single
    load unlocks, the data unlocking that many, and the ops the scan
    charges.
    """
    view = darts.view
    graph = view.graph
    inmem = view.held(gpu)
    threshold = darts.threshold if darts._threshold_active else None
    deps = view.has_dependencies
    not_in_mem = darts._data_not_in_mem[gpu]
    idx = darts._free_by_datum[gpu]

    n_max = 0
    candidates = []
    scanned = 0
    ops = 0
    if darts.opti or threshold is not None:
        scan_order = sorted(not_in_mem, key=darts._order_key.__getitem__)
    else:
        scan_order = sorted(not_in_mem)
    for d in scan_order:
        if d in inmem:
            continue
        scanned += 1
        ops += len(graph.users_of(d))
        s = idx.get(d)
        if not s:
            n_d = 0
        elif deps:
            n_d = sum(1 for t in s if view.is_released(t))
        else:
            n_d = len(s)
        if n_d > n_max:
            n_max = n_d
            candidates = [d]
            if darts.opti:
                break
        elif n_d == n_max and n_d > 0:
            candidates.append(d)
        if threshold is not None and scanned >= threshold:
            break
    return n_max, set(candidates), ops


class _CheckedDarts(Darts):
    """DARTS that re-verifies its free-task index on every event, and
    every refill's scan against :func:`reference_refill`."""

    def _scan(self, gpu):
        expected = reference_refill(self, gpu)
        before = self._ops
        n_max, candidates = super()._scan(gpu)
        assert (n_max, set(candidates), self._ops - before) == expected
        return n_max, candidates

    def on_fetch_issued(self, gpu, data_id):
        super().on_fetch_issued(gpu, data_id)
        self.check_index()

    def on_data_evicted(self, gpu, data_id):
        super().on_data_evicted(gpu, data_id)
        self.check_index()

    def on_data_loaded(self, gpu, data_id):
        super().on_data_loaded(gpu, data_id)
        self.check_index()

    def task_done(self, gpu, task_id):
        super().task_done(gpu, task_id)
        self.check_index()

    def on_device_lost(self, gpu, requeued):
        super().on_device_lost(gpu, requeued)
        self.check_index()

    def next_task(self, gpu):
        task = super().next_task(gpu)
        self.check_index()
        return task


#: the full scan and each early-exit or fallback path of the refill
DARTS_VARIANTS = [
    pytest.param(functools.partial(_CheckedDarts), id="full"),
    pytest.param(functools.partial(_CheckedDarts, opti=True), id="opti"),
    pytest.param(
        functools.partial(_CheckedDarts, three_inputs=True), id="3inputs"
    ),
    pytest.param(
        functools.partial(
            _CheckedDarts, threshold=2, threshold_activation_ratio=0.0
        ),
        id="threshold",
    ),
]


def reference_pop(lists, gpu):
    """The paper's front-to-back Ready scan, without popping.

    Returns ``(task, last_scanned)``: the first released task with the
    fewest missing bytes (``None`` if none is released) and the number
    of list entries examined, stopping early at a task missing nothing.
    """
    scanned = 0
    best_task = None
    best_missing = float("inf")
    mb = lists._mb[gpu]
    for task in lists.lists[gpu]:
        scanned += 1
        if not lists.view.is_released(task):
            continue
        if mb[task] < best_missing:
            best_task, best_missing = task, mb[task]
            if best_missing == 0:
                break
    return best_task, scanned


class _CheckedReady:
    """Mixin re-verifying the missing-bytes cache and the pop index on
    every event, and every pop against :func:`reference_pop`."""

    def prepare(self, view):
        super().prepare(view)
        lists = self._lists
        indexed_pop = lists.pop_ready

        def checked_pop(gpu):
            expected = reference_pop(lists, gpu)
            task = indexed_pop(gpu)
            assert (task, lists.last_scanned) == expected
            return task

        lists.pop_ready = checked_pop

    def _check(self):
        self._lists.check_incremental()
        self._lists.check_index()

    def on_fetch_issued(self, gpu, data_id):
        super().on_fetch_issued(gpu, data_id)
        self._check()

    def on_data_evicted(self, gpu, data_id):
        super().on_data_evicted(gpu, data_id)
        self._check()

    def task_done(self, gpu, task_id):
        super().task_done(gpu, task_id)
        self._check()

    def on_device_lost(self, gpu, requeued):
        super().on_device_lost(gpu, requeued)
        self._check()

    def next_task(self, gpu):
        self._check()
        task = super().next_task(gpu)
        self._check()
        return task


class _CheckedDmdar(_CheckedReady, Dmdar):
    pass


class _CheckedMhfp(_CheckedReady, Mhfp):
    pass


class _CheckedFixedR(_CheckedReady, FixedSchedule):
    """FIXED+R+steal over a round-robin schedule, set at ``prepare``."""

    def __init__(self):
        super().__init__(Schedule([]), use_ready=True, use_stealing=True)

    def prepare(self, view):
        k = view.n_gpus
        self.schedule = Schedule(
            [list(range(g, view.graph.n_tasks, k)) for g in range(k)]
        )
        super().prepare(view)


READY_OWNERS = [_CheckedDmdar, _CheckedMhfp, _CheckedFixedR]


def draw_memory(draw, graph):
    """A capacity between the largest task footprint and everything."""
    need = max(graph.task_footprint_bytes(t) for t in range(graph.n_tasks))
    return float(draw(st.integers(int(need), int(graph.working_set_bytes) + 1)))


@st.composite
def graph_case(draw):
    """Random bipartite graphs with uniform or heterogeneous sizes."""
    n_data = draw(st.integers(3, 8))
    n_tasks = draw(st.integers(2, 16))
    arity = draw(st.integers(1, min(3, n_data)))
    seed = draw(st.integers(0, 9999))
    graph = random_bipartite(
        n_tasks,
        n_data,
        arity=arity,
        data_size=draw(st.sampled_from([1.0, 3.0])),
        task_flops=1.0,
        seed=seed,
        heterogeneous_sizes=draw(st.booleans()),
    )
    memory = draw_memory(draw, graph)
    n_gpus = draw(st.integers(1, 3))
    window = draw(st.integers(1, 3))
    return graph, None, memory, n_gpus, window, seed, None


def producer_chains(width, layers, seed):
    """Layer ``i`` reads layer ``i-1``'s outputs and one shared datum."""
    g = TaskGraph()
    shared = [g.add_data(1.0 + (seed + w) % 3) for w in range(width)]
    inputs = [g.add_data(2.0) for _ in range(width)]
    prev = [None] * width
    edges = []
    for _layer in range(layers):
        outs = []
        for w in range(width):
            out = g.add_data(1.0 + (seed + w) % 2)
            t = g.add_task(
                [inputs[w], shared[(w + seed) % width]],
                flops=1.0,
                outputs=[out],
            )
            if prev[w] is not None:
                edges.append((prev[w], t.id))
            prev[w] = t.id
            outs.append(out)
        inputs = outs
    return g, DependencySet(g.n_tasks, edges)


@st.composite
def output_case(draw):
    """Graphs with outputs: C tiles, or produced data read downstream."""
    seed = draw(st.integers(0, 9999))
    if draw(st.booleans()):
        graph = matmul2d(
            draw(st.integers(2, 4)),
            data_size=2.0,
            task_flops=1.0,
            with_outputs=True,
            output_size=1.0,
        )
        deps = None
    else:
        graph, deps = producer_chains(
            draw(st.integers(1, 3)), draw(st.integers(2, 4)), seed
        )
    memory = draw_memory(draw, graph)
    n_gpus = draw(st.integers(1, 3))
    window = draw(st.integers(1, 3))
    return graph, deps, memory, n_gpus, window, seed, None


@st.composite
def failure_dag_case(draw):
    """A Cholesky DAG on 2-3 GPUs, the last of which fails mid-run."""
    graph, deps = cholesky_dag(draw(st.integers(3, 5)), data_size=1.0)
    memory = draw_memory(draw, graph)
    n_gpus = draw(st.integers(2, 3))
    window = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 9999))
    platform = toy_platform(n_gpus=n_gpus, memory=memory, bandwidth=5.0)
    base = simulate(
        graph, platform, Dmdar(), window=window, seed=seed, dependencies=deps
    ).makespan
    at = base * draw(st.sampled_from([0.1, 0.3, 0.6]))
    faults = FaultPlan(device_failures=(DeviceFailure(n_gpus - 1, at),))
    return graph, deps, memory, n_gpus, window, seed, faults


def run_checked(make, case, eviction="lru"):
    graph, deps, memory, n_gpus, window, seed, faults = case
    result = simulate(
        graph,
        toy_platform(n_gpus=n_gpus, memory=memory, bandwidth=5.0),
        make(),
        eviction=eviction,
        window=window,
        seed=seed,
        dependencies=deps,
        faults=faults,
    )
    executed = sorted(t for o in result.executed_order for t in o)
    assert executed == list(range(graph.n_tasks))


class TestSchedulerCachesMatchRecompute:
    """DARTS's index and the Ready cache equal a rebuild mid-run."""

    @pytest.mark.parametrize("make", DARTS_VARIANTS)
    @given(case=graph_case())
    @settings(max_examples=40, deadline=None)
    def test_darts_index_matches_fresh_recompute(self, make, case):
        run_checked(make, case)

    @pytest.mark.parametrize("cls", READY_OWNERS)
    @given(case=graph_case())
    @settings(max_examples=40, deadline=None)
    def test_ready_cache_matches_missing_bytes(self, cls, case):
        run_checked(cls, case)

    @pytest.mark.parametrize("make", DARTS_VARIANTS)
    @given(case=output_case())
    @settings(max_examples=30, deadline=None)
    def test_darts_index_matches_with_outputs(self, make, case):
        run_checked(make, case)

    @pytest.mark.parametrize("cls", READY_OWNERS)
    @given(case=output_case())
    @settings(max_examples=30, deadline=None)
    def test_ready_cache_matches_with_outputs(self, cls, case):
        run_checked(cls, case)

    @pytest.mark.parametrize("cls", READY_OWNERS)
    @given(case=failure_dag_case())
    @settings(max_examples=25, deadline=None)
    def test_ready_pop_matches_scan_on_dag_with_device_failure(
        self, cls, case
    ):
        """Releases, stealing and ``drop_gpu`` all move the pop index."""
        run_checked(cls, case)

    @pytest.mark.parametrize("make", DARTS_VARIANTS)
    @given(case=failure_dag_case())
    @settings(max_examples=25, deadline=None)
    def test_darts_index_matches_on_dag_with_device_failure(
        self, make, case
    ):
        """Releases and ``on_device_lost`` move the pool and buckets."""
        run_checked(make, case)


def reference_lru_victim(stamp, candidates):
    """``LruPolicy.choose_victim`` over a last-touch clock ``stamp``, as
    it was before the recency-ordered dict."""
    return min(candidates, key=lambda d: (stamp.get(d, -1), d))


def reference_mru_victim(stamp, candidates):
    """``MruPolicy.choose_victim`` over the same clock, as it was."""
    return max(candidates, key=lambda d: (stamp.get(d, -1), -d))


def reference_luf_victim(policy, candidates):
    """``LufPolicy.choose_victim`` as it counted ``nb`` and ``np`` for
    every candidate (its ``_counts`` helper inlined)."""
    graph = policy.view.graph
    buffer = policy.view.task_buffer(policy.gpu)
    planned = (
        policy.scheduler.planned_tasks(policy.gpu)
        if policy.scheduler is not None
        else ()
    )
    nb = {d: 0 for d in candidates}
    np_ = {d: 0 for d in candidates}
    for t in buffer:
        for d in graph.inputs_of(t):
            if d in nb:
                nb[d] += 1
    for t in planned:
        for d in graph.inputs_of(t):
            if d in np_:
                np_[d] += 1
    unused = [d for d in sorted(candidates) if nb[d] == 0]
    if unused:
        return min(unused, key=lambda d: (np_[d], d))

    def next_use(d):
        for offset, t in enumerate(buffer):
            if d in graph.inputs_of(t):
                return offset
        return len(buffer)

    return max(sorted(candidates), key=lambda d: (next_use(d), -d))


class _StampClock:
    """Mixin keeping the last-touch clock the old LRU/MRU kept, beside
    the recency order, for the reference rules."""

    def __init__(self, gpu, view=None, scheduler=None):
        super().__init__(gpu, view, scheduler)
        self.stamp = {}
        self.clock = 0

    def _touch(self, d):
        super()._touch(d)
        self.clock += 1
        self.stamp[d] = self.clock

    def on_evict(self, data_id):
        super().on_evict(data_id)
        self.stamp.pop(data_id, None)


class _CheckedLru(_StampClock, LruPolicy):
    """LRU asserting every victim equals :func:`reference_lru_victim`."""

    def choose_victim(self, candidates):
        victim = super().choose_victim(candidates)
        assert victim == reference_lru_victim(self.stamp, candidates)
        return victim


class _ClockedMru(_StampClock, MruPolicy):
    pass


class _CheckedLuf(LufPolicy):
    """LUF asserting every victim equals :func:`reference_luf_victim`."""

    def choose_victim(self, candidates):
        victim = super().choose_victim(candidates)
        assert victim == reference_luf_victim(self, candidates)
        return victim


@st.composite
def recency_history(draw):
    """insert/access/evict/victim actions; victims may name data never
    touched or evicted since (unknown to the policy)."""
    return draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.sampled_from(["insert", "access", "evict"]),
                    st.integers(0, N_DATA - 1),
                ),
                st.tuples(
                    st.just("victim"),
                    st.frozensets(st.integers(0, N_DATA - 1), min_size=1),
                ),
            ),
            min_size=1,
            max_size=60,
        )
    )


@st.composite
def luf_case(draw):
    """A graph, a task buffer, a plan and candidates; in about half the
    draws the candidates are all inputs of the buffer, so the Belady
    fallback runs."""
    n_data = draw(st.integers(2, N_DATA))
    g = TaskGraph()
    for _ in range(n_data):
        g.add_data(1.0)
    for _ in range(draw(st.integers(1, 10))):
        inputs = draw(
            st.lists(
                st.integers(0, n_data - 1), min_size=1, max_size=3, unique=True
            )
        )
        g.add_task(inputs, flops=1.0)
    tasks = st.integers(0, g.n_tasks - 1)
    buffer = draw(st.lists(tasks, max_size=4, unique=True))
    planned = draw(st.lists(tasks, max_size=6, unique=True))
    used = sorted({d for t in buffer for d in g.inputs_of(t)})
    pick_from = (
        used if used and draw(st.booleans()) else list(range(n_data))
    )
    candidates = draw(st.frozensets(st.sampled_from(pick_from), min_size=1))
    with_scheduler = draw(st.booleans())
    return g, buffer, planned, set(candidates), with_scheduler


class TestVictimChoiceMatchesReference:
    """Victims equal the per-candidate rules, in isolation and in runs."""

    @given(recency_history())
    @settings(max_examples=200, deadline=None)
    def test_lru_and_mru_match_reference_over_histories(self, history):
        lru = _CheckedLru(gpu=0)
        mru = _ClockedMru(gpu=0)
        for op, arg in history:
            if op == "victim":
                lru.choose_victim(set(arg))
                assert mru.choose_victim(set(arg)) == reference_mru_victim(
                    mru.stamp, arg
                )
            else:
                for p in (lru, mru):
                    getattr(p, "on_" + op)(arg)

    @given(luf_case())
    @settings(max_examples=300, deadline=None)
    def test_luf_matches_reference(self, case):
        graph, buffer, planned, candidates, with_scheduler = case
        policy = _CheckedLuf(
            gpu=0,
            view=FakeView(graph=graph, buffers={0: buffer}),
            scheduler=(
                FakeScheduler(planned={0: planned}) if with_scheduler else None
            ),
        )
        assert policy.choose_victim(candidates) in candidates

    @pytest.mark.parametrize("make", [Eager, Dmdar, Darts])
    @given(case=output_case())
    @settings(max_examples=25, deadline=None)
    def test_lru_victims_in_runs_with_outputs(self, make, case):
        run_checked(make, case, eviction=lambda k, view: _CheckedLru(k, view))

    @pytest.mark.parametrize("make", [Eager, Dmdar, Darts])
    @given(case=failure_dag_case())
    @settings(max_examples=20, deadline=None)
    def test_lru_victims_in_runs_with_device_failure(self, make, case):
        run_checked(make, case, eviction=lambda k, view: _CheckedLru(k, view))

    @pytest.mark.parametrize("cases", [output_case, failure_dag_case])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_luf_victims_in_darts_runs(self, cases, data):
        case = data.draw(cases())
        sched = Darts()
        run_checked(
            lambda: sched,
            case,
            eviction=lambda k, view: _CheckedLuf(k, view, sched),
        )
