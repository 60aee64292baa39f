"""Tests for the Ready reordering lists and task stealing."""

from repro.schedulers.eager import Eager
from repro.schedulers.ready import ReadyLists
from repro.simulator.runtime import Runtime
from repro.workloads.matmul2d import matmul2d

from tests.conftest import toy_platform


def make_view(graph, n_gpus=1, memory=4.0, dependencies=None):
    """A real RuntimeView over an idle runtime (no events fired)."""
    rt = Runtime(
        graph,
        toy_platform(n_gpus=n_gpus, memory=memory),
        Eager(),
        dependencies=dependencies,
    )
    return rt, rt.view


def make_lists(*parts):
    """ReadyLists over matmul2d(3) (9 tasks), one GPU per part."""
    _rt, view = make_view(matmul2d(3), n_gpus=len(parts))
    return ReadyLists(view, parts)


class TestPopReady:
    def test_prefers_task_with_data_resident(self, figure1_graph):
        rt, view = make_view(figure1_graph, memory=4.0)
        # preload D1 (0) and D4 (3) = inputs of T0
        rt.memories[0].request(0)
        rt.memories[0].request(3)
        rt.engine.run()
        lists = ReadyLists(view, [[8, 4, 0]])  # T0 last in the list
        assert lists.pop_ready(0) == 0

    def test_counts_fetching_data_as_available(self, figure1_graph):
        rt, view = make_view(figure1_graph, memory=4.0)
        rt.memories[0].request(0)  # fetch in flight, not yet present
        lists = ReadyLists(view, [[4, 0]])
        # T0 misses only D3; T4 misses both its inputs
        assert lists.pop_ready(0) == 0

    def test_cache_follows_held_set_hooks(self, figure1_graph):
        rt, view = make_view(figure1_graph, memory=4.0)
        lists = ReadyLists(view, [[4, 0, 1]])  # built on an empty GPU
        # the owner scheduler forwards each held-set change to the lists
        for d in (0, 3):  # T0's inputs
            rt.memories[0].request(d)
            lists.on_fetch_issued(0, d)
        lists.check_incremental()
        assert lists.pop_ready(0) == 0
        rt.engine.run()
        rt.memories[0].evict(0)
        lists.on_data_evicted(0, 0)
        lists.check_incremental()
        assert lists.pop_ready(0) == 4  # tasks 4 and 1 both miss 2 bytes

    def test_tie_goes_to_list_position(self, figure1_graph):
        rt, view = make_view(figure1_graph)
        lists = ReadyLists(view, [[5, 2, 7]])  # all equally missing
        assert lists.pop_ready(0) == 5
        assert lists.last_scanned == 3  # no winner misses 0: whole list
        assert lists.pop_ready(0) == 2
        assert lists.last_scanned == 2

    def test_pop_ready_empty_returns_none(self, figure1_graph):
        rt, view = make_view(figure1_graph)
        lists = ReadyLists(view, [[]])
        assert lists.pop_ready(0) is None
        assert lists.last_scanned == 0

    def test_pop_fifo_order(self):
        lists = make_lists([3, 1, 2])
        assert [lists.pop_fifo(0) for _ in range(4)] == [3, 1, 2, None]

    def test_remaining_view(self):
        lists = make_lists([1, 2], [])
        assert lists.lists == [[1, 2], []]


class TestLastScanned:
    """``last_scanned`` is what the paper's front-to-back scan examines,
    whatever structure the pop reads (the whole-list and empty-list
    cases are in :class:`TestPopReady`)."""

    def test_zero_missing_winner_counts_through_its_position(
        self, figure1_graph
    ):
        rt, view = make_view(figure1_graph, memory=4.0)
        for d in (0, 3):  # T0's inputs
            rt.memories[0].request(d)
        lists = ReadyLists(view, [[8, 4, 0, 5]])
        assert lists.pop_ready(0) == 0
        assert lists.last_scanned == 3

        lists = ReadyLists(view, [[]])
        assert lists.pop_ready(0) is None
        assert lists.last_scanned == 0

    def test_unreleased_task_counted_skipped_then_popped_on_release(
        self, figure1_graph
    ):
        # T0 needs T8; it misses nothing, but is not released yet
        rt, view = make_view(
            figure1_graph, memory=4.0, dependencies=[(8, 0)]
        )
        for d in (0, 3):
            rt.memories[0].request(d)
        lists = ReadyLists(view, [[0, 4, 5]])
        assert lists.pop_ready(0) == 4  # both others miss 2 bytes
        assert lists.last_scanned == 3
        lists.check_index()
        # T8 completes: the kernel decrements indegrees, then the
        # scheduler's task_done hook reaches the lists
        rt._indegree[0] -= 1
        lists.on_task_done(8)
        lists.check_index()
        assert lists.pop_ready(0) == 0
        assert lists.last_scanned == 1

    def test_nothing_released_scans_the_whole_list(self, figure1_graph):
        rt, view = make_view(figure1_graph, dependencies=[(8, 0), (8, 1)])
        lists = ReadyLists(view, [[0, 1]])
        assert lists.pop_ready(0) is None
        assert lists.last_scanned == 2
        assert lists.lists[0] == [0, 1]

    def test_stolen_tasks_keep_victim_order_at_thief_tail(self):
        lists = make_lists([0, 1, 2, 3, 4, 5], [6])
        assert lists.steal_half(1) is True
        assert lists.lists[1] == [6, 3, 4, 5]
        lists.check_index()
        # every task misses both inputs: ties pop in list order
        popped = [lists.pop_ready(1) for _ in range(4)]
        assert popped == [6, 3, 4, 5]
        assert lists.lists[0] == [0, 1, 2]


class TestStealing:
    def test_steals_half_from_most_loaded_tail(self):
        lists = make_lists([0, 1, 2, 3, 4, 5], [])
        assert lists.steal_half(1) is True
        assert lists.lists[0] == [0, 1, 2]
        assert lists.lists[1] == [3, 4, 5]

    def test_steals_from_the_most_loaded(self):
        lists = make_lists([0, 1], [2, 3, 4, 5], [])
        lists.steal_half(2)
        assert lists.lists[1] == [2, 3]
        assert lists.lists[2] == [4, 5]

    def test_steals_single_remaining_task(self):
        lists = make_lists([7], [])
        assert lists.steal_half(1) is True
        assert lists.lists[1] == [7]
        assert lists.lists[0] == []

    def test_nothing_to_steal(self):
        lists = make_lists([], [])
        assert lists.steal_half(0) is False

    def test_never_steals_from_self(self):
        lists = make_lists([1, 2, 3], [])
        assert lists.steal_half(0) is False
