"""Edge-case tests for runtime mechanics: admission staging, gating,
window interplay, and bookkeeping."""

import pytest

from repro.core.problem import TaskGraph
from repro.schedulers.eager import Eager
from repro.simulator.events import TaskCompleted, TaskStarted
from repro.simulator.runtime import Runtime, simulate
from repro.workloads.matmul2d import matmul2d
from repro.workloads.randomgraph import random_bipartite

from tests.conftest import toy_platform


class TestAdmissionStaging:
    def test_wide_tasks_stage_rather_than_deadlock(self):
        """Buffer admission: two tasks whose union footprint exceeds
        memory are executed one after the other, not co-buffered."""
        g = TaskGraph()
        a = [g.add_data(1.0) for _ in range(3)]
        b = [g.add_data(1.0) for _ in range(3)]
        g.add_task(a, flops=1.0)
        g.add_task(b, flops=1.0)
        result = simulate(
            g, toy_platform(memory=3.0), Eager(), window=2, record_trace=True
        )
        assert result.gpus[0].n_tasks == 2
        # tasks cannot overlap their data: second starts after first ends
        starts = {
            e.task: e.time
            for e in result.trace.events
            if type(e) is TaskStarted
        }
        ends = {
            e.task: e.time
            for e in result.trace.events
            if type(e) is TaskCompleted
        }
        assert starts[1] >= ends[0] - 1e-9

    def test_exact_fit_footprints_share_buffer(self):
        g = TaskGraph()
        shared = g.add_data(1.0)
        x, y = g.add_data(1.0), g.add_data(1.0)
        g.add_task([shared, x], flops=1.0)
        g.add_task([shared, y], flops=1.0)
        result = simulate(g, toy_platform(memory=3.0), Eager(), window=2)
        assert result.total_loads == 3  # shared loaded once

    def test_window_larger_than_task_count(self, figure1_graph):
        result = simulate(
            figure1_graph, toy_platform(memory=6.0), Eager(), window=50
        )
        assert result.gpus[0].n_tasks == 9


class TestBookkeeping:
    def test_executed_order_matches_task_end_trace(self, figure1_graph):
        result = simulate(
            figure1_graph,
            toy_platform(n_gpus=2, memory=4.0),
            Eager(),
            record_trace=True,
        )
        for k in range(2):
            ends = [
                e.task
                for e in result.trace.events
                if type(e) is TaskCompleted and e.gpu == k
            ]
            assert ends == result.executed_order[k]

    def test_stats_flops_partition_total(self, figure1_graph):
        result = simulate(
            figure1_graph, toy_platform(n_gpus=3, memory=4.0), Eager()
        )
        assert sum(g.flops for g in result.gpus) == pytest.approx(
            result.total_flops
        )

    def test_engine_event_count_reported(self, figure1_graph):
        rt = Runtime(figure1_graph, toy_platform(memory=4.0), Eager())
        rt.run()
        assert rt.engine.events_fired > 0
        assert rt.engine.pending == 0

    def test_makespan_equals_last_task_end(self, figure1_graph):
        result = simulate(
            figure1_graph,
            toy_platform(memory=6.0),
            Eager(),
            record_trace=True,
        )
        last_end = max(
            e.time for e in result.trace.events if type(e) is TaskCompleted
        )
        assert result.makespan == pytest.approx(last_end)


class TestViewQueries:
    def test_missing_bytes_counts_only_absent_inputs(self, figure1_graph):
        rt = Runtime(figure1_graph, toy_platform(memory=4.0), Eager())
        rt.memories[0].request(0)
        rt.engine.run()
        # T0 reads data 0 (present) and 3 (absent)
        assert rt.view.missing_bytes(0, 0) == 1.0
        assert rt.view.missing_inputs(0, 0) == [3]

    def test_view_capacity_and_rates(self, figure1_graph):
        rt = Runtime(figure1_graph, toy_platform(memory=4.0), Eager())
        assert rt.view.capacity(0) == 4.0
        assert rt.view.bus_bandwidth() == 1.0
        assert rt.view.gpu_gflops(0) == pytest.approx(1e-9)

    def test_is_released_true_without_deps(self, figure1_graph):
        rt = Runtime(figure1_graph, toy_platform(memory=4.0), Eager())
        assert all(rt.view.is_released(t) for t in range(9))
        assert not rt.view.has_dependencies


class TestLargerSmoke:
    def test_mid_size_multi_gpu_run_is_consistent(self):
        g = matmul2d(12, data_size=1.0, task_flops=1.0)
        result = simulate(
            g,
            toy_platform(n_gpus=3, memory=8.0, bandwidth=20.0),
            Eager(),
            seed=9,
        )
        assert sum(s.n_tasks for s in result.gpus) == 144
        assert result.total_loads >= 24  # compulsory
        assert result.balance_ratio() < 1.4

    def test_single_task_instance(self):
        g = random_bipartite(1, 2, arity=2, seed=0)
        result = simulate(g, toy_platform(memory=2.0), Eager())
        assert result.gpus[0].n_tasks == 1
        assert result.makespan == pytest.approx(2.0 + 1.0)  # 2 loads + run
