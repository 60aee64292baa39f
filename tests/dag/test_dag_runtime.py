"""Tests for dependency-aware execution in the runtime."""

import pytest

from repro.core.problem import TaskGraph
from repro.dag.deps import DependencySet
from repro.dag.workloads import cholesky_dag
from repro.schedulers.registry import make_scheduler
from repro.simulator.events import TaskCompleted, TaskStarted
from repro.simulator.runtime import simulate
from repro.workloads.randomgraph import random_bipartite

from tests.conftest import toy_platform


def chain_instance(n=5):
    g = TaskGraph()
    datum = g.add_data(1.0)
    for i in range(n):
        g.add_task([datum], flops=1.0, name=f"T{i}")
    deps = DependencySet(n, [(i, i + 1) for i in range(n - 1)])
    return g, deps


SCHEDS = ["eager", "dmdar", "mhfp", "hmetis+r", "darts", "darts+luf"]


class TestExecutionOrder:
    @pytest.mark.parametrize("name", SCHEDS)
    def test_chain_executes_in_order(self, name):
        g, deps = chain_instance(6)
        sched, eviction = make_scheduler(name)
        result = simulate(
            g,
            toy_platform(n_gpus=2, memory=3.0),
            sched,
            eviction=eviction,
            dependencies=deps,
            seed=1,
        )
        finish = {}
        t_order = []
        for order in result.executed_order:
            t_order.extend(order)
        assert sorted(t_order) == list(range(6))
        # reconstruct completion order from the trace-free executed
        # lists: a chain forces strictly sequential execution, so the
        # makespan is at least the sum of durations
        assert result.makespan >= 6.0 - 1e-9

    @pytest.mark.parametrize("name", SCHEDS)
    def test_diamond_respects_precedence(self, name):
        g = TaskGraph()
        datum = g.add_data(1.0)
        for i in range(4):
            g.add_task([datum], flops=1.0)
        deps = DependencySet(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        sched, eviction = make_scheduler(name)
        result = simulate(
            g,
            toy_platform(n_gpus=2, memory=2.0),
            sched,
            eviction=eviction,
            dependencies=deps,
            seed=2,
            record_trace=True,
        )
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
        assert starts[2] >= ends[0] - 1e-9
        assert starts[3] >= max(ends[1], ends[2]) - 1e-9

    def test_edge_list_accepted_directly(self):
        g, _ = chain_instance(3)
        sched, eviction = make_scheduler("eager")
        result = simulate(
            g,
            toy_platform(memory=2.0),
            sched,
            dependencies=[(0, 1), (1, 2)],
        )
        assert result.executed_order[0] == [0, 1, 2]

    def test_cyclic_dependencies_rejected(self):
        g, _ = chain_instance(3)
        sched, _ = make_scheduler("eager")
        from repro.dag.deps import CycleError

        with pytest.raises(CycleError):
            simulate(
                g,
                toy_platform(memory=2.0),
                sched,
                dependencies=[(0, 1), (1, 0)],
            )


class TestCholeskyDagRuns:
    @pytest.mark.parametrize("name", ["eager", "dmdar", "darts+luf"])
    def test_all_tasks_complete(self, name):
        g, deps = cholesky_dag(8, data_size=1.0)
        sched, eviction = make_scheduler(name)
        result = simulate(
            g,
            toy_platform(n_gpus=2, memory=12.0, bandwidth=50.0,
                         gflops=1e10),
            sched,
            eviction=eviction,
            dependencies=deps,
            seed=3,
        )
        assert sum(s.n_tasks for s in result.gpus) == g.n_tasks

    def test_makespan_at_least_critical_path(self):
        g, deps = cholesky_dag(8, data_size=1.0)
        sched, eviction = make_scheduler("darts+luf")
        gflops = 1e10
        result = simulate(
            g,
            toy_platform(n_gpus=4, memory=20.0, bandwidth=1e12,
                         gflops=gflops),
            sched,
            eviction=eviction,
            dependencies=deps,
            seed=1,
        )
        cp = deps.critical_path_flops(g) / gflops
        assert result.makespan >= cp - 1e-9

    def test_dependencies_slow_things_down(self):
        g, deps = cholesky_dag(8, data_size=1.0)
        sched1, ev1 = make_scheduler("dmdar")
        sched2, ev2 = make_scheduler("dmdar")
        plat = toy_platform(n_gpus=4, memory=20.0, bandwidth=50.0,
                            gflops=1e10)
        free = simulate(g, plat, sched1, eviction=ev1, seed=1)
        dag = simulate(g, plat, sched2, eviction=ev2, seed=1,
                       dependencies=deps)
        assert dag.makespan >= free.makespan - 1e-9


class TestRandomDags:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_layered_dag_completes(self, seed):
        import random

        rng = random.Random(seed)
        g = random_bipartite(24, 8, arity=2, seed=seed)
        edges = []
        for t in range(24):
            for _ in range(rng.randint(0, 2)):
                pred = rng.randrange(24)
                if pred < t:
                    edges.append((pred, t))
        deps = DependencySet(24, edges)
        for name in ("eager", "darts+luf"):
            sched, eviction = make_scheduler(name)
            result = simulate(
                g,
                toy_platform(n_gpus=2, memory=4.0),
                sched,
                eviction=eviction,
                dependencies=deps,
                seed=seed,
            )
            assert sum(s.n_tasks for s in result.gpus) == 24
