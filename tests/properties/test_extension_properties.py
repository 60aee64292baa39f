"""Property-based tests for the §VI extensions (DAG, outputs, NVLink)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import TaskGraph
from repro.dag.deps import DependencySet
from repro.platform.spec import BusSpec, GpuSpec, PlatformSpec
from repro.schedulers.registry import make_scheduler
from repro.simulator.events import TaskCompleted, TaskStarted
from repro.simulator.runtime import simulate
from repro.workloads.randomgraph import random_bipartite

from tests.conftest import toy_platform

SCHEDS = ["eager", "dmdar", "mhfp", "hmetis+r", "darts", "darts+luf"]


@st.composite
def dag_case(draw):
    n_tasks = draw(st.integers(2, 16))
    n_data = draw(st.integers(2, 6))
    seed = draw(st.integers(0, 9999))
    graph = random_bipartite(
        n_tasks, n_data, arity=draw(st.integers(1, 2)),
        data_size=1.0, task_flops=1.0, seed=seed,
    )
    rng = random.Random(seed)
    edges = []
    for t in range(1, n_tasks):
        for _ in range(rng.randint(0, 2)):
            edges.append((rng.randrange(t), t))
    deps = DependencySet(n_tasks, edges)
    name = draw(st.sampled_from(SCHEDS))
    n_gpus = draw(st.integers(1, 3))
    return graph, deps, name, n_gpus, seed


@st.composite
def output_case(draw):
    """Producer chains: layer i feeds layer i+1 through produced data."""
    layers = draw(st.integers(1, 4))
    width = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 9999))
    g = TaskGraph()
    deps_edges = []
    inputs = [g.add_data(1.0) for _ in range(width)]
    prev_tasks = [None] * width
    for layer in range(layers):
        next_inputs = []
        next_tasks = []
        for w in range(width):
            out = g.add_data(1.0)
            t = g.add_task([inputs[w]], flops=1.0, outputs=[out])
            if prev_tasks[w] is not None:
                deps_edges.append((prev_tasks[w], t.id))
            next_inputs.append(out)
            next_tasks.append(t.id)
        inputs = next_inputs
        prev_tasks = next_tasks
    deps = DependencySet(g.n_tasks, deps_edges)
    name = draw(st.sampled_from(["eager", "dmdar", "darts+luf"]))
    return g, deps, name, seed


class TestDagProperties:
    @given(dag_case())
    @settings(max_examples=80, deadline=None)
    def test_all_tasks_run_respecting_precedence(self, case):
        graph, deps, name, n_gpus, seed = case
        sched, eviction = make_scheduler(name)
        result = simulate(
            graph,
            toy_platform(n_gpus=n_gpus, memory=4.0),
            sched,
            eviction=eviction,
            dependencies=deps,
            seed=seed,
            record_trace=True,
        )
        executed = sorted(t for o in result.executed_order for t in o)
        assert executed == list(range(graph.n_tasks))
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
        for succ in range(graph.n_tasks):
            for pred in deps.preds[succ]:
                assert starts[succ] >= ends[pred] - 1e-9

    @given(dag_case())
    @settings(max_examples=40, deadline=None)
    def test_makespan_at_least_critical_path(self, case):
        graph, deps, name, n_gpus, seed = case
        sched, eviction = make_scheduler(name)
        result = simulate(
            graph,
            toy_platform(n_gpus=n_gpus, memory=4.0),
            sched,
            eviction=eviction,
            dependencies=deps,
            seed=seed,
        )
        cp = deps.critical_path_flops(graph)  # 1 flop/s toy GPUs
        assert result.makespan >= cp - 1e-9


class TestOutputProperties:
    @given(output_case())
    @settings(max_examples=60, deadline=None)
    def test_chains_complete_with_all_stores(self, case):
        graph, deps, name, seed = case
        sched, eviction = make_scheduler(name)
        result = simulate(
            graph,
            toy_platform(n_gpus=2, memory=5.0),
            sched,
            eviction=eviction,
            dependencies=deps,
            seed=seed,
        )
        n_outputs = sum(len(t.outputs) for t in graph.tasks)
        assert sum(s.n_tasks for s in result.gpus) == graph.n_tasks
        assert result.total_stores == n_outputs
        assert result.total_stored_bytes == float(n_outputs)

    @given(output_case())
    @settings(max_examples=30, deadline=None)
    def test_deterministic(self, case):
        graph, deps, name, seed = case
        runs = []
        for _ in range(2):
            sched, eviction = make_scheduler(name)
            runs.append(
                simulate(
                    graph,
                    toy_platform(n_gpus=2, memory=5.0),
                    sched,
                    eviction=eviction,
                    dependencies=deps,
                    seed=seed,
                )
            )
        assert runs[0].makespan == runs[1].makespan
        assert runs[0].executed_order == runs[1].executed_order


class TestNvlinkProperties:
    @given(
        st.integers(4, 16), st.integers(2, 6), st.integers(0, 999),
        st.sampled_from(["eager", "dmdar", "darts+luf"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_peer_links_never_lose_tasks(self, n_tasks, n_data, seed, name):
        graph = random_bipartite(
            n_tasks, n_data, arity=2, data_size=1.0, task_flops=1.0, seed=seed
        )
        plat = PlatformSpec(
            gpus=[GpuSpec(name="t", gflops=1e-9, memory_bytes=4.0)] * 2,
            bus=BusSpec(bandwidth=1.0, latency=0.0, model="fifo"),
            peer_link=BusSpec(bandwidth=10.0, latency=0.0, model="fair"),
        )
        sched, eviction = make_scheduler(name)
        result = simulate(
            graph, plat, sched, eviction=eviction, seed=seed
        )
        assert sum(s.n_tasks for s in result.gpus) == n_tasks
        assert result.bytes_from_host + result.bytes_from_peer == (
            result.total_bytes
        )
