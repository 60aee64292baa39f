"""Fault injection and recovery: GPU loss, corruption, stragglers.

The contract under test (DESIGN.md, "Fault model and recovery"):

* an **empty** fault plan leaves every strategy's trace digest
  byte-identical to a fault-free run;
* a **pinned** plan is reproducible — same plan, same seed, same digest
  (``check_determinism`` double-runs under the strict sanitizer with
  SAN008/SAN009/SAN010 enabled);
* after a device failure every task still completes exactly once, and
  none completes on the dead GPU after its failure time.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schedulers.ready import ReadyLists
from repro.schedulers.registry import make_scheduler
from repro.simulator.events import (
    DataReplicaLost,
    DeviceFailed,
    TaskCompleted,
    TransferFailed,
    TransferRetried,
)
from repro.simulator.faults import (
    DeviceFailure,
    FaultPlan,
    StragglerSlowdown,
    TransferCorruption,
    load_fault_plan,
)
from repro.simulator.runtime import Runtime, simulate
from repro.simulator.sanitizer import check_determinism
from repro.workloads.randomgraph import random_bipartite

from tests.conftest import toy_platform

SIX_STRATEGIES = ("eager", "dmdar", "mhfp", "hmetis+r", "darts", "darts+luf")


def small_graph(n_tasks=24, seed=3):
    return random_bipartite(n_tasks=n_tasks, n_data=8, arity=2, seed=seed)


def pressured_platform(n_gpus=3):
    return toy_platform(n_gpus=n_gpus, memory=3.0, model="fair")


def pinned_plan(base_makespan, seed=11):
    return FaultPlan(
        seed=seed,
        device_failures=(DeviceFailure(gpu=1, time=0.3 * base_makespan),),
        transfer_faults=TransferCorruption(probability=0.2),
        stragglers=(StragglerSlowdown(gpu=0, factor=1.5),),
    )


def run(name, graph, platform, faults=None, **kwargs):
    sched, eviction = make_scheduler(name)
    return simulate(
        graph, platform, sched, eviction=eviction, faults=faults, **kwargs
    )


class TestFaultPlanValidation:
    def test_empty_plan_is_empty(self):
        assert FaultPlan().is_empty()
        assert not FaultPlan(
            device_failures=(DeviceFailure(gpu=0, time=1.0),)
        ).is_empty()
        assert not FaultPlan(
            transfer_faults=TransferCorruption(probability=0.1)
        ).is_empty()
        assert not FaultPlan(
            stragglers=(StragglerSlowdown(gpu=0, factor=2.0),)
        ).is_empty()

    def test_failure_gpu_out_of_range_rejected(self):
        plan = FaultPlan(device_failures=(DeviceFailure(gpu=3, time=1.0),))
        with pytest.raises(ValueError, match="GPU 3"):
            plan.validate(2)

    def test_negative_failure_time_rejected(self):
        plan = FaultPlan(device_failures=(DeviceFailure(gpu=0, time=-1.0),))
        with pytest.raises(ValueError, match="< 0"):
            plan.validate(2)

    def test_duplicate_failure_rejected(self):
        plan = FaultPlan(
            device_failures=(
                DeviceFailure(gpu=0, time=1.0),
                DeviceFailure(gpu=0, time=2.0),
            )
        )
        with pytest.raises(ValueError, match="twice"):
            plan.validate(3)

    def test_killing_every_gpu_rejected(self):
        plan = FaultPlan(
            device_failures=(
                DeviceFailure(gpu=0, time=1.0),
                DeviceFailure(gpu=1, time=2.0),
            )
        )
        with pytest.raises(ValueError, match="survive"):
            plan.validate(2)

    def test_bad_probability_rejected(self):
        for p in (-0.1, 1.0, 1.5):
            plan = FaultPlan(transfer_faults=TransferCorruption(probability=p))
            with pytest.raises(ValueError, match="probability"):
                plan.validate(2)

    def test_bad_straggler_rejected(self):
        plan = FaultPlan(stragglers=(StragglerSlowdown(gpu=5, factor=2.0),))
        with pytest.raises(ValueError, match="GPU 5"):
            plan.validate(2)
        plan = FaultPlan(stragglers=(StragglerSlowdown(gpu=0, factor=0.0),))
        with pytest.raises(ValueError, match="factor"):
            plan.validate(2)

    def test_roundtrip_through_json(self):
        plan = FaultPlan(
            seed=7,
            device_failures=(DeviceFailure(gpu=1, time=2.5),),
            transfer_faults=TransferCorruption(probability=0.25, max_retries=3),
            stragglers=(StragglerSlowdown(gpu=0, factor=1.5),),
        )
        assert FaultPlan.from_json(json.dumps(plan.to_dict())) == plan

    def test_load_fault_plan_inline_and_file(self, tmp_path):
        text = json.dumps({"seed": 4, "stragglers": [{"gpu": 0, "factor": 2.0}]})
        inline = load_fault_plan(text)
        path = tmp_path / "plan.json"
        path.write_text(text)
        assert load_fault_plan(str(path)) == inline
        assert inline.stragglers == (StragglerSlowdown(gpu=0, factor=2.0),)

    def test_failure_with_outputs_rejected(self):
        from repro.workloads.matmul2d import matmul2d

        graph = matmul2d(4, with_outputs=True)
        plan = FaultPlan(device_failures=(DeviceFailure(gpu=1, time=1.0),))
        with pytest.raises(ValueError, match="output"):
            run("eager", graph, pressured_platform(), faults=plan)


class TestEmptyPlanIsByteIdentical:
    @pytest.mark.parametrize("name", SIX_STRATEGIES)
    def test_empty_plan_digest_equals_fault_free(self, name):
        graph = small_graph()
        platform = pressured_platform()
        base = run(name, graph, platform, record_trace=True)
        empty = run(
            name, graph, platform, faults=FaultPlan(), record_trace=True
        )
        assert empty.trace.digest() == base.trace.digest()
        assert empty.makespan == base.makespan


class TestRecovery:
    @pytest.mark.parametrize("name", SIX_STRATEGIES)
    def test_pinned_plan_completes_and_is_reproducible(self, name):
        """Device loss + corruption + straggler: every task completes
        exactly once, reproducibly, with SAN008–SAN010 active (the
        strict sanitizer is enabled for the whole test suite)."""
        graph = small_graph()
        platform = pressured_platform()
        base = run(name, graph, platform)
        plan = pinned_plan(base.makespan)
        digest1 = check_determinism(graph, platform, name, faults=plan)
        digest2 = check_determinism(graph, platform, name, faults=plan)
        assert digest1 == digest2

        faulted = run(name, graph, platform, faults=plan, record_trace=True)
        done = sorted(t for order in faulted.executed_order for t in order)
        assert done == list(range(graph.n_tasks))

    @pytest.mark.parametrize("name", SIX_STRATEGIES)
    def test_no_completion_on_dead_gpu_after_failure(self, name):
        graph = small_graph()
        platform = pressured_platform()
        base = run(name, graph, platform)
        t_fail = 0.3 * base.makespan
        plan = FaultPlan(
            seed=2, device_failures=(DeviceFailure(gpu=1, time=t_fail),)
        )
        faulted = run(name, graph, platform, faults=plan, record_trace=True)
        kinds = [type(e) for e in faulted.trace.events]
        assert DeviceFailed in kinds
        for e in faulted.trace.events:
            if type(e) is TaskCompleted and e.gpu == 1:
                assert e.time <= t_fail + 1e-9

    def test_failure_publishes_recovery_events(self):
        graph = small_graph()
        platform = pressured_platform()
        base = run("dmdar", graph, platform)
        plan = FaultPlan(
            seed=2,
            device_failures=(
                DeviceFailure(gpu=1, time=0.3 * base.makespan),
            ),
        )
        faulted = run("dmdar", graph, platform, faults=plan, record_trace=True)
        kinds = {type(e) for e in faulted.trace.events}
        assert DeviceFailed in kinds
        assert DataReplicaLost in kinds  # GPU 1 held replicas mid-run

    def test_corruption_retries_are_traced_and_slow_the_run(self):
        graph = small_graph()
        platform = pressured_platform()
        base = run("eager", graph, platform, record_trace=True)
        plan = FaultPlan(
            seed=9, transfer_faults=TransferCorruption(probability=0.4)
        )
        faulted = run("eager", graph, platform, faults=plan, record_trace=True)
        kinds = [type(e) for e in faulted.trace.events]
        assert kinds.count(TransferRetried) == kinds.count(TransferFailed) > 0
        assert faulted.makespan >= base.makespan

    def test_straggler_stretches_the_makespan(self):
        graph = small_graph()
        platform = toy_platform(n_gpus=1, memory=3.0, model="fair")
        base = run("eager", graph, platform)
        plan = FaultPlan(stragglers=(StragglerSlowdown(gpu=0, factor=2.0),))
        slow = run("eager", graph, platform, faults=plan)
        assert slow.makespan > base.makespan

    def test_darts_index_consistent_after_failure(self):
        graph = small_graph()
        platform = pressured_platform()
        sched, eviction = make_scheduler("darts+luf")
        base = simulate(graph, platform, sched, eviction=eviction)
        plan = FaultPlan(
            seed=2,
            device_failures=(DeviceFailure(gpu=1, time=0.3 * base.makespan),),
        )
        sched, eviction = make_scheduler("darts+luf")
        simulate(graph, platform, sched, eviction=eviction, faults=plan)
        sched.check_index()  # dead GPU's rows are skipped, live ones exact


def ready_lists(*parts):
    """ReadyLists on an idle runtime with one GPU per part."""
    graph = small_graph()
    platform = pressured_platform(n_gpus=len(parts))
    sched, _ = make_scheduler("eager")
    return ReadyLists(Runtime(graph, platform, sched).view, parts)


class TestReadyListsDropGpu:
    def test_orphans_move_to_least_loaded_alive_list(self):
        lists = ready_lists([0, 1, 2], [3, 4], [5])
        lists.drop_gpu(1, requeued=[9])
        assert lists.lists[1] == []
        moved = sorted(lists.lists[0] + lists.lists[2])
        assert moved == [0, 1, 2, 3, 4, 5, 9]
        # GPU 2 started shortest, so it absorbed the bulk of the orphans
        assert len(lists.lists[2]) > 1

    def test_dropping_all_gpus_raises(self):
        lists = ready_lists([0], [1])
        lists.drop_gpu(0, requeued=[])
        with pytest.raises(RuntimeError):
            lists.drop_gpu(1, requeued=[])


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    fault_seed=st.integers(min_value=0, max_value=2**16),
    name=st.sampled_from(["eager", "dmdar", "darts+luf"]),
)
def test_same_fault_seed_same_digest(seed, fault_seed, name):
    """Property: a fixed fault plan is exactly as reproducible as a
    fault-free run — double-run digests match for arbitrary seeds."""
    graph = small_graph(n_tasks=14, seed=seed)
    platform = pressured_platform()
    plan = FaultPlan(
        seed=fault_seed,
        device_failures=(DeviceFailure(gpu=1, time=3.0),),
        transfer_faults=TransferCorruption(probability=0.3),
    )
    digest = check_determinism(graph, platform, name, faults=plan)
    assert digest == check_determinism(graph, platform, name, faults=plan)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_empty_plan_never_perturbs_any_digest(seed):
    """Property: for random instances the empty plan stays invisible."""
    graph = small_graph(n_tasks=12, seed=seed)
    platform = pressured_platform(n_gpus=2)
    for name in ("eager", "darts+luf"):
        base = run(name, graph, platform, record_trace=True)
        empty = run(
            name, graph, platform, faults=FaultPlan(), record_trace=True
        )
        assert empty.trace.digest() == base.trace.digest()
