"""Property: same seed ⇒ bit-identical trace, zero sanitizer violations.

Hypothesis draws random bipartite instances (the paper's stress
workload) and, for each of the five evaluated strategies, runs the
simulation twice under a collecting sanitizer: the two trace digests
must match exactly and no §III model invariant may fire.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.schedule import Schedule, replay_schedule
from repro.schedulers.registry import make_scheduler
from repro.simulator.runtime import Runtime, simulate
from repro.simulator.sanitizer import Sanitizer, check_determinism
from repro.workloads.randomgraph import random_bipartite

from tests.conftest import toy_platform

FIVE_SCHEDULERS = ("eager", "dmda", "dmdar", "mhfp", "hmetis+r")

instances = st.fixed_dictionaries(
    {
        "n_tasks": st.integers(min_value=2, max_value=14),
        "n_data": st.integers(min_value=2, max_value=8),
        "seed": st.integers(min_value=0, max_value=2**16),
    }
)


def build(params, heterogeneous=False):
    return random_bipartite(
        n_tasks=params["n_tasks"],
        n_data=params["n_data"],
        arity=min(2, params["n_data"]),
        seed=params["seed"],
        heterogeneous_sizes=heterogeneous,
    )


@settings(max_examples=10, deadline=None)
@given(params=instances, scheduler=st.sampled_from(FIVE_SCHEDULERS))
def test_same_seed_runs_are_bit_identical(params, scheduler):
    graph = build(params)
    platform = toy_platform(n_gpus=2, memory=3.0, model="fair")
    collector = Sanitizer(strict=False)
    digest = check_determinism(
        graph,
        platform,
        scheduler,
        seed=params["seed"],
        sanitizer=collector,
    )
    assert collector.violations == [], collector.summary()
    assert len(digest) == 64


#: an instance where LRU beats the Belady replay on load count (legal
#: with variable sizes), which used to fire SAN006
SAN006_REGRESSION = {"n_tasks": 6, "n_data": 5, "seed": 34}


def run_heterogeneous(params, scheduler, sanitize):
    graph = build(params, heterogeneous=True)
    # Largest datum is ≤ 2.0; capacity 4.5 always admits any 2-input task.
    platform = toy_platform(n_gpus=2, memory=4.5, model="fair")
    sched, eviction = make_scheduler(scheduler)
    rt = Runtime(
        graph,
        platform,
        sched,
        eviction=eviction,
        seed=params["seed"],
        record_trace=True,
        sanitize=sanitize,
    )
    return rt, rt.run()


@settings(max_examples=10, deadline=None)
@given(params=instances, scheduler=st.sampled_from(FIVE_SCHEDULERS + ("darts+luf",)))
@example(params=SAN006_REGRESSION, scheduler="eager")
def test_sanitizer_silent_on_heterogeneous_sizes(params, scheduler):
    san = Sanitizer(strict=False)
    _rt, result = run_heterogeneous(params, scheduler, san)
    assert san.violations == [], san.summary()
    assert result.trace_digest is not None


def test_san006_regression_instance_beats_belady():
    """The pinned example really has fewer loads than the Belady replay."""
    rt, _result = run_heterogeneous(SAN006_REGRESSION, "eager", False)
    beaten = []
    for k, order in enumerate(rt.executed_order):
        replay = replay_schedule(
            rt.graph,
            Schedule.single_gpu(order),
            policy="belady",
            capacity_bytes=rt.memories[k].capacity,
        )
        if rt.memories[k].n_loads < replay.gpus[0].n_loads:
            beaten.append(k)
    assert beaten, "the SAN006 regression example no longer shows its case"


@settings(max_examples=8, deadline=None)
@given(
    params=instances,
    window=st.integers(min_value=1, max_value=3),
    seed2=st.integers(min_value=0, max_value=100),
)
def test_different_windows_still_deterministic(params, window, seed2):
    """The prefetch window changes the schedule but never determinism."""
    graph = build(params)
    platform = toy_platform(n_gpus=2, memory=3.0)
    digests = set()
    for _ in range(2):
        sched, eviction = make_scheduler("dmdar")
        r = simulate(
            graph,
            platform,
            sched,
            eviction=eviction,
            window=window,
            seed=seed2,
            record_trace=True,
            sanitize=True,
        )
        digests.add(r.trace_digest)
    assert len(digests) == 1
