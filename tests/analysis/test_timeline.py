"""Tests for interval extraction and resource-utilization analysis."""

import pytest

from repro.analysis.timeline import (
    Interval,
    bus_utilization,
    gpu_busy_intervals,
    idle_time,
    memory_timeline,
    overlap_fraction,
    transfer_intervals,
)
from repro.platform.spec import tesla_v100_node
from repro.schedulers.eager import Eager
from repro.schedulers.registry import make_scheduler
from repro.simulator.runtime import Runtime, simulate
from repro.simulator.trace import TraceRecorder

from tests.conftest import toy_platform
from tests.integration.test_decision_pins import CASES


def traced_run(graph, **kw):
    return simulate(graph, toy_platform(**{k: v for k, v in kw.items()
                                           if k in ("n_gpus", "memory",
                                                    "bandwidth", "gflops")}),
                    Eager(),
                    record_trace=True)


class TestIntervals:
    def test_busy_intervals_cover_all_tasks(self, figure1_graph):
        r = traced_run(figure1_graph, memory=4.0)
        busy = gpu_busy_intervals(r.trace, 0)
        assert len(busy) == 9
        assert all(iv.duration == pytest.approx(1.0) for iv in busy)

    def test_busy_intervals_do_not_overlap(self, figure1_graph):
        r = traced_run(figure1_graph, memory=4.0)
        busy = gpu_busy_intervals(r.trace, 0)
        for a, b in zip(busy, busy[1:]):
            assert b.start >= a.end - 1e-12

    def test_transfer_intervals_match_load_count(self, figure1_graph):
        r = traced_run(figure1_graph, memory=2.0)
        xfers = transfer_intervals(r.trace, 0)
        assert len(xfers) == r.total_loads
        assert all(iv.duration > 0 for iv in xfers)

    def test_pairing_handles_refetches(self, figure1_graph):
        """The same datum may be fetched several times (after eviction);
        each pair must close in FIFO order."""
        r = traced_run(figure1_graph, memory=2.0)
        xfers = transfer_intervals(r.trace, 0)
        by_ref = {}
        for iv in xfers:
            by_ref.setdefault(iv.ref, []).append(iv)
        for ivs in by_ref.values():
            for a, b in zip(ivs, ivs[1:]):
                assert b.start >= a.end - 1e-12


class TestUtilization:
    def test_bus_utilization_in_unit_range(self, figure1_graph):
        r = traced_run(figure1_graph, memory=2.0)
        u = bus_utilization(r.trace, 1, r.makespan)
        assert 0.0 < u <= 1.0

    def test_idle_plus_busy_equals_makespan(self, figure1_graph):
        r = traced_run(figure1_graph, memory=4.0)
        busy = sum(iv.duration for iv in gpu_busy_intervals(r.trace, 0))
        assert busy + idle_time(r.trace, 0, r.makespan) == pytest.approx(
            r.makespan
        )

    def test_overlap_fraction_bounds(self, figure1_graph):
        r = traced_run(figure1_graph, memory=2.0)
        f = overlap_fraction(r.trace, 0)
        assert 0.0 <= f <= 1.0

    def test_overlap_is_one_without_transfers(self):
        trace = TraceRecorder()
        assert overlap_fraction(trace, 0) == 1.0


class TestMemoryTimeline:
    def test_counts_rise_and_fall(self, figure1_graph):
        r = traced_run(figure1_graph, memory=2.0)
        tl = memory_timeline(r.trace, 0)
        levels = [lvl for _, lvl in tl]
        assert max(levels) <= 2.0  # capacity respected in resident count
        assert levels[0] == 0.0

    def test_byte_mode(self, figure1_graph):
        r = traced_run(figure1_graph, memory=2.0)
        sizes = [d.size for d in figure1_graph.data]
        tl = memory_timeline(r.trace, 0, data_sizes=sizes)
        assert max(lvl for _, lvl in tl) <= 2.0

    def test_times_monotonic(self, figure1_graph):
        r = traced_run(figure1_graph, memory=2.0)
        times = [t for t, _ in memory_timeline(r.trace, 0)]
        assert times == sorted(times)


class TestMemoryTimelineMatchesResidency:
    """Outputs count from their allocation and a failed GPU ends empty,
    so the last level is what the GPU holds."""

    @pytest.mark.parametrize("scheduler", ["eager", "dmdar"])
    @pytest.mark.parametrize(
        "case", ["mm2d16-outputs", "cholesky-dag10-faults"]
    )
    def test_final_level_is_resident_bytes(self, scheduler, case):
        graph, deps, n_gpus, memory, faults = CASES[case]()
        sched, eviction = make_scheduler(scheduler)
        rt = Runtime(
            graph,
            tesla_v100_node(n_gpus, memory_bytes=memory),
            sched,
            eviction=eviction,
            seed=1,
            dependencies=deps,
            faults=faults,
            record_trace=True,
        )
        result = rt.run()
        sizes = [d.size for d in graph.data]
        for k in range(n_gpus):
            levels = [lvl for _, lvl in memory_timeline(result.trace, k, sizes)]
            assert min(levels) >= 0.0, f"gpu {k}"
            resident = sum(sizes[d] for d in rt.memories[k].present_set())
            assert levels[-1] == pytest.approx(resident), f"gpu {k}"
