"""Pinned scheduling-decision costs: the byte-identity contract.

The hot-path optimization must not change a single scheduling decision.
``RunResult.virtual_decision_time`` — decision operations × the modeled
per-op cost, charged via ``Scheduler.charge_ops`` — is deterministic in
the seed, so its exact float value (and the makespan it shifts) pins
every decision the scheduler made.  The values below were recorded on
the fig5 sweep at the commit *before* the optimization; any drift means
a decision changed or an op was charged from a hook that must not
charge (see DESIGN.md, "Modeled cost vs implementation speed").
"""

from collections import Counter

import pytest

from repro.dag.workloads import cholesky_dag
from repro.experiments.harness import figure_spec, rep_seed
from repro.platform.spec import tesla_v100_node
from repro.schedulers.registry import make_scheduler
from repro.simulator.faults import DeviceFailure, FaultPlan, TransferCorruption
from repro.simulator.runtime import simulate
from repro.simulator.trace import DIGEST_LINES
from repro.workloads.cholesky import cholesky_tasks
from repro.workloads.matmul2d import matmul2d

#: (scheduler, n) -> (virtual_decision_time, makespan), fig5 spec, rep 0,
#: recorded pre-optimization.  Exact equality — these are bit pins.
PINS = {
    ("darts", 20): (0.0022758999999999935, 0.15801816796197082),
    ("darts", 48): (0.07469840000000123, 0.9263897412042957),
    ("darts+luf", 20): (0.002366799999999984, 0.14634095410850337),
    ("darts+luf", 48): (0.10666925000000106, 0.8017516865615292),
    ("mhfp", 20): (0.0005080999999999972, 0.1279115560552323),
    ("mhfp", 48): (0.012543499999999897, 0.6972883378480299),
    # Ready-list owners and DARTS's early-exit scan orders, recorded
    # before the Ready pop became heap-indexed and the early-exit scan
    # got its integer sort key.  hMETIS+R also pins task stealing.
    ("dmdar", 20): (0.000402599999999992, 0.13814113332830255),
    ("dmdar", 48): (0.03211429999999996, 1.3991683086395466),
    ("hmetis+r", 20): (0.0005987999999999969, 0.1403478058401867),
    ("hmetis+r", 30): (0.003993099999999983, 0.41626781235951504),
    ("darts+opti", 20): (0.00035539999999999725, 0.21978520161095605),
    ("darts+opti", 48): (0.007257250000000003, 1.0561771063577519),
    # working set 1 416 MB > 1.75 x 500 MB: the threshold is active
    ("darts+luf+threshold", 48): (
        0.01996244999999977,
        0.9946765668871569,
    ),
}


class TestDecisionCostPins:
    @pytest.mark.parametrize(
        "scheduler,n", sorted(PINS), ids=lambda v: str(v)
    )
    def test_virtual_decision_time_and_makespan_bit_equal(
        self, scheduler, n
    ):
        spec = figure_spec("fig5")
        sched, eviction = make_scheduler(scheduler)
        result = simulate(
            spec.workload(n),
            spec.platform(),
            sched,
            eviction=eviction,
            window=spec.window,
            seed=rep_seed(spec.seed, scheduler, n, 0),
        )
        if scheduler.endswith("+threshold"):
            assert sched._threshold_active, "pin must exercise the threshold"
        vdt, makespan = PINS[(scheduler, n)]
        assert result.virtual_decision_time == vdt, (
            f"{scheduler} n={n}: virtual_decision_time drifted "
            f"{result.virtual_decision_time!r} != {vdt!r} — a scheduling "
            f"decision or a charge_ops site changed"
        )
        assert result.makespan == makespan, (
            f"{scheduler} n={n}: makespan drifted "
            f"{result.makespan!r} != {makespan!r}"
        )


def _mm2d_outputs():
    """C-tile outputs: 288 data, 1.4 GB on 2 x 100 MB."""
    return matmul2d(16, with_outputs=True), None, 2, 100e6, None


def _cholesky_dag_faults():
    """Dependencies, a GPU lost at 0.02 s and 2 % corrupted fetches."""
    graph, deps = cholesky_dag(10)
    faults = FaultPlan(
        seed=7,
        device_failures=(DeviceFailure(gpu=3, time=0.02),),
        transfer_faults=TransferCorruption(probability=0.02),
    )
    return graph, deps, 4, 60e6, faults


def _cholesky_tasks():
    return cholesky_tasks(16), None, 4, None, None


#: DARTS paths the fig5 pins miss, seed 1, recorded before the full
#: scan became count buckets: (scheduler, case) -> (virtual_decision_time,
#: makespan).  Exact equality — these are bit pins.
CASES = {
    "mm2d16-outputs": _mm2d_outputs,
    "cholesky-dag10-faults": _cholesky_dag_faults,
    "cholesky16": _cholesky_tasks,
}
DARTS_PINS = {
    ("darts+luf", "mm2d16-outputs"): (
        0.0034227999999999993,
        0.14005479538217755,
    ),
    ("darts+luf", "cholesky-dag10-faults"): (
        0.008461500000000031,
        0.05426866075275859,
    ),
    ("darts+luf-3inputs", "cholesky-dag10-faults"): (
        0.009648200000000001,
        0.05631739085490076,
    ),
    ("darts+luf+opti-3inputs", "cholesky16"): (
        0.0008600500000000071,
        0.09242646595721467,
    ),
}


class TestDartsPathPins:
    @pytest.mark.parametrize(
        "scheduler,case", sorted(DARTS_PINS), ids=lambda v: str(v)
    )
    def test_virtual_decision_time_and_makespan_bit_equal(
        self, scheduler, case
    ):
        graph, deps, n_gpus, memory, faults = CASES[case]()
        platform = (
            tesla_v100_node(n_gpus)
            if memory is None
            else tesla_v100_node(n_gpus, memory_bytes=memory)
        )
        sched, eviction = make_scheduler(scheduler)
        result = simulate(
            graph,
            platform,
            sched,
            eviction=eviction,
            seed=1,
            dependencies=deps,
            faults=faults,
        )
        assert (result.virtual_decision_time, result.makespan) == (
            DARTS_PINS[(scheduler, case)]
        ), f"{scheduler} on {case}: a scheduling decision changed"


#: LRU victims among C-tile outputs, and Ready's enlist-time cache after
#: ``drop_gpu`` (DMDAR) and after stealing (mHFP), seed 1, recorded
#: before victim choice used the recency order and before the Ready
#: cache held values only for listed tasks: (scheduler, case) ->
#: (virtual_decision_time, makespan).  Exact equality — bit pins.
MEMORY_EVENT_PINS = {
    ("eager", "mm2d16-outputs"): (1.3899999999999965e-05, 0.26931565930732654),
    ("eager", "cholesky-dag10-faults"): (
        2.350000000000015e-05,
        0.07256595526650109,
    ),
    ("dmdar", "mm2d16-outputs"): (0.0005607000000000006, 0.285337438527126),
    ("dmdar", "cholesky-dag10-faults"): (
        0.00043244999999999867,
        0.05961050131668303,
    ),
    ("mhfp", "cholesky-dag10-faults"): (
        0.0007637500000000009,
        0.06329375064832675,
    ),
}


class TestMemoryEventPins:
    @pytest.mark.parametrize(
        "scheduler,case", sorted(MEMORY_EVENT_PINS), ids=lambda v: str(v)
    )
    def test_virtual_decision_time_and_makespan_bit_equal(
        self, scheduler, case
    ):
        graph, deps, n_gpus, memory, faults = CASES[case]()
        sched, eviction = make_scheduler(scheduler)
        result = simulate(
            graph,
            tesla_v100_node(n_gpus, memory_bytes=memory),
            sched,
            eviction=eviction,
            seed=1,
            dependencies=deps,
            faults=faults,
        )
        assert (result.virtual_decision_time, result.makespan) == (
            MEMORY_EVENT_PINS[(scheduler, case)]
        ), f"{scheduler} on {case}: a scheduling decision changed"


#: SAN007 trace digests of the cases the golden traces miss: C-tile
#: write-backs and every fault-recovery kind, seed 1, recorded while the
#: trace still held string-kind records: (scheduler, case) -> digest.
DIGEST_PINS = {
    ("eager", "mm2d16-outputs"): (
        "97eef0cffed3de40c52bde678a10d8cbd240d4797e0bfe2dd5382c95a6a136d7"
    ),
    ("dmdar", "mm2d16-outputs"): (
        "70d579cda545e571b4290937083e1427b5482f8b236f06a91f41f9f413014035"
    ),
    ("darts+luf", "mm2d16-outputs"): (
        "13aa04a15b21a0d512f52bdc3b4d1d33c6394c61ae4105b64b4794d137268d4d"
    ),
    ("eager", "cholesky-dag10-faults"): (
        "0e49ef74343c26cfebcccb8a39f780a7a52d914a9b65e24c818c1a76b1905974"
    ),
    ("dmdar", "cholesky-dag10-faults"): (
        "f379e448b8056f73a67a992ae86cff7f0347b516b03bd43b7869596303522b5c"
    ),
    ("darts+luf", "cholesky-dag10-faults"): (
        "d22f050cfe6551f778331570573f2046a4295072d055151522195b02dc795979"
    ),
}


def _traced(scheduler, case):
    graph, deps, n_gpus, memory, faults = CASES[case]()
    sched, eviction = make_scheduler(scheduler)
    return simulate(
        graph,
        tesla_v100_node(n_gpus, memory_bytes=memory),
        sched,
        eviction=eviction,
        seed=1,
        dependencies=deps,
        faults=faults,
        record_trace=True,
    )


def _line_kinds(result):
    """Digest lines per kind in ``result``'s trace."""
    return Counter(
        DIGEST_LINES[type(e)][0]
        for e in result.trace.events
        if type(e) in DIGEST_LINES
    )


class TestTraceDigestPins:
    @pytest.mark.parametrize(
        "scheduler,case", sorted(DIGEST_PINS), ids=lambda v: str(v)
    )
    def test_trace_digest_bit_equal(self, scheduler, case):
        result = _traced(scheduler, case)
        assert result.trace_digest == DIGEST_PINS[(scheduler, case)], (
            f"{scheduler} on {case}: the trace changed"
        )

    def test_cases_emit_every_line_kind(self):
        """The two cases together pin all twelve digest line kinds."""
        outputs = _line_kinds(_traced("eager", "mm2d16-outputs"))
        faults = _line_kinds(_traced("eager", "cholesky-dag10-faults"))
        assert outputs["store_start"] == outputs["store_end"] == 256
        assert faults["device_failed"] == 1
        assert faults["replica_lost"] == 16
        assert faults["task_requeued"] >= 1
        assert faults["xfer_fail"] == faults["xfer_retry"] >= 1
        assert set(outputs) | set(faults) == {
            "task_start", "task_end", "fetch_start", "fetch_end", "evict",
            "store_start", "store_end", "device_failed", "task_requeued",
            "replica_lost", "xfer_fail", "xfer_retry",
        }
