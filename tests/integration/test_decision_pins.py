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

import pytest

from repro.experiments.harness import figure_spec, rep_seed
from repro.schedulers.registry import make_scheduler
from repro.simulator.runtime import simulate

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
