#!/usr/bin/env python
"""Simulator-core hot-path benchmark: engine, schedulers, end-to-end cells.

Measures the layers touched by the profile-guided core optimization —

* engine     — event schedule/step throughput and cancel-heavy runs that
               exercise the lazy heap compaction,
* pack       — HFP package-merging time on the fig3 workload,
* refill     — DARTS decision wall time (the ``_refill`` hot path) for
               one fig3 cell,
* e2e        — end-to-end wall time of every scheduler cell of the fig3
               (n=48) and fig8 (n=70) sweeps via ``harness.run_cell``,
* ready      — how DMDAR's Ready pop scales with the task count: matmul2d
               on 4 × V100 at 250 MB for n = 80/110/140 (6.4k to 19.6k
               tasks), min-of-3 wall time with its spread, plus the exact
               number of queue entries the pops charge (Σ ``last_scanned``),
* partition  — hMETIS+R's static phase: ``partition_tasks`` with k=4 on
               matmul2d for n = 40/60/80 (1.6k to 6.4k tasks), min-of-3
               wall time with its spread, plus the exact ``cut_bytes``,
* darts      — how DARTS+LUF's refills scale with the task count: matmul2d
               with C-tile outputs on 4 × V100 at 250 MB for n = 32/48/64
               (1k to 4.1k tasks), min-of-3 wall time with its spread,
               plus the exact Σ of the ops its decisions charge,
* evict      — what the memory events (victim choice, the held-set
               hooks) cost as the task count grows: DMDAR+LRU and
               DARTS+LUF on matmul2d on 4 × V100 at 500 MB for
               n = 120/160/200 (14.4k to 40k tasks), min-of-3 wall time
               with its spread, plus the exact total of evictions,

and writes the numbers to ``BENCH_core.json`` (repo root) next to the
**pre-optimization baselines** recorded below, with the speedup of each
cell and of the whole fig3/fig8 cell sums.  The optimization is
byte-identical by construction (golden SAN007 digests, pinned
``scheduling_time``), so the only thing this file needs to demonstrate
is wall clock.

Cross-machine comparisons use ``calibration_s`` — the time of a fixed
pure-Python loop — to normalize: ``--check OLD.json`` compares
``e2e/calibration``, ``ready/calibration``, ``partition/calibration``,
``darts/calibration`` and ``evict/calibration`` ratios and fails on a
>``--tolerance`` regression, or on any change of the exact Σ
``last_scanned`` counts, partition cuts, DARTS charged ops or eviction
totals; the CI perf-smoke job runs it
against the committed file.

Usage::

    python benchmarks/bench_core.py [--quick] [--out PATH]
    python benchmarks/bench_core.py --quick --check BENCH_core.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform as _platform
import sys
import time
from typing import Any, Callable, Dict, List, Optional

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without `pip install -e .`
    sys.path.insert(
        0,
        os.path.abspath(
            os.path.join(os.path.dirname(__file__), os.pardir, "src")
        ),
    )

DEFAULT_OUT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_core.json")
)

#: End-to-end cell wall times (seconds) measured at the commit *before*
#: the hot-path optimization, same machine as the post numbers first
#: committed in BENCH_core.json.  ``run_cell(spec, n, scheduler, 0)``,
#: best of 2.
PRE_PR_BASELINE: Dict[str, Dict[str, float]] = {
    "fig3:48": {
        "eager": 0.130,
        "dmdar": 1.090,
        "mhfp": 2.705,
        "darts": 0.242,
        "darts+luf": 0.285,
    },
    "fig8:70": {
        "eager": 0.195,
        "dmdar": 1.037,
        "hmetis+r": 44.837,
        "darts": 2.546,
        "darts+luf": 3.408,
        "darts+luf+threshold": 0.657,
    },
}


#: DMDAR ``ready_scaling`` wall times (seconds) with the linear Ready
#: scan, i.e. before the heap-indexed pop: min of 6 runs on the 1-CPU
#: host that first recorded the section in BENCH_core.json.
READY_BASELINE: Dict[int, float] = {80: 0.546, 110: 1.939, 140: 4.933}
#: matmul2d sizes of the ``ready_scaling`` section (``--quick``: first only)
READY_NS = (80, 110, 140)

#: ``partition`` wall times (seconds) with the FM pass that re-pushed
#: every deferred inadmissible move after each move, i.e. before moves
#: were parked by (side, vertex weight): min of 3 runs on the 1-CPU host
#: that first recorded the section in BENCH_core.json.
PARTITION_BASELINE: Dict[int, float] = {40: 1.128, 60: 3.302, 80: 13.906}
#: matmul2d sizes of the ``partition`` section (``--quick``: first only)
PARTITION_NS = (40, 60, 80)

#: DARTS+LUF ``darts_scaling`` wall times (seconds) with the refill that
#: scanned all of ``dataNotInMem_k`` in Python, i.e. before the count
#: buckets: min of 9 runs on the 2-CPU host that first recorded the
#: section in BENCH_core.json.
DARTS_BASELINE: Dict[int, float] = {32: 0.267, 48: 1.201, 64: 3.684}
#: matmul2d sizes of the ``darts_scaling`` section (``--quick``: first only)
DARTS_NS = (32, 48, 64)

#: ``evict_scaling`` wall times (seconds) per strategy and ``n`` with
#: the victim choice that ran a ``min`` over every candidate and held-set
#: hooks that did arithmetic for every user of the datum: the better of
#: two min-of-3 runs, alternated with runs of the current code, on the
#: 2-CPU host that first recorded the section in BENCH_core.json.
EVICT_BASELINE: Dict[str, Dict[int, float]] = {
    "dmdar": {120: 0.530, 160: 2.156, 200: 5.180},
    "darts+luf": {120: 0.603, 160: 1.928, 200: 4.252},
}
#: matmul2d sizes of the ``evict_scaling`` section (``--quick``: first only)
EVICT_NS = (120, 160, 200)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def calibrate(reps: int = 5) -> float:
    """Time a fixed pure-Python workload (machine-speed yardstick).

    Min of ``reps`` runs: on a shared host one run varied by ±20% while
    the cells it normalizes did not, which was enough to trip the 25%
    ``--check`` gate on unchanged code.
    """
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0
        for i in range(2_000_000):
            acc += i * i
        assert acc > 0
        best = min(best, time.perf_counter() - t0)
    return best


def bench_engine() -> Dict[str, Any]:
    """Schedule/step throughput and a cancel-heavy compaction run."""
    from repro.simulator.engine import SimulationEngine

    n = 200_000
    eng = SimulationEngine()
    counter = [0]

    def cb() -> None:
        counter[0] += 1

    t0 = time.perf_counter()
    for i in range(n):
        eng.schedule_at(float(i % 977), cb)
    schedule_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    eng.run()
    run_s = time.perf_counter() - t0
    assert counter[0] == n

    # cancel-heavy: 90% of handles cancelled, then drain — exercises the
    # lazy compaction path (dead entries > half the heap)
    eng2 = SimulationEngine()
    handles = [eng2.schedule_at(float(i % 977), cb) for i in range(n)]
    t0 = time.perf_counter()
    for i, h in enumerate(handles):
        if i % 10:
            h.cancel()
    cancel_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    eng2.run()
    drain_s = time.perf_counter() - t0

    return {
        "events": n,
        "schedule_ops_per_s": round(n / schedule_s),
        "step_ops_per_s": round(n / run_s),
        "cancel_ops_per_s": round((n - n // 10) / cancel_s),
        "cancelled_drain_s": round(drain_s, 4),
    }


def bench_hfp_pack(n: int = 48) -> Dict[str, Any]:
    """Time ``hfp_pack`` on the fig3 matmul workload."""
    from repro.experiments.harness import figure_spec
    from repro.schedulers.hfp import hfp_pack

    spec = figure_spec("fig3")
    graph = spec.workload(n)
    platform = spec.platform()
    memory = min(g.memory_bytes for g in platform.gpus)
    t0 = time.perf_counter()
    packages = hfp_pack(graph, memory, platform.n_gpus)
    pack_s = time.perf_counter() - t0
    return {
        "n": n,
        "tasks": graph.n_tasks,
        "pack_s": round(pack_s, 4),
        "packages": len(packages),
    }


def bench_cell(fid: str, n: int, scheduler: str, reps: int) -> float:
    """Best-of-``reps`` wall time of one sweep cell."""
    from repro.experiments.harness import figure_spec, run_cell

    spec = figure_spec(fid)
    graph = spec.workload(n)  # build once; cell timing excludes gen
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        run_cell(spec, n, scheduler, 0, graph=graph)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_darts_decision(n: int = 48) -> Dict[str, Any]:
    """DARTS decision wall time for one fig3 cell (the refill path)."""
    from repro.experiments.harness import figure_spec, run_cell

    spec = figure_spec("fig3")
    m = run_cell(spec, n, "darts", 0)
    return {
        "n": n,
        "decision_wall_s": round(m.scheduling_time_s, 4),
        "makespan_s": m.makespan_s,
    }


def _scaling(
    label: str,
    ns: List[int],
    build: Callable[[int], Any],
    run: Callable[[Any], Any],
    exact: str,
    baseline: Dict[int, float],
    reps: int = 3,
) -> Dict[str, Any]:
    """Min-of-``reps`` wall time of ``run(build(n))`` for each ``n``.

    ``run`` returns the section's ``exact`` value, which must not vary
    between repetitions: ``--check`` compares it exactly.
    """
    out: Dict[str, Any] = {}
    for n in ns:
        graph = build(n)
        times = []
        values = set()
        for _ in range(reps):
            t0 = time.perf_counter()
            values.add(run(graph))
            times.append(time.perf_counter() - t0)
        assert len(values) == 1, f"{label} n={n}: nondeterministic {values}"
        best = min(times)
        cell: Dict[str, Any] = {
            "tasks": graph.n_tasks,
            "seconds": round(best, 4),
            "spread": round((max(times) - best) / best, 3),
            exact: values.pop(),
        }
        if n in baseline:
            cell["baseline_s"] = baseline[n]
            cell["speedup"] = round(baseline[n] / best, 2)
        out[str(n)] = cell
        print(
            f"  {label} n={n} ({graph.n_tasks} tasks): {best:.3f}s "
            f"(+{cell['spread']:.0%}) {exact} {cell[exact]:,}",
            flush=True,
        )
    return out


def _counting(cls: type) -> type:
    """``cls`` summing every op its decisions charge in ``charged``."""

    class Counting(cls):
        charged = 0

        def charge_ops(self, n: int) -> None:
            self.charged += n
            super().charge_ops(n)

    return Counting


def bench_ready_scaling(ns: List[int], reps: int = 3) -> Dict[str, Any]:
    """DMDAR on matmul2d, 4 × V100 at 250 MB: wall time vs task count.

    Σ ``last_scanned`` is every queue entry the Ready pops charged; it
    is host-independent, so ``--check`` compares it exactly.
    """
    from repro import matmul2d, tesla_v100_node
    from repro.schedulers.dmda import Dmdar
    from repro.simulator.runtime import simulate

    # every op DMDAR charges is one Ready entry scanned
    counting_dmdar = _counting(Dmdar)
    platform = tesla_v100_node(n_gpus=4, memory_bytes=250e6)

    def run(graph: Any) -> int:
        sched = counting_dmdar()
        simulate(graph, platform, sched, eviction="lru", seed=0)
        return sched.charged

    return _scaling(
        "ready", ns, matmul2d, run, "ready_scanned", READY_BASELINE, reps
    )


def bench_darts_scaling(ns: List[int], reps: int = 3) -> Dict[str, Any]:
    """DARTS+LUF on matmul2d with C-tile outputs, 4 × V100 at 250 MB:
    wall time vs task count.

    Σ charged ops is the modeled cost of every decision (the full
    scans of ``dataNotInMem_k`` included); it is host-independent, so
    ``--check`` compares it exactly.
    """
    from repro import matmul2d, tesla_v100_node
    from repro.schedulers.darts import Darts
    from repro.simulator.runtime import simulate

    counting_darts = _counting(Darts)
    platform = tesla_v100_node(n_gpus=4, memory_bytes=250e6)

    def run(graph: Any) -> int:
        sched = counting_darts()
        simulate(graph, platform, sched, eviction="luf", seed=0)
        return sched.charged

    return _scaling(
        "darts",
        ns,
        lambda n: matmul2d(n, with_outputs=True),
        run,
        "ops_charged",
        DARTS_BASELINE,
        reps,
    )


def bench_evict_scaling(ns: List[int], reps: int = 3) -> Dict[str, Any]:
    """DMDAR+LRU and DARTS+LUF on matmul2d, 4 × V100 at 500 MB: wall
    time vs task count, keyed ``scheduler:n``.

    Every eviction runs the policy's victim choice and both held-set
    hooks; the total of evictions is host-independent, so ``--check``
    compares it exactly.
    """
    from repro import matmul2d, tesla_v100_node
    from repro.schedulers.registry import make_scheduler
    from repro.simulator.runtime import simulate

    platform = tesla_v100_node(n_gpus=4, memory_bytes=500e6)
    out: Dict[str, Any] = {}
    for name, baseline in EVICT_BASELINE.items():

        def run(graph: Any) -> int:
            sched, eviction = make_scheduler(name)
            return simulate(
                graph, platform, sched, eviction=eviction, seed=0
            ).total_evictions

        cells = _scaling(
            f"evict {name}", ns, matmul2d, run, "evictions", baseline, reps
        )
        out.update((f"{name}:{n}", cell) for n, cell in cells.items())
    return out


def bench_partition(ns: List[int], reps: int = 3) -> Dict[str, Any]:
    """``partition_tasks(matmul2d(n), 4)``: static-phase wall time.

    The cut is host-independent, so ``--check`` compares it exactly.
    """
    import random

    from repro import matmul2d
    from repro.partitioning.interface import partition_tasks

    def run(graph: Any) -> float:
        return partition_tasks(
            graph, 4, nruns=10, rng=random.Random(0)
        ).cut_bytes

    return _scaling(
        "partition", ns, matmul2d, run, "cut_bytes", PARTITION_BASELINE, reps
    )


def run_benchmarks(quick: bool) -> Dict[str, Any]:
    cells: Dict[str, List[str]] = {
        "fig3:48": list(PRE_PR_BASELINE["fig3:48"]),
    }
    reps = 1 if quick else 2
    if not quick:
        cells["fig8:70"] = list(PRE_PR_BASELINE["fig8:70"])

    report: Dict[str, Any] = {
        "benchmark": "simulator-core-hot-paths",
        "schema": 1,
        "created_unix": round(time.time(), 3),
        "host": {
            "python": _platform.python_version(),
            "platform": _platform.platform(),
            "cpu_count": os.cpu_count(),
            "usable_cpus": _usable_cpus(),
        },
        "quick": quick,
        "calibration_s": round(calibrate(), 4),
        "engine": bench_engine(),
        "hfp_pack": bench_hfp_pack(),
        "darts_decision": bench_darts_decision(),
        "e2e": {},
        "baseline_pre_pr": PRE_PR_BASELINE,
    }
    report["ready_scaling"] = bench_ready_scaling(
        list(READY_NS[:1] if quick else READY_NS)
    )
    report["partition"] = bench_partition(
        list(PARTITION_NS[:1] if quick else PARTITION_NS)
    )
    report["darts_scaling"] = bench_darts_scaling(
        list(DARTS_NS[:1] if quick else DARTS_NS)
    )
    report["evict_scaling"] = bench_evict_scaling(
        list(EVICT_NS[:1] if quick else EVICT_NS)
    )

    for key, schedulers in cells.items():
        fid, n_s = key.split(":")
        n = int(n_s)
        base = PRE_PR_BASELINE[key]
        out: Dict[str, Any] = {"cells": {}}
        total = 0.0
        for scheduler in schedulers:
            print(f"  {key} {scheduler} ...", flush=True)
            secs = bench_cell(fid, n, scheduler, reps)
            total += secs
            out["cells"][scheduler] = {
                "seconds": round(secs, 4),
                "baseline_s": base[scheduler],
                "speedup": round(base[scheduler] / secs, 2),
            }
        out["total_s"] = round(total, 4)
        out["baseline_total_s"] = round(sum(base[s] for s in schedulers), 4)
        out["total_speedup"] = round(out["baseline_total_s"] / total, 2)
        report["e2e"][key] = out
    return report


def check_regression(
    report: Dict[str, Any], baseline_path: str, tolerance: float
) -> int:
    """Compare calibration-normalized e2e times against a previous run.

    Returns the number of regressed cells (>``tolerance`` slower after
    normalizing out machine speed).
    """
    with open(baseline_path) as fh:
        old = json.load(fh)
    old_cal = old.get("calibration_s") or 1.0
    new_cal = report.get("calibration_s") or 1.0
    failures = 0
    for key, data in report["e2e"].items():
        old_cells = old.get("e2e", {}).get(key, {}).get("cells", {})
        for scheduler, stats in data["cells"].items():
            if scheduler not in old_cells:
                continue
            old_norm = old_cells[scheduler]["seconds"] / old_cal
            new_norm = stats["seconds"] / new_cal
            ratio = new_norm / old_norm if old_norm > 0 else 1.0
            status = "ok"
            if ratio > 1.0 + tolerance:
                status = "REGRESSED"
                failures += 1
            print(
                f"  check {key} {scheduler}: normalized x{ratio:.2f} "
                f"[{status}]"
            )
    # scaling sections: timed like e2e cells, plus one exact value
    for section, exact, label in (
        ("ready_scaling", "ready_scanned", "ready"),
        ("partition", "cut_bytes", "partition"),
        ("darts_scaling", "ops_charged", "darts"),
        ("evict_scaling", "evictions", "evict"),
    ):
        old_cells = old.get(section, {})
        for n, cell in report.get(section, {}).items():
            if n not in old_cells:
                continue
            ref = old_cells[n]
            ratio = (cell["seconds"] / new_cal) / (ref["seconds"] / old_cal)
            status = "ok"
            if ratio > 1.0 + tolerance:
                status = "REGRESSED"
                failures += 1
            if cell[exact] != ref[exact]:
                status = f"{exact} {cell[exact]} != {ref[exact]}"
                failures += 1
            print(f"  check {label} n={n}: normalized x{ratio:.2f} [{status}]")
    return failures


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="fig3 cells, ready n=80, partition n=40, darts n=32 and "
        "evict n=120 only, single e2e rep (CI perf smoke)",
    )
    parser.add_argument("--out", default=DEFAULT_OUT, help="output JSON path")
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        help="compare against a previous BENCH_core.json; non-zero exit "
        "on a normalized e2e regression beyond --tolerance",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional slowdown for --check (default 0.25)",
    )
    args = parser.parse_args(argv)

    report = run_benchmarks(args.quick)
    eng = report["engine"]
    print(
        f"engine: schedule {eng['schedule_ops_per_s']:,} ops/s | "
        f"step {eng['step_ops_per_s']:,} ops/s | "
        f"cancel {eng['cancel_ops_per_s']:,} ops/s"
    )
    print(
        f"hfp_pack(n={report['hfp_pack']['n']}): "
        f"{report['hfp_pack']['pack_s']:.3f}s | darts decision wall: "
        f"{report['darts_decision']['decision_wall_s']:.4f}s"
    )
    for key, data in report["e2e"].items():
        print(
            f"{key}: {data['total_s']:.2f}s vs baseline "
            f"{data['baseline_total_s']:.2f}s "
            f"-> x{data['total_speedup']:.2f}"
        )

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")

    if args.check:
        failures = check_regression(report, args.check, args.tolerance)
        if failures:
            print(
                f"ERROR: {failures} cell(s) regressed beyond "
                f"{args.tolerance:.0%}",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
