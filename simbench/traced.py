"""The traced run: per-layer metrics of one workload.

One run of ``--trace 1`` makes, in order:

1. an uninstrumented reference pass over the workload's cells;
2. the traced pass over the same cells, under :func:`spans.instrument`,
   whose simulated totals must equal the reference pass bit for bit;
   its exact counters are compared with the committed ones;
3. a coverage probe under a tracer of its own: every strategy once on a
   small matmul2d, one small matmul2d with C-tile outputs and one small
   Cholesky DAG with a device failure and transfer corruption, so that
   each wrapped layer fires in every workload (a layer without a single
   span is a failed check).  The probe adds only to the metrics named in
   ``PROBE_SUMMED``; every other metric is the workload's cells alone;
4. one ``sanitize=True`` pass over the cells, which must report no
   violation;
5. the scaling curve of DMDAR and DARTS+LUF over three task counts on
   the 4 × 250 MB platform of ``mm2d-4gpu-dynamic``;
6. the observability cost: the workload's ``obs_cell`` timed with
   ``record_trace`` and with ``sanitize`` on and off, repeated until
   ``--seconds`` have passed since the run began.

Steps 1-3 use the fixed seed ``COUNTER_SEED`` whatever ``--seed`` is, so
that the exact counters can be compared with the committed ones on
every run; steps 4-6 use the seeds derived from ``--seed``.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from hostclock import HostClock
from spans import Tracer, instrument
from suite import (
    Cell,
    InputSpec,
    Workload,
    build_inputs,
    metric_label,
    result_line,
    round_seed,
    run_cell,
    setup,
    sim_totals,
)

HERE = Path(__file__).resolve().parent
COUNTERS_FILE = HERE / "counters.json"
OUT_DIR = HERE / "out"

#: every strategy the benchmark runs; the probe runs each once
STRATEGIES = ("eager", "dmdar", "darts+luf", "darts+luf+threshold", "mhfp", "hmetis+r")
#: seed of the traced pass and the probe (the first round of seed 0)
COUNTER_SEED = round_seed(0, 0)
PROBE_INPUTS = (
    InputSpec("probe-mm2d-12", "matmul2d", 12),
    InputSpec("probe-mm2d-out-6", "matmul2d", 6, with_outputs=True),
    InputSpec("probe-chol-4", "cholesky_dag", 4),
)
#: the DAG cell fails a GPU early and corrupts one fetch in five, so that
#: it requeues and retries at ``COUNTER_SEED`` (its makespan is ~7 ms)
PROBE_CELLS = tuple(Cell(s, "probe-mm2d-12", 2, 100) for s in STRATEGIES) + (
    Cell("dmdar", "probe-mm2d-out-6", 2, 100),
    Cell("dmdar", "probe-chol-4", 4, 100, faults=True, fail_at_s=0.001, corruption_p=0.2),
)
#: the metrics to which the probe's cells add, so that none of them is 0
#: on a workload that does not run the strategy, layer or event they count
PROBE_SUMMED = tuple(f"schedulers.decide_s.{metric_label(s)}" for s in STRATEGIES) + (
    "hfp.pack_s", "hfp.self_s", "partitioning.partition_s", "partitioning.fm_s",
    "partitioning.coarsen_s", "partitioning.self_s", "partitioning.cut_mb",
    "bus.writebacks", "routing.transfer_retries", "kernel.tasks_requeued",
)
#: matmul2d sizes of the scaling curve (1 600, 3 136 and 6 400 tasks)
SCALING_N = (40, 56, 80)
SCALING_STRATEGIES = ("dmdar", "darts+luf")
#: least number of alternating on/off repetitions of the observability cell
OBS_REPEATS = 2

#: counters recorded in counters.json (at ``COUNTER_SEED``, from the
#: workload's own cells) and compared on every traced run
EXACT_COUNTERS = (
    "engine.events_fired",
    "schedulers.ops_charged",
    "schedulers.ready_scanned",
    "memory.loads",
    "memory.evictions",
    "bus.transfers",
    "prefetch.admit_calls",
)
#: largest share of the traced wall time that no root span may cover
UNATTRIBUTED_MAX = 0.05
#: layers whose self time is reported as ``<layer>.self_s``
LAYERS = (
    "kernel", "engine", "worker", "prefetch", "memory", "eviction", "bus",
    "routing", "view", "schedulers", "hfp", "partitioning",
)
DECIDE_SPANS = (
    "Scheduler.next_task", "Scheduler.charge_ops", "Scheduler.task_done",
    "Scheduler.on_data_loaded", "Scheduler.on_fetch_issued",
    "Scheduler.on_data_evicted", "Scheduler.on_device_lost",
)


def _instrumented_classes() -> Tuple[List[type], List[type]]:
    import repro.eviction as eviction
    from repro import make_scheduler

    schedulers = list(dict.fromkeys(type(make_scheduler(s)[0]) for s in STRATEGIES))
    policies = [
        getattr(eviction, n) for n in eviction.__all__
        if n.endswith("Policy") and n != "EvictionPolicy"
    ]
    return schedulers, policies


def _traced_cells(tracer: Tracer, cells: Sequence[Cell], inputs, seed: int) -> list:
    """Run ``cells`` under the tracer; return (cell, run, span range, extras)."""
    from repro.simulator.events import TaskRequeued, TransferRetried, WriteBackStarted

    counts = tracer.counts
    out = []
    for cell in cells:
        runtimes = []

        def subscribe(rt):
            runtimes.append(rt)
            for kind, key in (
                (WriteBackStarted, "writebacks"),
                (TransferRetried, "transfer_retries"),
                (TaskRequeued, "tasks_requeued"),
            ):
                rt.events.subscribe(lambda e, key=key: counts.update((key,)), kind)

        lo = len(tracer)
        run = run_cell(cell, inputs, seed, on_runtime=subscribe)
        extras = {"events_fired": 0, "cut_bytes": 0.0}
        if runtimes:
            rt = runtimes[0]
            extras["events_fired"] = rt.engine.events_fired
            partition = getattr(rt.scheduler, "partition", None)
            if partition is not None:
                extras["cut_bytes"] = partition.cut_bytes
        out.append((cell, run, (lo, len(tracer)), extras))
    return out


def _observability(
    workload: Workload, inputs, seed: int, deadline: float, clock: HostClock
) -> Dict[str, float]:
    """Time ratios of the obs cell with tracing / sanitizing on vs off.

    The three modes alternate, at least ``OBS_REPEATS`` times and then
    until ``deadline`` (a ``time.perf_counter`` value) has passed; each
    time is normalized for host drift.
    """
    from repro.simulator.sanitizer import Sanitizer

    cell = workload.cells[workload.obs_cell]
    marks: Dict[str, List[Tuple[float, int]]] = {"off": [], "trace": [], "sanitize": []}
    problems = []
    while len(marks["off"]) < OBS_REPEATS or time.perf_counter() < deadline:
        for mode in marks:
            run = run_cell(
                cell, inputs, seed,
                record_trace=mode == "trace",
                sanitize=Sanitizer(strict=False) if mode == "sanitize" else False,
            )
            marks[mode].append((run.wall_s, clock.mark()))
            problems.extend(run.problems)
    clock.mark()
    times = {mode: statistics.median(clock.normalize(*m) for m in ms) for mode, ms in marks.items()}
    return {
        "trace.overhead_ratio": times["trace"] / times["off"],
        "sanitizer.overhead_ratio": times["sanitize"] / times["off"],
    }, problems


def _scaling(seed: int, clock: HostClock) -> Tuple[Dict[str, float], List[str]]:
    """Log-log slope of normalized cell time against task count."""
    cells = [Cell(s, f"mm2d-{n}", 4, 250) for s in SCALING_STRATEGIES for n in SCALING_N]
    inputs = build_inputs([InputSpec(f"mm2d-{n}", "matmul2d", n) for n in SCALING_N], cells)
    problems = []
    marks = []
    for cell in cells:
        run = run_cell(cell, inputs, seed)
        problems.extend(f"{run.label}: {p}" for p in run.problems)
        marks.append((run, clock.mark()))
    clock.mark()
    out = {}
    for strategy in SCALING_STRATEGIES:
        points = [(math.log(run.n_tasks), math.log(max(clock.normalize(run.wall_s, mark), 1e-9)))
                  for run, mark in marks if run.strategy == strategy]
        xs, ys = [x for x, _ in points], [y for _, y in points]
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
        out[f"schedulers.scaling_exponent.{metric_label(strategy)}"] = slope
    return out, problems


GROUPS = dict(
    {name: "decide" for name in DECIDE_SPANS},
    **{
        "Scheduler.prepare": "prepare",
        "hfp_pack": "hfp_pack",
        "partition_tasks": "partition",
        "fm_refine": "fm",
        "coarsen_to": "coarsen",
    },
)


def layer_metrics(tracer: Tracer, traced: list, wall_s: float) -> Tuple[Dict[str, float], object]:
    """Per-layer metrics from the spans and counters of the traced cells."""
    prof = tracer.profile([rng for _, _, rng, _ in traced], GROUPS)
    counts, calls = tracer.counts, prof.calls
    total = {g: sum(per.get(g, 0.0) for per in prof.group_s) for g in set(GROUPS.values())}
    m: Dict[str, float] = {"schedulers.decide_s": total["decide"]}
    decide = {metric_label(s): 0.0 for s in STRATEGIES}
    for (cell, *_), per in zip(traced, prof.group_s):
        decide[metric_label(cell.strategy)] += per.get("decide", 0.0)
    for label, seconds in decide.items():
        m[f"schedulers.decide_s.{label}"] = seconds
    m["schedulers.prepare_s"] = total["prepare"]
    next_calls = calls.get("Scheduler.next_task", 0)
    m["schedulers.next_task_calls"] = next_calls
    m["schedulers.empty_pop_ratio"] = counts["empty_pops"] / max(next_calls, 1)
    m["schedulers.ready_scanned"] = counts["ready_scanned"]
    m["schedulers.ops_charged"] = counts["ops_charged"]
    m["view.calls"] = sum(c for n, c in calls.items() if n.startswith("RuntimeView."))
    events = sum(extras["events_fired"] for *_, extras in traced)
    m["engine.events_fired"] = events
    m["engine.us_per_event"] = prof.layer_self_s.get("engine", 0.0) / max(events, 1) * 1e6
    m["worker.try_start_calls"] = calls.get("Worker.try_start", 0)
    admits = calls.get("Prefetcher.admit", 0)
    m["prefetch.admit_calls"] = admits
    m["prefetch.admit_reject_ratio"] = counts["admit_rejects"] / max(admits, 1)
    loads = sum(run.loads for _, run, _, _ in traced)
    m["memory.loads"] = loads
    m["memory.evictions"] = sum(run.evictions for _, run, _, _ in traced)
    m["memory.reload_ratio"] = loads / max(len(tracer.inserted), 1)
    m["eviction.victim_calls"] = calls.get("EvictionPolicy.choose_victim", 0)
    m["bus.transfers"] = calls.get("Bus.submit", 0)
    m["bus.writebacks"] = counts["writebacks"]
    m["routing.transfer_retries"] = counts["transfer_retries"]
    m["kernel.tasks_requeued"] = counts["tasks_requeued"]
    m["hfp.pack_s"] = total["hfp_pack"]
    m["partitioning.partition_s"] = total["partition"]
    m["partitioning.fm_s"] = total["fm"]
    m["partitioning.coarsen_s"] = total["coarsen"]
    m["partitioning.cut_mb"] = sum(extras["cut_bytes"] for *_, extras in traced) / 1e6
    m["events.publishes"] = counts["publishes"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = prof.layer_self_s.get(layer, 0.0)
    m["bench.unattributed_s"] = wall_s - prof.root_s
    return m, prof


def _compare_counters(workload: str, counters: Dict[str, int]) -> List[str]:
    """One line per exact counter that differs from its committed value."""
    try:
        committed = json.loads(COUNTERS_FILE.read_text())
    except FileNotFoundError:
        committed = {}
    ref = committed.get(workload, {})
    return [
        f"counter {k}: committed {ref.get(k)}, now {v}"
        for k, v in counters.items() if ref.get(k) != v
    ]


def record_counters(workload: str, counters: Dict[str, int]) -> None:
    """Store ``counters`` as the committed values of ``workload``."""
    try:
        committed = json.loads(COUNTERS_FILE.read_text())
    except FileNotFoundError:
        committed = {}
    committed[workload] = counters
    COUNTERS_FILE.write_text(json.dumps(committed, indent=2, sort_keys=True) + "\n")


def traced_run(workload: Workload, seed: int, seconds: float, record: bool = False) -> dict:
    from repro.simulator.sanitizer import Sanitizer

    deadline = time.perf_counter() + seconds
    cell_seed = round_seed(seed, 0)  # the seeds of the timed run's first round
    problems: List[str] = []
    clock = HostClock()
    inputs, _, splits = setup(workload, clock)
    probe_inputs = build_inputs(PROBE_INPUTS, PROBE_CELLS)
    calib = clock.calibration_ms()

    reference = [run_cell(c, inputs, COUNTER_SEED) for c in workload.cells]
    tracer, probe_tracer = Tracer(), Tracer()
    schedulers, policies = _instrumented_classes()
    with instrument(tracer, schedulers, policies):
        traced = _traced_cells(tracer, workload.cells, inputs, COUNTER_SEED)
    with instrument(probe_tracer, schedulers, policies):
        probe = _traced_cells(probe_tracer, PROBE_CELLS, probe_inputs, COUNTER_SEED)
    traced_runs = [run for _, run, _, _ in traced]
    traced_wall = sum(run.wall_s for run in traced_runs)

    # cross-checks: the traced pass reproduces the untraced pass exactly
    if sim_totals(reference) != sim_totals(traced_runs):
        problems.append(f"traced pass {sim_totals(traced_runs)} != "
                        f"untraced pass {sim_totals(reference)}")
    sanitized = []
    for cell in workload.cells:
        sanitizer = Sanitizer(strict=False)
        run = run_cell(cell, inputs, cell_seed, sanitize=sanitizer)
        run.problems.extend(v.format() for v in sanitizer.violations)
        sanitized.append(run)
    scaling, scaling_problems = _scaling(cell_seed, clock)
    obs, obs_problems = _observability(workload, inputs, cell_seed, deadline, clock)
    problems += obs_problems + scaling_problems

    m, prof = layer_metrics(tracer, traced, traced_wall)
    probe_m, probe_prof = layer_metrics(
        probe_tracer, probe, sum(run.wall_s for _, run, _, _ in probe))
    for name in PROBE_SUMMED:
        m[name] += probe_m[name]
    fired = {
        t.layers[t.names.index(n)]
        for t, pr in ((tracer, prof), (probe_tracer, probe_prof))
        for n, c in pr.calls.items() if c
    }
    silent = [layer for layer in LAYERS if layer not in fired]
    if silent:
        problems.append(f"layers without a single span: {silent}")
    for pr in (prof, probe_prof):
        if pr.misnested:
            problems.append(f"{pr.misnested} spans lie outside their parent span")
    if m["bench.unattributed_s"] > UNATTRIBUTED_MAX * traced_wall:
        problems.append(f"{m['bench.unattributed_s']:.3g} s of the traced wall time "
                        f"lie outside every span (more than {UNATTRIBUTED_MAX:.0%})")
    m.update(obs)
    m.update(scaling)
    m["workloads.build_s"] = statistics.median(s["workloads"] for s in splits)
    m["dag.build_s"] = statistics.median(s["dag"] for s in splits) + probe_inputs.build_s["dag"]
    m["bench.span_overhead_ratio"] = traced_wall / sum(r.wall_s for r in reference)
    m["bench.traced_wall_s"] = traced_wall

    counters = {k: int(m[k]) for k in EXACT_COUNTERS}
    if record:
        record_counters(workload.name, counters)
    mismatches = _compare_counters(workload.name, counters)
    m["bench.counter_mismatches"] = len(mismatches)

    OUT_DIR.mkdir(exist_ok=True)
    folded = OUT_DIR / f"{workload.name}-seed{seed}.folded"
    folded.write_text("".join(
        f"{path} {round(s * 1e6)}\n" for path, s in sorted(prof.folded.items())
    ))

    all_runs = reference + traced_runs + [run for _, run, _, _ in probe] + sanitized
    # the run-level checks (cross-check, coverage, span nesting,
    # observability and scaling cells) count as one more attempt
    failed = sum(1 for r in all_runs if not r.ok) + (1 if problems else 0)
    simulator = sum(m[f"{layer}.self_s"] for layer in LAYERS
                    if layer not in ("view", "schedulers", "hfp", "partitioning"))
    print(f"workload {workload.name} (traced): {len(tracer)} spans, "
          f"traced wall {traced_wall:.3f} s, calibration {calib:.2f} ms")
    print(f"  self time: " + ", ".join(
        f"{layer} {prof.layer_self_s.get(layer, 0.0):.3f}" for layer in LAYERS
    ) + f", other {prof.layer_self_s.get('other', 0.0):.3f}, "
        f"unattributed {m['bench.unattributed_s']:.3f} s (workload cells only)")
    print(f"  share of traced wall: decide {m['schedulers.decide_s'] / traced_wall:.1%}, "
          f"prepare {m['schedulers.prepare_s'] / traced_wall:.1%}, "
          f"simulator layers {simulator / traced_wall:.1%}")
    for name in sorted(m):
        print(f"  {name:40s} {m[name]:.6g}")
    print(f"  exact counters at seed {COUNTER_SEED}: " + (
        f"{len(mismatches)} differ from {COUNTERS_FILE.name}" if mismatches
        else f"equal to {COUNTERS_FILE.name}"))
    for line in mismatches:
        print(f"    {line}")
    print(f"  spans written to {folded}")
    for r in all_runs:
        for p in r.problems:
            print(f"  FAILED {r.label}: {p}", file=sys.stderr)
    for p in problems:
        print(f"  FAILED: {p}", file=sys.stderr)
    return result_line(m, "per_layer", len(all_runs) + 1, failed)
