"""Workloads, cells and output checks of the simulator benchmark.

A *workload* is a fixed set of inputs (task graphs, dependency sets,
platforms) and a list of *cells*; a cell is one simulated execution of
one input under one strategy.  Everything runs through the public API:
``make_scheduler`` plus ``Runtime(...).run()`` (the constructor behind
``simulate``), so a traced pass can subscribe to the runtime's event
stream before the run starts.

The benchmark seed only reaches the program through the generated
inputs: each cell's ``simulate`` seed and the fault-plan seed are
derived from it; the graphs themselves are the paper's fixed shapes.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from hostclock import HostClock
from repro import cholesky_dag, make_scheduler, matmul2d, tesla_v100_node
from repro.simulator.faults import DeviceFailure, FaultPlan, TransferCorruption
from repro.simulator.runtime import Runtime

MB = 1e6
#: the benchmark's declaration: workloads, metric names and their units
BENCHMARK_FILE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Virtual time of the pinned device failure in the DAG cells; earlier
#: than either strategy's makespan, so the failure always fires.
FAILURE_AT_S = 0.1
#: Probability that one completed fetch is corrupted and retried.
CORRUPTION_P = 0.02
#: times the inputs are rebuilt; ``setup_s`` is the median
SETUP_REPEATS = 7
#: seed variants per run: round ``r`` of a timed run uses variant
#: ``r % SEED_VARIANTS``, so one run averages over several schedules
SEED_VARIANTS = 3


@dataclass(frozen=True)
class InputSpec:
    """One generated input: ``kind`` is ``matmul2d`` or ``cholesky_dag``."""

    key: str
    kind: str
    n: int
    with_outputs: bool = False


@dataclass(frozen=True)
class Cell:
    """One simulated execution: ``strategy`` on input ``key``."""

    strategy: str
    key: str
    n_gpus: int
    memory_mb: float
    faults: bool = False
    #: virtual time of the device failure and corruption probability of
    #: the fault plan (used only when ``faults`` is set)
    fail_at_s: float = FAILURE_AT_S
    corruption_p: float = CORRUPTION_P

    @property
    def label(self) -> str:
        return f"{metric_label(self.strategy)}@{self.key}"


@dataclass(frozen=True)
class Workload:
    """A named set of inputs and cells; its rationale is in BENCHMARK.json."""

    name: str
    inputs: Tuple[InputSpec, ...]
    cells: Tuple[Cell, ...]
    #: index of the cell timed with tracing / sanitizing on vs off
    obs_cell: int = 0


def metric_label(strategy: str) -> str:
    """Strategy name as used in metric names (``darts+luf`` → ``darts_luf``)."""
    return strategy.replace("+", "_").replace("-", "_")


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="mm2d-4gpu-dynamic",
            inputs=(InputSpec("mm2d-80", "matmul2d", 80),),
            cells=tuple(
                Cell(s, "mm2d-80", 4, 250)
                for s in ("dmdar", "darts+luf", "darts+luf+threshold")
            ),
            obs_cell=1,
        ),
        Workload(
            name="mm2d-eager-sim",
            inputs=(
                InputSpec("mm2d-110", "matmul2d", 110),
                InputSpec("mm2d-125", "matmul2d", 125),
            ),
            cells=(
                Cell("eager", "mm2d-110", 1, 500),
                Cell("eager", "mm2d-125", 4, 250),
            ),
        ),
        Workload(
            name="static-phase",
            inputs=(
                InputSpec("mm2d-36", "matmul2d", 36),
                InputSpec("mm2d-40", "matmul2d", 40),
            ),
            cells=(
                Cell("mhfp", "mm2d-36", 1, 500),
                Cell("hmetis+r", "mm2d-40", 4, 250),
            ),
        ),
        Workload(
            name="outputs-dag",
            inputs=(
                InputSpec("mm2d-out-32", "matmul2d", 32, with_outputs=True),
                InputSpec("chol-20", "cholesky_dag", 20),
            ),
            cells=(
                Cell("eager", "mm2d-out-32", 2, 250),
                Cell("dmdar", "mm2d-out-32", 2, 250),
                Cell("darts+luf", "mm2d-out-32", 2, 250),
                Cell("dmdar", "chol-20", 4, 250, faults=True),
                Cell("darts+luf", "chol-20", 4, 250, faults=True),
            ),
        ),
    )
}


# ----------------------------------------------------------------------
# seeds and inputs
# ----------------------------------------------------------------------
def derive_seed(seed: int, *parts: object) -> int:
    """Stable 31-bit seed for one purpose, derived from the benchmark seed."""
    text = "/".join(str(p) for p in (seed,) + parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


def round_seed(seed: int, round_index: int) -> int:
    """Seed of the cells of one timed round (its seed variant)."""
    return derive_seed(seed, "variant", round_index % SEED_VARIANTS)


@dataclass
class Inputs:
    graphs: Dict[str, object]
    deps: Dict[str, object]
    platforms: Dict[Tuple[int, float], object]
    #: seconds spent per generator module (``workloads`` / ``dag``)
    build_s: Dict[str, float]


def build_inputs(specs: Sequence[InputSpec], cells: Sequence[Cell]) -> Inputs:
    """Generate every input of a workload, timing each generator module."""
    graphs: Dict[str, object] = {}
    deps: Dict[str, object] = {}
    build_s = {"workloads": 0.0, "dag": 0.0}
    platforms = {
        (c.n_gpus, c.memory_mb): tesla_v100_node(n_gpus=c.n_gpus, memory_bytes=c.memory_mb * MB)
        for c in cells
    }
    for spec in specs:
        t0 = time.perf_counter()
        if spec.kind == "matmul2d":
            graphs[spec.key] = matmul2d(spec.n, with_outputs=spec.with_outputs)
            build_s["workloads"] += time.perf_counter() - t0
        elif spec.kind == "cholesky_dag":
            graphs[spec.key], deps[spec.key] = cholesky_dag(spec.n)
            build_s["dag"] += time.perf_counter() - t0
        else:
            raise ValueError(f"unknown input kind {spec.kind!r}")
    return Inputs(graphs=graphs, deps=deps, platforms=platforms, build_s=build_s)


def setup(
    workload: Workload, clock: HostClock, repeats: int = SETUP_REPEATS
) -> Tuple[Inputs, List[float], List[Dict[str, float]]]:
    """Build the workload's inputs ``repeats`` times.

    Returns the last inputs, the normalized seconds of each build, and
    each build's per-module split in wall seconds.
    """
    timed, splits = [], []
    inputs = None
    for _ in range(repeats):
        inputs = None
        gc.collect()  # every build starts from the same heap state
        t0 = time.perf_counter()
        inputs = build_inputs(workload.inputs, workload.cells)
        wall = time.perf_counter() - t0
        timed.append((wall, clock.mark()))
        splits.append(inputs.build_s)
    clock.mark()  # the last build's window needs one probe more
    return inputs, [clock.normalize(*t) for t in timed], splits


def fault_plan(seed: int, cell: Cell) -> Optional[FaultPlan]:
    """The pinned plan of a fault cell: the last GPU dies at a fixed time."""
    if not cell.faults:
        return None
    return FaultPlan(
        seed=derive_seed(seed, "faults", cell.label),
        device_failures=(DeviceFailure(gpu=cell.n_gpus - 1, time=cell.fail_at_s),),
        transfer_faults=TransferCorruption(probability=cell.corruption_p),
    )


# ----------------------------------------------------------------------
# running and checking one cell
# ----------------------------------------------------------------------
@dataclass
class CellRun:
    """Outcome of one cell: host wall time, simulated totals, problems."""

    label: str
    strategy: str
    n_tasks: int
    wall_s: float = 0.0
    flops: float = 0.0
    makespan_s: float = 0.0
    bytes_loaded: float = 0.0
    loads: int = 0
    evictions: int = 0
    #: wall seconds normalized to the reference host speed
    norm_s: float = 0.0
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def sim_key(self) -> Tuple[float, float, float]:
        """The deterministic simulated outcome (must repeat bit-equal)."""
        return (self.flops, self.makespan_s, self.bytes_loaded)


def check_result(result, graph) -> List[str]:
    """Why ``result`` is not a correct execution of ``graph`` (empty if it is)."""
    problems = []
    executed = sorted(t for order in result.executed_order for t in order)
    if executed != list(range(graph.n_tasks)):
        problems.append("executed_order is not a permutation of the tasks")
    ran = sum(g.n_tasks for g in result.gpus)
    if ran != graph.n_tasks:
        problems.append(f"GpuStats.n_tasks sums to {ran}, expected {graph.n_tasks}")
    flops = sum(g.flops for g in result.gpus)
    # equal up to the order of the float summation
    if not math.isclose(flops, graph.total_flops, rel_tol=1e-12):
        problems.append(f"flops {flops!r} != graph.total_flops {graph.total_flops!r}")
    if graph.has_outputs:
        produced = sum(1 for d in range(graph.n_data) if graph.is_produced(d))
        if result.total_stores != produced:
            problems.append(f"{result.total_stores} stores, expected {produced}")
    return problems


def run_cell(
    cell: Cell,
    inputs: Inputs,
    seed: int,
    *,
    sanitize: object = False,
    record_trace: bool = False,
    on_runtime: Optional[Callable[[Runtime], None]] = None,
) -> CellRun:
    """Run ``cell`` once; an exception or a failed check is recorded, not raised."""
    graph = inputs.graphs[cell.key]
    run = CellRun(label=cell.label, strategy=cell.strategy, n_tasks=graph.n_tasks)
    platform = inputs.platforms[(cell.n_gpus, cell.memory_mb)]
    try:
        t0 = time.perf_counter()
        scheduler, eviction = make_scheduler(cell.strategy)
        rt = Runtime(
            graph,
            platform,
            scheduler,
            eviction=eviction,
            seed=derive_seed(seed, "cell", cell.label),
            record_trace=record_trace,
            dependencies=inputs.deps.get(cell.key),
            sanitize=sanitize,
            faults=fault_plan(seed, cell),
        )
        if on_runtime is not None:
            on_runtime(rt)
        result = rt.run()
        run.wall_s = time.perf_counter() - t0
    except Exception:  # a broken cell is counted, not fatal to the run
        run.problems.append(traceback.format_exc(limit=3).strip())
        return run
    run.flops = sum(g.flops for g in result.gpus)
    run.makespan_s = result.makespan
    run.bytes_loaded = result.total_bytes
    run.loads = result.total_loads
    run.evictions = result.total_evictions
    run.problems.extend(check_result(result, graph))
    return run


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def sim_totals(runs: Sequence[CellRun]) -> Tuple[float, float]:
    """(GFlop/s, MB loaded) over one pass of the workload's cells."""
    makespan = sum(r.makespan_s for r in runs)
    gflops = sum(r.flops for r in runs) / makespan / 1e9 if makespan > 0 else 0.0
    return gflops, sum(r.bytes_loaded for r in runs) / MB


def summarize(samples: Sequence[float]) -> Dict[str, object]:
    """Median plus the highest percentile with at least ten samples beyond it."""
    values = sorted(samples)
    n = len(values)
    out: Dict[str, object] = {"median": statistics.median(values), "n": n}
    if n > 10:
        pct = math.floor(100 * (n - 10) / n)  # its nearest rank is at most n - 10
        out[f"p{pct}"] = values[max(0, math.ceil(pct / 100 * n) - 1)]
    return out


def declared_units(section: str) -> Dict[str, str]:
    """Unit of each metric of ``section`` (``end_to_end`` or ``per_layer``)."""
    spec = json.loads(BENCHMARK_FILE.read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def result_line(values: Dict[str, float], section: str, attempted: int, failed: int) -> dict:
    """The result object: every metric of ``section`` with its declared unit.

    A metric computed but not declared is a bug of the benchmark; a
    declared metric without a value (no passing round) makes the run
    incorrect.
    """
    units = declared_units(section)
    undeclared = sorted(set(values) - set(units))
    if undeclared:
        raise KeyError(f"metrics not declared in {BENCHMARK_FILE.name}: {undeclared}")
    missing = [name for name in units if name not in values]
    if missing:
        print(f"  FAILED: no value for {missing}", file=sys.stderr)
    return {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }
