"""Simulator benchmark: host throughput and simulated quality per workload.

Usage (from the repository root)::

    python3 simbench/run.py --workload mm2d-4gpu-dynamic --seed 1 --seconds 20 --trace 0

``--trace 0`` times whole cells with no instrumentation and reports the
end-to-end metrics; ``--trace 1`` runs the same cells once more under
per-layer spans and reports the per-layer metrics (see README.md).
Either way the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every cell passed its checks, 1 when one did not, and 2 when
the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import List, Sequence

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

def peak_rss_mb() -> float:
    """Peak resident set size of this process (``ru_maxrss`` is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def timed_rounds(workload, inputs, seed: int, seconds: float, clock) -> List[list]:
    """Run every cell once per round until ``seconds`` have been spent.

    Round ``r`` simulates with the seeds of variant ``r % SEED_VARIANTS``,
    and at least one round of each variant runs.  After that a new round
    starts only when the previous one predicts it will end in time, so a
    run lasts about ``seconds`` whatever the cell sizes.  Each cell is
    normalized by the calibration probes around it (see ``HostClock``).
    """
    from suite import SEED_VARIANTS, round_seed, run_cell

    rounds: List[list] = []
    marks = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        runs = []
        for cell in workload.cells:
            run = run_cell(cell, inputs, round_seed(seed, len(rounds)))
            marks.append((run, clock.mark()))
            runs.append(run)
        rounds.append(runs)
        now = time.perf_counter()
        if len(rounds) >= SEED_VARIANTS and now + (now - t0) > start + seconds:
            clock.mark()  # the last cell's window needs one probe more
            for run, mark in marks:
                run.norm_s = clock.normalize(run.wall_s, mark)
            return rounds


def untraced_run(workload, seed: int, seconds: float) -> dict:
    from hostclock import HostClock
    from suite import SEED_VARIANTS, declared_units, result_line, setup, sim_totals, summarize

    clock = HostClock()
    inputs, setup_samples, _ = setup(workload, clock)
    rounds = timed_rounds(workload, inputs, seed, seconds, clock)
    runs = [r for rnd in rounds for r in rnd]
    failed = sum(1 for r in runs if not r.ok)
    # The simulated outcome is a pure function of the inputs: every
    # round must reproduce the first round of its seed variant bit for bit.
    for i, rnd in enumerate(rounds[SEED_VARIANTS:], SEED_VARIANTS):
        for want, got in zip(rounds[i % SEED_VARIANTS], rnd):
            if got.ok and got.sim_key() != want.sim_key():
                got.problems.append(f"differs from round {i % SEED_VARIANTS}: "
                                    f"{got.sim_key()} != {want.sim_key()}")
                failed += 1
    ok_rounds = [rnd for rnd in rounds if all(r.ok for r in rnd)]
    tput = [sum(r.n_tasks for r in rnd) / sum(r.norm_s for r in rnd) for rnd in ok_rounds]
    longest = [max(r.norm_s for r in rnd) for rnd in ok_rounds]
    raw = {
        "tasks_per_s": [sum(r.n_tasks for r in rnd) / sum(r.wall_s for r in rnd)
                        for rnd in ok_rounds],
        "cell_s_max": [max(r.wall_s for r in rnd) for rnd in ok_rounds],
    }
    gflops, transfer_mb = sim_totals([r for rnd in rounds[:SEED_VARIANTS] for r in rnd])
    summaries = {
        "tasks_per_s": summarize(tput) if tput else None,
        "cell_s_max": summarize(longest) if longest else None,
        "setup_s": summarize(setup_samples),
    }
    values = {name: summary["median"] for name, summary in summaries.items() if summary}
    values.update(peak_rss_mb=peak_rss_mb(), sim_gflops=gflops, sim_transfer_mb=transfer_mb)
    print(f"workload {workload.name}: {len(rounds)} rounds x {len(workload.cells)} cells, "
          f"calibration {clock.calibration_ms():.2f} ms "
          f"(range {min(clock.probes) * 1e3:.2f}-{max(clock.probes) * 1e3:.2f} ms, "
          f"n={len(clock.probes)})")
    if ok_rounds:
        print("  unnormalized: " + ", ".join(
            f"{name} {statistics.median(v):.6g}" for name, v in raw.items()))
    for name, unit in declared_units("end_to_end").items():
        summary = summaries.get(name)
        if name not in values:
            print(f"  {name:16s} n/a {unit}  (no passing round)")
        elif summary is not None:
            extra = " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                             for k, v in summary.items() if k != "median")
            print(f"  {name:16s} {values[name]:.6g} {unit}  ({extra})")
        else:
            print(f"  {name:16s} {values[name]:.6g} {unit}")
    # not in the result's metrics (it is 0 on a correct run): the result
    # line carries it as ``failed`` / ``attempted``
    print(f"  {'cell_fail_ratio':16s} {failed / len(runs):.6g} ratio  "
          f"({failed}/{len(runs)} cells failed)")
    for r in runs:
        for p in r.problems:
            print(f"  FAILED {r.label}: {p}", file=sys.stderr)
    return result_line(values, "end_to_end", len(runs), failed)


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-counters", action="store_true",
        help="with --trace 1: store the workload's exact counters in counters.json",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"simbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    if not (HERE.parent / "BENCHMARK.json").is_file():
        print(f"simbench: no BENCHMARK.json beside {HERE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from suite import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"simbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.trace:
        from traced import traced_run

        result = traced_run(workload, args.seed, args.seconds, record=args.record_counters)
    else:
        result = untraced_run(workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
