"""Post-mortem analysis of simulated runs.

Reads a run's trace — the typed runtime events
(:mod:`repro.simulator.events`) a
:class:`repro.simulator.trace.TraceRecorder` holds, matched by event
type — into the views one uses to *explain* a schedule's performance:

* :func:`gantt` — per-GPU text timeline of task execution;
* :func:`bus_utilization` / :func:`gpu_busy_intervals` — how loaded the
  contended resources were over time;
* :func:`overlap_fraction` — how much transfer time was hidden behind
  compute (the paper's explanation for DARTS+LUF beating DMDAR at equal
  or higher transfer volume, Fig. 7);
* :func:`memory_timeline` — resident-data occupancy per GPU over time;
* :func:`reuse_distances` — temporal-locality statistics of an executed
  order.
"""

from repro.analysis.timeline import (
    Interval,
    bus_busy_intervals,
    bus_utilization,
    gpu_busy_intervals,
    idle_time,
    memory_timeline,
    overlap_fraction,
    transfer_intervals,
)
from repro.analysis.gantt import gantt
from repro.analysis.locality import (
    ReuseSummary,
    predicted_loads,
    reuse_distances,
    reuse_summary,
)

__all__ = [
    "Interval",
    "gpu_busy_intervals",
    "bus_busy_intervals",
    "transfer_intervals",
    "bus_utilization",
    "overlap_fraction",
    "memory_timeline",
    "idle_time",
    "gantt",
    "reuse_distances",
    "reuse_summary",
    "ReuseSummary",
    "predicted_loads",
]
