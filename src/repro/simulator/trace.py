"""Execution traces and aggregated run results."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Type

from repro.simulator import events as ev

#: digest line kind and ref field per traced event type.  The kind
#: strings exist only as the digest's line format; recorded types
#: missing here (``OutputAllocated``) are skipped by the digest.
DIGEST_LINES: Dict[Type[ev.RuntimeEvent], Tuple[str, str]] = {
    ev.TaskStarted: ("task_start", "task"),
    ev.TaskCompleted: ("task_end", "task"),
    ev.FetchIssued: ("fetch_start", "data_id"),
    ev.FetchCompleted: ("fetch_end", "data_id"),
    ev.Evicted: ("evict", "data_id"),
    ev.WriteBackStarted: ("store_start", "data_id"),
    ev.WriteBackCompleted: ("store_end", "data_id"),
    # fault kinds: they occur only under a fault plan, so fault-free
    # digests never see them
    ev.DeviceFailed: ("device_failed", "gpu"),
    ev.TaskRequeued: ("task_requeued", "task"),
    ev.DataReplicaLost: ("replica_lost", "data_id"),
    ev.TransferFailed: ("xfer_fail", "data_id"),
    ev.TransferRetried: ("xfer_retry", "data_id"),
}


class TraceRecorder:
    """The typed runtime events of one run, in publish order."""

    def __init__(self) -> None:
        self.events: List[ev.RuntimeEvent] = []

    def subscribe_to(self, stream: ev.EventStream) -> None:
        """Record every traced event type published on ``stream``."""
        stream.subscribe(self.events.append, ev.OutputAllocated, *DIGEST_LINES)

    def digest(self) -> str:
        """SHA-256 over the exact event stream.

        One ``time|kind|gpu|ref`` line per event of a :data:`DIGEST_LINES`
        type.  Timestamps are hashed via ``repr`` (full float precision),
        so two digests are equal iff the traces are bit-identical — the
        determinism contract checked by the sanitizer's SAN007 and the
        ``python -m repro.check`` smoke runs.
        """
        h = hashlib.sha256()
        e: Any  # every digested type carries ``time`` and ``gpu``
        for e in self.events:
            line = DIGEST_LINES.get(type(e))
            if line is not None:
                kind, ref = line
                h.update(f"{e.time!r}|{kind}|{e.gpu}|{getattr(e, ref)}\n".encode())
        return h.hexdigest()


@dataclass
class GpuStats:
    """Per-GPU outcome of a simulated run."""

    n_tasks: int = 0
    n_loads: int = 0
    bytes_loaded: float = 0.0
    n_evictions: int = 0
    busy_time: float = 0.0
    flops: float = 0.0
    #: output write-backs (the output-data extension)
    n_stores: int = 0
    bytes_stored: float = 0.0


@dataclass
class RunResult:
    """Aggregated outcome of one simulated execution."""

    scheduler: str
    n_gpus: int
    makespan: float
    total_flops: float
    gpus: List[GpuStats] = field(default_factory=list)
    #: wall-clock seconds spent inside the scheduler (prepare + decisions)
    scheduling_time: float = 0.0
    #: wall-clock seconds of the static preparation phase only
    prepare_time: float = 0.0
    #: wall-clock seconds of per-decision scheduler calls (diagnostic:
    #: host-Python speed, NOT charged to throughput)
    decision_wall_time: float = 0.0
    #: virtual seconds of modelled decision latency (op-count based);
    #: already part of the makespan via task start gating
    virtual_decision_time: float = 0.0
    trace: Optional[TraceRecorder] = None
    #: SHA-256 of the trace event stream (None when tracing is off);
    #: same seed ⇒ same digest is the repo's determinism contract
    trace_digest: Optional[str] = None
    #: order in which each GPU executed its tasks (task ids)
    executed_order: List[List[int]] = field(default_factory=list)
    #: traffic split when NVLink peer links are enabled (bytes)
    bytes_from_host: float = 0.0
    bytes_from_peer: float = 0.0

    @property
    def peer_fraction(self) -> float:
        """Share of traffic served GPU-to-GPU instead of from the host."""
        total = self.bytes_from_host + self.bytes_from_peer
        return self.bytes_from_peer / total if total > 0 else 0.0

    @property
    def total_loads(self) -> int:
        return sum(g.n_loads for g in self.gpus)

    @property
    def total_bytes(self) -> float:
        """Objective 2 in bytes: total CPU→GPU traffic."""
        return sum(g.bytes_loaded for g in self.gpus)

    @property
    def total_mb(self) -> float:
        return self.total_bytes / 1e6

    @property
    def total_evictions(self) -> int:
        return sum(g.n_evictions for g in self.gpus)

    @property
    def total_stored_bytes(self) -> float:
        """GPU→host write-back traffic (output-data extension)."""
        return sum(g.bytes_stored for g in self.gpus)

    @property
    def total_stores(self) -> int:
        return sum(g.n_stores for g in self.gpus)

    @property
    def gflops(self) -> float:
        """Achieved throughput (the paper's y-axis), excluding sched time."""
        if self.makespan <= 0:
            return 0.0
        return self.total_flops / self.makespan / 1e9

    @property
    def gflops_with_scheduling(self) -> float:
        """Throughput with the *static* scheduling phase charged.

        Mirrors the paper's "with scheduling/partitioning time" curves
        (Figs 3, 6, 8): mHFP's packing and hMETIS's partitioning happen
        before any task runs and delay the whole execution.  Per-decision
        costs of the dynamic schedulers are NOT added here — they are
        modelled *inside* the simulation (operation counts gate task
        starts; see ``virtual_decision_time``), so ``makespan`` already
        contains them.
        """
        total = self.makespan + self.prepare_time
        if total <= 0:
            return 0.0
        return self.total_flops / total / 1e9

    def balance_ratio(self) -> float:
        """``max_k nb_k / mean nb_k`` — 1.0 is perfect balance."""
        counts = [g.n_tasks for g in self.gpus]
        mean = sum(counts) / len(counts)
        return max(counts) / mean if mean else 0.0

    def utilization(self, k: int) -> float:
        """Fraction of the makespan GPU ``k`` spent computing."""
        return self.gpus[k].busy_time / self.makespan if self.makespan else 0.0

    def summary(self) -> str:
        lines = [
            f"scheduler={self.scheduler} gpus={self.n_gpus}",
            f"  makespan      {self.makespan * 1e3:10.3f} ms",
            f"  throughput    {self.gflops:10.1f} GFlop/s"
            f" ({self.gflops_with_scheduling:.1f} with sched time)",
            f"  transfers     {self.total_mb:10.1f} MB"
            f" in {self.total_loads} loads, {self.total_evictions} evictions",
        ]
        for k, g in enumerate(self.gpus):
            lines.append(
                f"  gpu{k}: {g.n_tasks} tasks, {g.n_loads} loads, "
                f"util {self.utilization(k) * 100:.0f}%"
            )
        return "\n".join(lines)
