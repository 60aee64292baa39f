"""Interval extraction and resource-utilization analysis of a trace."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Type

from repro.simulator import events as ev
from repro.simulator.trace import TraceRecorder


@dataclass(frozen=True)
class Interval:
    """A half-open time interval ``[start, end)`` tagged with a ref id."""

    start: float
    end: float
    ref: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def _pair_events(
    trace: TraceRecorder,
    start: Type[ev.RuntimeEvent],
    end: Type[ev.RuntimeEvent],
    ref: str,
    gpu: int,
) -> List[Interval]:
    """Pair ``start``/``end`` events on one GPU by their ``ref`` field,
    in FIFO order per ref."""
    open_starts: Dict[int, List[float]] = {}
    intervals: List[Interval] = []
    e: Any  # every traced event type carries ``time`` and ``gpu``
    for e in trace.events:
        kind = type(e)
        if (kind is not start and kind is not end) or e.gpu != gpu:
            continue
        key = getattr(e, ref)
        if kind is start:
            open_starts.setdefault(key, []).append(e.time)
        else:
            starts = open_starts.get(key)
            if starts:
                intervals.append(Interval(starts.pop(0), e.time, key))
    intervals.sort(key=lambda iv: (iv.start, iv.end, iv.ref))
    return intervals


def gpu_busy_intervals(trace: TraceRecorder, gpu: int) -> List[Interval]:
    """Task execution intervals on ``gpu`` (ref = task id)."""
    return _pair_events(trace, ev.TaskStarted, ev.TaskCompleted, "task", gpu)


def transfer_intervals(trace: TraceRecorder, gpu: int) -> List[Interval]:
    """CPU→GPU transfer intervals into ``gpu`` (ref = data id).

    Under fair sharing a transfer's span includes time spent at reduced
    bandwidth; the interval is still when the datum occupied the bus.
    """
    return _pair_events(trace, ev.FetchIssued, ev.FetchCompleted, "data_id", gpu)


def _union_length(intervals: List[Interval]) -> float:
    """Total measure of the union of intervals."""
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for iv in sorted(intervals, key=lambda iv: iv.start):
        if cur_start is None or iv.start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = iv.start, iv.end
        else:
            cur_end = max(cur_end, iv.end)
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def bus_busy_intervals(trace: TraceRecorder, n_gpus: int) -> List[Interval]:
    """All transfer intervals, any destination."""
    out: List[Interval] = []
    for k in range(n_gpus):
        out.extend(transfer_intervals(trace, k))
    out.sort(key=lambda iv: (iv.start, iv.end, iv.ref))
    return out


def bus_utilization(
    trace: TraceRecorder, n_gpus: int, makespan: float
) -> float:
    """Fraction of the makespan during which the bus carried ≥1 transfer."""
    if makespan <= 0:
        return 0.0
    return _union_length(bus_busy_intervals(trace, n_gpus)) / makespan


def overlap_fraction(trace: TraceRecorder, gpu: int) -> float:
    """Share of ``gpu``'s incoming-transfer time hidden behind its compute.

    1.0 means every byte arrived while the GPU was executing something
    (perfect overlap); 0.0 means all transfers happened while the GPU sat
    idle.  This is the quantity behind the paper's Fig. 7 discussion:
    DARTS+LUF can move *more* data than DMDAR yet be faster because its
    transfers overlap better.
    """
    transfers = transfer_intervals(trace, gpu)
    if not transfers:
        return 1.0
    busy = gpu_busy_intervals(trace, gpu)
    total = sum(iv.duration for iv in transfers)
    if total <= 0:
        return 1.0
    hidden = 0.0
    for t in transfers:
        for b in busy:
            lo = max(t.start, b.start)
            hi = min(t.end, b.end)
            if hi > lo:
                hidden += hi - lo
    return min(hidden / total, 1.0)


def memory_timeline(
    trace: TraceRecorder, gpu: int, data_sizes: Optional[List[float]] = None
) -> List[Tuple[float, float]]:
    """(time, resident bytes-or-count) steps for ``gpu``.

    Counts a fetched datum from its :class:`FetchCompleted` (space is
    *reserved* at issue, but the paper's live-set L(k,i) is about
    resident data) and an output from its :class:`OutputAllocated` (the
    producing task writes it in place); a :class:`DeviceFailed` empties
    the GPU.  With ``data_sizes`` the second component is bytes;
    otherwise a datum count.
    """
    level = 0.0
    out: List[Tuple[float, float]] = [(0.0, 0.0)]
    e: Any
    for e in trace.events:
        if e.gpu != gpu:
            continue
        kind = type(e)
        if kind is ev.FetchCompleted or kind is ev.OutputAllocated:
            level += data_sizes[e.data_id] if data_sizes else 1.0
        elif kind is ev.Evicted:
            level -= data_sizes[e.data_id] if data_sizes else 1.0
        elif kind is ev.DeviceFailed:
            level = 0.0
        else:
            continue
        out.append((e.time, level))
    return out


def idle_time(trace: TraceRecorder, gpu: int, makespan: float) -> float:
    """Seconds ``gpu`` spent not executing any task."""
    return makespan - _union_length(gpu_busy_intervals(trace, gpu))
