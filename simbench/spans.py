"""Spans around the public calls into each simulator layer.

The benchmark records spans from its own files: :func:`instrument`
replaces the public methods of each layer's classes (and the module
globals through which the static phases are called) with wrappers that
append one span per call, and puts the originals back on exit.  Spans
stay in memory as flat arrays — name, start, end, parent — and are
reduced to per-layer self times only after the run.

A span's *self time* is its duration minus the durations of its direct
children.  Because spans nest properly, the self times of all spans sum
to the summed duration of the root spans; whatever part of the traced
wall time no root span covers is reported as unattributed.  The
reduction counts the spans that lie outside their recorded parent,
which would make that parent's self time wrong.
"""

from __future__ import annotations

import contextlib
import inspect
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: layer of an engine callback, by the module that defined it
_CALLBACK_LAYERS = {
    "repro.simulator.bus": "bus",
    "repro.simulator.memory": "memory",
    "repro.simulator.routing": "routing",
    "repro.simulator.worker": "worker",
    "repro.simulator.kernel": "kernel",
    "repro.simulator.prefetch": "prefetch",
}


class Tracer:
    """In-memory span store plus exact counters observed at layer boundaries."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        #: index of the innermost open span, -1 outside every span
        self.current = -1
        self.counts: Counter = Counter()
        #: distinct (gpu, datum) pairs ever inserted into a GPU memory
        self.inserted: set = set()

    def name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def __len__(self) -> int:
        return len(self.span_name)

    def wrap(
        self,
        name: str,
        layer: str,
        fn: Callable,
        after: Optional[Callable[[tuple, object], None]] = None,
    ) -> Callable:
        """``fn`` with a span named ``name`` around every call.

        ``after(args, result)`` runs once the span is closed; it feeds the
        exact counters that need a call's arguments or result.
        """
        nid = self.name_id(name, layer)
        span_name, start, end, parent = self.span_name, self.start, self.end, self.parent
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            i = len(span_name)
            span_name.append(nid)
            parent.append(tracer.current)
            end.append(0.0)
            tracer.current = i
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                tracer.current = parent[i]
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # reduction
    # ------------------------------------------------------------------
    def profile(
        self, ranges: Sequence[Tuple[int, int]], groups: Dict[str, str]
    ) -> "Profile":
        """Reduce the spans of consecutive index ranges in one pass.

        ``groups`` maps span names to a group; a group's time in a range
        is the inclusive time of its spans that are not nested inside
        another span of the same group, so nothing is counted twice.
        """
        names = self.names
        group_names = sorted(set(groups.values()))
        gidx = [group_names.index(groups[n]) if n in groups else -1 for n in names]
        gbit = [1 << g if g >= 0 else 0 for g in gidx]
        span_name, start, end, parent = self.span_name, self.start, self.end, self.parent
        n = len(span_name)
        mask = array("H", bytes(2 * n))  # groups open at this span, itself included
        path = array("l", bytes(8 * n))  # call-path id of this span
        path_ids: Dict[Tuple[int, int], int] = {}
        path_key: List[Tuple[int, int]] = []
        self_by_path: List[float] = []
        self_by_name = [0.0] * len(names)
        calls = [0] * len(names)
        root = 0.0
        misnested = 0
        per_range: List[List[float]] = []
        for lo, hi in ranges:
            acc = [0.0] * len(group_names)
            per_range.append(acc)
            for i in range(lo, hi):
                nid = span_name[i]
                p = parent[i]
                d = end[i] - start[i]
                calls[nid] += 1
                self_by_name[nid] += d
                if p >= 0:
                    if start[i] < start[p] or end[i] > end[p]:
                        misnested += 1
                    self_by_name[span_name[p]] -= d
                    open_groups = mask[p]
                    pp = path[p]
                    self_by_path[pp] -= d
                else:
                    root += d
                    open_groups = 0
                    pp = -1
                b = gbit[nid]
                if b and not open_groups & b:
                    acc[gidx[nid]] += d
                mask[i] = open_groups | b
                key = (pp, nid)
                pid = path_ids.get(key)
                if pid is None:
                    pid = path_ids[key] = len(path_key)
                    path_key.append(key)
                    self_by_path.append(0.0)
                path[i] = pid
                self_by_path[pid] += d
        layer_self: Dict[str, float] = {}
        for nid, t in enumerate(self_by_name):
            layer_self[self.layers[nid]] = layer_self.get(self.layers[nid], 0.0) + t
        labels: List[str] = []
        for pp, nid in path_key:
            labels.append(f"{labels[pp]};{names[nid]}" if pp >= 0 else names[nid])
        return Profile(
            calls=dict(zip(names, calls)),
            layer_self_s=layer_self,
            group_s=[dict(zip(group_names, acc)) for acc in per_range],
            root_s=root,
            misnested=misnested,
            folded=dict(zip(labels, self_by_path)),
        )


@dataclass
class Profile:
    """Reduced spans: counts, self times and grouped inclusive times."""

    #: spans per span name
    calls: Dict[str, int]
    #: self seconds per layer
    layer_self_s: Dict[str, float]
    #: per range, inclusive seconds per group (outermost spans only)
    group_s: List[Dict[str, float]]
    #: summed duration of the root spans
    root_s: float
    #: spans that start before or end after their parent span
    misnested: int
    #: self seconds per call path ``a;b;c`` (the collapsed-stack format)
    folded: Dict[str, float]


# ----------------------------------------------------------------------
# instrumentation
# ----------------------------------------------------------------------
def _method_targets(scheduler_classes: Sequence[type], policy_classes: Sequence[type]):
    """(owner, attribute, span name, layer) for every wrapped method."""
    from repro.simulator.bus import FairShareBus, FifoBus
    from repro.simulator.engine import SimulationEngine
    from repro.simulator.kernel import RuntimeKernel
    from repro.simulator.memory import DeviceMemory
    from repro.simulator.prefetch import Prefetcher
    from repro.simulator.routing import HostRouter, RetryingRouter
    from repro.simulator.view import RuntimeView
    from repro.simulator.worker import Worker
    from repro.schedulers.ready import ReadyLists

    targets = [
        (RuntimeKernel, "run", "RuntimeKernel.run", "kernel"),
        (SimulationEngine, "run", "SimulationEngine.run", "engine"),
        (FairShareBus, "submit", "Bus.submit", "bus"),
        (FifoBus, "submit", "Bus.submit", "bus"),
        (HostRouter, "submit", "TransferRouter.submit", "routing"),
        (RetryingRouter, "submit", "TransferRouter.submit", "routing"),
        (Prefetcher, "fill_buffer", "Prefetcher.fill_buffer", "prefetch"),
        (Prefetcher, "admit", "Prefetcher.admit", "prefetch"),
        (Worker, "try_start", "Worker.try_start", "worker"),
        (ReadyLists, "pop_ready", "ReadyLists.pop_ready", "schedulers"),
    ]
    for attr in ("request", "retry_pending", "evict", "allocate_output"):
        targets.append((DeviceMemory, attr, f"DeviceMemory.{attr}", "memory"))
    for attr, value in vars(RuntimeView).items():
        if not attr.startswith("_") and (callable(value) or isinstance(value, property)):
            targets.append((RuntimeView, attr, f"RuntimeView.{attr}", "view"))
    for cls in policy_classes:
        for attr in ("on_insert", "on_access", "on_evict", "on_device_lost", "choose_victim"):
            targets.append((cls, attr, f"EvictionPolicy.{attr}", "eviction"))
    for cls in scheduler_classes:
        for attr in dir(cls):
            if attr in ("prepare", "next_task", "charge_ops", "task_done") or attr.startswith("on_"):
                targets.append((cls, attr, f"Scheduler.{attr}", "schedulers"))
    return targets


def _function_targets():
    """(module, global name, span name, layer) for the static phases."""
    import repro.partitioning.bisection as bisection
    import repro.schedulers.hfp as hfp
    import repro.schedulers.partition as partition

    return [
        (hfp, "hfp_pack", "hfp_pack", "hfp"),
        (partition, "partition_tasks", "partition_tasks", "partitioning"),
        (bisection, "fm_refine", "fm_refine", "partitioning"),
        (bisection, "coarsen_to", "coarsen_to", "partitioning"),
    ]


def _counting_hooks(tracer: Tracer) -> Dict[str, Callable[[tuple, object], None]]:
    """Exact counters that need a call's arguments or result."""
    counts = tracer.counts

    def pop_ready(args, result):
        counts["ready_scanned"] += args[0].last_scanned

    def next_task(args, result):
        if result is None:
            counts["empty_pops"] += 1

    def charge_ops(args, result):
        counts["ops_charged"] += args[1]

    def admit(args, result):
        if not result:
            counts["admit_rejects"] += 1

    def on_insert(args, result):
        tracer.inserted.add((args[0].gpu, args[1]))

    return {
        "ReadyLists.pop_ready": pop_ready,
        "Scheduler.next_task": next_task,
        "Scheduler.charge_ops": charge_ops,
        "Prefetcher.admit": admit,
        "EvictionPolicy.on_insert": on_insert,
    }


@contextlib.contextmanager
def instrument(
    tracer: Tracer,
    scheduler_classes: Sequence[type],
    policy_classes: Sequence[type],
) -> Iterator[Tracer]:
    """Install span wrappers on every layer; restore the originals on exit."""
    from repro.simulator.engine import SimulationEngine
    from repro.simulator.events import EventStream

    hooks = _counting_hooks(tracer)
    patches: List[Tuple[object, str, object, bool]] = []  # owner, attr, original, owned

    def patch(owner, attr, replacement) -> None:
        owned = attr in vars(owner)
        patches.append((owner, attr, vars(owner).get(attr), owned))
        setattr(owner, attr, replacement)

    schedule_at = SimulationEngine.schedule_at
    publish = EventStream.publish
    counts = tracer.counts
    callback_ids: Dict[str, Tuple[str, str]] = {}

    def traced_schedule_at(engine, when, callback):
        # each engine callback becomes a span named after its defining module
        module = getattr(callback, "__module__", None) or "?"
        name_layer = callback_ids.get(module)
        if name_layer is None:
            layer = _CALLBACK_LAYERS.get(module, "other")
            name_layer = callback_ids[module] = (f"callback:{module}", layer)
        return schedule_at(engine, when, tracer.wrap(*name_layer, callback))

    def counted_publish(stream, event):
        counts["publishes"] += 1
        return publish(stream, event)

    # Resolve every original before patching anything, so a subclass
    # never wraps its base class's wrapper.
    resolved = [
        (owner, attr, name, layer, inspect.getattr_static(owner, attr))
        for owner, attr, name, layer in _method_targets(scheduler_classes, policy_classes)
    ]
    try:
        for owner, attr, name, layer, original in resolved:
            if isinstance(original, property):
                patch(owner, attr, property(tracer.wrap(name, layer, original.fget)))
            else:
                patch(owner, attr, tracer.wrap(name, layer, original, hooks.get(name)))
        for module, attr, name, layer in _function_targets():
            patch(module, attr, tracer.wrap(name, layer, getattr(module, attr)))
        patch(SimulationEngine, "schedule_at", traced_schedule_at)
        patch(EventStream, "publish", counted_publish)
        yield tracer
    finally:
        for owner, attr, original, owned in reversed(patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
