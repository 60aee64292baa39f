"""Read-only window onto runtime state for schedulers and policies.

:class:`RuntimeView` is the **single** surface schedulers and eviction
policies are given.  It exposes queries (residency, missing bytes, task
buffers, capacities) but no mutators; the API003 lint rule enforces
that scheduler/eviction code never reaches through it into the kernel's
internals.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Iterable, List, Set

from repro.core.problem import TaskGraph
from repro.platform.spec import PlatformSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.kernel import RuntimeKernel


class RuntimeView:
    """Read-only window onto runtime state for schedulers and policies."""

    def __init__(self, runtime: "RuntimeKernel") -> None:
        self._rt = runtime
        self.graph: TaskGraph = runtime.graph
        self.platform: PlatformSpec = runtime.platform
        self.rng: random.Random = runtime.rng

    @property
    def now(self) -> float:
        return self._rt.engine.now

    @property
    def n_gpus(self) -> int:
        return self.platform.n_gpus

    def is_alive(self, gpu: int) -> bool:
        """Whether ``gpu`` is still part of the device set (fault
        injection can remove devices mid-run)."""
        return not self._rt.dead[gpu]

    def present(self, gpu: int) -> Set[int]:
        """Data fully resident on ``gpu``."""
        return self._rt.memories[gpu].present_set()

    def held(self, gpu: int) -> Set[int]:
        """Data resident or currently being fetched into ``gpu``."""
        return self._rt.memories[gpu].held_set()

    def holds(self, gpu: int, d: int) -> bool:
        return self._rt.memories[gpu].holds(d)

    def missing_inputs(self, gpu: int, task_id: int) -> List[int]:
        """Inputs of ``task_id`` that ``gpu`` neither has nor is fetching."""
        mem = self._rt.memories[gpu]
        return [d for d in self.graph.inputs_of(task_id) if not mem.holds(d)]

    def missing_bytes(self, gpu: int, task_id: int) -> float:
        """Bytes still to transfer before ``task_id`` could run on ``gpu``."""
        sizes = self._rt.sizes
        return sum(sizes[d] for d in self.missing_inputs(gpu, task_id))

    def task_buffer(self, gpu: int) -> List[int]:
        """Executing task (if any) followed by the buffered tasks."""
        w = self._rt.workers[gpu]
        out = [w.executing] if w.executing is not None else []
        out.extend(w.buffer)
        return out

    @property
    def has_dependencies(self) -> bool:
        return self._rt.dependencies is not None

    def is_released(self, task_id: int) -> bool:
        """Whether all predecessors of ``task_id`` have completed.

        Always True without dependencies (the paper's base model).
        """
        indeg = self._rt._indegree
        return indeg is None or indeg[task_id] == 0

    def successors(self, task_id: int) -> Iterable[int]:
        """Tasks depending directly on ``task_id`` (empty without
        dependencies)."""
        deps = self._rt.dependencies
        return () if deps is None else deps.succs[task_id]

    def capacity(self, gpu: int) -> float:
        return self._rt.memories[gpu].capacity

    def gpu_gflops(self, gpu: int) -> float:
        return self.platform.gpus[gpu].gflops

    def bus_bandwidth(self) -> float:
        return self.platform.bus.bandwidth
