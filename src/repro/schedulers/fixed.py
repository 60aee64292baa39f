"""Replay a precomputed :class:`repro.core.Schedule` in the simulator.

Bridges the analytic model and the discrete-event simulator: any static
σ (brute-force optimal, hand-written, or produced by packing/partitioning
outside a runtime) can be executed with timing, bus contention and a real
eviction policy.  Optionally applies Ready reordering and task stealing
on top, which is how the static halves of mHFP/hMETIS+R behave at runtime.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.schedule import Schedule
from repro.schedulers.ready import ReadyLists, ReadyScheduler


class FixedSchedule(ReadyScheduler):
    """Execute the given per-GPU task lists as-is (or with Ready/steal)."""

    name = "FIXED"

    def __init__(
        self,
        schedule: Schedule,
        use_ready: bool = False,
        use_stealing: bool = False,
    ) -> None:
        super().__init__()
        self.schedule = schedule
        self.use_ready = use_ready
        self.use_stealing = use_stealing
        if use_ready or use_stealing:
            suffix = "+R" if use_ready else ""
            suffix += "+steal" if use_stealing else ""
            self.name = f"FIXED{suffix}"

    def prepare(self, view) -> None:
        super().prepare(view)
        if self.schedule.n_gpus != view.n_gpus:
            raise ValueError(
                f"schedule targets {self.schedule.n_gpus} GPUs but the "
                f"platform has {view.n_gpus}"
            )
        self._lists = ReadyLists(view, self.schedule.order)

    def on_device_lost(self, gpu: int, requeued: Sequence[int]) -> None:
        self._lists.drop_gpu(gpu, requeued)
