"""hMETIS+R — hypergraph partitioning + Ready + stealing (Algorithm 3).

The static phase builds a hyperedge per datum over its reader tasks and
partitions the tasks into K balanced parts with minimal shared data
(our from-scratch multilevel partitioner standing in for hMETIS, same
UBfactor/Nruns knobs).  At runtime each GPU pops from its own part with
Ready reordering; an idle GPU steals half of the most loaded GPU's
remaining tasks from the tail.

The partitioning wall-clock time is charged to ``scheduling_time``,
reproducing the paper's pair of curves ("hMETIS+R" vs "hMETIS+R no
part. time").
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.partitioning.interface import PartitionResult, partition_tasks
from repro.schedulers.ready import ReadyLists, ReadyScheduler


class HmetisR(ReadyScheduler):
    """Algorithm 3: hypergraph partition + stealing + Ready."""

    name = "hMETIS+R"

    def __init__(
        self,
        ubfactor: float = 1.0,
        nruns: int = 10,
        use_ready: bool = True,
        use_stealing: bool = True,
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.ubfactor = ubfactor
        self.nruns = nruns
        self.use_ready = use_ready
        self.use_stealing = use_stealing
        self.seed = seed
        self.partition: Optional[PartitionResult] = None

    def prepare(self, view) -> None:
        super().prepare(view)
        self.partition = partition_tasks(
            view.graph,
            view.n_gpus,
            ubfactor=self.ubfactor,
            nruns=self.nruns,
            rng=random.Random(self.seed),
        )
        self._lists = ReadyLists(view, self.partition.parts)

    def on_device_lost(self, gpu: int, requeued: Sequence[int]) -> None:
        self._lists.drop_gpu(gpu, requeued)
