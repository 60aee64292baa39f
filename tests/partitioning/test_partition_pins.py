"""Bit pins of the partitioner's output.

Each case pins a SHA-256 of the exact assignment plus the exact cut, so
any change to the move order of FM refinement, the greedy initial
partition or the coarsening shows up here, not only as a drift in a
scheduling figure.  The values were recorded before the FM pass was
rewritten to park inadmissible moves; a speed-up of the partitioner
must keep them.
"""

import hashlib
import json
import random

import pytest

from repro.partitioning.bisection import multilevel_bisect
from repro.partitioning.graphpart import clique_graph_partition
from repro.partitioning.hypergraph import Hypergraph
from repro.partitioning.interface import partition_tasks
from repro.workloads.cholesky import cholesky_tasks
from repro.workloads.matmul2d import matmul2d
from repro.workloads.matmul3d import matmul3d
from repro.workloads.sparse import sparse_matmul2d


def digest(assignment) -> str:
    blob = json.dumps(assignment, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize(
    "build, sha, cut",
    [
        pytest.param(
            lambda: matmul2d(40),
            "c1eb0c3376e2bdfe1987d2e1750373cfef337be2a28e06753d75fe62903643d2",
            1902182400.0,
            id="matmul2d-40",
        ),
        pytest.param(
            lambda: cholesky_tasks(14),
            "01363167d542208694b3e37c98f8ca63af8ae3ef0c90359dff76a82d4c77edeb",
            460800000.0,
            id="cholesky-14",
        ),
        pytest.param(
            lambda: matmul3d(8),
            "9e5d4525443bb98a6394d731ecdbe8c8e189ebe4caea59d2f893d371be0a24a4",
            1887436800.0,
            id="matmul3d-8",
        ),
        pytest.param(
            lambda: sparse_matmul2d(40, density=0.1, seed=3),
            "b2b5069f80b97eb0daefa4e5759fe503bdee26e552f672ce24c670b4d73fef0d",
            427622400.0,
            id="sparse-matmul2d-40",
        ),
    ],
)
def test_partition_tasks_pinned(build, sha, cut):
    result = partition_tasks(build(), 4)
    assert digest(result.parts) == sha
    assert result.cut_bytes == cut


def test_clique_graph_partition_pinned():
    result = clique_graph_partition(matmul2d(12), 4)
    assert digest(result.parts) == (
        "9809e9769377dc13a9df731724645bacf3ee4900579088ca27397e1b24049a5a"
    )
    assert result.cut_bytes == 589824000.0


def distinct_weight_hypergraph(seed=7, n=300, m=450):
    """Random hypergraph in which no two vertices weigh the same."""
    rng = random.Random(seed)
    vwgt = [rng.uniform(0.5, 5.0) for _ in range(n)]
    nets, nwgt = [], []
    for _ in range(m):
        nets.append(tuple(rng.sample(range(n), rng.randint(2, 6))))
        nwgt.append(rng.choice([0.1, 1.0, 2.5]))
    return Hypergraph(n, vwgt, nets, nwgt)


def test_multilevel_bisect_distinct_weights_pinned():
    h = distinct_weight_hypergraph()
    assert len(set(h.vwgt)) == h.n
    side, cut = multilevel_bisect(h, nruns=4, rng=random.Random(5))
    assert digest(side) == (
        "8c8fd9caf7be9036fda7794b5b7f8ac837bdde4a184fe5978d38c10519d0aa42"
    )
    assert cut == 190.69999999999968
