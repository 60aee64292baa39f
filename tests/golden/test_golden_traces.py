"""Golden-trace regression suite for the six evaluated strategies.

For one tiny memory-pressured instance (2D matmul, n=8, two 120 MB
GPUs), the SAN007 trace digest of every strategy of the paper's
evaluation is committed under ``tests/golden/``.  Any change to the
simulator, a scheduler, or an eviction policy that alters a single
event of a single trace — one reordered fetch, one different eviction
victim, one shifted timestamp — changes the digest and fails this
suite.

Intentional behaviour changes are recorded by regenerating the files::

    PYTHONPATH=src python -m pytest tests/golden --update-golden

and committing the diff (the review then shows exactly which
strategies' executions drifted).
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.platform.spec import tesla_v100_node
from repro.schedulers.registry import make_scheduler
from repro.simulator.sanitizer import check_determinism
from repro.simulator.runtime import simulate
from repro.simulator.trace import DIGEST_LINES, TraceRecorder
from repro.workloads.matmul2d import matmul2d

GOLDEN_DIR = Path(__file__).resolve().parent

#: the six strategies of the paper's evaluation (Fig 5's full set)
GOLDEN_STRATEGIES = (
    "eager",
    "dmdar",
    "mhfp",
    "hmetis+r",
    "darts",
    "darts+luf",
)

#: the pinned tiny instance: n=8 on 2x120 MB crosses the "B fits"
#: pressure threshold, so eviction policy and prefetch order both shape
#: the trace
INSTANCE = {
    "workload": "matmul2d",
    "n": 8,
    "n_gpus": 2,
    "memory_bytes": 120e6,
    "window": 2,
    "seed": 0,
}


def _slug(name: str) -> str:
    return name.replace("+", "_").replace("-", "_")


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"trace_{_slug(name)}.json"


def compute_digest(name: str) -> str:
    """SAN007 digest of the pinned instance (double-run verified)."""
    graph = matmul2d(INSTANCE["n"])
    platform = tesla_v100_node(
        INSTANCE["n_gpus"], memory_bytes=INSTANCE["memory_bytes"]
    )
    return check_determinism(
        graph,
        platform,
        name,
        window=INSTANCE["window"],
        seed=INSTANCE["seed"],
    )


@pytest.mark.parametrize("name", GOLDEN_STRATEGIES)
def test_trace_digest_matches_golden(name, request):
    digest = compute_digest(name)
    path = golden_path(name)
    if request.config.getoption("--update-golden"):
        entry = dict(INSTANCE)
        entry["scheduler"] = name
        entry["digest"] = digest
        path.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n")
        return
    assert path.exists(), (
        f"missing golden file {path.name}; generate it with "
        f"pytest tests/golden --update-golden"
    )
    committed = json.loads(path.read_text())
    assert committed["scheduler"] == name
    assert committed["digest"] == digest, (
        f"{name!r} execution trace drifted from the committed golden "
        f"digest on the pinned instance {INSTANCE}. If the change is "
        f"intentional, rerun with --update-golden and commit the diff."
    )


def test_golden_files_cover_all_six_strategies():
    committed = sorted(p.name for p in GOLDEN_DIR.glob("trace_*.json"))
    expected = sorted(
        golden_path(name).name for name in GOLDEN_STRATEGIES
    )
    assert committed == expected


def test_one_event_perturbation_changes_digest():
    """The digest is sensitive to a single perturbed trace event.

    This is the guarantee the suite rests on: if any one event's
    timestamp, kind, GPU, or payload changes, the golden comparison
    fails — there is no aggregation that could mask a drift.
    """
    graph = matmul2d(INSTANCE["n"])
    platform = tesla_v100_node(
        INSTANCE["n_gpus"], memory_bytes=INSTANCE["memory_bytes"]
    )
    sched, eviction = make_scheduler("darts+luf")
    result = simulate(
        graph,
        platform,
        sched,
        eviction=eviction,
        window=INSTANCE["window"],
        seed=INSTANCE["seed"],
        record_trace=True,
    )
    assert result.trace is not None and result.trace.events
    baseline = result.trace.digest()

    mid = len(result.trace.events) // 2
    e = result.trace.events[mid]
    ref = DIGEST_LINES[type(e)][1]
    for changes in (
        {"time": e.time + 1e-9},
        {"gpu": e.gpu + 1},
        {ref: getattr(e, ref) + 1},
    ):
        perturbed = TraceRecorder()
        perturbed.events = list(result.trace.events)
        perturbed.events[mid] = replace(e, **changes)
        assert perturbed.digest() != baseline, changes

    # and dropping the event entirely is caught too
    truncated = TraceRecorder()
    truncated.events = (
        list(result.trace.events[:mid]) + list(result.trace.events[mid + 1:])
    )
    assert truncated.digest() != baseline
