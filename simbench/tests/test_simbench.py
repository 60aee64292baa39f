"""Tests of the benchmark's own machinery.

Run from the repository root: ``python3 -m pytest simbench/tests``.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest


ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "simbench"))

import run  # noqa: E402
import spans  # noqa: E402
import suite  # noqa: E402
import traced  # noqa: E402
from suite import Cell, InputSpec, Workload  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = Workload(
    name="tiny",
    inputs=(InputSpec("mm", "matmul2d", 6), InputSpec("chol", "cholesky_dag", 4)),
    cells=(
        Cell("dmdar", "mm", 2, 100),
        Cell("darts+luf", "chol", 2, 100, faults=True),
    ),
)


class FakeClock:
    """Advances one second per reading, so span durations are exact."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def test_self_time_is_span_minus_children(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(spans.time, "perf_counter", clock)
    tracer = spans.Tracer()
    leaf = tracer.wrap("leaf", "memory", lambda: clock())
    mid = tracer.wrap("mid", "worker", lambda: (leaf(), leaf()))
    top = tracer.wrap("top", "engine", lambda: (mid(), leaf()))

    t0 = clock()
    top()
    wall = clock() - t0
    prof = tracer.profile([(0, len(tracer))], {"leaf": "g"})

    # a leaf lasts 2 s (start, body, end readings); mid lasts 7 s of
    # which 4 s are its leaves; top lasts 12 s of which 9 s are children
    assert prof.calls == {"leaf": 3, "mid": 1, "top": 1}
    assert prof.layer_self_s == {"memory": 6.0, "worker": 3.0, "engine": 3.0}
    assert prof.root_s == 12.0
    assert prof.group_s == [{"g": 6.0}]
    assert prof.folded == {"top": 3.0, "top;mid": 3.0, "top;mid;leaf": 4.0, "top;leaf": 2.0}
    unattributed = wall - prof.root_s
    assert (wall, unattributed) == (14.0, 2.0)
    assert sum(prof.layer_self_s.values()) + unattributed == wall


def test_span_outside_its_parent_is_counted(monkeypatch):
    monkeypatch.setattr(spans.time, "perf_counter", FakeClock())
    tracer = spans.Tracer()
    leaf = tracer.wrap("leaf", "memory", lambda: None)
    top = tracer.wrap("top", "engine", lambda: leaf())
    top()
    leaf()
    assert tracer.profile([(0, 3)], {}).misnested == 0
    tracer.parent[2] = 0  # the second leaf, recorded under the closed top span
    assert tracer.profile([(0, 3)], {}).misnested == 1


def test_group_time_counts_nested_spans_once(monkeypatch):
    monkeypatch.setattr(spans.time, "perf_counter", FakeClock())
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", "schedulers", lambda: None)
    outer = tracer.wrap("outer", "schedulers", lambda: inner())
    outer()
    inner()
    prof = tracer.profile([(0, 3)], {"inner": "decide", "outer": "decide"})
    # outer lasts 3 s including the nested inner; the second inner 1 s
    assert prof.group_s == [{"decide": 3.0 + 1.0}]


def test_instrument_restores_every_original():
    from repro.simulator.engine import SimulationEngine
    from repro.simulator.view import RuntimeView
    from repro.schedulers.hfp import hfp_pack
    import repro.schedulers.hfp as hfp

    before = (SimulationEngine.schedule_at, RuntimeView.is_released, hfp.hfp_pack)
    schedulers, policies = traced._instrumented_classes()
    with spans.instrument(spans.Tracer(), schedulers, policies):
        assert SimulationEngine.schedule_at is not before[0]
        assert hfp.hfp_pack is not hfp_pack
    assert (SimulationEngine.schedule_at, RuntimeView.is_released, hfp.hfp_pack) == before
    for cls in schedulers:
        assert "charge_ops" not in vars(cls)


def test_host_clock_normalizes_by_the_four_nearest_probes():
    import hostclock

    clock = hostclock.HostClock()
    clock.probes[:] = [0.01, 0.02, 0.03, 0.04, 0.05]
    ref = hostclock.REFERENCE_PROBE_S
    # work between probes 2 and 3 sees probes 1-4 (mean 0.035)
    assert clock.normalize(1.0, 2) == pytest.approx(ref / 0.035)
    # the first piece of work has one probe before it
    assert clock.normalize(1.0, 0) == pytest.approx(ref / 0.02)
    assert clock.mark() == 4 and len(clock.probes) == 6


# ----------------------------------------------------------------------
# metric names
# ----------------------------------------------------------------------
def test_benchmark_json_names_are_valid_and_unique():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(suite.WORKLOADS)


def test_untraced_run_reports_every_declared_metric(capsys):
    result = run.untraced_run(TINY, seed=3, seconds=0.01)
    assert result["correct"], capsys.readouterr()
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_undeclared_metric_is_refused():
    with pytest.raises(KeyError):
        suite.result_line({"no_such_metric": 1.0}, "end_to_end", 1, 0)


def test_traced_run_reports_metrics_and_compares_counters(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(traced, "OUT_DIR", tmp_path)
    monkeypatch.setattr(traced, "COUNTERS_FILE", tmp_path / "counters.json")
    monkeypatch.setattr(traced, "SCALING_N", (4, 5, 6))
    result = traced.traced_run(TINY, seed=3, seconds=0.01)
    out = capsys.readouterr().out
    assert result["correct"], out
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert (tmp_path / "tiny-seed3.folded").read_text()
    # the probe makes the output, fault and static-phase metrics non-zero
    for name in traced.PROBE_SUMMED:
        assert metrics[name] > 0, name
    assert metrics["bench.counter_mismatches"] == len(traced.EXACT_COUNTERS)
    # exact counters repeat bit-equal whatever the seed, so a recorded
    # set compares clean on another seed
    first = {k: metrics[k] for k in traced.EXACT_COUNTERS}
    traced.record_counters("tiny", first)
    again = traced.traced_run(TINY, seed=4, seconds=0.01)
    assert {k: again["metrics"][k]["value"] for k in traced.EXACT_COUNTERS} == first
    assert again["metrics"]["bench.counter_mismatches"]["value"] == 0
    assert "equal to counters.json" in capsys.readouterr().out


# ----------------------------------------------------------------------
# failures are counted, not fatal
# ----------------------------------------------------------------------
def test_broken_cell_counts_in_fail_ratio(capsys):
    broken = Workload(
        name="broken",
            inputs=TINY.inputs,
        cells=(Cell("dmdar", "mm", 2, 100), Cell("no-such-strategy", "mm", 2, 100)),
    )
    result = run.untraced_run(broken, seed=0, seconds=0.01)
    assert not result["correct"]
    assert result["attempted"] == 2 * result["failed"] > 0
    out = capsys.readouterr().out
    assert "cell_fail_ratio" in out and "0.5 ratio" in out


def test_check_result_rejects_a_lost_task():
    from repro import make_scheduler, simulate

    inputs = suite.build_inputs(TINY.inputs, TINY.cells)
    graph = inputs.graphs["mm"]
    sched, ev = make_scheduler("dmdar")
    result = simulate(graph, inputs.platforms[(2, 100)], sched, eviction=ev)
    assert suite.check_result(result, graph) == []
    lost = result.executed_order[0].pop()
    result.gpus[0].n_tasks -= 1
    problems = suite.check_result(result, graph)
    assert any("permutation" in p for p in problems), (lost, problems)
    assert any("n_tasks" in p for p in problems)


def test_summarize_reports_percentile_with_ten_samples_beyond():
    assert suite.summarize([1.0] * 10) == {"median": 1.0, "n": 10}
    s = suite.summarize([float(i) for i in range(1, 101)])
    assert s["median"] == 50.5 and s["n"] == 100 and s["p90"] == 90.0


def test_seeds_are_derived_and_stable():
    a = suite.derive_seed(1, "cell", "dmdar@mm")
    assert a == suite.derive_seed(1, "cell", "dmdar@mm")
    assert a != suite.derive_seed(2, "cell", "dmdar@mm")
    assert 0 <= a < 2**31


def test_missing_sources_exit_without_a_result(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "mm2d-eager-sim", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
