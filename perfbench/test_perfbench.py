"""Tests for the benchmark's own arithmetic, checks and tracer, plus a tiny-size
smoke run of every workload.

    python3 -m pytest perfbench -q
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.use_checkout_sources()

import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from svo_mapf import gridworld, harness, pathing  # noqa: E402


def test_percentile_is_nearest_rank():
    samples = list(range(100, 0, -1))
    assert stats.percentile(samples, 50) == 50
    assert stats.percentile(samples, 95) == 95
    assert stats.percentile(samples, 100) == 100
    assert stats.percentile(samples, 0.5) == 1
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_percentile_needs_ten_samples_beyond():
    assert stats.samples_beyond(200, 95) == 10
    assert stats.samples_beyond(199, 95) == 9
    assert stats.samples_needed(95) == 200
    assert stats.samples_needed(99) == 1000
    assert stats.samples_needed(50) == 20
    assert stats.reportable_percentile(list(range(200)), 95) == 189
    with pytest.raises(ValueError):
        stats.reportable_percentile(list(range(199)), 95)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has grandchild g [2, 3]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    assert stats.self_times(parent, start, end).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_tracer_records_nested_spans():
    tracer = tracing.Tracer()
    inner = tracer.span("layer.inner", lambda x: x + 1)
    outer = tracer.span("layer.outer", lambda x: inner(x) * inner(x))
    assert outer(2) == 9
    assert [tracer.names[i] for i in tracer.name_id] == ["layer.outer", "layer.inner", "layer.inner"]
    assert list(tracer.parent) == [-1, 0, 0]
    assert all(e >= s for s, e in zip(tracer.start, tracer.end))
    own = stats.self_times(np.array(tracer.parent), np.array(tracer.start), np.array(tracer.end))
    assert 0.0 <= own[0] <= tracer.end[0] - tracer.start[0]


def test_tracer_binds_every_import_site_and_restores_it():
    original = pathing.distance_field
    assert gridworld.distance_field is original and harness.distance_field is original
    with tracing.Tracer().installed():
        assert pathing.distance_field is not original
        assert gridworld.distance_field is pathing.distance_field
        assert harness.distance_field is pathing.distance_field
    assert pathing.distance_field is original
    assert gridworld.distance_field is original and harness.distance_field is original


def test_error_rate_counts_raises_and_failed_checks():
    tally = stats.Tally()
    assert tally.error_rate == 0.0
    assert workloads._attempt(tally, "ok", lambda: None)

    def bad_output():
        raise workloads.CheckFailed("wrong")

    def crash():
        raise RuntimeError("boom")

    assert not workloads._attempt(tally, "check", bad_output)
    assert not workloads._attempt(tally, "raise", crash)
    tally.record(True)
    assert (tally.attempted, tally.failed, tally.error_rate) == (4, 2, 0.5)
    rounds = [workloads.Round(digest="a"), workloads.Round(digest="b")]
    workloads._check_digests(rounds, ["a", "c"], tally)
    assert (tally.attempted, tally.failed) == (6, 3)


def test_plan_checks_catch_collisions():
    workloads.check_plan([[(0, 0), (0, 1)], [(1, 1), (1, 0)]])
    with pytest.raises(workloads.CheckFailed, match="share"):
        workloads.check_plan([[(0, 0), (0, 1)], [(1, 1), (0, 1)]])
    with pytest.raises(workloads.CheckFailed, match="swap"):
        workloads.check_plan([[(0, 0), (0, 1)], [(0, 1), (0, 0)]])
    workloads.check_no_co_occupancy({(0, 0): [(0.0, 1.0, 0), (1.0, 2.0, 1)]})
    with pytest.raises(workloads.CheckFailed, match="co-occupy"):
        workloads.check_no_co_occupancy({(0, 0): [(0.0, 1.5, 0), (1.0, 2.0, 1)]})


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


TINY = {
    "blocking-room": dict(size=12, agents=4, episode_steps=8, min_rounds=1),
    "train-corridor": dict(train_steps=64, min_rounds=1),
}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_prints_every_metric(name, trace):
    spec = replace(workloads.WORKLOADS[name], **TINY[name])
    lines = []
    result = run.measure(spec, seed=3, seconds=0.0, trace=trace, out=lines.append)
    names = run.END_TO_END if not trace else tracing.PER_LAYER
    printed = {line.split()[1]: line.split()[-1] for line in lines if line.startswith("metric ")}
    assert printed == dict(names)
    assert set(result["metrics"]) == {n for n, _ in names}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert json.loads(lines[-1]) == result


def test_untraced_run_skips_warmup_and_visits_maps_evenly():
    spec = replace(workloads.WORKLOADS["blocking-room"], maps=3, **TINY["blocking-room"])
    metrics, info, _ = workloads.run_untraced(spec, seed=5, seconds=0.0)
    assert info["rounds"] == info["timed_rounds"] + 1
    assert info["timed_rounds"] % spec.maps == 0
    assert info["step_samples"] >= stats.samples_needed(workloads.STEP_PERCENTILE)
    assert all(value > 0 for value in metrics.values())
