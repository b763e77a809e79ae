"""Self-tests of the benchmark.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

The tiny runs shrink every input, so they check that each workload
runs end to end and prints every metric, not how fast anything is.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
from spans import SpanRecorder, layer_totals, self_times  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def test_self_time_on_a_hand_built_tree():
    spans = [
        (0.0, 10.0, -1),  # 0: root
        (1.0, 4.0, 0),    # 1: child
        (3.0, 6.0, 0),    # 2: child overlapping 1 (another thread)
        (2.0, 3.0, 1),    # 3: grandchild, inside 1
        (9.0, 12.0, 0),   # 4: child running past its parent's end
        (7.0, 7.5, 4),    # 5: grandchild starting before its parent
    ]
    # Root: children cover [1, 6] and [9, 10] -> 10 - 5 - 1.
    assert self_times(spans) == pytest.approx(
        [4.0, 2.0, 3.0, 1.0, 3.0, 0.5]
    )


def test_layer_totals_count_outermost_spans_of_ops_only():
    recorder = SpanRecorder()
    op = recorder.add("op", 0.0, 10.0, op=1)
    outer = recorder.add("index.distance.idist", 1.0, 5.0, 1, op)
    recorder.add("index.distance.imind_node", 2.0, 3.0, 1, outer)
    recorder.add("index.distance.imind_node", 6.0, 7.0, 1, op)
    recorder.add("index.distance.imind_node", 8.0, 9.0, -1, op)
    totals = layer_totals(recorder, dict(harness.SPAN_GROUPS, op="op"))
    assert totals["idist"]["busy"] == pytest.approx(4.0)
    assert totals["idist"]["self"] == pytest.approx(3.0)
    assert totals["imind"]["busy"] == pytest.approx(2.0)
    assert totals["imind"]["calls"] == 2
    assert totals["op"]["self"] == pytest.approx(10.0 - 4.0 - 1.0 - 1.0)


def test_wrappers_must_fire_and_unwrap():
    class Layer:
        def work(self, x):
            return x + 1

    table = {"solve": lambda x: x * 2}
    recorder = SpanRecorder()
    recorder.wrap(Layer, "work", "layer.work")
    recorder.wrap(table, "solve", "layer.solve")
    with pytest.raises(RuntimeError, match="Layer.work"):
        recorder.assert_fired()
    with recorder.span("op", 7):
        assert Layer().work(1) == 2
        assert table["solve"](3) == 6
    recorder.assert_fired()
    recorder.unwrap_all()
    assert not hasattr(Layer.work, "__wrapped__")
    assert not hasattr(table["solve"], "__wrapped__")
    names = [record[0] for record in recorder.records()]
    assert names == ["op", "layer.work", "layer.solve"]
    assert {record[4] for record in recorder.records()} == {7}


def test_recorder_round_trips_through_a_file(tmp_path):
    recorder = SpanRecorder()
    with recorder.span("op", 3):
        recorder.add("service.batcher.wait", 1.0, 2.0, 3)
    recorder.count("x", 2)
    path = tmp_path / "spans.json"
    recorder.dump(str(path))
    import spans

    loaded = spans.load(str(path))
    assert loaded.records() == recorder.records()
    assert loaded.counts == {"x": 2}


def test_percentiles_and_samples_beyond():
    values = list(range(1, 101))
    assert harness.percentile(values, 90) == 90
    assert harness.beyond(values, 90) == 10
    assert harness.percentile(values, 99) == 99
    assert harness.beyond(values, 99.9) == 0
    assert harness.beyond(list(range(10_000)), 99.9) == 10
    assert harness.beyond(list(range(140)), 90) == 14


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def test_service_requests_are_seeded_and_mixed():
    import service

    first = service.make_requests("5", 50, tiny=True)
    assert first == service.make_requests("5", 50, tiny=True)
    assert first != service.make_requests("6", 50, tiny=True)
    objectives = [request.objective for request in first]
    assert objectives.count("minmax") == 26
    assert objectives.count("mindist") == 12
    assert objectives.count("maxsum") == 12
    offsets = service.arrival_offsets("5", 40, 10.0)
    assert len(offsets) == 40 and offsets == sorted(offsets)
    assert 0.0 <= offsets[0] and offsets[-1] < 10.0
    assert offsets == service.arrival_offsets("5", 40, 10.0)
    halved = service.arrival_offsets("5", 40, 5.0)
    assert halved == pytest.approx([t / 2.0 for t in offsets])


def test_op_counts_are_fixed_by_seconds():
    rate = harness.SPEC["workloads"]["paper-default"]["ops_per_run_second"]
    ops = harness.planned_ops("paper-default", 18.0, 4)
    assert ops % 4 == 0 and abs(ops - 18.0 * rate) <= 2
    assert ops == harness.planned_ops("paper-default", 18.0, 4)
    assert harness.planned_ops("paper-default", 0.1, 4) == 4


# ----------------------------------------------------------------------
# The contract and end-to-end runs
# ----------------------------------------------------------------------
def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--tiny"],
        cwd=str(cwd), capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        assert not isinstance(entry["value"], bool)
        assert any(
            line.startswith(metric["name"] + " = ") for line in lines
        )
    assert any(line.startswith("failed_frac = ") for line in lines)
    assert any(line.startswith("fingerprint: ") for line in lines)
    if not trace:
        assert all(
            entry["value"] > 0 for entry in result["metrics"].values()
        )


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    proc = _run("paper-default", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
