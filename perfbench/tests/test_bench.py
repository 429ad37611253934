"""Tests for the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

PROG = worker.load_program()
PAIRS = worker.load_json(worker.PAIRS)
REFERENCES = worker.load_json(worker.REFERENCES)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = json.dumps(inputs.build(workload, 7, PAIRS), sort_keys=True)
    again = json.dumps(inputs.build(workload, 7, PAIRS), sort_keys=True)
    other = json.dumps(inputs.build(workload, 8, PAIRS), sort_keys=True)
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_every_seed_uses_the_pinned_catalogue(workload):
    for seed in (None, 1, 2):
        ops = inputs.build(workload, seed, PAIRS)
        assert {op["id"] for op in ops} == set(REFERENCES[workload])
        for op in ops:
            assert worker.sha(op["canonical"]) == REFERENCES[workload][op["id"]]["input"]


def test_normalise_maps_seeded_names_back():
    op = inputs.build("check-ladder", 5, PAIRS)[0]
    doc = json.loads(op["stdin"])
    text = f"witness=({doc['universe'][0]})({doc['universe'][-1]}) component[{doc['params'][0]}]:"
    n = len(doc["universe"])
    assert inputs.normalise(text, op["names"]) == f"witness=(x0)(x{n - 1}) component[t0]:"


def test_pinned_pairs_are_in_the_pool():
    pool = worker.candidate_pool(PROG)
    assert all(tuple(base["tau1"]) in pool and tuple(base["tau2"]) in pool for base in PAIRS)


def test_tail_has_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    value, pct, n = run.tail(samples)
    assert (value, pct, n) == (90.0, 90.0, 100)
    assert sum(s > value for s in samples) == 10
    value, pct, n = run.tail(list(range(11)))
    assert (value, n) == (0, 11)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_self_time_subtracts_covered_child_intervals():
    tree = [
        (0, None, "op", "root", 0.0, 10.0, False),
        (1, 0, "op", "a", 1.0, 4.0, False),
        (2, 1, "op", "c", 2.0, 3.0, True),
        (3, 0, "op", "b", 5.0, 6.0, False),
        (4, 0, "op", "b", 5.5, 7.0, False),
    ]
    table = spans.self_times(tree)
    assert table["root"] == [1, pytest.approx(5.0), 0]  # 10 - (1..4) - (5..7)
    assert table["a"] == [1, pytest.approx(2.0), 0]
    assert table["c"] == [1, pytest.approx(1.0), 1]
    assert table["b"] == [2, pytest.approx(2.5), 0]


def test_merged_self_times_are_per_pass_sums():
    one = {"a": [2, 1.5, 0], "b": [1, 0.5, 1]}
    two = {"a": [2, 2.5, 1]}
    table = spans.merge([one, two])
    assert table["a"] == [4, pytest.approx(4.0), 1]
    assert table["b"] == [1, pytest.approx(0.5), 1]
    metrics = spans.layer_metrics({"cli.command": table["a"]}, {}, 2, 0.0)
    assert metrics["cli.command.calls"]["value"] == 2
    assert metrics["cli.command.self_s"]["value"] == pytest.approx(2.0)


def test_latency_is_the_mean_repetition_of_each_operation():
    ref = run.REFERENCE_CHUNK_S
    passes = [
        {"ids": ["x", "y"], "latencies": [0.3, 0.2], "calibration": [ref, ref]},
        {"ids": ["x", "y"], "latencies": [0.1, None], "calibration": [ref, ref]},
        {"ids": ["x", "y"], "latencies": [0.2, 0.4], "calibration": [ref, ref]},
    ]
    assert run.typical(passes) == [pytest.approx(0.2), pytest.approx(0.3)]


def test_times_scale_with_the_pass_calibration():
    ref = run.REFERENCE_CHUNK_S
    slow = {"ids": ["x"], "latencies": [0.4], "calibration": [ref, 3 * ref]}  # half speed
    fast = {"ids": ["x"], "latencies": [0.05], "calibration": [ref / 2]}  # double speed
    assert run.speed_scale(slow) == pytest.approx(0.5)
    assert run.typical([slow, fast]) == [pytest.approx(0.15)]
    assert run.typical([slow, fast], scaled=False) == [pytest.approx(0.225)]


def _fixed(output: str, golden=None) -> worker.Operation:
    return worker.Operation("op", lambda: (0, output), lambda raw: raw, golden)


def test_a_wrong_reference_counts_as_a_failure():
    ops = [_fixed("right")]
    ok = {"op": {"exit": 0, "output": worker.sha("right")}}
    wrong = {"op": {"exit": 0, "output": worker.sha("wrong")}}
    bad_exit = {"op": {"exit": 1, "output": worker.sha("right")}}
    far = float("inf")
    assert worker.run_pass(ops, ok, None, far, 0)["failures"] == []
    assert len(worker.run_pass(ops, wrong, None, far, 0)["failures"]) == 1
    assert len(worker.run_pass(ops, bad_exit, None, far, 0)["failures"]) == 1
    golden = [_fixed("right", golden="other")]
    assert len(worker.run_pass(golden, ok, None, far, 0)["failures"]) == 1


def test_a_raising_operation_counts_as_a_failure():
    def boom():
        raise ValueError("no")

    op = worker.Operation("op", boom, lambda raw: raw)
    result = worker.run_pass([op], {"op": {"exit": 0, "output": ""}}, None, float("inf"), 0)
    assert result["failures"] == ["op: raised ValueError: no"]


def test_tracer_rebinds_every_namespace_and_restores():
    import softbitop.cli as cli
    import softbitop.finsets as finsets
    import softbitop.pairwise as pairwise

    original = finsets.pairwise_t2
    tracer = spans.Tracer()
    tracer.install(PROG)
    try:
        assert cli.pairwise_t2 is finsets.pairwise_t2 is pairwise.pairwise_t2
        assert PROG.pairwise_t2 is finsets.pairwise_t2 is not original
        op = inputs.build("check-ladder", None, PAIRS)[1]  # 2x2, explicit opens
        call = worker.cli_call(PROG, op["argv"], op["stdin"])
        with tracer.root("op-0"):
            code, _ = call()
    finally:
        tracer.uninstall()
    assert code == 0
    assert cli.pairwise_t2 is finsets.pairwise_t2 is original
    names = {s[3] for s in tracer.spans}
    assert {"cli.parse_space", "cli.command", "finsets.pairwise_t2", "softtop.SoftTopology.build"} <= names
    assert {s[2] for s in tracer.spans} == {"op-0"}
    metrics = spans.layer_metrics(spans.self_times(tracer.spans), tracer.counters, 1, 0.0)
    assert set(metrics) == {
        *(f"{n}.{q}" for n in spans.LAYERS for q in ("calls", "self_s", "errors")),
        *(name for name, _ in spans.COUNTERS),
        spans.OVERHEAD,
    }
    assert metrics["finsets.pairwise_t2.calls"]["value"] == 3  # two components + induced
    assert metrics["softtop.induced_keep_ratio"]["value"] > 0


def test_benchmark_json_lists_exactly_the_reported_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == [name for name, _ in run.END_TO_END]
    layer_names = set(spans.layer_metrics({}, {}, 1, 0.0))
    assert {m["name"] for m in bench["per_layer"]} == layer_names
    assert [w["name"] for w in bench["workloads"]] == list(inputs.WORKLOADS)
