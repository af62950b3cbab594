"""Self-tests of the benchmark: tracing changes no output, every wrapper is
removed, spans fire where layer_map.json says, and self time adds up."""

import json
from pathlib import Path

import pytest

import bench_workloads
import run
from bench_trace import SETUP_OP, Span, Tracer, self_times, snapshot_bindings

HERE = Path(__file__).resolve().parent.parent
LAYER_MAP = json.loads((HERE / "layer_map.json").read_text())
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
OPS = 4  # ops 1 and 3 run traced


def _span(name, start, end, parent):
    s = Span(name, start, parent, 0)
    s.end = end
    return s


def test_self_time_subtracts_each_nested_span_once():
    spans = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),
        _span("a.inner", 2.0, 3.5, 1),
        _span("b", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 1.5, 1.5, 4.0]
    assert sum(self_times(spans)) == spans[0].end - spans[0].start


def test_self_times_of_a_traced_tree_add_up_to_the_root_duration():
    tracer = Tracer()
    root = tracer.open("root")
    for _ in range(3):
        child = tracer.open("child")
        tracer.close(tracer.open("grandchild"))
        tracer.close(child)
    tracer.close(root)
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0, 3, 0, 5]
    assert sum(self_times(tracer.spans)) == pytest.approx(root.end - root.start, rel=1e-9, abs=1e-12)


@pytest.fixture(scope="module")
def runs():
    before = snapshot_bindings()
    out = {}
    for workload in run.WORKLOADS:
        plain = run.measure(workload, seed=0, seconds=0, trace=False, setups=0, ops=OPS)
        traced = run.measure(workload, seed=0, seconds=0, trace=True, setups=0, ops=OPS)
        out[workload] = (plain, traced, snapshot_bindings() == before)
    return out


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_is_bit_identical_and_unwrapped(runs, workload):
    plain, traced, restored = runs[workload]
    assert restored, "a wrapper was left installed"
    assert traced["traced"] == [False, True, False, True]
    reference = bench_workloads.load_reference(workload, 0)
    assert plain["outputs"] == traced["outputs"] == [reference[i % len(reference)] for i in range(OPS)]
    assert plain["failed"] == traced["failed"] == 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_spans_fire_where_the_layer_map_says(runs, workload):
    layers = runs[workload][1]["layers"]
    for name, entry in LAYER_MAP["per_layer"].items():
        if entry["zero_on"] is None:
            continue
        if workload in entry["zero_on"]:
            assert layers[name] == 0, name
        else:
            assert layers[name] > 0, name


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_kernel_counters_see_backward_closures(runs, workload):
    # dA = G B^T and dB = A^T G each cost one forward product, and every
    # forward matmul of these workloads reaches the loss
    layers = runs[workload][1]["layers"]
    factor = 1 if workload == "probe" else 3
    assert layers["numerics.kernel.macs"] == factor * layers["numerics.matmul.fwd_macs"]


def test_setup_spans_are_kept_apart_from_ops(runs):
    tracer = runs["probe"][1]["tracer"]
    saves = [s for s in tracer.spans if s.name == "model.checkpoint.save"]
    assert saves and all(s.op == SETUP_OP for s in saves)
    assert all(s.op in (SETUP_OP, 1, 3) for s in tracer.spans)


def test_fused_layer_flops_match_the_cost_model_closely(runs):
    # h=16 rounds the 0.2*h attention width to 3, so the count sits just below the model
    for workload in ("train_frozen_vit", "train_video", "probe"):
        assert 0.99 < runs[workload][1]["layers"]["flops.counted_over_model"] < 1.0


def test_a_differing_output_counts_as_failed(monkeypatch):
    monkeypatch.setattr(bench_workloads, "load_reference", lambda workload, seed: ["not a loss"] * bench_workloads.CYCLE)
    result = run.measure("train_moe_sft", seed=0, seconds=0, trace=False, setups=0, ops=2)
    assert result["failed"] == 2


def test_names_agree_across_benchmark_json_layer_map_and_runner(runs):
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS) == list(LAYER_MAP["workloads"])
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    assert per_layer == list(LAYER_MAP["per_layer"])
    metrics, _ = run.summarize(runs["probe"][1], SPEC)
    assert list(metrics) == per_layer
    metrics, detail = run.summarize(runs["probe"][0], SPEC)
    # four samples leave nothing beyond p90, so it is withheld
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"] if m["name"] != "latency_s.p90")
    assert sorted(detail["reported"]) == sorted(run.REPORTED_ONLY)


@pytest.mark.parametrize("workload", ["train_video", "probe"])
def test_spread_set_ups_are_timed_and_leave_outputs_unchanged(workload):
    result = run.measure(workload, seed=0, seconds=0, trace=False, setups=2, ops=3)
    assert len(result["setup_times"]) == 3 and all(t > 0 for t in result["setup_times"])
    assert result["failed"] == 0
