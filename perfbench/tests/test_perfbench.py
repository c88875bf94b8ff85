"""Checks of the benchmark itself: reference comparison and trace transparency."""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import bench  # noqa: E402
import run  # noqa: E402


@pytest.mark.parametrize("workload, field", [("paper_grid", "p14"), ("cli_inspect", "digest")])
def test_altered_reference_fails_the_op(workload, field, tmp_path):
    ops = bench.build_ops(workload, [0], workdir=tmp_path)[:2]
    refs = bench.load_references(workload)["outputs"]
    assert all(op.key in refs for op in ops)
    assert bench.run_ops(ops, refs, count=2).errors == []

    altered = {key: dict(ref) for key, ref in refs.items()}
    target = ops[1].key
    altered[target][field] = altered[target][field][:-1] + "x"
    errors = bench.run_ops(ops, altered, count=2).errors
    assert len(errors) == 1
    assert target in errors[0] and "differs from reference" in errors[0]


@pytest.mark.parametrize("workload, count, on_path", [
    ("paper_grid", 9, "linksel.newton_refine"),
    ("cli_inspect", 3, "oracle.tree_enum_oracle"),
])
def test_traced_outputs_match_untraced(workload, count, on_path, tmp_path):
    ops = bench.build_ops(workload, [0], workdir=tmp_path)
    refs = bench.load_references(workload)["outputs"]
    original = bench.harness.newton_refine
    plain = bench.run_ops(ops, refs, count=count)
    with bench.Tracer() as tracer:
        assert bench.harness.newton_refine is not original
        traced = bench.run_ops(ops, refs, count=count, tracer=tracer)
    assert bench.harness.newton_refine is original
    assert plain.errors == [] and traced.errors == []
    assert traced.outputs == plain.outputs

    metrics, _ = tracer.layer_metrics()
    assert metrics[f"{on_path}.calls_per_op"] > 0
    assert sum(metrics[f"{fn}.share"] for fn in bench.TRACED) == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_windows_are_seeded_draws_with_a_reference_for_every_op(workload, tmp_path):
    references = bench.load_references(workload)
    seeds = bench.window_seeds(workload, 397540161, references["pool"])
    assert seeds == bench.window_seeds(workload, 397540161, references["pool"])
    assert seeds != bench.window_seeds(workload, 397540162, references["pool"])
    assert len(set(seeds)) == bench.WINDOW_SEEDS[workload]
    assert not set(references["excluded"]) & {str(s) for s in references["pool"]}
    ops = bench.build_ops(workload, seeds, workdir=tmp_path)
    assert all(op.key in references["outputs"] for op in ops)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.items())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
