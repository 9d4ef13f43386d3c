"""The tracing shim, the determinism check and the benchmark's contract."""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
import tracing
from corpora import WORKLOADS, build_corpus

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent


def small(name: str):
    return replace(WORKLOADS[name], books=2, openings_per_book=3)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_every_layer_metric_and_restores_names(tmp_path, name):
    before = [(module, attr, getattr(module, attr)) for module, attr, _ in tracing.patch_targets()]
    runner, metrics, info = run.traced_run(small(name), 0, 0.001, tmp_path, 2)
    # problems would include traced outputs hashing differently from the
    # untraced pass, and serial records differing from parallel ones
    assert runner.problems == []
    assert runner.failed == 0
    assert info["passes"] == 1
    assert info["spans"]["cmd_eval/match_detections"][0] > 0
    assert list(metrics) == [name for name, _, _ in tracing.LAYER_METRICS]
    assert all(value == value for value, _ in metrics.values())
    assert metrics["gridrec.tables_merged"][0] == 0
    assert metrics["gridrec.eval_grid_failures"][0] == 0
    assert all(getattr(module, attr) is original for module, attr, original in before)


@pytest.mark.parametrize("name", ["clean", "noisy"])
def test_timed_run_reports_every_end_to_end_metric(tmp_path, name):
    runner, metrics, info = run.timed_run(small(name), 0, 0.001, tmp_path, 2)
    assert runner.problems == []
    assert list(metrics) == [name for name, _ in run.END_TO_END]
    assert all(value == value and value > 0 for value, _ in metrics.values())
    assert metrics["completed_share"][0] == 1.0
    assert len(info["setup_s"]) == run.SETUP_REPEATS
    assert all(len(samples) == 1 for samples in info["seconds"].values())


def test_trace_counts_agree_with_extract_summary(tmp_path):
    corpus = build_corpus(small("noisy"), 1, tmp_path / "corpus")
    runner = run.Runner(corpus, tmp_path / "out", 1)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        runner.extract(1)
    metrics = tracing.layer_metrics(tracer)
    counts = json.loads(Path(runner.records + ".summary.json").read_text())["counts"]

    assert metrics["gridrec.cells_inferred"] == counts.get("cells_inferred", 0)
    assert metrics["gridrec.cells_residual"] == counts.get("cells_residual", 0)
    assert metrics["cells.rows_realigned"] == counts.get("rows_realigned", 0)
    assert metrics["normalize.match_parish.calls"] == sum(
        n for key, n in counts.items() if key.startswith("parish_")
    )
    assert metrics["interchange.read_document.calls"] == corpus.openings
    assert metrics["pipeline.process_opening.samples"] == corpus.openings
    assert metrics["normalize.edit_distance.calls"] > 0


def test_untraced_and_traced_outputs_hash_alike(tmp_path):
    corpus = build_corpus(small("clean"), 2, tmp_path / "corpus")
    runner = run.Runner(corpus, tmp_path / "out", 2)
    run.run_cycle(runner)
    with tracing.installed(tracing.Tracer()):
        runner.extract(1)
        runner.years_cmd()
        runner.eval_cmd()
    runner.check_outputs("traced", parallel=True)
    assert runner.problems == []
    assert runner.hashes["records"] and len(runner.hashes) == 7


def test_determinism_check_fails_on_differing_records(tmp_path):
    corpus = build_corpus(small("clean"), 3, tmp_path / "corpus")
    runner = run.Runner(corpus, tmp_path / "out", 2)
    run.run_cycle(runner)
    assert runner.problems == []
    with open(runner.parallel_records, "a", encoding="utf-8") as handle:
        handle.write("\n")
    runner.check_outputs("mutated", parallel=True)
    assert runner.problems == ["mutated: serial and parallel records differ"]


def test_self_time_subtracts_children_and_tail_keeps_ten_beyond():
    outer = tracing.Span("outer", "outer", None, 0.0)
    outer.end = 10.0
    inner = tracing.Span("inner", "outer", 0, 1.0)
    inner.end = 4.0
    leaf = tracing.Span("leaf", "outer", 1, 2.0)
    leaf.end = 3.0
    assert tracing.self_times([outer, inner, leaf]) == [7.0, 2.0, 1.0]

    assert tracing.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert tracing.tail([1.0, 2.0]) == (2.0, 100.0)


def test_benchmark_json_lists_what_the_runs_emit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracing.LAYER_METRICS
    )
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "clean", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
