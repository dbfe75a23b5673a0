"""Tests of the benchmark itself: span arithmetic, tracer hygiene, report
checks, and a tiny-size smoke run of every workload.

    python3 -m pytest -q perfbench/tests
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import worker  # noqa: E402
from check import report_problems  # noqa: E402
from tracing import (PER_LAYER_UNITS, Tracer, audit_summary,  # noqa: E402
                     per_layer, self_times)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _span(name, start, end, parent, audit_id=1):
    return (name, start, end, parent, audit_id)


# cli.main [0, 10]
#   audit.audit [1, 9]
#     audit.bootstrap_test [2, 6]
#       models.margins [3, 4]
#       metrics.metric_value [4, 4.5]
#     dataset.split [6.5, 8]          split ...
#       dataset.split [7, 7.5]        ... computing the lazy cell_indices
TREE = [
    _span("cli.main", 0.0, 10.0, -1),
    _span("audit.audit", 1.0, 9.0, 0),
    _span("audit.bootstrap_test", 2.0, 6.0, 1),
    _span("models.margins", 3.0, 4.0, 2),
    _span("metrics.metric_value", 4.0, 4.5, 2),
    _span("dataset.split", 6.5, 8.0, 1),
    _span("dataset.split", 7.0, 7.5, 5),
]


def test_self_time_is_span_minus_its_children():
    assert self_times(TREE) == pytest.approx(
        [2.0, 2.5, 2.5, 1.0, 0.5, 1.0, 0.5])


def test_summary_uses_self_and_outermost_inclusive_times():
    s = audit_summary(TREE, {"margin_rows": 7})
    assert s["cli.self_s"] == pytest.approx(2.0)
    assert s["audit.self_s"] == pytest.approx(2.5)
    assert s["audit.bootstrap_s"] == pytest.approx(2.5)
    assert s["audit.bootstrap_tests"] == 1
    assert s["models.margin_s"] == pytest.approx(1.0)
    assert s["models.margin_rows"] == 7
    # The nested split span lies inside the outer one: counted once.
    assert s["dataset.split_s"] == pytest.approx(1.5)
    assert s["trace.spans"] == len(TREE)
    assert set(s) | {"trace.overhead_s"} == set(PER_LAYER_UNITS)


def test_per_layer_splits_spans_by_audit_and_takes_medians():
    tracer = Tracer()
    second = [(n, a + 20, b + 20, p + len(TREE) if p >= 0 else -1, 2)
              for n, a, b, p, _ in TREE]
    tracer.spans.extend(TREE + second)
    tracer.counts[1]["margin_rows"] = 7
    tracer.counts[2]["margin_rows"] = 9
    out = per_layer(tracer, [10.0, 10.0], [9.0, 9.5])
    assert out["cli.self_s"] == pytest.approx(2.0)
    assert out["models.margin_rows"] == 8
    assert out["trace.overhead_s"] == pytest.approx(0.75)


def test_tracer_restores_every_patched_name():
    sites = [("fairuse.metrics", "metric_value"),
             ("fairuse.audit", "metric_value"),
             ("fairuse.cli", "main")]
    before = [getattr(importlib.import_module(m), a) for m, a in sites]
    dataset = importlib.import_module("fairuse.dataset")
    func = dataset.Dataset.__dict__["cell_indices"].func
    tracer = Tracer()
    tracer.install()
    try:
        during = [getattr(importlib.import_module(m), a) for m, a in sites]
        assert all(d is not b for d, b in zip(during, before))
        assert during[0] is during[1]
    finally:
        tracer.uninstall()
    after = [getattr(importlib.import_module(m), a) for m, a in sites]
    assert all(a is b for a, b in zip(after, before))
    assert dataset.Dataset.__dict__["cell_indices"].func is func


@pytest.mark.parametrize("workload", sorted(worker.WORKLOADS))
def test_tiny_smoke_run(workload, tmp_path):
    worker.generate(workload, 3, tmp_path, tiny=True)
    raw = worker.measure(workload, 3, 0.0, True, tmp_path, tiny=True)
    assert raw["failed"] == 0, raw["problems"]
    assert raw["attempted"] == 2
    assert len(raw["walls"]) == 1 and len(raw["traced_walls"]) == 1
    # Traced and untraced reports are byte-identical.
    assert len(raw["sha256"]) == 1
    assert set(raw["per_layer"]) == set(PER_LAYER_UNITS)
    m = worker.WORKLOADS[workload]["m"]
    layer = raw["per_layer"]
    assert layer["audit.bootstrap_tests"] == m * m * (
        3 if workload == "planted-metrics" else 1)
    assert layer["audit.mcnemar_tests"] == m * m
    assert (tmp_path / f"spans-{workload}.jsonl").exists()


def test_report_check_flags_a_tampered_report(tmp_path):
    worker.generate("large-n", 0, tmp_path, tiny=True)
    import fairuse.cli as cli
    argv, out = worker.audit_argv("large-n", 0, tmp_path, tiny=True)
    captured = []
    real = cli.audit

    def capture(*args, **kwargs):
        captured.append(real(*args, **kwargs))
        return captured[-1]

    cli.audit = capture
    try:
        code = cli.main(argv)
    finally:
        cli.audit = real
    report = captured[0].to_jsonable()
    written = out.read_text(encoding="utf-8")
    assert report_problems(report, 4, code, written, written) == []
    assert report_problems(report, 4, 3 - code, written, written)
    assert report_problems(report, 3, code, written, written)
    report["results"][0]["p_adjusted"] = 2.0
    assert report_problems(report, 4, code, written, written)


def test_benchmark_json_lists_what_the_benchmark_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(worker.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == PER_LAYER_UNITS
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in SPEC["end_to_end"])


def test_run_py_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "many-groups",
         "--seed", "1", "--seconds", "0", "--trace", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    assert any(line.startswith("fail_frac 0 ratio") for line in lines)


def test_run_py_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "large-n",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
