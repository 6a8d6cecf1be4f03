"""Tests of the benchmark itself: the BENCHMARK.json contract, the smoke
mode on every workload, missing-target reporting, and refusing to run
without the source tree."""

from __future__ import annotations

import argparse
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import bench, layers, tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_contract():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert DECLARED["command"] == ["python3", "perfbench/run.py"]
    assert DECLARED["paths"] == ["perfbench"]
    assert isinstance(DECLARED["run_seconds"], int) and 1 <= DECLARED["run_seconds"] <= 60
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    for w in DECLARED["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    names += list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for m in DECLARED["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    for m in DECLARED["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_passes_every_check(workload, monkeypatch):
    monkeypatch.chdir(ROOT)
    args = argparse.Namespace(workload=workload, seed=3, seconds=0.0, trace=1, smoke=True)
    record = bench.measure(ROOT, args)
    assert record["failures"] == []
    # runs and bounds of two repetitions plus the traced run, and more checks
    assert record["attempted"] > 10
    assert record["missing"] == []
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        line = bench.result_line(record, DECLARED, trace)
        assert line["correct"] and line["failed"] == 0
        assert set(line["metrics"]) == {m["name"] for m in DECLARED[section]}
    per_layer = record["per_layer"]
    assert per_layer["evaluation.comparator_objective_evals"] > 0
    assert per_layer["cli.series_bytes"] > 0
    assert (per_layer["evaluation.holdout_s"] > 0) == (workload == "csv-linreg-holdout")
    for layer in tracer.LAYERS:
        assert per_layer[f"{layer}.self_s"] > 0


def test_missing_target_is_reported_not_raised(tmp_path, monkeypatch):
    import onlinevi.cli as cli

    config = WORKLOADS["toy-hinge"].make(tmp_path, 1, True)
    out = tmp_path / "out"
    original = cli.run_online
    trace = tracer.Tracer()
    trace.install(tracer.TARGETS + ("cli:no_such_function", "learners:NoSuchClass.update"))
    try:
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    finally:
        trace.uninstall()
    assert cli.run_online is original
    assert trace.missing == ["cli:no_such_function", "learners:NoSuchClass.update"]
    spans_path = tmp_path / "spans.npz"
    trace.save(spans_path)

    # as if a refactor had removed run_online from cli's namespace
    child = {"missing_targets": ["cli:run_online"], "missing_kernels": [],
             "import_s": 0.1, "peak_bytes": {}, "kernels": {}}
    metrics, missing = layers.per_layer_metrics(
        spans_path, child, WORKLOADS["toy-hinge"].sections, 400, out, 0.0)
    assert "learners.us_per_step.sva" not in metrics
    assert "learners.share_of_run" not in metrics
    assert any(entry.startswith("learners.us_per_step.sva") for entry in missing)
    assert metrics["evaluation.comparator_objective_evals"] > 0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *DECLARED["command"][1:], "--workload", "toy-hinge",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
