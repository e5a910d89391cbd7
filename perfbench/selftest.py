"""Fast self-tests for the benchmark harness, at tiny sizes.

Run with ``python3 -m pytest perfbench/selftest.py``.  The file name keeps
these out of the repository's default test collection.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import cli_sweep
import common
import http_warm
import queue_deep
import run as bench
import tracing

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text("utf-8"))


@pytest.fixture(autouse=True)
def tiny(monkeypatch, tmp_path):
    """Shrink every workload and keep scratch files out of the checkout."""
    monkeypatch.setattr(common, "WORK_ROOT", tmp_path / "work")
    monkeypatch.setattr(cli_sweep, "TARGET_FRAMES", 40)
    monkeypatch.setattr(cli_sweep, "MIN_CYCLES", 1)
    monkeypatch.setattr(queue_deep, "SCENARIOS", 2)
    monkeypatch.setattr(queue_deep, "SPECS", queue_deep.SPECS[:2])
    monkeypatch.setattr(queue_deep, "SETUPS", 1)
    monkeypatch.setattr(queue_deep, "MIN_OPS", 1)
    monkeypatch.setattr(http_warm, "POLICY_POOL", ("marlin", "marlin-tiny", "single:yolov7@gpu"))
    monkeypatch.setattr(http_warm, "SCENARIO_COUNT", 2)
    monkeypatch.setattr(http_warm, "SETUPS", 1)
    monkeypatch.setattr(http_warm, "MIN_OPS", 3)


def result_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_metric_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric


def test_benchmark_json_matches_the_harness_and_records_why():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert workload["why"].strip() and "\n" not in workload["why"]
        assert len(workload["why"]) <= 200
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(bench.END_TO_END)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    layer = [(name, unit) for name, unit, _ in tracing.LAYER_METRICS]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == layer + [
        ("trace_overhead_pct", "%")]


def test_rows_plus_other_add_up_to_wall():
    payload = {"spans": [
        ["service.queue.claim", "op", 0.0, 0.5, -1, {"claims": 1}],
        ["runtime.iolayer.read", "op", 0.1, 0.2, 0, {"bytes": 10}],
        ["runtime.iolayer.read", "op", 0.3, 0.35, 0, {"bytes": 5}],
        ["service.queue.complete", "op", 0.6, 0.7, -1, None],
    ], "counters": {"op": {"runtime.iolayer.attempts": 2}}}
    rows = tracing.finish_rows(1.0, [tracing.rows_by_op(payload)["op"]])
    times = sum(v for k, v in rows.items()
                if k.endswith("_s") and k != "op_wall_s" and not k.startswith("incl:"))
    assert times == pytest.approx(1.0)
    assert rows["service.queue.claim_s"] == pytest.approx(0.35)
    assert rows["runtime.iolayer.io_s"] == pytest.approx(0.15)
    assert rows["service.queue.records_read_per_claim"] == 2
    assert rows["runtime.iolayer.read_bytes"] == 15
    assert rows["runtime.iolayer.retries"] == 0


def test_traced_cli_rows_add_up_and_counts_repeat(capsys):
    assert bench.main(["--workload", "cli", "--seed", "3", "--seconds", "0", "--trace", "1"]) == 0
    result = result_line(capsys)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    times = sum(m["value"] for name, m in metrics.items()
                if name.endswith("_s") and name != "op_wall_s")
    assert times == pytest.approx(metrics["op_wall_s"]["value"], rel=1e-9)
    assert metrics["import.calls"]["value"] == 1
    assert metrics["runtime.runstore.hits"]["value"] > 0


def test_traced_http_wait_is_client_minus_server_time(capsys):
    # Started with SIGINT ignored (a background job of a non-interactive
    # shell), the servers must still take their Ctrl-C shutdown path.
    previous = signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        assert bench.main(["--workload", "http-warm", "--seed", "2", "--seconds", "0",
                           "--trace", "1"]) == 0
    finally:
        signal.signal(signal.SIGINT, previous)
    metrics = result_line(capsys)["metrics"]
    times = {name: m["value"] for name, m in metrics.items()
             if name.endswith("_s") and name != "op_wall_s"}
    assert sum(times.values()) == pytest.approx(metrics["op_wall_s"]["value"], rel=1e-9)
    assert times["service.http.wait_s"] > 0 and times["service.http.handler_s"] > 0
    assert metrics["service.jobs.policies_built"]["value"] == 2
    assert metrics["service.service.coalesced_share"]["value"] == 1


def test_queue_counts_repeat_across_traced_runs(capsys):
    args = ["--workload", "queue-deep", "--seed", "5", "--seconds", "0", "--trace", "1"]
    assert bench.main(args) == 0
    first = result_line(capsys)
    assert bench.main(args) == 0  # the second run compares against the first
    second = result_line(capsys)
    for name, _, _ in tracing.LAYER_METRICS:
        if tracing.is_count(name):
            assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["service.queue.claims"]["value"] == 4


def test_output_mismatch_fails_the_op_and_the_exit_code(monkeypatch, capsys):
    real = queue_deep.reference

    def skewed(jobs):
        expected = real(jobs)
        key = next(iter(expected))
        expected[key] = dataclasses.replace(expected[key], mean_iou=expected[key].mean_iou + 1e-12)
        return expected

    monkeypatch.setattr(queue_deep, "reference", skewed)
    assert bench.main(["--workload", "queue-deep", "--seed", "1", "--seconds", "0",
                       "--trace", "0"]) == 1
    result = result_line(capsys)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(common.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
    assert not (Path(tmp_path) / ".perfbench").exists()
