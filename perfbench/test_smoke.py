"""Smoke test of the benchmark itself, at tiny sizes.

  python3 -m pytest perfbench/test_smoke.py -q

It checks that every metric is emitted with its unit, that an injected fault
(a corrupted artifact byte, a report that differs between thread counts) is
counted as a failed operation, and that the benchmark refuses to run without
the specgauss sources.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import metrics
from tracer import Span, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--seed", "3", "--seconds", "1", "--size", "tiny", *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(trace):
    proc = _run("--workload", "all", "--trace", str(trace))
    res = _result(proc)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    expected = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert len(res["metrics"]) == len(expected) * len(metrics.WORKLOADS)
    for workload in metrics.WORKLOADS:
        for name, unit, _ in expected:
            got = res["metrics"][f"{workload}.{name}"]
            assert got["unit"] == unit
            assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    # failed_frac is printed with its unit next to the end-to-end metrics
    assert proc.stdout.count(" fraction ") == len(metrics.WORKLOADS)


def test_benchmark_json_names_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert tuple(w["name"] for w in bench["workloads"]) == metrics.WORKLOADS
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == [
        (n, u) for n, u, _ in metrics.END_TO_END]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (n, u) for n, u, _ in metrics.PER_LAYER]


@pytest.mark.parametrize("workload,fault", [
    ("deep-fbm", "corrupt-report"),
    ("analysis", "corrupt-binary"),
])
def test_injected_fault_is_counted_as_failed(workload, fault):
    proc = _run("--workload", workload, "--trace", "0", "--fault", fault)
    res = _result(proc)
    assert not res["correct"]
    assert 0 < res["failed"] < res["attempted"]
    assert "FAILED" in proc.stdout


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "deep-fbm", "--trace", "0", cwd=tmp_path,
                script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_children():
    spans = [
        Span(0, "op.x", 0.0, 10.0, -1, 0),
        Span(1, "a", 1.0, 4.0, 0, 0),
        Span(2, "b", 3.0, 6.0, 0, 0),  # overlaps a: union of children is [1, 6]
        Span(3, "c", 2.0, 3.0, 1, 0),
    ]
    st = self_times(spans)
    assert st == {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0}
