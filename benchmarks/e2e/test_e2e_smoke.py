"""Smoke test of the end-to-end benchmark (``python -m pytest benchmarks/e2e -q``;
outside tier-1 ``testpaths``).  One ``--quick`` run of everything, then checks
on what it printed and on ``BENCHMARK.json``.
"""

import json
import math
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import spec  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


@pytest.fixture(scope="module")
def quick_runs():
    path = os.path.join(HERE, "out", "smoke.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick", "--seed", "3", "--output", path],
        capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    with open(path) as handle:
        return json.load(handle)["runs"]


def test_benchmark_json_is_the_spec_and_within_the_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        document = json.load(handle)
    assert document == spec.document()
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in document[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in document["workloads"]:
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    for entry in document["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    setup = [entry for entry in document["end_to_end"] if entry["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(entry["bound"] for entry in document["end_to_end"])}]


def test_every_workload_reports_every_end_to_end_metric(quick_runs):
    untraced = {run["workload"]: run for run in quick_runs if run["trace"] == 0}
    assert set(untraced) == set(spec.WORKLOADS)
    for workload, run in untraced.items():
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1, workload
        assert set(run["metrics"]) == set(spec.END_TO_END), workload
        for name, metric in run["metrics"].items():
            assert math.isfinite(metric["value"]) and metric["value"] > 0, (workload, name)
            assert metric["unit"] == spec.END_TO_END[name][0]


def test_every_layer_metric_has_a_value_from_its_workload(quick_runs):
    traced = {run["workload"]: run for run in quick_runs if run["trace"] == 1}
    assert set(traced) == set(spec.WORKLOADS)
    for workload, run in traced.items():
        assert run["failed"] == 0, workload
        assert set(run["metrics"]) == set(spec.PER_LAYER), workload
        assert os.path.isfile(os.path.join(ROOT, run["details"]["trace"]))
    for name, (unit, _, owners) in spec.PER_LAYER.items():
        for workload in owners:
            metric = traced[workload]["metrics"][name]
            assert math.isfinite(metric["value"]) and metric["unit"] == unit, (workload, name)
    compiled = traced["compile_cold"]["metrics"]
    assert compiled["pipeline.deterministic"]["value"] == 1   # two sweeps, identical counts
    assert compiled["codegen.source_lines"]["value"] > 0
    with open(os.path.join(ROOT, traced["compile_cold"]["details"]["trace"])) as handle:
        assert json.load(handle)["traceEvents"]
