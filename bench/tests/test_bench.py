"""Tests of the benchmark itself: output contract, exact counts, failure counting.

The smoke tests run ``bench/run.py`` as the benchmark command is run, with a
short ``--seconds``; the other tests call the benchmark's modules in-process.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = ("count", "bytes")
# Layers that must do no work on a workload, by the workload's design.
IDLE = {
    "param_map": ("integrate.solves", "serialize.calls", "cli.invocations", "geometry.calls"),
    "cloud_scan": ("sweep.calls", "integrate.solves", "serialize.calls", "cli.invocations"),
    "oracle_check": ("geometry.calls", "serialize.calls", "cli.invocations"),
    "cli_session": (),
}


def bench(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_spec_lists_the_four_workloads():
    assert set(WORKLOADS) == set(workloads.WORKLOADS) == set(run.WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_present_with_units(workload):
    metrics = result_of(bench(workload, 0))["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    for name, m in metrics.items():
        assert isinstance(m["value"], float) and m["value"] > 0.0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics_present_and_self_times_add_up(workload):
    metrics = result_of(bench(workload, 1))["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    value = {name: m["value"] for name, m in metrics.items()}
    layers = sum(v for name, v in value.items() if name.endswith(".self_s"))
    assert math.isclose(layers + value["bench.unattributed_s"], value["trace.wall_s"], rel_tol=1e-9)
    for name in IDLE[workload]:
        assert value[name] == 0, name
    busy = {"param_map": "sweep.calls", "cloud_scan": "geometry.calls",
            "oracle_check": "integrate.solves", "cli_session": "cli.invocations"}[workload]
    assert value[busy] > 0


def traced_counts(workload, seed, scratch):
    ops = workloads.make(workload, seed, str(scratch))
    if workload == "cli_session":
        ops = [op for op in ops if op.label.startswith("evolve")]
    else:
        ops = ops[:2]
    tally = worker.Tally()
    _, metrics = worker.trace(ops, tally)
    assert tally.failed == 0, tally.failures
    return {name: value for name, (value, unit) in metrics.items() if unit in COUNT_UNITS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_for_a_seed(workload, tmp_path):
    first = traced_counts(workload, 11, tmp_path)
    second = traced_counts(workload, 11, tmp_path)
    assert first == second
    assert any(first.values())


def _corrupt(workload, output):
    if workload in ("param_map", "oracle_check"):
        table = output.table.copy()
        column = output.columns.index("survival_ode" if workload == "oracle_check" else "survival")
        table[5, column] += 1e-7 if workload == "oracle_check" else 1e-13
        return dataclasses.replace(output, table=table)
    if workload == "cloud_scan":
        s, q, confined = output
        return [s[0] + 1e-13] + s[1:], q, confined
    code, text, err, table = output
    rows = table.rows.copy()
    rows[7, 1] = np.nextafter(rows[7, 1], 2.0)
    return code, text, err, dataclasses.replace(table, rows=rows)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_counts_as_failure(workload, tmp_path):
    op = workloads.make(workload, 5, str(tmp_path))[0]
    output = op.run()
    tally = worker.Tally()
    assert tally.attempt(workloads.Op(op.label, op.units, lambda: output, op.check))[1]
    bad = _corrupt(workload, output)
    assert not tally.attempt(workloads.Op(op.label, op.units, lambda: bad, op.check))[1]
    assert (tally.attempted, tally.failed) == (2, 1)


def test_nonzero_exit_counts_as_failure(tmp_path):
    op = workloads.make("cli_session", 5, str(tmp_path))[0]
    code, text, err, table = op.run()
    tally = worker.Tally()
    tally.attempt(workloads.Op(op.label, op.units, lambda: (2, text, err, table), op.check))
    assert tally.failed == 1 and "exited 2" in tally.failures[0]


def test_missing_site_drops_its_metrics(monkeypatch):
    sites = tuple(
        (module, "no_longer_here", layer, kind) if kind == "parse_csv" else (module, attr, layer, kind)
        for module, attr, layer, kind in spans.SITES
    )
    monkeypatch.setattr(spans, "SITES", sites)
    tracer = spans.Tracer()
    metrics = tracer.metrics()
    assert tracer.missing == ["toptrap.serialize.no_longer_here"]
    for name in ("serialize.parse_csv_s", "serialize.rows_parsed", "serialize.us_per_row_parse"):
        assert name not in metrics
    assert "serialize.to_csv_s" in metrics


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("param_map", 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert "{" not in done.stdout
