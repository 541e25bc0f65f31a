"""Tests of the benchmark itself: seeded inputs and the metric contract.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import service  # noqa: E402
import single  # noqa: E402
import workloads  # noqa: E402
from ledger import Ledger  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
OPS = 12


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_ops(workload):
    first = workloads.OpSource(workload, 7).ops(OPS)
    again = workloads.OpSource(workload, 7).ops(OPS)
    assert first == again


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_other_ops(workload):
    ops = workloads.OpSource(workload, 7).ops(OPS)
    others = workloads.OpSource(workload, 8).ops(OPS)
    assert all(a != b for a, b in zip(ops, others))


def test_ops_stay_in_their_ranges():
    source = workloads.OpSource("compress", 3)
    sizes = [len(op["data"]) for op in source.ops(200)]
    assert min(sizes) >= 512 and max(sizes) <= 4096
    image = workloads.OpSource("image", 3).ops(30)
    assert {op["transform"] for op in image} == set(workloads.TRANSFORMS)
    assert all(12 <= op["size"] <= 20 for op in image)
    serve = workloads.OpSource("serve", 3).ops(30)
    assert all(4 <= len(op["secrets"]) <= 32 for op in serve)
    assert {op["program"] for op in serve} == set(workloads.serve_programs())
    # The pool's lengths are the same evenly spread set for every seed.
    pooled = {len(secret) for op in serve if op["pooled"]
              for secret in op["secrets"]}
    assert pooled <= set(range(4, 25, 4))


def test_metric_names_and_counts(spec):
    end_to_end, per_layer = spec["end_to_end"], spec["per_layer"]
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    names = [m["name"] for m in end_to_end + per_layer]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name) and len(name) <= 64, name
    for metric in end_to_end:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in end_to_end if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in end_to_end)


def test_daemon_ledger_names_are_declared(spec):
    declared = {m["name"] for m in spec["per_layer"]}
    counters = dict.fromkeys(service.DAEMON_METRICS, 0.0)
    record = {"latency": 1.0, "submit_s": 0.1, "queue_wait_s": 0.2,
              "exec_s": 0.5, "runs": 4, "ok": True}
    metrics = service._per_layer([record], [record], counters, counters)
    assert set(metrics) <= declared


@pytest.mark.parametrize("workload, op", [
    ("compress", {"kind": "pi", "data": b"three point one four " * 30}),
    ("image", {"transform": "blur", "size": 12, "grid": 3,
               "pixels": [[(x, y, x ^ y) for x in range(12)]
                          for y in range(12)]}),
])
def test_traced_pipeline_agrees_with_the_app_call(spec, workload, op):
    runner = single.prepare(workload, 1)
    ledger = Ledger()
    _, outcome = runner.run(op)
    assert runner.run_traced(op, ledger) == outcome[0]
    assert runner.reference(op) == outcome
    assert set(ledger.totals) <= {m["name"] for m in spec["per_layer"]}


def test_refuses_to_run_without_the_program(spec, tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        spec["command"] + ["--workload", "compress", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
