"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from omegarb import trees, words  # noqa: E402
from omegarb.scalars import FormalSum  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def small_run(name, cycles=2):
    wl = workloads.WORKLOADS[name](7, small=True)
    try:
        wl.warm()
        state = run.measure(wl, 0, min_cycles=cycles)
        figures = run.summarize(wl, state)
        correct = run.finish(wl, state)
    finally:
        wl.close()
    return wl, state, figures, correct


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_completes_at_small_size(name):
    wl, state, figures, correct = small_run(name)
    assert correct, state["errors"]
    faults = sum(wl.weight(op) for op in wl.cycle if wl.expected_fault(op))
    assert state["failed"] == faults * state["cycles"]
    assert all(value > 0 for value in figures.values())


def test_cli_fault_requests_do_not_depend_on_the_seed():
    argvs = []
    for seed in (1, 2):
        wl = workloads.CliQueries(seed, small=True)
        argvs.append(sorted(
            [os.path.basename(a) for a in op[1]] for op in wl.cycle if wl.expected_fault(op)
        ))
        wl.close()
    assert argvs[0] == argvs[1] and len(argvs[0]) == len(workloads.FAULTS)


def _drop_last_term(product):
    def corrupted(self, u, v):
        out = product(self, u, v)
        terms = out.items()
        return FormalSum(terms[:-1]) if len(terms) > 1 else out
    return corrupted


@pytest.mark.parametrize("name, cls", [
    ("tree-assoc", trees.TreeAlgebra), ("word-assoc", words.WordAlgebra),
])
def test_corrupted_product_is_reported_as_failed(monkeypatch, name, cls):
    monkeypatch.setattr(cls, "product", _drop_last_term(cls.product))
    _, state, _, correct = small_run(name, cycles=1)
    assert not correct
    assert state["failed"] > 0


def test_traced_counts_repeat():
    first, second = (
        run.traced_run(workloads.WORKLOADS["word-assoc"], 3, small=True) for _ in range(2)
    )
    for name, metric in first["metrics"].items():
        if metric["unit"] == "count" and name != "trace.spans":
            assert metric["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["words.product_calls"]["value"] > 0
    assert set(first["metrics"]) == {m["name"] for m in BENCH["per_layer"]}


def test_command_prints_every_end_to_end_metric():
    proc = subprocess.run(
        BENCH["command"] + ["--workload", "tree-assoc", "--seed", "1", "--seconds", "0",
                            "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]
    }


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        BENCH["command"] + ["--workload", "tree-assoc", "--seed", "1", "--seconds", "1",
                            "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
