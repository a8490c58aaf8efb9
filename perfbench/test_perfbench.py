"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py -q

Every workload runs untraced and traced for half a second on tiny inputs.
The checks: each metric of BENCHMARK.json is printed with its unit, every
operation passes, the traced output holds spans from every package module,
the exact counts repeat between two traced runs of one seed, and without
the package the benchmark fails instead of printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# every workload the benchmark can run, including those BENCHMARK.json leaves out
WORKLOADS = ["ffn-train", "ablate-grid", "verify-persist"]

sys.path.insert(0, str(HERE))
from layers import LAYER_METRICS  # noqa: E402
from spans import MODULES  # noqa: E402


def run(workload: str, trace: int, seed: int = 1, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(next(ln for ln in lines if ln.startswith("detail "))[len("detail "):])
    return json.loads(lines[-1]), detail


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    result, detail = parse(run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    for value in (v["value"] for v in result["metrics"].values()):
        assert isinstance(value, (int, float)) and math.isfinite(value)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert all(r["value"] > 0 for r in detail["rates"].values())


def test_per_layer_units_match_the_layer_table():
    units = {m.name: m.unit for m in LAYER_METRICS} | {"trace.overhead_frac": "ratio"}
    for m in BENCH["per_layer"]:
        assert units[m["name"]] == m["unit"], m["name"]


def test_traced_spans_cover_every_module_and_exact_counts_repeat():
    modules = set()
    for workload in WORKLOADS:
        _, first = parse(run(workload, 1, seed=2))
        spans = np.load(ROOT / first["tracing"]["file"])
        used = spans["names"][np.unique(spans["name"])]
        modules |= {str(n).split(".", 1)[0] for n in used}
        _, second = parse(run(workload, 1, seed=2))
        exact = {m["name"]: m["value"] for m in first["layers"] if m["exact"]}
        assert exact == {m["name"]: m["value"] for m in second["layers"] if m["exact"]}
        assert first["unsteady_counts"] == []
        if workload != "verify-persist":
            assert first["wall_overhead"]["cost.flop_ratio"] > 0
    assert modules >= set(MODULES)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(BENCH["workloads"][0]["name"], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(ln.startswith("{") for ln in proc.stdout.splitlines())
