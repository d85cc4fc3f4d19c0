"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs on one round of its strata for a single request, so
the whole file takes seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module", autouse=True)
def impbox():
    run.import_impbox()


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_metric_is_reported_with_its_unit(workload, trace):
    result = run.run_workload(workload, seed=0, seconds=0.01, trace=trace, rounds=1)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_workloads_match_benchmark_json():
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("workload", ["query_sweep", "classify"])
def test_a_wrong_answer_is_a_failure(workload):
    golden = run.load_golden()
    first = run.corpus(run.WORKLOADS[workload], 0, 1)[0]
    golden[first.id] = "0" * 64
    result = run.run_workload(workload, seed=0, seconds=0.01, trace=False, rounds=1, golden=golden)
    assert result["failed"] / result["attempted"] > 0
    assert not result["correct"]
    assert result["metrics"]["ok_ratio"]["value"] < 1


def test_last_line_is_the_summary(capsys):
    code = run.main(["--workload", "query_sweep", "--seed", "0", "--seconds", "0.01"])
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 0
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}


def test_fails_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns(".*", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "verify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
