"""Tiny-mode checks of the benchmark's output contract.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
EXACT_UNITS = {"count", "bytes"}


@functools.cache
def _run(workload: str, trace: int, attempt: int = 0) -> tuple[dict, dict]:
    """(info line, result line) of one tiny run; `attempt` tells repeats apart."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_runs_are_well_formed_and_repeat(workload, trace):
    spec = BENCHMARK["per_layer" if trace else "end_to_end"]
    info, result = _run(workload, trace)
    again_info, again = _run(workload, trace, attempt=1)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())

    # Everything but the timings repeats exactly.
    assert (again["attempted"], again["failed"]) == (result["attempted"], result["failed"])
    assert again_info["outputs_sha256"] == info["outputs_sha256"]
    assert again_info["inputs"] == info["inputs"] and again_info["check"] == info["check"]
    for name, m in result["metrics"].items():
        if m["unit"] in EXACT_UNITS:
            assert again["metrics"][name]["value"] == m["value"], name


def test_bypassed_layers_read_zero():
    pipeline, consult = (_run(w, 1)[1]["metrics"] for w in ("pipeline", "consult"))
    assert all(m["value"] == 0 for name, m in consult.items() if name.startswith(("genmetrics.", "triage.", "prompt.", "corpus.")))
    assert consult["numerics.backward_s"]["value"] == 0 and consult["generator.steps"]["value"] > 0
    assert pipeline["generator.steps"]["value"] == 0 and pipeline["numerics.tensors_per_decode_token"]["value"] == 0
    assert pipeline["genmetrics.ter_calls"]["value"] > 0 and pipeline["triage.lstm_steps"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
