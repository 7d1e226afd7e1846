"""Tiny-mode checks of the memory script on this tree, for both workloads.

    python3 -m pytest bench/test_memory.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
COMMANDS = ["pretrain-encoder", "train-triage", "eval-triage", "train-prompt", "eval-prompt", "pretrain-lm", "train-gen", "metrics"]


def test_tiny_chain_reports_each_command(tmp_path):
    done = subprocess.run([sys.executable, str(HERE / "memory.py"), "--tiny"], capture_output=True, text=True, timeout=900, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert list(tmp_path.iterdir()) == []  # the chain ran in a temporary directory
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["tiny"] is True and report["seed"] == 0
    assert [row["command"] for row in report["commands"]] == COMMANDS
    rss = [row["maxrss_mb"] for row in report["commands"]]
    assert rss == sorted(rss) and rss[0] > 0  # a high-water mark never falls
    for row in report["commands"]:
        assert row["ok"] and row["seconds"] > 0 and 0 < row["traced_peak_mb"] <= row["maxrss_mb"]
        assert row["cpu_s"] > 0  # CPU seconds of the command alone, every thread's


def test_tiny_consult_reports_each_kind_of_decode_step(tmp_path):
    done = subprocess.run([sys.executable, str(HERE / "memory.py"), "--workload", "consult", "--tiny"], capture_output=True, text=True, timeout=900, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert list(tmp_path.iterdir()) == []
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["workload"] == "consult" and report["tiny"] is True and report["seed"] == 0
    assert report["answers"] == 2 and report["ok"] is True
    steps = report["steps"]
    assert steps["prefill"]["calls"] == 2 and steps["warm"]["calls"] > 0 and steps["warm"]["rows"] == 1  # each answer prefills its prompt once
    for row in steps.values():
        assert row["calls"] > 0 and row["rows"] > 0 and row["traced_peak_kb"] > 0
    assert 0 < report["setup_maxrss_mb"] <= report["maxrss_mb"]  # a high-water mark never falls
    assert report["cpu_s"] > 0  # CPU seconds of the answers
