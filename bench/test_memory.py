"""Tiny-mode check of the per-command memory script on this tree.

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
