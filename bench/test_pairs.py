"""Tiny-mode check of the paired-run script: one pair of HEAD against itself.

    python3 -m pytest bench/test_pairs.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def test_tiny_pair_of_head_against_itself(tmp_path):
    out = tmp_path / "BENCH.json"
    argv = [sys.executable, str(HERE / "pairs.py"), "--base", "HEAD", "--change", "HEAD", "--pairs", "1", "--tiny", "--out", str(out)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=900, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert list(tmp_path.iterdir()) == [out]  # the extracted trees are gone
    report = json.loads(out.read_text(encoding="utf-8"))

    assert report["base"]["commit"] == report["change"]["commit"] and len(report["base"]["commit"]) == 40
    assert report["base"]["src_medkit_lines"] == report["change"]["src_medkit_lines"] > 0
    assert {"cpu", "python", "numpy", "scipy"} <= set(report["machine"])
    # each side's BLAS settings: medkit pins one thread unless this environment chose
    chosen = {k: os.environ.get(k) for k in BLAS_THREADS}
    expected = chosen if any(v is not None for v in chosen.values()) else dict.fromkeys(BLAS_THREADS, "1")
    assert report["base"]["blas_threads_env"] == report["change"]["blas_threads_env"] == expected
    assert "blas_threads_env" not in report["machine"]
    assert report["settings"]["pairs"] == 1 and report["settings"]["tiny"] is True
    assert [(r["workload"], r["seed"]) for r in report["results"]] == [(w["name"], 0) for w in BENCHMARK["workloads"]]
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    for result in report["results"]:
        assert result["all_correct"] is True
        (run,) = result["runs"]
        assert run["pair"] == 0 and run["first"] == "base"
        for side in ("base", "change"):
            assert run[side]["correct"] is True and run[side]["failed"] == 0
            assert set(names) <= set(run[side])
        assert list(result["metrics"]) == names
        for name, m in result["metrics"].items():
            assert m["base"]["median"] == m["base"]["q1"] == m["base"]["q3"] == run["base"][name]
            assert m["wins"] + m["losses"] <= 1
            assert m["median_gain"] == (1 if m["better"] == "higher" else -1) * (run["change"][name] - run["base"][name])
            assert m["base_iqr"] == 0.0 and m["gain_shown"] is (m["wins"] == 1 and m["median_gain"] > 0)
