"""Paired benchmark runs of two commits, alternating which side runs first.

    python3 bench/pairs.py --base 80032f6 --change HEAD --workloads consult \
        --seeds 0 7 --pairs 10 --seconds 30 --out BENCH.json

Each commit's committed files are extracted (``git archive``) into their own
directory under one temporary directory, so each side runs its own
``perfbench/run.py`` on its own ``src/``, as a fresh checkout of that commit
would, and nothing is written into this repository but ``--out``. For every
workload and seed the script runs ``--pairs`` pairs of ``--trace 0`` runs:
pair i runs the base first when i is even and the change first when it is
odd, so a drift in the host's speed does not favour one side.

It prints one line per run and per metric, and writes ``--out``: for each
workload and seed, every pair, and per end-to-end metric of ``BENCHMARK.json``
each side's median and quartiles, the pairs the change won (ties count for
neither side), the median gain and the base's interquartile range, and
whether a gain is shown (at least nine tenths of the pairs won, and the
median gain larger than the base's interquartile range). It also writes
both commits, their ``src/medkit`` line counts and BLAS thread settings
(as each side's perfbench run saw them, after importing medkit), and
perfbench's record of the machine. Standard library only; ``--tiny`` runs
perfbench's tiny mode, for the schema test.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9  # share of pairs the change must win before a gain is shown


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, check=True).stdout


def extract(commit: str, dest: Path) -> Path:
    """The committed files of `commit`, unpacked into `dest`."""
    dest.mkdir(parents=True)
    archive = dest.with_suffix(".tar")
    archive.write_bytes(git("archive", "--format=tar", commit))
    with tarfile.open(archive) as tar:
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    archive.unlink()
    return dest


def run_once(tree: Path, workload: str, seed: int, seconds: float, tiny: bool) -> tuple[dict, dict]:
    """(info line, result line) of one perfbench run in `tree`."""
    argv = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"] + (["--tiny"] if tiny else [])
    done = subprocess.run(argv, capture_output=True, text=True, cwd=tree, timeout=10 * seconds + 900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    info, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    return info, result


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: list[dict], spec: list[dict]) -> dict:
    """Per end-to-end metric: each side's median and quartiles, the change's
    wins, and whether they show a gain."""
    out = {}
    for metric in spec:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        base = [run["base"][name] for run in runs]
        change = [run["change"][name] for run in runs]
        sides = {"base": spread(base), "change": spread(change)}
        gain = sign * (sides["change"]["median"] - sides["base"]["median"])  # > 0: the change is better
        iqr = sides["base"]["q3"] - sides["base"]["q1"]
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        out[name] = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"], **sides,
                     "wins": wins, "losses": sum(sign * (c - b) < 0 for b, c in zip(base, change)),
                     "median_gain": gain, "median_gain_ratio": gain / sides["base"]["median"], "base_iqr": iqr,
                     "gain_shown": wins >= math.ceil(WIN_SHARE * len(runs)) and gain > iqr}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="commit the change is measured against")
    parser.add_argument("--change", default="HEAD", help="commit measured")
    parser.add_argument("--workloads", nargs="+", help="default: every workload in BENCHMARK.json")
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--tiny", action="store_true", help="perfbench's tiny mode: smallest inputs, one pass")
    parser.add_argument("--out", required=True, type=Path, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    commits = {side: git("rev-parse", "--verify", f"{ref}^{{commit}}").decode().strip() for side, ref in (("base", args.base), ("change", args.change))}
    with tempfile.TemporaryDirectory(prefix="medkit-pairs-") as tmp:
        trees = {side: extract(commit, Path(tmp) / side) for side, commit in commits.items()}
        benchmark = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        seconds = benchmark["run_seconds"] if args.seconds is None else args.seconds
        report = {"base": {"ref": args.base, "commit": commits["base"]}, "change": {"ref": args.change, "commit": commits["change"]},
                  "settings": {"pairs": args.pairs, "seconds": seconds, "tiny": args.tiny, "trace": 0, "first": "base on even pairs, change on odd"},
                  "machine": None, "results": []}
        for workload in args.workloads or [w["name"] for w in benchmark["workloads"]]:
            for seed in args.seeds:
                runs = []
                for i in range(args.pairs):
                    order = ("base", "change") if i % 2 == 0 else ("change", "base")
                    run = {"pair": i, "first": order[0]}
                    for side in order:
                        info, result = run_once(trees[side], workload, seed, seconds, args.tiny)
                        record = info["record"]
                        report[side]["src_medkit_lines"] = record.pop("src_medkit_lines")
                        report[side]["blas_threads_env"] = record.pop("blas_threads_env")
                        record.pop("git_commit")
                        report["machine"] = report["machine"] or record
                        run[side] = {"correct": result["correct"], "failed": result["failed"], "attempted": result["attempted"],
                                     **{name: m["value"] for name, m in result["metrics"].items()}}
                        print(f"{workload} seed {seed} pair {i} {side}: correct {result['correct']}, "
                              + ", ".join(f"{name} {m['value']:.4g}" for name, m in result["metrics"].items()), flush=True)
                    runs.append(run)
                metrics = summarize(runs, benchmark["end_to_end"])
                for name, m in metrics.items():
                    print(f"{workload} seed {seed} {name}: base {m['base']['median']:.4g} [{m['base']['q1']:.4g}, {m['base']['q3']:.4g}], "
                          f"change {m['change']['median']:.4g} [{m['change']['q1']:.4g}, {m['change']['q3']:.4g}], "
                          f"won {m['wins']}/{len(runs)}, gain {m['median_gain_ratio']:+.1%}, gain shown {m['gain_shown']}", flush=True)
                report["results"].append({"workload": workload, "seed": seed, "all_correct": all(r[s]["correct"] for r in runs for s in ("base", "change")),
                                          "metrics": metrics, "runs": runs})
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
