"""Peak memory of each command of one perfbench ``pipeline`` chain.

    python3 bench/memory.py [--tree DIR] [--seed 0] [--tiny]

Runs perfbench's ``pipeline`` chain once through its own ``Pipeline.run``
(same inputs, commands, settings, seed and output checks), in a fresh interpreter that imports
medkit from ``DIR/src`` and perfbench from ``DIR/perfbench`` (default: this
repository), so two trees, e.g. two ``git archive`` extracts, compare side by
side. For each command it prints the tracemalloc peak of that command alone
(numpy registers its buffers with tracemalloc, so this counts the arrays) and
the process's ``ru_maxrss`` after it, which never falls. The last line is one
JSON object with the same numbers. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Runs in the child: argv is (tree, work directory, seed, tiny). perfbench's
# call_cli opens tracer.span("cli.<command>") around each command, so the
# tracer below measures each command alone, and Pipeline.run checks its output.
CHILD = """
import contextlib, json, resource, sys, tracemalloc
from pathlib import Path

tree, work, seed, tiny = Path(sys.argv[1]), Path(sys.argv[2]), int(sys.argv[3]), sys.argv[4] == "1"
sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
from workloads import Pipeline
import medkit.cli  # imported before tracing starts: the peaks count the commands' own memory


class Peaks:
    def __init__(self):
        self.rows = []

    @contextlib.contextmanager
    def span(self, name):
        tracemalloc.reset_peak()
        yield
        self.rows.append({"traced_peak_mb": round(tracemalloc.get_traced_memory()[1] / 2**20, 2),
                          "maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)})


pipeline, peaks = Pipeline(work, seed, tiny), Peaks()
pipeline.prepare()
tracemalloc.start()
ops = pipeline.run("chain", peaks)
for op, row in zip(ops, peaks.rows, strict=True):
    print(json.dumps({"command": op.name, "ok": op.ok, "seconds": round(op.seconds, 3), **row}))
"""


def measure(tree: Path, seed: int, tiny: bool) -> list[dict]:
    """One row per command of the chain, run in `tree`."""
    with tempfile.TemporaryDirectory(prefix="medkit-memory-") as work:
        done = subprocess.run([sys.executable, "-c", CHILD, str(tree), work, str(seed), "1" if tiny else "0"],
                              capture_output=True, text=True, timeout=1800)
    if done.returncode != 0:
        raise RuntimeError(f"the chain in {tree} exited {done.returncode}:\n{done.stderr}")
    return [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=ROOT, help="tree holding src/ and perfbench/")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tiny", action="store_true", help="perfbench's tiny inputs")
    args = parser.parse_args(argv)
    rows = measure(args.tree.resolve(), args.seed, args.tiny)
    for row in rows:
        print(f"{row['command']:<17} {'ok    ' if row['ok'] else 'FAILED'}  {row['seconds']:7.3f} s  traced peak {row['traced_peak_mb']:6.2f} MB  maxrss {row['maxrss_mb']:6.1f} MB")
    print(json.dumps({"tree": str(args.tree.resolve()), "seed": args.seed, "tiny": args.tiny, "commands": rows}))
    return 0 if rows and all(row["ok"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
