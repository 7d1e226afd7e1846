"""Peak memory of one perfbench ``pipeline`` chain, command by command, or of
perfbench's ``consult`` answers, decode step by decode step.

    python3 bench/memory.py [--workload pipeline|consult] [--tree DIR] [--seed 0] [--tiny]

Runs the workload once through its own perfbench code (same inputs,
settings, seed and output checks), in a fresh interpreter that imports
medkit from ``DIR/src`` and perfbench from ``DIR/perfbench`` (default: this
repository), so two trees, e.g. two ``git archive`` extracts, compare side by
side. numpy registers its buffers with tracemalloc, so a traced peak counts
the arrays. The last line is one JSON object with the numbers printed.

``pipeline`` runs the chain through ``Pipeline.run``. For each command it
prints the tracemalloc peak and the CPU seconds (``ru_utime + ru_stime``, every
thread's) of that command alone, and the process's ``ru_maxrss`` after it,
which never falls.

``consult`` runs ``Consult``'s set-up, warm-up and each question once through
``Consult.run``, then ``Consult.check``. Each ``generator.lm_logits`` call
is traced alone, from an empty trace, and sorted by kind: a prefill (a fresh
cache: the whole prompt), a window slide (a cache the sliding window has
shifted: the whole window again) or a warm step (the rows after a cached
prefix). For each kind it prints the number of calls and the rows and traced
peak of its largest call (the first of equals), then ``ru_maxrss`` after
set-up and after the answers, and the CPU seconds of the answers (every
thread's, tracemalloc's cost in the traced calls included). Tracing only
inside the calls keeps tracemalloc's own memory out of ``ru_maxrss`` between
them.

Standard library only.
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


def cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Peaks:
    def __init__(self):
        self.rows = []

    @contextlib.contextmanager
    def span(self, name):
        tracemalloc.reset_peak()
        start = cpu_s()
        yield
        self.rows.append({"traced_peak_mb": round(tracemalloc.get_traced_memory()[1] / 2**20, 2), "cpu_s": round(cpu_s() - start, 3),
                          "maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)})


pipeline, peaks = Pipeline(work, seed, tiny), Peaks()
pipeline.prepare()
tracemalloc.start()
ops = pipeline.run("chain", peaks)
for op, row in zip(ops, peaks.rows, strict=True):
    print(json.dumps({"command": op.name, "ok": op.ok, "seconds": round(op.seconds, 3), **row}))
"""


# Runs in the child for --workload consult, with the same argv. Classifying a
# call repeats lm_logits's cache test on the windowed ids before it runs.
CONSULT_CHILD = """
import json, resource, sys, tracemalloc
from pathlib import Path

tree, work, seed, tiny = Path(sys.argv[1]), Path(sys.argv[2]), int(sys.argv[3]), sys.argv[4] == "1"
sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
from workloads import Consult
from medkit import generator


def maxrss_mb():
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 2)


def cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


steps, step = {}, generator.lm_logits


def traced_step(model, context_ids, cache):
    ids = list(context_ids)[-model.config.context_window :]
    start = len(cache.ids)
    kind = "warm" if 0 < start < len(ids) and cache.ids == ids[:start] else "slide" if start else "prefill"
    rows = len(ids) - start if kind == "warm" else len(ids)
    tracemalloc.start()
    try:
        return step(model, context_ids, cache)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        calls, largest = steps.get(kind, (0, None))
        if largest is None or rows > largest["rows"]:
            largest = {"rows": rows, "traced_peak_kb": round(peak / 1024, 1)}
        steps[kind] = (calls + 1, largest)


wl = Consult(work, seed, tiny)
wl.setup()
setup_rss = maxrss_mb()
wl.prepare()
wl.warmup()
generator.lm_logits = traced_step
start = cpu_s()
ops = [op for question in wl.requests() for op in wl.run(question)]
answers_cpu_s = round(cpu_s() - start, 3)
generator.lm_logits = step
answers_rss = maxrss_mb()
wl.check(ops)
print(json.dumps({"answers": len(ops), "ok": all(op.ok for op in ops), "setup_maxrss_mb": setup_rss, "maxrss_mb": answers_rss, "cpu_s": answers_cpu_s,
                  "steps": {kind: {"calls": calls, **largest} for kind, (calls, largest) in sorted(steps.items())}}))
"""


def measure(tree: Path, seed: int, tiny: bool, workload: str = "pipeline") -> list[dict]:
    """The child's JSON lines, run in `tree`: one per command of the chain, or one for the consult answers."""
    with tempfile.TemporaryDirectory(prefix="medkit-memory-") as work:
        done = subprocess.run([sys.executable, "-c", CHILD if workload == "pipeline" else CONSULT_CHILD, str(tree), work, str(seed), "1" if tiny else "0"],
                              capture_output=True, text=True, timeout=1800)
    if done.returncode != 0:
        raise RuntimeError(f"the {workload} run in {tree} exited {done.returncode}:\n{done.stderr}")
    return [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=ROOT, help="tree holding src/ and perfbench/")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tiny", action="store_true", help="perfbench's tiny inputs")
    parser.add_argument("--workload", choices=["pipeline", "consult"], default="pipeline")
    args = parser.parse_args(argv)
    if args.workload == "consult":
        (report,) = measure(args.tree.resolve(), args.seed, args.tiny, "consult")
        for kind, row in report["steps"].items():
            print(f"{kind:<8} {row['calls']:5d} calls  largest {row['rows']:4d} rows  traced peak {row['traced_peak_kb']:8.1f} KiB")
        print(f"{report['answers']} answers {'ok' if report['ok'] else 'FAILED'} in {report['cpu_s']:.3f} CPU s  maxrss after set-up {report['setup_maxrss_mb']:.2f} MB, after the answers {report['maxrss_mb']:.2f} MB")
        print(json.dumps({"tree": str(args.tree.resolve()), "workload": "consult", "seed": args.seed, "tiny": args.tiny, **report}))
        return 0 if report["ok"] and report["answers"] else 1
    rows = measure(args.tree.resolve(), args.seed, args.tiny)
    for row in rows:
        print(f"{row['command']:<17} {'ok    ' if row['ok'] else 'FAILED'}  {row['seconds']:7.3f} s  {row['cpu_s']:7.3f} CPU s  traced peak {row['traced_peak_mb']:6.2f} MB  maxrss {row['maxrss_mb']:6.1f} MB")
    print(json.dumps({"tree": str(args.tree.resolve()), "workload": "pipeline", "seed": args.seed, "tiny": args.tiny, "commands": rows}))
    return 0 if rows and all(row["ok"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
