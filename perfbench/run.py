"""medkit benchmark: one closed-loop workload per run, checked and timed.

    python3 perfbench/run.py --workload {pipeline,consult} --seed N \
        --seconds S --trace {0,1} [--tiny]

Run from the repository root (any directory works; paths are resolved from
this file). The benchmark imports medkit from ``src/`` of the same tree and
refuses to run without it.

``--trace 0`` measures the end-to-end metrics. The run's time is split over
five worker processes started one after another, each a single caller: the
same input, run in a fresh interpreter, was measured up to 40% slower in one
process than in another on a 2-vCPU VM (memory layout), so one process would
make that luck the result. Each worker times its set-up (importing medkit
and, for ``consult``, loading the decoder bundle and graph), makes one
untimed warm-up request, then sends the seed's requests in order, cycling,
from its own starting point, until its share of ``--seconds`` has elapsed.
Before each worker, two more processes only set up; ``setup_s`` is the
median of all fifteen set-ups.
``--trace 1`` runs a fixed request list in one process, once untraced and
once under the outside-in tracer (``spans.py``), and reports the per-layer
metrics, including the tracing overhead between the two passes.

Every output is checked (exit codes, training logs, recorded answers and
metric reports, or a repeat call where this commit recorded none). The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. The line before it gives the workload's own named metrics, the
input parameters and the run record; the same data, and for traced runs the
spans, are written under ``.perfbench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from spans import LAYER_UNITS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Op, tail  # noqa: E402

# name -> unit; kept equal to BENCHMARK.json (the tiny-mode test checks it).
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}
WORKERS = 5
# Extra processes that only set up, started before each worker: set-up is
# under a second and varies by a third between fresh processes, so its
# median is taken over WORKERS * (1 + SETUP_PROBES) samples spread over the run.
SETUP_PROBES = 2


def run_record() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((SRC / "medkit").glob("*.py")))
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit or "unknown (not a git checkout)",
        "src_medkit_lines": lines,
    }


def _serve(wl, requests, seconds: float | None, tracer=None) -> tuple[list, list[float], float]:
    """Send `requests` in order, cycling, until `seconds` have elapsed (the
    request in flight completes), or exactly once each when `seconds` is
    None. Returns (ops, per-request seconds, wall seconds)."""
    ops, latencies = [], []
    start = time.perf_counter()
    for i in itertools.count():
        done = wl.run(requests[i % len(requests)], tracer)
        ops += done
        latencies.append(sum(op.seconds for op in done))
        if (i + 1 == len(requests)) if seconds is None else (time.perf_counter() - start >= seconds):
            return ops, latencies, time.perf_counter() - start


def worker(args, work: Path) -> dict:
    """One measuring process: set-up, warm-up, then its share of the run."""
    start = time.perf_counter()
    import medkit.cli  # noqa: F401 - the import is part of set-up

    wl = WORKLOADS[args.workload](work, args.seed, args.tiny)
    wl.setup()
    setup_s = time.perf_counter() - start
    if args.setup_only:
        return {"setup_s": setup_s}
    wl.prepare()
    wl.warmup()
    requests = wl.requests()
    first = args.worker * len(requests) // WORKERS
    ops, latencies, _ = _serve(wl, requests[first:] + requests[:first], None if args.tiny else args.seconds)
    return {"setup_s": setup_s, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "latencies": latencies, "ops": [dataclasses.asdict(op) for op in ops]}


def measure(wl, args) -> tuple[dict, list, dict]:
    def start(k: int, *flags: str) -> dict:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds / WORKERS), "--worker", str(k), *flags] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(argv, capture_output=True, text=True, timeout=args.seconds / WORKERS + 170, check=True)
        return json.loads(done.stdout.strip().splitlines()[-1])

    parts, setups = [], []
    for k in range(1 if args.tiny else WORKERS):
        setups += [start(k, "--setup-only")["setup_s"] for _ in range(0 if args.tiny else SETUP_PROBES)]
        parts.append(start(k))
        setups.append(parts[-1]["setup_s"])
    ops = [Op(**op) for part in parts for op in part["ops"]]
    latencies = [x for part in parts for x in part["latencies"]]
    wl.setup()
    wl.check(ops)
    p_tail, pct = tail(latencies)
    metrics = {
        "setup_s": median(setups),
        "throughput_per_s": sum(op.units for op in ops) / sum(latencies),
        "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
    }
    extra = {"setup_samples_s": setups, "requests": len(latencies),
             "latency_p50_ms": median(latencies) * 1000, "latency_tail_ms": p_tail * 1000,
             "latency_tail_percentile": pct, **wl.detail(ops)}
    return metrics, ops, extra


def traced(wl) -> tuple[dict, list, Tracer]:
    wl.setup()
    wl.warmup()
    requests = wl.trace_requests()
    plain_ops, _, plain_wall = _serve(wl, requests, None)
    tracer = Tracer()
    tracer.install()
    try:
        wl.setup(tracer)
        traced_ops, _, traced_wall = _serve(wl, requests, None, tracer)
    finally:
        tracer.uninstall()
    ops = plain_ops + traced_ops
    wl.check(ops)
    train_units = sum(op.units for op in traced_ops if op.name in getattr(wl, "TRAINING", ()))
    metrics = layer_metrics(tracer, train_units)
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall
    return metrics, ops, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="input seed; 0 and 1 have recorded reference outputs")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, one pass: for the schema test")
    parser.add_argument("--worker", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "medkit" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: medkit sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import medkit

    if Path(medkit.__file__).resolve().parent != (SRC / "medkit").resolve():
        sys.stderr.write(f"perfbench: imported medkit from {medkit.__file__}, not from {SRC}\n")
        return 2

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    work = out_dir / f"work-{os.getpid()}"
    try:
        if args.worker is not None:
            print(json.dumps(worker(args, work), ensure_ascii=False))
            return 0
        wl = WORKLOADS[args.workload](work, args.seed, args.tiny)
        wl.prepare()
        if args.trace:
            metrics, ops, tracer = traced(wl)
            extra = {"roadmap_probe": {"triage.bilstm_share": 0.90, "genmetrics.ter_share": 0.996}}
        else:
            metrics, ops, extra = measure(wl, args)
        info = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "tiny": args.tiny,
                "inputs": wl.describe(), "check": wl.checker.note() if wl.checker else {"check": "exit codes and outputs"}}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    if args.trace:
        tracer.write(out_dir / f"{tag}.spans.jsonl")
    failed = sum(not op.ok for op in ops)
    outputs = hashlib.sha256("\n".join(sorted({op.output for op in ops})).encode("utf-8")).hexdigest()
    info.update(extra, failed_ratio=failed / len(ops), outputs_sha256=outputs, record=run_record())
    units = END_TO_END if not args.trace else {name: unit for name, (unit, _) in LAYER_UNITS.items()}
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (out_dir / f"{tag}.json").write_text(json.dumps({**info, **result}, ensure_ascii=False, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(info, ensure_ascii=False))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
