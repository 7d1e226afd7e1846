"""The seeded CLI chain: every bundle command once, at tiny sizes and seed 3,
each reading the bundles and answers the commands before it wrote.

Criterion 11 runs each command of the table twice more and compares the two
runs; `test_seeded_chain_matches_its_golden` compares one run's `summary` to
`chain_golden.json`. A change that means to move these numbers re-records
the golden with the same functions the test runs:

    PYTHONPATH=src python tests/chain.py
"""

import contextlib
import csv
import io
import json
import math
import sys
import tempfile
from pathlib import Path

from medkit import numerics as nm
from medkit.cli import main as cli_main
from medkit.kgraph import fixture_graph_path

from conftest import write_corpus

GOLDEN = Path(__file__).with_name("chain_golden.json")

TINY_SETS = [
    "--set", "enc_hidden=8", "--set", "enc_layers=1", "--set", "enc_ffn=16",
    "--set", "dec_hidden=8", "--set", "dec_layers=1", "--set", "dec_ffn=16",
    "--set", "max_len=24", "--set", "context_window=48", "--set", "max_gen_len=6",
    "--set", "mlm_epochs=1", "--set", "triage_epochs=1", "--set", "prompt_epochs=1",
    "--set", "lm_pretrain_epochs=1", "--set", "lm_finetune_epochs=1",
    "--set", "lstm_layers=1", "--set", "dd_layers=1",
]

COMMANDS = [
    "stats", "clean", "split", "small-sample", "pretrain-encoder", "train-triage",
    "eval-triage", "train-prompt", "eval-prompt", "pretrain-lm", "train-gen",
    "eval-gen", "metrics",
]


def argv(command, root, corpus, out) -> list[str]:
    """One command of the chain writing to `out`; a bundle or answer file it
    reads is the one the command that writes it left in root/<command>."""
    graph = fixture_graph_path()
    table = {
        "stats": ["stats", "--in", corpus, "--seed", 3, "--out", out],
        "clean": ["clean", "--in", corpus, "--seed", 3, "--out", out],
        "split": ["split", "--in", corpus, "--seed", 3, "--out", out],
        "small-sample": ["small-sample", "--in", corpus, "--threshold", 6, "--seed", 3, "--out", out],
        "pretrain-encoder": ["pretrain-encoder", "--in", corpus, "--seed", 3, "--out", out] + TINY_SETS,
        "train-triage": ["train-triage", "--in", corpus, "--seed", 3, "--out", out] + TINY_SETS,
        "eval-triage": ["eval-triage", "--in", corpus, "--ckpt", root / "train-triage/triage.ckpt", "--seed", 3, "--out", out],
        "train-prompt": ["train-prompt", "--in", corpus, "--seed", 3, "--out", out] + TINY_SETS,
        "eval-prompt": ["eval-prompt", "--in", corpus, "--ckpt", root / "train-prompt/prompt.ckpt", "--seed", 3, "--out", out],
        "pretrain-lm": ["pretrain-lm", "--in", corpus, "--seed", 3, "--out", out] + TINY_SETS,
        "train-gen": ["train-gen", "--in", corpus, "--graph", graph, "--seed", 3, "--out", out] + TINY_SETS,
        "eval-gen": ["eval-gen", "--in", corpus, "--ckpt", root / "train-gen/gen.ckpt", "--graph", graph, "--seed", 3, "--out", out] + TINY_SETS,
        "metrics": ["metrics", "--gen", root / "eval-gen/answers.txt", "--ref", root / "eval-gen/references.txt", "--seed", 3, "--out", out],
    }
    return [str(a) for a in table[command]]


def run(root: Path) -> dict:
    """Write the test corpus to root and run every command in order, each into
    root/<command>; returns each command's exit code and stdout."""
    corpus = write_corpus(root / "corpus.jsonl")
    results = {}
    for command in COMMANDS:
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli_main(argv(command, root, corpus, root / command))
        results[command] = (code, printed.getvalue())
    return results


def _fingerprint(path: Path) -> list[float]:
    """Value count, sum of squares and sum of magnitudes of a checkpoint."""
    arrays = [a for _, a in sorted(nm.load_checkpoint(path).items())]
    return [float(sum(a.size for a in arrays)), float(sum((a * a).sum() for a in arrays)), float(sum(abs(a).sum() for a in arrays))]


def summary(root: Path, results: dict) -> dict:
    """Per command: the exit code; its stdout, parsed when it is JSON (the
    reports); each *.log.csv loss column; the generations.jsonl answers; and
    each checkpoint's fingerprint."""
    out = {}
    for command, (code, stdout) in results.items():
        try:
            printed = json.loads(stdout)
        except ValueError:
            printed = stdout
        entry = {"exit": code, "stdout": printed}
        folder = root / command
        for log in sorted(folder.glob("*.log.csv")):
            with open(log, encoding="utf-8") as fh:
                entry[log.name] = [float(row["loss"]) for row in csv.DictReader(fh)]
        generations = folder / "generations.jsonl"
        if generations.exists():
            entry["answers"] = [json.loads(line)["answer"] for line in generations.read_text(encoding="utf-8").splitlines()]
        for ckpt in sorted(folder.glob("*.ckpt")):
            entry[ckpt.name] = _fingerprint(ckpt)
        out[command] = entry
    return out


def mismatches(got, want, where="chain") -> list[str]:
    """Where `got` differs from `want`: floats beyond 1e-9 relative, any other
    value (ints, strings, keys, lengths) not exactly equal."""
    if isinstance(want, float) and isinstance(got, float):
        return [] if math.isclose(got, want, rel_tol=1e-9, abs_tol=0.0) else [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for key in want for m in mismatches(got[key], want[key], f"{where}.{key}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: {len(got)} items != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in mismatches(g, w, f"{where}[{i}]")]
    return [] if type(got) is type(want) and got == want else [f"{where}: {got!r} != {want!r}"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        record = summary(root, run(root))
    GOLDEN.write_text(json.dumps(record, ensure_ascii=False, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
