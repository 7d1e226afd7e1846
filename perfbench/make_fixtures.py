"""Build the model bundles the benchmark loads from disk, and record outputs.

    python3 perfbench/make_fixtures.py bundles
    python3 perfbench/make_fixtures.py references

``bundles`` writes ``perfbench/fixtures/decoder`` (the consultation generator
the ``consult`` workload answers with) and ``perfbench/fixtures/encoder``
(the encoder that enables the embedding metrics of the pipeline's
``metrics`` step),
trained through the medkit CLI from a fixed seed. The bundles are checked in
rather than rebuilt per run, so a later change to training numerics cannot
change the answers the ``consult`` check compares against; only the decoding
path is under test there.

``references`` records, for the default seed 0 and the held-out seed 1, the
greedy answers and, for every command of the pipeline chain, its report or
its logged losses and checkpoint fingerprint, which the benchmark's checks
compare with (``perfbench/reference.json``). Run it only at a commit whose outputs are
known to be right.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
from medkit import cli  # noqa: E402
from medkit.kgraph import fixture_graph_path  # noqa: E402

FIXTURE_SEED = 1000
DECODER_SETTINGS = ["lm_pretrain_epochs=4", "lm_finetune_epochs=24", "lm_lr=0.003"]
ENCODER_SETTINGS = ["enc_hidden=32", "enc_layers=1", "enc_heads=2", "mlm_epochs=1"]


def _run(argv: list[str], settings: list[str]) -> None:
    for item in settings:
        argv += ["--set", item]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv + ["--seed", str(FIXTURE_SEED)])
    if code != 0:
        raise SystemExit(f"medkit {argv[0]} exited {code}")


def _keep(src: Path, dest: Path, names: list[str]) -> None:
    dest.mkdir(parents=True, exist_ok=True)
    for name in names:
        shutil.copyfile(src / name, dest / name)


def bundles() -> None:
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        work = Path(tmp)
        rows = inputs.qa_corpus(FIXTURE_SEED, 96, inputs.CorpusParams(question_len=(10, 48)))
        inputs.write_jsonl(work / "qa.jsonl", rows)
        (work / "background.txt").write_text("\n".join(inputs.background_texts(rows)) + "\n", encoding="utf-8")
        _run(["pretrain-lm", "--in", str(work / "background.txt"), "--out", str(work / "lm")], DECODER_SETTINGS)
        _run(["train-gen", "--in", str(work / "qa.jsonl"), "--graph", fixture_graph_path(),
              "--lm-ckpt", str(work / "lm" / "lm.ckpt"), "--out", str(work / "gen")], DECODER_SETTINGS)
        _keep(work / "gen", HERE / "fixtures" / "decoder", ["gen.ckpt", "gen.meta.json", "vocab.txt"])

        alphabet = inputs.METRIC_ALPHABET
        lines = ["".join(alphabet[(i * 12 + j) % len(alphabet)] for j in range(12)) for i in range(len(alphabet) // 4)]
        (work / "alphabet.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        _run(["pretrain-encoder", "--in", str(work / "alphabet.txt"), "--out", str(work / "enc")], ENCODER_SETTINGS)
        _keep(work / "enc", HERE / "fixtures" / "encoder", ["encoder.ckpt", "encoder.meta.json", "vocab.txt"])


def references(seeds=(0, 1)) -> None:
    from workloads import REFERENCE_FILE, Consult, Pipeline

    recorded: dict[str, dict] = {"consult": {}, "pipeline": {}}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for seed in seeds:
            consult = Consult(Path(tmp), seed, tiny=False)
            consult.prepare()
            consult.setup()
            recorded["consult"].update({q: consult.answer(q) for q in consult.requests()})
            pipeline = Pipeline(Path(tmp) / f"pipeline{seed}", seed, tiny=False)
            pipeline.prepare()
            for op in pipeline.run("chain"):
                if not op.ok:
                    raise SystemExit(f"{op.name} for seed {seed} failed ({op.output}); nothing recorded")
                recorded["pipeline"][op.key] = json.loads(op.output)
    REFERENCE_FILE.write_text(json.dumps(recorded, ensure_ascii=False, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    {"bundles": bundles, "references": references}[sys.argv[1]]()
