import io
import json
import math
import random
import shutil
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from medkit import cli
from medkit.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, RunConfig, build_parser, main
from medkit.encoder import EncoderConfig
from medkit.generator import Decoder, DecoderConfig
from medkit.kgraph import fixture_graph_path
from medkit.numerics import NumericsError, load_checkpoint
from medkit.tokenizer import Vocab

from conftest import CORPUS_SAMPLES, write_corpus

TINY = [
    "--set", "enc_hidden=8", "--set", "enc_layers=1", "--set", "enc_ffn=16",
    "--set", "dec_hidden=8", "--set", "dec_layers=1", "--set", "dec_ffn=16",
    "--set", "max_len=24", "--set", "context_window=48", "--set", "max_gen_len=8",
    "--set", "mlm_epochs=2", "--set", "triage_epochs=2", "--set", "prompt_epochs=2",
    "--set", "lm_pretrain_epochs=2", "--set", "lm_finetune_epochs=2",
    "--set", "lstm_layers=1", "--set", "dd_layers=1",
]


def run(argv):
    return main([str(a) for a in argv])


FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"


@pytest.mark.parametrize(("meta_file", "section", "config"), [
    ("encoder/encoder.meta.json", "encoder_config", EncoderConfig),
    ("decoder/gen.meta.json", "decoder_config", DecoderConfig),
], ids=["encoder", "decoder"])
def test_config_asdict_is_the_checked_in_bundle_meta(meta_file, section, config):
    meta = json.loads((FIXTURES / meta_file).read_text(encoding="utf-8"))
    assert asdict(config(**meta[section])) == meta[section]


def test_every_subcommand_help_exits_zero(capsys):
    parser = build_parser()
    commands = [
        "stats", "clean", "split", "small-sample", "pretrain-encoder", "train-triage",
        "eval-triage", "train-prompt", "eval-prompt", "pretrain-lm", "train-gen",
        "eval-gen", "metrics", "chat",
    ]
    for command in commands:
        assert run([command, "--help"]) == 0
        capsys.readouterr()


def test_missing_required_flag_exits_one(capsys):
    assert run(["stats"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "usage" in err


def test_unknown_subcommand_exits_one():
    assert run(["frobnicate"]) == EXIT_USAGE


def test_unknown_config_key_rejected(corpus_file, capsys):
    assert run(["stats", "--in", corpus_file, "--set", "bogus_key=1"]) == EXIT_USAGE
    assert "unknown config key" in capsys.readouterr().err


def test_config_file_and_flag_precedence(tmp_path, corpus_file):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("seed = 7\ntest_fraction = 0.25\n# comment line\n", encoding="utf-8")
    cfg = RunConfig.from_file(cfg_file)
    assert cfg.seed == 7 and cfg.test_fraction == 0.25
    out = tmp_path / "out"
    assert run(["split", "--in", corpus_file, "--config", cfg_file, "--set", "test_fraction=0.5", "--out", out]) == EXIT_OK
    resolved = (out / "config.resolved").read_text()
    assert "test_fraction = 0.5" in resolved
    assert "seed = 7" in resolved


def test_stats_matches_hand_counts(corpus_file, capsys):
    assert run(["stats", "--in", corpus_file]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_count"] == 12
    assert payload["category_count"] == 2
    assert payload["per_category"] == {"内科": 6, "骨科": 6}
    expected_q = sum(len(s["question"]) for s in CORPUS_SAMPLES) / 12
    assert abs(payload["avg_question_length"] - expected_q) < 1e-9
    assert payload["gender_counts"] == {"female": 6, "male": 6}
    assert payload["rejects"] == 0


def test_clean_writes_kept_and_removed(tmp_path, capsys):
    rows = list(CORPUS_SAMPLES[:3])
    rows.append({"question": "太短", "answer": "建议充分休息并且多喝温水"})
    rows.append({"question": "这一条没有答案长度够十字", "answer": None})
    path = write_corpus(tmp_path / "dirty.jsonl", rows)
    out = tmp_path / "out"
    assert run(["clean", "--in", path, "--out", out]) == EXIT_OK
    kept = (out / "kept.jsonl").read_text(encoding="utf-8").strip().splitlines()
    removed = (out / "removed.jsonl").read_text(encoding="utf-8").strip().splitlines()
    assert len(kept) == 3 and len(removed) == 2


def test_split_is_deterministic_with_seed(tmp_path, corpus_file):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run(["split", "--in", corpus_file, "--seed", 5, "--out", out1]) == EXIT_OK
    assert run(["split", "--in", corpus_file, "--seed", 5, "--out", out2]) == EXIT_OK
    assert (out1 / "train.jsonl").read_bytes() == (out2 / "train.jsonl").read_bytes()
    assert (out1 / "test.jsonl").read_bytes() == (out2 / "test.jsonl").read_bytes()


def test_small_sample_drops_heavy_classes(tmp_path, corpus_file):
    rows = list(CORPUS_SAMPLES) + [
        {"question": f"皮肤瘙痒问题第{i}条字数够", "answer": "建议避免抓挠保持皮肤清洁", "label_coarse": "皮肤科"}
        for i in range(2)
    ]
    path = write_corpus(tmp_path / "skewed.jsonl", rows)
    out = tmp_path / "out"
    assert run(["small-sample", "--in", path, "--threshold", 3, "--out", out]) == EXIT_OK
    categories = json.loads((out / "categories.json").read_text())["categories"]
    assert categories == ["皮肤科"]


def _pretrain_encoder(tmp_path, corpus_file, seed=3):
    out = tmp_path / "enc"
    code = run(["pretrain-encoder", "--in", corpus_file, "--seed", seed, "--out", out] + TINY)
    assert code == EXIT_OK
    return out


def test_pretrain_encoder_bundle_layout(tmp_path, corpus_file):
    out = _pretrain_encoder(tmp_path, corpus_file)
    for name in ["encoder.ckpt", "encoder.meta.json", "vocab.txt", "pretrain.log.csv", "config.resolved"]:
        assert (out / name).exists(), name
    header = (out / "pretrain.log.csv").read_text().splitlines()[0]
    assert header == "epoch,loss,lr,seconds"


def test_triage_train_eval_round_trip(tmp_path, corpus_file, capsys):
    enc_dir = _pretrain_encoder(tmp_path, corpus_file)
    out = tmp_path / "triage"
    code = run([
        "train-triage", "--in", corpus_file, "--encoder-ckpt", enc_dir / "encoder.ckpt",
        "--seed", 3, "--out", out,
    ] + TINY + [
        "--set", "triage_epochs=20", "--set", "lr_encoder=0.002", "--set", "lr_head=0.01",
    ])
    assert code == EXIT_OK
    capsys.readouterr()
    opt_state = json.loads((out / "optimizer_state.json").read_text())
    assert [g["name"] for g in opt_state["groups"]] == ["head", "encoder"]
    assert [g["lr"] for g in opt_state["groups"]] == [0.01, 0.002]

    eval_out = tmp_path / "triage-eval"
    code = run(["eval-triage", "--in", corpus_file, "--ckpt", out / "triage.ckpt", "--out", eval_out])
    assert code == EXIT_OK
    payload = json.loads((eval_out / "metrics.json").read_text())
    assert payload["accuracy"] >= 0.9  # train-set evaluation of an overfit tiny model
    printed = json.loads(capsys.readouterr().out)
    assert printed["accuracy"] == payload["accuracy"]


def test_train_triage_ablation_flags_recorded(tmp_path, corpus_file, capsys):
    out = tmp_path / "ablate"
    code = run(["train-triage", "--in", corpus_file, "--no-dd", "--seed", 1, "--out", out] + TINY + ["--set", "triage_epochs=1"])
    assert code == EXIT_OK
    meta = json.loads((out / "triage.meta.json").read_text())
    assert meta["head_config"]["use_dd"] is False
    assert meta["head_config"]["use_bilstm"] is True
    capsys.readouterr()


def test_train_triage_divergence_keeps_last_completed_epoch_and_exits_two(tmp_path, corpus_file, capsys):
    # one step per epoch; its huge update overflows the next epoch's forward pass
    settings = TINY + ["--set", "batch_size=64", "--set", "lr_encoder=1e300", "--set", "lr_head=1e300", "--seed", 2]
    assert run(["train-triage", "--in", corpus_file, "--out", tmp_path / "one"] + settings + ["--set", "triage_epochs=1"]) == EXIT_OK
    capsys.readouterr()
    assert run(["train-triage", "--in", corpus_file, "--out", tmp_path / "three"] + settings + ["--set", "triage_epochs=3"]) == EXIT_RUNTIME
    assert "triage training diverged" in capsys.readouterr().err
    assert len((tmp_path / "three" / "train.log.csv").read_text().splitlines()) == 2  # header and the completed epoch
    assert (tmp_path / "three" / "triage.ckpt").read_bytes() == (tmp_path / "one" / "triage.ckpt").read_bytes()


@pytest.mark.parametrize(("argv", "message"), [
    (["train-triage", "--set", "lstm_layers=0"], "num_lstm_layers must be >= 1"),
    (["train-triage", "--set", "dd_layers=0"], "num_dd_layers must be >= 1"),
    (["pretrain-encoder", "--set", "mlm_epochs=-1"], "epochs must be >= 0"),
], ids=["lstm-layers-zero", "dd-layers-zero", "mlm-epochs-negative"])
def test_count_below_its_floor_exits_one_with_one_error_line(tmp_path, corpus_file, capsys, argv, message):
    assert run(argv[:1] + ["--in", corpus_file, "--out", tmp_path / "out"] + TINY + argv[1:]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("medkit: error:") and message in err


def test_auto_granularity_trains_on_fine_labels_when_no_sample_is_coarse(tmp_path):
    corpus = write_corpus(tmp_path / "fine.jsonl", [{k: v for k, v in row.items() if k != "label_coarse"} for row in CORPUS_SAMPLES])
    auto = ["--set", "granularity=auto"]
    assert run(["split", "--in", corpus, "--out", tmp_path / "split"] + auto) == EXIT_OK
    assert run(["train-triage", "--in", corpus, "--out", tmp_path / "triage"] + TINY + auto) == EXIT_OK
    label_map = json.loads((tmp_path / "triage" / "label_map.json").read_text(encoding="utf-8"))
    assert set(label_map) == {row["label_fine"] for row in CORPUS_SAMPLES}


def test_prompt_train_eval_round_trip(tmp_path, corpus_file, capsys):
    out = tmp_path / "prompt"
    code = run([
        "train-prompt", "--in", corpus_file, "--seed", 4, "--out", out,
    ] + TINY + [
        "--set", "prompt_epochs=40", "--set", "prompt_lr=0.01", "--set", "enc_hidden=16", "--set", "enc_ffn=32",
    ])
    assert code == EXIT_OK
    assert (out / "prompt.ckpt").exists() and (out / "verbalizer.json").exists()
    capsys.readouterr()
    eval_out = tmp_path / "prompt-eval"
    code = run(["eval-prompt", "--in", corpus_file, "--ckpt", out / "prompt.ckpt", "--out", eval_out])
    assert code == EXIT_OK
    payload = json.loads((eval_out / "metrics.json").read_text())
    assert payload["accuracy"] >= 0.9


def test_generator_pipeline_and_chat(tmp_path, corpus_file, capsys, monkeypatch):
    lm_out = tmp_path / "lm"
    assert run(["pretrain-lm", "--in", corpus_file, "--seed", 5, "--out", lm_out] + TINY) == EXIT_OK
    gen_out = tmp_path / "gen"
    code = run([
        "train-gen", "--in", corpus_file, "--graph", fixture_graph_path(),
        "--lm-ckpt", lm_out / "lm.ckpt", "--seed", 5, "--out", gen_out,
    ] + TINY + ["--set", "lm_lr=0.005"])
    assert code == EXIT_OK
    eval_out = tmp_path / "gen-eval"
    code = run([
        "eval-gen", "--in", corpus_file, "--ckpt", gen_out / "gen.ckpt",
        "--graph", fixture_graph_path(), "--seed", 5, "--out", eval_out,
    ] + TINY)
    assert code == EXIT_OK
    rows = [json.loads(line) for line in (eval_out / "generations.jsonl").read_text(encoding="utf-8").splitlines()]
    assert len(rows) == 12
    assert all(set(row) == {"question", "supplement", "answer"} for row in rows)
    assert rows[0]["supplement"].startswith("头痛")  # fixture graph matched the first question
    capsys.readouterr()

    monkeypatch.setattr(sys, "stdin", io.StringIO("头痛好几天了怎么办\n\n"))
    code = run(["chat", "--ckpt", gen_out / "gen.ckpt", "--graph", fixture_graph_path()])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("supplement: 头痛")
    assert lines[1].startswith("answer:")


def test_chat_under_no_input_supplement_reads_no_graph(capsys, monkeypatch):
    argv = ["chat", "--ckpt", FIXTURES / "decoder" / "gen.ckpt", "--graph", fixture_graph_path()]
    for extra, supplemented in [([], True), (["--set", "no_input_supplement=true"], False)]:
        monkeypatch.setattr(sys, "stdin", io.StringIO("头痛好几天了怎么办\n"))
        assert run(argv + extra) == EXIT_OK
        assert (capsys.readouterr().out.splitlines()[0] != "supplement: ") is supplemented


def test_metrics_subcommand_diagonal(tmp_path, capsys):
    gen = tmp_path / "gen.txt"
    ref = tmp_path / "ref.txt"
    gen.write_text("头痛多喝水\n发烧要休息\n", encoding="utf-8")
    ref.write_text("头痛多喝水\n发烧要休息\n", encoding="utf-8")
    assert run(["metrics", "--gen", gen, "--ref", ref]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["bleu1"] == 1.0
    assert payload["ter"] == 0.0
    assert payload["kl_divergence"] == 0.0


def test_metrics_accepts_generations_jsonl(tmp_path, capsys):
    gen = tmp_path / "gen.jsonl"
    with open(gen, "w", encoding="utf-8") as fh:
        for answer in ["头痛多喝水", "发烧要休息"]:
            fh.write(json.dumps({"question": "q", "supplement": "", "answer": answer}, ensure_ascii=False) + "\n")
    ref = tmp_path / "ref.txt"
    ref.write_text("头痛多喝水\n发烧要休息\n", encoding="utf-8")
    assert run(["metrics", "--gen", gen, "--ref", ref]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["bleu1"] == 1.0


@pytest.mark.parametrize("row", ['{"question": "q"}', "[1, 2]", "{"], ids=["no-answer", "not-an-object", "not-json"])
def test_metrics_malformed_generations_jsonl_exits_one(tmp_path, capsys, row):
    gen = tmp_path / "gen.jsonl"
    gen.write_text(json.dumps({"answer": "头痛多喝水"}, ensure_ascii=False) + "\n" + row + "\n", encoding="utf-8")
    ref = tmp_path / "ref.txt"
    ref.write_text("头痛多喝水\n发烧要休息\n", encoding="utf-8")
    assert run(["metrics", "--gen", gen, "--ref", ref]) == EXIT_USAGE
    assert f"{gen}:2:" in capsys.readouterr().err


def test_metrics_with_encoder_fills_embedding_metrics(tmp_path, corpus_file, capsys):
    enc_dir = _pretrain_encoder(tmp_path, corpus_file)
    capsys.readouterr()
    gen = tmp_path / "gen.txt"
    ref = tmp_path / "ref.txt"
    gen.write_text("头痛好几天了\n发烧要去医院\n", encoding="utf-8")
    ref.write_text("头痛好几天了应该怎么办\n发烧三十九度要去医院吗\n", encoding="utf-8")
    assert run(["metrics", "--gen", gen, "--ref", ref, "--encoder", enc_dir / "encoder.ckpt"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["wmd_similarity"] is not None and 0.0 < payload["wmd_similarity"] <= 1.0
    assert payload["embed_f1"] is not None and 0.0 <= payload["embed_f1"] <= 1.0


@pytest.fixture(scope="module")
def encoder_bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("bundle")
    return _pretrain_encoder(root, write_corpus(root / "corpus.jsonl"))


# Byte counts kept: inside the file header (the tensor count), inside the
# first tensor's name-length field, inside its name, and 8 bytes short of the
# last payload.
@pytest.mark.parametrize("keep", [20, 30, 35, -8], ids=["file-header", "tensor-header", "name", "payload"])
def test_truncated_checkpoint_is_runtime_failure(tmp_path, encoder_bundle, capsys, keep):
    bundle = tmp_path / "enc"
    shutil.copytree(encoder_bundle, bundle)
    ckpt = bundle / "encoder.ckpt"
    ckpt.write_bytes(ckpt.read_bytes()[:keep])
    with pytest.raises(NumericsError, match="truncated checkpoint"):
        load_checkpoint(ckpt)
    gen = tmp_path / "gen.txt"
    gen.write_text("头痛多喝水\n", encoding="utf-8")
    assert run(["metrics", "--gen", gen, "--ref", gen, "--encoder", ckpt]) == EXIT_RUNTIME
    assert "truncated checkpoint" in capsys.readouterr().err


@pytest.fixture(scope="module")
def lm_bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("lm")
    out = root / "lm"
    assert run(["pretrain-lm", "--in", write_corpus(root / "corpus.jsonl"), "--seed", 5, "--out", out] + TINY) == EXIT_OK
    return out


@pytest.mark.parametrize("kind", ["encoder", "decoder"])
def test_bundle_vocab_size_mismatch_exits_one(tmp_path, request, capsys, kind):
    bundle = tmp_path / "bundle"
    shutil.copytree(request.getfixturevalue("encoder_bundle" if kind == "encoder" else "lm_bundle"), bundle)
    vocab_path = bundle / "vocab.txt"
    tokens = vocab_path.read_text(encoding="utf-8").splitlines()
    vocab_path.write_text("".join(tok + "\n" for tok in tokens[:-1]), encoding="utf-8")
    capsys.readouterr()
    if kind == "encoder":
        gen = tmp_path / "gen.txt"
        gen.write_text("头痛多喝水\n", encoding="utf-8")
        code = run(["metrics", "--gen", gen, "--ref", gen, "--encoder", bundle / "encoder.ckpt"])
    else:
        code = run(["chat", "--ckpt", bundle / "lm.ckpt"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"has {len(tokens) - 1} entries" in err and f"vocab_size {len(tokens)}" in err


def test_metrics_empty_reference_line_scores_finite(tmp_path, capsys):
    gen = tmp_path / "gen.txt"
    ref = tmp_path / "ref.txt"
    gen.write_text("头痛多喝水\n发烧要休息\n", encoding="utf-8")
    ref.write_text("\n发烧要休息\n", encoding="utf-8")
    assert run(["metrics", "--gen", gen, "--ref", ref]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    numbers = [v for v in payload.values() if isinstance(v, (int, float))]
    assert numbers and all(math.isfinite(v) for v in numbers)


def test_metrics_ter_leaves_out_empty_reference_lines(tmp_path, capsys):
    from medkit import genmetrics as gm

    gen = tmp_path / "gen.txt"
    ref = tmp_path / "ref.txt"
    gen.write_text("头痛多喝水\n发烧要休息\n", encoding="utf-8")
    ref.write_text("\n发烧多休息\n", encoding="utf-8")
    assert run(["metrics", "--gen", gen, "--ref", ref]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["ter"] == gm.ter(gm.char_tokens("发烧要休息"), gm.char_tokens("发烧多休息")) == 0.2


def test_metrics_length_mismatch_exit_one(tmp_path, capsys):
    gen = tmp_path / "gen.txt"
    ref = tmp_path / "ref.txt"
    gen.write_text("a\n", encoding="utf-8")
    ref.write_text("a\nb\n", encoding="utf-8")
    assert run(["metrics", "--gen", gen, "--ref", ref]) == EXIT_USAGE


def test_log_env_var_controls_verbosity(corpus_file, monkeypatch, capsys, caplog):
    import logging

    monkeypatch.setenv("MEDKIT_LOG", "debug")
    logging.getLogger().handlers.clear()  # let main() reconfigure
    assert run(["stats", "--in", corpus_file]) == EXIT_OK
    assert logging.getLogger().level == logging.DEBUG
    capsys.readouterr()


def test_commands_write_only_under_out(tmp_path, corpus_file, monkeypatch):
    workspace = tmp_path / "workspace"
    workspace.mkdir()
    monkeypatch.chdir(workspace)
    out = workspace / "results"
    assert run(["split", "--in", corpus_file, "--out", out]) == EXIT_OK
    stray = [p for p in workspace.rglob("*") if not str(p).startswith(str(out))]
    assert stray == []


def _reader_argv(command, ckpt, tmp_path, corpus_file):
    """`command`, one of the commands that read a bundle, pointed at `ckpt`."""
    gen = tmp_path / "gen.txt"
    gen.write_text("头痛多喝水\n", encoding="utf-8")
    out = ["--out", tmp_path / "out"] + TINY
    return {
        "metrics": ["metrics", "--gen", gen, "--ref", gen, "--encoder", ckpt],
        "eval-gen": ["eval-gen", "--in", corpus_file, "--ckpt", ckpt] + out,
        "chat": ["chat", "--ckpt", ckpt],
        "train-gen": ["train-gen", "--in", corpus_file, "--lm-ckpt", ckpt] + out,
        "train-triage": ["train-triage", "--in", corpus_file, "--encoder-ckpt", ckpt] + out,
        "train-prompt": ["train-prompt", "--in", corpus_file, "--encoder-ckpt", ckpt] + out,
        "eval-triage": ["eval-triage", "--in", corpus_file, "--ckpt", ckpt] + out,
        "eval-prompt": ["eval-prompt", "--in", corpus_file, "--ckpt", ckpt] + out,
    }[command]


def _wrong_kind_argv(command, tmp_path, corpus_file):
    """`command` pointed at a checked-in bundle of the other kind."""
    other = "decoder/gen.ckpt" if command in ("metrics", "train-triage") else "encoder/encoder.ckpt"
    return _reader_argv(command, FIXTURES / other, tmp_path, corpus_file)


@pytest.mark.parametrize(("command", "section"), [
    ("metrics", "encoder_config"),
    ("eval-gen", "decoder_config"),
    ("train-gen", "decoder_config"),
    ("train-triage", "encoder_config"),
    ("eval-triage", "head_config"),
])
def test_bundle_of_the_wrong_kind_exits_one(tmp_path, corpus_file, capsys, command, section):
    assert run(_wrong_kind_argv(command, tmp_path, corpus_file)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"has no '{section}' section" in err and ".meta.json" in err


def test_bundle_missing_a_tensor_exits_one(tmp_path, capsys):
    bundle = tmp_path / "enc"
    shutil.copytree(FIXTURES / "encoder", bundle)
    meta_path = bundle / "encoder.meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    meta["encoder_config"]["num_layers"] = 2  # over a 1-layer checkpoint
    meta_path.write_text(json.dumps(meta), encoding="utf-8")
    gen = tmp_path / "gen.txt"
    gen.write_text("头痛多喝水\n", encoding="utf-8")
    assert run(["metrics", "--gen", gen, "--ref", gen, "--encoder", bundle / "encoder.ckpt"]) == EXIT_USAGE
    assert "checkpoint has no tensor 'layer1." in capsys.readouterr().err


# -- corrupt bundles ---------------------------------------------------------------


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    """The checkpoint of one bundle of each kind: the checked-in encoder and
    decoder, and a tiny triage and prompt bundle trained here."""
    root = tmp_path_factory.mktemp("bundles")
    corpus = write_corpus(root / "corpus.jsonl")
    for kind in ("triage", "prompt"):
        assert run([f"train-{kind}", "--in", corpus, "--seed", 1, "--out", root / kind] + TINY) == EXIT_OK
    return {
        "encoder": FIXTURES / "encoder" / "encoder.ckpt",
        "decoder": FIXTURES / "decoder" / "gen.ckpt",
        "triage": root / "triage" / "triage.ckpt",
        "prompt": root / "prompt" / "prompt.ckpt",
    }


# The commands that read each kind of bundle; the first reads all of it.
READERS = {
    "encoder": ["metrics", "train-triage", "train-prompt"],
    "decoder": ["eval-gen", "chat", "train-gen"],
    "triage": ["eval-triage", "train-prompt"],
    "prompt": ["eval-prompt", "metrics"],
}
DROP = object()


def _flip_bit(path, lo, hi, rng):
    data = bytearray(path.read_bytes())
    data[rng.randrange(lo, hi)] ^= 1 << rng.randrange(8)
    path.write_bytes(bytes(data))


def _truncate(ckpt, rng):
    size = ckpt.stat().st_size
    ckpt.write_bytes(ckpt.read_bytes()[: rng.choice([rng.randrange(24), rng.randrange(24, size), size - 1])])


def _flip_in_first_name(ckpt, rng):
    name_len = int.from_bytes(ckpt.read_bytes()[24:32], "little")
    _flip_bit(ckpt, 32, 32 + name_len, rng)


def _write(name, data):
    """Replace the bundle file `name` ("meta" for the meta sidecar) with `data`,
    or delete it when `data` is None."""
    def corrupt(ckpt, rng):
        path = ckpt.with_suffix(".meta.json") if name == "meta" else ckpt.parent / name
        if data is None:
            path.unlink()
        else:
            path.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
    return corrupt


def _edit_meta(section, key, value):
    """Set meta[section][key] (meta[key] when `section` is None) to `value`, or to value(old) if callable."""
    def corrupt(ckpt, rng):
        path = ckpt.with_suffix(".meta.json")
        meta = json.loads(path.read_text(encoding="utf-8"))
        target = meta if section is None else meta[section]
        if value is DROP:
            del target[key]
        elif callable(value):
            target[key] = value(target[key])
        else:
            target[key] = value
        path.write_text(json.dumps(meta), encoding="utf-8")
    return corrupt


def _edit_vocab(edit):
    def corrupt(ckpt, rng):
        path = ckpt.parent / "vocab.txt"
        path.write_bytes(edit(path.read_bytes()))
    return corrupt


def _common_cases(kind):
    section = "decoder_config" if kind == "decoder" else "encoder_config"
    return {
        "truncated": _truncate,
        "flip-in-header": lambda ckpt, rng: _flip_bit(ckpt, 0, 24, rng),
        "flip-in-tensor-name": _flip_in_first_name,
        "meta-not-json": _write("meta", "{not json"),
        "meta-not-an-object": _write("meta", "[1]"),
        "meta-missing": _write("meta", None),
        "unknown-key": _edit_meta(section, "bogus", 1),
        "no-vocab-size": _edit_meta(section, "vocab_size", DROP),
        "no-ln-eps": _edit_meta(section, "ln_eps", DROP),
        "hidden-dim-a-string": _edit_meta(section, "hidden_dim", "64"),
        "num-layers-a-float": _edit_meta(section, "num_layers", 1.0),
        "num-heads-a-bool": _edit_meta(section, "num_heads", True),
        "num-layers-negative": _edit_meta(section, "num_layers", -1),
        "num-layers-fewer": _edit_meta(section, "num_layers", lambda layers: layers - 1),
        "ln-eps-a-string": _edit_meta(section, "ln_eps", "1e-5"),
        "section-not-an-object": _edit_meta(None, section, [1]),
        "vocab-line-added": _edit_vocab(lambda data: data + "多余\n".encode("utf-8")),
        "vocab-line-dropped": _edit_vocab(lambda data: data[: data.rstrip(b"\n").rfind(b"\n") + 1]),
        "vocab-not-utf8": _edit_vocab(lambda data: data + b"\xff\xfe\n"),
        "vocab-missing": _write("vocab.txt", None),
    }


# Corruptions of what only the first reader of a kind reads.
OWN_CASES = {
    "decoder": {"supplement-a-string": _edit_meta(None, "supplement_max_chars", "64")},
    "triage": {
        "head-section-missing": _edit_meta(None, "head_config", DROP),
        "head-section-not-an-object": _edit_meta(None, "head_config", [1]),
        "num-classes-a-float": _edit_meta("head_config", "num_classes", 2.0),
        "use-dd-an-int": _edit_meta("head_config", "use_dd", 1),
        "label-map-missing": _write("label_map.json", None),
        "label-map-not-json": _write("label_map.json", "{"),
        "label-map-not-an-object": _write("label_map.json", "[1]"),
        "label-map-string-ids": _write("label_map.json", '{"内科": "0", "骨科": "1"}'),
        "label-map-repeated-id": _write("label_map.json", '{"内科": 0, "骨科": 0}'),
        "label-map-id-out-of-range": _write("label_map.json", '{"内科": 0, "骨科": 2}'),
    },
    "prompt": {
        "template-missing": _edit_meta(None, "template", DROP),
        "template-not-an-object": _edit_meta(None, "template", [1]),
        "template-unknown-key": _edit_meta("template", "bogus", ""),
        "slot-count-a-string": _edit_meta("template", "mask_slot_count", "1"),
        "max-len-missing": _edit_meta(None, "max_len", DROP),
        "max-len-zero": _edit_meta(None, "max_len", 0),
        "pad-slots-a-string": _edit_meta(None, "include_pad_slots", "no"),
        "verbalizer-missing": _write("verbalizer.json", None),
        "verbalizer-empty": _write("verbalizer.json", ""),
        "verbalizer-not-an-object": _write("verbalizer.json", "[1]"),
        "verbalizer-surface-an-int": _write("verbalizer.json", '{"内科": 1, "骨科": "骨"}'),
    },
}
CORRUPTIONS = [(kind, case, READERS[kind]) for kind in READERS for case in _common_cases(kind)]
# A damaged checkpoint exits 1 or 2 naming the checkpoint; anything else is a
# validation error (exit 1) naming the file at fault: by the case's prefix, or
# else the meta sidecar.
CHECKPOINT_CASES = {"truncated", "flip-in-header", "flip-in-tensor-name"}
NAMED_FILES = {"vocab-": "vocab.txt", "label-map-": "label_map.json", "verbalizer-": "verbalizer.json"}
CORRUPTIONS += [(kind, case, READERS[kind][:1]) for kind, cases in OWN_CASES.items() for case in cases]


@pytest.mark.parametrize(("kind", "case", "readers"), CORRUPTIONS, ids=[f"{kind}-{case}" for kind, case, _ in CORRUPTIONS])
def test_corrupt_bundle_exits_with_one_error_line(bundles, tmp_path, corpus_file, capsys, monkeypatch, kind, case, readers):
    corrupt = {**_common_cases(kind), **OWN_CASES.get(kind, {})}[case]
    bundle = tmp_path / "bundle"
    shutil.copytree(bundles[kind].parent, bundle)
    ckpt = bundle / bundles[kind].name
    corrupt(ckpt, random.Random(f"{kind}/{case}"))
    monkeypatch.setattr(sys, "stdin", io.StringIO("头痛怎么办\n"))
    named = next((name for prefix, name in NAMED_FILES.items() if case.startswith(prefix)), ckpt.with_suffix(".meta.json").name)
    capsys.readouterr()
    for reader in readers:
        code = run(_reader_argv(reader, ckpt, tmp_path, corpus_file))
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("medkit:"), (reader, err)
        if case in CHECKPOINT_CASES:
            assert code in (EXIT_USAGE, EXIT_RUNTIME) and ckpt.name in err, (reader, code, err)
        else:
            assert code == EXIT_USAGE and named in err, (reader, code, err)


@pytest.mark.parametrize("text", ["", "{not json", "[1]", '{"内科": 1}'], ids=["empty", "not-json", "not-an-object", "surface-an-int"])
def test_corrupt_verbalizer_flag_exits_one_naming_the_file(tmp_path, corpus_file, capsys, text):
    verbalizer = tmp_path / "verbalizer.json"
    verbalizer.write_text(text, encoding="utf-8")
    assert run(["train-prompt", "--in", corpus_file, "--verbalizer", verbalizer, "--out", tmp_path / "out"] + TINY) == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"medkit: error: {verbalizer}")


def test_triage_and_prompt_bundles_serve_as_encoders(bundles, tmp_path, corpus_file, capsys):
    triage_state = load_checkpoint(bundles["triage"])
    encoder, _, _ = cli._load_bundle(bundles["triage"], "encoder")
    assert all((triage_state[f"encoder.{name}"] == p.data).all() for name, p in encoder.params.items())
    assert run(["train-prompt", "--in", corpus_file, "--encoder-ckpt", bundles["triage"], "--out", tmp_path / "p"] + TINY) == EXIT_OK
    gen = tmp_path / "gen.txt"
    gen.write_text("头痛多喝水\n", encoding="utf-8")
    assert run(["metrics", "--gen", gen, "--ref", gen, "--encoder", bundles["prompt"]]) == EXIT_OK


@pytest.mark.parametrize(("command", "kind"), [
    ("eval-triage", "triage"), ("eval-prompt", "prompt"), ("eval-gen", "decoder"), ("metrics", "encoder"),
])
def test_each_evaluation_reads_its_checkpoint_once(bundles, tmp_path, corpus_file, capsys, monkeypatch, command, kind):
    reads = []
    real = cli.load_checkpoint
    monkeypatch.setattr(cli, "load_checkpoint", lambda path: reads.append(path) or real(path))
    assert run(_reader_argv(command, bundles[kind], tmp_path, corpus_file)) == EXIT_OK
    assert reads == [str(bundles[kind])]


def test_load_decoder_bundle_returns_decoder_vocab_and_meta():
    decoder, vocab, meta = cli._load_decoder_bundle(FIXTURES / "decoder" / "gen.ckpt")
    assert isinstance(decoder, Decoder) and isinstance(vocab, Vocab) and isinstance(meta, dict)
    assert asdict(decoder.config) == meta["decoder_config"] and vocab.size == decoder.config.vocab_size
