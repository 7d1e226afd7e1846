"""Single command-line entry point for the whole pipeline.

Subcommands: stats, clean, split, small-sample, pretrain-encoder,
train-triage, eval-triage, train-prompt, eval-prompt, pretrain-lm, train-gen,
eval-gen, metrics, chat.

Configuration comes from defaults, overridden by a plain-text ``key = value``
file (--config), overridden by flags (including repeated ``--set key=value``).
Every run writes its resolved configuration next to its outputs, and nothing
is written outside the --out directory. Exit codes: 0 success, 1 validation
error, 2 runtime failure.

Internals: `_COMMANDS` is the one table of subcommands and their flags. A flag
whose dest names a `RunConfig` field sets that field after --config and
--set, and only when it is given. Every command opens with `_start` and every
trainer closes with `_finish`.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import logging
import math
import os
import sys
import typing
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from . import corpus as corpus_mod
from . import encoder as enc_mod
from . import generator as gen_mod
from . import genmetrics
from . import kgraph as kg_mod
from . import prompt as prompt_mod
from . import triage as triage_mod
from . import tokenizer as tok_mod
from .numerics import NumericsError, TrainConfig, load_checkpoint, load_params, save_checkpoint, spawn

log = logging.getLogger("medkit")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class CliError(Exception):
    """Validation problem; maps to exit code 1."""


@dataclass
class RunConfig:
    """Every tunable in one flat namespace (defaults follow the reference
    training regimes where those are known; sizes are desk-scale)."""

    seed: int = 0
    min_freq: int = 1
    max_len: int = 64
    batch_size: int = 8
    # encoder
    enc_hidden: int = 64
    enc_layers: int = 2
    enc_heads: int = 2
    enc_ffn: int = 0  # 0 means 4 * enc_hidden
    mask_rate: float = 0.15
    mlm_epochs: int = 10
    mlm_lr: float = 5e-5
    # supervised triage
    lstm_layers: int = 2
    dd_layers: int = 3
    triage_epochs: int = 50
    lr_encoder: float = 5e-5
    lr_head: float = 2e-4
    granularity: str = "coarse"
    # prompt learning
    prompt_epochs: int = 20
    prompt_lr: float = 2e-5
    prompt_prefix: str = ""
    prompt_suffix: str = "这属于{}科"
    include_pad_slots: bool = True
    # generator
    dec_hidden: int = 64
    dec_layers: int = 2
    dec_heads: int = 2
    dec_ffn: int = 0
    context_window: int = 128
    max_gen_len: int = 64
    lm_pretrain_epochs: int = 10
    lm_finetune_epochs: int = 20
    lm_lr: float = 2.6e-5
    decode: str = "greedy"
    top_k: int = 5
    temperature: float = 1.0
    supplement_max_chars: int = 64
    # corpus
    test_fraction: float = 0.15
    # ablations
    no_dd: bool = False
    no_bilstm: bool = False
    no_cls_fusion: bool = False
    no_knowledge: bool = False
    no_input_supplement: bool = False

    def validate(self) -> None:
        if not 0.0 < self.test_fraction < 1.0:
            raise CliError("test_fraction must be in (0, 1)")
        if not 0.0 < self.mask_rate < 1.0:
            raise CliError("mask_rate must be in (0, 1)")
        if self.decode not in ("greedy", "top_k", "temperature"):
            raise CliError(f"unknown decode strategy {self.decode!r}")
        if self.granularity not in ("coarse", "fine", "auto"):
            raise CliError(f"unknown granularity {self.granularity!r}")
        if not 0.0 < self.temperature < float("inf") or self.top_k < 1:
            raise CliError("temperature must be finite and > 0, and top_k >= 1")
        floors = dict.fromkeys(("max_len", "enc_hidden", "enc_layers", "enc_heads", "dec_hidden", "dec_layers", "dec_heads", "batch_size", "context_window", "max_gen_len"), 1)
        floors.update(dict.fromkeys(("seed", "enc_ffn", "dec_ffn", "supplement_max_chars", "mlm_epochs", "triage_epochs", "prompt_epochs", "lm_pretrain_epochs", "lm_finetune_epochs"), 0))
        for name, floor in floors.items():
            if getattr(self, name) < floor:
                raise CliError(f"{name} must be >= {floor}")
        for name in ("mlm_lr", "lr_encoder", "lr_head", "prompt_lr", "lm_lr"):
            if not 0.0 <= getattr(self, name) < float("inf"):
                raise CliError(f"{name} must be finite and >= 0")

    def set_key(self, key: str, raw: str) -> None:
        field_map = {f.name: f for f in fields(self)}
        if key not in field_map:
            raise CliError(f"unknown config key {key!r}")
        kind = field_map[key].type
        current = getattr(self, key)
        try:
            if isinstance(current, bool):
                if raw.lower() not in ("true", "false", "1", "0", "yes", "no"):
                    raise ValueError(raw)
                value = raw.lower() in ("true", "1", "yes")
            elif isinstance(current, int):
                value = int(raw)
            elif isinstance(current, float):
                value = float(raw)
            else:
                value = raw
        except ValueError:
            raise CliError(f"cannot parse {raw!r} for config key {key!r} ({kind})") from None
        setattr(self, key, value)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        cfg = cls()
        for lineno, line in enumerate(corpus_mod.read_lines(path), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise CliError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in stripped.split("=", 1))
            cfg.set_key(key, raw)
        return cfg

    def resolved_text(self) -> str:
        lines = [f"{f.name} = {getattr(self, f.name)}" for f in fields(self)]
        return "\n".join(sorted(lines)) + "\n"


def _write_json(path: Path | None, obj) -> str:
    """`obj` as indented JSON, keys sorted, written to `path` unless it is None;
    returns that text. NaN or infinity raises ValueError and writes nothing."""
    text = json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if path:
        path.write_text(text, encoding="utf-8")
    return text


def _start(args) -> tuple[RunConfig, Path | None]:
    """The run's config, from the defaults, then --config, then each --set,
    then each config flag given, and its --out directory (None without --out),
    created, holding that config."""
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    for item in args.set or []:
        if "=" not in item:
            raise CliError(f"--set expects key=value, got {item!r}")
        key, raw = (part.strip() for part in item.split("=", 1))
        cfg.set_key(key, raw)
    for key in {f.name for f in fields(cfg)} & vars(args).keys():  # a config flag is in args only when given
        setattr(cfg, key, getattr(args, key))
    cfg.validate()
    if args.out is None:
        return cfg, None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.resolved").write_text(cfg.resolved_text(), encoding="utf-8")
    return cfg, out


def _finish(out: Path, log_name: str, history, what: str, bundle: tuple, summary: str, **extra) -> int:
    """A trainer's epilogue: write its log, run.jsonl and bundle (name, kind,
    parts, vocab), then raise naming the rollback if training diverged, else print `summary`."""
    history.write_csv(out / log_name)
    corpus_mod.write_jsonl(out / "run.jsonl", history.records)
    _save_bundle(out, *bundle, **extra)
    if history.aborted:
        raise NumericsError(f"{what} diverged at epoch {history.aborted['epoch']} ({history.aborted['error']}); last good checkpoint saved")
    print(summary)
    return EXIT_OK


def _skip_rejects(path, rejects, out: Path | None, name: str) -> None:
    """An input file's malformed lines: one stderr warning naming the file, and under --out the list in `name`."""
    if rejects:
        sys.stderr.write(f"medkit: warning: {path}: {len(rejects)} malformed lines skipped (first: line {rejects[0].line})\n")
    if rejects and out:
        corpus_mod.write_jsonl(out / name, map(asdict, rejects))


def _ingest(args, out: Path | None) -> corpus_mod.IngestResult:
    """The --in corpus; its malformed lines go through _skip_rejects into rejects.jsonl."""
    result = corpus_mod.ingest(args.inp)
    _skip_rejects(args.inp, result.rejects, out, "rejects.jsonl")
    return result


def _read_texts(args, out: Path) -> list[str]:
    """Plain text (one per line) or corpus JSONL (questions plus answers)."""
    if Path(args.inp).suffix == ".jsonl":
        return [text for s in _ingest(args, out).samples for text in ([s.question, s.answer] if s.answer else [s.question])]
    return [line for line in corpus_mod.read_lines(args.inp) if line.strip()]


def _labeled_pairs(samples, granularity: str):
    samples, labels, _ = corpus_mod.class_counts(samples, granularity)
    return [(s.question, label) for s, label in zip(samples, labels) if label is not None]


def _graph(args, cfg: RunConfig, out: Path | None):
    """The --graph graph (None without it or under no_input_supplement); its malformed lines go through _skip_rejects into graph_rejects.jsonl."""
    if not args.graph or cfg.no_input_supplement:
        return None
    graph, rejects = kg_mod.load_triples(args.graph)
    _skip_rejects(args.graph, rejects, out, "graph_rejects.jsonl")
    return graph


# -- model bundles ---------------------------------------------------------------
#
# A bundle is `<name>.ckpt`, `<name>.meta.json` and `vocab.txt` in one directory.
# The meta holds the `kind` and one config section per model part; a triage
# bundle holds two parts, so it prefixes each tensor name with its part's name.

_BUNDLE_PARTS = {  # part: (meta section, config class, model class)
    "encoder": ("encoder_config", enc_mod.EncoderConfig, enc_mod.Encoder),
    "decoder": ("decoder_config", gen_mod.DecoderConfig, gen_mod.Decoder),
    "head": ("head_config", triage_mod.TriageConfig, triage_mod.TriageHead),
}
# Top-level meta keys that commands read, with their types.
_META_TYPES = {"include_pad_slots": bool, "supplement_max_chars": int, "checkpoint_sha256": str, "vocab_sha256": str}


def _tensor_prefix(kind, part: str) -> str:
    return f"{part}." if kind == "triage" else ""


def _save_bundle(out: Path, name: str, kind: str, parts: dict, vocab: tok_mod.Vocab, **extra) -> None:
    """Write the bundle of the models in `parts` (part name: model)."""
    params = {_tensor_prefix(kind, part) + k: v for part, model in parts.items() for k, v in model.params.items()}
    sections = {_BUNDLE_PARTS[part][0]: asdict(model.config) for part, model in parts.items()}
    vocab.save(out / "vocab.txt")
    digests = {"checkpoint_sha256": save_checkpoint(out / f"{name}.ckpt", params), "vocab_sha256": hashlib.sha256((out / "vocab.txt").read_bytes()).hexdigest()}
    _write_json(out / f"{name}.meta.json", {"kind": kind, **sections, **digests, **extra})  # the meta last: it vouches for the rest


def _read_json(path) -> dict:
    """The JSON object in `path`; anything else is a CliError naming the file."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError, too deeply nested
        raise CliError(f"{path}: {exc}") from None
    if not isinstance(obj, dict):
        raise CliError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return obj


def _is_a(value, hint) -> bool:
    """Whether `value` has the annotated type: an int passes for a float, a
    bool never passes for an int."""
    return any(type(value) is t or (t is float and type(value) is int) for t in typing.get_args(hint) or (hint,))


def _config(cls, meta: dict, section: str, path):
    """`cls` built from `meta[section]`, which must give every field of `cls`,
    and nothing else, a value of the field's annotated type."""
    if section not in meta:
        raise CliError(f"{path} has no {section!r} section (a {meta.get('kind', 'unknown')!r} bundle)")
    body = meta[section]
    if not isinstance(body, dict):
        raise CliError(f"{path}: section {section!r} is not a JSON object")
    hints = typing.get_type_hints(cls)
    if set(body) != set(hints):
        raise CliError(f"{path}: section {section!r} has keys {sorted(body)}, expected {sorted(hints)}")
    for key, hint in hints.items():
        if not _is_a(body[key], hint):
            raise CliError(f"{path}: {section}.{key} is {body[key]!r}, expected {getattr(hint, '__name__', hint)}")
    try:
        return cls(**body)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise CliError(f"{path}: section {section!r}: {exc}") from None


def _meta_path(ckpt) -> Path:
    return Path(str(ckpt).removesuffix(".ckpt") + ".meta.json")


def _load_bundle(ckpt, *parts: str):
    """(*models, vocab, meta) of the bundle around `ckpt`, one model per part.
    The meta, every config section and the vocab are checked before any model
    is built."""
    meta_path = _meta_path(ckpt)
    meta = _read_json(meta_path)
    configs = [_config(_BUNDLE_PARTS[part][1], meta, _BUNDLE_PARTS[part][0], meta_path) for part in parts]
    for key, hint in _META_TYPES.items():
        if key in meta and not _is_a(meta[key], hint):
            raise CliError(f"{meta_path}: {key} is {meta[key]!r}, expected a {hint.__name__}")
    if meta.get("supplement_max_chars", 0) < 0:
        raise CliError(f"{meta_path}: supplement_max_chars is {meta['supplement_max_chars']}, expected an int >= 0")
    vocab_path = Path(ckpt).parent / "vocab.txt"
    try:
        vocab = tok_mod.Vocab.load(vocab_path)
    except ValueError as exc:  # not UTF-8, or not a vocab
        raise CliError(f"{vocab_path}: {exc}") from None
    if vocab.size != configs[0].vocab_size:
        raise CliError(f"{vocab_path} has {vocab.size} entries but the bundle config says vocab_size {configs[0].vocab_size}")
    if "vocab_sha256" in meta and hashlib.sha256(vocab_path.read_bytes()).hexdigest() != meta["vocab_sha256"]:
        raise RuntimeError(f"{vocab_path}: vocab bytes do not match the digest its meta records")
    state = load_checkpoint(ckpt, meta.get("checkpoint_sha256"))
    models = [_BUNDLE_PARTS[part][2](config, None) for part, config in zip(parts, configs)]  # zeros, replaced below
    for part, model in zip(parts, models):
        try:
            load_params(model.params, state, _tensor_prefix(meta.get("kind"), part))
        except ValueError as exc:
            raise CliError(f"{ckpt} does not fit {meta_path}: {exc}") from None
    return (*models, vocab, meta)


def _load_decoder_bundle(ckpt_path) -> tuple[gen_mod.Decoder, tok_mod.Vocab, dict]:
    return _load_bundle(ckpt_path, "decoder")


def _base_model(cfg: RunConfig, part: str, ckpt, texts: list[str]):
    """(model, vocab): the `part` of the bundle at `ckpt` or, with no `ckpt`, a
    fresh model sized by the run config over the vocab of `texts`."""
    if ckpt:
        model, vocab, _ = _load_bundle(ckpt, part)
        return model, vocab
    vocab = tok_mod.build_vocab(texts, min_freq=cfg.min_freq)
    if part == "encoder":
        config = enc_mod.EncoderConfig(
            vocab_size=vocab.size,
            max_len=cfg.max_len,
            hidden_dim=cfg.enc_hidden,
            num_layers=cfg.enc_layers,
            num_heads=cfg.enc_heads,
            ffn_dim=cfg.enc_ffn or None,
            mask_rate=cfg.mask_rate,
        )
    else:
        config = gen_mod.DecoderConfig(
            vocab_size=vocab.size,
            hidden_dim=cfg.dec_hidden,
            num_layers=cfg.dec_layers,
            num_heads=cfg.dec_heads,
            ffn_dim=cfg.dec_ffn or None,
            context_window=cfg.context_window,
            max_gen_len=cfg.max_gen_len,
        )
    return _BUNDLE_PARTS[part][2](config, spawn(cfg.seed, f"{part}.init")), vocab


# -- subcommands ---------------------------------------------------------------


def cmd_stats(args) -> int:
    cfg, out = _start(args)
    result = corpus_mod.ingest(args.inp)
    payload = asdict(corpus_mod.stats(result.samples, granularity=cfg.granularity))
    print(_write_json(out / "stats.json" if out else None, {**payload, "rejects": len(result.rejects)}), end="")
    return EXIT_OK


def cmd_clean(args) -> int:
    cfg, out = _start(args)
    result = corpus_mod.ingest(args.inp)
    kept, removed = corpus_mod.clean(result.samples, require_answer=not args.no_require_answer)
    corpus_mod.write_jsonl(out / "kept.jsonl", (s.to_json() for s in kept))
    corpus_mod.write_jsonl(out / "removed.jsonl", ({"reason": r.reason, "sample": r.sample.to_json()} for r in removed))
    corpus_mod.write_jsonl(out / "rejects.jsonl", map(asdict, result.rejects))
    print(f"kept {len(kept)} removed {len(removed)} rejects {len(result.rejects)}")
    return EXIT_OK


def cmd_split(args) -> int:
    cfg, out = _start(args)
    train, test = corpus_mod.split(_ingest(args, out).samples, cfg.test_fraction, cfg.seed, granularity=cfg.granularity)
    corpus_mod.write_jsonl(out / "train.jsonl", (s.to_json() for s in train))
    corpus_mod.write_jsonl(out / "test.jsonl", (s.to_json() for s in test))
    print(f"train {len(train)} test {len(test)}")
    return EXIT_OK


def cmd_small_sample(args) -> int:
    cfg, out = _start(args)
    threshold = args.threshold
    if threshold is not None and not math.isfinite(threshold):
        raise CliError(f"--threshold must be a finite number, got {threshold}")
    samples = _ingest(args, out).samples
    if threshold is None:
        threshold = corpus_mod.default_small_sample_threshold(samples, cfg.granularity)
    subset, categories = corpus_mod.make_small_sample(samples, threshold, granularity=cfg.granularity)
    corpus_mod.write_jsonl(out / "subset.jsonl", (s.to_json() for s in subset))
    _write_json(out / "categories.json", {"threshold": threshold, "categories": categories})
    print(f"kept {len(subset)} samples across {len(categories)} categories")
    return EXIT_OK


def cmd_pretrain_encoder(args) -> int:
    cfg, out = _start(args)
    texts = _read_texts(args, out)
    if not texts:
        raise CliError("no training texts found")
    encoder, vocab = _base_model(cfg, "encoder", None, texts)
    sequences = [tok_mod.encode(t, vocab, cfg.max_len, mode="encoder") for t in texts]
    history = enc_mod.pretrain(encoder, sequences, TrainConfig(cfg.mlm_epochs, cfg.mlm_lr, cfg.batch_size, cfg.seed))
    bundle = ("encoder", "encoder", {"encoder": encoder}, vocab)
    return _finish(out, "pretrain.log.csv", history, "pretraining", bundle, f"pretrained encoder for {len(history.rows)} epochs")


def cmd_train_triage(args) -> int:
    cfg, out = _start(args)
    pairs = _labeled_pairs(_ingest(args, out).samples, cfg.granularity)
    label_map = {label: i for i, label in enumerate(sorted({label for _, label in pairs}))}
    encoder, vocab = _base_model(cfg, "encoder", args.encoder_ckpt, [q for q, _ in pairs])
    config = triage_mod.TriageConfig(
        hidden_dim=encoder.config.hidden_dim,
        num_classes=len(label_map),
        num_lstm_layers=cfg.lstm_layers,
        num_dd_layers=cfg.dd_layers,
        use_bilstm=not cfg.no_bilstm,
        use_cls=not cfg.no_cls_fusion,
        use_dd=not cfg.no_dd,
    )
    head = triage_mod.TriageHead(config, spawn(cfg.seed, "triage.init"))
    max_len = encoder.config.max_len  # a loaded bundle fixes the sequence length
    dataset = [(tok_mod.encode(q, vocab, max_len, mode="encoder"), label_map[label]) for q, label in pairs]
    history = triage_mod.train_supervised(encoder, head, dataset, TrainConfig(cfg.triage_epochs, cfg.lr_head, cfg.batch_size, cfg.seed), cfg.lr_encoder)
    _write_json(out / "label_map.json", label_map)
    bundle = ("triage", "triage", {"encoder": encoder, "head": head}, vocab)
    return _finish(out, "train.log.csv", history, "triage training", bundle, f"trained triage model over {len(dataset)} samples, {len(label_map)} classes")


def _report_accuracy(out: Path, preds, gold, skipped: int) -> int:
    """Write and print an evaluation's metrics.json."""
    payload = {**triage_mod.evaluate(preds, gold).to_json(), "skipped_unknown_label": skipped}
    print(_write_json(out / "metrics.json", payload), end="")
    return EXIT_OK


def cmd_eval_triage(args) -> int:
    cfg, out = _start(args)
    encoder, head, vocab, _ = _load_bundle(args.ckpt, "encoder", "head")
    label_map_path = Path(args.ckpt).parent / "label_map.json"
    label_map = _read_json(label_map_path)
    ids = list(label_map.values())
    if any(type(i) is not int for i in ids) or sorted(ids) != list(range(head.config.num_classes)):
        raise CliError(f"{label_map_path} must map labels to the distinct ints 0..{head.config.num_classes - 1}")
    pairs = _labeled_pairs(_ingest(args, out).samples, cfg.granularity)
    known = [(q, label) for q, label in pairs if label in label_map]
    sequences = [tok_mod.encode(q, vocab, encoder.config.max_len, mode="encoder") for q, _ in known]
    preds = triage_mod.predict_labels(encoder, head, sequences, cfg.batch_size)
    return _report_accuracy(out, preds, [label_map[label] for _, label in known], len(pairs) - len(known))


def _read_surfaces(path) -> dict[str, str]:
    """A verbalizer file: a JSON object mapping each label to its surface text."""
    surfaces = _read_json(path)
    if not all(isinstance(text, str) for text in surfaces.values()):
        raise CliError(f"{path}: every label's surface must be a string")
    return surfaces


def cmd_train_prompt(args) -> int:
    cfg, out = _start(args)
    pairs = _labeled_pairs(_ingest(args, out).samples, cfg.granularity)
    # with no --verbalizer, label strings verbalize themselves
    surfaces = _read_surfaces(args.verbalizer) if args.verbalizer else {label: label for _, label in pairs}
    texts = [q for q, _ in pairs] + [label for _, label in pairs] + [cfg.prompt_prefix, cfg.prompt_suffix.replace("{}", "")]
    if args.verbalizer:
        texts += list(surfaces.values())
    encoder, vocab = _base_model(cfg, "encoder", args.encoder_ckpt, texts)
    verbalizer = prompt_mod.Verbalizer.from_surfaces(surfaces, vocab)
    template = prompt_mod.PromptTemplate(prefix=cfg.prompt_prefix, suffix=cfg.prompt_suffix, mask_slot_count=verbalizer.mask_slot_count)
    max_len = encoder.config.max_len  # a loaded bundle fixes the sequence length
    history = prompt_mod.train_prompt(
        encoder, pairs, template, verbalizer, vocab, max_len, TrainConfig(cfg.prompt_epochs, cfg.prompt_lr, cfg.batch_size, cfg.seed)
    )
    _write_json(out / "verbalizer.json", surfaces)
    return _finish(
        out, "train.log.csv", history, "prompt training", ("prompt", "prompt", {"encoder": encoder}, vocab),
        f"prompt-trained on {len(pairs)} samples, {len(verbalizer.labels)} labels",
        template=asdict(template), include_pad_slots=cfg.include_pad_slots,
    )


def cmd_eval_prompt(args) -> int:
    cfg, out = _start(args)
    encoder, vocab, meta = _load_bundle(args.ckpt, "encoder")
    template = _config(prompt_mod.PromptTemplate, meta, "template", _meta_path(args.ckpt))
    verbalizer = prompt_mod.Verbalizer.from_surfaces(_read_surfaces(Path(args.ckpt).parent / "verbalizer.json"), vocab)
    pairs = _labeled_pairs(_ingest(args, out).samples, cfg.granularity)
    known = [(q, label) for q, label in pairs if label in verbalizer.label_tokens]
    preds, gold = [], []
    label_ids = {label: i for i, label in enumerate(verbalizer.labels)}
    for start in range(0, len(known), cfg.batch_size):
        chunk = known[start : start + cfg.batch_size]
        choices = prompt_mod.predict(encoder, [q for q, _ in chunk], template, verbalizer, vocab, encoder.config.max_len, meta.get("include_pad_slots", True))
        preds += [label_ids[choice] for choice in choices]
        gold += [label_ids[label] for _, label in chunk]
    return _report_accuracy(out, preds, gold, len(pairs) - len(known))


def cmd_pretrain_lm(args) -> int:
    cfg, out = _start(args)
    texts = _read_texts(args, out)
    if not texts:
        raise CliError("no training texts found")
    decoder, vocab = _base_model(cfg, "decoder", None, texts)
    history = gen_mod.pretrain_lm(decoder, texts, vocab, TrainConfig(cfg.lm_pretrain_epochs, cfg.lm_lr, cfg.batch_size, cfg.seed))
    bundle = ("lm", "decoder", {"decoder": decoder}, vocab)
    return _finish(out, "pretrain.log.csv", history, "LM pretraining", bundle, f"pretrained LM for {len(history.rows)} epochs")


def cmd_train_gen(args) -> int:
    cfg, out = _start(args)
    corpus = _ingest(args, out)
    answered = [(line, s) for line, s in zip(corpus.lines, corpus.samples) if s.answer]
    qa_pairs = [(s.question, s.answer) for _, s in answered]
    if not qa_pairs:
        raise CliError("no question/answer pairs in the input")
    graph = _graph(args, cfg, out)
    if args.lm_ckpt and cfg.no_knowledge:
        log.info("train-gen: --no-knowledge set; ignoring the pretrained LM checkpoint")
    lm_ckpt = None if cfg.no_knowledge else args.lm_ckpt
    texts = [q for q, _ in qa_pairs] + [a for _, a in qa_pairs]
    if graph is not None:
        texts += [t.render() for facts in graph.values() for t in facts]
    decoder, vocab = _base_model(cfg, "decoder", lm_ckpt, texts)
    history = gen_mod.finetune_qa(
        decoder, qa_pairs, graph, vocab, TrainConfig(cfg.lm_finetune_epochs, cfg.lm_lr, cfg.batch_size, cfg.seed), cfg.supplement_max_chars
    )
    skipped = [record for record in history.records if record["record"] == "skipped_pair"]
    for record in skipped:
        record["line"] = answered[record["pair"]][0]  # pair indexes the answered samples; line finds it in --in
    return _finish(
        out, "train.log.csv", history, "fine-tuning", ("gen", "decoder", {"decoder": decoder}, vocab),
        f"fine-tuned generator on {len(qa_pairs) - len(skipped)} pairs ({len(skipped)} skipped)",
        supplement_max_chars=cfg.supplement_max_chars,
        uses_input_supplement=graph is not None,
        knowledge_base="pretrained" if lm_ckpt else "fresh",
        skipped_pairs=len(skipped),
    )


def _answer(cfg: RunConfig, decoder, vocab, meta: dict, graph, question: str) -> dict:
    """One generated answer row, decoded as the run config says."""
    request = gen_mod.GenerationRequest(
        question=question,
        strategy=cfg.decode,
        top_k=cfg.top_k,
        temperature=cfg.temperature,
        seed=cfg.seed,
        max_gen_len=cfg.max_gen_len,
    )
    return gen_mod.generate(decoder, request, graph, vocab, meta.get("supplement_max_chars", cfg.supplement_max_chars))


def cmd_eval_gen(args) -> int:
    cfg, out = _start(args)
    decoder, vocab, meta = _load_decoder_bundle(args.ckpt)
    graph = _graph(args, cfg, out)
    rows = []
    refs = []
    for s in _ingest(args, out).samples:
        rows.append(_answer(cfg, decoder, vocab, meta, graph, s.question))
        refs.append(s.answer or "")
    corpus_mod.write_jsonl(out / "generations.jsonl", rows)
    (out / "answers.txt").write_text("".join(row["answer"] + "\n" for row in rows), encoding="utf-8")
    (out / "references.txt").write_text("".join(r + "\n" for r in refs), encoding="utf-8")
    print(f"generated {len(rows)} answers")
    return EXIT_OK


def _read_metric_lines(path) -> list[str]:
    path = Path(path)
    lines = corpus_mod.read_lines(path)
    while lines and lines[-1] == "":
        lines.pop()
    if path.suffix != ".jsonl":
        return lines
    answers = []
    for lineno, line in enumerate(lines, start=1):
        try:
            row = json.loads(line)
        except (ValueError, RecursionError) as exc:  # not JSON, an int too long to convert, too deeply nested
            raise CliError(f"{path}:{lineno}: {exc}") from None
        if not isinstance(row, dict) or not isinstance(row.get("answer"), str):
            raise CliError(f"{path}:{lineno}: expected a JSON object with a string \"answer\"")
        answers.append(row["answer"])
    return answers


def cmd_metrics(args) -> int:
    _, out = _start(args)
    gen_lines = _read_metric_lines(args.gen)
    ref_lines = _read_metric_lines(args.ref)
    encoder = vocab = None
    if args.encoder:
        encoder, vocab, _ = _load_bundle(args.encoder, "encoder")
    report = genmetrics.report(gen_lines, ref_lines, encoder=encoder, vocab=vocab)
    print(_write_json(out / "metrics.json" if out else None, report.to_json()), end="")
    return EXIT_OK


def cmd_chat(args) -> int:
    cfg, out = _start(args)
    decoder, vocab, meta = _load_decoder_bundle(args.ckpt)
    graph = _graph(args, cfg, out)
    for line in sys.stdin:
        question = line.strip()
        if not question:
            continue
        row = _answer(cfg, decoder, vocab, meta, graph, question)
        print(f"supplement: {row['supplement']}")
        print(f"answer: {row['answer']}")
    return EXIT_OK


# -- argument parsing ------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _in(help_text=None):
    return "--in", {"dest": "inp", "required": True, "help": help_text}


def _switch(flag, help_text=None):
    return flag, {"action": "store_true", "help": help_text}


_GRAPH = ("--graph", {})
_COMMON = [
    ("--config", {"help": "plain-text key = value configuration file"}),
    ("--set", {"action": "append", "metavar": "KEY=VALUE", "help": "override one config key (repeatable)"}),
    ("--seed", {"type": int, "help": "random seed (overrides config)"}),
]
_COMMANDS = [  # (command, help, whether --out is required, its own flags, function)
    ("stats", "dataset statistics", False, [_in("corpus JSONL"), ("--granularity", {"choices": ["coarse", "fine", "auto"]})], cmd_stats),
    ("clean", "apply the cleaning rules", True, [_in(), _switch("--no-require-answer", "keep samples without answers (triage mode)")], cmd_clean),
    ("split", "stratified train/test split", True, [_in(), ("--test-fraction", {"type": float})], cmd_split),
    ("small-sample", "drop high-frequency categories", True,
     [_in(), ("--threshold", {"type": float, "help": "max per-class count kept (default: 2x median)"})], cmd_small_sample),
    ("pretrain-encoder", "masked-token pretraining", True, [_in("text file (one per line) or corpus JSONL")], cmd_pretrain_encoder),
    ("train-triage", "supervised triage training", True, [
        _in(), ("--encoder-ckpt", {"help": "start from a pretrained encoder bundle"}),
        _switch("--no-dd", "ablation: remove the dendritic layers"),
        _switch("--no-bilstm", "ablation: remove the recurrent summary"),
        _switch("--no-cls-fusion", "ablation: remove the [CLS] feature"),
    ], cmd_train_triage),
    ("eval-triage", "evaluate a triage model", True, [_in(), ("--ckpt", {"required": True, "help": "triage checkpoint (.ckpt)"})], cmd_eval_triage),
    ("train-prompt", "prompt-learning triage training", True, [
        _in(), ("--encoder-ckpt", {}), ("--verbalizer", {"help": "JSON {label: surface}; default maps labels to themselves"}),
    ], cmd_train_prompt),
    ("eval-prompt", "evaluate a prompt model", True, [_in(), ("--ckpt", {"required": True})], cmd_eval_prompt),
    ("pretrain-lm", "background-knowledge LM pretraining", True, [_in()], cmd_pretrain_lm),
    ("train-gen", "fine-tune the consultation generator", True, [
        _in("QA corpus JSONL"), ("--graph", {"help": "knowledge triples JSONL"}),
        ("--lm-ckpt", {"help": "knowledge-injected LM bundle to start from"}),
        _switch("--no-knowledge", "ablation: skip the knowledge-injected base"),
        _switch("--no-input-supplement", "ablation: no retrieval supplement"),
    ], cmd_train_gen),
    ("eval-gen", "generate answers for a QA corpus", True, [_in(), ("--ckpt", {"required": True}), _GRAPH, _switch("--no-input-supplement")], cmd_eval_gen),
    ("metrics", "generation metric report", False, [
        ("--gen", {"required": True, "help": "generated text file or generations JSONL"}),
        ("--ref", {"required": True, "help": "reference text file or JSONL"}),
        ("--encoder", {"help": "encoder bundle (.ckpt) enabling embedding metrics"}),
    ], cmd_metrics),
    ("chat", "interactive consultation REPL (reads stdin)", False, [("--ckpt", {"required": True, "help": "generator checkpoint (.ckpt)"}), _GRAPH], cmd_chat),
]


@functools.cache
def build_parser() -> _Parser:
    """The `medkit` parser, built once per process: `main` parses with it on
    every call, and parsing leaves it unchanged."""
    parser = _Parser(prog="medkit", description=__doc__.partition("\nInternals:")[0], formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    config_keys = {f.name for f in fields(RunConfig)}
    for command, help_text, out_required, specs, func in _COMMANDS:
        p = sub.add_parser(command, help=help_text)
        out = {"required": True, "help": "output directory (all artifacts land here)"} if out_required else {"help": "optional output directory"}
        for flag, kwargs in specs + _COMMON + [("--out", out)]:
            action = p.add_argument(flag, **kwargs)
            if action.dest in config_keys:  # absent unless given, so it cannot mask --config or --set
                action.default = argparse.SUPPRESS
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(os.environ.get("MEDKIT_LOG", "error").lower(), logging.ERROR)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CliError, ValueError, FileNotFoundError) as exc:
        # ValueError covers contract violations raised by the library modules
        sys.stderr.write(f"medkit: error: {exc}\n")
        return EXIT_USAGE
    except (NumericsError, RuntimeError, OSError) as exc:
        sys.stderr.write(f"medkit: runtime failure: {exc}\n")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
