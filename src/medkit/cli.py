"""Single command-line entry point for the whole pipeline.

Subcommands: stats, clean, split, small-sample, pretrain-encoder,
train-triage, eval-triage, train-prompt, eval-prompt, pretrain-lm, train-gen,
eval-gen, metrics, chat.

Configuration comes from defaults, overridden by a plain-text ``key = value``
file (--config), overridden by flags (including repeated ``--set key=value``).
Every run writes its resolved configuration next to its outputs, and nothing
is written outside the --out directory. Exit codes: 0 success, 1 validation
error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
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
from .numerics import NumericsError, Rng, TrainConfig, load_checkpoint, load_params, save_checkpoint

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
        for name in ("max_len", "enc_hidden", "enc_layers", "enc_heads", "dec_hidden", "dec_layers", "dec_heads", "batch_size", "context_window", "max_gen_len"):
            if getattr(self, name) < 1:
                raise CliError(f"{name} must be >= 1")
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
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
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


def _load_config(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if getattr(args, "config", None) else RunConfig()
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise CliError(f"--set expects key=value, got {item!r}")
        key, raw = (part.strip() for part in item.split("=", 1))
        cfg.set_key(key, raw)
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    for flag in ("no_dd", "no_bilstm", "no_cls_fusion", "no_knowledge", "no_input_supplement"):
        if getattr(args, flag, False):
            setattr(cfg, flag, True)
    cfg.validate()
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _snapshot_config(cfg: RunConfig, out: Path) -> None:
    (out / "config.resolved").write_text(cfg.resolved_text(), encoding="utf-8")


def _start(args) -> tuple[RunConfig, Path]:
    """The run's config and its --out directory, created, holding that config."""
    cfg = _load_config(args)
    out = _out_dir(args)
    _snapshot_config(cfg, out)
    return cfg, out


def _read_texts(path) -> list[str]:
    """Plain text (one per line) or corpus JSONL (questions plus answers)."""
    path = Path(path)
    if path.suffix == ".jsonl":
        result = corpus_mod.ingest(path)
        texts = []
        for s in result.samples:
            texts.append(s.question)
            if s.answer:
                texts.append(s.answer)
        return texts
    with open(path, "r", encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh if line.strip()]


def _labeled_pairs(samples, granularity: str):
    field_name = corpus_mod.label_field(samples, granularity) or "label_coarse"  # None: no sample has a label
    pairs = [(s.question, getattr(s, field_name)) for s in samples if getattr(s, field_name) is not None]
    if not pairs:
        raise CliError(f"no samples carry a {field_name} label")
    return pairs


def _graph(args, cfg: RunConfig):
    """The --graph knowledge graph, or None without --graph or under no_input_supplement."""
    if not args.graph or cfg.no_input_supplement:
        return None
    return kg_mod.load_triples(args.graph)[0]


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
_META_TYPES = {"include_pad_slots": bool, "supplement_max_chars": int}


def _tensor_prefix(kind, part: str) -> str:
    return f"{part}." if kind == "triage" else ""


def _save_bundle(out: Path, name: str, kind: str, parts: dict, vocab: tok_mod.Vocab, **extra) -> None:
    """Write the bundle of the models in `parts` (part name: model)."""
    params = {_tensor_prefix(kind, part) + k: v for part, model in parts.items() for k, v in model.params.items()}
    sections = {_BUNDLE_PARTS[part][0]: asdict(model.config) for part, model in parts.items()}
    save_checkpoint(out / f"{name}.ckpt", params)
    _write_json(out / f"{name}.meta.json", {"kind": kind, **sections, **extra})
    vocab.save(out / "vocab.txt")


def _read_json(path) -> dict:
    """The JSON object in `path`; anything else is a CliError naming the file."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
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
    vocab_path = Path(ckpt).parent / "vocab.txt"
    try:
        vocab = tok_mod.Vocab.load(vocab_path)
    except ValueError as exc:  # not UTF-8, or not a vocab
        raise CliError(f"{vocab_path}: {exc}") from None
    if vocab.size != configs[0].vocab_size:
        raise CliError(f"{vocab_path} has {vocab.size} entries but the bundle config says vocab_size {configs[0].vocab_size}")
    state = load_checkpoint(ckpt)
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
    return _BUNDLE_PARTS[part][2](config, Rng(cfg.seed).spawn(f"{part}.init")), vocab


# -- subcommands ---------------------------------------------------------------


def cmd_stats(args) -> int:
    cfg = _load_config(args)
    result = corpus_mod.ingest(args.inp)
    report = corpus_mod.stats(result.samples, granularity=cfg.granularity if args.granularity is None else args.granularity)
    payload = asdict(report)
    payload["rejects"] = len(result.rejects)
    text = json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2)
    if args.out:
        out = _out_dir(args)
        _snapshot_config(cfg, out)
        (out / "stats.json").write_text(text + "\n", encoding="utf-8")
    print(text)
    return EXIT_OK


def cmd_clean(args) -> int:
    cfg, out = _start(args)
    result = corpus_mod.ingest(args.inp)
    kept, removed = corpus_mod.clean(result.samples, require_answer=not args.no_require_answer)
    corpus_mod.write_jsonl(out / "kept.jsonl", kept)
    with open(out / "removed.jsonl", "w", encoding="utf-8") as fh:
        for r in removed:
            fh.write(json.dumps({"reason": r.reason, "sample": r.sample.to_json()}, ensure_ascii=False, sort_keys=True) + "\n")
    corpus_mod.write_rejects(out / "rejects.jsonl", result.rejects)
    print(f"kept {len(kept)} removed {len(removed)} rejects {len(result.rejects)}")
    return EXIT_OK


def cmd_split(args) -> int:
    cfg, out = _start(args)
    result = corpus_mod.ingest(args.inp)
    fraction = args.test_fraction if args.test_fraction is not None else cfg.test_fraction
    train, test = corpus_mod.split(result.samples, fraction, cfg.seed, granularity=cfg.granularity)
    corpus_mod.write_jsonl(out / "train.jsonl", train)
    corpus_mod.write_jsonl(out / "test.jsonl", test)
    print(f"train {len(train)} test {len(test)}")
    return EXIT_OK


def cmd_small_sample(args) -> int:
    cfg, out = _start(args)
    result = corpus_mod.ingest(args.inp)
    threshold = args.threshold
    if threshold is None:
        threshold = corpus_mod.default_small_sample_threshold(result.samples, cfg.granularity)
    subset, categories = corpus_mod.make_small_sample(result.samples, threshold, granularity=cfg.granularity)
    corpus_mod.write_jsonl(out / "subset.jsonl", subset)
    _write_json(out / "categories.json", {"threshold": threshold, "categories": categories})
    print(f"kept {len(subset)} samples across {len(categories)} categories")
    return EXIT_OK


def cmd_pretrain_encoder(args) -> int:
    cfg, out = _start(args)
    texts = _read_texts(args.inp)
    if not texts:
        raise CliError("no training texts found")
    encoder, vocab = _base_model(cfg, "encoder", None, texts)
    sequences = [tok_mod.encode(t, vocab, cfg.max_len, mode="encoder") for t in texts]
    history = enc_mod.pretrain(encoder, sequences, TrainConfig(cfg.mlm_epochs, cfg.mlm_lr, cfg.batch_size, cfg.seed))
    history.write_csv(out / "pretrain.log.csv")
    _save_bundle(out, "encoder", "encoder", {"encoder": encoder}, vocab)
    if history.aborted:
        raise NumericsError("pretraining diverged; last good checkpoint saved")
    print(f"pretrained encoder for {len(history.rows)} epochs")
    return EXIT_OK


def cmd_train_triage(args) -> int:
    cfg, out = _start(args)
    pairs = _labeled_pairs(corpus_mod.ingest(args.inp).samples, cfg.granularity)
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
    head = triage_mod.TriageHead(config, Rng(cfg.seed).spawn("triage.init"))
    max_len = encoder.config.max_len  # a loaded bundle fixes the sequence length
    dataset = [(tok_mod.encode(q, vocab, max_len, mode="encoder"), label_map[label]) for q, label in pairs]
    history = triage_mod.train_supervised(encoder, head, dataset, TrainConfig(cfg.triage_epochs, cfg.lr_head, cfg.batch_size, cfg.seed), cfg.lr_encoder)
    history.write_csv(out / "train.log.csv")
    _write_json(out / "optimizer_state.json", history.optimizer_state)
    _write_json(out / "label_map.json", label_map)
    _save_bundle(out, "triage", "triage", {"encoder": encoder, "head": head}, vocab)
    if history.aborted:
        raise NumericsError("triage training diverged; last good checkpoint saved")
    print(f"trained triage model over {len(dataset)} samples, {len(label_map)} classes")
    return EXIT_OK


def _report_accuracy(out: Path, preds, gold, skipped: int) -> int:
    """Write and print an evaluation's metrics.json."""
    payload = triage_mod.evaluate(preds, gold).to_json()
    payload["skipped_unknown_label"] = skipped
    _write_json(out / "metrics.json", payload)
    print(json.dumps(payload, ensure_ascii=False, sort_keys=True))
    return EXIT_OK


def cmd_eval_triage(args) -> int:
    cfg, out = _start(args)
    encoder, head, vocab, _ = _load_bundle(args.ckpt, "encoder", "head")
    label_map_path = Path(args.ckpt).parent / "label_map.json"
    label_map = _read_json(label_map_path)
    ids = list(label_map.values())
    if any(type(i) is not int for i in ids) or sorted(ids) != list(range(head.config.num_classes)):
        raise CliError(f"{label_map_path} must map labels to the distinct ints 0..{head.config.num_classes - 1}")
    result = corpus_mod.ingest(args.inp)
    pairs = _labeled_pairs(result.samples, cfg.granularity)
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
    result = corpus_mod.ingest(args.inp)
    pairs = _labeled_pairs(result.samples, cfg.granularity)
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
    history.write_csv(out / "train.log.csv")
    _save_bundle(out, "prompt", "prompt", {"encoder": encoder}, vocab, template=asdict(template), include_pad_slots=cfg.include_pad_slots, max_len=max_len)
    _write_json(out / "verbalizer.json", {label: "".join(vocab.token_of(t) for t in toks if t >= tok_mod.NUM_RESERVED) for label, toks in verbalizer.label_tokens.items()})
    if history.aborted:
        raise NumericsError("prompt training diverged; last good checkpoint saved")
    print(f"prompt-trained on {len(pairs)} samples, {len(verbalizer.labels)} labels")
    return EXIT_OK


def cmd_eval_prompt(args) -> int:
    cfg, out = _start(args)
    encoder, vocab, meta = _load_bundle(args.ckpt, "encoder")
    template = _config(prompt_mod.PromptTemplate, meta, "template", _meta_path(args.ckpt))
    max_len = meta.get("max_len")
    if type(max_len) is not int or max_len < 1:
        raise CliError(f"{_meta_path(args.ckpt)}: max_len is {max_len!r}, expected an int >= 1")
    verbalizer = prompt_mod.Verbalizer.from_surfaces(_read_surfaces(Path(args.ckpt).parent / "verbalizer.json"), vocab)
    result = corpus_mod.ingest(args.inp)
    pairs = _labeled_pairs(result.samples, cfg.granularity)
    known = [(q, label) for q, label in pairs if label in verbalizer.label_tokens]
    preds, gold = [], []
    label_ids = {label: i for i, label in enumerate(verbalizer.labels)}
    for start in range(0, len(known), cfg.batch_size):
        chunk = known[start : start + cfg.batch_size]
        choices = prompt_mod.predict(encoder, [q for q, _ in chunk], template, verbalizer, vocab, max_len, meta.get("include_pad_slots", True))
        preds += [label_ids[choice] for choice in choices]
        gold += [label_ids[label] for _, label in chunk]
    return _report_accuracy(out, preds, gold, len(pairs) - len(known))


def cmd_pretrain_lm(args) -> int:
    cfg, out = _start(args)
    texts = _read_texts(args.inp)
    if not texts:
        raise CliError("no training texts found")
    decoder, vocab = _base_model(cfg, "decoder", None, texts)
    history = gen_mod.pretrain_lm(decoder, texts, vocab, TrainConfig(cfg.lm_pretrain_epochs, cfg.lm_lr, cfg.batch_size, cfg.seed))
    history.write_csv(out / "pretrain.log.csv")
    _save_bundle(out, "lm", "decoder", {"decoder": decoder}, vocab)
    if history.aborted:
        raise NumericsError("LM pretraining diverged; last good checkpoint saved")
    print(f"pretrained LM for {len(history.rows)} epochs")
    return EXIT_OK


def cmd_train_gen(args) -> int:
    cfg, out = _start(args)
    result = corpus_mod.ingest(args.inp)
    qa_pairs = [(s.question, s.answer) for s in result.samples if s.answer]
    if not qa_pairs:
        raise CliError("no question/answer pairs in the input")
    graph = _graph(args, cfg)
    if args.lm_ckpt and cfg.no_knowledge:
        log.info("train-gen: --no-knowledge set; ignoring the pretrained LM checkpoint")
    lm_ckpt = None if cfg.no_knowledge else args.lm_ckpt
    texts = [q for q, _ in qa_pairs] + [a for _, a in qa_pairs]
    if graph is not None:
        texts += [t.render() for t in graph.triples]
    decoder, vocab = _base_model(cfg, "decoder", lm_ckpt, texts)
    fine = gen_mod.finetune_qa(
        decoder, qa_pairs, graph, vocab, TrainConfig(cfg.lm_finetune_epochs, cfg.lm_lr, cfg.batch_size, cfg.seed), cfg.supplement_max_chars
    )
    fine.history.write_csv(out / "train.log.csv")
    _save_bundle(
        out, "gen", "decoder", {"decoder": decoder}, vocab,
        supplement_max_chars=cfg.supplement_max_chars,
        uses_input_supplement=graph is not None,
        knowledge_base="pretrained" if lm_ckpt else "fresh",
        skipped_pairs=fine.skipped,
    )
    if fine.history.aborted:
        raise NumericsError("fine-tuning diverged; last good checkpoint saved")
    print(f"fine-tuned generator on {len(qa_pairs) - fine.skipped} pairs ({fine.skipped} skipped)")
    return EXIT_OK


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
    graph = _graph(args, cfg)
    result = corpus_mod.ingest(args.inp)
    rows = []
    refs = []
    for s in result.samples:
        rows.append(_answer(cfg, decoder, vocab, meta, graph, s.question))
        refs.append(s.answer or "")
    with open(out / "generations.jsonl", "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")
    (out / "answers.txt").write_text("".join(row["answer"] + "\n" for row in rows), encoding="utf-8")
    (out / "references.txt").write_text("".join(r + "\n" for r in refs), encoding="utf-8")
    print(f"generated {len(rows)} answers")
    return EXIT_OK


def _read_metric_lines(path) -> list[str]:
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    while lines and lines[-1] == "":
        lines.pop()
    if path.suffix != ".jsonl":
        return lines
    answers = []
    for lineno, line in enumerate(lines, start=1):
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CliError(f"{path}:{lineno}: {exc}") from None
        if not isinstance(row, dict) or not isinstance(row.get("answer"), str):
            raise CliError(f"{path}:{lineno}: expected a JSON object with a string \"answer\"")
        answers.append(row["answer"])
    return answers


def cmd_metrics(args) -> int:
    cfg = _load_config(args)
    gen_lines = _read_metric_lines(args.gen)
    ref_lines = _read_metric_lines(args.ref)
    encoder = vocab = None
    if args.encoder:
        encoder, vocab, _ = _load_bundle(args.encoder, "encoder")
    report = genmetrics.report(gen_lines, ref_lines, encoder=encoder, vocab=vocab)
    text = json.dumps(report.to_json(), ensure_ascii=False, sort_keys=True, indent=2)
    if args.out:
        out = _out_dir(args)
        _snapshot_config(cfg, out)
        (out / "metrics.json").write_text(text + "\n", encoding="utf-8")
    print(text)
    return EXIT_OK


def cmd_chat(args) -> int:
    cfg = _load_config(args)
    decoder, vocab, meta = _load_decoder_bundle(args.ckpt)
    graph = _graph(args, cfg)
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


def _add_common(p: _Parser, out_required: bool = True) -> None:
    p.add_argument("--config", help="plain-text key = value configuration file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override one config key (repeatable)")
    p.add_argument("--seed", type=int, default=None, help="random seed (overrides config)")
    if out_required:
        p.add_argument("--out", required=True, help="output directory (all artifacts land here)")
    else:
        p.add_argument("--out", default=None, help="optional output directory")


@functools.cache
def build_parser() -> _Parser:
    """The `medkit` parser, built once per process: `main` parses with it on
    every call, and parsing leaves it unchanged."""
    parser = _Parser(prog="medkit", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="dataset statistics", parents=[], add_help=True)
    p.add_argument("--in", dest="inp", required=True, help="corpus JSONL")
    p.add_argument("--granularity", choices=["coarse", "fine", "auto"], default=None)
    _add_common(p, out_required=False)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("clean", help="apply the cleaning rules")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--no-require-answer", action="store_true", help="keep samples without answers (triage mode)")
    _add_common(p)
    p.set_defaults(func=cmd_clean)

    p = sub.add_parser("split", help="stratified train/test split")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--test-fraction", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("small-sample", help="drop high-frequency categories")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--threshold", type=float, default=None, help="max per-class count kept (default: 2x median)")
    _add_common(p)
    p.set_defaults(func=cmd_small_sample)

    p = sub.add_parser("pretrain-encoder", help="masked-token pretraining")
    p.add_argument("--in", dest="inp", required=True, help="text file (one per line) or corpus JSONL")
    _add_common(p)
    p.set_defaults(func=cmd_pretrain_encoder)

    p = sub.add_parser("train-triage", help="supervised triage training")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--encoder-ckpt", default=None, help="start from a pretrained encoder bundle")
    p.add_argument("--no-dd", action="store_true", help="ablation: remove the dendritic layers")
    p.add_argument("--no-bilstm", action="store_true", help="ablation: remove the recurrent summary")
    p.add_argument("--no-cls-fusion", action="store_true", help="ablation: remove the [CLS] feature")
    _add_common(p)
    p.set_defaults(func=cmd_train_triage)

    p = sub.add_parser("eval-triage", help="evaluate a triage model")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--ckpt", required=True, help="triage checkpoint (.ckpt)")
    _add_common(p)
    p.set_defaults(func=cmd_eval_triage)

    p = sub.add_parser("train-prompt", help="prompt-learning triage training")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--encoder-ckpt", default=None)
    p.add_argument("--verbalizer", default=None, help="JSON {label: surface}; default maps labels to themselves")
    _add_common(p)
    p.set_defaults(func=cmd_train_prompt)

    p = sub.add_parser("eval-prompt", help="evaluate a prompt model")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--ckpt", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_eval_prompt)

    p = sub.add_parser("pretrain-lm", help="background-knowledge LM pretraining")
    p.add_argument("--in", dest="inp", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_pretrain_lm)

    p = sub.add_parser("train-gen", help="fine-tune the consultation generator")
    p.add_argument("--in", dest="inp", required=True, help="QA corpus JSONL")
    p.add_argument("--graph", default=None, help="knowledge triples JSONL")
    p.add_argument("--lm-ckpt", default=None, help="knowledge-injected LM bundle to start from")
    p.add_argument("--no-knowledge", action="store_true", help="ablation: skip the knowledge-injected base")
    p.add_argument("--no-input-supplement", action="store_true", help="ablation: no retrieval supplement")
    _add_common(p)
    p.set_defaults(func=cmd_train_gen)

    p = sub.add_parser("eval-gen", help="generate answers for a QA corpus")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--graph", default=None)
    p.add_argument("--no-input-supplement", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_eval_gen)

    p = sub.add_parser("metrics", help="generation metric report")
    p.add_argument("--gen", required=True, help="generated text file or generations JSONL")
    p.add_argument("--ref", required=True, help="reference text file or JSONL")
    p.add_argument("--encoder", default=None, help="encoder bundle (.ckpt) enabling embedding metrics")
    _add_common(p, out_required=False)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("chat", help="interactive consultation REPL (reads stdin)")
    p.add_argument("--ckpt", required=True, help="generator checkpoint (.ckpt)")
    p.add_argument("--graph", default=None)
    _add_common(p, out_required=False)
    p.set_defaults(func=cmd_chat)

    return parser


def _setup_logging() -> None:
    level_name = os.environ.get("MEDKIT_LOG", "error").lower()
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(level_name, logging.ERROR)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    _setup_logging()
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
