"""The closed-loop workloads: one caller, the next request sent only after
the previous one returns.

Each workload turns its seed into input files under a private work
directory, then serves *requests*: one CLI chain ending in a ``medkit
metrics`` call (``pipeline``) or one answer (``consult``). A request is made
of operations (``Op``), the unit that ``attempted`` and ``failed`` count.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import time
from statistics import median
from dataclasses import dataclass, field
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
DECODER_BUNDLE = HERE / "fixtures" / "decoder" / "gen.ckpt"
ENCODER_BUNDLE = HERE / "fixtures" / "encoder" / "encoder.ckpt"
REFERENCE_FILE = HERE / "reference.json"
# Tolerance for recorded reports, losses and checkpoint fingerprints: medkit
# is float64 throughout, so only summation-order noise is allowed.
REPORT_RTOL = 1e-9
# Unrecorded inputs seen once get this many untimed repeat calls per run
# (for the pipeline, one repeated chain covers all of its commands).
RECHECKS = 8


@dataclass
class Op:
    name: str
    seconds: float
    units: float  # work done: samples, answer characters or metric pairs
    ok: bool
    key: str = ""  # identifies the output for the reference/determinism check
    output: str = ""  # what the operation produced, timings left out
    extra: dict = field(default_factory=dict)


def call_cli(argv: list[str], tracer=None) -> tuple[int, str, float]:
    """Run `medkit <argv>` in-process; returns (exit code, stdout, seconds)."""
    from medkit import cli

    out = io.StringIO()
    span = tracer.span("cli." + argv[0]) if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    with span, contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue(), time.perf_counter() - start


class Checker:
    """Compares each output with the recorded one or, for inputs this commit
    did not record, with another call on the same input."""

    def __init__(self, recorded: dict, same):
        self.recorded = recorded
        self.same = same
        self.first: dict = {}
        self.counts = {"recorded": 0, "determinism": 0}

    def observe(self, key: str, value) -> bool:
        if key in self.recorded:
            self.counts["recorded"] += 1
            return self.same(value, self.recorded[key])
        if key in self.first:
            self.first[key] = (self.first[key][0], True)
            self.counts["determinism"] += 1
            return self.same(value, self.first[key][0])
        self.first[key] = (value, False)
        return True

    def pending(self) -> list[str]:
        """Unrecorded keys seen only once so far, in the order first seen."""
        return [k for k, (_, twice) in self.first.items() if not twice]

    def confirm(self, key: str, value) -> bool:
        self.first[key] = (self.first[key][0], True)
        self.counts["determinism"] += 1
        return value is not None and self.same(value, self.first[key][0])

    def note(self) -> dict:
        """Which check ran: outputs compared with recorded ones, with a repeat
        call (inputs this commit did not record), and unrecorded outputs seen
        once and not repeated."""
        mode = "recorded" if not self.counts["determinism"] else "recorded+determinism" if self.counts["recorded"] else "determinism"
        return {"check": mode, **self.counts, "unchecked": len(self.pending())}


def _load_reference(section: str) -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8")).get(section, {}) if REFERENCE_FILE.exists() else {}


class Workload:
    name = ""

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.checker: Checker | None = None

    def setup(self, tracer=None) -> None:
        """In-process set-up beyond importing medkit."""

    def warmup(self) -> None:
        self.run(self.requests()[0])

    def check(self, ops: list[Op]) -> None:
        """Compare outputs with recorded ones or across repeats, call again on
        a few unrecorded inputs seen only once, and mark failures. Needs
        `setup` when there is something to call again."""
        if self.checker is None:
            return
        for op in ops:
            if op.ok and op.key:
                op.ok = self.checker.observe(op.key, self.parse(op.output))
        bad = set()
        for key in self.checker.pending()[:RECHECKS]:
            if not self.checker.confirm(key, self.recompute(key)):
                bad.add(key)
        for op in ops:
            if op.key in bad:
                op.ok = False


class Pipeline(Workload):
    """The offline CLI chain over a synthetic labelled QA corpus, epochs cut to
    1, ending with `medkit metrics --encoder` on one batch of perturbed pairs."""

    name = "pipeline"
    EPOCHS = ["mlm_epochs", "triage_epochs", "prompt_epochs", "lm_pretrain_epochs", "lm_finetune_epochs"]
    TRAINING = {"pretrain-encoder", "train-triage", "train-prompt", "pretrain-lm", "train-gen"}

    def __init__(self, work: Path, seed: int, tiny: bool):
        super().__init__(work, seed)
        self.params = inputs.CorpusParams(train_samples=5, test_samples=5) if tiny else inputs.CorpusParams()
        self.metric_params = inputs.MetricParams()
        self.checker = Checker(_load_reference(self.name), _close)

    def describe(self) -> dict:
        rows = self.train + self.test
        q_lens = [len(r["question"]) for r in rows]
        p = self.metric_params
        return {**inputs.describe(self.params), "labels": len(inputs.LABELS), "epochs": 1,
                "question_len_seen": [min(q_lens), max(q_lens)],
                "over_max_len_64": sum(n > 62 for n in q_lens) / len(q_lens),
                "metric_pairs": {**inputs.describe(p), "alphabet": len(inputs.METRIC_ALPHABET),
                                 "shift_rate": p.block_moves / p.line_len, "edit_rate": p.substitutions / p.line_len}}

    def prepare(self) -> None:
        self.train = inputs.qa_corpus(self.seed, self.params.train_samples, self.params)
        self.test = inputs.qa_corpus(self.seed, self.params.test_samples, self.params, tag="test")
        self.background = inputs.background_texts(self.train)
        self.work.mkdir(parents=True, exist_ok=True)
        inputs.write_jsonl(self.work / "train.jsonl", self.train)
        inputs.write_jsonl(self.work / "test.jsonl", self.test)
        (self.work / "background.txt").write_text("\n".join(self.background) + "\n", encoding="utf-8")
        lm_tokens = sum(len(t) + 2 for t in self.background)  # [BOS] text [EOS]
        # [BOS] question [SEP] [SEP] answer [EOS]; the retrieved supplement is context, not counted
        qa_tokens = sum(len(r["question"]) + len(r["answer"]) + 4 for r in self.train)
        cands, refs = inputs.metric_pairs(self.seed, self.metric_params)
        (self.work / "gen.txt").write_text("\n".join(cands) + "\n", encoding="utf-8")
        (self.work / "ref.txt").write_text("\n".join(refs) + "\n", encoding="utf-8")
        # Identifies this chain's inputs in the outputs' keys.
        self.digest = hashlib.sha256(json.dumps([self.seed, self.train, self.test, self.background, cands, refs],
                                                ensure_ascii=False).encode("utf-8")).hexdigest()[:16]
        self.rechecked: dict = {}
        n, t = len(self.train), len(self.test)
        self.units = {"pretrain-encoder": 2 * n, "train-triage": n, "eval-triage": t, "train-prompt": n,
                      "eval-prompt": t, "pretrain-lm": len(self.background), "train-gen": n, "metrics": len(cands)}
        self.tokens = {"pretrain-lm": lm_tokens, "train-gen": qa_tokens}

    def warmup(self) -> None:
        # A tiny chain of its own: the first chain in a process runs up to a
        # second slower, which the measured chains should not carry.
        tiny = Pipeline(self.work / "warmup", self.seed, tiny=True)
        tiny.prepare()
        tiny.run("chain")

    def requests(self) -> list:
        return ["chain"]

    trace_requests = requests

    def _commands(self, chain: Path) -> list[list[str]]:
        from medkit.kgraph import fixture_graph_path

        w = self.work
        return [
            ["pretrain-encoder", "--in", str(w / "train.jsonl"), "--out", str(chain / "enc")],
            ["train-triage", "--in", str(w / "train.jsonl"), "--encoder-ckpt", str(chain / "enc" / "encoder.ckpt"), "--out", str(chain / "triage")],
            ["eval-triage", "--in", str(w / "test.jsonl"), "--ckpt", str(chain / "triage" / "triage.ckpt"), "--out", str(chain / "triage-eval")],
            ["train-prompt", "--in", str(w / "train.jsonl"), "--encoder-ckpt", str(chain / "enc" / "encoder.ckpt"), "--out", str(chain / "prompt")],
            ["eval-prompt", "--in", str(w / "test.jsonl"), "--ckpt", str(chain / "prompt" / "prompt.ckpt"), "--out", str(chain / "prompt-eval")],
            ["pretrain-lm", "--in", str(w / "background.txt"), "--out", str(chain / "lm")],
            ["train-gen", "--in", str(w / "train.jsonl"), "--graph", fixture_graph_path(), "--lm-ckpt", str(chain / "lm" / "lm.ckpt"), "--out", str(chain / "gen")],
            ["metrics", "--gen", str(w / "gen.txt"), "--ref", str(w / "ref.txt"), "--encoder", str(ENCODER_BUNDLE), "--out", str(chain / "metrics")],
        ]

    def _check(self, argv: list[str], stdout: str) -> tuple[bool, str]:
        """(ok, output): the metric or eval report, or, for a trainer, its
        logged losses and a fingerprint of the checkpoint it wrote."""
        out = Path(argv[argv.index("--out") + 1])
        if argv[0] == "metrics":
            report = json.loads(stdout)
            return all(v is not None and math.isfinite(v) for v in report.values()), json.dumps(report, sort_keys=True)
        if argv[0].startswith("eval-"):
            report = json.loads(stdout)
            return 0.0 <= report["accuracy"] <= 1.0 and report["skipped_unknown_label"] == 0, json.dumps(report, sort_keys=True)
        with open(next(out.glob("*.log.csv")), newline="", encoding="utf-8") as fh:
            losses = [float(row["loss"]) for row in csv.DictReader(fh)]
        ckpts = sorted(out.glob("*.ckpt"))
        # An aborted (diverged) trainer logs fewer epochs than it was asked for.
        ok = len(losses) == 1 and math.isfinite(losses[0]) and bool(ckpts)
        if argv[0] == "train-gen":
            ok = ok and json.loads((out / "gen.meta.json").read_text(encoding="utf-8"))["skipped_pairs"] == 0
        return ok, json.dumps({"loss": losses, "checkpoint": [_fingerprint(p) for p in ckpts]})

    def run(self, request, tracer=None, chain: Path | None = None) -> list[Op]:
        chain = chain or self.work / "chain"
        shutil.rmtree(chain, ignore_errors=True)
        settings = [arg for key in self.EPOCHS for arg in ("--set", f"{key}=1")]
        ops = []
        for argv in self._commands(chain):
            code, stdout, seconds = call_cli(argv + settings + ["--seed", str(self.seed)], tracer)
            ok, output = self._check(argv, stdout) if code == 0 else (False, f"exit {code}")
            ops.append(Op(argv[0], seconds, self.units[argv[0]], ok, key=f"{argv[0]}:{self.digest}", output=output,
                          extra={"tokens": self.tokens.get(argv[0], 0)}))
        return ops

    parse = staticmethod(json.loads)

    def recompute(self, key: str):
        """The output for `key` from one more chain, run untimed in its own
        directory; the chain's other outputs are kept for later keys."""
        if not self.rechecked:
            for op in self.run("chain", chain=self.work / "recheck"):
                self.rechecked[op.key] = json.loads(op.output) if op.ok else None
        return self.rechecked.get(key)

    def detail(self, ops: list[Op]) -> dict:
        def rate(names, measure=lambda op: op.units):
            picked = [op for op in ops if op.name in names]
            return sum(measure(op) for op in picked) / sum(op.seconds for op in picked)

        return {
            "mlm_samples_per_s": rate({"pretrain-encoder"}),
            "triage_train_samples_per_s": rate({"train-triage"}),
            "triage_eval_samples_per_s": rate({"eval-triage"}),
            "prompt_train_samples_per_s": rate({"train-prompt"}),
            "prompt_eval_samples_per_s": rate({"eval-prompt"}),
            "lm_train_tokens_per_s": rate({"pretrain-lm", "train-gen"}, lambda op: op.extra["tokens"]),
            "metric_pairs_per_s": rate({"metrics"}),
        }


class Consult(Workload):
    """Greedy answers from the checked-in decoder bundle with the fixture graph."""

    name = "consult"
    MAX_GEN_LEN = 64

    def __init__(self, work: Path, seed: int, tiny: bool):
        super().__init__(work, seed)
        self.params = inputs.ConsultParams(questions=2) if tiny else inputs.ConsultParams()
        self.checker = Checker(_load_reference(self.name), lambda a, b: a == b)

    def prepare(self) -> None:
        self.questions = inputs.consult_questions(self.seed, self.params)

    def describe(self) -> dict:
        from medkit import kgraph

        graph, _ = kgraph.load_triples(kgraph.fixture_graph_path())
        hits = [len(kgraph.match_entities(q, graph)) for q in self.questions]
        return {**inputs.describe(self.params), "max_gen_len": self.MAX_GEN_LEN, "context_window": 128,
                "entity_hit_rate": sum(h > 0 for h in hits) / len(hits),
                "entities_per_question": [min(hits), max(hits)]}

    def setup(self, tracer=None) -> None:
        from medkit import cli, kgraph

        span = tracer.span("setup") if tracer else contextlib.nullcontext()
        with span:
            self.decoder, self.vocab, self.meta = cli._load_decoder_bundle(DECODER_BUNDLE)
            self.graph, _ = kgraph.load_triples(kgraph.fixture_graph_path())

    def requests(self) -> list:
        return list(self.questions)

    def trace_requests(self) -> list:
        return self.questions[:12]

    def answer(self, question: str) -> str:
        from medkit import generator

        request = generator.GenerationRequest(question=question, strategy="greedy", max_gen_len=self.MAX_GEN_LEN)
        return generator.generate(self.decoder, request, self.graph, self.vocab, self.meta["supplement_max_chars"])["answer"]

    recompute = answer

    @staticmethod
    def parse(output: str) -> str:
        return output

    def run(self, question, tracer=None) -> list[Op]:
        span = tracer.span("consult.answer") if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        with span:
            text = self.answer(question)
        seconds = time.perf_counter() - start
        return [Op("answer", seconds, len(text), True, key=question, output=text)]

    def detail(self, ops: list[Op]) -> dict:
        ms = [op.seconds * 1000 for op in ops]
        value, pct = tail(ms)
        return {
            "consult_latency_p50_ms": median(ms),
            "consult_latency_tail_ms": value,
            "consult_latency_tail_percentile": pct,
            "consult_latency_samples": len(ms),
            "decode_tokens_per_s": sum(op.units for op in ops) / sum(op.seconds for op in ops),
        }


def _fingerprint(path: Path) -> list[float]:
    """Value count, sum of squares and sum of magnitudes of a checkpoint's values:
    any parameter update that training skips or gets wrong moves them."""
    from medkit import numerics

    arrays = [a for _, a in sorted(numerics.load_checkpoint(path).items())]
    return [float(sum(a.size for a in arrays)), float(sum((a * a).sum() for a in arrays)),
            float(sum(abs(a).sum() for a in arrays))]


def _close(a, b) -> bool:
    """Equal structure, numbers within REPORT_RTOL, everything else exact."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(_close, a, b))
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, (int, float)) and isinstance(b, (int, float)) and math.isclose(a, b, rel_tol=REPORT_RTOL, abs_tol=1e-12)
    return a == b


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest nearest-rank percentile with at
    least ten samples beyond it. With 20 samples or fewer that percentile
    would not lie above the median, so the maximum is reported instead."""
    s = sorted(values)
    if len(s) <= 20:
        return s[-1], 100.0
    return s[-11], 100.0 * (len(s) - 10) / len(s)


WORKLOADS = {w.name: w for w in (Pipeline, Consult)}
