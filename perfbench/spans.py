"""Outside-in span tracer: wraps medkit's public names where callers look them up.

Nothing in ``src/`` changes. ``Tracer.install`` replaces module attributes and
class methods with timing wrappers and ``uninstall`` puts the originals back.
Spans live in memory as flat records with a parent id and are written out
once, when the run ends. A span's self time is its duration minus the time
covered by its direct children; calls are strictly nested in one thread, so
the children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import defaultdict


class Span:
    __slots__ = ("sid", "parent", "name", "start", "end", "tensors", "attrs")

    def __init__(self, sid: int, parent: int | None, name: str, start: float, tensors: int):
        self.sid, self.parent, self.name = sid, parent, name
        self.start, self.end = start, start
        self.tensors = tensors  # Tensor constructions inside the span once closed
        self.attrs: dict = {}

    def to_json(self) -> dict:
        return {"id": self.sid, "parent": self.parent, "name": self.name, "start": self.start,
                "end": self.end, "tensors": self.tensors, **self.attrs}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.tensors = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------------

    def _open(self, name: str) -> Span:
        span = Span(len(self.spans), self._stack[-1].sid if self._stack else None, name, time.perf_counter(), self.tensors)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.tensors = self.tensors - span.tensors
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        span = self._open(name)
        span.attrs.update(attrs)
        try:
            yield span
        finally:
            self._close(span)

    def current(self) -> str | None:
        return self._stack[-1].name if self._stack else None

    # -- patching ---------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, note=None, skip_under: frozenset = frozenset()) -> None:
        """Time every call of `owner.attr` as span `name`; `note(span, args,
        result)` may attach attributes. Calls made from inside a span named in
        `skip_under` are passed through untimed."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if skip_under and tracer.current() in skip_under:
                return original(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if note is not None:
                note(span, args, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def count(self, owner, attr: str, counter) -> None:
        """Call `counter(args)` before each call of `owner.attr`; no span."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counter(args)
            return original(*args, **kwargs)

        setattr(owner, attr, counted)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap the layer boundaries of every medkit module."""
        from medkit import cli, corpus, encoder, generator, genmetrics, kgraph, numerics, prompt, tokenizer, triage

        def tensor_counter(_args):
            self.tensors += 1

        self.count(numerics.Tensor, "__init__", tensor_counter)
        self.wrap(numerics, "backward", "numerics.backward")
        self.wrap(numerics.Adam, "step", "numerics.adam_step")
        # cli imported the checkpoint functions by name, so patch them there.
        self.wrap(cli, "save_checkpoint", "numerics.checkpoint_write",
                  note=lambda s, a, r: s.attrs.update(bytes=os.path.getsize(a[0])))
        self.wrap(cli, "load_checkpoint", "numerics.checkpoint_read",
                  note=lambda s, a, r: s.attrs.update(bytes=os.path.getsize(a[0])))
        # generator imported tokenizer.encode by name; genmetrics imports it per call.
        self.wrap(tokenizer, "encode", "tokenizer.encode")
        self.wrap(generator, "encode", "tokenizer.encode")
        self.wrap(corpus, "ingest", "corpus.ingest",
                  note=lambda s, a, r: s.attrs.update(rows=len(r.samples) + len(r.rejects)))

        def positions(span, args, _result):
            tokens = args[1]
            span.attrs.update(positions=len(tokens.ids), real=int(sum(tokens.attention_mask)))

        self.wrap(encoder.Encoder, "encode", "encoder.forward", note=positions)
        self.wrap(encoder.Encoder, "mlm_logits", "encoder.forward", note=positions)
        self.wrap(triage.TriageHead, "forward_logits", "triage.head")
        self.wrap(triage, "bilstm", "triage.bilstm")

        def lstm_steps(args):
            self._stack[-1].attrs["lstm_steps"] = self._stack[-1].attrs.get("lstm_steps", 0) + args[0].shape[0]

        self.count(triage, "lstm_direction", lstm_steps)
        self.wrap(prompt, "build_prompt", "prompt.build")
        self.wrap(prompt, "score_labels", "prompt.score")
        self.wrap(kgraph, "retrieve", "kgraph.retrieve", note=lambda s, a, r: s.attrs.update(hit=bool(r)))

        def window(span, args, _result):
            span.attrs["positions"] = min(len(args[1]), args[0].config.context_window)

        self.wrap(generator, "lm_logits", "generator.step", note=window)
        self.wrap(generator, "lm_loss", "generator.lm_loss")
        self.wrap(genmetrics, "report", "genmetrics.report")
        self.wrap(genmetrics, "ter", "genmetrics.ter")
        self.wrap(genmetrics, "wmd_similarity", "genmetrics.wmd")
        self.wrap(genmetrics, "embed_score", "genmetrics.embed_score")
        self.wrap(genmetrics, "self_bleu", "genmetrics.self_bleu")
        for fn in ("weighted_prf", "bleu", "chrf", "gleu", "nist", "ribes", "nist_info_weights"):
            self.wrap(genmetrics, fn, "genmetrics.ngram", skip_under=frozenset({"genmetrics.self_bleu"}))

    # -- summaries --------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        totals: dict[str, float] = defaultdict(float)
        for s in self.spans:
            totals[s.name] += (s.end - s.start) - child[s.sid]
        return totals

    def under(self, root_prefix: str) -> list[Span]:
        """Spans that have an ancestor (or are themselves) named with `root_prefix`."""
        inside: set[int] = set()
        found = []
        for s in self.spans:  # parents always precede their children
            if s.name.startswith(root_prefix) or s.parent in inside:
                inside.add(s.sid)
                found.append(s)
        return found

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.to_json(), ensure_ascii=False) + "\n")


# name -> (unit, which direction is better); kept equal to BENCHMARK.json.
LAYER_UNITS = {
    "numerics.backward_s": ("s", "lower"),
    "numerics.adam_step_s": ("s", "lower"),
    "numerics.tensors_per_train_sample": ("count", "lower"),
    "numerics.tensors_per_decode_token": ("count", "lower"),
    "numerics.checkpoint_write_s": ("s", "lower"),
    "numerics.checkpoint_read_s": ("s", "lower"),
    "numerics.checkpoint_bytes": ("bytes", "lower"),
    "tokenizer.encode_s": ("s", "lower"),
    "tokenizer.encode_calls": ("count", "lower"),
    "corpus.ingest_s": ("s", "lower"),
    "corpus.ingest_rows": ("count", "lower"),
    "encoder.forward_s": ("s", "lower"),
    "encoder.forward_calls": ("count", "lower"),
    "encoder.positions": ("count", "lower"),
    "encoder.real_position_ratio": ("ratio", "higher"),
    "triage.bilstm_s": ("s", "lower"),
    "triage.head_s": ("s", "lower"),
    "triage.lstm_steps": ("count", "lower"),
    "triage.bilstm_share": ("ratio", "lower"),
    "prompt.build_s": ("s", "lower"),
    "prompt.score_s": ("s", "lower"),
    "kgraph.retrieve_s": ("s", "lower"),
    "kgraph.retrieve_calls": ("count", "lower"),
    "kgraph.hit_ratio": ("ratio", "higher"),
    "generator.step_s": ("s", "lower"),
    "generator.steps": ("count", "lower"),
    "generator.positions_per_token": ("count", "lower"),
    "generator.lm_loss_s": ("s", "lower"),
    "generator.lm_loss_calls": ("count", "lower"),
    "genmetrics.ter_s": ("s", "lower"),
    "genmetrics.ter_calls": ("count", "lower"),
    "genmetrics.ter_share": ("ratio", "lower"),
    "genmetrics.wmd_s": ("s", "lower"),
    "genmetrics.embed_score_s": ("s", "lower"),
    "genmetrics.self_bleu_s": ("s", "lower"),
    "genmetrics.ngram_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
}
TRAINING_SPANS = {"cli.pretrain-encoder", "cli.train-triage", "cli.train-prompt", "cli.pretrain-lm", "cli.train-gen"}


def layer_metrics(tracer: Tracer, train_units: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass. `_s` values are self times summed
    over the pass; `train_units` is the training sample-epochs it ran."""
    own = tracer.self_times()
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in tracer.spans:
        by_name[s.name].append(s)

    def calls(name):
        return len(by_name[name])

    def total(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name[name])

    def spent(spans):
        return sum(s.end - s.start for s in spans)

    def ratio(a, b):
        return a / b if b else 0.0

    steps = calls("generator.step")
    eval_triage = tracer.under("cli.eval-triage")
    triage_forward = spent(s for s in eval_triage if s.name in ("encoder.forward", "triage.head"))
    return {
        "numerics.backward_s": own["numerics.backward"],
        "numerics.adam_step_s": own["numerics.adam_step"],
        "numerics.tensors_per_train_sample": ratio(sum(s.tensors for s in tracer.spans if s.name in TRAINING_SPANS), train_units),
        "numerics.tensors_per_decode_token": ratio(sum(s.tensors for s in by_name["generator.step"]), steps),
        "numerics.checkpoint_write_s": own["numerics.checkpoint_write"],
        "numerics.checkpoint_read_s": own["numerics.checkpoint_read"],
        "numerics.checkpoint_bytes": total("numerics.checkpoint_write", "bytes") + total("numerics.checkpoint_read", "bytes"),
        "tokenizer.encode_s": own["tokenizer.encode"],
        "tokenizer.encode_calls": calls("tokenizer.encode"),
        "corpus.ingest_s": own["corpus.ingest"],
        "corpus.ingest_rows": total("corpus.ingest", "rows"),
        "encoder.forward_s": own["encoder.forward"],
        "encoder.forward_calls": calls("encoder.forward"),
        "encoder.positions": total("encoder.forward", "positions"),
        "encoder.real_position_ratio": ratio(total("encoder.forward", "real"), total("encoder.forward", "positions")),
        "triage.bilstm_s": own["triage.bilstm"],
        "triage.head_s": own["triage.head"],
        "triage.lstm_steps": total("triage.bilstm", "lstm_steps"),
        "triage.bilstm_share": ratio(spent(s for s in eval_triage if s.name == "triage.bilstm"), triage_forward),
        "prompt.build_s": own["prompt.build"],
        "prompt.score_s": own["prompt.score"],
        "kgraph.retrieve_s": own["kgraph.retrieve"],
        "kgraph.retrieve_calls": calls("kgraph.retrieve"),
        "kgraph.hit_ratio": ratio(total("kgraph.retrieve", "hit"), calls("kgraph.retrieve")),
        "generator.step_s": own["generator.step"],
        "generator.steps": steps,
        "generator.positions_per_token": ratio(total("generator.step", "positions"), steps),
        "generator.lm_loss_s": own["generator.lm_loss"],
        "generator.lm_loss_calls": calls("generator.lm_loss"),
        "genmetrics.ter_s": own["genmetrics.ter"],
        "genmetrics.ter_calls": calls("genmetrics.ter"),
        "genmetrics.ter_share": ratio(spent(by_name["genmetrics.ter"]), spent(by_name["genmetrics.report"])),
        "genmetrics.wmd_s": own["genmetrics.wmd"],
        "genmetrics.embed_score_s": own["genmetrics.embed_score"],
        "genmetrics.self_bleu_s": own["genmetrics.self_bleu"],
        "genmetrics.ngram_s": own["genmetrics.ngram"],
        "cli.self_s": sum(t for name, t in own.items() if name.startswith("cli.")),
        "trace.spans": len(tracer.spans),
    }
