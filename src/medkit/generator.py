"""Decoder-only autoregressive language model for consultation answers.

The decoder reuses the encoder's transformer blocks under a causal mask:
position i attends to positions <= i, and the distribution for the next token
is read from the last position. Long contexts are truncated to the most
recent `context_window` tokens. Training runs each batch as one causal pass
over its sequences laid end to end, each attending only within itself.

Decoding has one path, through a `KVCache`, and is gradient-free: `generate`
keeps one cache per request, so each step runs only the newest token against
the keys and values of the earlier ones, written in place into one
preallocated buffer for all layers. A step reads only the last position's
next-token distribution, so the top layer past its key/value projection, and
the output projection, run on that row alone. A step runs
`numerics.layer_forward` on plain arrays, which then holds no backward state,
and builds no Tensor, so no graph.
Once the context passes `context_window` the window slides, every learned
absolute position changes, and each step recomputes the whole window into the
same buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kgraph as kg
from . import numerics as nm
from .encoder import init_layer_params, layer_weights, run_stack
from .numerics import Tensor
from .tokenizer import EOS_ID, TokenBatch, Vocab, decode, encode


@dataclass
class DecoderConfig:
    vocab_size: int
    hidden_dim: int = 64
    num_layers: int = 2
    num_heads: int = 2
    ffn_dim: int | None = None
    context_window: int = 128
    max_gen_len: int = 64
    ln_eps: float = 1e-5

    def __post_init__(self):
        if self.ffn_dim is None:
            self.ffn_dim = 4 * self.hidden_dim
        if self.ffn_dim < 1:
            raise ValueError("ffn_dim must be >= 1")
        if self.hidden_dim % self.num_heads != 0:
            raise ValueError("hidden_dim must be divisible by num_heads")
        if self.max_gen_len < 1:
            raise ValueError("max_gen_len must be >= 1")


@dataclass
class GenerationRequest:
    question: str
    strategy: str = "greedy"  # greedy | top_k | temperature
    top_k: int = 5
    temperature: float = 1.0
    seed: int = 0
    max_gen_len: int | None = None

    def __post_init__(self):
        if self.strategy not in ("greedy", "top_k", "temperature"):
            raise ValueError(f"unknown decode strategy {self.strategy!r}")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if not 0.0 < self.temperature < float("inf"):
            raise ValueError("temperature must be finite and > 0")
        if self.max_gen_len is not None and self.max_gen_len < 1:
            raise ValueError("max_gen_len must be >= 1")


@dataclass
class KVCache:
    """Keys and values of a context prefix already run through a Decoder.

    `ids` is that prefix (windowed token ids), whose keys and values fill the
    first len(ids) positions of `kv`, one (num_layers, 2, heads,
    context_window, head_dim) buffer; `weights` holds each layer's
    numerics.layer_arrays. Both are built on first use, and a dropped cache
    runs from position 0 into the same buffer. It is valid only while the
    weights stay unchanged. Create one empty per decoded sequence and pass it
    to every `lm_logits` call for that sequence.
    """

    ids: list[int] = field(default_factory=list)
    kv: np.ndarray | None = None
    weights: list[tuple] = field(default_factory=list)


class Decoder:
    """Causal transformer LM with a separate output projection head."""

    def __init__(self, config: DecoderConfig, rng: np.random.Generator | None):
        self.config = config
        params: dict[str, Tensor] = {}
        params["tok_emb"] = nm.xavier_uniform(rng, config.vocab_size, config.hidden_dim)
        params["pos_emb"] = nm.xavier_uniform(rng, config.context_window, config.hidden_dim)
        for i in range(config.num_layers):
            init_layer_params(rng, config.hidden_dim, config.num_heads, config.ffn_dim, f"layer{i}", params)
        params["out.w"] = nm.xavier_uniform(rng, config.hidden_dim, config.vocab_size)
        params["out.b"] = nm.zeros_param(config.vocab_size)
        self.params = params


def lm_logits(model: Decoder, context_ids, cache: KVCache) -> np.ndarray:
    """Distribution over the next token given the last `context_window` ids
    of the context, as a plain array: a step builds no Tensor.

    With a `cache` whose ids are a proper prefix of the windowed ids, only
    the positions after that prefix are embedded and run. Any other cache
    (from another context, or one the sliding window has shifted) is dropped
    and the whole window recomputed. Either way the cache then covers the
    whole window. A non-finite logit raises NumericsError.
    """
    cfg = model.config
    ids = list(context_ids)[-cfg.context_window :]
    if not ids:
        raise ValueError("empty context")
    n = len(ids)
    start = len(cache.ids)
    if not (start < n and cache.ids == ids[:start]):
        start = 0
    new = ids[start:]  # a valid cached prefix was checked when it was new
    if max(new) >= cfg.vocab_size or min(new) < 0:
        raise ValueError("token id out of vocab range")
    if cache.kv is None:
        cache.kv = np.empty((cfg.num_layers, 2, cfg.num_heads, cfg.context_window, cfg.hidden_dim // cfg.num_heads))
        cache.weights = [nm.layer_arrays(layer_weights(model.params, f"layer{i}", cfg.num_heads), cfg.num_heads) for i in range(cfg.num_layers)]
    cache.ids = []  # stays invalid unless the stack below completes
    x = model.params["tok_emb"].data[new] + model.params["pos_emb"].data[start:n]
    for i, w in enumerate(cache.weights):
        x = nm.layer_forward(x, w, cfg.num_heads, True, cfg.ln_eps, kv=cache.kv[i, :, :, :n], last_only=i == cfg.num_layers - 1)[0]
    cache.ids = ids
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite logit surfaces as the check below
        last = (x @ model.params["out.w"].data + model.params["out.b"].data)[0]
    if not np.isfinite(last).all():
        raise nm.NumericsError("non-finite logits")
    e = np.exp(last - np.maximum.reduce(last))
    return e / np.add.reduce(e)


def lm_loss(model: Decoder, sequence, loss_mask, targets=None, lengths=None) -> Tensor:
    """Mean NLL over positions whose target is in the loss mask.

    `loss_mask[j]` selects target position j (j >= 1; the token at j is
    predicted from positions < j). `targets` defaults to the sequence itself;
    passing a separate array lets callers verify that masked-out targets have
    no influence. With `lengths`, sequence, loss_mask and targets hold
    sequences of those lengths end to end: they run as one forward pass and
    the loss is the mean over sequences of each one's mean NLL. Only the
    selected rows reach the output projection.
    """
    ids = np.asarray(sequence, dtype=np.int64)
    mask = np.asarray(loss_mask, dtype=bool)
    lengths = np.array([len(ids)] if lengths is None else lengths)
    if lengths.min() < 2:
        raise ValueError("lm_loss needs a sequence of at least two tokens")
    if lengths.max() > model.config.context_window:
        raise ValueError("sequence exceeds the context window")
    if mask.shape != ids.shape:
        raise ValueError("loss_mask must align with the sequence")
    owner = np.repeat(np.arange(len(lengths)), lengths)  # the sequence each position belongs to
    picked = mask.copy()
    picked[np.cumsum(lengths) - lengths] = False  # a first position has no target
    counts = np.bincount(owner[picked], minlength=len(lengths))
    if not counts.all():
        raise ValueError("loss mask selects no positions")
    rows = np.flatnonzero(picked)
    states = nm.take_rows(run_stack(model, TokenBatch(ids, lengths), True), rows - 1)
    logits = nm.matmul(states, model.params["out.w"]) + model.params["out.b"]
    tgt = ids if targets is None else np.asarray(targets, dtype=np.int64)
    return nm.softmax_cross_entropy(logits, tgt[rows], reduction=1.0 / (counts[owner[rows]] * len(lengths)))


def _fit(model: Decoder, items, config: nm.TrainConfig, tag: str) -> nm.TrainHistory:
    """numerics.fit over (sequence, loss_mask) pairs, each batch one lm_loss
    call on its sequences laid end to end; the logged loss is the mean over
    batches."""

    def batch_loss(chunk, _rng):
        joined = [np.concatenate([np.asarray(part) for part in parts]) for parts in zip(*chunk)]
        return lm_loss(model, *joined, lengths=[len(seq) for seq, _ in chunk]), 1, None

    return nm.fit(batch_loss, items, [{"name": "decoder", "lr": config.lr, "params": model.params}], config, tag)


def pretrain_lm(model: Decoder, background_texts, vocab: Vocab, config: nm.TrainConfig) -> nm.TrainHistory:
    """Next-token training over full sequences (every position in the loss).

    Texts longer than the context window are chunked into consecutive windows
    so nothing is silently discarded.
    """
    window = model.config.context_window
    items = []
    for text in background_texts:
        ids = encode(text, vocab, max_len=max(window, 3), mode="decoder")
        for start in range(0, len(ids), window):
            chunk = ids[start : start + window]
            if len(chunk) >= 2:
                items.append((chunk, [True] * len(chunk)))
    return _fit(model, items, config, "generator.pretrain")


def _compose_prompt(question: str, graph: kg.KnowledgeGraph | None, vocab: Vocab, budget: int, supplement_max_chars: int):
    """The prompt ids, at most `budget` of them (kgraph.supplement of the
    question text), and the retrieved supplement text."""
    supplement_text = kg.retrieve(question, graph, supplement_max_chars) if graph is not None else ""
    return kg.supplement(question, supplement_text, vocab, budget), supplement_text


def build_qa_sequence(question: str, answer: str, graph: kg.KnowledgeGraph | None, vocab: Vocab, window: int, supplement_max_chars: int = 64):
    """Compose the training/inference sequence for one QA pair.

    Layout: [BOS] question [SEP] supplement [SEP] answer [EOS], with the loss
    mask covering the answer tokens and the closing [EOS] only.
    """
    answer_ids = vocab.ids(answer)
    prompt, _ = _compose_prompt(question, graph, vocab, max(3, window - 1 - len(answer_ids)), supplement_max_chars)  # room for answer + EOS
    ids = prompt + answer_ids + [EOS_ID]
    return ids, [False] * len(prompt) + [True] * (len(ids) - len(prompt))


def finetune_qa(model: Decoder, qa_pairs, graph: kg.KnowledgeGraph | None, vocab: Vocab, config: nm.TrainConfig, supplement_max_chars: int = 64) -> nm.TrainHistory:
    """Fine-tune on supplemented QA pairs with answer-only loss masking.

    A pair whose composed sequence cannot fit the context window even after
    the supplement/question truncation rules is skipped, and named right
    after the history's header by a {"record": "skipped_pair", pair (its
    index in `qa_pairs`), tokens (its composed length)} record.
    """
    window = model.config.context_window
    items, skipped = [], []
    for pair, (question, answer) in enumerate(qa_pairs):
        ids, mask = build_qa_sequence(question, answer, graph, vocab, window, supplement_max_chars)
        if len(ids) > window or not any(mask):
            skipped.append({"record": "skipped_pair", "pair": pair, "tokens": len(ids)})
        else:
            items.append((ids, mask))
    if not items:
        raise ValueError("no QA pair fits the context window")
    history = _fit(model, items, config, "generator.finetune")
    history.records[1:1] = skipped
    return history


def _sample_from(probs: np.ndarray, request: GenerationRequest, rng: np.random.Generator | None) -> int:
    if request.strategy == "greedy":
        return int(probs.argmax())
    if request.strategy == "top_k":
        k = min(request.top_k, probs.shape[0])
        order = np.lexsort((np.arange(probs.shape[0]), -probs))  # prob desc, id asc
        keep = order[:k]
        weights = probs[keep]
    else:  # temperature
        logp = np.log(np.maximum(probs, 1e-300)) / request.temperature
        logp -= logp.max()
        weights = np.exp(logp)
        keep = np.arange(probs.shape[0])
    pick = int(np.searchsorted(np.cumsum(weights / weights.sum()), rng.random(), side="right"))
    return int(keep[min(pick, len(keep) - 1)])


def generate(model: Decoder, request: GenerationRequest, graph: kg.KnowledgeGraph | None, vocab: Vocab, supplement_max_chars: int = 64) -> dict:
    """Decode an answer for the request's question.

    Greedy decoding is a pure function of (weights, context); sampling
    strategies are deterministic given the request seed. Returns a dict with
    the question, the retrieved supplement and the generated answer. Runs
    with one KVCache for the request, so it builds no graph.
    """
    ids, supplement_text = _compose_prompt(request.question, graph, vocab, model.config.context_window, supplement_max_chars)
    rng = None if request.strategy == "greedy" else nm.spawn(request.seed, "generator.sample")
    generated: list[int] = []
    limit = request.max_gen_len if request.max_gen_len is not None else model.config.max_gen_len
    cache = KVCache()
    for _ in range(limit):
        probs = lm_logits(model, ids, cache)
        nxt = _sample_from(probs, request, rng)
        if nxt == EOS_ID:
            break
        generated.append(nxt)
        ids.append(nxt)
    return {
        "question": request.question,
        "supplement": supplement_text,
        "answer": decode(generated, vocab),
    }
