"""Decoder-only autoregressive language model for consultation answers.

The decoder reuses the encoder's transformer blocks under a causal mask:
position i attends to positions <= i, and the distribution for the next token
is read from the last position. Long contexts are truncated to the most
recent `context_window` tokens. Training runs each batch as one causal pass
over its sequences laid end to end, each attending only within itself.

Decoding is KV-cached and gradient-free: `generate` keeps one `KVCache` per
request, so each step embeds and runs only the newest token against the
cached keys and values of the earlier ones. The cache holds, per layer, the
layer's weight arrays, one (heads, positions, head_dim) numpy array of keys
and one of values, and each step appends the new position to both. A call
given a cache runs `numerics.layer_forward`, the array-level forward that
training runs inside `numerics.transformer_layer`, on plain arrays and wraps
only the logits in a Tensor, so no autograd graph is built. Once the context
passes `context_window` the window slides, every absolute position changes,
and each step recomputes the whole window.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import kgraph as kg
from . import numerics as nm
from .encoder import init_layer_params, layer_weights, run_layers
from .numerics import Rng, Tensor
from .tokenizer import EOS_ID, TokenBatch, Vocab, decode, encode

log = logging.getLogger(__name__)


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
        if self.temperature <= 0:
            raise ValueError("temperature must be > 0")


@dataclass
class KVCache:
    """Keys and values of a context prefix already run through a Decoder.

    `ids` is that prefix (windowed token ids); `layers[i]` is layer i's
    dict: "w", the layer's weight arrays (numerics.layer_arrays), and "k"
    and "v", the numpy arrays of shape (heads, len(ids), head_dim) that
    numerics.layer_forward fills. A cached call runs on these plain arrays
    and builds no graph, and the cache is valid only while the weights stay
    unchanged. Create one empty per decoded sequence and pass it to every
    `lm_logits` call for that sequence.
    """

    ids: list[int] = field(default_factory=list)
    layers: list[dict] = field(default_factory=list)


class Decoder:
    """Causal transformer LM with a separate output projection head."""

    def __init__(self, config: DecoderConfig, rng: Rng):
        self.config = config
        params: dict[str, Tensor] = {}
        params["tok_emb"] = nm.xavier_uniform(rng, config.vocab_size, config.hidden_dim)
        params["pos_emb"] = nm.xavier_uniform(rng, config.context_window, config.hidden_dim)
        for i in range(config.num_layers):
            init_layer_params(rng, config.hidden_dim, config.num_heads, config.ffn_dim, f"layer{i}", params)
        params["out.w"] = nm.xavier_uniform(rng, config.hidden_dim, config.vocab_size)
        params["out.b"] = nm.zeros_param(config.vocab_size)
        self.params = params

    def hidden_states(self, ids, lengths=None) -> Tensor:
        """Top-layer states under the causal mask: of one sequence of ids or,
        with `lengths`, of sequences laid end to end in ids, each attending
        only within itself."""
        n = len(ids) if lengths is None else max(lengths)
        positions = np.arange(n) if lengths is None else TokenBatch(np.asarray(ids), np.asarray(lengths)).positions
        x = nm.take_rows(self.params["tok_emb"], ids) + nm.take_rows(self.params["pos_emb"], positions)
        keep = np.arange(n) <= np.arange(n)[:, None]
        return run_layers(x, self.params, keep, self.config.num_layers, self.config.num_heads, self.config.ln_eps, lengths)

    def logits_matrix(self, ids, cache: KVCache | None = None) -> Tensor:
        """Per-position next-token logits for a full (windowed) sequence.

        With a `cache` whose ids are a proper prefix of the windowed ids, only
        the positions after that prefix are embedded and run, and only their
        rows are returned. Any other cache (empty, from another context, or
        one the sliding window has shifted) is dropped and the whole window
        recomputed. Either way the cache then covers the whole window. A call
        with a cache runs numerics.layer_forward on arrays: its result has no
        graph.
        """
        ids = list(ids)
        if not ids:
            raise ValueError("empty context")
        if len(ids) > self.config.context_window:
            ids = ids[-self.config.context_window :]
        n = len(ids)
        if max(ids) >= self.config.vocab_size or min(ids) < 0:
            raise ValueError("token id out of vocab range")
        if cache is None:
            return nm.matmul(self.hidden_states(ids), self.params["out.w"]) + self.params["out.b"]
        cfg = self.config
        start = len(cache.ids)
        if not (0 < start < n and cache.ids == ids[:start]):
            start = 0
            cache.layers = [{"w": nm.layer_arrays(layer_weights(self.params, f"layer{i}", cfg.num_heads), cfg.num_heads)} for i in range(cfg.num_layers)]
        cache.ids = []  # stays invalid unless the stack below completes
        x = self.params["tok_emb"].data[ids[start:]] + self.params["pos_emb"].data[start:n]
        keep = np.arange(n) <= np.arange(start, n)[:, None]  # causal rows start..n-1
        for layer in cache.layers:
            x = nm.layer_forward(x, layer["w"], cfg.num_heads, keep, cfg.ln_eps, cache=layer)[0]
        logits = Tensor(x @ self.params["out.w"].data + self.params["out.b"].data)
        cache.ids = ids
        return logits


def lm_logits(model: Decoder, context_ids, cache: KVCache | None = None) -> np.ndarray:
    """Distribution over the next token given the (windowed) context.

    A `cache` carried across calls for one growing context makes each call
    run only the tokens added since the last one (see Decoder.logits_matrix).
    """
    logits = model.logits_matrix(context_ids, cache)
    last = logits.data[-1]
    shifted = last - last.max()
    e = np.exp(shifted)
    return e / e.sum()


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
    states = nm.take_rows(model.hidden_states(ids, lengths=lengths), rows - 1)
    logits = nm.matmul(states, model.params["out.w"]) + model.params["out.b"]
    tgt = ids if targets is None else np.asarray(targets, dtype=np.int64)
    return nm.softmax_cross_entropy(logits, tgt[rows], reduction=1.0 / (counts[owner[rows]] * len(lengths)))


def _fit(model: Decoder, items, config: nm.TrainConfig, tag: str) -> nm.TrainHistory:
    """numerics.fit over (sequence, loss_mask) pairs, each batch one lm_loss
    call on its sequences laid end to end; the logged loss is the mean over
    batches."""

    def batch_loss(chunk, _rng):
        joined = [np.concatenate([np.asarray(part) for part in parts]) for parts in zip(*chunk)]
        return lm_loss(model, *joined, lengths=[len(seq) for seq, _ in chunk]), 1, 0

    return nm.fit(batch_loss, items, [{"name": "decoder", "lr": config.lr, "params": model.params}], config, tag)


def pretrain_lm(model: Decoder, background_texts, vocab: Vocab, config: nm.TrainConfig) -> nm.TrainHistory:
    """Next-token training over full sequences (every position in the loss).

    Texts longer than the context window are chunked into consecutive windows
    so nothing is silently discarded.
    """
    window = model.config.context_window
    items = []
    for text in background_texts:
        seq = encode(text, vocab, max_len=max(window, 3), mode="decoder")
        ids = seq.ids
        for start in range(0, len(ids), window):
            chunk = ids[start : start + window]
            if len(chunk) >= 2:
                items.append((chunk, [True] * len(chunk)))
    return _fit(model, items, config, "generator.pretrain")


@dataclass
class QaFinetuneResult:
    history: nm.TrainHistory
    skipped: int = 0


def build_qa_sequence(question: str, answer: str, graph: kg.KnowledgeGraph | None, vocab: Vocab, window: int, supplement_max_chars: int = 64):
    """Compose the training/inference sequence for one QA pair.

    Layout: [BOS] question [SEP] supplement [SEP] answer [EOS], with the loss
    mask covering the answer tokens and the closing [EOS] only.
    """
    q_seq = encode(question, vocab, max_len=window, mode="decoder")
    supplement_text = kg.retrieve(question, graph, supplement_max_chars) if graph is not None else ""
    prompt_budget = max(3, window - 1 - len(answer))  # leave room for answer + EOS
    prompt, layout = kg.supplement(q_seq, supplement_text, vocab, prompt_budget)
    ids = list(prompt.ids) + [vocab.id_of(ch) for ch in answer] + [EOS_ID]
    mask = [False] * layout.prompt_len + [True] * (len(ids) - layout.prompt_len)
    return ids, mask, layout


def finetune_qa(model: Decoder, qa_pairs, graph: kg.KnowledgeGraph | None, vocab: Vocab, config: nm.TrainConfig, supplement_max_chars: int = 64) -> QaFinetuneResult:
    """Fine-tune on supplemented QA pairs with answer-only loss masking.

    Pairs whose composed sequence cannot fit the context window even after
    the supplement/question truncation rules are skipped and counted.
    """
    window = model.config.context_window
    items = []
    skipped = 0
    for question, answer in qa_pairs:
        ids, mask, _ = build_qa_sequence(question, answer, graph, vocab, window, supplement_max_chars)
        if len(ids) > window or not any(mask):
            skipped += 1
            continue
        items.append((ids, mask))
    if not items:
        raise ValueError("no QA pair fits the context window")
    if skipped:
        log.warning("finetune_qa: skipped %d over-length pairs", skipped)
    history = _fit(model, items, config, "generator.finetune")
    return QaFinetuneResult(history=history, skipped=skipped)


def _sample_from(probs: np.ndarray, request: GenerationRequest, rng: Rng) -> int:
    if request.strategy == "greedy":
        return int(np.argmax(probs))
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
    weights = weights / weights.sum()
    draw = rng.random()
    cum = np.cumsum(weights)
    pick = int(np.searchsorted(cum, draw, side="right"))
    pick = min(pick, len(keep) - 1)
    return int(keep[pick])


def generate(model: Decoder, request: GenerationRequest, graph: kg.KnowledgeGraph | None, vocab: Vocab, supplement_max_chars: int = 64) -> dict:
    """Decode an answer for the request's question.

    Greedy decoding is a pure function of (weights, context); sampling
    strategies are deterministic given the request seed. Returns a dict with
    the question, the retrieved supplement and the generated answer. Runs
    with one KVCache for the request, so it builds no graph.
    """
    window = model.config.context_window
    q_seq = encode(request.question, vocab, max_len=window, mode="decoder")
    supplement_text = kg.retrieve(request.question, graph, supplement_max_chars) if graph is not None else ""
    prompt, _ = kg.supplement(q_seq, supplement_text, vocab, max_len=window)
    rng = Rng(request.seed).spawn("generator.sample")
    ids = list(prompt.ids)
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
