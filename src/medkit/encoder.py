"""Transformer encoder with masked-language-model pretraining.

Each layer (multi-head attention, residual + LayerNorm, GELU feed-forward,
residual + LayerNorm) is one `numerics.transformer_layer` node with a
hand-written backward pass; the autoregressive generator runs the same
stack under a causal mask, and its KV-cached decoding calls the same
array-level layer forward.

The encoder runs a TokenBatch, its sequences laid end to end without
padding, as one graph: the matmuls, LayerNorm and GELU on the batch's tokens,
attention on all sequences and heads at once, each sequence attending only
within itself. A sequence gets what running it alone gives, up to summation
order; a single sequence runs as a batch of one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .numerics import Rng, Tensor
from .tokenizer import MASK_ID, NUM_RESERVED, TokenBatch, TokenSequence

log = logging.getLogger(__name__)


@dataclass
class EncoderConfig:
    vocab_size: int
    max_len: int = 64
    hidden_dim: int = 64
    num_layers: int = 2
    num_heads: int = 2
    ffn_dim: int | None = None
    mask_rate: float = 0.15
    ln_eps: float = 1e-5

    def __post_init__(self):
        if self.ffn_dim is None:
            self.ffn_dim = 4 * self.hidden_dim
        if self.hidden_dim % self.num_heads != 0:
            raise ValueError("hidden_dim must be divisible by num_heads")
        if not 0.0 < self.mask_rate < 1.0:
            raise ValueError("mask_rate must be in (0, 1)")

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.num_heads


@dataclass
class EncoderOutput:
    """A TokenBatch encoded: cls_vector (B, hidden), one token_reps row per
    token of the batch in its order, and the batch's (B,) lengths."""

    cls_vector: Tensor
    token_reps: Tensor
    lengths: np.ndarray


# -- shared transformer machinery ---------------------------------------------


def init_layer_params(rng: Rng, hidden: int, heads: int, ffn: int, prefix: str, params: dict) -> None:
    """Create one attention + feed-forward block's parameters in `params`."""
    head_dim = hidden // heads
    for h in range(heads):
        params[f"{prefix}.attn.wq{h}"] = nm.xavier_uniform(rng, hidden, head_dim)
        params[f"{prefix}.attn.wk{h}"] = nm.xavier_uniform(rng, hidden, head_dim)
        params[f"{prefix}.attn.wv{h}"] = nm.xavier_uniform(rng, hidden, head_dim)
    params[f"{prefix}.attn.wo"] = nm.xavier_uniform(rng, hidden, hidden)
    params[f"{prefix}.attn.bo"] = nm.zeros_param(hidden)
    params[f"{prefix}.ln1.gain"] = nm.ones_param(hidden)
    params[f"{prefix}.ln1.bias"] = nm.zeros_param(hidden)
    params[f"{prefix}.ffn.w1"] = nm.xavier_uniform(rng, hidden, ffn)
    params[f"{prefix}.ffn.b1"] = nm.zeros_param(ffn)
    params[f"{prefix}.ffn.w2"] = nm.xavier_uniform(rng, ffn, hidden)
    params[f"{prefix}.ffn.b2"] = nm.zeros_param(hidden)
    params[f"{prefix}.ln2.gain"] = nm.ones_param(hidden)
    params[f"{prefix}.ln2.bias"] = nm.zeros_param(hidden)


def layer_weights(params: dict, prefix: str, heads: int) -> list[Tensor]:
    """One layer's parameters in the order numerics.transformer_layer takes them."""
    tail = ("attn.wo", "attn.bo", "ln1.gain", "ln1.bias", "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2", "ln2.gain", "ln2.bias")
    return [params[f"{prefix}.attn.w{kind}{h}"] for kind in "qkv" for h in range(heads)] + [params[f"{prefix}.{name}"] for name in tail]


def run_layers(x: Tensor, params: dict, keep: np.ndarray, num_layers: int, num_heads: int, ln_eps: float = 1e-5, lengths=None) -> Tensor:
    """Run the stack, one numerics.transformer_layer node per layer; `keep`
    and `lengths` go to every layer."""
    for i in range(num_layers):
        x = nm.transformer_layer(x, layer_weights(params, f"layer{i}", num_heads), num_heads, keep, ln_eps, lengths)
    return x


# -- the encoder model ---------------------------------------------------------


class Encoder:
    """Bidirectional transformer over character sequences.

    Each sequence's first position carries the [CLS] summary vector used by
    the classifiers; the full per-token representation matrix feeds the
    recurrent head and the masked-token prediction task. The MLM output
    projection is tied to the input embedding matrix.
    """

    def __init__(self, config: EncoderConfig, rng: Rng):
        self.config = config
        params: dict[str, Tensor] = {}
        params["tok_emb"] = nm.xavier_uniform(rng, config.vocab_size, config.hidden_dim)
        params["pos_emb"] = nm.xavier_uniform(rng, config.max_len, config.hidden_dim)
        for i in range(config.num_layers):
            init_layer_params(rng, config.hidden_dim, config.num_heads, config.ffn_dim, f"layer{i}", params)
        self.params = params

    def embed(self, tokens: TokenBatch) -> Tensor:
        """Token embedding plus learned absolute position embedding."""
        positions = tokens.positions
        if positions.max() >= self.config.max_len:
            raise ValueError(f"sequence of {positions.max() + 1} exceeds max_len {self.config.max_len}")
        if np.max(tokens.ids) >= self.config.vocab_size:
            raise ValueError("token id out of vocab range")
        return nm.take_rows(self.params["tok_emb"], tokens.ids) + nm.take_rows(self.params["pos_emb"], positions)

    def _token_states(self, tokens: TokenBatch) -> Tensor:
        return run_layers(self.embed(tokens), self.params, True, self.config.num_layers, self.config.num_heads, self.config.ln_eps, lengths=tokens.lengths)

    def encode(self, tokens: TokenBatch) -> EncoderOutput:
        reps = self._token_states(tokens)
        return EncoderOutput(cls_vector=nm.take_rows(reps, tokens.starts), token_reps=reps, lengths=tokens.lengths)

    def mlm_logits(self, tokens: TokenBatch, rows=None) -> Tensor:
        """Vocabulary logits (projection tied to the embeddings) of the output
        rows `rows`, picked before the projection; default every row."""
        reps = self._token_states(tokens)
        if rows is not None:
            reps = nm.take_rows(reps, rows)
        return nm.matmul(reps, self.params["tok_emb"].T)


def mask_tokens(tokens: TokenSequence, rate: float, rng: Rng, vocab_size: int):
    """Corrupt a sequence for masked-token pretraining.

    Each non-special position is independently selected with probability
    `rate`. Of the selected positions 80% become [MASK], 10% a random content
    token and 10% stay unchanged. Returns (corrupted, positions, original_ids).
    """
    if not 0.0 < rate < 1.0:
        raise ValueError("rate must be in (0, 1)")
    ids = list(tokens.ids)
    positions: list[int] = []
    originals: list[int] = []
    for i, tok in enumerate(tokens.ids):
        if tok < NUM_RESERVED:
            continue
        if rng.random() >= rate:
            continue
        positions.append(i)
        originals.append(tok)
        roll = rng.random()
        if roll < 0.8:
            ids[i] = MASK_ID
        elif roll < 0.9:
            if vocab_size > NUM_RESERVED:
                ids[i] = int(rng.integers(NUM_RESERVED, vocab_size))
            # else: no content tokens to draw from; leave unchanged
        # else: keep the original token
    return TokenSequence(ids), positions, originals


def mlm_loss(encoder: Encoder, batch) -> Tensor | None:
    """Mean negative log-likelihood of the true tokens at masked positions.

    `batch` is a list of (corrupted, positions, original_ids) triples from
    mask_tokens; the sequences with a masked position run as one TokenBatch.
    Returns None (with a warning) if nothing is masked.
    """
    batch = [triple for triple in batch if triple[1]]
    if not batch:
        log.warning("mlm_loss: batch has no masked positions; skipping")
        return None
    tokens = TokenBatch.stack([corrupted for corrupted, _, _ in batch])
    rows = [start + p for start, (_, positions, _) in zip(tokens.starts, batch) for p in positions]
    logits = encoder.mlm_logits(tokens, rows)
    return nm.softmax_cross_entropy(logits, [t for _, _, originals in batch for t in originals], reduction="mean")


def pretrain(encoder: Encoder, sequences: list[TokenSequence], config: nm.TrainConfig) -> nm.TrainHistory:
    """Masked-token pretraining through numerics.fit: each batch is corrupted
    with the shuffling stream, scored and stepped; the logged loss is the
    mean over batches. Divergence rolls back to the last completed epoch."""

    def batch_loss(chunk, rng):
        return mlm_loss(encoder, [mask_tokens(seq, encoder.config.mask_rate, rng, encoder.config.vocab_size) for seq in chunk]), 1, 0

    return nm.fit(batch_loss, sequences, [{"name": "encoder", "lr": config.lr, "params": encoder.params}], config, "encoder.pretrain")
