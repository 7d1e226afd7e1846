"""Prompt-based triage: classification as masked-token prediction.

A template wraps the question with a cloze sentence containing mask slots; a
verbalizer maps each label to a token sequence right-padded to the slot count.
Scoring sums the per-slot log-likelihoods of a label's (padded) tokens under
one shared forward pass, so pad slots participate in every label's score.
Prompts are never padded: training, scoring and prediction take only
batches, a list of prompts run as one TokenBatch.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .encoder import Encoder
from .tokenizer import CLS_ID, MASK_ID, PAD_ID, SEP_ID, TokenBatch, TokenSequence, Vocab, _normalize

SLOT_MARKER = "{}"


class PromptError(ValueError):
    pass


@dataclass
class PromptTemplate:
    """Cloze wrapper around the question text.

    The suffix may contain one "{}" marking where the mask slots go; with no
    marker the slots are appended after the suffix, right before [SEP].
    """

    prefix: str = ""
    suffix: str = ""
    mask_slot_count: int = 1

    def __post_init__(self):
        if self.mask_slot_count < 1:
            raise PromptError("mask_slot_count must be >= 1")
        if self.suffix.count(SLOT_MARKER) > 1:
            raise PromptError("at most one slot marker allowed in the suffix")

    def parts(self) -> tuple[str, str, str]:
        if SLOT_MARKER in self.suffix:
            before, after = self.suffix.split(SLOT_MARKER, 1)
        else:
            before, after = self.suffix, ""
        return self.prefix, before, after


@dataclass
class Verbalizer:
    """label -> token-id sequence, right-padded with [PAD] to the slot count."""

    label_tokens: dict[str, list[int]]
    mask_slot_count: int

    @classmethod
    def from_surfaces(cls, surfaces: dict[str, str], vocab: Vocab) -> "Verbalizer":
        if not surfaces:
            raise PromptError("verbalizer needs at least one label")
        raw = {label: [vocab.id_of(ch) for ch in _normalize(text)] for label, text in surfaces.items()}
        width = max(len(ids) for ids in raw.values())
        padded = {label: ids + [PAD_ID] * (width - len(ids)) for label, ids in raw.items()}
        seen = {}
        for label, ids in padded.items():
            key = tuple(ids)
            if key in seen:
                raise PromptError(f"labels {seen[key]!r} and {label!r} verbalize identically")
            seen[key] = label
        return cls(label_tokens=padded, mask_slot_count=width)

    @property
    def labels(self) -> list[str]:
        return sorted(self.label_tokens)


def build_prompt(question: str, template: PromptTemplate, vocab: Vocab, max_len: int) -> tuple[TokenSequence, list[int]]:
    """Render [CLS] prefix question suffix-with-slots [SEP], at most max_len.

    The question is truncated first when the total is over length; if the
    template alone does not fit, that is a configuration error. Returns the
    sequence and the slot positions.
    """
    if not question:
        raise PromptError("question must be non-empty")
    prefix, before, after = template.parts()
    fixed = len(prefix) + len(before) + template.mask_slot_count + len(after)
    room = max_len - 2 - fixed
    if room < 0:
        raise PromptError(f"template needs {fixed + 2} positions but max_len is {max_len}")
    chars = list(_normalize(question))[:room]
    ids = [CLS_ID]
    ids += [vocab.id_of(ch) for ch in prefix]
    ids += [vocab.id_of(ch) for ch in chars]
    ids += [vocab.id_of(ch) for ch in before]
    slot_start = len(ids)
    ids += [MASK_ID] * template.mask_slot_count
    slots = list(range(slot_start, len(ids)))
    ids += [vocab.id_of(ch) for ch in after]
    ids.append(SEP_ID)
    return TokenSequence(ids), slots


def _slot_rows(prompts: TokenBatch, slots) -> np.ndarray:
    """Encoder output rows of the slots: each prompt's slot positions offset
    to its first row."""
    return (prompts.starts[:, None] + np.asarray(slots)).ravel()


def score_labels(
    encoder: Encoder,
    prompts: TokenBatch,
    slots,
    verbalizer: Verbalizer,
    include_pad_slots: bool = True,
) -> list[dict[str, float]]:
    """Log-likelihood of each label's token sequence at the mask slots.

    One no-grad forward pass is shared by all labels and all prompts, with
    one slot list per prompt. Returns one label -> score dict per prompt.
    With include_pad_slots=False the [PAD] filler positions of short labels
    are left out of their sums (exposed for ablation; the default scores
    every slot).
    """
    with nm.no_grad():
        logits = encoder.mlm_logits(prompts, _slot_rows(prompts, slots)).data
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logprobs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logprobs = logprobs.reshape(-1, np.shape(slots)[-1], logprobs.shape[-1])
    return [
        {label: sum(float(rows[i, tok]) for i, tok in enumerate(token_ids) if include_pad_slots or tok != PAD_ID) for label, token_ids in verbalizer.label_tokens.items()}
        for rows in logprobs
    ]


def predict(
    encoder: Encoder,
    questions: list[str],
    template: PromptTemplate,
    verbalizer: Verbalizer,
    vocab: Vocab,
    max_len: int,
    include_pad_slots: bool = True,
) -> list[str]:
    """The highest-scoring label of each question, all scored as one batch;
    ties break toward the lexicographically smallest label."""
    if isinstance(questions, str):
        raise PromptError("predict takes a list of questions, not one string")
    built = [build_prompt(question, template, vocab, max_len) for question in questions]
    scores = score_labels(encoder, TokenBatch.stack([seq for seq, _ in built]), [slots for _, slots in built], verbalizer, include_pad_slots)
    return [min(row, key=lambda label: (-row[label], label)) for row in scores]


def slot_loss(encoder: Encoder, batch, _rng=None) -> tuple[nm.Tensor, int, int]:
    """numerics.fit's (loss, weight, correct) for a list of (prompt, slots,
    target_ids): the per-prompt cross-entropy summed over the slots (pad
    fillers included, matching the scoring rule), averaged and logged per
    prompt; a prompt is right when every slot is."""
    prompts = TokenBatch.stack([seq for seq, _, _ in batch])
    targets = np.array([target_ids for _, _, target_ids in batch])
    logits = encoder.mlm_logits(prompts, _slot_rows(prompts, [slots for _, slots, _ in batch]))
    correct = int(np.sum(np.all(np.argmax(logits.data, axis=1).reshape(targets.shape) == targets, axis=1)))
    return nm.softmax_cross_entropy(logits, targets, reduction=np.full(targets.size, 1.0 / len(batch))), len(batch), correct


def train_prompt(
    encoder: Encoder,
    dataset,
    template: PromptTemplate,
    verbalizer: Verbalizer,
    vocab: Vocab,
    max_len: int,
    config: nm.TrainConfig,
) -> nm.TrainHistory:
    """Cross-entropy on the label tokens at the mask slots, nothing else,
    through numerics.fit; the logged loss is the per-sample mean, and
    divergence rolls back to the last completed epoch.

    `dataset` is a list of (question, label).
    """
    for _, label in dataset:
        if label not in verbalizer.label_tokens:
            raise ValueError(f"label {label!r} missing from the verbalizer")
    encoded = [(*build_prompt(question, template, vocab, max_len), verbalizer.label_tokens[label]) for question, label in dataset]
    return nm.fit(functools.partial(slot_loss, encoder), encoded, [{"name": "encoder", "lr": config.lr, "params": encoder.params}], config, "prompt.train")
