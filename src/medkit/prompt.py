"""Prompt-based triage: classification as masked-token prediction.

A template wraps the question with a cloze sentence containing mask slots; a
verbalizer maps each label to a token sequence right-padded to the slot count.
Scoring sums the per-slot log-likelihoods of a label's (padded) tokens under
one shared forward pass, so pad slots participate in every label's score.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .encoder import Encoder, TrainHistory
from .numerics import Rng
from .tokenizer import CLS_ID, MASK_ID, PAD_ID, SEP_ID, TokenSequence, Vocab, _normalize

log = logging.getLogger(__name__)

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
    """Render [CLS] prefix question suffix-with-slots [SEP], padded to max_len.

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
    chars = list(_normalize(question))[:room] if room >= 0 else []
    ids = [CLS_ID]
    ids += [vocab.id_of(ch) for ch in prefix]
    ids += [vocab.id_of(ch) for ch in chars]
    ids += [vocab.id_of(ch) for ch in before]
    slot_start = len(ids)
    ids += [MASK_ID] * template.mask_slot_count
    slots = list(range(slot_start, len(ids)))
    ids += [vocab.id_of(ch) for ch in after]
    ids.append(SEP_ID)
    mask = [True] * len(ids)
    pad = max_len - len(ids)
    ids += [PAD_ID] * pad
    mask += [False] * pad
    return TokenSequence(ids=ids, attention_mask=mask, original_length=len(chars)), slots


def score_labels(
    encoder: Encoder,
    prompt_seq: TokenSequence,
    slots: list[int],
    verbalizer: Verbalizer,
    include_pad_slots: bool = True,
) -> dict[str, float]:
    """Log-likelihood of each label's token sequence at the mask slots.

    One forward pass is shared by all labels. With include_pad_slots=False
    the [PAD] filler positions of short labels are left out of their sums
    (exposed for ablation; the default scores every slot).
    """
    with nm.no_grad():
        logprobs = nm.log_softmax(nm.take_rows(encoder.mlm_logits(prompt_seq), slots), axis=-1).data
    scores: dict[str, float] = {}
    for label, token_ids in verbalizer.label_tokens.items():
        total = 0.0
        for slot_idx, tok in enumerate(token_ids):
            if not include_pad_slots and tok == PAD_ID:
                continue
            total += float(logprobs[slot_idx, tok])
        scores[label] = total
    return scores


def predict(
    encoder: Encoder,
    question: str,
    template: PromptTemplate,
    verbalizer: Verbalizer,
    vocab: Vocab,
    max_len: int,
    include_pad_slots: bool = True,
) -> str:
    """Highest-scoring label; ties break toward the lexicographically smallest."""
    seq, slots = build_prompt(question, template, vocab, max_len)
    scores = score_labels(encoder, seq, slots, verbalizer, include_pad_slots)
    return min(scores, key=lambda label: (-scores[label], label))


@dataclass
class PromptTrainConfig:
    epochs: int = 20
    lr: float = 2e-5
    batch_size: int = 8
    seed: int = 0
    stop_at_train_acc: float | None = None


def train_prompt(
    encoder: Encoder,
    dataset,
    template: PromptTemplate,
    verbalizer: Verbalizer,
    vocab: Vocab,
    max_len: int,
    config: PromptTrainConfig,
) -> TrainHistory:
    """Cross-entropy on the label tokens at the mask slots, nothing else.

    `dataset` is a list of (question, label). The per-sample loss sums over
    the slots (pad fillers included), matching the scoring rule; divergence
    rolls back to the last completed epoch.
    """
    if not dataset:
        raise ValueError("empty training set")
    for _, label in dataset:
        if label not in verbalizer.label_tokens:
            raise ValueError(f"label {label!r} missing from the verbalizer")
    encoded = []
    for question, label in dataset:
        seq, slots = build_prompt(question, template, vocab, max_len)
        encoded.append((seq, slots, verbalizer.label_tokens[label], label))
    rng = Rng(config.seed).spawn("prompt.train")
    opt = nm.Adam([{"name": "encoder", "lr": config.lr, "params": encoder.params}])
    history = TrainHistory()
    last_good = {k: v.data.copy() for k, v in encoder.params.items()}
    for epoch in range(config.epochs):
        started = time.perf_counter()
        order = rng.permutation(len(encoded))
        epoch_loss = 0.0
        correct = 0
        try:
            for start in range(0, len(order), config.batch_size):
                chunk = [encoded[int(i)] for i in order[start : start + config.batch_size]]
                losses = []
                for seq, slots, target_ids, label in chunk:
                    logits = encoder.mlm_logits(seq)
                    rows = nm.take_rows(logits, slots)
                    losses.append(nm.softmax_cross_entropy(rows, target_ids, reduction="sum"))
                    slot_preds = np.argmax(rows.data, axis=1)
                    if list(slot_preds) == target_ids:
                        correct += 1
                total = losses[0]
                for piece in losses[1:]:
                    total = total + piece
                loss = nm.scale(total, 1.0 / len(chunk))
                opt.zero_grad()
                nm.backward(loss)
                opt.step()
                epoch_loss += loss.item() * len(chunk)
        except nm.NumericsError:
            log.error("train_prompt: non-finite loss at epoch %d; rolling back", epoch)
            for k, v in last_good.items():
                encoder.params[k].data = v
            history.aborted = True
            return history
        last_good = {k: v.data.copy() for k, v in encoder.params.items()}
        train_acc = correct / len(encoded)
        history.rows.append(
            {"epoch": epoch, "loss": epoch_loss / len(encoded), "lr": config.lr, "seconds": time.perf_counter() - started}
        )
        log.info("prompt epoch %d loss %.4f acc %.3f", epoch, epoch_loss / len(encoded), train_acc)
        if config.stop_at_train_acc is not None and train_acc >= config.stop_at_train_acc:
            break
    return history
