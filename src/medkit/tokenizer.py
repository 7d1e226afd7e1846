"""Character-level vocabulary and sequence encoding.

Seven reserved ids are fixed forever: [PAD]=0, [UNK]=1, [CLS]=2, [SEP]=3,
[MASK]=4, [BOS]=5, [EOS]=6. Content characters start at id 7 and are ordered
by corpus frequency (descending), then code point, so rebuilding on the same
corpus reproduces the same assignment.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
SEP_ID = 3
MASK_ID = 4
BOS_ID = 5
EOS_ID = 6

RESERVED_TOKENS = ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]", "[BOS]", "[EOS]"]
NUM_RESERVED = len(RESERVED_TOKENS)


class TokenizerError(ValueError):
    pass


def _normalize(text: str) -> str:
    return unicodedata.normalize("NFC", text)


@dataclass
class Vocab:
    """Bijective token/id mapping over the reserved block plus content chars."""

    id_to_token: list[str]
    token_to_id: dict[str, int] = field(init=False)

    def __post_init__(self):
        if self.id_to_token[:NUM_RESERVED] != RESERVED_TOKENS:
            raise TokenizerError("vocab must start with the reserved token block")
        self.token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise TokenizerError("duplicate token in vocab")

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def ids(self, text: str) -> list[int]:
        """The id of each character of the NFC-normalized text, [UNK] when unknown."""
        return [self.token_to_id.get(ch, UNK_ID) for ch in _normalize(text)]

    def token_of(self, idx: int) -> str:
        if not 0 <= idx < len(self.id_to_token):
            raise TokenizerError(f"id {idx} out of vocab range")
        return self.id_to_token[idx]

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for tok in self.id_to_token:
                fh.write(tok + "\n")

    @classmethod
    def load(cls, path) -> "Vocab":
        with open(path, "r", encoding="utf-8") as fh:
            tokens = [line.rstrip("\n") for line in fh]
        while tokens and tokens[-1] == "":
            tokens.pop()
        return cls(tokens)


@dataclass
class TokenBatch:
    """Sequences laid end to end: `ids` holds each one's tokens in turn,
    `lengths` how many each has; there is no padding."""

    ids: np.ndarray
    lengths: np.ndarray

    @classmethod
    def stack(cls, sequences) -> "TokenBatch":
        return cls(np.array([i for seq in sequences for i in seq], dtype=np.int64), np.array([len(seq) for seq in sequences]))

    @property
    def attention_mask(self) -> np.ndarray:
        """All true: every position is a real token."""
        return np.ones(len(self.ids), dtype=bool)

    @property
    def starts(self) -> np.ndarray:
        """Where each sequence begins in `ids`."""
        return np.cumsum(self.lengths) - self.lengths

    @property
    def positions(self) -> np.ndarray:
        """Each token's position within its own sequence."""
        return np.arange(len(self.ids)) - np.repeat(self.starts, self.lengths)


def build_vocab(corpus_texts, min_freq: int = 1) -> Vocab:
    """Assign ids to every character whose corpus frequency is >= min_freq,
    but for line breaks, which vocab.txt cannot hold: they map to [UNK]."""
    texts = list(corpus_texts)
    if not texts:
        raise TokenizerError("cannot build a vocab from an empty corpus")
    counts: Counter[str] = Counter()
    for text in texts:
        counts.update(_normalize(text))
    kept = [ch for ch, c in counts.items() if c >= min_freq and ch not in "\r\n"]
    kept.sort(key=lambda ch: (-counts[ch], ch))
    return Vocab(RESERVED_TOKENS + kept)


def encode(text: str, vocab: Vocab, max_len: int, mode: str = "encoder") -> list[int]:
    """Encode text as [CLS] chars [SEP] or [BOS] chars [EOS], never padded.

    Characters beyond max_len - 2 are dropped; unknown characters map to [UNK].
    """
    if max_len < 3:
        raise TokenizerError("max_len must be at least 3")
    if mode not in ("encoder", "decoder"):
        raise TokenizerError(f"unknown mode {mode!r}")
    body = vocab.ids(text)[: max_len - 2]
    return [CLS_ID, *body, SEP_ID] if mode == "encoder" else [BOS_ID, *body, EOS_ID]


def decode(ids, vocab: Vocab) -> str:
    """Concatenate content tokens, skipping specials and stopping at [EOS]."""
    out: list[str] = []
    for idx in ids:
        idx = int(idx)
        if idx == EOS_ID:
            break
        if idx < NUM_RESERVED:
            if not 0 <= idx < vocab.size:
                raise TokenizerError(f"id {idx} out of vocab range")
            continue
        out.append(vocab.token_of(idx))
    return "".join(out)
