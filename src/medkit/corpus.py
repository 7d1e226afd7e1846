"""Dialogue-corpus ingestion, cleaning, statistics, splitting and subsetting.

File format: one JSON object per line with the keys
{"question": str, "answer": str|null, "label_coarse": str|null,
 "label_fine": str|null, "age": int|null, "gender": "M"|"F"|null}.
Unknown keys are tolerated; structurally broken lines go to a rejects report
instead of being silently dropped.
"""

from __future__ import annotations

import json
import logging
import statistics
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .numerics import spawn

log = logging.getLogger(__name__)

MIN_TEXT_CHARS = 10  # fields shorter than this are removed; exactly 10 survives

_GENDER_IN = {"M": "male", "F": "female", "male": "male", "female": "female"}
_GENDER_OUT = {"male": "M", "female": "F"}


class CorpusFormatError(ValueError):
    pass


@dataclass
class DialogueSample:
    question: str
    answer: str | None = None
    label_coarse: str | None = None
    label_fine: str | None = None
    age: int | None = None
    gender: str | None = None  # "male" | "female"

    def to_json(self) -> dict:
        return {**asdict(self), "gender": _GENDER_OUT.get(self.gender)}


@dataclass
class Reject:
    line: int
    reason: str


@dataclass
class IngestResult:
    samples: list[DialogueSample]
    rejects: list[Reject] = field(default_factory=list)
    lines: list[int] = field(default_factory=list)  # the 1-based line of each sample


def _parse_sample(obj: dict) -> DialogueSample:
    if not isinstance(obj, dict):
        raise CorpusFormatError("line is not a JSON object")
    question = obj.get("question")
    if not isinstance(question, str):
        raise CorpusFormatError("missing or non-string 'question'")
    answer = obj.get("answer")
    if answer is not None and not isinstance(answer, str):
        raise CorpusFormatError("'answer' must be a string or null")
    label_coarse = obj.get("label_coarse")
    if label_coarse is not None and not isinstance(label_coarse, str):
        raise CorpusFormatError("'label_coarse' must be a string or null")
    label_fine = obj.get("label_fine")
    if label_fine is not None and not isinstance(label_fine, str):
        raise CorpusFormatError("'label_fine' must be a string or null")
    age = obj.get("age")
    if age is not None:
        if not isinstance(age, int) or isinstance(age, bool) or age < 0:
            raise CorpusFormatError("'age' must be a non-negative integer or null")
    gender_raw = obj.get("gender")
    gender = None
    if gender_raw is not None:
        if not isinstance(gender_raw, str) or gender_raw not in _GENDER_IN:
            raise CorpusFormatError("'gender' must be 'M', 'F' or null")
        gender = _GENDER_IN[gender_raw]
    return DialogueSample(question, answer, label_coarse, label_fine, age, gender)


def read_lines(path) -> list[str]:
    """The lines of the UTF-8 text file `path`, newlines stripped; a file that
    is not UTF-8 raises ValueError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_jsonl(path, parse) -> tuple[list, list[Reject], list[int]]:
    """`parse` of the JSON value of each non-empty line of `path`, a Reject
    for each line that is not JSON (or nests too deeply for the decoder) or
    that `parse` refuses (ValueError, KeyError or TypeError), and the 1-based
    line number of each value.

    Raises CorpusFormatError when more than half of the non-empty lines are
    malformed (the file is probably not in this format at all).
    """
    values: list = []
    rejects: list[Reject] = []
    value_lines: list[int] = []
    lines = [(lineno, line) for lineno, line in enumerate(read_lines(path), start=1) if line.strip()]
    for lineno, line in lines:
        try:
            values.append(parse(json.loads(line)))
            value_lines.append(lineno)
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            rejects.append(Reject(lineno, str(exc)))
    if len(rejects) * 2 > len(lines):
        raise CorpusFormatError(f"{len(rejects)} of {len(lines)} lines malformed in {path}")
    return values, rejects, value_lines


def ingest(path) -> IngestResult:
    """Parse a JSONL corpus file (read_jsonl); malformed lines land in the
    rejects report."""
    samples, rejects, lines = read_jsonl(path, _parse_sample)
    if not samples and not rejects:
        log.warning("ingest: %s is empty", path)
    return IngestResult(samples, rejects, lines)


@dataclass
class Removal:
    sample: DialogueSample
    reason: str


def clean(samples, require_answer: bool = True) -> tuple[list[DialogueSample], list[Removal]]:
    """Drop samples with a missing question, a missing answer (when answers
    are required), or a question/answer shorter than 10 characters. A field
    of exactly 10 characters is kept. Idempotent."""
    kept: list[DialogueSample] = []
    removed: list[Removal] = []
    for s in samples:
        if not s.question:
            removed.append(Removal(s, "missing question"))
        elif len(s.question) < MIN_TEXT_CHARS:
            removed.append(Removal(s, "question shorter than 10 characters"))
        elif require_answer and s.answer is None:
            removed.append(Removal(s, "missing answer"))
        elif require_answer and len(s.answer) < MIN_TEXT_CHARS:
            removed.append(Removal(s, "answer shorter than 10 characters"))
        else:
            kept.append(s)
    return kept, removed


def label_field(samples, granularity: str = "auto") -> str | None:
    """The sample field `granularity` labels by: "auto" picks label_coarse when
    any sample has a coarse label, else label_fine when any has a fine one,
    else None."""
    if granularity == "coarse":
        return "label_coarse"
    if granularity == "fine":
        return "label_fine"
    if granularity != "auto":
        raise ValueError(f"unknown granularity {granularity!r}")
    if any(s.label_coarse is not None for s in samples):
        return "label_coarse"
    if any(s.label_fine is not None for s in samples):
        return "label_fine"
    return None


def labels_of(samples, granularity: str = "auto") -> tuple[list[DialogueSample], str | None, list[str | None]]:
    """`samples` read once as a list, the field they are labeled by
    (label_field) and each sample's label under it (None when it has none)."""
    samples = list(samples)
    field_name = label_field(samples, granularity)
    return samples, field_name, [getattr(s, field_name) if field_name else None for s in samples]


def class_counts(samples, granularity: str) -> tuple[list[DialogueSample], list[str | None], Counter[str]]:
    """labels_of() of `samples` and the count of each label; ValueError naming
    the label field when no sample carries one."""
    samples, field_name, labels = labels_of(samples, granularity)
    counts = Counter(label for label in labels if label is not None)
    if not counts:
        raise ValueError(f"no samples carry a {field_name or 'label_coarse'} label")
    return samples, labels, counts


@dataclass
class DatasetStats:
    total_count: int
    avg_question_length: float
    avg_answer_length: float | None
    category_count: int
    per_category: dict[str, int]
    age_histogram: dict[str, int]
    gender_counts: dict[str, int]


def stats(samples, granularity: str = "auto") -> DatasetStats:
    """Exact counts and arithmetic-mean character lengths. Age is bucketed by
    decade; gender counts cover only samples that report one.
    """
    samples, _, labels = labels_of(samples, granularity)
    total = len(samples)
    per_category = Counter(label for label in labels if label is not None)
    ages: Counter[str] = Counter()
    genders: Counter[str] = Counter()
    q_total = 0
    a_total = 0
    a_count = 0
    for s in samples:
        q_total += len(s.question)
        if s.answer is not None:
            a_total += len(s.answer)
            a_count += 1
        if s.age is not None:
            decade = (s.age // 10) * 10
            ages[f"{decade}-{decade + 9}"] += 1
        if s.gender is not None:
            genders[s.gender] += 1
    return DatasetStats(
        total_count=total,
        avg_question_length=q_total / total if total else 0.0,
        avg_answer_length=a_total / a_count if a_count else None,
        category_count=len(per_category),
        per_category=dict(sorted(per_category.items())),
        age_histogram=dict(sorted(ages.items(), key=lambda kv: int(kv[0].split("-")[0]))),
        gender_counts=dict(sorted(genders.items())),
    )


def split(samples, test_fraction: float, seed: int, granularity: str = "auto"):
    """Deterministic train/test split, stratified by label when labels exist.

    The global test size is round(total * test_fraction); per-class quotas use
    the largest-remainder method so every class stays within one sample of its
    proportional share. Singleton classes go to train with a warning.
    """
    samples, field_name, labels = labels_of(samples, granularity)
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = spawn(seed, "corpus.split")
    total = len(samples)
    target_test = int(round(total * test_fraction))

    if field_name is None:
        order = rng.permutation(total)
        test_idx = set(int(i) for i in order[:target_test])
        train = [s for i, s in enumerate(samples) if i not in test_idx]
        test = [s for i, s in enumerate(samples) if i in test_idx]
        return train, test

    by_class: dict[str, list[int]] = {}
    for i, label in enumerate(labels):
        by_class.setdefault(label or "", []).append(i)

    eligible = {}
    for label, idxs in sorted(by_class.items()):
        if len(idxs) == 1:
            log.warning("split: class %r has a single sample; kept in train", label)
        else:
            eligible[label] = idxs

    quotas = {label: len(idxs) * test_fraction for label, idxs in eligible.items()}
    base = {label: int(q) for label, q in quotas.items()}
    remaining = target_test - sum(base.values())
    remaining = max(0, min(remaining, sum(len(v) for v in eligible.values()) - sum(base.values())))
    order = sorted(eligible, key=lambda lab: (-(quotas[lab] - base[lab]), lab))
    for label in order:
        if remaining <= 0:
            break
        if base[label] < len(eligible[label]):
            base[label] += 1
            remaining -= 1

    test_idx: set[int] = set()
    for label, idxs in sorted(eligible.items()):
        take = base[label]
        perm = rng.permutation(len(idxs))
        test_idx.update(idxs[int(j)] for j in perm[:take])

    train = [s for i, s in enumerate(samples) if i not in test_idx]
    test = [s for i, s in enumerate(samples) if i in test_idx]
    return train, test


def make_small_sample(samples, max_per_class_threshold: float, granularity: str = "auto"):
    """Drop every category whose sample count exceeds the threshold; returns
    the surviving samples (original order) and the surviving category list."""
    samples, labels, counts = class_counts(samples, granularity)
    surviving = sorted(label for label, c in counts.items() if c <= max_per_class_threshold)
    if not surviving:
        raise ValueError("threshold removed every category")
    keep = set(surviving)
    return [s for s, label in zip(samples, labels) if label in keep], surviving


def default_small_sample_threshold(samples, granularity: str = "auto") -> float:
    """Twice the median class count; used when no threshold is given."""
    return 2.0 * statistics.median(class_counts(samples, granularity)[2].values())


def write_jsonl(path, rows) -> None:
    """One JSON object per line, keys sorted; NaN or infinity raises ValueError."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False, sort_keys=True, allow_nan=False) + "\n")
