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
from collections import Counter
from dataclasses import asdict, dataclass, field

from .numerics import Rng

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
        return {
            "question": self.question,
            "answer": self.answer,
            "label_coarse": self.label_coarse,
            "label_fine": self.label_fine,
            "age": self.age,
            "gender": _GENDER_OUT.get(self.gender) if self.gender else None,
        }


@dataclass
class Reject:
    line: int
    reason: str


@dataclass
class IngestResult:
    samples: list[DialogueSample]
    rejects: list[Reject] = field(default_factory=list)


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
        if gender_raw not in _GENDER_IN:
            raise CorpusFormatError("'gender' must be 'M', 'F' or null")
        gender = _GENDER_IN[gender_raw]
    return DialogueSample(question, answer, label_coarse, label_fine, age, gender)


def ingest(path) -> IngestResult:
    """Parse a JSONL corpus file; malformed lines land in the rejects report.

    Raises CorpusFormatError when more than half of the non-empty lines are
    malformed (the file is probably not in this format at all).
    """
    samples: list[DialogueSample] = []
    rejects: list[Reject] = []
    total = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            total += 1
            try:
                obj = json.loads(line)
                samples.append(_parse_sample(obj))
            except (json.JSONDecodeError, CorpusFormatError) as exc:
                rejects.append(Reject(lineno, str(exc)))
    if total == 0:
        log.warning("ingest: %s is empty", path)
    elif len(rejects) * 2 > total:
        raise CorpusFormatError(f"{len(rejects)} of {total} lines malformed in {path}")
    return IngestResult(samples, rejects)


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


def _label_of(sample: DialogueSample, field_name: str | None) -> str | None:
    if field_name is None:
        return None
    return getattr(sample, field_name)


@dataclass
class DatasetStats:
    total_count: int
    train_count: int
    test_count: int
    avg_question_length: float
    avg_answer_length: float | None
    category_count: int
    per_category: dict[str, int]
    age_histogram: dict[str, int]
    gender_counts: dict[str, int]


def stats(samples, split_assignment=None, granularity: str = "auto") -> DatasetStats:
    """Exact counts and arithmetic-mean character lengths.

    `split_assignment` maps sample index -> "train"|"test" (optional). Age is
    bucketed by decade; gender counts cover only samples that report one.
    """
    samples = list(samples)
    total = len(samples)
    train = test = 0
    if split_assignment is not None:
        for i in range(total):
            part = split_assignment.get(i)
            if part == "train":
                train += 1
            elif part == "test":
                test += 1
    field_name = label_field(samples, granularity)
    per_category: Counter[str] = Counter()
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
        label = _label_of(s, field_name)
        if label is not None:
            per_category[label] += 1
        if s.age is not None:
            decade = (s.age // 10) * 10
            ages[f"{decade}-{decade + 9}"] += 1
        if s.gender is not None:
            genders[s.gender] += 1
    return DatasetStats(
        total_count=total,
        train_count=train,
        test_count=test,
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
    samples = list(samples)
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = Rng(seed).spawn("corpus.split")
    total = len(samples)
    target_test = int(round(total * test_fraction))
    field_name = label_field(samples, granularity)

    if field_name is None:
        order = rng.permutation(total)
        test_idx = set(int(i) for i in order[:target_test])
        train = [s for i, s in enumerate(samples) if i not in test_idx]
        test = [s for i, s in enumerate(samples) if i in test_idx]
        return train, test

    by_class: dict[str, list[int]] = {}
    for i, s in enumerate(samples):
        label = _label_of(s, field_name) or ""
        by_class.setdefault(label, []).append(i)

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
    samples = list(samples)
    field_name = label_field(samples, granularity)
    if field_name is None:
        raise ValueError("make_small_sample needs labeled samples")
    counts: Counter[str] = Counter()
    for s in samples:
        label = _label_of(s, field_name)
        if label is not None:
            counts[label] += 1
    surviving = sorted(label for label, c in counts.items() if c <= max_per_class_threshold)
    if not surviving:
        raise ValueError("threshold removed every category")
    keep = set(surviving)
    subset = [s for s in samples if _label_of(s, field_name) in keep]
    return subset, surviving


def default_small_sample_threshold(samples, granularity: str = "auto") -> float:
    """Twice the median class count; used when no threshold is given."""
    field_name = label_field(list(samples), granularity)
    if field_name is None:
        raise ValueError("threshold default needs labeled samples")
    counts = Counter(_label_of(s, field_name) for s in samples if _label_of(s, field_name) is not None)
    sizes = sorted(counts.values())
    if not sizes:
        raise ValueError("no labeled samples")
    mid = len(sizes) // 2
    median = sizes[mid] if len(sizes) % 2 == 1 else (sizes[mid - 1] + sizes[mid]) / 2.0
    return 2.0 * median


def write_jsonl(path, samples) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            fh.write(json.dumps(s.to_json(), ensure_ascii=False, sort_keys=True) + "\n")


def write_rejects(path, rejects) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in rejects:
            fh.write(json.dumps(asdict(r), ensure_ascii=False, sort_keys=True) + "\n")
