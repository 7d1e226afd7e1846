"""Seeded input generator for the benchmark workloads.

Everything here is a pure function of the seed and the parameters; the
program under test only sees the files and strings made here. The parameters
that shape the work (entity hit rate, question length against the encoder's
``max_len``, label count, edit and shift rates of the metric pairs) are
recorded in every run's output through ``describe``.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path

GRAPH_PATH = Path(__file__).resolve().parents[1] / "src" / "medkit" / "data" / "fixture_graph.jsonl"

# head -> (coarse triage label, fine label = the graph's 科室 tail)
GRAPH_ENTITIES = {
    "头痛": ("内科", "神经内科"), "发烧": ("内科", "内科"), "咳嗽": ("内科", "呼吸内科"),
    "感冒": ("内科", "内科"), "胃痛": ("内科", "消化内科"), "腹泻": ("内科", "消化内科"),
    "失眠": ("内科", "神经内科"), "高血压": ("内科", "心内科"), "糖尿病": ("内科", "内分泌科"),
    "贫血": ("内科", "血液科"), "哮喘": ("内科", "呼吸内科"), "皮疹": ("皮肤科", "皮肤科"),
    "湿疹": ("皮肤科", "皮肤科"), "牙痛": ("五官科", "口腔科"), "近视": ("五官科", "眼科"),
    "中耳炎": ("五官科", "耳鼻喉科"), "骨折": ("外科", "骨科"), "痛经": ("妇科", "妇科"),
}
# Symptoms the graph does not know, so a question can carry no entity at all.
OFF_GRAPH = {
    "内科": ["乏力", "恶心", "胸闷", "心慌"],
    "外科": ["扭伤", "烫伤", "腰酸", "擦伤"],
    "皮肤科": ["痤疮", "脱发", "红斑"],
    "五官科": ["咽炎", "鼻塞", "耳鸣"],
    "妇科": ["经期不调", "小腹坠胀"],
}
LABELS = sorted(OFF_GRAPH)
OPENERS = ["医生你好，", "请问", "我最近", "孩子这几天", "家里老人", "您好，我", ""]
LINKS = ["，还有", "，同时", "并且", "，伴随"]
CLOSERS = ["应该怎么办", "需要去医院吗", "吃什么药好", "要注意什么", "严不严重"]
ADVICE = ["注意休息", "清淡饮食", "按时复查", "多喝温水", "避免劳累", "保持心情舒畅"]
# Filler: common characters that occur in no entity, so filler can neither
# create nor hide a graph match.
FILLER = sorted(
    set("的一是在不了有和人这中大为上个我以要他时来用们生到作地于出就分对成会可主年动同工也能下过子说种面而方后多定行学法所得经十三之进着等度家力里如化自二理起小物现实加量都两制机当使点从业本去把性好应开它合还因由其些然前天四日那义事平形相全表间样与关各重新线数正心反你明看原又么利比或但气第向道命此变条只没结解问意建月公无系军很情者最立代想已通并提直题程展五果料象员革位入常文总次品式活设及管特件长求老头基资边流路级少图山统接知较将组见计别她手角期根论运农指几九区强放决西被干做必战先回则任取据处府研")
    - {ch for entity in GRAPH_ENTITIES for ch in entity}
)
# Metric pairs draw from their own few-hundred-character alphabet.
METRIC_ALPHABET = [chr(0x4E00 + 7 * i) for i in range(300)]


@dataclass(frozen=True)
class CorpusParams:
    """Labelled QA corpus for the pipeline."""

    # Small enough for two chains per measuring worker, so a run's median
    # latency is taken over ten chains.
    train_samples: int = 10
    test_samples: int = 4
    question_len: tuple = (10, 70)  # evenly spread; the encoder's max_len is 64
    answer_len: tuple = (12, 36)
    entity_weights: tuple = (0.3, 0.4, 0.3)  # P(0), P(1), P(2) graph entities


@dataclass(frozen=True)
class ConsultParams:
    questions: int = 80
    question_len: tuple = (10, 48)
    entity_weights: tuple = (0.3, 0.4, 0.3)


@dataclass(frozen=True)
class MetricParams:
    pairs: int = 5  # several per call: one pair's TER cost is lumpy
    line_len: int = 12
    block_moves: int = 1  # per pair, each a span of 2-4 characters
    substitutions: int = 2  # per pair


def _shapes(rng: random.Random, n: int, length_range: tuple, weights: tuple) -> list[tuple[int, int]]:
    """(length, entity count) for `n` questions, shuffled. Lengths are evenly
    spaced over the range and entity counts follow `weights` exactly, so every
    seed asks for the same amount of work and only the content differs."""
    lo, hi = length_range
    lengths = [lo + round((hi - lo) * i / max(1, n - 1)) for i in range(n)]
    counts = [k for k, w in enumerate(weights) for _ in range(round(w * n))]
    counts = (counts + [len(weights) - 1] * n)[:n]
    rng.shuffle(counts)
    return list(zip(lengths, counts))


def _question(rng: random.Random, length: int, n_entities: int, label: str) -> tuple[str, str]:
    """A question of about `length` characters for `label`; returns (text, fine label)."""
    own = [e for e, (coarse, _) in GRAPH_ENTITIES.items() if coarse == label]
    if n_entities:
        first = rng.choice(own)
        mentions = [first] + [rng.choice([e for e in GRAPH_ENTITIES if e != first]) for _ in range(n_entities - 1)]
        fine = GRAPH_ENTITIES[first][1]
    else:
        mentions = [rng.choice(OFF_GRAPH[label])]
        fine = label
    core = rng.choice(OPENERS) + mentions[0] + "".join(rng.choice(LINKS) + m for m in mentions[1:])
    closer = "，" + rng.choice(CLOSERS)
    pad = max(0, length - len(core) - len(closer))
    return core + "".join(rng.choice(FILLER) for _ in range(pad)) + closer, fine


def _answer(rng: random.Random, label: str, fine: str, length: int) -> str:
    # Every answer names its labels, so every label character is in the
    # vocabulary an encoder pretrained on this corpus builds.
    text = f"建议到{fine}或{label}就诊，{rng.choice(ADVICE)}"
    pad = max(0, length - len(text) - 1)
    return text + "".join(rng.choice(FILLER) for _ in range(pad)) + "。"


def qa_corpus(seed: int, n: int, params: CorpusParams, tag: str = "train") -> list[dict]:
    """`n` labelled QA rows; labels are assigned round-robin, so classes are balanced."""
    rng = random.Random(f"corpus:{tag}:{seed}")
    labels = [LABELS[i % len(LABELS)] for i in range(n)]
    rng.shuffle(labels)
    rows = []
    for label, (length, entities) in zip(labels, _shapes(rng, n, params.question_len, params.entity_weights)):
        question, fine = _question(rng, length, entities, label)
        answer = _answer(rng, label, fine, rng.randint(*params.answer_len))
        rows.append({"question": question, "answer": answer, "label_coarse": label, "label_fine": fine,
                     "age": rng.randint(2, 80), "gender": rng.choice("MF")})
    return rows


def consult_questions(seed: int, params: ConsultParams) -> list[str]:
    """`params.questions` distinct questions."""
    rng = random.Random(f"consult:{seed}")
    questions: list[str] = []
    for length, entities in _shapes(rng, params.questions, params.question_len, params.entity_weights):
        q = None
        while q is None or q in questions:
            q, _ = _question(rng, length, entities, rng.choice(LABELS))
        questions.append(q)
    return questions


def _perturb(rng: random.Random, ref: list[str], params: MetricParams) -> list[str]:
    cand = list(ref)
    for _ in range(params.block_moves):
        size = rng.randint(2, 4)
        start = rng.randint(0, len(cand) - size)
        span, rest = cand[start : start + size], cand[:start] + cand[start + size :]
        dest = rng.choice([d for d in range(len(rest) + 1) if d != start])
        cand = rest[:dest] + span + rest[dest:]
    for _ in range(params.substitutions):
        cand[rng.randrange(len(cand))] = rng.choice(METRIC_ALPHABET)
    return cand


def metric_pairs(seed: int, params: MetricParams) -> tuple[list[str], list[str]]:
    """(candidate lines, reference lines) for the `metrics` call."""
    rng = random.Random(f"metrics:{seed}")
    refs = [[rng.choice(METRIC_ALPHABET) for _ in range(params.line_len)] for _ in range(params.pairs)]
    return ["".join(_perturb(rng, r, params)) for r in refs], ["".join(r) for r in refs]


def background_texts(rows: list[dict]) -> list[str]:
    """LM pretraining text: every question and answer plus the graph's facts."""
    facts = []
    for line in GRAPH_PATH.read_text(encoding="utf-8").splitlines():
        t = json.loads(line)
        facts.append(f"{t['head']} {t['relation']} {t['tail']}。")
    return [r["question"] for r in rows] + [r["answer"] for r in rows] + facts


def write_jsonl(path: Path, rows: list[dict]) -> None:
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows), encoding="utf-8")


def describe(params) -> dict:
    return asdict(params)
