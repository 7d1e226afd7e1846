"""Knowledge-graph storage, entity matching and input supplementation.

The graph is a dict from each head surface to its (head, relation, tail)
facts in file order. Questions are scanned with greedy longest-match against
the heads; the matched entities' facts are serialized into a supplement
string that is appended to the question before generation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from importlib import resources

from .corpus import Reject, read_jsonl
from .tokenizer import BOS_ID, SEP_ID, Vocab, _normalize

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class KnowledgeTriple:
    head: str
    relation: str
    tail: str

    def render(self) -> str:
        return f"{self.head} {self.relation} {self.tail}。"


KnowledgeGraph = dict[str, list[KnowledgeTriple]]


def _parse_triple(obj) -> KnowledgeTriple:
    head, relation, tail = obj["head"], obj["relation"], obj["tail"]
    if not (isinstance(head, str) and isinstance(relation, str) and isinstance(tail, str)):
        raise ValueError("head/relation/tail must be strings")
    if not (head and relation and tail):
        raise ValueError("head/relation/tail must be non-empty")
    return KnowledgeTriple(_normalize(head), _normalize(relation), _normalize(tail))


def load_triples(path) -> tuple[KnowledgeGraph, list[Reject]]:
    """Read {head, relation, tail} JSONL into a graph.

    Duplicate triples are deduplicated; malformed lines are reported, not
    silently dropped. Raises ValueError naming the file when more than half
    of the non-empty lines are malformed (corpus.read_jsonl).
    """
    graph: KnowledgeGraph = {}
    triples, rejects = read_jsonl(path, _parse_triple)
    for triple in dict.fromkeys(triples):  # the first of each duplicate, in file order
        graph.setdefault(triple.head, []).append(triple)
    if not graph:
        log.warning("load_triples: %s produced an empty graph", path)
    return graph, rejects


def fixture_graph_path() -> str:
    """Path of the small bundled demo graph."""
    return str(resources.files("medkit").joinpath("data/fixture_graph.jsonl"))


def match_entities(question: str, graph: KnowledgeGraph) -> list[str]:
    """Greedy longest-match scan of the question against the graph's heads.

    At each position the longest head starting there wins and the
    scan advances past it. Matches are returned in occurrence order, deduped.
    """
    text = _normalize(question)
    found: list[str] = []
    seen: set[str] = set()
    limit = max(map(len, graph), default=0)
    i = 0
    while i < len(text):
        matched = None
        for length in range(min(limit, len(text) - i), 0, -1):
            candidate = text[i : i + length]
            if candidate in graph:
                matched = candidate
                break
        if matched is None:
            i += 1
            continue
        if matched not in seen:
            seen.add(matched)
            found.append(matched)
        i += len(matched)
    return found


def retrieve(question: str, graph: KnowledgeGraph, max_chars: int) -> str:
    """Serialize the matched entities' facts, keeping only whole triples that
    fit the character budget."""
    if max_chars < 0:
        raise ValueError("max_chars must be >= 0")
    pieces: list[str] = []
    used = 0
    for entity in match_entities(question, graph):
        for triple in graph[entity]:
            rendered = triple.render()
            if used + len(rendered) > max_chars:
                return "".join(pieces)
            pieces.append(rendered)
            used += len(rendered)
    return "".join(pieces)


def supplement(question: str, supplement_text: str, vocab: Vocab, max_len: int) -> list[int]:
    """The ids of [BOS] question [SEP] supplement [SEP] within max_len, each
    text mapped through Vocab.ids.

    Over-length input is resolved by truncating the supplement first, the
    question second, so the primary signal survives. The whole sequence is
    the prompt: the generator's loss covers only the tokens after it.
    """
    if max_len < 3:
        raise ValueError("max_len must leave room for the specials")
    q_ids = vocab.ids(question)
    i_ids = vocab.ids(supplement_text)
    budget = max_len - 3  # BOS + two SEPs
    if len(q_ids) > budget:
        q_ids = q_ids[:budget]
        i_ids = []
    elif len(q_ids) + len(i_ids) > budget:
        i_ids = i_ids[: budget - len(q_ids)]
    return [BOS_ID] + q_ids + [SEP_ID] + i_ids + [SEP_ID]
