import json
import re

import pytest

from medkit.corpus import Reject
from medkit.kgraph import (
    KnowledgeGraph,
    KnowledgeTriple,
    fixture_graph_path,
    load_triples,
    match_entities,
    retrieve,
    supplement,
)
from medkit.tokenizer import BOS_ID, SEP_ID, build_vocab

from oracles import supplement_spans


def _graph_from(triples) -> KnowledgeGraph:
    graph: KnowledgeGraph = {}
    for head, relation, tail in triples:
        graph.setdefault(head, []).append(KnowledgeTriple(head, relation, tail))
    return graph


def _write(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write((row if isinstance(row, str) else json.dumps(row, ensure_ascii=False)) + "\n")


def test_load_three_triples(tmp_path):
    path = tmp_path / "g.jsonl"
    _write(path, [
        {"head": "头痛", "relation": "症状", "tail": "胀痛"},
        {"head": "头痛", "relation": "科室", "tail": "神经内科"},
        {"head": "发烧", "relation": "治疗", "tail": "降温"},
    ])
    graph, rejects = load_triples(path)
    assert graph == _graph_from([("头痛", "症状", "胀痛"), ("头痛", "科室", "神经内科"), ("发烧", "治疗", "降温")])
    assert rejects == []


def test_load_deduplicates(tmp_path):
    path = tmp_path / "g.jsonl"
    row = {"head": "头痛", "relation": "症状", "tail": "胀痛"}
    _write(path, [row, row, {"head": "发烧", "relation": "治疗", "tail": "降温"}])
    graph, _ = load_triples(path)
    assert graph == _graph_from([("头痛", "症状", "胀痛"), ("发烧", "治疗", "降温")])


def test_load_groups_each_heads_facts_in_file_order(tmp_path):
    path = tmp_path / "g.jsonl"
    rows = [("头痛", "症状", "胀痛"), ("发烧", "治疗", "降温"), ("头痛", "科室", "神经内科"), ("头痛", "症状", "胀痛")]
    _write(path, [dict(zip(("head", "relation", "tail"), row)) for row in rows])
    graph, _ = load_triples(path)
    assert list(graph.items()) == list(_graph_from(rows[:3]).items())  # heads by first line, the repeat dropped


def test_load_empty_graph_warns(tmp_path, caplog):
    path = tmp_path / "g.jsonl"
    path.write_text("", encoding="utf-8")
    with caplog.at_level("WARNING"):
        graph, rejects = load_triples(path)
    assert graph == {} and rejects == []
    assert any("empty graph" in rec.message for rec in caplog.records)


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "g.jsonl"
    _write(path, [
        "not json",
        {"head": "头痛", "relation": "症状"},
        {"head": "", "relation": "症状", "tail": "胀痛"},
        {"head": "发烧", "relation": "治疗", "tail": "降温"},
        {"head": "头痛", "relation": "症状", "tail": "胀痛"},
        {"head": "咳嗽", "relation": "科室", "tail": "呼吸科"},
    ])
    graph, rejects = load_triples(path)
    assert graph == _graph_from([("发烧", "治疗", "降温"), ("头痛", "症状", "胀痛"), ("咳嗽", "科室", "呼吸科")])
    assert [r.line for r in rejects] == [1, 2, 3]
    assert all(type(r) is Reject for r in rejects)  # the record corpus.ingest returns


def test_load_with_most_lines_malformed_raises_naming_the_file(tmp_path):
    path = tmp_path / "g.jsonl"
    _write(path, ["not json", {"head": "头痛", "relation": "症状"}, {"head": "发烧", "relation": "治疗", "tail": "降温"}, ""])
    with pytest.raises(ValueError, match=re.escape(f"2 of 3 lines malformed in {path}")):
        load_triples(path)


def test_match_single_entity():
    graph = _graph_from([("头痛", "症状", "胀痛")])
    assert match_entities("头痛怎么办", graph) == ["头痛"]


def test_match_prefers_longest():
    graph = _graph_from([("头", "部位", "头部"), ("头痛", "症状", "胀痛")])
    assert match_entities("头痛怎么办", graph) == ["头痛"]


def test_match_empty_graph():
    assert match_entities("头痛怎么办", KnowledgeGraph()) == []


def test_match_orders_by_occurrence_and_dedupes():
    graph = _graph_from([("头痛", "a", "b"), ("发烧", "c", "d")])
    assert match_entities("发烧还有头痛而且发烧", graph) == ["发烧", "头痛"]


def test_match_result_occurs_verbatim():
    graph = _graph_from([("头痛", "a", "b"), ("咳嗽", "c", "d"), ("高血压", "e", "f")])
    question = "高血压并且咳嗽怎么办"
    for entity in match_entities(question, graph):
        assert entity in question


def test_retrieve_no_match_is_empty():
    graph = _graph_from([("头痛", "症状", "胀痛")])
    assert retrieve("肚子不舒服", graph, max_chars=100) == ""


def test_retrieve_serializes_in_load_order():
    graph = _graph_from([("头痛", "症状", "胀痛"), ("头痛", "科室", "神经内科")])
    text = retrieve("头痛怎么办", graph, max_chars=100)
    assert text == "头痛 症状 胀痛。头痛 科室 神经内科。"


def test_retrieve_budget_smaller_than_first_triple():
    graph = _graph_from([("头痛", "症状", "胀痛")])
    assert retrieve("头痛", graph, max_chars=5) == ""


def test_retrieve_keeps_whole_triples_within_budget():
    graph = _graph_from([("头痛", "症状", "胀痛"), ("头痛", "科室", "神经内科")])
    first = "头痛 症状 胀痛。"
    text = retrieve("头痛", graph, max_chars=len(first) + 3)
    assert text == first
    for budget in range(0, 40):
        chunk = retrieve("头痛", graph, max_chars=budget)
        assert len(chunk) <= budget


def test_retrieve_unrelated_triple_changes_nothing():
    base = _graph_from([("头痛", "症状", "胀痛")])
    extended = _graph_from([("头痛", "症状", "胀痛"), ("皮疹", "科室", "皮肤科")])
    assert retrieve("头痛难受", base, 60) == retrieve("头痛难受", extended, 60)


def test_retrieve_rejects_negative_budget():
    with pytest.raises(ValueError):
        retrieve("头痛", KnowledgeGraph(), -1)


@pytest.fixture()
def vocab():
    return build_vocab(["头痛症状胀痛科室神经内发烧abcdef"])


def test_supplement_empty_supplement(vocab):
    seq = supplement("头痛", "", vocab, max_len=16)
    assert seq == [BOS_ID, *vocab.ids("头痛"), SEP_ID, SEP_ID]
    assert supplement_spans(seq)[1] == (4, 4)
    assert len(seq) == 5


def test_supplement_exact_fit(vocab):
    seq = supplement("abcde", "头痛症状", vocab, max_len=12)  # 5 content tokens
    assert len(seq) == 12
    assert supplement_spans(seq) == ((1, 6), (7, 11))


def test_supplement_never_exceeds_max_len(vocab):
    for max_len in range(3, 20):
        seq = supplement("abcdef", "头痛症状胀痛科室", vocab, max_len=max_len)
        assert len(seq) <= max_len


def test_supplement_truncates_supplement_before_question(vocab):
    seq = supplement("abcde", "头痛症状胀痛", vocab, max_len=10)
    # 5 question tokens survive; supplement squeezed into the leftover 2 slots
    question_span, (lo, hi) = supplement_spans(seq)
    assert question_span == (1, 6)
    assert hi - lo == 2


def test_supplement_truncates_question_when_alone_too_long(vocab):
    seq = supplement("abcdef", "头痛", vocab, max_len=6)
    assert len(seq) == 6
    question_span, (lo, hi) = supplement_spans(seq)
    assert question_span == (1, 4)
    assert hi - lo == 0


def test_bundled_fixture_graph_loads():
    graph, rejects = load_triples(fixture_graph_path())
    assert rejects == []
    assert sum(map(len, graph.values())) >= 50
    assert match_entities("头痛怎么办", graph) == ["头痛"]
