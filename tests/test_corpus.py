import json

import pytest

from medkit import corpus
from medkit.corpus import CorpusFormatError, DialogueSample


def _write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write((row if isinstance(row, str) else json.dumps(row, ensure_ascii=False)) + "\n")


def _sample(question="问题文字足够长的十个字", answer="回答文字也足够长十个字", **kw):
    return DialogueSample(question=question, answer=answer, **kw)


def test_ingest_valid_fixture(tmp_path):
    path = tmp_path / "data.jsonl"
    _write_jsonl(path, [
        {"question": "头痛怎么办才好呢医生", "answer": "建议充分休息多喝温水", "label_coarse": "内科", "age": 25, "gender": "F"},
        {"question": "咳嗽不停怎么办有点急", "answer": "可以先观察注意保暖些", "label_coarse": "内科", "age": 31, "gender": "M"},
        {"question": "腿部骨折手术后多久好", "answer": "一般需要三个月的恢复", "label_coarse": "骨科", "age": None, "gender": None},
    ])
    result = corpus.ingest(path)
    assert len(result.samples) == 3
    assert result.rejects == []
    assert result.samples[0].gender == "female"


def test_ingest_reports_malformed_line(tmp_path):
    path = tmp_path / "data.jsonl"
    _write_jsonl(path, [
        {"question": "头痛怎么办才好呢医生", "answer": "建议充分休息多喝温水"},
        "{not json",
        {"question": "咳嗽不停怎么办有点急", "answer": "可以先观察注意保暖些"},
        {"question": "第三条有效问题字够长", "answer": "第三条有效回答字够长"},
    ])
    result = corpus.ingest(path)
    assert len(result.samples) == 3
    assert len(result.rejects) == 1
    assert result.rejects[0].line == 2


def test_ingest_empty_file_warns(tmp_path, caplog):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    with caplog.at_level("WARNING"):
        result = corpus.ingest(path)
    assert result.samples == []
    assert any("empty" in rec.message for rec in caplog.records)


def test_ingest_mostly_malformed_is_format_error(tmp_path):
    path = tmp_path / "bad.jsonl"
    _write_jsonl(path, ["oops", "still not json", {"question": "唯一一条有效问题字长", "answer": "唯一一条有效回答字长"}])
    with pytest.raises(CorpusFormatError):
        corpus.ingest(path)


def test_ingest_schema_violations_rejected(tmp_path):
    path = tmp_path / "data.jsonl"
    _write_jsonl(path, [
        {"question": "合法的问题一字数足够长", "answer": "合法的回答字数足够长"},
        {"question": 42, "answer": "回答"},
        {"question": "负年龄应当被拒绝收录", "answer": "回答字数足够长的文本", "age": -3},
        {"question": "性别非法应当被拒绝了", "answer": "回答字数足够长的文本", "gender": "X"},
        {"question": "合法的问题二字数足够长", "answer": "合法的回答字数足够长"},
        {"question": "合法的问题三字数足够长", "answer": "合法的回答字数足够长"},
        {"question": "合法的问题四字数足够长", "answer": "合法的回答字数足够长"},
        '{"question": "整数位数超出解析上限", "age": ' + "1" * 5000 + "}",  # json.loads raises a plain ValueError
    ])
    result = corpus.ingest(path)
    assert len(result.samples) == 4
    assert {r.line for r in result.rejects} == {2, 3, 4, 8}


def test_clean_removes_nine_char_question():
    kept, removed = corpus.clean([_sample(question="九个字的问题不够长")])
    assert kept == []
    assert removed[0].reason == "question shorter than 10 characters"


def test_clean_keeps_exactly_ten_chars():
    sample = _sample(question="十个字的问题刚刚好", answer="十个字的回答刚刚好")
    assert len(sample.question) == 9  # sanity: build a true 10-char pair below
    ten_q = "十个字的问题正正好好"
    ten_a = "十个字的回答正正好好"
    assert len(ten_q) == 10 and len(ten_a) == 10
    kept, removed = corpus.clean([_sample(question=ten_q, answer=ten_a)])
    assert len(kept) == 1 and removed == []


def test_clean_removes_missing_answer_in_qa_mode():
    kept, removed = corpus.clean([_sample(answer=None)])
    assert kept == []
    assert removed[0].reason == "missing answer"


def test_clean_triage_mode_ignores_answers():
    kept, removed = corpus.clean([_sample(answer=None)], require_answer=False)
    assert len(kept) == 1 and removed == []


def test_clean_idempotent():
    samples = [
        _sample(),
        _sample(question="太短"),
        _sample(answer=None),
        _sample(answer="短回答"),
    ]
    once, _ = corpus.clean(samples)
    twice, removed_again = corpus.clean(once)
    assert twice == once
    assert removed_again == []


def test_stats_hand_mean():
    samples = [
        _sample(question="一二三四五六七八九十"),
        _sample(question="一二三四五六七八九十一二"),
        _sample(question="一二三四五六七八九十一二三四"),
    ]
    report = corpus.stats(samples)
    assert report.total_count == 3
    assert report.avg_question_length == pytest.approx(12.0, abs=1e-9)


def test_stats_counts_and_histograms():
    samples = [
        _sample(label_coarse="内科", age=25, gender="female"),
        _sample(label_coarse="内科", age=34, gender="female"),
        _sample(label_coarse="骨科", age=7, gender="male"),
    ]
    report = corpus.stats(samples)
    assert report.total_count == 3
    assert report.category_count == 2
    assert report.per_category == {"内科": 2, "骨科": 1}
    assert report.age_histogram == {"0-9": 1, "20-29": 1, "30-39": 1}
    assert report.gender_counts == {"female": 2, "male": 1}


def test_split_85_15():
    samples = [_sample(label_coarse=f"c{i % 4}") for i in range(100)]
    train, test = corpus.split(samples, 0.15, seed=3)
    assert len(train) == 85 and len(test) == 15


def test_split_deterministic():
    samples = [_sample(label_coarse=f"c{i % 4}") for i in range(60)]
    first = corpus.split(samples, 0.15, seed=9)
    second = corpus.split(samples, 0.15, seed=9)
    assert [s.question for s in first[0]] == [s.question for s in second[0]]
    assert [s.question for s in first[1]] == [s.question for s in second[1]]


def test_split_partitions_input():
    samples = [_sample(question=f"第{i}条问题字数要足够长", label_coarse=f"c{i % 3}") for i in range(30)]
    train, test = corpus.split(samples, 0.2, seed=1)
    train_qs = {s.question for s in train}
    test_qs = {s.question for s in test}
    assert train_qs | test_qs == {s.question for s in samples}
    assert train_qs & test_qs == set()


def test_split_stratified_two_class_fixture():
    samples = [_sample(label_coarse="A") for _ in range(10)] + [_sample(label_coarse="B") for _ in range(10)]
    for seed in range(5):
        _, test = corpus.split(samples, 0.15, seed=seed)
        counts = {"A": 0, "B": 0}
        for s in test:
            counts[s.label_coarse] += 1
        assert 1 <= counts["A"] <= 2
        assert 1 <= counts["B"] <= 2
        assert counts["A"] + counts["B"] == 3


def test_split_singleton_class_goes_to_train(caplog):
    samples = [_sample(label_coarse="A") for _ in range(10)] + [_sample(label_coarse="lonely")]
    with caplog.at_level("WARNING"):
        train, test = corpus.split(samples, 0.2, seed=0)
    assert all(s.label_coarse != "lonely" for s in test)
    assert any("single sample" in rec.message for rec in caplog.records)


def test_split_rejects_bad_fraction():
    with pytest.raises(ValueError):
        corpus.split([_sample(label_coarse="A")], 0.0, seed=0)


def test_make_small_sample_hand_count():
    samples = (
        [_sample(label_coarse="A") for _ in range(100)]
        + [_sample(label_coarse="B") for _ in range(5)]
        + [_sample(label_coarse="C") for _ in range(3)]
    )
    subset, categories = corpus.make_small_sample(samples, 10)
    assert len(subset) == 8
    assert categories == ["B", "C"]


def test_make_small_sample_identity_with_huge_threshold():
    samples = [_sample(label_coarse="A"), _sample(label_coarse="B")]
    subset, categories = corpus.make_small_sample(samples, float("inf"))
    assert subset == samples
    assert categories == ["A", "B"]


def test_make_small_sample_zero_threshold_errors():
    with pytest.raises(ValueError):
        corpus.make_small_sample([_sample(label_coarse="A")], 0)


def test_default_small_sample_threshold_is_twice_median():
    samples = (
        [_sample(label_coarse="A") for _ in range(2)]
        + [_sample(label_coarse="B") for _ in range(4)]
        + [_sample(label_coarse="C") for _ in range(10)]
    )
    assert corpus.default_small_sample_threshold(samples) == 8.0


def test_label_functions_read_a_one_shot_iterable_once():
    samples = (
        [_sample(label_coarse="A") for _ in range(2)]
        + [_sample(label_coarse="B") for _ in range(4)]
        + [_sample(label_coarse="C") for _ in range(10)]
    )
    assert corpus.default_small_sample_threshold(iter(samples)) == 8.0
    assert corpus.stats(iter(samples)) == corpus.stats(samples)
    assert corpus.split(iter(samples), 0.5, seed=1) == corpus.split(samples, 0.5, seed=1)
    assert corpus.make_small_sample(iter(samples), 4) == corpus.make_small_sample(samples, 4)


@pytest.mark.parametrize("call", [
    lambda samples: corpus.make_small_sample(samples, 5, granularity="coarse"),
    lambda samples: corpus.default_small_sample_threshold(samples, granularity="coarse"),
], ids=["make_small_sample", "default_threshold"])
def test_small_sample_names_the_label_field_no_sample_carries(call):
    """A corpus with fine labels only, subset by coarse label: the error names
    label_coarse rather than blaming the threshold."""
    with pytest.raises(ValueError, match="no samples carry a label_coarse label"):
        call([_sample(label_fine="呼吸内科") for _ in range(3)])


def test_jsonl_round_trip(tmp_path):
    samples = [
        _sample(label_coarse="内科", label_fine="呼吸内科", age=40, gender="male"),
        _sample(answer=None, label_coarse="骨科"),
    ]
    path = tmp_path / "out.jsonl"
    corpus.write_jsonl(path, (s.to_json() for s in samples))
    back = corpus.ingest(path)
    assert back.rejects == []
    assert [s.to_json() for s in back.samples] == [s.to_json() for s in samples]


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_write_jsonl_refuses_non_finite_numbers(tmp_path, value):
    """Bare Infinity or NaN is not JSON: no artifact row may hold one."""
    with pytest.raises(ValueError):
        corpus.write_jsonl(tmp_path / "out.jsonl", [{"x": value}])
