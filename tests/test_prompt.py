import math

import numpy as np
import pytest

from medkit import numerics as nm
from medkit.encoder import Encoder, EncoderConfig
from medkit.numerics import Rng, Tensor, TrainConfig
from medkit.prompt import (
    PromptError,
    PromptTemplate,
    Verbalizer,
    build_prompt,
    predict,
    score_labels,
    train_prompt,
)
from medkit.tokenizer import MASK_ID, PAD_ID, SEP_ID, TokenBatch, build_vocab

from oracles import log_softmax


@pytest.fixture()
def vocab():
    return build_vocab(["头痛发烧咳嗽内外骨科这属于的甲乙丙"])


def _encoder(vocab, hidden=8, seed=0, max_len=24):
    cfg = EncoderConfig(vocab_size=vocab.size, max_len=max_len, hidden_dim=hidden, num_layers=1, num_heads=2, ffn_dim=16)
    return Encoder(cfg, Rng(seed).spawn("enc"))


class StubModel:
    """Duck-typed stand-in whose mask-slot logits are hand-chosen."""

    def __init__(self, rows_by_position: dict[int, list[float]], seq_len: int, vocab_size: int):
        self.rows = rows_by_position
        self.seq_len = seq_len
        self.vocab_size = vocab_size

    def mlm_logits(self, seq, rows=None):
        data = np.zeros((len(seq.ids), self.vocab_size))
        for pos, row in self.rows.items():
            data[pos] = row
        return Tensor(data if rows is None else data[rows])


def test_build_prompt_places_requested_mask_slots(vocab):
    template = PromptTemplate(prefix="", suffix="这属于{}科", mask_slot_count=2)
    seq, slots = build_prompt("头痛", template, vocab, max_len=16)
    assert len(slots) == 2
    assert [seq.ids[s] for s in slots] == [MASK_ID, MASK_ID]
    # layout: [CLS] 头 痛 这 属 于 [MASK] [MASK] 科 [SEP]
    assert slots == [6, 7]
    assert seq.ids[slots[1] + 1] == vocab.id_of("科")


def test_build_prompt_empty_suffix_puts_masks_before_sep(vocab):
    template = PromptTemplate(prefix="", suffix="", mask_slot_count=2)
    seq, slots = build_prompt("头痛", template, vocab, max_len=10)
    sep_pos = seq.ids.index(SEP_ID)
    assert slots == [sep_pos - 2, sep_pos - 1]


def test_build_prompt_deterministic(vocab):
    template = PromptTemplate(suffix="这属于{}科", mask_slot_count=1)
    a = build_prompt("发烧", template, vocab, max_len=16)
    b = build_prompt("发烧", template, vocab, max_len=16)
    assert a[0].ids == b[0].ids and a[1] == b[1]


def test_build_prompt_truncates_question_first(vocab):
    template = PromptTemplate(suffix="这属于{}科", mask_slot_count=1)
    # fixed parts: 这属于 + 1 slot + 科 = 5, plus [CLS]/[SEP] = 7; room = 3
    seq, slots = build_prompt("头痛发烧咳嗽", template, vocab, max_len=10)
    assert len(seq.ids) == 10
    decoded_front = [seq.ids[1], seq.ids[2], seq.ids[3]]
    assert decoded_front == [vocab.id_of("头"), vocab.id_of("痛"), vocab.id_of("发")]


def test_build_prompt_template_too_large_is_config_error(vocab):
    template = PromptTemplate(suffix="这属于{}科", mask_slot_count=3)
    with pytest.raises(PromptError):
        build_prompt("头痛", template, vocab, max_len=8)


def test_build_prompt_requires_question(vocab):
    with pytest.raises(PromptError):
        build_prompt("", PromptTemplate(mask_slot_count=1), vocab, max_len=8)


def test_verbalizer_pads_to_common_width(vocab):
    verb = Verbalizer.from_surfaces({"内科": "内科", "骨": "骨"}, vocab)
    assert verb.mask_slot_count == 2
    assert verb.label_tokens["骨"] == [vocab.id_of("骨"), PAD_ID]


def test_verbalizer_rejects_identical_surfaces(vocab):
    with pytest.raises(PromptError):
        Verbalizer.from_surfaces({"a": "内科", "b": "内科"}, vocab)


def test_score_labels_hand_arithmetic(vocab):
    verb = Verbalizer.from_surfaces({"甲": "甲", "乙": "乙"}, vocab)
    template = PromptTemplate(suffix="", mask_slot_count=1)
    seq, slots = build_prompt("头痛", template, vocab, max_len=8)
    probs = np.full(vocab.size, 1e-9)
    probs[vocab.id_of("甲")] = 0.6
    probs[vocab.id_of("乙")] = 0.3
    probs /= probs.sum()
    stub = StubModel({slots[0]: np.log(probs).tolist()}, len(seq.ids), vocab.size)
    [scores] = score_labels(stub, TokenBatch.stack([seq]), [slots], verb)
    assert scores["甲"] == pytest.approx(math.log(probs[vocab.id_of("甲")]), abs=1e-9)
    assert scores["乙"] == pytest.approx(math.log(probs[vocab.id_of("乙")]), abs=1e-9)


def test_score_labels_two_slot_sum(vocab):
    verb = Verbalizer.from_surfaces({"内科": "内科", "骨科": "骨科"}, vocab)
    template = PromptTemplate(suffix="", mask_slot_count=2)
    seq, slots = build_prompt("头痛", template, vocab, max_len=10)
    row0 = np.zeros(vocab.size)
    row0[vocab.id_of("内")] = 2.0
    row1 = np.zeros(vocab.size)
    row1[vocab.id_of("科")] = 1.0
    stub = StubModel({slots[0]: row0, slots[1]: row1}, len(seq.ids), vocab.size)
    [scores] = score_labels(stub, TokenBatch.stack([seq]), [slots], verb)

    def logsumexp(row):
        m = row.max()
        return m + math.log(np.exp(row - m).sum())

    expected_nei = (row0[vocab.id_of("内")] - logsumexp(row0)) + (row1[vocab.id_of("科")] - logsumexp(row1))
    assert scores["内科"] == pytest.approx(expected_nei, abs=1e-9)


def test_score_labels_confident_model_scores_zero(vocab):
    verb = Verbalizer.from_surfaces({"甲": "甲", "乙": "乙"}, vocab)
    template = PromptTemplate(suffix="", mask_slot_count=1)
    seq, slots = build_prompt("头痛", template, vocab, max_len=8)
    row = np.zeros(vocab.size)
    row[vocab.id_of("甲")] = 1000.0
    stub = StubModel({slots[0]: row}, len(seq.ids), vocab.size)
    [scores] = score_labels(stub, TokenBatch.stack([seq]), [slots], verb)
    assert scores["甲"] == pytest.approx(0.0, abs=1e-9)
    assert scores["乙"] < -100


def test_uniform_model_ties_break_lexicographically(vocab):
    enc = _encoder(vocab)
    for p in enc.params.values():
        p.data = np.zeros_like(p.data)
    verb = Verbalizer.from_surfaces({"乙": "乙", "甲": "甲"}, vocab)
    template = PromptTemplate(suffix="", mask_slot_count=1)
    [choice] = predict(enc, ["头痛"], template, verb, vocab, max_len=12)
    assert choice == min("甲", "乙")  # code-point order: 乙 (U+4E59) sorts first


def test_single_label_verbalizer_always_wins(vocab):
    enc = _encoder(vocab, seed=5)
    verb = Verbalizer.from_surfaces({"内科": "内科"}, vocab)
    template = PromptTemplate(suffix="这属于{}科", mask_slot_count=verb.mask_slot_count)
    assert predict(enc, ["头痛"], template, verb, vocab, max_len=20) == ["内科"]


def test_predict_matches_restricted_argmax_for_single_token_labels(vocab):
    template = PromptTemplate(suffix="", mask_slot_count=1)
    surfaces = {"甲": "甲", "乙": "乙", "丙": "丙"}
    verb = Verbalizer.from_surfaces(surfaces, vocab)
    for seed in range(20):
        enc = _encoder(vocab, seed=seed)
        seq, slots = build_prompt("头痛发烧", template, vocab, max_len=12)
        logits = enc.mlm_logits(TokenBatch.stack([seq])).data[slots[0]]
        candidates = sorted(surfaces)
        best = max(candidates, key=lambda lab: (logits[vocab.id_of(surfaces[lab])], ))
        ties = [lab for lab in candidates if logits[vocab.id_of(surfaces[lab])] == logits[vocab.id_of(surfaces[best])]]
        expected = min(ties)
        assert predict(enc, ["头痛发烧"], template, verb, vocab, max_len=12) == [expected]


def test_predict_invariant_to_verbalizer_order(vocab):
    enc = _encoder(vocab, seed=6)
    template = PromptTemplate(suffix="", mask_slot_count=1)
    fwd = Verbalizer.from_surfaces({"甲": "甲", "乙": "乙", "丙": "丙"}, vocab)
    rev = Verbalizer.from_surfaces({"丙": "丙", "乙": "乙", "甲": "甲"}, vocab)
    assert predict(enc, ["咳嗽"], template, fwd, vocab, 12) == predict(enc, ["咳嗽"], template, rev, vocab, 12)


def test_predict_rejects_a_bare_string(vocab):
    enc = _encoder(vocab, seed=6)
    template = PromptTemplate(suffix="", mask_slot_count=1)
    verb = Verbalizer.from_surfaces({"甲": "甲", "乙": "乙"}, vocab)
    with pytest.raises(PromptError, match="list of questions"):
        predict(enc, "咳嗽", template, verb, vocab, 12)

def test_pad_slot_flag_changes_short_label_scores(vocab):
    enc = _encoder(vocab, seed=7)
    verb = Verbalizer.from_surfaces({"内科": "内科", "骨": "骨"}, vocab)
    template = PromptTemplate(suffix="", mask_slot_count=verb.mask_slot_count)
    seq, slots = build_prompt("头痛", template, vocab, max_len=12)
    [with_pads] = score_labels(enc, TokenBatch.stack([seq]), [slots], verb, include_pad_slots=True)
    [without] = score_labels(enc, TokenBatch.stack([seq]), [slots], verb, include_pad_slots=False)
    assert with_pads["内科"] == without["内科"]  # full-length label unaffected
    assert with_pads["骨"] != without["骨"]


def test_pad_slots_shift_equal_length_labels_identically(vocab):
    # labels of the same true length receive the same pad contribution, so
    # their score gap is independent of whether pads are counted
    enc = _encoder(vocab, seed=9)
    verb = Verbalizer.from_surfaces({"内": "内", "外": "外", "长名称": "内外骨"}, vocab)
    template = PromptTemplate(suffix="", mask_slot_count=verb.mask_slot_count)
    seq, slots = build_prompt("咳嗽", template, vocab, max_len=12)
    [with_pads] = score_labels(enc, TokenBatch.stack([seq]), [slots], verb, include_pad_slots=True)
    [without] = score_labels(enc, TokenBatch.stack([seq]), [slots], verb, include_pad_slots=False)
    gap_with = with_pads["内"] - with_pads["外"]
    gap_without = without["内"] - without["外"]
    assert gap_with == pytest.approx(gap_without, abs=1e-12)


def test_train_prompt_initial_loss_matches_uniform_analysis(vocab):
    enc = _encoder(vocab, max_len=16)
    for p in enc.params.values():
        p.data = np.zeros_like(p.data)
    verb = Verbalizer.from_surfaces({"内科": "内科", "骨科": "骨科"}, vocab)
    template = PromptTemplate(suffix="", mask_slot_count=2)
    data = [("头痛发烧", "内科"), ("咳嗽", "骨科")]
    history = train_prompt(enc, data, template, verb, vocab, 16, TrainConfig(epochs=1, lr=0.0, batch_size=2, seed=0))
    expected = verb.mask_slot_count * math.log(vocab.size)
    assert history.rows[0]["loss"] == pytest.approx(expected, abs=1e-9)


def test_train_prompt_overfits_two_classes(vocab):
    enc = _encoder(vocab, seed=8, hidden=16, max_len=16)
    verb = Verbalizer.from_surfaces({"内科": "内科", "骨科": "骨科"}, vocab)
    template = PromptTemplate(suffix="这属于{}科", mask_slot_count=verb.mask_slot_count)
    data = [("头痛发烧", "内科"), ("发烧咳嗽", "内科"), ("甲乙丙", "骨科"), ("乙丙甲", "骨科")]
    cfg = TrainConfig(epochs=100, lr=0.01, batch_size=4, seed=8, stop_at_train_acc=1.0)
    train_prompt(enc, data, template, verb, vocab, 16, cfg)
    for question, label in data:
        assert predict(enc, [question], template, verb, vocab, 16) == [label]


def test_train_prompt_lr_honored_in_history(vocab):
    enc = _encoder(vocab)
    verb = Verbalizer.from_surfaces({"甲": "甲", "乙": "乙"}, vocab)
    template = PromptTemplate(suffix="", mask_slot_count=1)
    history = train_prompt(enc, [("头痛", "甲")], template, verb, vocab, 12, TrainConfig(epochs=2, lr=2e-5, batch_size=1, seed=0))
    assert all(row["lr"] == 2e-5 for row in history.rows)


def test_train_prompt_rejects_unknown_label(vocab):
    enc = _encoder(vocab)
    verb = Verbalizer.from_surfaces({"甲": "甲"}, vocab)
    template = PromptTemplate(suffix="", mask_slot_count=1)
    with pytest.raises(ValueError):
        train_prompt(enc, [("头痛", "未知")], template, verb, vocab, 12, TrainConfig(epochs=1, lr=2e-5))


def test_score_labels_builds_no_graph(vocab, monkeypatch):
    enc = _encoder(vocab, seed=7)
    verb = Verbalizer.from_surfaces({"内科": "内科", "骨": "骨"}, vocab)
    template = PromptTemplate(suffix="", mask_slot_count=verb.mask_slot_count)
    seq, slots = build_prompt("头痛", template, vocab, max_len=12)
    batch = TokenBatch.stack([seq])
    logits = enc.mlm_logits(batch)
    assert logits.requires_grad
    logprobs = log_softmax(nm.take_rows(logits, slots), axis=-1).data
    expected = {label: sum(float(logprobs[i, t]) for i, t in enumerate(toks)) for label, toks in verb.label_tokens.items()}
    real = enc.mlm_logits
    seen = []
    monkeypatch.setattr(enc, "mlm_logits", lambda *args: seen.append(real(*args)) or seen[-1])
    assert score_labels(enc, batch, [slots], verb) == [expected]
    assert seen and all(not t.requires_grad and t._parents == () for t in seen)
    assert all(p.grad is None and p._parents == () for p in enc.params.values())
