"""Batched training and inference against the per-sample computations they
replaced: every trainer's batch loss and every parameter gradient must equal
the per-sample oracle in tests/oracles.py within 1e-10, on ragged batches
whose lengths run from the shortest possible sequence to max_len."""

import dataclasses

import numpy as np
import pytest

from medkit import genmetrics as gm
from medkit import numerics as nm
from medkit import triage
from medkit.encoder import Encoder, EncoderConfig, mask_tokens, mlm_loss
from medkit.generator import Decoder, DecoderConfig, lm_loss
from medkit.numerics import Rng, Tensor
from medkit.prompt import PromptTemplate, Verbalizer, build_prompt, predict, slot_loss
from medkit.tokenizer import MASK_ID, NUM_RESERVED, UNK_ID, TokenBatch, TokenSequence, build_vocab, encode
from medkit.triage import TriageConfig, TriageHead, predict_labels, supervised_loss, train_supervised

from oracles import (
    attention,
    attention_ops,
    getitem,
    grad_check,
    lm_loss_per_sample,
    lstm_direction_ops,
    mlm_loss_per_sample,
    padded,
    slot_loss_per_sample,
    states_ops,
    supervised_loss_per_sample,
    tensor_sum,
)

MAX_LEN = 12
# "" encodes to [CLS] [SEP] alone; the last text fills max_len exactly
TEXTS = ["甲乙丙", "", "丁戊己庚辛壬癸子", "乙", "丙丁戊己庚辛壬癸子丑寅卯", "甲乙"]


@pytest.fixture()
def vocab():
    return build_vocab(["甲乙丙丁戊己庚辛壬癸子丑寅卯这属于科内外"])


def _encoder(vocab, seed=0, max_len=MAX_LEN):
    cfg = EncoderConfig(vocab_size=vocab.size, max_len=max_len, hidden_dim=8, num_layers=2, num_heads=2, ffn_dim=16)
    return Encoder(cfg, Rng(seed).spawn("enc"))


def _loss_and_grads(loss_fn, params):
    nm.zero_grads(params.values())
    loss = loss_fn()
    nm.backward(loss)
    return loss.item(), {name: np.zeros_like(p.data) if p.grad is None else p.grad.copy() for name, p in params.items()}


def _assert_equal_within_1e10(batched, oracle):
    (loss_b, grads_b), (loss_o, grads_o) = batched, oracle
    assert abs(loss_b - loss_o) <= 1e-10
    for name in grads_o:
        assert np.max(np.abs(grads_b[name] - grads_o[name])) <= 1e-10, name


def test_token_batch_lays_real_tokens_end_to_end(vocab):
    seqs = [encode(text, vocab, max_len=MAX_LEN) for text in TEXTS]
    batch = TokenBatch.stack(seqs)
    lengths = [len(seq.ids) for seq in seqs]
    assert batch.lengths.tolist() == lengths == [5, 2, 10, 3, 12, 4]
    assert batch.ids.tolist() == [i for seq in seqs for i in seq.ids]
    assert batch.starts.tolist() == [0, 5, 7, 17, 20, 32]
    assert batch.positions.tolist() == [p for n in lengths for p in range(n)]
    assert batch.attention_mask.all() and len(batch.attention_mask) == len(batch.ids) == 36


def test_packed_sequence_matches_padded_oracle(vocab):
    # a sequence runs alone as a batch of one, never padded; the oracle runs it
    # as it was laid out before: padded to max_len, the padding masked as keys
    enc = _encoder(vocab, seed=9)
    for text in TEXTS:
        seq = encode(text, vocab, max_len=MAX_LEN)
        out = enc.encode(TokenBatch.stack([seq]))
        oracle = states_ops(enc, *padded(seq.ids, MAX_LEN)).data[: len(seq.ids)]
        assert out.token_reps.shape == oracle.shape and out.cls_vector.shape == (1, oracle.shape[1])
        assert np.max(np.abs(out.token_reps.data - oracle)) <= 1e-10
        assert np.max(np.abs(out.cls_vector.data[0] - oracle[0])) <= 1e-10


def test_embed_score_matches_padded_oracle(vocab):
    enc = _encoder(vocab, seed=10)

    def vectors(text):  # content and [UNK] rows of the padded oracle's states
        seq = encode(text, vocab, max_len=MAX_LEN)
        states = states_ops(enc, *padded(seq.ids, MAX_LEN)).data
        return [states[i] for i, tok in enumerate(seq.ids) if tok >= NUM_RESERVED or tok == UNK_ID]

    def cosine(u, v):
        return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))

    texts = TEXTS + ["甲?乙"]  # '?' is outside the vocab and encodes to [UNK]
    for cand, ref in zip(texts, texts[1:] + texts[:1]):
        a, b = vectors(cand), vectors(ref)
        if not a or not b:
            expected = (0.0, 0.0, 0.0)
        else:
            sims = [[max(cosine(u, v), 0.0) for v in b] for u in a]
            p = sum(max(row) for row in sims) / len(a)
            r = sum(max(col) for col in zip(*sims)) / len(b)
            expected = (p, r, 2 * p * r / (p + r) if p + r > 0 else 0.0)
        got = gm.embed_score(cand, ref, enc, vocab)
        assert np.max(np.abs(np.array(got) - expected)) <= 1e-12, (cand, ref)


def test_mlm_batch_matches_per_sample_oracle(vocab):
    enc = _encoder(vocab, seed=1)
    rng = Rng(2)
    batch = [mask_tokens(encode(text, vocab, max_len=MAX_LEN), 0.5, rng, vocab.size) for text in TEXTS]
    corrupted, positions, originals = batch[0]
    if not positions:  # keep at least the first sample in the loss
        ids = list(corrupted.ids)
        originals, positions, ids[1] = [ids[1]], [1], MASK_ID
        batch[0] = (TokenSequence(ids), positions, originals)
    assert not batch[1][1]  # [CLS] [SEP] has nothing to mask and drops out of the batch
    batched = _loss_and_grads(lambda: mlm_loss(enc, batch), enc.params)
    _assert_equal_within_1e10(batched, _loss_and_grads(lambda: mlm_loss_per_sample(enc, batch), enc.params))


def test_triage_batch_matches_per_sample_oracle(vocab):
    enc = _encoder(vocab, seed=3)
    head = TriageHead(TriageConfig(hidden_dim=8, num_classes=3), Rng(3).spawn("head"))
    batch = [(encode(text, vocab, max_len=MAX_LEN), i % 3) for i, text in enumerate(TEXTS)]
    params = {**{f"encoder.{k}": v for k, v in enc.params.items()}, **{f"head.{k}": v for k, v in head.params.items()}}
    batched = _loss_and_grads(lambda: supervised_loss(enc, head, batch)[0], params)
    _assert_equal_within_1e10(batched, _loss_and_grads(lambda: supervised_loss_per_sample(enc, head, batch), params))
    assert supervised_loss(enc, head, batch)[1] == len(batch)


def test_prompt_batch_matches_per_sample_oracle(vocab):
    enc = _encoder(vocab, seed=4, max_len=16)
    verbalizer = Verbalizer.from_surfaces({"内科": "内科", "外": "外"}, vocab)
    template = PromptTemplate(suffix="这属于{}科", mask_slot_count=verbalizer.mask_slot_count)
    questions = ["甲", "甲乙丙丁戊己庚辛壬癸子丑寅卯", "乙丙", "丁戊己庚"]  # the second fills max_len
    batch = [(*build_prompt(q, template, vocab, 16), verbalizer.label_tokens["内科" if i % 2 else "外"]) for i, q in enumerate(questions)]
    assert len(batch[1][0].ids) == 16
    batched = _loss_and_grads(lambda: slot_loss(enc, batch)[0], enc.params)
    _assert_equal_within_1e10(batched, _loss_and_grads(lambda: slot_loss_per_sample(enc, batch), enc.params))


def test_lm_batch_matches_per_sample_oracle(vocab):
    cfg = DecoderConfig(vocab_size=vocab.size, hidden_dim=8, num_layers=2, num_heads=2, ffn_dim=16, context_window=16)
    model = Decoder(cfg, Rng(5).spawn("dec"))
    rng = Rng(6)
    items = []
    for n in (2, 7, 16, 4):  # the shortest sequence with a target, and one filling the window
        seq = [int(t) for t in rng.integers(7, vocab.size, n)]
        mask = [False] + [bool(m) for m in rng.uniform(0, 1, n - 1) < 0.6]
        mask[-1] = True
        items.append((seq, mask))
    ids = np.concatenate([seq for seq, _ in items])
    mask = np.concatenate([m for _, m in items])
    batched = _loss_and_grads(lambda: lm_loss(model, ids, mask, lengths=[len(seq) for seq, _ in items]), model.params)
    _assert_equal_within_1e10(batched, _loss_and_grads(lambda: lm_loss_per_sample(model, items), model.params))


def test_lm_loss_batch_rejects_a_sequence_without_targets():
    vocab = build_vocab(["甲乙丙"])
    model = Decoder(DecoderConfig(vocab_size=vocab.size, hidden_dim=4, num_layers=1, num_heads=1, context_window=8), Rng(0))
    with pytest.raises(ValueError):
        lm_loss(model, [7, 8, 9, 7, 8], [False, True, True, True, False], lengths=[3, 2])


@pytest.mark.parametrize("causal", [False, True], ids=["full", "causal"])
def test_attention_batch_matches_per_sequence_oracle(causal):
    rng = Rng(70)
    lengths = [3, 1, 6, 4]  # 1 and the longest included
    arrays = [rng.normal(size=(sum(lengths), 8))] + [rng.normal(scale=0.5, size=(8, 4)) for _ in range(6)]
    keep = np.tril(np.ones((6, 6), dtype=bool)) if causal else True
    weights = Tensor(rng.normal(size=(sum(lengths), 8)))
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = attention(leaves[0], leaves[1:3], leaves[3:5], leaves[5:7], keep, lengths=lengths)
    nm.backward(tensor_sum(out * weights))
    oracle_leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    pieces, start = [], 0
    for n in lengths:
        x = getitem(oracle_leaves[0], slice(start, start + n))
        pieces.append(attention_ops(x, oracle_leaves[1:3], oracle_leaves[3:5], oracle_leaves[5:7], np.tril(np.ones((n, n), dtype=bool)) if causal else np.ones((n, n), dtype=bool)))
        start += n
    expected = nm.concat(pieces, axis=0)
    nm.backward(tensor_sum(expected * weights))
    assert np.max(np.abs(out.data - expected.data)) <= 1e-10
    for leaf, oracle in zip(leaves, oracle_leaves):
        assert np.max(np.abs(leaf.grad - oracle.grad)) <= 1e-10


@pytest.mark.parametrize("reverse", [False, True], ids=["fwd", "bwd"])
def test_lstm_batch_matches_per_sequence_oracle(reverse):
    rng = Rng(71)
    lengths = [4, 1, 7, 2]
    arrays = [rng.normal(size=(sum(lengths), 3)), rng.normal(scale=0.5, size=(3, 8)), rng.normal(scale=0.5, size=(2, 8)), rng.normal(scale=0.5, size=8)]
    weights = Tensor(rng.normal(size=(sum(lengths), 2)))
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out, final = triage.lstm_direction(*leaves, reverse=reverse, lengths=lengths)
    nm.backward(tensor_sum(out * weights))
    oracle_leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    ends = np.cumsum(lengths)
    expected = nm.concat([lstm_direction_ops(getitem(oracle_leaves[0], slice(e - n, e)), *oracle_leaves[1:], reverse) for n, e in zip(lengths, ends)], axis=0)
    nm.backward(tensor_sum(expected * weights))
    assert np.max(np.abs(out.data - expected.data)) <= 1e-10
    assert np.array_equal(final.data, out.data[ends - np.array(lengths) if reverse else ends - 1])
    for leaf, oracle in zip(leaves, oracle_leaves):
        assert np.max(np.abs(leaf.grad - oracle.grad)) <= 1e-10


@pytest.mark.parametrize("causal", [False, True], ids=["full", "causal"])
def test_batched_attention_matches_finite_differences(causal):
    rng = Rng(72)
    lengths = [2, 1, 5]
    x = Tensor(rng.normal(size=(8, 4)), requires_grad=True)
    wq, wk, wv = ([Tensor(rng.normal(scale=0.5, size=(4, 2)), requires_grad=True) for _ in range(2)] for _ in range(3))
    keep = np.tril(np.ones((5, 5), dtype=bool)) if causal else True
    weights = Tensor(rng.normal(size=(8, 4)))

    def loss_fn():
        return tensor_sum(attention(x, wq, wk, wv, keep, lengths=lengths) * weights)

    params = {"x": x, **{f"w{kind}{h}": w for kind, ws in zip("qkv", (wq, wk, wv)) for h, w in enumerate(ws)}}
    assert grad_check(loss_fn, params, eps=1e-5, max_entries_per_param=6, rng=Rng(0)) < 1e-5


@pytest.mark.parametrize("reverse", [False, True], ids=["fwd", "bwd"])
def test_batched_lstm_matches_finite_differences(reverse):
    rng = Rng(73)
    lengths = [3, 1, 5]
    x = Tensor(rng.normal(size=(9, 3)), requires_grad=True)
    wx = Tensor(rng.normal(scale=0.5, size=(3, 8)), requires_grad=True)
    wh = Tensor(rng.normal(scale=0.5, size=(2, 8)), requires_grad=True)
    b = Tensor(rng.normal(size=8), requires_grad=True)
    weights = Tensor(rng.normal(size=(9, 2)))

    def loss_fn():
        return tensor_sum(nm.lstm(x, wx, wh, b, reverse, lengths) * weights)

    assert grad_check(loss_fn, {"x": x, "wx": wx, "wh": wh, "b": b}, eps=1e-5, max_entries_per_param=6, rng=Rng(0)) < 1e-5


def test_ragged_lengths_must_split_the_rows():
    x = Tensor(np.zeros((5, 2)))
    with pytest.raises(nm.ShapeError):
        nm.lstm(x, Tensor(np.zeros((2, 8))), Tensor(np.zeros((2, 8))), Tensor(np.zeros(8)), lengths=[2, 2])
    with pytest.raises(nm.ShapeError):
        attention(x, [Tensor(np.zeros((2, 2)))] * 1, [Tensor(np.zeros((2, 2)))], [Tensor(np.zeros((2, 2)))], True, lengths=[5, 0])


def test_predictions_do_not_depend_on_batch_size(vocab):
    enc = _encoder(vocab, seed=7)
    head = TriageHead(TriageConfig(hidden_dim=8, num_classes=3), Rng(7).spawn("head"))
    seqs = [encode(text, vocab, max_len=MAX_LEN) for text in TEXTS * 2]
    assert predict_labels(enc, head, seqs, batch_size=1) == predict_labels(enc, head, seqs, batch_size=5)
    verbalizer = Verbalizer.from_surfaces({"甲": "甲", "乙": "乙", "丙": "丙"}, vocab)
    template = PromptTemplate(suffix="", mask_slot_count=1)
    questions = [text or "丁" for text in TEXTS]
    assert predict(enc, questions, template, verbalizer, vocab, MAX_LEN) == [predict(enc, [q], template, verbalizer, vocab, MAX_LEN)[0] for q in questions]


def test_train_supervised_divergence_rolls_back_to_last_completed_epoch(monkeypatch, caplog):
    vocab = build_vocab(["甲乙丙东南西北"])
    data = [(encode(char * 3 + "东南西北"[i % 4], vocab, max_len=MAX_LEN), label) for label, char in enumerate("甲乙丙") for i in range(2)]
    cfg = nm.TrainConfig(epochs=1, lr=1e-2, batch_size=3, seed=8)  # two steps per epoch

    def run(epochs):
        enc = _encoder(vocab, seed=8)
        head = TriageHead(TriageConfig(hidden_dim=8, num_classes=3), Rng(8).spawn("head"))
        history = train_supervised(enc, head, data, dataclasses.replace(cfg, epochs=epochs), lr_encoder=1e-2)
        return history, {**{f"e.{k}": v.data for k, v in enc.params.items()}, **{f"h.{k}": v.data for k, v in head.params.items()}}

    one_epoch, after_first = run(1)
    real, calls = triage.supervised_loss, []

    def overflows_in_second_batch_of_second_epoch(*args):
        calls.append(None)
        if len(calls) == 4:  # after the second epoch's first step
            raise nm.NumericsError("non-finite values in tensor")
        return real(*args)

    monkeypatch.setattr(triage, "supervised_loss", overflows_in_second_batch_of_second_epoch)
    with caplog.at_level("ERROR"):
        history, params = run(3)
    assert history.aborted and len(history.rows) == 1
    assert history.rows[0]["loss"] == one_epoch.rows[0]["loss"]
    assert all(np.array_equal(params[name], after_first[name]) for name in after_first)
    assert any("rolling back" in rec.message for rec in caplog.records)
