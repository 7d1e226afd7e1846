from types import SimpleNamespace

import numpy as np
import pytest

from medkit import numerics as nm
from medkit import triage
from medkit.encoder import Encoder, EncoderConfig, EncoderOutput
from medkit.numerics import Tensor, TrainConfig
from medkit.tokenizer import TokenBatch, build_vocab, encode
from medkit.triage import (
    TriageConfig,
    TriageHead,
    bilstm,
    dendrite,
    evaluate,
    predict_labels,
    train_supervised,
)

from oracles import bf_confusion_metrics, bf_dendrite, grad_check, lstm_direction_ops, softmax, tensor_sum


@pytest.fixture()
def vocab():
    return build_vocab(["甲乙丙丁戊己庚辛东南西北风雨雷电"])


def _encoder(vocab, hidden=8, seed=0):
    cfg = EncoderConfig(vocab_size=vocab.size, max_len=12, hidden_dim=hidden, num_layers=1, num_heads=2, ffn_dim=2 * hidden)
    return Encoder(cfg, nm.spawn(seed, "enc"))


def _head(hidden=8, classes=3, seed=0, **kw):
    cfg = TriageConfig(hidden_dim=hidden, num_classes=classes, **kw)
    return TriageHead(cfg, nm.spawn(seed, "head"))


def _batch(vocab, *texts):
    return TokenBatch.stack([encode(text, vocab, max_len=10) for text in texts])


def test_bilstm_output_dim_is_twice_hidden(vocab):
    enc = _encoder(vocab)
    head = _head()
    batch = _batch(vocab, "甲乙丙")
    out = bilstm(enc.encode(batch).token_reps, batch.lengths, head.params, head.config.num_lstm_layers)
    assert out.shape == (1, 16)


def test_bilstm_zero_parameters_give_zero_output(vocab):
    enc = _encoder(vocab)
    head = _head()
    for name, p in head.params.items():
        if name.startswith("lstm"):
            p.data = np.zeros_like(p.data)
    batch = _batch(vocab, "甲乙丙丁")
    out = bilstm(enc.encode(batch).token_reps, batch.lengths, head.params, head.config.num_lstm_layers)
    assert np.array_equal(out.data, np.zeros((1, 16)))


def test_bilstm_needs_a_real_token(vocab):
    head = _head()
    reps = Tensor(np.zeros((4, 8)))
    with pytest.raises(ValueError):
        bilstm(reps, [4, 0], head.params, head.config.num_lstm_layers)


def test_bilstm_rejects_a_boolean_mask_as_lengths():
    head = _head()
    with pytest.raises(nm.ShapeError, match="do not split"):
        bilstm(Tensor(np.zeros((5, 8))), [True] * 5, head.params, head.config.num_lstm_layers)

def test_bilstm_ignores_neighbouring_sequences(vocab):
    enc = _encoder(vocab)
    head = _head()
    batch = _batch(vocab, "甲乙", "丙丁戊")
    reps = enc.encode(batch).token_reps
    out1 = bilstm(reps, batch.lengths, head.params, head.config.num_lstm_layers)
    tampered = reps.data.copy()
    tampered[6] += 100.0  # a row of the second sequence
    out2 = bilstm(Tensor(tampered), batch.lengths, head.params, head.config.num_lstm_layers)
    assert np.array_equal(out1.data[0], out2.data[0])
    assert not np.array_equal(out1.data[1], out2.data[1])


def test_bilstm_gradient_check(vocab):
    head = _head(hidden=4)
    rng = np.random.default_rng(3)
    reps = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    weights = rng.normal(size=8)

    def loss_fn():
        out = bilstm(reps, [5], head.params, head.config.num_lstm_layers)
        return tensor_sum(out * Tensor(weights))

    params = {"reps": reps}
    params.update({k: v for k, v in head.params.items() if k.startswith("lstm")})
    err = grad_check(loss_fn, params, eps=1e-4, max_entries_per_param=2, rng=np.random.default_rng(0))
    assert err < 1e-4


@pytest.mark.parametrize("reverse", [False, True], ids=["fwd", "bwd"])
@pytest.mark.parametrize("seq_len", [1, 64])
@pytest.mark.parametrize("in_mult", [1, 2], ids=["in=k", "in=2k"])
def test_lstm_direction_matches_op_by_op_oracle(reverse, seq_len, in_mult):
    k = 5
    rng = np.random.default_rng(20 + seq_len + in_mult)
    arrays = [
        rng.normal(size=(seq_len, in_mult * k)),
        rng.normal(scale=0.5, size=(in_mult * k, 4 * k)),
        rng.normal(scale=0.5, size=(k, 4 * k)),
        rng.normal(scale=0.5, size=4 * k),
    ]
    weights = Tensor(rng.normal(size=(seq_len, k)))
    results = []
    for run in (lambda *leaves: triage.lstm_direction(*leaves, reverse=reverse), lambda *leaves: (lstm_direction_ops(*leaves, reverse), None)):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out, final = run(*leaves)
        nm.backward(tensor_sum(out * weights))
        results.append([out.data] + [leaf.grad for leaf in leaves])
        if final is not None:  # the state after the last step taken
            assert np.array_equal(final.data, out.data[[0 if reverse else -1]])
    for name, fused, oracle in zip(["outputs", "x", "wx", "wh", "b"], *results):
        assert fused.shape == oracle.shape
        assert np.max(np.abs(fused - oracle)) <= 1e-10, name


@pytest.mark.parametrize("forward", [nm.lstm, lstm_direction_ops], ids=["fused", "oracle"])
def test_lstm_overflowing_input_weights_raise(forward):
    x = Tensor(np.full((3, 2), 10.0))
    wx = Tensor(np.full((2, 8), 1e308), requires_grad=True)
    with pytest.raises(nm.NumericsError):
        forward(x, wx, Tensor(np.zeros((2, 8))), Tensor(np.zeros(8)), False)


def test_bilstm_calls_lstm_direction_twice_per_layer(monkeypatch):
    real = triage.lstm_direction
    directions = []

    def counted(*args, **kwargs):
        directions.append(kwargs["reverse"])
        return real(*args, **kwargs)

    monkeypatch.setattr(triage, "lstm_direction", counted)
    head = _head(hidden=4, num_lstm_layers=3)
    bilstm(Tensor(np.ones((5, 4))), [5], head.params, head.config.num_lstm_layers)
    assert directions == [False, True] * 3


def test_head_fuses_summary_with_cls_through_fuse(vocab, monkeypatch):
    """The dendritic stack reads [BiLSTM summary ; CLS]; with the BiLSTM off
    it reads the CLS vector alone."""
    real = triage.dendrite
    inputs = []

    def counted(fused, weight_stack):
        inputs.append(fused.data)
        return real(fused, weight_stack)

    monkeypatch.setattr(triage, "dendrite", counted)
    out = _encoder(vocab).encode(_batch(vocab, "甲乙丙"))
    head = _head()
    head.forward_logits(out)
    summary = bilstm(out.token_reps, out.lengths, head.params, head.config.num_lstm_layers)
    assert [x.shape for x in inputs] == [(1, 24)]
    assert np.array_equal(inputs[0], np.concatenate([summary.data, out.cls_vector.data], axis=1))
    _head(use_bilstm=False).forward_logits(out)  # one feature source: nothing to fuse
    assert len(inputs) == 2 and np.array_equal(inputs[1], out.cls_vector.data)


def test_fuse_concatenates_in_order(vocab):
    """Without the dendritic layers the dense layer reads the fused vector:
    [BiLSTM summary ; CLS], summary first, or the one source that is on."""
    out = _encoder(vocab).encode(_batch(vocab, "甲乙丙", "丁戊"))
    for use_bilstm, use_cls in ((True, True), (True, False), (False, True)):
        head = _head(use_dd=False, use_bilstm=use_bilstm, use_cls=use_cls)
        parts = [bilstm(out.token_reps, out.lengths, head.params, head.config.num_lstm_layers).data] if use_bilstm else []
        fused = np.concatenate(parts + ([out.cls_vector.data] if use_cls else []), axis=1)
        want = fused @ head.params["dense.w"].data + head.params["dense.b"].data
        assert np.array_equal(head.forward_logits(out).data, want)


def test_fuse_zero_inputs():
    # zero token states and [CLS] vectors fuse to zero (the zero-bias LSTM
    # keeps a zero state), the dendritic stack keeps zero, so the logits are the dense bias
    head = _head()
    out = EncoderOutput(Tensor(np.zeros((2, 8))), Tensor(np.zeros((5, 8))), np.array([3, 2]))
    assert np.array_equal(head.forward_logits(out).data, np.tile(head.params["dense.b"].data, (2, 1)))


def test_fuse_width_is_three_hidden(vocab):
    head = _head()
    assert head.config.fused_dim == 3 * 8 and head.params["dd0.w"].shape == (3 * 8, 8)
    out = _encoder(vocab).encode(_batch(vocab, "甲乙丙"))
    assert head.forward_logits(out).shape == (1, 3)  # the fused (1, 24) batch met the first dendritic layer


def test_dendrite_identity_weight_squares():
    out = dendrite(Tensor([[1.0, 2.0, 3.0]]), [Tensor(np.eye(3))])
    assert out.data.tolist() == [[1.0, 4.0, 9.0]]


def test_dendrite_zero_fixed_point():
    stack = [Tensor(np.ones((3, 3))), Tensor(np.ones((3, 3)))]
    out = dendrite(Tensor(np.zeros((1, 3))), stack)
    assert np.array_equal(out.data, np.zeros((1, 3)))


def test_dendrite_hand_sum():
    out = dendrite(Tensor([[1.0, 2.0, 3.0]]), [Tensor([[1.0], [1.0], [1.0]])])
    assert out.data.tolist() == [[14.0]]


def test_dendrite_matches_numpy_oracle():
    rng = np.random.default_rng(4)
    for _ in range(50):
        depth = int(rng.integers(1, 4))
        dims = [int(rng.integers(2, 6)) for _ in range(depth + 1)]
        stack_np = [rng.normal(size=(dims[i], dims[i + 1])) for i in range(depth)]
        vec = rng.normal(size=dims[0])
        mine = dendrite(Tensor(vec[None, :]), [Tensor(w) for w in stack_np]).data[0]
        assert np.allclose(mine, bf_dendrite(vec, stack_np), atol=1e-12)


def test_dendrite_gradient_is_closed_form():
    # single layer: d/dm of W^T(m*m) is 2 diag(m) W
    rng = np.random.default_rng(5)
    m = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    out_weights = rng.normal(size=2)
    loss = tensor_sum(dendrite(m, [w]) * Tensor(out_weights))
    nm.backward(loss)
    expected_m = 2 * m.data * (w.data @ out_weights)
    assert np.allclose(m.grad, expected_m, atol=1e-12)

    def loss_fn():
        return tensor_sum(dendrite(m, [w]) * Tensor(out_weights))

    assert grad_check(loss_fn, {"m": m, "w": w}, eps=1e-5, rng=np.random.default_rng(0)) < 1e-6


def _dense_probs(features: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The softmax of TriageHead.forward_logits for a CLS-only head without
    dendritic layers, whose features are the CLS vector itself:
    softmax(features @ w + b)."""
    head = _head(hidden=features.shape[0], classes=w.shape[1], use_bilstm=False, use_dd=False)
    head.params["dense.w"].data, head.params["dense.b"].data = w, b
    return softmax(head.forward_logits(SimpleNamespace(cls_vector=Tensor(features[None, :]))), axis=-1).data[0]


def test_classify_zero_weights_uniform():
    out = _dense_probs(np.ones(4), np.zeros((4, 5)), np.zeros(5))
    assert np.allclose(out, 0.2, atol=1e-15)


def test_classify_argmax_invariant_to_bias_shift():
    rng = np.random.default_rng(6)
    features = rng.normal(size=4)
    w = rng.normal(size=(4, 3))
    b = rng.normal(size=3)
    first = _dense_probs(features, w, b)
    second = _dense_probs(features, w, b + 10.0)
    assert np.argmax(first) == np.argmax(second)


def test_classify_is_distribution():
    rng = np.random.default_rng(7)
    for _ in range(20):
        out = _dense_probs(rng.normal(size=6), rng.normal(size=(6, 4)), rng.normal(size=4))
        assert abs(out.sum() - 1.0) < 1e-12
        assert np.all(out > 0)


def test_head_forward_is_distribution(vocab):
    enc = _encoder(vocab)
    head = _head()
    probs = softmax(head.forward_logits(enc.encode(_batch(vocab, "甲乙丙丁", "东"))), axis=-1)
    assert np.all(np.abs(probs.data.sum(axis=1) - 1.0) < 1e-12)


def _synthetic_dataset(vocab, per_class=4, classes=("甲", "乙", "丙")):
    data = []
    for label_id, char in enumerate(classes):
        for i in range(per_class):
            text = char * 3 + "东南西北"[i % 4]
            data.append((encode(text, vocab, max_len=10), label_id))
    return data


def test_train_supervised_overfits_small_set(vocab):
    enc = _encoder(vocab, hidden=8, seed=1)
    head = _head(hidden=8, classes=3, seed=1)
    data = _synthetic_dataset(vocab)
    cfg = TrainConfig(epochs=80, lr=2e-2, batch_size=4, seed=1)
    train_supervised(enc, head, data, cfg, lr_encoder=5e-3)
    preds = predict_labels(enc, head, [seq for seq, _ in data])
    assert preds == [label for _, label in data]


def test_predict_labels_builds_no_graph(vocab, monkeypatch):
    enc = _encoder(vocab, seed=5)
    head = _head(seed=5)
    seqs = [seq for seq, _ in _synthetic_dataset(vocab, per_class=2)]
    with_graph = triage._logits(enc, head, seqs)
    assert with_graph.requires_grad
    real = triage._logits
    seen = []
    monkeypatch.setattr(triage, "_logits", lambda *args: seen.append(real(*args)) or seen[-1])
    assert predict_labels(enc, head, seqs) == [int(np.argmax(row)) for row in with_graph.data]
    assert np.array_equal(np.concatenate([t.data for t in seen]), with_graph.data)
    assert all(not t.requires_grad and t._parents == () for t in seen)
    params = list(enc.params.values()) + list(head.params.values())
    assert all(p.grad is None and p._parents == () for p in params)


def test_train_supervised_two_lr_groups_in_state(vocab):
    enc = _encoder(vocab, seed=2)
    head = _head(seed=2)
    data = _synthetic_dataset(vocab, per_class=2)
    cfg = TrainConfig(epochs=1, lr=2e-4, batch_size=4, seed=2)
    header = train_supervised(enc, head, data, cfg, lr_encoder=5e-5).records[0]
    assert header["record"] == "run"
    by_name = {g["name"]: g["lr"] for g in header["groups"]}
    assert by_name == {"head": 2e-4, "encoder": 5e-5}


def test_train_supervised_rejects_out_of_range_label(vocab):
    enc = _encoder(vocab)
    head = _head(classes=2)
    seq = encode("甲乙丙", vocab, max_len=10)
    with pytest.raises(ValueError):
        train_supervised(enc, head, [(seq, 5)], TrainConfig(epochs=1, lr=2e-4), lr_encoder=5e-5)


def test_train_supervised_seeded_reproducibility(vocab):
    results = []
    for _ in range(2):
        enc = _encoder(vocab, seed=3)
        head = _head(seed=3)
        data = _synthetic_dataset(vocab, per_class=2)
        history = train_supervised(enc, head, data, TrainConfig(epochs=3, lr=1e-3, batch_size=4, seed=3), lr_encoder=1e-3)
        results.append(([r["loss"] for r in history.rows], {k: v.data.tobytes() for k, v in head.params.items()}))
    assert results[0] == results[1]


def test_full_pipeline_gradient_check_frozen_and_unfrozen(vocab):
    enc = _encoder(vocab, hidden=4, seed=4)
    cfg = TriageConfig(hidden_dim=4, num_classes=3, num_lstm_layers=1, num_dd_layers=2)
    head = TriageHead(cfg, nm.spawn(4, "head"))
    seq = encode("甲乙丙", vocab, max_len=8)

    def loss_fn():
        logits = head.forward_logits(enc.encode(TokenBatch.stack([seq])))
        return nm.softmax_cross_entropy(logits, [1])

    head_only = dict(head.params)
    assert grad_check(loss_fn, head_only, eps=1e-4, max_entries_per_param=2, rng=np.random.default_rng(0)) < 1e-4
    joint = dict(head.params)
    joint.update(enc.params)
    assert grad_check(loss_fn, joint, eps=1e-4, max_entries_per_param=1, rng=np.random.default_rng(1)) < 1e-4


def test_ablation_configs_change_parameter_counts():
    base = _head(hidden=8, classes=4)
    no_dd = _head(hidden=8, classes=4, use_dd=False)
    no_lstm = _head(hidden=8, classes=4, use_bilstm=False)
    no_cls = _head(hidden=8, classes=4, use_cls=False)
    counts = {sum(p.size for p in h.params.values()) for h in (base, no_dd, no_lstm, no_cls)}
    assert len(counts) == 4


def test_ablation_requires_some_feature():
    with pytest.raises(ValueError):
        TriageConfig(hidden_dim=8, num_classes=2, use_bilstm=False, use_cls=False)


def test_evaluate_perfect_predictions():
    metrics = evaluate([0, 1, 2], [0, 1, 2])
    assert metrics.accuracy == metrics.macro_precision == metrics.macro_recall == metrics.macro_f1 == 1.0


def test_evaluate_hand_confusion_case():
    metrics = evaluate([0, 1, 1], [0, 1, 0])
    assert metrics.accuracy == pytest.approx(2 / 3)
    assert metrics.macro_precision == pytest.approx(0.75)
    assert metrics.macro_recall == pytest.approx(0.75)
    assert metrics.macro_f1 == pytest.approx(2 / 3)
    assert metrics.confusion == {0: {0: 1, 1: 1}, 1: {1: 1}}


def test_evaluate_confusion_rows_sum_to_support():
    rng = np.random.default_rng(8)
    gold = [int(g) for g in rng.integers(0, 4, 60)]
    preds = [int(p) for p in rng.integers(0, 4, 60)]
    metrics = evaluate(preds, gold)
    for cls, row in metrics.confusion.items():
        assert sum(row.values()) == gold.count(cls)


def test_evaluate_matches_bruteforce_oracle():
    rng = np.random.default_rng(9)
    for _ in range(200):
        size = int(rng.integers(1, 30))
        classes = int(rng.integers(2, 6))
        gold = [int(g) for g in rng.integers(0, classes, size)]
        preds = [int(p) for p in rng.integers(0, classes, size)]
        metrics = evaluate(preds, gold)
        acc, prec, rec, f1 = bf_confusion_metrics(preds, gold)
        assert metrics.accuracy == acc
        assert metrics.macro_precision == prec
        assert metrics.macro_recall == rec
        assert metrics.macro_f1 == f1


def test_evaluate_macro_f1_relabeling_invariant():
    rng = np.random.default_rng(10)
    gold = [int(g) for g in rng.integers(0, 4, 50)]
    preds = [int(p) for p in rng.integers(0, 4, 50)]
    base = evaluate(preds, gold)
    perm = {0: 3, 1: 0, 2: 2, 3: 1}
    permuted = evaluate([perm[p] for p in preds], [perm[g] for g in gold])
    assert base.macro_f1 == pytest.approx(permuted.macro_f1, abs=1e-12)
    assert base.accuracy == pytest.approx(permuted.accuracy, abs=1e-12)


def test_evaluate_rejects_empty_or_mismatched():
    with pytest.raises(ValueError):
        evaluate([], [])
    with pytest.raises(ValueError):
        evaluate([1], [1, 2])
