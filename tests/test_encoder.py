import math

import numpy as np
import pytest

from medkit import numerics as nm
from medkit.encoder import (
    Encoder,
    EncoderConfig,
    layer_weights,
    mask_tokens,
    mlm_loss,
    pretrain,
)
from medkit.numerics import Rng, Tensor, TrainConfig
from medkit.tokenizer import MASK_ID, NUM_RESERVED, TokenBatch, TokenSequence, build_vocab, encode

from oracles import attention, grad_check, layer_norm


def tiny_config(vocab_size: int, **kw) -> EncoderConfig:
    defaults = dict(max_len=12, hidden_dim=8, num_layers=1, num_heads=2, ffn_dim=16)
    defaults.update(kw)
    return EncoderConfig(vocab_size=vocab_size, **defaults)


@pytest.fixture()
def vocab():
    return build_vocab(["头痛发烧咳嗽多喝水要休息保暖感冒胃痛温规律abcde"])


def _zero_params(model: Encoder) -> None:
    for p in model.params.values():
        p.data = np.zeros_like(p.data)


def test_embed_is_token_plus_position(vocab):
    enc = Encoder(tiny_config(vocab.size), Rng(0))
    seq = encode("头痛", vocab, max_len=6)
    out = enc.embed(TokenBatch.stack([seq])).data
    tok = enc.params["tok_emb"].data[seq.ids]
    pos = enc.params["pos_emb"].data[: len(seq.ids)]
    assert np.array_equal(out, tok + pos)


def test_embed_rejects_overlong(vocab):
    enc = Encoder(tiny_config(vocab.size, max_len=4), Rng(0))
    seq = encode("头痛发烧", vocab, max_len=8)
    with pytest.raises(ValueError):
        enc.embed(TokenBatch.stack([seq]))


def test_embed_deterministic(vocab):
    enc = Encoder(tiny_config(vocab.size), Rng(0))
    batch = TokenBatch.stack([encode("发烧", vocab, max_len=8)])
    assert np.array_equal(enc.embed(batch).data, enc.embed(batch).data)


def test_attention_single_real_token_returns_its_value_row():
    rng = Rng(5)
    x = Tensor(rng.normal(size=(3, 4)))
    wq = Tensor(rng.normal(size=(4, 2)))
    wk = Tensor(rng.normal(size=(4, 2)))
    wv = Tensor(rng.normal(size=(4, 2)))
    keep = np.array([[True, False, False]] * 3)
    out = attention(x, [wq], [wk], [wv], keep).data
    v0 = (x.data @ wv.data)[0]
    assert np.allclose(out, np.tile(v0, (3, 1)), atol=1e-12)


def test_attention_identical_keys_average_values():
    base = np.array([1.0, -2.0, 0.5, 3.0])
    x = Tensor(np.tile(base, (4, 1)))
    rng = Rng(6)
    wq = Tensor(rng.normal(size=(4, 2)))
    wk = Tensor(rng.normal(size=(4, 2)))
    wv = Tensor(rng.normal(size=(4, 2)))
    out = attention(x, [wq], [wk], [wv], np.ones((4, 4), dtype=bool)).data
    v_row = base @ wv.data
    assert np.allclose(out, np.tile(v_row, (4, 1)), atol=1e-12)


def test_attention_two_token_hand_arithmetic():
    # identity inputs make Q/K/V equal the weight matrices, so every number
    # below is reproducible by hand
    x = Tensor(np.eye(2))
    wq = Tensor([[1.0, 2.0], [3.0, 4.0]])
    wk = Tensor(np.eye(2))
    wv = Tensor([[5.0, 6.0], [7.0, 8.0]])
    out = attention(x, [wq], [wk], [wv], np.ones((2, 2), dtype=bool)).data

    scale = 1 / math.sqrt(2)
    expected = np.empty((2, 2))
    for row, q in enumerate([(1.0, 2.0), (3.0, 4.0)]):
        s = [q[0] * scale, q[1] * scale]  # keys are unit vectors
        m = max(s)
        e = [math.exp(v - m) for v in s]
        w = [v / sum(e) for v in e]
        expected[row] = [w[0] * 5 + w[1] * 7, w[0] * 6 + w[1] * 8]
    assert np.allclose(out, expected, atol=1e-12)


def _attention_weights(scores: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The attention weights attention gives query rows with these key
    scores and kept keys. One head over the n x n identity (n >= both sides)
    makes q_i = wq[i] and k_j = v_j = e_j; keys past the score columns are
    dropped, so output row i is the weights row i."""
    rows, cols = scores.shape
    n = max(rows, cols)
    wq = np.zeros((n, cols))
    wq[:rows] = scores * math.sqrt(cols)  # undoes the 1/sqrt(head_dim) scale
    unit = Tensor(np.eye(n, cols))
    full_keep = np.zeros((n, n), dtype=bool)
    full_keep[:rows, :cols] = keep
    return attention(Tensor(np.eye(n)), [Tensor(wq)], [unit], [unit], full_keep).data[:rows]


def test_masked_softmax_rows_are_distributions():
    rng = Rng(7)
    scores = rng.normal(scale=4.0, size=(50, 9))
    keep = np.asarray(rng.uniform(0, 1, (50, 9)) < 0.6)
    keep[:, 0] = True  # guarantee one live key per row
    weights = _attention_weights(scores, keep)
    assert np.all(np.abs(weights.sum(axis=1) - 1.0) < 1e-12)
    assert np.all(weights[~keep] == 0.0)


def test_masked_softmax_dead_row_falls_back_to_position_zero():
    weights = _attention_weights(np.zeros((2, 4)), np.zeros((2, 4), dtype=bool))
    assert np.array_equal(weights[:, 0], np.ones(2))
    assert np.all(weights[:, 1:] == 0.0)
    rng = Rng(7)
    x = Tensor(rng.normal(size=(3, 4)))
    wq, wk, wv = (Tensor(rng.normal(size=(4, 2))) for _ in range(3))
    out = attention(x, [wq], [wk], [wv], np.zeros((3, 3), dtype=bool)).data
    assert np.allclose(out, np.tile((x.data @ wv.data)[0], (3, 1)), atol=1e-12)  # every row returns value row 0


def test_encoder_layer_with_zero_attention_is_double_layernorm():
    rng = Rng(8)
    params: dict = {}
    from medkit.encoder import init_layer_params

    init_layer_params(rng, 4, 2, 8, "layer0", params)
    for name in ("layer0.attn.wv0", "layer0.attn.wv1", "layer0.attn.wo", "layer0.attn.bo", "layer0.ffn.w1", "layer0.ffn.b1", "layer0.ffn.w2", "layer0.ffn.b2"):
        params[name].data = np.zeros_like(params[name].data)
    x = Tensor(rng.normal(size=(3, 4)))
    out = nm.transformer_layer(x, layer_weights(params, "layer0", 2), 2, np.ones((3, 3), dtype=bool)).data
    ones, zeros = Tensor(np.ones(4)), Tensor(np.zeros(4))
    expected = layer_norm(layer_norm(x, ones, zeros), ones, zeros).data
    assert np.allclose(out, expected, atol=1e-12)


def test_encoder_layer_preserves_shape(vocab):
    enc = Encoder(tiny_config(vocab.size, num_layers=3), Rng(1))
    seq = encode("咳嗽发烧头痛多喝", vocab, max_len=10)  # fills max_len
    out = enc.encode(TokenBatch.stack([seq]))
    assert out.token_reps.shape == (10, 8)
    assert out.cls_vector.shape == (1, 8)


def test_encode_neighbour_content_cannot_leak(vocab):
    enc = Encoder(tiny_config(vocab.size), Rng(2))
    seq = encode("头痛", vocab, max_len=9)
    base = enc.encode(TokenBatch.stack([seq, encode("发烧咳嗽", vocab, max_len=9)]))
    other = enc.encode(TokenBatch.stack([seq, encode("多喝水要", vocab, max_len=9)]))  # same length, other content
    real = len(seq.ids)
    assert np.array_equal(base.cls_vector.data[0], other.cls_vector.data[0])
    assert np.array_equal(base.token_reps.data[:real], other.token_reps.data[:real])


def test_encode_distinguishes_inputs(vocab):
    enc = Encoder(tiny_config(vocab.size), Rng(3))
    a = enc.encode(TokenBatch.stack([encode("头痛", vocab, max_len=8)])).cls_vector.data
    b = enc.encode(TokenBatch.stack([encode("咳嗽", vocab, max_len=8)])).cls_vector.data
    assert not np.allclose(a, b)


def test_encoder_gradient_check(vocab):
    enc = Encoder(tiny_config(vocab.size, hidden_dim=4, ffn_dim=8, max_len=8), Rng(4))
    seq = encode("头痛发", vocab, max_len=8)
    corrupted, positions, originals = mask_tokens(seq, 0.5, Rng(9), vocab.size)
    if not positions:  # force at least one masked position
        positions, originals = [1], [seq.ids[1]]
        ids = list(seq.ids)
        ids[1] = MASK_ID
        corrupted = TokenSequence(ids)

    def loss_fn():
        return mlm_loss(enc, [(corrupted, positions, originals)])

    err = grad_check(loss_fn, enc.params, eps=1e-4, max_entries_per_param=2, rng=Rng(0))
    assert err < 1e-4


def test_mask_tokens_rate_statistics(vocab):
    rng = Rng(10)
    seq = encode("头痛发烧咳嗽多喝水要", vocab, max_len=12)
    eligible = sum(1 for t in seq.ids if t >= NUM_RESERVED)
    total = 0
    selected = 0
    for _ in range(400):
        _, positions, _ = mask_tokens(seq, 0.15, rng, vocab.size)
        total += eligible
        selected += len(positions)
    assert 0.12 <= selected / total <= 0.18


def test_mask_tokens_same_seed_same_corruption(vocab):
    seq = encode("头痛发烧咳嗽", vocab, max_len=12)
    a = mask_tokens(seq, 0.3, Rng(77), vocab.size)
    b = mask_tokens(seq, 0.3, Rng(77), vocab.size)
    assert a[0].ids == b[0].ids and a[1] == b[1] and a[2] == b[2]


def test_mask_tokens_rejects_bad_rate(vocab):
    seq = encode("头痛", vocab, max_len=8)
    with pytest.raises(ValueError):
        mask_tokens(seq, 0.0, Rng(0), vocab.size)


def test_mask_tokens_never_touches_specials_or_padding(vocab):
    seq = encode("头痛发烧", vocab, max_len=12)
    rng = Rng(11)
    for _ in range(50):
        corrupted, positions, _ = mask_tokens(seq, 0.9, rng, vocab.size)
        assert len(corrupted.ids) == len(seq.ids)
        for pos in positions:
            assert seq.ids[pos] >= NUM_RESERVED
        assert corrupted.ids[0] == seq.ids[0]
        assert corrupted.ids[len(seq.ids) - 1] == seq.ids[-1]


def test_mlm_loss_uniform_model_is_log_vocab(vocab):
    enc = Encoder(tiny_config(vocab.size), Rng(12))
    _zero_params(enc)
    seq = encode("头痛发烧", vocab, max_len=10)
    corrupted, positions, originals = mask_tokens(seq, 0.5, Rng(13), vocab.size)
    while not positions:
        corrupted, positions, originals = mask_tokens(seq, 0.5, Rng(14), vocab.size)
    loss = mlm_loss(enc, [(corrupted, positions, originals)])
    assert loss.item() == pytest.approx(math.log(vocab.size), abs=1e-9)


def test_mlm_loss_empty_batch_warns(vocab, caplog):
    enc = Encoder(tiny_config(vocab.size), Rng(15))
    seq = encode("头痛", vocab, max_len=8)
    with caplog.at_level("WARNING"):
        assert mlm_loss(enc, [(seq, [], [])]) is None
    assert any("no masked positions" in rec.message for rec in caplog.records)


def _pretrain_fixture(vocab, seed=0, epochs=50):
    texts = ["头痛多喝水", "发烧要休息", "咳嗽要保暖", "感冒要休息"]
    sequences = [encode(t, vocab, 12) for t in texts]
    enc = Encoder(tiny_config(vocab.size, hidden_dim=16, ffn_dim=32), Rng(seed).spawn("init"))
    history = pretrain(enc, sequences, TrainConfig(epochs=epochs, lr=0.01, batch_size=4, seed=seed))
    return enc, history


def test_pretrain_halves_loss(vocab):
    _, history = _pretrain_fixture(vocab)
    assert not history.aborted
    assert history.rows[-1]["loss"] < 0.5 * history.rows[0]["loss"]


def test_pretrain_reproducible_bit_exact(vocab):
    enc1, hist1 = _pretrain_fixture(vocab, seed=21, epochs=5)
    enc2, hist2 = _pretrain_fixture(vocab, seed=21, epochs=5)
    for name in enc1.params:
        assert np.array_equal(enc1.params[name].data, enc2.params[name].data)
    assert [r["loss"] for r in hist1.rows] == [r["loss"] for r in hist2.rows]


def test_pretrain_logs_configured_lr(vocab, tmp_path):
    texts = ["头痛多喝水", "发烧要休息"]
    sequences = [encode(t, vocab, 12) for t in texts]
    enc = Encoder(tiny_config(vocab.size), Rng(0))
    history = pretrain(enc, sequences, TrainConfig(epochs=2, lr=5e-5, batch_size=2, seed=0))
    assert all(row["lr"] == 5e-5 for row in history.rows)
    log_path = tmp_path / "log.csv"
    history.write_csv(log_path)
    header = log_path.read_text().splitlines()[0]
    assert header == "epoch,loss,lr,seconds"


def test_pretrain_rejects_empty_corpus(vocab):
    enc = Encoder(tiny_config(vocab.size), Rng(0))
    with pytest.raises(ValueError):
        pretrain(enc, [], TrainConfig(epochs=1, lr=5e-5))


def test_pretrain_divergence_aborts_with_rollback(vocab, caplog):
    enc = Encoder(tiny_config(vocab.size), Rng(16))
    enc.params["tok_emb"].data[NUM_RESERVED, 0] = 1e308  # overflow on first forward
    snapshot = {k: v.data.copy() for k, v in enc.params.items()}
    sequences = [encode("头痛多喝水", vocab, 12)]
    with caplog.at_level("ERROR"):
        history = pretrain(enc, sequences, TrainConfig(epochs=3, lr=0.01, batch_size=1, seed=16))
    assert history.aborted
    for name, data in snapshot.items():
        assert np.array_equal(enc.params[name].data, data)
    assert any("rolling back" in rec.message for rec in caplog.records)
