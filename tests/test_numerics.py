import contextlib
import hashlib
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from medkit import numerics as nm
from medkit.encoder import init_layer_params, layer_weights
from medkit.numerics import Adam, NumericsError, Rng, ShapeError, Tensor

from oracles import (
    adam_step, attention, attention_ops, causal_mask, cross_entropy, encoder_layer_ops, full_logits, gelu, gelu_backward_allocating, getitem, grad_check, layer_norm,
    log_softmax, lstm_allocating, masked_fill, scale, sigmoid, softmax, tanh, tensor_sum,
)


def test_matmul_identity():
    identity = Tensor(np.eye(2))
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(nm.matmul(identity, m).data, m.data)


def test_matmul_hand_case():
    a = Tensor([[1.0, 2.0]])
    b = Tensor([[3.0], [4.0]])
    assert nm.matmul(a, b).data.tolist() == [[11.0]]


def test_matmul_zero_annihilates():
    rng = np.random.default_rng(1)
    a = Tensor(rng.normal(size=(3, 4)))
    z = Tensor(np.zeros((4, 2)))
    assert np.array_equal(nm.matmul(a, z).data, np.zeros((3, 2)))


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        nm.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeError):
        nm.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))


def test_matmul_associativity_fuzz():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(4, 5)))
        c = Tensor(rng.normal(size=(5, 2)))
        left = nm.matmul(nm.matmul(a, b), c).data
        right = nm.matmul(a, nm.matmul(b, c)).data
        assert np.allclose(left, right, rtol=1e-9, atol=1e-9)


def test_softmax_symmetry():
    out = softmax(Tensor([0.0, 0.0])).data
    assert np.allclose(out, [0.5, 0.5], atol=1e-15)


def test_softmax_analytic():
    out = softmax(Tensor([math.log(1), math.log(2), math.log(3)])).data
    assert np.allclose(out, [1 / 6, 2 / 6, 3 / 6], atol=1e-12)


def test_softmax_shift_stability():
    out = softmax(Tensor([1000.0, 1000.0])).data
    assert np.allclose(out, [0.5, 0.5])


def test_softmax_sums_to_one_and_shift_invariant():
    rng = np.random.default_rng(3)
    logits = rng.normal(scale=5.0, size=(10_000, 7))
    out = softmax(Tensor(logits), axis=-1).data
    assert np.all(np.abs(out.sum(axis=1) - 1.0) < 1e-12)
    shifted = softmax(Tensor(logits + 13.7), axis=-1).data
    assert np.all(np.abs(out - shifted) < 1e-12)
    assert np.array_equal(out.argmax(axis=1), shifted.argmax(axis=1))


def test_layer_norm_constant_input_collapses_to_bias():
    x = Tensor([4.0, 4.0, 4.0])
    out = layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), eps=1e-5)
    assert np.allclose(out.data, 0.0)


def test_layer_norm_already_normalized():
    out = layer_norm(Tensor([1.0, -1.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-12)
    assert np.allclose(out.data, [1.0, -1.0], atol=1e-9)


def test_layer_norm_affine_shift():
    out = layer_norm(Tensor([0.0, 2.0]), Tensor(np.ones(2)), Tensor([5.0, 5.0]), eps=1e-12)
    assert np.allclose(out.data, [4.0, 6.0], atol=1e-9)


def test_cross_entropy_perfect_prediction():
    assert cross_entropy(Tensor([0.0, 1.0, 0.0]), 1).item() == 0.0


def test_cross_entropy_uniform_14():
    probs = Tensor(np.full(14, 1 / 14))
    assert abs(cross_entropy(probs, 3).item() - math.log(14)) < 1e-12


def test_cross_entropy_half():
    assert abs(cross_entropy(Tensor([0.5, 0.5]), 0).item() - math.log(2)) < 1e-12


def test_cross_entropy_zero_prob_clamps_and_warns():
    with pytest.warns(UserWarning):
        value = cross_entropy(Tensor([1.0, 0.0]), 1).item()
    assert value == pytest.approx(-math.log(1e-12))


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    nm.backward(tensor_sum(x))
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_square_gives_2x():
    x = Tensor([3.0], requires_grad=True)
    nm.backward(tensor_sum(x * x))
    assert np.allclose(x.grad, [6.0])


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(NumericsError):
        nm.backward(x * x)


def test_backward_accumulates_without_zeroing():
    x = Tensor([2.0], requires_grad=True)
    nm.backward(tensor_sum(x * x))
    nm.backward(tensor_sum(x * x))
    assert np.allclose(x.grad, [8.0])


def test_second_backward_through_one_graph_raises():
    x = Tensor([2.0], requires_grad=True)
    loss = tensor_sum(x * x)
    nm.backward(loss)
    with pytest.raises(NumericsError, match="backward already ran through this graph"):
        nm.backward(loss)
    assert np.allclose(x.grad, [4.0])


def test_backward_through_a_consumed_node_of_a_new_graph_raises():
    x = Tensor([2.0], requires_grad=True)
    y = x * x
    nm.backward(tensor_sum(y))
    with pytest.raises(NumericsError, match="backward already ran through this graph"):
        nm.backward(tensor_sum(y * x))


def test_fit_frees_each_step_graph_before_the_next_forward():
    """No array of step k's graph, here a transformer layer's output, is
    alive while step k + 1 builds its graph: backward consumed the graph,
    so the loss fit still holds references nothing."""
    rng = np.random.default_rng(17)
    params = _layer_params(rng, 8, 2, 16)
    weights = layer_weights(params, "layer0", 2)
    outputs, alive = [], []

    def batch_loss(batch, _):
        alive.append(sum(ref() is not None for ref in outputs))
        out = nm.transformer_layer(Tensor(rng.normal(size=(5, 8))), weights, 2, True, 1e-5, [3, 2])
        outputs.append(weakref.ref(out.data))
        return tensor_sum(out * Tensor(rng.normal(size=(5, 8)))), 1.0, 0

    nm.fit(batch_loss, list(range(4)), [{"name": "layer", "lr": 0.01, "params": params}], nm.TrainConfig(epochs=2, lr=0.01, batch_size=1), "free")
    assert alive == [0] * 8


def test_no_grad_records_no_graph():
    x = Tensor([[1.0, -2.0], [0.5, 3.0]], requires_grad=True)
    with nm.no_grad():
        outs = [x + x, x * Tensor(2.0), nm.matmul(x, x), gelu(x), softmax(x), getitem(x, 0), nm.concat([x, x]), tensor_sum(x)]
        with pytest.raises(NumericsError):
            Tensor([1e200], requires_grad=True) * Tensor([1e200])  # values are still checked
    for out in outs:
        assert not out.requires_grad
        assert out._parents == ()
        assert out._backward_fn is None
    assert (x * x)._parents == (x, x)


def test_no_grad_restores_mode_after_exception():
    x = Tensor([1.0], requires_grad=True)
    with pytest.raises(RuntimeError):
        with nm.no_grad():
            raise RuntimeError("boom")
    assert (x * x).requires_grad


def test_no_grad_nests():
    x = Tensor([1.0], requires_grad=True)
    with nm.no_grad():
        with nm.no_grad():
            assert not (x * x).requires_grad
        assert not (x * x).requires_grad
    assert (x * x).requires_grad


def test_backward_after_no_grad_block_matches_plain_backward():
    rng = np.random.default_rng(13)
    w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    x = Tensor(rng.normal(size=(2, 3)))

    def grad_of_loss():
        nm.zero_grads([w])
        nm.backward(tensor_sum(gelu(nm.matmul(x, w))))
        return w.grad.copy()

    plain = grad_of_loss()
    with nm.no_grad():
        tensor_sum(gelu(nm.matmul(x, w)))
    assert np.array_equal(grad_of_loss(), plain)


def test_generate_builds_no_graph_and_leaves_grads_unset(monkeypatch):
    from medkit import generator
    from medkit.generator import Decoder, DecoderConfig, GenerationRequest, generate
    from medkit.tokenizer import build_vocab

    vocab = build_vocab(["头痛发烧咳嗽多喝水"])
    model = Decoder(DecoderConfig(vocab_size=vocab.size, hidden_dim=8, num_layers=1, num_heads=2, context_window=16, max_gen_len=6), Rng(14))
    steps, built = [], []
    step, init = generator.lm_logits, Tensor.__init__
    monkeypatch.setattr(generator, "lm_logits", lambda m, ids, cache: steps.append((list(ids), step(m, ids, cache))) or steps[-1][1])
    monkeypatch.setattr(Tensor, "__init__", lambda self, *args, **kwargs: built.append(self) or init(self, *args, **kwargs))
    generate(model, GenerationRequest(question="头痛"), None, vocab)
    monkeypatch.undo()
    assert steps and built == []
    assert all(p.grad is None for p in model.params.values())
    for ids, probs in steps:
        last = full_logits(model, ids).data[-1]
        e = np.exp(last - last.max())
        assert np.max(np.abs(probs - e / e.sum())) <= 1e-10


def test_non_finite_forward_rejected():
    with pytest.raises(NumericsError):
        Tensor([np.inf])
    with pytest.raises(NumericsError):
        Tensor([1e200]) * Tensor([1e200])


@pytest.mark.parametrize(
    "name,build",
    [
        ("add", lambda x, y: x + y),
        ("mul", lambda x, y: x * y),
        ("matmul", lambda x, y: nm.matmul(x, nm.transpose(y))),
        ("tanh", lambda x, y: tanh(x)),
        ("sigmoid", lambda x, y: sigmoid(x)),
        ("gelu", lambda x, y: gelu(x)),
        ("softmax", lambda x, y: softmax(x, axis=-1)),
        ("log_softmax", lambda x, y: log_softmax(x, axis=-1)),
        ("concat", lambda x, y: nm.concat([x, y], axis=1)),
        ("getitem", lambda x, y: getitem(x, (slice(1, None), slice(1, 3)))),
        ("take_rows", lambda x, y: nm.take_rows(x, [0, 2, 2])),
        ("masked_fill", lambda x, y: masked_fill(x, np.arange(12).reshape(3, 4) % 2 == 0, -5.0)),
    ],
)
def test_elementwise_ops_match_finite_differences(name, build):
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    y = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    weights = rng.normal(size=build(x, y).shape)

    def loss_fn():
        return tensor_sum(build(x, y) * Tensor(weights))

    err = grad_check(loss_fn, {"x": x, "y": y}, eps=1e-5, max_entries_per_param=6, rng=np.random.default_rng(0))
    assert err < 1e-5, f"{name}: {err}"


@pytest.mark.parametrize("reverse", [False, True], ids=["fwd", "bwd"])
def test_lstm_matches_finite_differences(reverse):
    rng = np.random.default_rng(15)
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    wx = Tensor(rng.normal(scale=0.5, size=(3, 8)), requires_grad=True)
    wh = Tensor(rng.normal(scale=0.5, size=(2, 8)), requires_grad=True)
    b = Tensor(rng.normal(size=8), requires_grad=True)
    weights = Tensor(rng.normal(size=(4, 2)))

    def loss_fn():
        return tensor_sum(nm.lstm(x, wx, wh, b, reverse) * weights)

    err = grad_check(loss_fn, {"x": x, "wx": wx, "wh": wh, "b": b}, eps=1e-5, max_entries_per_param=6, rng=np.random.default_rng(0))
    assert err < 1e-5


def test_lstm_rejects_mismatched_shapes():
    with pytest.raises(ShapeError):
        nm.lstm(Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 8))), Tensor(np.zeros((2, 8))), Tensor(np.zeros(8)))


@pytest.mark.parametrize("lengths", [[True] * 3, [1.0, 2.0]], ids=["bool-mask", "floats"])
def test_lstm_rejects_non_integer_lengths(lengths):
    x, wx, wh, b = Tensor(np.zeros((3, 2))), Tensor(np.zeros((2, 8))), Tensor(np.zeros((2, 8))), Tensor(np.zeros(8))
    with pytest.raises(ShapeError, match="do not split"):
        nm.lstm(x, wx, wh, b, lengths=lengths)

def _attention_leaves(rng, n, hidden, heads):
    d = hidden // heads
    x = Tensor(rng.normal(size=(n, hidden)), requires_grad=True)
    ws = [[Tensor(rng.normal(scale=0.5, size=(hidden, d)), requires_grad=True) for _ in range(heads)] for _ in range(3)]
    return x, ws


def _attention_keep(kind, n, rng):
    if kind == "full":
        return np.ones((n, n), dtype=bool)
    if kind == "padding":  # 1-D: keys masked, all queries run
        return np.array([True] * (n - 2) + [False, False])
    if kind == "causal":
        return np.tril(np.ones((n, n), dtype=bool))
    keep = rng.uniform(0, 1, (n, n)) < 0.5  # "dead": random keys, two rows with none kept
    keep[[1, n - 1]] = False
    return keep


@pytest.mark.parametrize("kind", ["full", "padding", "causal", "dead"])
@pytest.mark.parametrize("heads", [1, 2, 4])
def test_attention_matches_op_by_op_oracle(heads, kind):
    rng = np.random.default_rng(40 + heads)
    arrays = [rng.normal(size=(6, 8))] + [rng.normal(scale=0.5, size=(8, 8 // heads)) for _ in range(3 * heads)]
    keep = _attention_keep(kind, 6, rng)
    weights = Tensor(rng.normal(size=(6, 8)))
    results = []
    for run in (attention, attention_ops):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        x, ws = leaves[0], leaves[1:]
        out = run(x, ws[:heads], ws[heads : 2 * heads], ws[2 * heads :], keep)
        nm.backward(tensor_sum(out * weights))
        results.append([out.data] + [leaf.grad for leaf in leaves])
    for i, (fused, oracle) in enumerate(zip(*results)):
        assert fused.shape == oracle.shape
        assert np.max(np.abs(fused - oracle)) <= 1e-10, i


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_attention_cached_calls_match_one_full_pass(heads):
    rng = np.random.default_rng(50 + heads)
    x, (wq, wk, wv) = _attention_leaves(rng, 7, 8, heads)
    keep = np.tril(np.ones((7, 7), dtype=bool))
    full = attention(x, wq, wk, wv, keep).data
    cache: dict = {}
    pieces = []
    for start, stop in [(0, 3), (3, 4), (4, 5), (5, 7)]:
        out = attention(Tensor(x.data[start:stop]), wq, wk, wv, keep[start:stop, :stop], cache)
        assert out._parents == () and not out.requires_grad
        assert cache["k"].shape == cache["v"].shape == (heads, stop, 8 // heads)
        pieces.append(out.data)
    assert np.max(np.abs(np.concatenate(pieces) - full)) <= 1e-10


@pytest.mark.parametrize("heads", [1, 2])
def test_attention_matches_finite_differences(heads):
    rng = np.random.default_rng(60 + heads)
    x, (wq, wk, wv) = _attention_leaves(rng, 5, 4, heads)
    keep = np.tril(np.ones((5, 5), dtype=bool))
    keep[3] = False  # one dead row
    weights = Tensor(rng.normal(size=(5, 4)))

    def loss_fn():
        return tensor_sum(attention(x, wq, wk, wv, keep) * weights)

    params = {"x": x, **{f"w{kind}{h}": w for kind, ws in zip("qkv", (wq, wk, wv)) for h, w in enumerate(ws)}}
    err = grad_check(loss_fn, params, eps=1e-5, max_entries_per_param=6, rng=np.random.default_rng(0))
    assert err < 1e-5


@pytest.mark.parametrize("masked", [False, True], ids=["kept", "masked"])
@pytest.mark.parametrize("forward", [attention, attention_ops], ids=["fused", "oracle"])
def test_attention_overflowing_projection_raises(forward, masked):
    x = Tensor([[1.0, 0.0], [1e308, 0.0]])  # row 1 projects to 1e309
    keep = np.array([True, not masked])  # masked: the overflowed key is dropped
    w = [Tensor(np.full((2, 2), 10.0), requires_grad=True)]
    with pytest.raises(NumericsError):
        forward(x, w, w, w, keep)


@pytest.mark.parametrize("masked", [False, True], ids=["kept", "masked"])
@pytest.mark.parametrize("forward", [attention, attention_ops], ids=["fused", "oracle"])
def test_attention_overflowing_score_raises(forward, masked):
    x = Tensor([[1e160, 0.0], [1.0, 0.0]])  # projections finite, q0 . k0 = 1e320
    keep = np.array([not masked, True])  # masked: the overflowed key is dropped
    w = [Tensor(np.eye(2), requires_grad=True)]
    with pytest.raises(NumericsError):
        forward(x, w, w, w, keep)


def test_attention_rejects_mismatched_shapes():
    w = [Tensor(np.zeros((3, 2)))]
    with pytest.raises(ShapeError):
        attention(Tensor(np.zeros((4, 3))), w, w, w + w, np.ones(4, dtype=bool))
    with pytest.raises(ShapeError):
        attention(Tensor(np.zeros((4, 2))), w, w, w, np.ones(4, dtype=bool))


def _fused_layer(x, params, prefix, causal, heads, eps=1e-5, lengths=None):
    """numerics.transformer_layer with _oracle_layer's signature."""
    return nm.transformer_layer(x, layer_weights(params, prefix, heads), heads, causal, eps, lengths)


def _oracle_layer(x, params, prefix, causal, heads, eps=1e-5, lengths=None):
    """encoder_layer_ops under the mask that `causal` names: causal_mask over
    the longest sequence, or every key."""
    n = x.shape[0] if lengths is None else max(lengths)
    return encoder_layer_ops(x, params, prefix, causal_mask(n, n) if causal else True, heads, eps, lengths=lengths)


def _layer_params(rng, hidden, heads, ffn):
    """One layer's parameters with every bias, gain and weight perturbed, so
    each gradient is exercised. `rng` is a numpy Generator: init_layer_params
    draws from it only through `uniform`, which it shares with `Rng`."""
    params: dict = {}
    init_layer_params(rng, hidden, heads, ffn, "layer0", params)
    for p in params.values():
        p.data = p.data + rng.normal(scale=0.2, size=p.shape)
    return params


def _layer_run(run, x_data, params, causal, heads, weights, lengths=None):
    """Output and the gradients of x and of every parameter of one layer."""
    x = Tensor(x_data.copy(), requires_grad=True)
    leaves = {name: Tensor(p.data.copy(), requires_grad=True) for name, p in params.items()}
    out = run(x, leaves, "layer0", causal, heads, 1e-5, lengths=lengths)
    nm.backward(tensor_sum(out * weights))
    return [out.data, x.grad] + [leaves[name].grad for name in sorted(leaves)]


def _assert_layers_agree(fused, oracle):
    assert len(fused) == len(oracle)
    for i, (a, b) in enumerate(zip(fused, oracle)):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-10, i


@pytest.mark.parametrize("kind", ["full", "causal"])
@pytest.mark.parametrize("heads", [1, 2, 4])
def test_transformer_layer_matches_op_by_op_oracle(heads, kind):
    rng = np.random.default_rng(80 + heads)
    params = _layer_params(rng, 8, heads, 16)
    x = rng.normal(size=(6, 8))
    weights = Tensor(rng.normal(size=(6, 8)))
    _assert_layers_agree(*(_layer_run(run, x, params, kind == "causal", heads, weights) for run in (_fused_layer, _oracle_layer)))


@pytest.mark.parametrize("causal", [False, True], ids=["full", "causal"])
@pytest.mark.parametrize("heads", [1, 2, 4])
def test_transformer_layer_ragged_batch_matches_oracle(heads, causal):
    rng = np.random.default_rng(90 + heads)
    lengths = [3, 1, 6, 4, 6]  # 1 and the longest, 6 (max_len), included
    params = _layer_params(rng, 8, heads, 16)
    x = rng.normal(size=(sum(lengths), 8))
    weights = Tensor(rng.normal(size=(sum(lengths), 8)))
    _assert_layers_agree(*(_layer_run(run, x, params, causal, heads, weights, lengths) for run in (_fused_layer, _oracle_layer)))


@pytest.mark.parametrize("causal", [False, True], ids=["full", "causal"])
@pytest.mark.parametrize("heads", [1, 2])
def test_transformer_layer_gradients_equal_the_allocating_gelu_backward(monkeypatch, heads, causal):
    """GELU's backward built in reused buffers gives the bits of the same
    steps run on fresh arrays, over a ragged batch."""
    rng = np.random.default_rng(97 + heads)
    lengths = [3, 1, 6, 4, 6]
    params = _layer_params(rng, 8, heads, 16)
    x = rng.normal(size=(sum(lengths), 8))
    weights = Tensor(rng.normal(size=(sum(lengths), 8)))
    lean = _layer_run(_fused_layer, x, params, causal, heads, weights, lengths)
    monkeypatch.setattr(nm, "_gelu_backward", gelu_backward_allocating)
    allocating = _layer_run(_fused_layer, x, params, causal, heads, weights, lengths)
    assert len(lean) == len(allocating) and all(np.array_equal(a, b) for a, b in zip(lean, allocating))


@pytest.mark.parametrize("reverse", [False, True], ids=["fwd", "bwd"])
@pytest.mark.parametrize("lengths", [[3, 1, 5, 3, 5], [1], [4, 4]], ids=["ties-and-one-row", "one-row", "equal"])
def test_lstm_gradients_equal_the_allocating_backward(lengths, reverse):
    """The gate coefficients built in place inside dz give the bits of the
    concatenated coefficient arrays they replaced."""
    rng = np.random.default_rng(18)
    arrays = [rng.normal(size=(sum(lengths), 3)), rng.normal(scale=0.5, size=(3, 8)), rng.normal(scale=0.5, size=(2, 8)), rng.normal(size=8)]
    weights = Tensor(rng.normal(size=(sum(lengths), 2)))
    results = []
    for run in (nm.lstm, lstm_allocating):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = run(*leaves, reverse, lengths)
        nm.backward(tensor_sum(out * weights))
        results.append([out.data] + [leaf.grad for leaf in leaves])
    assert all(np.array_equal(a, b) for a, b in zip(*results))


@pytest.mark.parametrize("causal", [False, True], ids=["full", "causal"])
@pytest.mark.parametrize("lengths", [[1, 128], [128] + [1] * 7], ids=["1-128", "128-7x1"])
def test_transformer_layer_long_sequence_among_short_ones_matches_oracle(lengths, causal):
    """A batch whose padded score grid would be mostly padding: the oracle
    pads to the longest sequence, the layer runs each sequence alone."""
    rng = np.random.default_rng(95)
    params = _layer_params(rng, 8, 2, 16)
    x = rng.normal(size=(sum(lengths), 8))
    weights = Tensor(rng.normal(size=(sum(lengths), 8)))
    _assert_layers_agree(*(_layer_run(run, x, params, causal, 2, weights, lengths) for run in (_fused_layer, _oracle_layer)))


def test_transformer_layer_memory_follows_the_packed_scores():
    """Forward and backward of one layer over lengths [128] + [1] * 7 hold
    the scores of each sequence, not of a (B, heads, 128, 128) grid padded to
    the longest: the traced peak stays under three copies of the packed
    scores (the weights, their gradient and its product with them) plus
    twelve (rows, ffn) arrays, about 3.9 MiB. A layer that pads each sequence
    to the longest holds a 2 MiB grid and its temporaries, about 10 MiB."""
    lengths, hidden, heads, ffn = [128] + [1] * 7, 64, 2, 256
    rng = np.random.default_rng(96)
    params = _layer_params(rng, hidden, heads, ffn)
    weights = layer_weights(params, "layer0", heads)
    x = Tensor(rng.normal(size=(sum(lengths), hidden)), requires_grad=True)
    scores = 8 * heads * sum(n * n for n in lengths)
    rows = 8 * sum(lengths) * ffn
    tracemalloc.start()
    try:
        nm.backward(tensor_sum(nm.transformer_layer(x, weights, heads, True, 1e-5, lengths)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * scores + 12 * rows, (peak, scores, rows)


def _traced(run):
    """run()'s result, and the peak and the current size of what tracemalloc
    saw allocated while it ran and held after it returned."""
    tracemalloc.start()
    try:
        result = run()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, current


def test_layer_calls_that_cannot_run_backward_peak_under_four_ffn_arrays():
    """A 128-row causal call with a key/value buffer (a decode step's prompt
    prefill or window slide) and a transformer_layer under no_grad hold no
    backward state: each projection, attention-weight block, attention
    output, pre-activation and GELU buffer goes once its last reader has run,
    so the traced peak stays under four (rows, ffn) arrays. A call that holds
    them all to its return peaks at about six."""
    rows, hidden, heads, ffn = 128, 64, 2, 256
    rng = np.random.default_rng(98)
    weights = layer_weights(_layer_params(rng, hidden, heads, ffn), "layer0", heads)
    w = nm.layer_arrays(weights, heads)
    x = rng.normal(size=(rows, hidden))
    kv = np.empty((2, heads, rows, hidden // heads))
    (out, backward_fn), peak, _ = _traced(lambda: nm.layer_forward(x, w, heads, True, 1e-5, kv=kv))
    assert backward_fn is None and peak < 4 * rows * ffn * 8, peak / (rows * ffn * 8)
    x = Tensor(x, requires_grad=True)
    with nm.no_grad():
        cold, peak, _ = _traced(lambda: nm.transformer_layer(x, weights, heads, True))
    assert cold._backward_fn is None and peak < 4 * rows * ffn * 8, peak / (rows * ffn * 8)
    assert np.array_equal(cold.data, out)


def test_transformer_layer_node_holds_neither_x1_nor_the_attention_output():
    """Between forward and backward a training layer keeps qkv, the attention
    weights, the feed-forward pre-activation, each LayerNorm's normalized
    rows and inverse deviations, the joined qkv weight and its output, and
    nothing it can rebuild: the first LayerNorm's output and the attention
    output would be two more (rows, hidden) arrays, and the bound leaves room
    for one. Its gradient is still the oracle's."""
    lengths, hidden, heads, ffn = [32] * 4, 64, 2, 256
    rows = sum(lengths)
    rng = np.random.default_rng(99)
    params = _layer_params(rng, hidden, heads, ffn)
    x = Tensor(rng.normal(size=(rows, hidden)), requires_grad=True)
    out, _, held = _traced(lambda: _fused_layer(x, params, "layer0", True, heads, 1e-5, lengths))
    kept = 8 * (rows * 3 * hidden + heads * sum(n * n for n in lengths) + rows * ffn + 2 * rows * (hidden + 1) + rows * hidden + hidden * 3 * hidden)
    assert held < kept + 8 * rows * hidden, (held, kept)
    weights = Tensor(rng.normal(size=(rows, hidden)))
    nm.backward(tensor_sum(out * weights))
    oracle = _layer_run(_oracle_layer, x.data, params, True, heads, weights, lengths)
    assert np.max(np.abs(out.data - oracle[0])) <= 1e-10 and np.max(np.abs(x.grad - oracle[1])) <= 1e-10


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_transformer_layer_cached_chunks_match_one_full_pass(heads):
    rng = np.random.default_rng(100 + heads)
    params = _layer_params(rng, 8, heads, 16)
    x = rng.normal(size=(7, 8))
    full = encoder_layer_ops(Tensor(x), params, "layer0", causal_mask(7, 7), heads).data
    w = nm.layer_arrays(layer_weights(params, "layer0", heads), heads)
    kv = np.full((2, heads, 7, 8 // heads), np.nan)
    pieces = []
    for start, stop in [(0, 3), (3, 4), (4, 5), (5, 7)]:
        out, _ = nm.layer_forward(x[start:stop], w, heads, True, 1e-5, kv=kv[:, :, :stop])
        assert np.isfinite(kv[:, :, :stop]).all() and np.isnan(kv[:, :, stop:]).all()  # written up to stop
        pieces.append(out)
    assert np.max(np.abs(np.concatenate(pieces) - full)) <= 1e-10
    # The last row alone, attending to every key as the causal last row does.
    last = np.empty((2, heads, 7, 8 // heads))
    out, _ = nm.layer_forward(x, w, heads, True, 1e-5, kv=last, last_only=True)
    assert out.shape == (1, 8) and np.max(np.abs(out - full[-1:])) <= 1e-10
    assert np.max(np.abs(last - kv)) <= 1e-10


@pytest.mark.parametrize("queries", [1, 2, 7])
@pytest.mark.parametrize("heads", [1, 2])
def test_causal_layer_forward_on_a_kv_view_matches_the_offset_causal_mask(heads, queries):
    """`queries` new rows over a view of 7 keys, the first 7 - queries of them
    cached: causal layer_forward drops key j for row i when j > 7 - queries +
    i, as the oracle does under causal_mask(queries, 7), and it writes the
    new rows' keys and values into the view."""
    rng = np.random.default_rng(105 + heads)
    params = _layer_params(rng, 8, heads, 16)
    x = rng.normal(size=(7, 8))
    cached = 7 - queries
    cache: dict = {}
    if cached:
        encoder_layer_ops(Tensor(x[:cached]), params, "layer0", causal_mask(cached, cached), heads, cache=cache)
    want = encoder_layer_ops(Tensor(x[cached:]), params, "layer0", causal_mask(queries, 7), heads, cache=cache).data
    keys_values = np.stack([cache["k"], cache["v"]])
    kv = np.full((2, heads, 7, 8 // heads), np.nan)
    kv[:, :, :cached] = keys_values[:, :, :cached]
    got, _ = nm.layer_forward(x[cached:], nm.layer_arrays(layer_weights(params, "layer0", heads), heads), heads, True, 1e-5, kv=kv)
    assert got.shape == want.shape and np.max(np.abs(got - want)) <= 1e-10
    assert np.max(np.abs(kv - keys_values)) <= 1e-10


@pytest.mark.parametrize("lengths", [None, [2, 1, 4]], ids=["single", "ragged"])
@pytest.mark.parametrize("heads", [1, 2])
def test_transformer_layer_matches_finite_differences(heads, lengths):
    rng = np.random.default_rng(110 + heads)
    params = _layer_params(rng, 4, heads, 8)
    x = Tensor(rng.normal(size=(7, 4)), requires_grad=True)
    weights = Tensor(rng.normal(size=(7, 4)))

    def loss_fn():
        return tensor_sum(_fused_layer(x, params, "layer0", True, heads, lengths=lengths) * weights)

    err = grad_check(loss_fn, {"x": x, **params}, eps=1e-5, max_entries_per_param=6, rng=np.random.default_rng(0))
    assert err < 1e-5


@pytest.mark.parametrize("name", ["attn.wq0", "attn.wk1", "attn.wo", "ffn.w1", "ffn.w2"])
@pytest.mark.parametrize("forward", [_fused_layer, _oracle_layer], ids=["fused", "oracle"])
def test_transformer_layer_overflowing_weight_raises(forward, name):
    """A weight scaled by 1e300 overflows its stage: the QKV projection (wq,
    wk), or a value that only the layer output shows, through NaN * 0 or
    inf - inf in LayerNorm (wo), GELU (w1) or the second residual (w2). The
    large inputs and first LayerNorm gain make each product overflow; without
    the scaling the layer stays finite."""
    rng = np.random.default_rng(120)
    params = _layer_params(rng, 8, 2, 16)
    params["layer0.ln1.gain"].data = np.full(8, 1e9)
    x = Tensor(rng.normal(size=(4, 8)) * 1e9)
    assert np.isfinite(forward(x, params, "layer0", True, 2).data).all()
    params[f"layer0.{name}"].data = params[f"layer0.{name}"].data * 1e300
    with pytest.raises(NumericsError):
        forward(x, params, "layer0", True, 2)


@pytest.mark.parametrize("masked", [False, True], ids=["kept", "masked"])
@pytest.mark.parametrize("forward", [_fused_layer, _oracle_layer], ids=["fused", "oracle"])
def test_transformer_layer_overflowing_score_raises(forward, masked):
    params = _layer_params(np.random.default_rng(121), 2, 1, 4)
    params["layer0.attn.wq0"].data = params["layer0.attn.wv0"].data = np.eye(2)
    params["layer0.attn.wk0"].data = np.array([[0.0, 0.0], [1.0, 0.0]])  # k0 = 0, k1 = (1e160, 0)
    x = Tensor([[1e160, 0.0], [0.0, 1e160]])  # projections finite; only q0 . k1 = 1e320 overflows
    with pytest.raises(NumericsError):
        forward(x, params, "layer0", masked, 1)  # masked: causal, which drops key 1 for query 0


def test_layer_forward_checks_its_output():
    """The array-level forward, which KV-cached decoding runs without a
    Tensor around it, raises on a non-finite output itself."""
    rng = np.random.default_rng(123)
    params = _layer_params(rng, 8, 2, 16)
    params["layer0.ln1.gain"].data = np.full(8, 1e9)
    params["layer0.ffn.w2"].data = params["layer0.ffn.w2"].data * 1e300
    w = nm.layer_arrays(layer_weights(params, "layer0", 2), 2)
    with pytest.raises(NumericsError, match="output"):
        nm.layer_forward(rng.normal(size=(4, 8)), w, 2, True, kv=np.empty((2, 2, 4, 4)))


def test_transformer_layer_rejects_mismatched_shapes():
    params = _layer_params(np.random.default_rng(122), 4, 2, 8)
    weights = layer_weights(params, "layer0", 2)
    with pytest.raises(ShapeError):
        nm.transformer_layer(Tensor(np.zeros((3, 5))), weights, 2, False)
    with pytest.raises(ShapeError):
        nm.transformer_layer(Tensor(np.zeros((3, 4))), weights, 1, False)
    with pytest.raises(ShapeError):
        nm.transformer_layer(Tensor(np.zeros((3, 4))), weights[:-1], 2, False)
    with pytest.raises(ShapeError):
        nm.transformer_layer(Tensor(np.zeros((3, 4))), weights, 2, False, lengths=[3, 0])


def test_transformer_layer_rejects_non_integer_lengths():
    params = _layer_params(np.random.default_rng(122), 4, 2, 8)
    weights = layer_weights(params, "layer0", 2)
    for lengths in ([True] * 3, [1.0, 2.0]):
        with pytest.raises(ShapeError, match="do not split"):
            nm.transformer_layer(Tensor(np.zeros((3, 4))), weights, 2, False, lengths=lengths)


def test_layer_norm_gradient():
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    gain = Tensor(rng.normal(size=4), requires_grad=True)
    bias = Tensor(rng.normal(size=4), requires_grad=True)
    weights = rng.normal(size=(3, 4))

    def loss_fn():
        return tensor_sum(layer_norm(x, gain, bias) * Tensor(weights))

    err = grad_check(loss_fn, {"x": x, "g": gain, "b": bias}, eps=1e-5, max_entries_per_param=6, rng=np.random.default_rng(0))
    assert err < 1e-5


def test_layer_norm_of_one_row_is_bit_identical_to_its_row_in_many():
    """The one-row path (scalar statistics, as a decode step's top layer
    runs) against the many-row path it stands in for."""
    rng = np.random.default_rng(15)
    gain, bias = rng.normal(size=64), rng.normal(size=64)
    h = rng.normal(size=(40, 64)) * 10.0 ** rng.integers(-4, 5, size=(40, 1))
    many = nm._layer_norm(h, gain, bias, 1e-5)
    for i in range(len(h)):
        out, y, inv = nm._layer_norm(h[i : i + 1], gain, bias, 1e-5)
        assert out.tobytes() == many[0][i].tobytes() and y.tobytes() == many[1][i].tobytes()
        assert np.float64(inv).tobytes() == many[2][i, 0].tobytes()


def test_softmax_cross_entropy_gradient_and_value():
    rng = np.random.default_rng(13)
    logits = Tensor(rng.normal(size=(5, 7)), requires_grad=True)
    targets = [0, 3, 6, 2, 2]

    def loss_fn():
        return nm.softmax_cross_entropy(logits, targets)

    err = grad_check(loss_fn, {"logits": logits}, eps=1e-5, max_entries_per_param=10, rng=np.random.default_rng(0))
    assert err < 1e-6
    probs = softmax(logits, axis=-1).data
    manual = -np.log(probs[np.arange(5), targets]).mean()
    assert loss_fn().item() == pytest.approx(manual, abs=1e-12)


@pytest.mark.parametrize(
    "logits,targets",
    [(np.zeros(3), [0]), (np.zeros((2, 3)), [0]), (np.zeros((2, 3)), [0, 3]), (np.zeros((2, 3)), [-1, 0])],
    ids=["1-d-logits", "target-count", "target-too-large", "target-negative"],
)
def test_softmax_cross_entropy_rejects_bad_shapes_and_targets(logits, targets):
    with pytest.raises(ShapeError):
        nm.softmax_cross_entropy(Tensor(logits, requires_grad=True), targets)


def test_softmax_cross_entropy_rejects_an_unknown_reduction():
    logits = Tensor(np.zeros((2, 3)), requires_grad=True)
    for reduction in ("sum", "none"):
        with pytest.raises(ValueError, match="unknown reduction"):
            nm.softmax_cross_entropy(logits, [0, 1], reduction=reduction)


def _with_array_weight(t, a):
    """A one-head transformer_layer call whose output projection is an ndarray."""
    weights = layer_weights(_layer_params(np.random.default_rng(124), 4, 1, 8), "layer0", 1)
    weights[3] = a(weights[3].shape)
    return nm.transformer_layer(t((3, 4)), weights, 1, False)


_ARRAY_OPERAND_CALLS = {
    "add": lambda t, a: nm.add(t((2, 3)), a((2, 3))),
    "mul": lambda t, a: nm.mul(a((2, 3)), t((2, 3))),
    "matmul": lambda t, a: nm.matmul(t((2, 3)), a((3, 2))),
    "transpose": lambda t, a: nm.transpose(a((2, 3))),
    "concat": lambda t, a: nm.concat([t((2, 3)), a((2, 3))]),
    "take_rows": lambda t, a: nm.take_rows(a((2, 3)), [0]),
    "softmax_cross_entropy": lambda t, a: nm.softmax_cross_entropy(a((2, 3)), [0, 1]),
    "lstm": lambda t, a: nm.lstm(t((2, 3)), t((3, 8)), t((2, 8)), a((8,))),
    "transformer_layer": _with_array_weight,
}


@pytest.mark.parametrize("mode", ["leaf", "constant", "no_grad"])
@pytest.mark.parametrize("op", sorted(_ARRAY_OPERAND_CALLS))
def test_ops_reject_an_operand_that_is_not_a_tensor(op, mode):
    """An ndarray operand raises ShapeError naming its type, whether the
    Tensor operands are trainable leaves, constants, or run under no_grad."""

    def t(shape):
        return Tensor(np.full(shape, 0.1), requires_grad=mode == "leaf")

    def a(shape):
        return np.full(shape, 0.1)

    with nm.no_grad() if mode == "no_grad" else contextlib.nullcontext():
        with pytest.raises(ShapeError, match="ndarray"):
            _ARRAY_OPERAND_CALLS[op](t, a)


def test_grad_check_linear_regression_closed_form():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(8, 3))
    y = rng.normal(size=(8, 1))
    w = Tensor(rng.normal(size=(3, 1)), requires_grad=True)

    def loss_fn():
        resid = nm.matmul(Tensor(x), w) + Tensor(-y)
        return scale(tensor_sum(resid * resid), 1.0 / 8)

    err = grad_check(loss_fn, {"w": w}, eps=1e-5, max_entries_per_param=3, rng=np.random.default_rng(0))
    assert err < 1e-6


def test_rng_same_seed_same_sequence():
    a = Rng(42)
    b = Rng(42)
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]
    assert np.array_equal(Rng(5).permutation(20), Rng(5).permutation(20))


def test_rng_spawn_is_stable_and_independent():
    r1 = Rng(9).spawn("left")
    r2 = Rng(9).spawn("left")
    r3 = Rng(9).spawn("right")
    assert r1.random() == r2.random()
    assert Rng(9).spawn("left").random() != r3.random()


def test_adam_two_groups_visible_in_state_dump():
    w1 = nm.zeros_param(2, 2)
    w2 = nm.zeros_param(2)
    opt = Adam([
        {"name": "encoder", "lr": 5e-5, "params": {"w1": w1}},
        {"name": "head", "lr": 2e-4, "params": {"w2": w2}},
    ])
    state = opt.state_summary()
    assert [g["lr"] for g in state["groups"]] == [5e-5, 2e-4]
    assert [g["name"] for g in state["groups"]] == ["encoder", "head"]


def test_adam_step_in_place_matches_one_expression_oracle():
    """20 steps on two groups, one gradient missing on some steps: bit-identical parameters and moments."""
    rng = np.random.default_rng(24)
    groups = {"encoder": (5e-3, {"w": (3, 4), "b": (4,)}), "head": (2e-2, {"w": (2, 5), "s": ()})}
    params = {g: {name: Tensor(rng.normal(size=shape), requires_grad=True) for name, shape in shapes.items()} for g, (_, shapes) in groups.items()}
    opt = Adam([{"name": g, "lr": lr, "params": params[g]} for g, (lr, _) in groups.items()])
    oracle = {(g, name): [p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data)] for g in params for name, p in params[g].items()}
    for t in range(1, 21):
        for (g, name), (data, m, v) in oracle.items():
            p = params[g][name]
            p.grad = None if (g, name, t % 4) == ("head", "s", 0) else rng.normal(scale=10.0 ** rng.integers(-3, 3), size=p.shape)
            if p.grad is not None:
                adam_step(data, p.grad, m, v, t, groups[g][0])
        opt.step()
    for (g, name), (data, m, v) in oracle.items():
        assert params[g][name].data.tobytes() == data.tobytes()
        assert opt._m[(g, name)].tobytes() == m.tobytes()
        assert opt._v[(g, name)].tobytes() == v.tobytes()


@pytest.mark.parametrize(("settings", "message"), [
    ({"lr": -0.01}, "lr must be finite and >= 0"),
    ({"lr": math.nan}, "lr must be finite and >= 0"),
    ({"lr": math.inf}, "lr must be finite and >= 0"),
    ({"batch_size": 0}, "batch_size must be >= 1"),
], ids=["lr-negative", "lr-nan", "lr-inf", "batch-size-zero"])
def test_train_config_rejects_a_rate_or_batch_size_out_of_range(settings, message):
    with pytest.raises(ValueError, match=message):
        nm.TrainConfig(**{"epochs": 1, "lr": 0.1, **settings})
    assert nm.TrainConfig(epochs=1, lr=0.0, batch_size=1).lr == 0.0  # a zero rate stays allowed


def test_fit_lets_a_shape_error_through_without_rollback(caplog):
    w = nm.zeros_param(1)
    calls = []

    def batch_loss(batch, _rng):
        calls.append(None)
        if len(calls) == 2:
            raise ShapeError("operand shapes do not conform")
        return w * w + w, 1, 0  # a non-zero gradient: the first step moves w

    with caplog.at_level("ERROR"), pytest.raises(ShapeError, match="do not conform"):
        nm.fit(batch_loss, [0, 1], [{"name": "w", "lr": 0.1, "params": {"w": w}}], nm.TrainConfig(epochs=1, lr=0.1, batch_size=1), "shape")
    assert w.data[0] != 0.0
    assert not any("rolling back" in rec.message for rec in caplog.records)


def _train_trajectory(seed: int) -> list[bytes]:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(16, 4))
    y = rng.normal(size=(16, 1))
    w = nm.xavier_uniform(Rng(seed).spawn("w"), 4, 1)
    opt = Adam([{"name": "w", "lr": 0.01, "params": {"w": w}}])
    snaps = []
    for _ in range(10):
        resid = nm.matmul(Tensor(x), w) + Tensor(-y)
        loss = scale(tensor_sum(resid * resid), 1.0 / 16)
        opt.zero_grad()
        nm.backward(loss)
        opt.step()
        snaps.append(w.data.tobytes())
    return snaps


def test_same_seed_bit_identical_training_trajectory():
    assert _train_trajectory(33) == _train_trajectory(33)


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    named = {"a.weight": Tensor(rng.normal(size=(3, 4))), "b": Tensor(rng.normal(size=5)), "scalarish": Tensor(np.asarray(2.5))}
    path = tmp_path / "model.ckpt"
    nm.save_checkpoint(path, named)
    loaded = nm.load_checkpoint(path)
    assert sorted(loaded) == sorted(named)
    for key, tensor in named.items():
        assert np.array_equal(loaded[key], tensor.data)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTACKPTxxxxxxxx")
    with pytest.raises(NumericsError):
        nm.load_checkpoint(path)


def test_checkpoint_corrupt_name_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    nm.save_checkpoint(path, {"w": Tensor([1.0])})
    blob = bytearray(path.read_bytes())
    blob[32] = 0xFF  # the one-byte name "w" becomes invalid UTF-8
    path.write_bytes(bytes(blob))
    with pytest.raises(NumericsError, match="corrupt tensor name"):
        nm.load_checkpoint(path)


def test_checkpoint_bytes_deterministic(tmp_path):
    named = {"w": Tensor(np.arange(6.0).reshape(2, 3))}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    nm.save_checkpoint(p1, named)
    nm.save_checkpoint(p2, named)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_failed_write_keeps_previous_file(tmp_path):
    path = tmp_path / "model.ckpt"
    nm.save_checkpoint(path, {"w": Tensor([1.0, 2.0])})
    with pytest.raises(ValueError):  # "a" is written before "b" fails to convert
        nm.save_checkpoint(path, {"a": Tensor(np.ones(3)), "b": "not a number"})
    assert np.array_equal(nm.load_checkpoint(path)["w"], [1.0, 2.0])
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_checkpoint_digest_is_the_sha256_of_the_bytes_written(tmp_path):
    path = tmp_path / "model.ckpt"
    digest = nm.save_checkpoint(path, {"w": Tensor([1.0, 2.0]), "b": Tensor(np.zeros((2, 3)))})
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert np.array_equal(nm.load_checkpoint(path, digest)["w"], [1.0, 2.0])
    with pytest.raises(NumericsError, match=f"^{re.escape(str(path))}: .*digest"):
        nm.load_checkpoint(path, hashlib.sha256(b"").hexdigest())


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda blob: b"NOTACKPT" + blob[8:], "bad magic"),
        (lambda blob: blob[:-3], "truncated"),
        (lambda blob: blob[:8] + (2).to_bytes(8, "little") + blob[16:], "version 2"),
        (lambda blob: blob[:32] + b"\xff" + blob[33:], "corrupt tensor name"),
        (lambda blob: blob + b"\x00", "trailing bytes"),
    ],
    ids=["bad-magic", "truncated", "version", "tensor-name", "trailing-bytes"],
)
def test_checkpoint_errors_name_the_file(tmp_path, edit, message):
    path = tmp_path / "model.ckpt"
    nm.save_checkpoint(path, {"w": Tensor([1.0, 2.0])})
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(NumericsError, match=f"^{re.escape(str(path))}: .*{message}"):
        nm.load_checkpoint(path)

