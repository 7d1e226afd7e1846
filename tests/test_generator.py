import json
import math
from pathlib import Path

import numpy as np
import pytest

from medkit import numerics as nm
from medkit.cli import _load_decoder_bundle
from medkit.generator import (
    Decoder,
    DecoderConfig,
    GenerationRequest,
    KVCache,
    build_qa_sequence,
    finetune_qa,
    generate,
    lm_logits,
    lm_loss,
    pretrain_lm,
)
from medkit.kgraph import load_triples, fixture_graph_path
from medkit.numerics import TrainConfig
from medkit.tokenizer import EOS_ID, UNK_ID, build_vocab, encode

from conftest import CORPUS_SAMPLES
from oracles import full_logits, generate_uncached, grad_check, supplement_spans


@pytest.fixture()
def vocab():
    return build_vocab(["头痛发烧咳嗽多喝水要休息保暖建议充分规律饮食abcd"])


def _decoder(vocab, hidden=8, layers=1, window=16, seed=0):
    cfg = DecoderConfig(vocab_size=vocab.size, hidden_dim=hidden, num_layers=layers, num_heads=2, ffn_dim=2 * hidden, context_window=window, max_gen_len=8)
    return Decoder(cfg, nm.spawn(seed, "dec"))


def _zero(model):
    for p in model.params.values():
        p.data = np.zeros_like(p.data)


def test_zeroed_output_head_gives_uniform(vocab):
    model = _decoder(vocab, seed=1)
    model.params["out.w"].data = np.zeros_like(model.params["out.w"].data)
    model.params["out.b"].data = np.zeros_like(model.params["out.b"].data)
    probs = lm_logits(model, encode("头痛", vocab, 12, mode="decoder"), KVCache())
    assert np.allclose(probs, 1.0 / vocab.size, atol=1e-15)


def test_causality_future_edits_leave_earlier_rows_bit_identical(vocab):
    model = _decoder(vocab, seed=2)
    ids = encode("头痛发烧咳嗽", vocab, 12, mode="decoder")
    base = full_logits(model, ids).data
    for j in range(2, len(ids)):
        tampered = list(ids)
        tampered[j] = vocab.ids("水")[0]
        other = full_logits(model, tampered).data
        assert np.array_equal(base[: j], other[: j])


def test_sliding_window_keeps_last_k(vocab):
    model = _decoder(vocab, window=6, seed=3)
    long_ctx = encode("头痛发烧咳嗽多喝水要休息", vocab, 16, mode="decoder")
    assert len(long_ctx) > 6
    direct = lm_logits(model, long_ctx, KVCache())
    windowed = lm_logits(model, long_ctx[-6:], KVCache())
    assert np.array_equal(direct, windowed)


def test_lm_logits_gradient_check(vocab):
    model = _decoder(vocab, hidden=4, seed=4)
    ids = encode("头痛发", vocab, 8, mode="decoder")

    def loss_fn():
        return lm_loss(model, ids, [True] * len(ids))

    err = grad_check(loss_fn, model.params, eps=1e-4, max_entries_per_param=2, rng=np.random.default_rng(0))
    assert err < 1e-4


def test_lm_loss_uniform_model_is_log_vocab(vocab):
    model = _decoder(vocab, seed=5)
    _zero(model)
    ids = encode("头痛发烧", vocab, 12, mode="decoder")
    loss = lm_loss(model, ids, [True] * len(ids))
    assert loss.item() == pytest.approx(math.log(vocab.size), abs=1e-12)


def test_lm_loss_perfect_model_is_zero(vocab):
    model = _decoder(vocab, seed=6)
    _zero(model)
    a = vocab.ids("a")[0]
    model.params["out.b"].data[a] = 1000.0  # certain of 'a' everywhere
    ids = [a, a, a, a]
    loss = lm_loss(model, ids, [True] * 4)
    assert loss.item() == pytest.approx(0.0, abs=1e-9)


def test_lm_loss_mask_contract_bit_identical(vocab):
    model = _decoder(vocab, seed=7)
    ids = encode("头痛发烧咳嗽", vocab, 12, mode="decoder")
    mask = [False] * len(ids)
    mask[-2] = mask[-1] = True

    def run(targets):
        nm.zero_grads(model.params.values())
        loss = lm_loss(model, ids, mask, targets=targets)
        nm.backward(loss)
        return loss.item(), {k: p.grad.tobytes() for k, p in model.params.items()}

    tampered = list(ids)
    tampered[1] = vocab.ids("水")[0]  # masked-out target position
    base_loss, base_grads = run(list(ids))
    new_loss, new_grads = run(tampered)
    assert base_loss == new_loss
    assert base_grads == new_grads


def test_lm_loss_validations(vocab):
    model = _decoder(vocab)
    with pytest.raises(ValueError):
        lm_loss(model, [5], [True])
    with pytest.raises(ValueError):
        lm_loss(model, [5, 6], [False, False])
    with pytest.raises(ValueError):
        lm_loss(model, [5, 6], [True])


def test_logits_reject_token_ids_outside_the_vocab(vocab):
    model = _decoder(vocab)
    for bad in ([3, vocab.size], [3, -1]):
        with pytest.raises(ValueError):
            lm_logits(model, bad, KVCache())


def test_pretrain_lm_reduces_loss(vocab):
    texts = ["头痛多喝水", "发烧要休息", "咳嗽要保暖", "头痛要休息", "发烧多喝水",
             "咳嗽多喝水", "头痛要保暖", "发烧要保暖", "咳嗽要休息", "多喝水休息"]
    model = _decoder(vocab, hidden=16, seed=8)
    history = pretrain_lm(model, texts, vocab, TrainConfig(epochs=100, lr=0.01, batch_size=5, seed=8))
    assert not history.aborted
    assert history.rows[-1]["loss"] < 0.3 * history.rows[0]["loss"]


def test_pretrain_lm_config_honored_and_deterministic(vocab):
    texts = ["头痛多喝水", "发烧要休息"]

    def run():
        model = _decoder(vocab, seed=9)
        history = pretrain_lm(model, texts, vocab, TrainConfig(epochs=3, lr=2.6e-5, batch_size=2, seed=9))
        return history, {k: p.data.tobytes() for k, p in model.params.items()}

    h1, p1 = run()
    h2, p2 = run()
    assert all(row["lr"] == 2.6e-5 for row in h1.rows)
    assert len(h1.rows) == 3
    assert [r["loss"] for r in h1.rows] == [r["loss"] for r in h2.rows]
    assert p1 == p2


def test_pretrain_lm_chunks_long_texts(vocab):
    model = _decoder(vocab, window=6, seed=10)
    history = pretrain_lm(model, ["头痛发烧咳嗽多喝水要休息保暖abcd"], vocab, TrainConfig(epochs=1, lr=1e-3, batch_size=4, seed=0))
    assert len(history.rows) == 1


def test_pretrain_lm_divergence_aborts_with_rollback(vocab, caplog):
    model = _decoder(vocab, seed=20)
    model.params["tok_emb"].data[vocab.ids("头")[0], 0] = 1e308
    snapshot = {k: v.data.copy() for k, v in model.params.items()}
    with caplog.at_level("ERROR"):
        history = pretrain_lm(model, ["头痛发烧"], vocab, TrainConfig(epochs=2, lr=1e-3, batch_size=1, seed=20))
    assert history.aborted
    for name, data in snapshot.items():
        assert np.array_equal(model.params[name].data, data)


def test_build_qa_sequence_masks_answer_only(vocab):
    graph, _ = load_triples(fixture_graph_path())
    ids, mask = build_qa_sequence("头痛多喝水", "建议休息", graph, vocab, window=64, supplement_max_chars=20)
    assert len(ids) == len(mask)
    (q_lo, q_hi), (_, s_hi) = supplement_spans(ids)
    prompt_len = s_hi + 1  # through the second [SEP]
    assert not any(mask[:prompt_len])
    assert all(mask[prompt_len:])
    assert ids[-1] == EOS_ID
    assert q_hi - q_lo == 5


def test_build_qa_sequence_maps_the_answer_as_encode_does():
    vocab = build_vocab(["头痛多喝水\uf914"])  # U+F914, a CJK compatibility ideograph, is U+6A02 under NFC
    ids, mask = build_qa_sequence("头痛", "多喝\uf914水", None, vocab, window=32)
    assert [i for i, m in zip(ids, mask) if m] == encode("多喝\uf914水", vocab, 32, mode="decoder")[1:]
    assert UNK_ID not in ids


def test_finetune_qa_memorizes_pairs(vocab):
    pairs = [("头痛多喝水", "建议休息"), ("发烧要保暖", "多喝水"), ("咳嗽要休息", "要保暖")]
    model = _decoder(vocab, hidden=16, window=32, seed=11)
    history = finetune_qa(model, pairs, None, vocab, TrainConfig(epochs=150, lr=0.01, batch_size=3, seed=11))
    assert not any(record["record"] == "skipped_pair" for record in history.records)
    hits = 0
    for question, answer in pairs:
        out = generate(model, GenerationRequest(question=question, max_gen_len=16), None, vocab)
        hits += out["answer"] == answer
    assert hits == len(pairs)


def test_finetune_qa_without_graph_still_trains(vocab):
    model = _decoder(vocab, seed=12, window=32)
    history = finetune_qa(model, [("头痛多喝水", "建议休息")], None, vocab, TrainConfig(epochs=1, lr=1e-3, batch_size=1, seed=0))
    assert not history.aborted


def test_finetune_qa_skips_overlong_pairs(vocab):
    model = _decoder(vocab, window=8, seed=13)
    pairs = [("头痛", "好"), ("发烧要保暖咳嗽", "建议充分休息多喝水保暖规律饮食abcd")]
    history = finetune_qa(model, pairs, None, vocab, TrainConfig(epochs=1, lr=1e-3, batch_size=1, seed=0))
    tokens = len(build_qa_sequence(*pairs[1], None, vocab, window=8)[0])
    assert tokens > 8
    assert history.records[1:] == [  # the skipped pair right after the header, then the one epoch over the pair that fits
        {"record": "skipped_pair", "pair": 1, "tokens": tokens},
        {"record": "epoch", "epoch": 0, "loss": history.rows[0]["loss"], "accuracy": None, "weight": 1, "step": 1},
    ]
    assert history.records[0]["items"] == 1


def test_generate_greedy_deterministic(vocab):
    graph, _ = load_triples(fixture_graph_path())
    model = _decoder(vocab, seed=14, window=48)
    request = GenerationRequest(question="头痛怎么办", strategy="greedy", seed=5)
    a = generate(model, request, graph, vocab)
    b = generate(model, request, graph, vocab)
    assert a == b


def test_generate_respects_max_gen_len(vocab):
    model = _decoder(vocab, seed=15, window=32)
    out = generate(model, GenerationRequest(question="头痛", max_gen_len=1), None, vocab)
    assert len(out["answer"]) <= 1


def test_generate_low_temperature_converges_to_greedy(vocab):
    model = _decoder(vocab, seed=16, window=32)
    greedy = generate(model, GenerationRequest(question="头痛发烧", strategy="greedy", seed=3), None, vocab)
    cold = generate(model, GenerationRequest(question="头痛发烧", strategy="temperature", temperature=1e-4, seed=3), None, vocab)
    assert cold["answer"] == greedy["answer"]


def test_generate_sampling_is_seed_deterministic(vocab):
    model = _decoder(vocab, seed=17, window=32)
    req = GenerationRequest(question="咳嗽", strategy="top_k", top_k=3, seed=21)
    assert generate(model, req, None, vocab) == generate(model, req, None, vocab)


def test_generation_request_validation():
    with pytest.raises(ValueError):
        GenerationRequest(question="q", strategy="beam")
    with pytest.raises(ValueError):
        GenerationRequest(question="q", top_k=0)
    for strategy in ("greedy", "temperature"):  # the check holds whatever the strategy
        for temperature in (0.0, -1.0, math.nan, math.inf):  # inf would sample uniformly, ignoring the model
            with pytest.raises(ValueError, match="temperature must be finite and > 0"):
                GenerationRequest(question="q", strategy=strategy, temperature=temperature)


@pytest.mark.parametrize("max_gen_len", [0, -3])
def test_generation_request_rejects_a_length_below_one(vocab, max_gen_len):
    """As DecoderConfig does: a request for no answer at all is an error, not
    an empty answer."""
    with pytest.raises(ValueError, match="max_gen_len must be >= 1"):
        generate(_decoder(vocab, seed=15, window=32), GenerationRequest(question="头痛", max_gen_len=max_gen_len), None, vocab)
    assert GenerationRequest(question="q", max_gen_len=None).max_gen_len is None


def _softmax(row):
    e = np.exp(row - row.max())
    return e / e.sum()


def _never_eos(model):
    model.params["out.b"].data[EOS_ID] = -1e3  # decode runs to max_gen_len


def test_cached_step_matches_full_recompute_at_every_step(vocab, monkeypatch):
    model = _decoder(vocab, hidden=16, layers=2, window=12, seed=30)
    ids = encode("头痛发烧", vocab, 12, mode="decoder")
    layer_forward = nm.layer_forward
    rows_run = []  # (rows in, rows out) of each cached layer call, bottom layer first

    def spy(x, *args, kv=None, **kwargs):
        out = layer_forward(x, *args, kv=kv, **kwargs)
        if kv is not None:
            rows_run.append((x.shape[0], out[0].shape[0]))
        return out

    monkeypatch.setattr(nm, "layer_forward", spy)
    cache = KVCache()
    with nm.no_grad():
        for step in range(16):  # runs past the 12-token window
            probs = lm_logits(model, ids, cache)
            (bottom, bottom_out), (top, top_out) = rows_run
            if step == 0 or len(ids) > 12:
                assert bottom == min(len(ids), 12)  # whole window recomputed
            else:
                assert bottom == 1  # only the newest position ran
            # Every new row runs the bottom layer and gives the top its keys and
            # values; only the last row runs the rest of the top layer.
            assert bottom_out == top == bottom and top_out == 1
            rows_run.clear()
            assert cache.ids == ids[-12:]
            full = full_logits(model, ids).data[-1]
            assert np.max(np.abs(probs - _softmax(full))) <= 1e-10
            ids.append(int(np.argmax(probs)))


def test_single_row_steps_write_keys_and_values_in_place(vocab):
    model = _decoder(vocab, hidden=16, layers=2, window=12, seed=38)
    _never_eos(model)
    ids = encode("头痛发烧", vocab, 12, mode="decoder")
    cache = KVCache()
    probs = lm_logits(model, ids, cache)
    buf = cache.kv
    assert buf.shape == (2, 2, 2, 12, 8)  # (layers, keys and values, heads, window, head_dim)
    for _ in range(12):  # single-row steps, then window slides past 12 tokens
        ids.append(int(np.argmax(probs)))
        probs = lm_logits(model, ids, cache)
        assert cache.kv is buf  # a slide starts again at position 0, in the same buffer
        filled = min(len(ids), 12)  # one more position a step
        assert cache.ids == ids[-filled:]
        fresh = KVCache()
        lm_logits(model, ids, fresh)
        assert np.max(np.abs(buf[..., :filled, :] - fresh.kv[..., :filled, :])) <= 1e-10


def test_cached_logits_build_no_graph_outside_no_grad(vocab, monkeypatch):
    model = _decoder(vocab, hidden=16, layers=2, window=16, seed=35)
    ids = encode("头痛发烧咳嗽", vocab, 12, mode="decoder")
    full = full_logits(model, ids).data
    built = []
    init = nm.Tensor.__init__
    monkeypatch.setattr(nm.Tensor, "__init__", lambda self, *args, **kwargs: built.append(self) or init(self, *args, **kwargs))
    cache = KVCache()
    for stop in (3, 4, len(ids)):  # a fresh cache, then two extensions of it
        probs = lm_logits(model, ids[:stop], cache)
        assert np.max(np.abs(probs - _softmax(full[stop - 1]))) <= 1e-10
    assert built == []
    assert all(p.grad is None for p in model.params.values())


def test_warm_cache_decode_step_builds_at_most_two_tensors(vocab, monkeypatch):
    model = _decoder(vocab, hidden=16, layers=2, window=16, seed=36)
    ids = encode("头痛发烧", vocab, 12, mode="decoder")
    cache = KVCache()
    lm_logits(model, ids, cache)  # fills the cache
    built = []
    init = nm.Tensor.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(nm.Tensor, "__init__", counting)
    for token in encode("咳嗽多", vocab, 12, mode="decoder")[1:4]:
        ids = ids + [token]
        before = len(built)
        lm_logits(model, ids, cache)
        assert cache.ids == ids
        assert len(built) - before <= 2  # the logits, not one Tensor per op


def test_cached_decode_overflow_raises_and_drops_the_cache(vocab):
    model = _decoder(vocab, hidden=16, layers=2, window=16, seed=37)
    ids = encode("头痛发烧", vocab, 12, mode="decoder")
    model.params["layer0.ln2.gain"].data *= 1e9
    model.params["layer1.attn.wq0"].data *= 1e300  # the second layer's projection overflows
    cache = KVCache()
    with pytest.raises(nm.NumericsError):
        lm_logits(model, ids, cache)
    assert cache.ids == []


def test_non_finite_logit_raises_and_keeps_the_cache(vocab):
    model = _decoder(vocab, hidden=16, layers=2, window=16, seed=37)
    ids = encode("头痛发烧", vocab, 12, mode="decoder")
    model.params["out.w"].data[:] = 1e308  # the layers stay finite; the output projection overflows
    cache = KVCache()
    with pytest.raises(nm.NumericsError, match="non-finite logits"):
        lm_logits(model, ids, cache)
    assert cache.ids == ids


def test_cache_from_another_context_is_dropped(vocab):
    model = _decoder(vocab, hidden=16, window=16, seed=31)
    cache = KVCache()
    lm_logits(model, encode("头痛发烧", vocab, 12, mode="decoder"), cache)
    other = encode("咳嗽多喝水", vocab, 12, mode="decoder")
    assert np.max(np.abs(lm_logits(model, other, cache) - _softmax(full_logits(model, other).data[-1]))) <= 1e-10
    assert cache.ids == other


def test_cached_greedy_matches_uncached_on_fixture_graph_and_qa_set():
    graph, _ = load_triples(fixture_graph_path())
    texts = [row["question"] + row["answer"] for row in CORPUS_SAMPLES]
    texts.append(Path(fixture_graph_path()).read_text(encoding="utf-8"))
    vocab = build_vocab(texts)
    cfg = DecoderConfig(vocab_size=vocab.size, hidden_dim=16, num_layers=2, num_heads=2, ffn_dim=32, context_window=128, max_gen_len=24)
    model = Decoder(cfg, nm.spawn(32, "dec"))
    for row in CORPUS_SAMPLES:
        request = GenerationRequest(question=row["question"], strategy="greedy")
        assert generate(model, request, graph, vocab) == generate_uncached(model, request, graph, vocab)


def test_greedy_answers_are_the_recorded_consult_answers():
    """Every answer perfbench's consult workload recorded (160 questions, two
    seeds), decoded from the fixture decoder bundle with the fixture graph."""
    root = Path(__file__).resolve().parents[1] / "perfbench"
    recorded = json.loads((root / "reference.json").read_text(encoding="utf-8"))["consult"]
    model, vocab, meta = _load_decoder_bundle(root / "fixtures" / "decoder" / "gen.ckpt")
    graph, _ = load_triples(fixture_graph_path())
    assert len(recorded) == 160
    for question, answer in recorded.items():
        request = GenerationRequest(question=question, strategy="greedy", max_gen_len=64)
        assert generate(model, request, graph, vocab, meta["supplement_max_chars"])["answer"] == answer, question


def test_cached_greedy_matches_uncached_past_the_context_window(vocab):
    model = _decoder(vocab, hidden=16, layers=2, window=10, seed=33)
    _never_eos(model)
    request = GenerationRequest(question="头痛发烧咳嗽", strategy="greedy", max_gen_len=12)
    prompt_len = len(encode(request.question, vocab, 10, mode="decoder"))
    out = generate(model, request, None, vocab)
    assert prompt_len + len(out["answer"]) > 10  # the window slid and the cache was rebuilt
    assert out == generate_uncached(model, request, None, vocab)


@pytest.mark.parametrize("strategy", ["top_k", "temperature"])
def test_cached_sampling_matches_uncached(vocab, strategy):
    model = _decoder(vocab, hidden=16, layers=2, window=10, seed=34)
    _never_eos(model)
    for seed in range(3):
        request = GenerationRequest(question="咳嗽要保暖", strategy=strategy, top_k=3, temperature=0.7, seed=seed, max_gen_len=12)
        assert generate(model, request, None, vocab) == generate_uncached(model, request, None, vocab)
