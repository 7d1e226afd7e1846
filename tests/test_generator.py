import math
from pathlib import Path

import numpy as np
import pytest

from medkit import numerics as nm
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
from medkit.numerics import Rng, TrainConfig
from medkit.tokenizer import EOS_ID, build_vocab, encode

from conftest import CORPUS_SAMPLES
from oracles import generate_uncached, grad_check


@pytest.fixture()
def vocab():
    return build_vocab(["头痛发烧咳嗽多喝水要休息保暖建议充分规律饮食abcd"])


def _decoder(vocab, hidden=8, layers=1, window=16, seed=0):
    cfg = DecoderConfig(vocab_size=vocab.size, hidden_dim=hidden, num_layers=layers, num_heads=2, ffn_dim=2 * hidden, context_window=window, max_gen_len=8)
    return Decoder(cfg, Rng(seed).spawn("dec"))


def _zero(model):
    for p in model.params.values():
        p.data = np.zeros_like(p.data)


def test_zeroed_output_head_gives_uniform(vocab):
    model = _decoder(vocab, seed=1)
    model.params["out.w"].data = np.zeros_like(model.params["out.w"].data)
    model.params["out.b"].data = np.zeros_like(model.params["out.b"].data)
    probs = lm_logits(model, encode("头痛", vocab, 12, mode="decoder").ids)
    assert np.allclose(probs, 1.0 / vocab.size, atol=1e-15)


def test_causality_future_edits_leave_earlier_rows_bit_identical(vocab):
    model = _decoder(vocab, seed=2)
    ids = encode("头痛发烧咳嗽", vocab, 12, mode="decoder").ids
    base = model.logits_matrix(ids).data
    for j in range(2, len(ids)):
        tampered = list(ids)
        tampered[j] = vocab.id_of("水")
        other = model.logits_matrix(tampered).data
        assert np.array_equal(base[: j], other[: j])


def test_sliding_window_keeps_last_k(vocab):
    model = _decoder(vocab, window=6, seed=3)
    long_ctx = encode("头痛发烧咳嗽多喝水要休息", vocab, 16, mode="decoder").ids
    assert len(long_ctx) > 6
    direct = lm_logits(model, long_ctx)
    windowed = lm_logits(model, long_ctx[-6:])
    assert np.array_equal(direct, windowed)


def test_lm_logits_gradient_check(vocab):
    model = _decoder(vocab, hidden=4, seed=4)
    ids = encode("头痛发", vocab, 8, mode="decoder").ids

    def loss_fn():
        return lm_loss(model, ids, [True] * len(ids))

    err = grad_check(loss_fn, model.params, eps=1e-4, max_entries_per_param=2, rng=Rng(0))
    assert err < 1e-4


def test_lm_loss_uniform_model_is_log_vocab(vocab):
    model = _decoder(vocab, seed=5)
    _zero(model)
    ids = encode("头痛发烧", vocab, 12, mode="decoder").ids
    loss = lm_loss(model, ids, [True] * len(ids))
    assert loss.item() == pytest.approx(math.log(vocab.size), abs=1e-12)


def test_lm_loss_perfect_model_is_zero(vocab):
    model = _decoder(vocab, seed=6)
    _zero(model)
    a = vocab.id_of("a")
    model.params["out.b"].data[a] = 1000.0  # certain of 'a' everywhere
    ids = [a, a, a, a]
    loss = lm_loss(model, ids, [True] * 4)
    assert loss.item() == pytest.approx(0.0, abs=1e-9)


def test_lm_loss_mask_contract_bit_identical(vocab):
    model = _decoder(vocab, seed=7)
    ids = encode("头痛发烧咳嗽", vocab, 12, mode="decoder").ids
    mask = [False] * len(ids)
    mask[-2] = mask[-1] = True

    def run(targets):
        nm.zero_grads(model.params.values())
        loss = lm_loss(model, ids, mask, targets=targets)
        nm.backward(loss)
        return loss.item(), {k: p.grad.tobytes() for k, p in model.params.items()}

    tampered = list(ids)
    tampered[1] = vocab.id_of("水")  # masked-out target position
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
            model.logits_matrix(bad)
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
    model.params["tok_emb"].data[vocab.id_of("头"), 0] = 1e308
    snapshot = {k: v.data.copy() for k, v in model.params.items()}
    with caplog.at_level("ERROR"):
        history = pretrain_lm(model, ["头痛发烧"], vocab, TrainConfig(epochs=2, lr=1e-3, batch_size=1, seed=20))
    assert history.aborted
    for name, data in snapshot.items():
        assert np.array_equal(model.params[name].data, data)


def test_build_qa_sequence_masks_answer_only(vocab):
    graph, _ = load_triples(fixture_graph_path())
    ids, mask, layout = build_qa_sequence("头痛多喝水", "建议休息", graph, vocab, window=64, supplement_max_chars=20)
    assert len(ids) == len(mask)
    assert not any(mask[: layout.prompt_len])
    assert all(mask[layout.prompt_len :])
    assert ids[-1] == EOS_ID
    q_lo, q_hi = layout.question_span
    assert q_hi - q_lo == 5


def test_finetune_qa_memorizes_pairs(vocab):
    pairs = [("头痛多喝水", "建议休息"), ("发烧要保暖", "多喝水"), ("咳嗽要休息", "要保暖")]
    model = _decoder(vocab, hidden=16, window=32, seed=11)
    result = finetune_qa(model, pairs, None, vocab, TrainConfig(epochs=150, lr=0.01, batch_size=3, seed=11))
    assert result.skipped == 0
    hits = 0
    for question, answer in pairs:
        out = generate(model, GenerationRequest(question=question, max_gen_len=16), None, vocab)
        hits += out["answer"] == answer
    assert hits == len(pairs)


def test_finetune_qa_without_graph_still_trains(vocab):
    model = _decoder(vocab, seed=12, window=32)
    result = finetune_qa(model, [("头痛多喝水", "建议休息")], None, vocab, TrainConfig(epochs=1, lr=1e-3, batch_size=1, seed=0))
    assert not result.history.aborted


def test_finetune_qa_skips_overlong_pairs(vocab, caplog):
    model = _decoder(vocab, window=8, seed=13)
    pairs = [("头痛", "好"), ("发烧要保暖咳嗽", "建议充分休息多喝水保暖规律饮食abcd")]
    with caplog.at_level("WARNING"):
        result = finetune_qa(model, pairs, None, vocab, TrainConfig(epochs=1, lr=1e-3, batch_size=1, seed=0))
    assert result.skipped == 1


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
    with pytest.raises(ValueError):
        GenerationRequest(question="q", temperature=0.0)


def _softmax(row):
    e = np.exp(row - row.max())
    return e / e.sum()


def _never_eos(model):
    model.params["out.b"].data[EOS_ID] = -1e3  # decode runs to max_gen_len


def test_cached_step_matches_full_recompute_at_every_step(vocab):
    model = _decoder(vocab, hidden=16, layers=2, window=12, seed=30)
    ids = encode("头痛发烧", vocab, 12, mode="decoder").ids
    full_matrix = model.logits_matrix
    rows_run = []

    def spy(seq, cache=None):
        out = full_matrix(seq, cache)
        rows_run.append(out.shape[0])
        return out

    model.logits_matrix = spy
    cache = KVCache()
    with nm.no_grad():
        for step in range(16):  # runs past the 12-token window
            probs = lm_logits(model, ids, cache)
            if step == 0 or len(ids) > 12:
                assert rows_run[-1] == min(len(ids), 12)  # whole window recomputed
            else:
                assert rows_run[-1] == 1  # only the newest position ran
            assert cache.ids == ids[-12:]
            full = full_matrix(ids).data[-1]
            assert np.max(np.abs(probs - _softmax(full))) <= 1e-10
            ids.append(int(np.argmax(probs)))


def test_cached_logits_build_no_graph_outside_no_grad(vocab):
    model = _decoder(vocab, hidden=16, layers=2, window=16, seed=35)
    ids = encode("头痛发烧咳嗽", vocab, 12, mode="decoder").ids
    full = model.logits_matrix(ids).data
    cache = KVCache()
    for stop in (3, 4, len(ids)):  # a fresh cache, then two extensions of it
        out = model.logits_matrix(ids[:stop], cache)
        assert out._parents == () and not out.requires_grad
        assert np.max(np.abs(out.data - full[stop - out.shape[0] : stop])) <= 1e-10
    assert all(p.grad is None for p in model.params.values())


def test_warm_cache_decode_step_builds_at_most_two_tensors(vocab, monkeypatch):
    model = _decoder(vocab, hidden=16, layers=2, window=16, seed=36)
    ids = encode("头痛发烧", vocab, 12, mode="decoder").ids
    cache = KVCache()
    lm_logits(model, ids, cache)  # fills the cache
    built = []
    init = nm.Tensor.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(nm.Tensor, "__init__", counting)
    for token in encode("咳嗽多", vocab, 12, mode="decoder").ids[1:4]:
        ids = ids + [token]
        before = len(built)
        lm_logits(model, ids, cache)
        assert cache.ids == ids
        assert len(built) - before <= 2  # the logits, not one Tensor per op


def test_cached_decode_overflow_raises_and_drops_the_cache(vocab):
    model = _decoder(vocab, hidden=16, layers=2, window=16, seed=37)
    ids = encode("头痛发烧", vocab, 12, mode="decoder").ids
    model.params["layer0.ln2.gain"].data *= 1e9
    model.params["layer1.attn.wq0"].data *= 1e300  # the second layer's projection overflows
    cache = KVCache()
    with pytest.raises(nm.NumericsError):
        lm_logits(model, ids, cache)
    assert cache.ids == []


def test_cache_from_another_context_is_dropped(vocab):
    model = _decoder(vocab, hidden=16, window=16, seed=31)
    cache = KVCache()
    lm_logits(model, encode("头痛发烧", vocab, 12, mode="decoder").ids, cache)
    other = encode("咳嗽多喝水", vocab, 12, mode="decoder").ids
    assert np.max(np.abs(lm_logits(model, other, cache) - lm_logits(model, other))) <= 1e-10
    assert cache.ids == other


def test_cached_greedy_matches_uncached_on_fixture_graph_and_qa_set():
    graph, _ = load_triples(fixture_graph_path())
    texts = [row["question"] + row["answer"] for row in CORPUS_SAMPLES]
    texts.append(Path(fixture_graph_path()).read_text(encoding="utf-8"))
    vocab = build_vocab(texts)
    cfg = DecoderConfig(vocab_size=vocab.size, hidden_dim=16, num_layers=2, num_heads=2, ffn_dim=32, context_window=128, max_gen_len=24)
    model = Decoder(cfg, Rng(32).spawn("dec"))
    for row in CORPUS_SAMPLES:
        request = GenerationRequest(question=row["question"], strategy="greedy")
        assert generate(model, request, graph, vocab) == generate_uncached(model, request, graph, vocab)


def test_cached_greedy_matches_uncached_past_the_context_window(vocab):
    model = _decoder(vocab, hidden=16, layers=2, window=10, seed=33)
    _never_eos(model)
    request = GenerationRequest(question="头痛发烧咳嗽", strategy="greedy", max_gen_len=12)
    prompt_len = len(encode(request.question, vocab, 10, mode="decoder").ids)
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
