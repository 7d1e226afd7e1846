import math

import numpy as np
import pytest

from medkit import genmetrics as gm
from medkit.numerics import Tensor, spawn

from oracles import (
    bf_bleu,
    bf_chrf,
    bf_edit_distance,
    bf_gleu,
    bf_nist,
    bf_nist_info,
    bf_ribes,
    bf_self_bleu,
    bf_ter,
    bf_transport_cost,
    bf_weighted_prf,
    lp_transport_cost,
)

ALPHABET = ["a", "b", "c", "d", "e"]


def _random_sentence(rng, lo=1, hi=8):
    length = int(rng.integers(lo, hi + 1))
    return [ALPHABET[i] for i in rng.integers(0, len(ALPHABET), length)]


# -- BLEU ---------------------------------------------------------------------


def test_bleu_identical_is_one():
    assert gm.bleu(list("abcd"), [list("abcd")], max_n=1) == 1.0


def test_bleu_clipping_hand_case():
    assert gm.bleu(["the", "the", "the"], [["the", "cat"]], max_n=1) == pytest.approx(1 / 3)


def test_bleu_brevity_penalty_hand_case():
    score = gm.bleu(["a", "b"], [["a", "b", "c", "d"]], max_n=1)
    assert score == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_bleu_empty_candidate_is_zero():
    assert gm.bleu([], [["a"]], max_n=1) == 0.0


def test_bleu_matches_oracle_fuzz():
    rng = np.random.default_rng(100)
    for _ in range(100):
        cand = _random_sentence(rng, 0, 7)
        refs = [_random_sentence(rng) for _ in range(int(rng.integers(1, 3)))]
        n = int(rng.integers(1, 4))
        assert gm.bleu(cand, refs, max_n=n) == pytest.approx(bf_bleu(cand, refs, max_n=n), abs=1e-9)


# -- chrF ---------------------------------------------------------------------


def test_chrf_identical_is_one():
    assert gm.chrf("同样的句子", "同样的句子") == 1.0


def test_chrf_disjoint_is_zero():
    assert gm.chrf("aaaa", "bbbb") == 0.0


def test_chrf_hand_case_ab_abc():
    assert gm.chrf("ab", "abc") == pytest.approx(14 / 33, abs=1e-12)
    assert gm.chrf("ab", "abc") == pytest.approx(bf_chrf("ab", "abc"), abs=1e-12)


def test_chrf_empty_conventions():
    assert gm.chrf("", "") == 1.0
    assert gm.chrf("a", "") == 0.0
    assert gm.chrf("", "a") == 0.0


def test_chrf_matches_oracle_fuzz():
    rng = np.random.default_rng(101)
    for _ in range(100):
        cand = "".join(_random_sentence(rng, 0, 9))
        ref = "".join(_random_sentence(rng, 0, 9))
        assert gm.chrf(cand, ref) == pytest.approx(bf_chrf(cand, ref), abs=1e-9)


# -- GLEU ---------------------------------------------------------------------


def test_gleu_identical_is_one():
    assert gm.gleu(list("abcd"), list("abcd")) == 1.0


def test_gleu_disjoint_is_zero():
    assert gm.gleu(["a", "a"], ["b", "b"]) == 0.0


def test_gleu_hand_case():
    assert gm.gleu(["a", "b", "c"], ["a", "b", "d"]) == pytest.approx(0.5)
    assert bf_gleu(["a", "b", "c"], ["a", "b", "d"]) == pytest.approx(0.5)


def test_gleu_matches_oracle_fuzz():
    rng = np.random.default_rng(102)
    for _ in range(100):
        cand = _random_sentence(rng, 0, 8)
        ref = _random_sentence(rng, 1, 8)
        assert gm.gleu(cand, ref) == pytest.approx(bf_gleu(cand, ref), abs=1e-9)


# -- weighted P/R/F1 -------------------------------------------------------------


def test_weighted_prf_identical():
    assert gm.weighted_prf(list("abcde"), list("abcde")) == (1.0, 1.0, 1.0)


def test_weighted_prf_disjoint():
    assert gm.weighted_prf(["a", "a"], ["b", "b"]) == (0.0, 0.0, 0.0)


def test_weighted_prf_hand_case():
    p, r, f1 = gm.weighted_prf(["a", "b", "c"], ["a", "b", "d"])
    assert p == pytest.approx(7 / 18, abs=1e-12)
    assert r == pytest.approx(7 / 18, abs=1e-12)
    assert f1 == pytest.approx(7 / 18, abs=1e-12)


def test_weighted_prf_matches_oracle_fuzz():
    rng = np.random.default_rng(103)
    for _ in range(100):
        cand = _random_sentence(rng, 0, 8)
        ref = _random_sentence(rng, 0, 8)
        mine = gm.weighted_prf(cand, ref)
        expected = bf_weighted_prf(cand, ref)
        assert mine == pytest.approx(expected, abs=1e-9)


# -- NIST ---------------------------------------------------------------------


def test_nist_zero_match_is_zero():
    assert gm.nist(["x"], [["y"]]) == 0.0


def test_nist_identical_three_word_hand_case():
    sentence = ["a", "b", "c"]
    assert gm.nist(sentence, [sentence]) == pytest.approx(math.log2(3), abs=1e-12)


def test_nist_info_weights_hand_case():
    info = gm.nist_info_weights([["a", "b", "a"]], max_n=2)
    assert info[("a",)] == pytest.approx(math.log2(3 / 2))
    assert info[("b",)] == pytest.approx(math.log2(3 / 1))
    assert info[("a", "b")] == pytest.approx(math.log2(2 / 1))


def test_nist_brevity_factor_halves_at_two_thirds():
    # candidate 2/3 the reference length: brevity factor is 0.5 by construction.
    # order 1 contributes 2 * log2(3) / 2; the matched bigram has info 0.
    short = gm.nist(["a", "b"], [["a", "b", "c"]])
    assert short == pytest.approx(0.5 * math.log2(3), abs=1e-12)


def test_nist_all_empty_references_is_zero():
    assert gm.nist(["a", "b"], [[]]) == 0.0
    assert gm.nist(["a", "b"], [[], []], info=gm.nist_info_weights([["a"]])) == 0.0


def test_nist_nonnegative_fuzz():
    rng = np.random.default_rng(104)
    for _ in range(60):
        cand = _random_sentence(rng, 0, 8)
        refs = [_random_sentence(rng, 1, 8)]
        assert gm.nist(cand, refs) >= 0.0


def test_nist_info_weights_match_oracle_fuzz():
    rng = np.random.default_rng(113)
    for _ in range(40):
        corpus = [_random_sentence(rng, 0, 8) for _ in range(int(rng.integers(1, 4)))]
        mine = gm.nist_info_weights(corpus, max_n=3)
        expected = bf_nist_info(corpus, max_n=3)
        assert mine.keys() == expected.keys()
        assert all(mine[g] == pytest.approx(expected[g], abs=1e-12) for g in expected)


def test_nist_matches_oracle_fuzz():
    rng = np.random.default_rng(114)
    for case in range(160):
        cand = _random_sentence(rng, 0, 8)
        refs = [_random_sentence(rng, 0, 8) for _ in range(1 if case % 2 else int(rng.integers(2, 4)))]
        others = [_random_sentence(rng) for _ in range(3)]
        info = [gm.nist_info_weights(refs + others), gm.nist_info_weights(others), None, None][case % 4]  # weights may miss a matched gram
        n = int(rng.integers(1, 6))
        assert gm.nist(cand, refs, max_n=n, info=info) == pytest.approx(bf_nist(cand, refs, max_n=n, info=info), abs=1e-9)

# -- RIBES --------------------------------------------------------------------


def test_ribes_identical_is_one():
    assert gm.ribes(list("abcd"), list("abcd")) == pytest.approx(1.0)


def test_ribes_reversal_is_zero():
    assert gm.ribes(list("dcba"), list("abcd")) == 0.0


def test_ribes_single_shared_word_hand_case():
    score = gm.ribes(["x", "a"], ["a", "y"])
    assert score == pytest.approx(0.5 * 0.5**0.25, abs=1e-12)


def test_ribes_no_alignment_is_zero():
    assert gm.ribes(["x"], ["y"]) == 0.0


def test_ribes_matches_oracle_fuzz():
    rng = np.random.default_rng(105)
    for _ in range(100):
        cand = _random_sentence(rng, 0, 8)
        ref = _random_sentence(rng, 0, 8)
        assert gm.ribes(cand, ref) == pytest.approx(bf_ribes(cand, ref), abs=1e-9)


# -- TER ----------------------------------------------------------------------


def test_ter_identical_is_zero():
    assert gm.ter(list("abc"), list("abc")) == 0.0


def test_ter_one_insertion_hand_case():
    assert gm.ter(["a", "b", "c", "d"], ["a", "b", "c"]) == pytest.approx(1 / 3)


def test_ter_shift_beats_substitutions():
    assert gm.ter(["c", "a", "b"], ["a", "b", "c"]) == pytest.approx(1 / 3)


def test_ter_empty_reference_errors():
    with pytest.raises(ValueError):
        gm.ter(["a"], [])


def test_ter_upper_bound_fuzz():
    rng = np.random.default_rng(106)
    for _ in range(60):
        cand = _random_sentence(rng, 0, 8)
        ref = _random_sentence(rng, 1, 8)
        score = gm.ter(cand, ref)
        assert 0.0 <= score <= (len(cand) + len(ref)) / len(ref)


@pytest.mark.parametrize(("cand", "ref", "calls"), [("abc", "abd", 1), ("ab", "ba", 2)], ids=["starts-at-floor", "first-shift-reaches-floor"])
def test_ter_stops_shifting_at_the_floor(monkeypatch, cand, ref, calls):
    """"abc" against "abd" starts at its floor, 3 - 2 shared tokens, so no shift
    is scored where a full scan scores five. "ab" against "ba" stops at the
    first shift, which reaches the floor 0, where a full scan scores two."""
    scored = []
    real = gm._edit_distance
    monkeypatch.setattr(gm, "_edit_distance", lambda *args: scored.append(args) or real(*args))
    assert gm.ter(list(cand), list(ref)) == bf_ter(list(cand), list(ref))
    assert len(scored) == calls


def test_ter_matches_oracle_fuzz():
    rng = np.random.default_rng(107)
    for _ in range(80):
        cand = _random_sentence(rng, 0, 7)
        ref = _random_sentence(rng, 1, 7)
        assert gm.ter(cand, ref) == pytest.approx(bf_ter(cand, ref), abs=1e-9)


def _edit_distance_case(rng):
    """A fuzzed token pair: either side may be empty or longer than one 64-bit
    word, over a two-symbol alphabet (heavy repeats), five letters, or 300
    multi-character strings."""
    alphabet = [["x", "y"], ALPHABET, [f"w{i:03d}" for i in range(300)]][int(rng.integers(0, 3))]
    hi = [0, 14, 150][int(rng.integers(0, 3))]
    a = [alphabet[i] for i in rng.integers(0, len(alphabet), int(rng.integers(0, hi + 1)))]
    b = [alphabet[i] for i in rng.integers(0, len(alphabet), int(rng.integers(0, hi + 1)))]
    return a, b


def test_edit_distance_matches_oracle_fuzz():
    rng = np.random.default_rng(108)
    long = [f"t{i}" for i in range(130)]
    edge = [([], []), ([], ["a"]), (["a"], []), (long, []), ([], long), (long, long), (long, long[::-1]), (long, long[1:] + long[:1])]
    for a, b in edge + [_edit_distance_case(rng) for _ in range(400)]:
        assert gm._edit_distance(a, gm._match_masks(b), len(b)) == bf_edit_distance(a, b)


def _benchmark_shape_pair(rng):
    """A 12-token reference over 300 symbols, and its candidate after one block
    move of 2-4 tokens and two substitutions."""
    alphabet = [chr(0x4E00 + 7 * i) for i in range(300)]
    ref = [alphabet[i] for i in rng.integers(0, len(alphabet), 12)]
    size = int(rng.integers(2, 5))
    start = int(rng.integers(0, len(ref) - size + 1))
    span, rest = ref[start : start + size], ref[:start] + ref[start + size :]
    dest = int(rng.integers(0, len(rest)))
    dest += dest >= start  # any position but the span's own
    cand = rest[:dest] + span + rest[dest:]
    for pos in rng.integers(0, len(cand), 2):
        cand[int(pos)] = alphabet[int(rng.integers(0, len(alphabet)))]
    return cand, ref


def test_ter_matches_oracle_exactly_at_benchmark_shape():
    rng = np.random.default_rng(109)
    for _ in range(6):
        cand, ref = _benchmark_shape_pair(rng)
        assert gm.ter(cand, ref) == bf_ter(cand, ref)
    # One shift of a 10-token block fixes B + A against A + B; a 9-token limit needs two.
    a, b = list("abcdefghij"), list("klmnopqrstu")
    assert gm.ter(b + a, a + b) == bf_ter(b + a, a + b, max_shift_len=10) == 1 / 21


# -- WMD ----------------------------------------------------------------------


def _toy_embeddings():
    rng = np.random.default_rng(42)
    table = {tok: rng.normal(size=3) for tok in ALPHABET}
    table["[UNK]"] = np.zeros(3)
    return table


def test_wmd_identical_sentences_similarity_one():
    table = _toy_embeddings()
    assert gm.wmd_similarity(["a", "b"], ["b", "a"], table) == 1.0


def test_wmd_single_token_distance_is_embedding_distance():
    table = {"u": np.array([0.0, 0.0]), "v": np.array([3.0, 4.0]), "[UNK]": np.zeros(2)}
    sim = gm.wmd_similarity(["u"], ["v"], table)
    assert sim == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_wmd_unknown_tokens_fall_back_to_unk():
    table = {"a": np.array([1.0, 0.0]), "[UNK]": np.zeros(2)}
    sim = gm.wmd_similarity(["zz"], ["qq"], table)  # both map to [UNK]
    assert sim == pytest.approx(1.0)


def test_wmd_empty_sentence_errors():
    with pytest.raises(ValueError):
        gm.wmd_similarity([], ["a"], _toy_embeddings())


def test_transport_cost_matches_vertex_enumeration_fuzz():
    rng = np.random.default_rng(108)
    for _ in range(25):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        p = np.asarray(rng.uniform(0.1, 1.0, m))
        p /= p.sum()
        q = np.asarray(rng.uniform(0.1, 1.0, n))
        q /= q.sum()
        cost = np.abs(rng.normal(size=(m, n)))
        assert gm.transport_cost(p, q, cost) == pytest.approx(bf_transport_cost(p, q, cost), abs=1e-9)


def test_transport_cost_matches_lp_oracle_fuzz():
    """520 seeded instances from 1x1 to 40x40 against scipy's LP: Euclidean
    costs between random points; the same rounded to one decimal (tied
    costs); points drawn from a pool of one to four, so distinct tokens share
    a vector as [UNK] collisions do (zero costs off the diagonal); 1 x n and
    m x 1 shapes; masses from token counts or uniform draws; and every fifth
    instance with its last sink mass nudged until the two mass sums differ
    in the last place."""
    rng = np.random.default_rng(20)
    for case in range(520):
        m, n = [(1, 1), (40, 40), (1, 40), (40, 1)][case] if case < 4 else rng.integers(1, 41, size=2)
        if case % 8 == 4:
            m = 1
        elif case % 8 == 5:
            n = 1
        if case % 3 == 2:
            pool = rng.normal(size=(int(rng.integers(1, 5)), 3))
            src, snk = pool[rng.integers(0, len(pool), m)], pool[rng.integers(0, len(pool), n)]
        else:
            src, snk = rng.normal(size=(m, 3)), rng.normal(size=(n, 3))
        cost = np.linalg.norm(src[:, None, :] - snk[None, :, :], axis=2)
        if case % 3 == 1:
            cost = np.round(cost, 1)
        p = rng.integers(1, 5, size=m) if case % 2 else rng.uniform(0.05, 1.0, size=m)
        q = rng.integers(1, 5, size=n) if case % 2 else rng.uniform(0.05, 1.0, size=n)
        p, q = p / p.sum(), q / q.sum()
        while case % 5 == 0 and q.sum() == p.sum():
            q[-1] = np.nextafter(q[-1], np.inf)
        assert gm.transport_cost(p, q, cost) == pytest.approx(lp_transport_cost(p, q, cost), rel=1e-12, abs=0), case


@pytest.mark.parametrize(("p", "q", "cost"), [
    ([0.5, 0.5], [0.5, 0.5], np.ones((3, 2))),
    ([1.2, -0.2], [0.5, 0.5], np.ones((2, 2))),
    ([0.5, 0.5], [np.nan, 1.0], np.ones((2, 2))),
    ([0.5, 0.5], [0.5, 0.5], [[1.0, -1.0], [1.0, 1.0]]),
    ([0.5, 0.5], [0.5, 0.5], [[1.0, np.inf], [1.0, 1.0]]),
    ([0.5, 0.5], [0.5, 0.5 + 2e-9], np.ones((2, 2))),
], ids=["unequal-lengths", "negative-mass", "non-finite-mass", "negative-cost", "non-finite-cost", "mass-sums-apart"])
def test_transport_cost_rejects_malformed_input(p, q, cost):
    with pytest.raises(ValueError):
        gm.transport_cost(np.array(p), np.array(q), np.array(cost))


def test_wmd_matches_vertex_oracle_on_sentences():
    rng = np.random.default_rng(109)
    table = _toy_embeddings()
    for _ in range(15):
        cand = _random_sentence(rng, 1, 4)
        ref = _random_sentence(rng, 1, 4)
        from collections import Counter

        if Counter(cand) == Counter(ref):
            continue
        cand_toks = sorted(set(cand))
        ref_toks = sorted(set(ref))
        p = np.array([cand.count(t) for t in cand_toks], dtype=float)
        p /= p.sum()
        q = np.array([ref.count(t) for t in ref_toks], dtype=float)
        q /= q.sum()
        cost = np.array([[np.linalg.norm(table[a] - table[b]) for b in ref_toks] for a in cand_toks])
        expected = 1.0 / (1.0 + bf_transport_cost(p, q, cost))
        assert gm.wmd_similarity(cand, ref, table) == pytest.approx(expected, abs=1e-9)


# -- embedding score ------------------------------------------------------------


class _StubEncoder:
    """Maps every token id to a fixed vector so cosines are hand-checkable."""

    def __init__(self, vectors_by_id, hidden):
        self.vectors = vectors_by_id
        self.config = type("Cfg", (), {"max_len": 16, "hidden_dim": hidden})()

    def encode(self, seq):
        rows = np.stack([self.vectors.get(t, np.zeros(self.config.hidden_dim)) for t in seq.ids])
        return type("Out", (), {"token_reps": Tensor(rows), "cls_vector": Tensor(rows[0])})()


def test_embed_score_identical_sentence_is_unity():
    from medkit.tokenizer import build_vocab

    vocab = build_vocab(["abc"])
    rng = np.random.default_rng(7)
    vectors = {i: rng.normal(size=4) for i in range(vocab.size)}
    enc = _StubEncoder(vectors, hidden=4)
    p, r, f1 = gm.embed_score("abc", "abc", enc, vocab)
    assert p == pytest.approx(1.0, abs=1e-12)
    assert r == pytest.approx(1.0, abs=1e-12)
    assert f1 == pytest.approx(1.0, abs=1e-12)


def test_embed_score_hand_cosine_table(monkeypatch):
    from medkit.tokenizer import build_vocab

    vocab = build_vocab(["ab"])
    a_id, b_id = vocab.ids("a")[0], vocab.ids("b")[0]
    vectors = {a_id: np.array([1.0, 0.0]), b_id: np.array([0.0, 1.0])}
    enc = _StubEncoder(vectors, hidden=2)
    # candidate "a", reference "ab": best cosine for 'a' is 1; recall side: 'a'->1, 'b'->0
    p, r, f1 = gm.embed_score("a", "ab", enc, vocab)
    assert p == pytest.approx(1.0)
    assert r == pytest.approx(0.5)
    assert f1 == pytest.approx(2 * 1.0 * 0.5 / 1.5)
    # A token vector of norm 1e-6 still has the direction of its larger twin.
    table = {"cand": np.array([[3.0, 4.0], [6e-7, 8e-7]]), "ref": np.array([[0.6, 0.8], [0.0, 1.0]])}
    monkeypatch.setattr(gm, "_token_vectors", lambda text, encoder, vocab: table[text])
    p, r, f1 = gm.embed_score("cand", "ref", enc, vocab)
    assert p == pytest.approx(1.0)
    assert r == pytest.approx(0.9)
    assert f1 == pytest.approx(2 * 0.9 / 1.9)


def test_embed_score_negative_cosines_floor_to_zero():
    from medkit.tokenizer import build_vocab

    vocab = build_vocab(["ab"])
    a_id, b_id = vocab.ids("a")[0], vocab.ids("b")[0]
    vectors = {a_id: np.array([1.0, 0.0]), b_id: np.array([-1.0, 0.0])}
    enc = _StubEncoder(vectors, hidden=2)
    p, r, f1 = gm.embed_score("a", "b", enc, vocab)
    assert (p, r, f1) == (0.0, 0.0, 0.0)


def test_embed_score_empty_side_is_zero():
    from medkit.tokenizer import build_vocab

    vocab = build_vocab(["ab"])
    enc = _StubEncoder({}, hidden=2)
    assert gm.embed_score("", "ab", enc, vocab) == (0.0, 0.0, 0.0)


# -- corpus statistics ------------------------------------------------------------


def test_entropy_single_token_zero():
    assert gm.entropy(["x"] * 10) == 0.0


def test_entropy_uniform_four_tokens():
    assert gm.entropy(["a", "b", "c", "d"]) == 2.0


def test_entropy_half_quarter_quarter():
    assert gm.entropy(["a", "a", "b", "c"]) == pytest.approx(1.5)


def test_entropy_maximal_exactly_at_uniform():
    corpus = ["a", "b", "c", "d", "e", "f", "g", "h"]
    assert gm.entropy(corpus) == math.log2(8)


def test_entropy_empty_errors():
    with pytest.raises(ValueError):
        gm.entropy([])


def test_lexical_diversity_all_distinct():
    assert gm.lexical_diversity(list("abcde")) == 1.0


def test_lexical_diversity_single_type():
    assert gm.lexical_diversity(["x"] * 50) == pytest.approx(0.02)


def test_kl_identical_corpora_zero():
    corpus = list("aabbccdd")
    assert gm.kl_divergence(corpus, list(corpus)) == 0.0


def test_kl_hand_case():
    gen = ["a", "a", "b", "b"]
    ref = ["a", "b", "b", "b"]
    # union {a, b}; add-one: p = (3/6, 3/6), q = (2/6, 4/6)
    expected = 0.5 * math.log(0.5 / (2 / 6)) + 0.5 * math.log(0.5 / (4 / 6))
    assert gm.kl_divergence(gen, ref) == pytest.approx(expected, abs=1e-12)


def test_kl_nonnegative_on_ten_thousand_pairs():
    rng = np.random.default_rng(110)
    for _ in range(10_000):
        gen = _random_sentence(rng, 1, 12)
        ref = _random_sentence(rng, 1, 12)
        assert gm.kl_divergence(gen, ref) >= 0.0


def test_bounded_metrics_stay_in_range_fuzz():
    rng = np.random.default_rng(112)
    for _ in range(200):
        cand = _random_sentence(rng, 0, 8)
        ref = _random_sentence(rng, 1, 8)
        assert 0.0 <= gm.bleu(cand, [ref], max_n=2) <= 1.0
        assert 0.0 <= gm.chrf("".join(cand), "".join(ref)) <= 1.0
        assert 0.0 <= gm.gleu(cand, ref) <= 1.0
        assert 0.0 <= gm.ribes(cand, ref) <= 1.0
        assert gm.ter(cand, ref) >= 0.0
        assert gm.nist(cand, [ref]) >= 0.0
        corpus = [_random_sentence(rng, 1, 6) for _ in range(3)]
        assert 0.0 <= gm.self_bleu(corpus, 2) <= 1.0
        assert gm.entropy(ref) >= 0.0


# -- Self-BLEU -----------------------------------------------------------------


def test_self_bleu_identical_sentences():
    corpus = [list("abab")] * 3
    assert gm.self_bleu(corpus, 2) == 1.0


def test_self_bleu_disjoint_vocabularies():
    corpus = [["a", "a"], ["b", "b"], ["c", "c"]]
    assert gm.self_bleu(corpus, 2) == 0.0


def test_self_bleu_single_sentence_errors():
    with pytest.raises(ValueError):
        gm.self_bleu([["a"]], 2)


def test_self_bleu_matches_leave_one_out_oracle():
    rng = np.random.default_rng(111)
    for _ in range(20):
        corpus = [_random_sentence(rng, 1, 6) for _ in range(3)]
        for n in (2, 3):
            assert gm.self_bleu(corpus, n) == pytest.approx(bf_self_bleu(corpus, n), abs=1e-9)


# -- corpus report ----------------------------------------------------------------


def test_report_diagonal_case():
    lines = ["头痛多喝水好好休息", "发烧要保暖注意降温", "咳嗽的患者要多喝水"]
    rep = gm.report(lines, list(lines))
    assert rep.bleu1 == 1.0
    assert rep.ter == 0.0
    assert rep.kl_divergence == 0.0
    assert rep.chrf == 1.0
    assert rep.weighted_f1 == 1.0


def test_report_permutation_covariant():
    gen = ["abab", "bcbc", "caca", "abba"]
    ref = ["abab", "bccb", "caac", "baab"]
    base = gm.report(gen, ref).to_json()
    order = [2, 0, 3, 1]
    shuffled = gm.report([gen[i] for i in order], [ref[i] for i in order]).to_json()
    for key, value in base.items():
        if value is None:
            assert shuffled[key] is None
            continue
        assert shuffled[key] == pytest.approx(value, abs=1e-12), key


def test_report_length_mismatch_errors():
    with pytest.raises(ValueError):
        gm.report(["a"], ["a", "b"])


def test_report_embedding_metrics_none_without_encoder():
    rep = gm.report(["ab"], ["ab"])
    assert rep.wmd_similarity is None
    assert rep.embed_f1 is None



_METRICS_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # every import of scipy now raises ImportError
from medkit import cli
sys.exit(cli.main(sys.argv[1:]))
"""


def test_metrics_with_encoder_runs_with_scipy_blocked(tmp_path, capsys):
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    from medkit import cli

    gen, ref = tmp_path / "gen.txt", tmp_path / "ref.txt"
    gen.write_text("头痛多喝水\n发烧要休息\n咳嗽两天了\n", encoding="utf-8")
    ref.write_text("头痛要多喝水\n发烧好好休息\n咳嗽\n", encoding="utf-8")
    encoder = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / "encoder" / "encoder.ckpt"
    argv = ["metrics", "--gen", str(gen), "--ref", str(ref), "--encoder", str(encoder)]
    src = str(Path(gm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]), "PYTHONIOENCODING": "utf-8"}
    done = subprocess.run([sys.executable, "-c", _METRICS_WITHOUT_SCIPY, *argv], env=env, capture_output=True, encoding="utf-8")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["wmd_similarity"] is not None
    assert cli.main(argv) == 0
    assert done.stdout == capsys.readouterr().out


_EMBEDDING_FIELDS = ("wmd_similarity", "embed_p", "embed_r", "embed_f1")


def _mean(values):
    return sum(values) / len(values) if values else None


@pytest.mark.parametrize(("gen", "ref"), [
    (["头痛多喝水", "", "发烧要休息", "咳嗽", "头痛癌多喝水好好休息"], ["头痛要多喝水", "发烧", "", "咳嗽", "休息好头痛"]),
    (["头痛", ""], ["", ""]),
    (["咳嗽"], ["咳嗽"]),
], ids=["mixed", "no-reference", "identical"])
def test_report_means_match_per_pair_metrics(gen, ref):
    """Each averaged field is the mean of its per-pair metric over the pairs
    its rule admits: TER needs a reference, WMD both lines, the rest none."""
    from medkit.encoder import Encoder, EncoderConfig
    from medkit.tokenizer import build_vocab

    vocab = build_vocab(["头痛多喝水发烧要休息咳嗽好"])  # "癌" is out of vocabulary
    encoder = Encoder(EncoderConfig(vocab_size=vocab.size, max_len=16, hidden_dim=8, num_layers=1, num_heads=2, ffn_dim=16), spawn(3, "enc"))
    table = gm.embedding_table(encoder, vocab)
    pairs = [(gm.char_tokens(g), gm.char_tokens(r), g, r) for g, r in zip(gen, ref)]
    info = bf_nist_info([r for _, r, _, _ in pairs])
    per_pair = {
        "weighted_p": [bf_weighted_prf(g, r)[0] for g, r, _, _ in pairs],
        "weighted_r": [bf_weighted_prf(g, r)[1] for g, r, _, _ in pairs],
        "weighted_f1": [bf_weighted_prf(g, r)[2] for g, r, _, _ in pairs],
        "bleu1": [bf_bleu(g, [r]) for g, r, _, _ in pairs],
        "chrf": [bf_chrf(g_line, r_line) for _, _, g_line, r_line in pairs],
        "gleu": [bf_gleu(g, r) for g, r, _, _ in pairs],
        "nist": [bf_nist(g, [r], info=info) for g, r, _, _ in pairs],
        "ribes": [bf_ribes(g, r) for g, r, _, _ in pairs],
        "ter": [bf_ter(g, r) for g, r, _, _ in pairs if r],
        "wmd_similarity": [gm.wmd_similarity(g, r, table) for g, r, _, _ in pairs if g and r],
        "embed_p": [gm.embed_score(g_line, r_line, encoder, vocab)[0] for _, _, g_line, r_line in pairs],
        "embed_r": [gm.embed_score(g_line, r_line, encoder, vocab)[1] for _, _, g_line, r_line in pairs],
        "embed_f1": [gm.embed_score(g_line, r_line, encoder, vocab)[2] for _, _, g_line, r_line in pairs],
    }
    for with_encoder in (False, True):
        rep = gm.report(gen, ref, encoder if with_encoder else None, vocab if with_encoder else None).to_json()
        for name, values in per_pair.items():
            expected = _mean(values) if with_encoder or name not in _EMBEDDING_FIELDS else None
            if expected is None:
                assert rep[name] is None, name
            else:
                assert rep[name] == pytest.approx(expected, abs=1e-12), name
