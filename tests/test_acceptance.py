"""Release acceptance suite.

One test per numbered criterion; each prints a pass/fail line and enforces
its stated tolerance. Run with `pytest -v -s tests/test_acceptance.py` to see
the lines as they stream.
"""

import contextlib
import io
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from medkit import genmetrics as gm
from medkit import numerics as nm
from medkit.cli import main as cli_main
from medkit.corpus import DialogueSample, clean, split, stats
from medkit.encoder import Encoder, EncoderConfig, mask_tokens
from medkit.generator import Decoder, DecoderConfig, GenerationRequest, finetune_qa, generate, lm_loss
from medkit.kgraph import fixture_graph_path, load_triples, retrieve, supplement
from medkit.numerics import Rng, Tensor, TrainConfig
from medkit.prompt import PromptTemplate, Verbalizer, build_prompt, predict
from medkit.tokenizer import TokenBatch, TokenSequence, build_vocab, encode
from medkit.triage import TriageConfig, TriageHead, dendrite, predict_labels, train_supervised

from conftest import write_corpus
from oracles import (
    bf_bleu,
    bf_chrf,
    bf_dendrite,
    bf_gleu,
    bf_ribes,
    bf_self_bleu,
    bf_ter,
    bf_transport_cost,
    bf_weighted_prf,
    grad_check,
)


@contextlib.contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] {name}: FAIL")
        raise
    print(f"[criterion {number:02d}] {name}: PASS")


# -- 1. gradient integrity ------------------------------------------------------


def test_criterion_01_gradient_integrity():
    with criterion(1, "gradient integrity (encoder+triage and decoder LM, rel err < 1e-4)"):
        started = time.perf_counter()
        vocab = build_vocab(["头痛发烧咳嗽多喝水休息保暖abc"])

        enc_cfg = EncoderConfig(vocab_size=vocab.size, max_len=8, hidden_dim=8, num_layers=2, num_heads=2, ffn_dim=16)
        encoder = Encoder(enc_cfg, Rng(1).spawn("enc"))
        head = TriageHead(TriageConfig(hidden_dim=8, num_classes=4), Rng(1).spawn("head"))
        seq = encode("头痛发烧", vocab, max_len=8)

        def triage_loss():
            return nm.softmax_cross_entropy(head.forward_logits(encoder.encode(TokenBatch.stack([seq]))), [2])

        params = {f"encoder.{k}": v for k, v in encoder.params.items()}
        params.update({f"head.{k}": v for k, v in head.params.items()})
        err = grad_check(triage_loss, params, eps=1e-4, max_entries_per_param=2, rng=Rng(0))
        assert err < 1e-4, f"encoder+triage gradient error {err}"

        dec_cfg = DecoderConfig(vocab_size=vocab.size, hidden_dim=8, num_layers=2, num_heads=2, ffn_dim=16, context_window=12)
        decoder = Decoder(dec_cfg, Rng(2).spawn("dec"))
        ids = encode("咳嗽多喝水", vocab, max_len=10, mode="decoder").ids

        def lm_loss_fn():
            return lm_loss(decoder, ids, [True] * len(ids))

        err = grad_check(lm_loss_fn, decoder.params, eps=1e-4, max_entries_per_param=2, rng=Rng(3))
        assert err < 1e-4, f"decoder gradient error {err}"

        elapsed = time.perf_counter() - started
        assert elapsed < 120.0, f"gradient checks took {elapsed:.1f}s"


# -- 2. dendritic-layer oracle ----------------------------------------------------


def test_criterion_02_dendrite_oracle_and_defaults():
    with criterion(2, "dendritic oracle (1000 stacks, 1e-12) and depth defaults 3/2"):
        rng = Rng(20)
        for _ in range(1000):
            depth = int(rng.integers(1, 4))
            dims = [int(rng.integers(2, 7)) for _ in range(depth + 1)]
            stack = [rng.normal(size=(dims[i], dims[i + 1])) for i in range(depth)]
            vec = rng.normal(size=dims[0])
            mine = dendrite(Tensor(vec[None, :]), [Tensor(w) for w in stack]).data[0]
            assert np.allclose(mine, bf_dendrite(vec, stack), atol=1e-12)
        cfg = TriageConfig(hidden_dim=8, num_classes=2)
        assert cfg.num_dd_layers == 3
        assert cfg.num_lstm_layers == 2
        from medkit.cli import RunConfig

        assert RunConfig().dd_layers == 3 and RunConfig().lstm_layers == 2


# -- 3. masking statistics -------------------------------------------------------


def test_criterion_03_mlm_masking_statistics():
    with criterion(3, "masking stats (rate in [0.14,0.16]; 80/10/10 within 2 points)"):
        rng = Rng(30)
        content_vocab = 500
        vocab_size = 7 + content_vocab
        seq_len = 500
        sequences = []
        for _ in range(200):
            ids = [int(t) for t in rng.integers(7, vocab_size, seq_len)]
            sequences.append(TokenSequence(ids=ids))
        eligible = 200 * seq_len
        assert eligible >= 100_000

        selected = masked = unchanged = randomized = 0
        for seq in sequences:
            corrupted, positions, originals = mask_tokens(seq, 0.15, rng, vocab_size)
            selected += len(positions)
            for pos, orig in zip(positions, originals):
                new = corrupted.ids[pos]
                if new == 4:  # [MASK]
                    masked += 1
                elif new == orig:
                    unchanged += 1
                else:
                    randomized += 1

        fraction = selected / eligible
        assert 0.14 <= fraction <= 0.16, f"selected fraction {fraction:.4f}"
        assert abs(masked / selected - 0.80) <= 0.02, f"mask share {masked / selected:.4f}"
        assert abs(randomized / selected - 0.10) <= 0.02, f"random share {randomized / selected:.4f}"
        assert abs(unchanged / selected - 0.10) <= 0.02, f"unchanged share {unchanged / selected:.4f}"


# -- 4. overfit capability --------------------------------------------------------


def test_criterion_04a_triage_overfits_32_samples():
    with criterion(4, "overfit: 32-sample/4-class triage reaches 100% within 200 epochs"):
        started = time.perf_counter()
        vocab = build_vocab(["甲乙丙丁戊己庚辛壬癸子丑寅卯"])
        enc_cfg = EncoderConfig(vocab_size=vocab.size, max_len=12, hidden_dim=16, num_layers=1, num_heads=2, ffn_dim=32)
        encoder = Encoder(enc_cfg, Rng(40).spawn("enc"))
        head = TriageHead(TriageConfig(hidden_dim=16, num_classes=4), Rng(40).spawn("head"))

        class_chars = ["甲", "乙", "丙", "丁"]
        fillers = "子丑寅卯戊己庚辛"
        dataset = []
        for label, char in enumerate(class_chars):
            for i in range(8):
                text = char * 4 + fillers[i]
                dataset.append((encode(text, vocab, max_len=12), label))
        assert len(dataset) == 32

        cfg = TrainConfig(epochs=200, lr=1e-2, batch_size=8, seed=40, stop_at_train_acc=1.0)
        history = train_supervised(encoder, head, dataset, cfg, lr_encoder=2e-3)
        assert len(history.rows) <= 200
        preds = predict_labels(encoder, head, [seq for seq, _ in dataset])
        assert preds == [label for _, label in dataset], "final train accuracy below 100%"
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, f"triage overfit took {elapsed:.1f}s"


QA_PAIRS = [
    ("头痛怎么办", "建议多休息"),
    ("发烧怎么办", "物理降温好"),
    ("咳嗽怎么办", "多喝温水吧"),
    ("胃痛怎么办", "规律饮食好"),
    ("失眠怎么办", "规律作息吧"),
    ("牙痛怎么办", "及时去补牙"),
    ("贫血怎么办", "补充铁剂好"),
    ("近视怎么办", "减少用眼哦"),
]


def test_criterion_04b_generator_memorizes_qa_fixture():
    with criterion(4, "overfit: greedy decoding reproduces >= 7/8 QA pairs"):
        started = time.perf_counter()
        graph, _ = load_triples(fixture_graph_path())
        texts = [q for q, _ in QA_PAIRS] + [a for _, a in QA_PAIRS] + [t.render() for t in graph.triples]
        vocab = build_vocab(texts)
        cfg = DecoderConfig(vocab_size=vocab.size, hidden_dim=32, num_layers=1, num_heads=2, ffn_dim=64, context_window=64, max_gen_len=12)
        model = Decoder(cfg, Rng(41).spawn("dec"))
        result = finetune_qa(model, QA_PAIRS, graph, vocab, TrainConfig(epochs=200, lr=8e-3, batch_size=8, seed=41), supplement_max_chars=24)
        assert result.skipped == 0
        hits = 0
        for question, answer in QA_PAIRS:
            out = generate(model, GenerationRequest(question=question, strategy="greedy", max_gen_len=12), graph, vocab, supplement_max_chars=24)
            hits += out["answer"] == answer
        assert hits >= 7, f"only {hits}/8 answers reproduced"
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, f"QA overfit took {elapsed:.1f}s"


# -- 5. metric-oracle equivalence ---------------------------------------------------


def _fuzz_pairs(seed: int, count: int = 200, alphabet=("a", "b", "c", "d", "e"), lo=0, hi=8):
    rng = Rng(seed)
    pairs = []
    for _ in range(count):
        cand = [alphabet[int(rng.integers(0, len(alphabet)))] for _ in range(int(rng.integers(lo, hi + 1)))]
        ref = [alphabet[int(rng.integers(0, len(alphabet)))] for _ in range(int(rng.integers(max(lo, 1), hi + 1)))]
        pairs.append((cand, ref))
    return pairs


def test_criterion_05_metric_oracle_equivalence():
    with criterion(5, "metric-oracle equivalence on 200 fuzzed pairs (1e-9)"):
        for cand, ref in _fuzz_pairs(50):
            assert gm.bleu(cand, [ref], max_n=1) == pytest.approx(bf_bleu(cand, [ref], max_n=1), abs=1e-9)
        for cand, ref in _fuzz_pairs(51):
            assert gm.chrf("".join(cand), "".join(ref)) == pytest.approx(bf_chrf("".join(cand), "".join(ref)), abs=1e-9)
        for cand, ref in _fuzz_pairs(52):
            assert gm.gleu(cand, ref) == pytest.approx(bf_gleu(cand, ref), abs=1e-9)
        for cand, ref in _fuzz_pairs(53):
            assert gm.weighted_prf(cand, ref) == pytest.approx(bf_weighted_prf(cand, ref), abs=1e-9)
        for cand, ref in _fuzz_pairs(54):
            assert gm.ter(cand, ref) == pytest.approx(bf_ter(cand, ref), abs=1e-9)
        for cand, ref in _fuzz_pairs(55):
            assert gm.ribes(cand, ref) == pytest.approx(bf_ribes(cand, ref), abs=1e-9)

        rng = Rng(56)
        for _ in range(200):
            corpus = []
            for _ in range(int(rng.integers(2, 5))):
                corpus.append(["abcde"[int(rng.integers(0, 5))] for _ in range(int(rng.integers(1, 6)))])
            n = int(rng.integers(2, 4))
            assert gm.self_bleu(corpus, n) == pytest.approx(bf_self_bleu(corpus, n), abs=1e-9)

        table = {tok: Rng(57).spawn(tok).normal(size=3) for tok in "abcde"}
        table["[UNK]"] = np.zeros(3)
        for cand, ref in _fuzz_pairs(58, count=40, lo=1, hi=4):
            if Counter(cand) == Counter(ref):
                assert gm.wmd_similarity(cand, ref, table) == 1.0
                continue
            cand_toks, ref_toks = sorted(set(cand)), sorted(set(ref))
            p = np.array([cand.count(t) for t in cand_toks], float)
            p /= p.sum()
            q = np.array([ref.count(t) for t in ref_toks], float)
            q /= q.sum()
            cost = np.array([[np.linalg.norm(table[a] - table[b]) for b in ref_toks] for a in cand_toks])
            expected = 1.0 / (1.0 + bf_transport_cost(p, q, cost))
            assert gm.wmd_similarity(cand, ref, table) == pytest.approx(expected, abs=1e-9)


# -- 6. diagonal metric case --------------------------------------------------------


def test_criterion_06_diagonal_metrics_exact():
    with criterion(6, "diagonal case: BLEU-1=1, TER=0, KL=0, chrF=1, weighted F1=1 exactly"):
        lines = ["头痛建议多休息多喝水", "发烧建议物理降温观察", "咳嗽注意保暖多喝温水", "胃痛规律饮食避免辛辣"]
        report = gm.report(lines, list(lines))
        assert report.bleu1 == 1.0
        assert report.ter == 0.0
        assert report.kl_divergence == 0.0
        assert report.chrf == 1.0
        assert report.weighted_f1 == 1.0


# -- 7. corpus pipeline fidelity -------------------------------------------------------


def _twenty_entry_fixture():
    samples = []
    # 15 valid entries with question lengths 10..24 and 12-char answers
    for i in range(15):
        q_len = 10 + i
        label = "内科" if i < 10 else "骨科"
        samples.append(DialogueSample(question="问" * q_len, answer="答" * 12, label_coarse=label))
    # 5 rule violations (one reason each; the last doubles up to check priority)
    samples.append(DialogueSample(question="短" * 9, answer="答" * 12, label_coarse="内科"))  # question too short
    samples.append(DialogueSample(question="问" * 12, answer="短" * 9, label_coarse="骨科"))  # answer too short
    samples.append(DialogueSample(question="问" * 13, answer=None, label_coarse="内科"))  # missing answer
    samples.append(DialogueSample(question="", answer="答" * 12, label_coarse="骨科"))  # missing question
    samples.append(DialogueSample(question="短" * 9, answer=None, label_coarse="骨科"))  # short question, no answer
    return samples


def test_criterion_07_corpus_pipeline_fidelity():
    with criterion(7, "corpus fixture: exact cleaning, exact stats, 85/15 split"):
        samples = _twenty_entry_fixture()
        assert len(samples) == 20

        kept, removed = clean(samples)
        assert len(kept) == 15
        assert [r.reason for r in removed] == [
            "question shorter than 10 characters",
            "answer shorter than 10 characters",
            "missing answer",
            "missing question",
            "question shorter than 10 characters",
        ]
        assert all(s in samples[:15] for s in kept)

        report = stats(samples)
        assert report.total_count == 20
        # question lengths: 10..24 plus 9, 12, 13, 0, 9 -> 298 chars
        assert report.avg_question_length == 298 / 20
        # answers present: 15 + 3; lengths 17 * 12 + 9 = 213
        assert report.avg_answer_length == 213 / 18
        assert report.category_count == 2
        assert report.per_category == {"内科": 12, "骨科": 8}

        balanced = [DialogueSample(question="问" * 10, answer="答" * 12, label_coarse="内科" if i < 10 else "骨科") for i in range(20)]
        train, test = split(balanced, 0.15, seed=7)
        assert len(train) == 17 and len(test) == 3
        by_label = Counter(s.label_coarse for s in test)
        assert set(by_label.values()) == {1, 2}


# -- 8. prompt equivalence --------------------------------------------------------------


def test_criterion_08_prompt_equivalence_over_500_states():
    with criterion(8, "prompt predict == verbalizer-restricted argmax, 500 model states"):
        vocab = build_vocab(["头痛发烧咳嗽甲乙丙"])
        surfaces = {"甲": "甲", "乙": "乙", "丙": "丙"}
        verbalizer = Verbalizer.from_surfaces(surfaces, vocab)
        template = PromptTemplate(suffix="", mask_slot_count=1)
        seq, slots = build_prompt("头痛发烧", template, vocab, max_len=12)
        labels = sorted(surfaces)
        cfg = EncoderConfig(vocab_size=vocab.size, max_len=12, hidden_dim=8, num_layers=1, num_heads=2, ffn_dim=16)
        for state in range(500):
            encoder = Encoder(cfg, Rng(state).spawn("state"))
            logits = encoder.mlm_logits(TokenBatch.stack([seq])).data[slots[0]]
            best_score = max(logits[vocab.id_of(surfaces[lab])] for lab in labels)
            expected = min(lab for lab in labels if logits[vocab.id_of(surfaces[lab])] == best_score)
            [got] = predict(encoder, ["头痛发烧"], template, verbalizer, vocab, max_len=12)
            assert got == expected, f"state {state}: {got} != {expected}"


# -- 9. causality and loss masking -------------------------------------------------------


def test_criterion_09_causality_and_loss_masking():
    with criterion(9, "causal mask and QA loss mask are bit-exact"):
        vocab = build_vocab(["头痛发烧咳嗽多喝水休息"])
        cfg = DecoderConfig(vocab_size=vocab.size, hidden_dim=8, num_layers=2, num_heads=2, ffn_dim=16, context_window=16)
        model = Decoder(cfg, Rng(90).spawn("dec"))
        ids = encode("头痛发烧咳嗽", vocab, max_len=12, mode="decoder").ids

        def distributions(sequence):
            logits = model.logits_matrix(sequence).data
            shifted = logits - logits.max(axis=1, keepdims=True)
            e = np.exp(shifted)
            return e / e.sum(axis=1, keepdims=True)

        base = distributions(ids)
        for j in range(1, len(ids)):
            tampered = list(ids)
            tampered[j] = vocab.id_of("水")
            assert np.array_equal(base[:j], distributions(tampered)[:j]), f"future edit at {j} leaked backwards"

        mask = [False] * len(ids)
        mask[-2] = mask[-1] = True

        def grads_for(targets):
            nm.zero_grads(model.params.values())
            nm.backward(lm_loss(model, ids, mask, targets=targets))
            return {k: p.grad.tobytes() for k, p in model.params.items()}

        tampered_targets = list(ids)
        tampered_targets[1] = vocab.id_of("息")  # a question-region target
        assert grads_for(list(ids)) == grads_for(tampered_targets)


# -- 10. ablation structure ----------------------------------------------------------------


def test_criterion_10_ablation_structure():
    with criterion(10, "five ablation flags each change parameters or input layout"):
        def head_params(**kw):
            head = TriageHead(TriageConfig(hidden_dim=8, num_classes=4, **kw), Rng(0).spawn("h"))
            return sum(p.size for p in head.params.values())

        baseline = head_params()
        variants = {
            "no_dd": head_params(use_dd=False),
            "no_bilstm": head_params(use_bilstm=False),
            "no_cls_fusion": head_params(use_cls=False),
        }
        for name, count in variants.items():
            assert count != baseline, f"{name} left the parameter count unchanged"
        assert len({baseline, *variants.values()}) == 4

        # input-supplement ablation: the training sequence layout changes
        vocab = build_vocab(["头痛发烧症状胀痛科室神经内怎么办"])
        graph, _ = load_triples(fixture_graph_path())
        q = encode("头痛怎么办", vocab, max_len=32, mode="decoder")
        with_supp, layout_with = supplement(q, retrieve("头痛怎么办", graph, 24), vocab, 32)
        without, layout_without = supplement(q, "", vocab, 32)
        assert layout_with.supplement_span[1] - layout_with.supplement_span[0] > 0
        assert layout_without.supplement_span[1] - layout_without.supplement_span[0] == 0
        assert with_supp.ids != without.ids

        # knowledge ablation: fine-tuning starts from a strictly different state
        dec_cfg = DecoderConfig(vocab_size=vocab.size, hidden_dim=8, num_layers=1, num_heads=2, ffn_dim=16, context_window=32)
        fresh = Decoder(dec_cfg, Rng(5).spawn("decoder.init"))
        injected = Decoder(dec_cfg, Rng(5).spawn("decoder.init"))
        from medkit.generator import pretrain_lm

        pretrain_lm(injected, ["头痛发烧怎么办"], vocab, TrainConfig(epochs=2, lr=1e-3, batch_size=1, seed=5))
        diffs = [name for name in fresh.params if not np.array_equal(fresh.params[name].data, injected.params[name].data)]
        assert diffs, "knowledge injection left the starting weights identical"


# -- 11. CLI determinism ----------------------------------------------------------------


TINY_SETS = [
    "--set", "enc_hidden=8", "--set", "enc_layers=1", "--set", "enc_ffn=16",
    "--set", "dec_hidden=8", "--set", "dec_layers=1", "--set", "dec_ffn=16",
    "--set", "max_len=24", "--set", "context_window=48", "--set", "max_gen_len=6",
    "--set", "mlm_epochs=1", "--set", "triage_epochs=1", "--set", "prompt_epochs=1",
    "--set", "lm_pretrain_epochs=1", "--set", "lm_finetune_epochs=1",
    "--set", "lstm_layers=1", "--set", "dd_layers=1",
]


def _normalized_tree(root: Path) -> dict:
    snapshot = {}
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        rel = str(path.relative_to(root))
        data = path.read_bytes()
        if rel.endswith("log.csv"):
            # wall-clock seconds are the one legitimately nondeterministic field
            lines = data.decode("utf-8").splitlines()
            data = "\n".join(",".join(line.split(",")[:-1]) for line in lines).encode("utf-8")
        snapshot[rel] = data
    return snapshot


def _run_cli(argv, stdin_text=None, monkeypatch=None, capsys=None) -> str:
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = cli_main([str(a) for a in argv])
    assert code == 0, f"command failed: {argv}"
    return capsys.readouterr().out if capsys else ""


@pytest.fixture(scope="module")
def cli_assets(tmp_path_factory):
    """Shared inputs plus trained bundles for the eval/chat determinism runs."""
    root = tmp_path_factory.mktemp("accept-cli")
    corpus = write_corpus(root / "corpus.jsonl")
    graph = fixture_graph_path()
    assert cli_main([str(a) for a in ["pretrain-encoder", "--in", corpus, "--seed", 3, "--out", root / "enc"] + TINY_SETS]) == 0
    assert cli_main([str(a) for a in ["train-triage", "--in", corpus, "--seed", 3, "--out", root / "triage"] + TINY_SETS]) == 0
    assert cli_main([str(a) for a in ["train-prompt", "--in", corpus, "--seed", 3, "--out", root / "prompt"] + TINY_SETS]) == 0
    assert cli_main([str(a) for a in ["pretrain-lm", "--in", corpus, "--seed", 3, "--out", root / "lm"] + TINY_SETS]) == 0
    assert cli_main([str(a) for a in ["train-gen", "--in", corpus, "--graph", graph, "--seed", 3, "--out", root / "gen"] + TINY_SETS]) == 0
    gen_eval = root / "gen-eval"
    assert cli_main([str(a) for a in ["eval-gen", "--in", corpus, "--ckpt", root / "gen/gen.ckpt", "--graph", graph, "--seed", 3, "--out", gen_eval] + TINY_SETS]) == 0
    return {"root": root, "corpus": corpus, "graph": graph, "gen_eval": gen_eval}


def test_criterion_11_cli_determinism(cli_assets, tmp_path, monkeypatch, capsys):
    with criterion(11, "every CLI subcommand is bit-reproducible under a fixed seed"):
        root = cli_assets["root"]
        corpus = cli_assets["corpus"]
        graph = cli_assets["graph"]
        answers = cli_assets["gen_eval"] / "answers.txt"
        references = cli_assets["gen_eval"] / "references.txt"

        def argv_for(command, out):
            table = {
                "stats": ["stats", "--in", corpus, "--seed", 3, "--out", out],
                "clean": ["clean", "--in", corpus, "--seed", 3, "--out", out],
                "split": ["split", "--in", corpus, "--seed", 3, "--out", out],
                "small-sample": ["small-sample", "--in", corpus, "--threshold", 6, "--seed", 3, "--out", out],
                "pretrain-encoder": ["pretrain-encoder", "--in", corpus, "--seed", 3, "--out", out] + TINY_SETS,
                "train-triage": ["train-triage", "--in", corpus, "--seed", 3, "--out", out] + TINY_SETS,
                "eval-triage": ["eval-triage", "--in", corpus, "--ckpt", root / "triage/triage.ckpt", "--seed", 3, "--out", out],
                "train-prompt": ["train-prompt", "--in", corpus, "--seed", 3, "--out", out] + TINY_SETS,
                "eval-prompt": ["eval-prompt", "--in", corpus, "--ckpt", root / "prompt/prompt.ckpt", "--seed", 3, "--out", out],
                "pretrain-lm": ["pretrain-lm", "--in", corpus, "--seed", 3, "--out", out] + TINY_SETS,
                "train-gen": ["train-gen", "--in", corpus, "--graph", graph, "--seed", 3, "--out", out] + TINY_SETS,
                "eval-gen": ["eval-gen", "--in", corpus, "--ckpt", root / "gen/gen.ckpt", "--graph", graph, "--seed", 3, "--out", out] + TINY_SETS,
                "metrics": ["metrics", "--gen", answers, "--ref", references, "--seed", 3, "--out", out],
            }
            return table[command]

        for command in [
            "stats", "clean", "split", "small-sample", "pretrain-encoder", "train-triage",
            "eval-triage", "train-prompt", "eval-prompt", "pretrain-lm", "train-gen",
            "eval-gen", "metrics",
        ]:
            out_a = tmp_path / f"{command}-a"
            out_b = tmp_path / f"{command}-b"
            stdout_a = _run_cli(argv_for(command, out_a), capsys=capsys)
            stdout_b = _run_cli(argv_for(command, out_b), capsys=capsys)
            assert stdout_a == stdout_b, f"{command}: stdout differs between runs"
            assert _normalized_tree(out_a) == _normalized_tree(out_b), f"{command}: artifacts differ between runs"

        chat_args = ["chat", "--ckpt", root / "gen/gen.ckpt", "--graph", graph, "--seed", 3]
        first = _run_cli(chat_args, stdin_text="头痛好几天了怎么办\n", monkeypatch=monkeypatch, capsys=capsys)
        second = _run_cli(chat_args, stdin_text="头痛好几天了怎么办\n", monkeypatch=monkeypatch, capsys=capsys)
        assert first == second and "answer:" in first
