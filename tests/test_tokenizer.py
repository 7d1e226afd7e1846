import pytest

from medkit.prompt import PromptTemplate, build_prompt
from medkit.tokenizer import (
    BOS_ID,
    CLS_ID,
    EOS_ID,
    MASK_ID,
    NUM_RESERVED,
    PAD_ID,
    SEP_ID,
    UNK_ID,
    TokenizerError,
    Vocab,
    build_vocab,
    decode,
    encode,
)


def test_build_vocab_hand_count():
    vocab = build_vocab(["aab"], min_freq=1)
    assert vocab.size == 9  # 7 reserved + 'a' + 'b'
    assert vocab.ids("a")[0] == NUM_RESERVED  # higher frequency first
    assert vocab.ids("b")[0] == NUM_RESERVED + 1


def test_build_vocab_min_freq_excludes():
    vocab = build_vocab(["aab"], min_freq=3)
    assert vocab.size == NUM_RESERVED


def test_build_vocab_deterministic():
    corpus = ["医生你好", "你好头痛"]
    v1 = build_vocab(corpus)
    v2 = build_vocab(corpus)
    assert v1.id_to_token == v2.id_to_token


def test_build_vocab_ties_break_by_codepoint():
    vocab = build_vocab(["ba"])
    assert vocab.ids("a")[0] < vocab.ids("b")[0]


def test_build_vocab_empty_corpus_rejected():
    with pytest.raises(TokenizerError):
        build_vocab([])


def test_encode_empty_text():
    vocab = build_vocab(["ab"])
    seq = encode("", vocab, max_len=6)
    assert seq == [CLS_ID, SEP_ID]


def test_encode_truncates_to_max_len():
    vocab = build_vocab(["ab"])
    seq = encode("ab", vocab, max_len=3)
    assert seq == [CLS_ID, vocab.ids("a")[0], SEP_ID]


def test_encode_and_build_prompt_write_no_pad_and_stay_within_max_len():
    vocab = build_vocab(["头痛发烧咳嗽骨科"])
    template = PromptTemplate(prefix="", suffix="", mask_slot_count=1)
    for max_len in (3, 8, 20):
        for text in ["", "头", "头痛发烧", "头痛发烧咳嗽" * 5]:
            for mode in ("encoder", "decoder"):
                ids = encode(text, vocab, max_len=max_len, mode=mode)
                assert PAD_ID not in ids and len(ids) == min(len(text), max_len - 2) + 2
            if text:
                prompt, slots = build_prompt(text, template, vocab, max_len)
                assert PAD_ID not in prompt and len(prompt) == min(len(text), max_len - 3) + 3
                assert prompt[slots[0]] == MASK_ID


def test_decoder_mode_brackets_with_bos_eos():
    vocab = build_vocab(["ab"])
    seq = encode("ab", vocab, max_len=8, mode="decoder")
    assert seq == [BOS_ID, vocab.ids("a")[0], vocab.ids("b")[0], EOS_ID]


def test_vocab_ids_normalizes_and_maps_unknown_chars_to_unk():
    vocab = build_vocab(["a\uf914"])
    assert vocab.ids("a\uf914x") == vocab.ids("a\u6a02") + [UNK_ID] == [NUM_RESERVED, NUM_RESERVED + 1, UNK_ID]


def test_unknown_char_maps_to_unk():
    vocab = build_vocab(["ab"])
    seq = encode("ax", vocab, max_len=6)
    assert seq[2] == 1  # [UNK]


def test_round_trip():
    vocab = build_vocab(["头痛发烧咳嗽"])
    for text in ["头痛", "咳嗽发烧", ""]:
        assert decode(encode(text, vocab, max_len=16), vocab) == text
        assert decode(encode(text, vocab, max_len=16, mode="decoder"), vocab) == text


def test_decode_skips_specials():
    vocab = build_vocab(["ab"])
    a, b = vocab.ids("ab")
    assert decode([CLS_ID, a, b, SEP_ID, PAD_ID], vocab) == "ab"


def test_decode_stops_at_eos():
    vocab = build_vocab(["ab"])
    a, b = vocab.ids("ab")
    assert decode([BOS_ID, a, EOS_ID, b], vocab) == "a"


def test_decode_empty():
    vocab = build_vocab(["ab"])
    assert decode([], vocab) == ""


def test_decode_out_of_range_id():
    vocab = build_vocab(["ab"])
    with pytest.raises(TokenizerError):
        decode([vocab.size + 3], vocab)


def test_encode_rejects_tiny_max_len():
    vocab = build_vocab(["ab"])
    with pytest.raises(TokenizerError):
        encode("ab", vocab, max_len=2)


def test_vocab_file_round_trip(tmp_path):
    vocab = build_vocab(["医生你好头痛"])
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    loaded = Vocab.load(path)
    assert loaded.id_to_token == vocab.id_to_token
    # reserved block is the file header: content line i maps to id i + 7
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[:NUM_RESERVED] == ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]", "[BOS]", "[EOS]"]
    for offset, token in enumerate(lines[NUM_RESERVED:]):
        assert vocab.ids(token)[0] == offset + NUM_RESERVED


def test_build_vocab_keeps_no_line_break_so_its_file_round_trips(tmp_path):
    vocab = build_vocab(["头\r痛", "发\n烧", "\r\n"])
    assert vocab.id_to_token[NUM_RESERVED:] == sorted("头痛发烧")  # one each, by code point
    assert vocab.ids("头\r\n") == [vocab.token_to_id["头"], UNK_ID, UNK_ID]
    vocab.save(tmp_path / "vocab.txt")
    assert Vocab.load(tmp_path / "vocab.txt").id_to_token == vocab.id_to_token
