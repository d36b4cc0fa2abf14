from collections import Counter

import numpy as np
import pytest

from oov_forge.corpus import (EmbeddingTable, SentenceStore, build_vocab,
                              contexts_of, load_embeddings, load_stopwords,
                              read_sentences, save_embeddings, split_words,
                              tokenize)
from oov_forge.errors import FormatError, IngestionError, InputError


def test_tokenize_basic():
    assert tokenize("The cat sat.") == ["the", "cat", "sat"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_alphanumeric_tokens_survive():
    assert tokenize("BMW c1 scooter") == ["bmw", "c1", "scooter"]


def test_tokenize_strips_edges_keeps_inner_punctuation():
    assert tokenize("don't 'quote' state-of-the-art!!") == \
        ["don't", "quote", "state-of-the-art"]


def test_build_vocab_eligibility_threshold_is_strict():
    vocab = build_vocab([["a", "a"]], min_count=1)
    assert vocab.is_eligible("a")          # count 2 > 1
    vocab2 = build_vocab([["a", "a"]], min_count=2)
    assert not vocab2.is_eligible("a")     # count 2 is not > 2


def test_build_vocab_empty_corpus():
    with pytest.raises(IngestionError):
        build_vocab([[], []], min_count=1)


def test_build_vocab_matches_bruteforce_recount(rng):
    words = [f"w{i}" for i in range(30)]
    sentences = [
        [words[int(rng.integers(30))] for _ in range(int(rng.integers(3, 9)))]
        for _ in range(200)
    ]
    vocab = build_vocab(sentences, min_count=5)
    oracle = Counter(tok for sent in sentences for tok in sent)
    for w, n in oracle.items():
        assert vocab.count_of(w) == n
        assert vocab.is_eligible(w) == (n > 5)


def test_build_vocab_counts_order_independent(rng):
    sentences = [["x", "y"], ["y", "z", "z"], ["x"]]
    v1 = build_vocab(sentences, min_count=1)
    v2 = build_vocab(sentences[::-1], min_count=1)
    for w in ("x", "y", "z"):
        assert v1.count_of(w) == v2.count_of(w)


def test_stopword_list_is_reasonable():
    stops = load_stopwords()
    assert 120 <= len(stops) <= 200
    assert {"the", "and", "of", "we"} <= stops
    vocab = build_vocab([["the", "scooter"]], min_count=1)
    assert vocab.is_stopword("the") and not vocab.is_stopword("scooter")


def test_contexts_of_order_and_dedup():
    sentences = [["x"], ["y"], ["z"], ["w", "w"], ["q"], ["w"]]
    vocab = build_vocab(sentences, min_count=1)
    store = SentenceStore.from_tokens(sentences, vocab)
    assert contexts_of("w", store) == [3, 5]
    with pytest.raises(IngestionError):
        contexts_of("missing", store)


def test_contexts_of_matches_linear_scan(rng):
    words = [f"w{i}" for i in range(12)]
    sentences = [
        [words[int(rng.integers(12))] for _ in range(int(rng.integers(2, 6)))]
        for _ in range(80)
    ]
    vocab = build_vocab(sentences, min_count=1)
    store = SentenceStore.from_tokens(sentences, vocab)
    for w in words:
        expected = [i for i, sent in enumerate(sentences) if w in sent]
        if expected:
            got = contexts_of(w, store)
            assert got == expected
            for sid in got:
                assert w in sentences[sid]


def test_embeddings_load_basic(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("2 3\nfoo 1.0 2.0 3.0\nbar -1.5 0.25 4.0\n")
    table = load_embeddings(path)
    assert table.dim == 3 and len(table) == 2
    assert np.allclose(table["bar"], [-1.5, 0.25, 4.0])
    assert table.get("baz") is None  # absent is distinguishable from zero


def test_embeddings_dimension_mismatch_reports_line(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("2 3\nfoo 1.0 2.0 3.0\nbar 1.0 2.0\n")
    with pytest.raises(FormatError, match="line 3"):
        load_embeddings(path)


def test_embeddings_duplicate_word(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("2 2\nfoo 1 2\nfoo 3 4\n")
    with pytest.raises(FormatError, match="duplicate"):
        load_embeddings(path)


def test_embeddings_header_count_mismatch(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("3 2\nfoo 1 2\nbar 3 4\n")
    with pytest.raises(FormatError):
        load_embeddings(path)


def test_embeddings_overstated_header_is_a_format_error(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("1000000000000 2\nfoo 1 2\n")
    with pytest.raises(FormatError, match="header promises"):
        load_embeddings(path)


def test_embedding_table_is_a_read_only_row_map():
    vectors = {"b": np.array([1, 2], np.float32), "a": np.array([3, 4], np.float32)}
    table = EmbeddingTable(dim=2, vectors=vectors, source="mem")
    assert table.words() == list(table) == ["b", "a"] and len(table) == 2
    assert table.index == {"b": 0, "a": 1}
    assert "a" in table and "z" not in table and table.get("z") is None
    assert table["a"].dtype == np.float32 and np.array_equal(table["a"], [3, 4])
    with pytest.raises(KeyError, match="'z'"):
        table["z"]
    with pytest.raises(ValueError):
        table["a"][0] = 9
    vectors["a"][0] = 9  # the table holds its own rows
    assert table["a"][0] == 3
    with pytest.raises(InputError):
        EmbeddingTable(dim=3, vectors=vectors)
    with pytest.raises(InputError, match="duplicate"):
        EmbeddingTable.from_rows(["a", "a"], np.zeros((2, 2), np.float32))
    rows = np.zeros((2, 2), np.float32)
    assert np.shares_memory(EmbeddingTable.from_rows(["x", "y"], rows).matrix, rows)


def test_embeddings_nonfinite_rejected(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("1 2\nfoo nan 2\n")
    with pytest.raises(FormatError):
        load_embeddings(path)


def test_embeddings_roundtrip_float32_identical(tmp_path, rng):
    vectors = {}
    for i in range(10):
        scale = 10.0 ** float(rng.integers(-3, 4))
        vectors[f"w{i}"] = (rng.normal(size=4) * scale).astype(np.float32)
    table = EmbeddingTable(dim=4, vectors=vectors)
    path = tmp_path / "emb.txt"
    save_embeddings(table, path)
    loaded = load_embeddings(path)
    assert loaded.dim == table.dim
    for w, vec in vectors.items():
        assert np.array_equal(loaded[w], vec)


def test_invalid_utf8_reports_byte_offset(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_bytes(b"good line\nbad \xff\xfe line\n")
    with pytest.raises(IngestionError, match="byte 14"):
        read_sentences(path)


def test_split_words_deterministic_and_disjoint():
    words = [f"word{i}" for i in range(1000)]
    t1, v1 = split_words(words)
    t2, v2 = split_words(list(reversed(words)))
    assert set(t1) == set(t2) and set(v1) == set(v2)
    assert not set(t1) & set(v1)
    assert len(t1) + len(v1) == 1000
    assert 20 <= len(v1) <= 90  # ~5% of 1000
