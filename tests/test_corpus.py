import hashlib
import os
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oov_forge.corpus import (BLOCK_LINES, VAL_FRACTION, EmbeddingTable, SentenceStore,
                              build_vocab, contexts_of, load_embeddings,
                              load_stopwords, parse_plain_block, parse_rows,
                              read_sentences, save_embeddings, split_words,
                              tokenize, Vocabulary)
from oov_forge.episode import eligible_targets
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


def _targets_of(sentences, vocab):
    return eligible_targets(vocab, SentenceStore.from_tokens(sentences, vocab), None)


def test_build_vocab_eligibility_threshold_is_strict():
    vocab = build_vocab([["a", "a"]], min_count=1)
    assert _targets_of([["a", "a"]], vocab) == ["a"]   # count 2 > 1
    vocab2 = build_vocab([["a", "a"]], min_count=2)
    assert _targets_of([["a", "a"]], vocab2) == []     # count 2 is not > 2


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
    eligible = set(_targets_of(sentences, vocab))
    for w, n in oracle.items():
        assert vocab.counts[vocab.id_of(w)] == n
        assert (w in eligible) == (n > 5)


def test_build_vocab_counts_order_independent(rng):
    sentences = [["x", "y"], ["y", "z", "z"], ["x"]]
    v1 = build_vocab(sentences, min_count=1)
    v2 = build_vocab(sentences[::-1], min_count=1)
    for w in ("x", "y", "z"):
        assert v1.counts[v1.id_of(w)] == v2.counts[v2.id_of(w)]


def test_stopword_list_is_reasonable():
    stops = load_stopwords()
    assert 120 <= len(stops) <= 200
    assert {"the", "and", "of", "we"} <= stops
    vocab = build_vocab([["the", "scooter"]], min_count=1)
    assert vocab.stop_flags == [True, False]   # "the", "scooter"


def test_stopword_list_is_read_once():
    assert load_stopwords() is load_stopwords()


def test_contexts_of_order_and_dedup():
    sentences = [["x"], ["y"], ["z"], ["w", "w"], ["q"], ["w"]]
    vocab = build_vocab(sentences, min_count=1)
    store = SentenceStore.from_tokens(sentences, vocab)
    assert contexts_of("w", store).tolist() == [3, 5]
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
            got = contexts_of(w, store).tolist()
            assert got == expected
            for sid in got:
                assert w in sentences[sid]


@pytest.mark.parametrize("vocab_size", [300, 70_000])
def test_sentence_index_equals_a_linear_scan(vocab_size):
    """The index sorts ids in 16-bit digits; ids at and past 65,536 take a
    second pass. Many ids repeat, within sentences and across them."""
    rng = np.random.default_rng(vocab_size)
    pool = np.unique(np.r_[rng.integers(0, vocab_size, 150), 0, vocab_size - 1,
                           [65_535, 65_536, 65_537] if vocab_size > 65_536 else []])
    tokens = rng.choice(pool, 4000).astype(np.int32)
    offsets = np.r_[0, np.cumsum(rng.integers(1, 13, 800))]
    offsets = offsets[offsets < len(tokens)].tolist() + [len(tokens)]
    vocab = Vocabulary([f"w{i}" for i in range(vocab_size)], [1] * vocab_size,
                       [False] * vocab_size, 1)
    store = SentenceStore(tokens, np.array(offsets), vocab)
    found: dict[int, list[tuple[int, int]]] = {}
    for s in range(len(offsets) - 1):
        seen = set()
        for pos, w in enumerate(tokens[offsets[s]:offsets[s + 1]].tolist()):
            if w not in seen:
                seen.add(w)
                found.setdefault(w, []).append((s, pos))
    pairs = [pair for w in sorted(found) for pair in found[w]]
    counts = np.bincount(list(found), [len(found[w]) for w in found], vocab_size)
    assert store.index_ptr.tolist() == [0] + np.cumsum(counts).astype(int).tolist()
    assert store.index_sentences.tolist() == [s for s, _ in pairs]
    assert store.index_first.tolist() == [pos for _, pos in pairs]


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


def _table_lines(n: int, dim: int) -> list[str]:
    return [f"w{i} " + " ".join(f"{i}.{j}5" for j in range(dim)) + "\n" for i in range(n)]


def test_embeddings_duplicate_in_a_later_block_reports_its_line(tmp_path):
    rows = _table_lines(BLOCK_LINES + 20, 2)
    rows[BLOCK_LINES + 10] = "w3 1 2\n"  # w3 is row 4, in the first block
    path = tmp_path / "emb.txt"
    path.write_text(f"{len(rows)} 2\n\n" + "".join(rows))  # line 2 is blank
    with pytest.raises(FormatError, match=f"line {BLOCK_LINES + 13}: duplicate word 'w3'"):
        load_embeddings(path)


@pytest.mark.parametrize("line", [1, BLOCK_LINES + 12])  # the header, a later block
def test_embeddings_not_utf8_is_an_ingestion_error(tmp_path, line):
    rows = _table_lines(BLOCK_LINES + 20, 2)
    lines = [f"{len(rows)} 2\n".encode()] + [row.encode() for row in rows]
    lines[line - 1] = lines[line - 1].replace(b" ", b"\xff ", 1)
    path = tmp_path / "emb.txt"
    path.write_bytes(b"".join(lines))
    with pytest.raises(IngestionError, match=f"{path}: invalid UTF-8 byte 0xff"):
        load_embeddings(path)


def test_embeddings_understated_header_reports_every_row_found(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("3 2\n" + "".join(_table_lines(BLOCK_LINES + 5, 2)))
    with pytest.raises(FormatError, match=f"header promises 3 rows, found {BLOCK_LINES + 5}$"):
        load_embeddings(path)


def test_embeddings_odd_spacing_loads_as_single_spacing(tmp_path):
    plain = tmp_path / "plain.txt"
    plain.write_text("3 3\nfoo 1.0 2.5 -3\nbar 0.25 4 1e-3\nbaz 7 8 9\n")
    odd = tmp_path / "odd.txt"
    odd.write_text("3 3\nfoo\t1.0  2.5 -3 \n\nbar  0.25\t\t4 1e-3\n baz 7 8 9")
    want, got = load_embeddings(plain), load_embeddings(odd)
    assert got.words() == want.words() == ["foo", "bar", "baz"]
    assert got.matrix.tobytes() == want.matrix.tobytes()


def test_plain_block_parses_only_plain_rows():
    seen = {"old"}
    lines = ["a 1.5 -2\n", "b 3e-2 4\n", "c 5 6"]
    words, rows = parse_plain_block(lines, 2, seen)
    assert words == ["a", "b", "c"] and seen == {"old", "a", "b", "c"}
    assert rows.tobytes() == parse_rows("p", lines, 2, 2, set())[1].tobytes()
    odd_rows = ["d\t1 2\n", "\td 1 2\n", "d\t0 1 2\n", "d 1  2\n", "d 1 2  \n", "d 1 2 \t\n",
                "\n", "old 1 2\n", "d 1\n", "d \n", "d  \n", "d 1 \n", "d 1 nan\n",
                "d 1 1e39\n", "d 1 1_0\n", "d 1 \u0661\n"]
    blocks = ([[odd] for odd in odd_rows] + [["a 1 2\n", odd] for odd in odd_rows]
              + [["a 1 2\n", "a 3 4\n"], ["a 1\n", "b 2\n"]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warns about a block without values
        for block in blocks:
            seen = {"old"}
            assert parse_plain_block(block, 2, seen) is None, block
            assert seen == {"old"}


def test_plain_block_takes_one_trailing_space_as_the_row_loop_does():
    # word2vec ends every row with a space; the last line of a file may lack its newline
    blocks = [["a 1.5 -2 \n"], ["a 1 2 \n", "b 3 4\n", "c 5 6 "], ["a 1 2\n", "b 3 4 "],
              ["a 0 1e-3 \n", "b -7 2.5 \n"]]
    for block in blocks:
        seen = {"old"}
        words, rows = parse_plain_block(block, 2, seen)
        want_words, want_rows = parse_rows("p", block, 2, 2, {"old"})
        assert words == want_words and seen == {"old", *want_words}, block
        assert rows.tobytes() == want_rows.tobytes(), block


def _load_from_a_pipe(data: bytes):
    read_fd, write_fd = os.pipe()
    os.write(write_fd, data)
    os.close(write_fd)
    try:
        return load_embeddings(f"/dev/fd/{read_fd}")
    finally:
        os.close(read_fd)


def test_embeddings_load_from_a_pipe():
    table = _load_from_a_pipe(b"2 2\nfoo 1 2\nbar 3 4\n")
    assert table.words() == ["foo", "bar"]
    assert np.array_equal(table.matrix, [[1, 2], [3, 4]])
    with pytest.raises(FormatError, match="header promises 1000000000000 rows, found 1$"):
        _load_from_a_pipe(b"1000000000000 2\nfoo 1 2\n")


_VALUES = ["0", "1.5", "-2.25e-3", "7", "3.4028235e38", "1e-50",
           "nan", "inf", "1e39", "1_0", "\u0661", "x"]
_SEPARATORS = [" ", " ", " ", "  ", "\t", "\xa0", "\x0c"]


@st.composite
def _table_files(draw):
    """Small tables over separators, values and words that each take one of
    the loader's paths: plain rows, odd spacing, bad values, blank lines,
    repeated words and wrong counts. Half the files space every row plainly, some rows with
    one trailing space, as word2vec writes them."""
    dim = draw(st.integers(1, 3))
    odd = draw(st.booleans())
    lines = []
    for i in range(draw(st.integers(0, 6))):
        if odd and draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", "\xa0"])))
            continue
        n = dim + draw(st.sampled_from([0] * 12 + [-1, 1]))
        word = draw(st.sampled_from(["a", "b", "\u0661", "a_b", "nan"]))
        word += draw(st.sampled_from(["", str(i), str(i)]))
        values = draw(st.lists(st.sampled_from(_VALUES[:6] * 12 + _VALUES[6:]),
                               min_size=n, max_size=n))
        seps = draw(st.lists(st.sampled_from(_SEPARATORS if odd else [" "]),
                             min_size=n, max_size=n))
        tail = draw(st.sampled_from(["", "", " ", "  ", "\t"] if odd else ["", "", " "]))
        lead = draw(st.sampled_from(["", "", " ", "\t"])) if odd else ""
        lines.append(lead + word + "".join(s + v for s, v in zip(seps, values)) + tail)
    count = sum(1 for line in lines if line.strip()) + draw(st.sampled_from([0] * 6 + [-1, 1]))
    end = draw(st.sampled_from(["\n", "\n", "\r\n", ""]))
    return f"{max(count, 0)} {dim}\n" + "\n".join(lines) + end


def _row_loop_table(path):
    """The reference: ``parse_rows`` over every line after the header."""
    with open(path, encoding="utf-8") as fh:
        n_words, dim = map(int, fh.readline().split())
        words, rows = parse_rows(path, list(fh), 2, dim, set())
    if len(words) != n_words:
        raise FormatError(f"{path}: header promises {n_words} rows, found {len(words)}")
    return words, rows


def _outcome(load, path):
    try:
        words, rows = load(path)
    except FormatError as e:
        return "error", str(e)
    return words, rows.tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # 1e39
@settings(max_examples=200, deadline=None, derandomize=True)
@given(text=_table_files())
def test_blocked_load_equals_the_row_loop(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzzed_table.txt"
    path.write_bytes(text.encode("utf-8"))

    def blocked(p):
        table = load_embeddings(p)
        return table.words(), table.matrix

    assert _outcome(blocked, path) == _outcome(_row_loop_table, path)


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


def test_split_words_equals_an_uncached_sha1_split(rng):
    def bucket(word):
        return int.from_bytes(hashlib.sha1(word.encode("utf-8")).digest()[:8], "big") % 100

    cut = round(VAL_FRACTION * 100)
    words = [f"word{i}" for i in range(400)] + ["naïve", "x-y", "o'k", "日本"]
    for _ in range(4):  # repeated calls, each in a new order and with repeats
        order = [words[i] for i in rng.permutation(len(words))] + words[:25]
        train, val = split_words(order)
        assert val == [w for w in order if bucket(w) < cut]
        assert train == [w for w in order if bucket(w) >= cut]
