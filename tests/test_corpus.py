import hashlib
import os
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import corpus_reference as ref
from oov_forge import cli
from oov_forge.corpus import (BLOCK_LINES, VAL_FRACTION, EmbeddingTable, SentenceStore,
                              contexts_of, load_embeddings, load_stopwords,
                              parse_plain_block, parse_rows, prepare_corpus,
                              save_embeddings, split_words, tokenize, Vocabulary)
from oov_forge.episode import eligible_targets
from oov_forge.errors import FormatError, IngestionError, InputError, OovForgeError


def test_tokenize_basic():
    assert tokenize("The cat sat.") == ["the", "cat", "sat"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_alphanumeric_tokens_survive():
    assert tokenize("BMW c1 scooter") == ["bmw", "c1", "scooter"]


def test_tokenize_strips_edges_keeps_inner_punctuation():
    assert tokenize("don't 'quote' state-of-the-art!!") == \
        ["don't", "quote", "state-of-the-art"]


def _targets_of(sentences, min_count):
    store = SentenceStore.from_tokens(sentences, min_count)
    return eligible_targets(store.vocab, store, None)


def test_build_vocab_eligibility_threshold_is_strict():
    assert _targets_of([["a", "a"]], 1) == ["a"]   # count 2 > 1
    assert _targets_of([["a", "a"]], 2) == []      # count 2 is not > 2


def test_build_vocab_empty_corpus():
    with pytest.raises(IngestionError, match="empty corpus"):
        SentenceStore.from_tokens([[], []], min_count=1)


def test_build_vocab_matches_bruteforce_recount(rng):
    words = [f"w{i}" for i in range(30)]
    sentences = [
        [words[int(rng.integers(30))] for _ in range(int(rng.integers(3, 9)))]
        for _ in range(200)
    ]
    store = SentenceStore.from_tokens(sentences, min_count=5)
    vocab = store.vocab
    oracle = Counter(tok for sent in sentences for tok in sent)
    eligible = set(_targets_of(sentences, 5))
    assert vocab.words == list(oracle)  # first-appearance order
    for w, n in oracle.items():
        assert store.counts[vocab.ids[w]] == n
        assert (w in eligible) == (n > 5)
    assert not store.counts.flags.writeable


def test_build_vocab_counts_order_independent(rng):
    sentences = [["x", "y"], ["y", "z", "z"], ["x"]]
    s1, s2 = (SentenceStore.from_tokens(s, 1) for s in (sentences, sentences[::-1]))
    v1, v2 = s1.vocab, s2.vocab
    for w in ("x", "y", "z"):
        assert s1.counts[v1.ids[w]] == s2.counts[v2.ids[w]]


def test_stopword_list_is_reasonable(tmp_path):
    stops = load_stopwords()
    assert 120 <= len(stops) <= 200
    assert {"the", "and", "of", "we"} <= stops
    # the stopword column of a prepared vocabulary flags the words on the list
    cli.write_prepared(tmp_path, SentenceStore.from_tokens([["the", "scooter", "the"]], 1),
                       EmbeddingTable(dim=2), {"command": "prepare"})
    assert (tmp_path / cli.VOCAB_FILE).read_text() == "the\t2\t1\t0\nscooter\t1\t0\t0\n"


def test_stopword_list_is_read_once():
    assert load_stopwords() is load_stopwords()


def test_contexts_of_order_and_dedup():
    store = SentenceStore.from_tokens([["x"], ["y"], ["z"], ["w", "w"], ["q"], ["w"]], 1)
    assert contexts_of("w", store).tolist() == [3, 5]
    with pytest.raises(IngestionError):
        contexts_of("missing", store)


def test_contexts_of_matches_linear_scan(rng):
    words = [f"w{i}" for i in range(12)]
    sentences = [
        [words[int(rng.integers(12))] for _ in range(int(rng.integers(2, 6)))]
        for _ in range(80)
    ]
    store = SentenceStore.from_tokens(sentences, min_count=1)
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
    vocab = Vocabulary([f"w{i}" for i in range(vocab_size)], 1)
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


def _store_or_error(build, *args):
    """The store ``build`` returns, or the type and text of its OovForgeError."""
    try:
        return build(*args)
    except OovForgeError as e:
        return type(e), str(e)


def _assert_same_outcome(got, want):
    if isinstance(want, tuple):
        assert got == want
    else:
        ref.assert_same_store(got, want)


_WORDS = st.text(alphabet="abcé", min_size=1, max_size=3)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(words=st.lists(_WORDS, min_size=1, max_size=12, unique=True),
       picks=st.lists(st.lists(st.integers(0, 11), max_size=8), max_size=20),
       late=st.lists(_WORDS, max_size=3), min_count=st.integers(-1, 4))
def test_one_pass_store_equals_the_two_pass_reference(words, picks, late, min_count):
    # empty sentences, repeated words, and words first seen in the last sentence;
    # the sentences come from a generator, which can be read only once
    sentences = [[words[i % len(words)] for i in pick] for pick in picks] + [late]
    got = _store_or_error(SentenceStore.from_tokens, (list(s) for s in sentences), min_count)
    _assert_same_outcome(got, _store_or_error(ref.reference_store, sentences, min_count))


def test_one_pass_store_of_more_than_65536_words_equals_the_reference():
    # ids at and past 65,536 take the second digit of the index's radix sort
    rng = np.random.default_rng(3)
    words = [f"w{i}" for i in rng.permutation(70_000)]
    sentences = [words[lo:lo + 7] + [words[int(rng.integers(70_000))]]
                 for lo in range(0, 70_000, 7)]
    store = SentenceStore.from_tokens(sentences, min_count=2)
    assert len(store.vocab) == 70_000
    ref.assert_same_store(store, ref.reference_store(sentences, 2))


_TEXT_PIECES = st.sampled_from([
    "the", "Cat", "CAT", "cat.", "(cat)", "'quote'", "“curly”", "don't", "state-of-the-art",
    "--", "...", "x1", "ÉTÉ", "ΣΟΦΟΣ", "naïve", " ", "  ", "\t", "\n", "\r\n", "\r", "\x0b",
    "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=st.lists(_TEXT_PIECES, max_size=60).map("".join), min_count=st.integers(0, 3))
def test_prepare_corpus_equals_the_two_pass_reference(tmp_path_factory, text, min_count):
    # every line break splitlines knows, edge punctuation, upper case, empty corpora
    path = tmp_path_factory.getbasetemp() / "fuzzed_corpus.txt"
    path.write_bytes(text.encode("utf-8"))
    _assert_same_outcome(_store_or_error(lambda: prepare_corpus(path, min_count)[1]),
                         _store_or_error(lambda: ref.reference_prepare(path, min_count)[1]))


@pytest.mark.parametrize("content", [b"", b"\n\n", b" \t\n\r\n...\n"],
                         ids=["empty", "blank-lines", "punctuation-only"])
def test_prepare_corpus_of_no_token_is_an_empty_corpus(tmp_path, content):
    path = tmp_path / "corpus.txt"
    path.write_bytes(content)
    with pytest.raises(IngestionError, match="^empty corpus$"):
        prepare_corpus(path, min_count=1)


@pytest.mark.parametrize("content, min_count, message", [
    (None, 0, "cannot read corpus"),             # a missing file comes first,
    (b"ok \xff\n", 0, "invalid UTF-8 at byte 3"),  # then invalid UTF-8,
    (b"\n", 0, "min_count must be >= 1, got 0"),   # then the count,
    (b"\n", 1, "empty corpus"),                    # then an empty corpus
])
def test_prepare_corpus_errors_come_in_the_reference_order(tmp_path, content, min_count,
                                                           message):
    path = tmp_path / "corpus.txt"
    if content is not None:
        path.write_bytes(content)
    got = _store_or_error(prepare_corpus, path, min_count)
    assert got == _store_or_error(ref.reference_prepare, path, min_count)
    assert got[0] is IngestionError and message in got[1]


def test_prepare_corpus_holds_no_token_string_of_the_whole_corpus(tmp_path):
    # the traced peak per token of a 200k-token corpus: the two-pass reference
    # holds every token as a string in per-sentence lists and reads about 80
    # bytes a token here, the one-pass build about 30
    rng = np.random.default_rng(11)
    words = np.array([f"t{t:02d}w{j:02d}" for t in range(50) for j in range(40)])
    lengths = rng.integers(8, 13, 20_000)
    cuts = np.cumsum(lengths)[:-1]
    lines = [" ".join(s) for s in np.split(words[rng.integers(0, 2000, lengths.sum())], cuts)]
    path = tmp_path / "corpus.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tracemalloc.start()
    try:
        _, store = prepare_corpus(path, min_count=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(store.tokens) < 50


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
        prepare_corpus(path)


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
