import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oov_forge.corpus import (EmbeddingTable, SentenceStore, Vocabulary, build_vocab,
                              split_words, tokenize)
from oov_forge.episode import (CHAR_BOW, CHAR_EOW, CHAR_IDS, CHAR_UNK, CONTEXT_WINDOW,
                               MASK_ID, MASK_TOKEN, N_CHARS, char_sequence, decode_context,
                               eligible_targets, episode_from_masked, episode_stream,
                               mask_window, sample_episode, split_targets, window_on_mask)
from oov_forge.errors import EpisodeError


def _mini_store(sentences):
    vocab = build_vocab(sentences, min_count=1)
    return vocab, SentenceStore.from_tokens(sentences, vocab)


def _table_for(vocab, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    return EmbeddingTable(
        dim=dim,
        vectors={w: rng.normal(size=dim).astype(np.float32) for w in vocab.words},
    )


# ---------------------------------------------------------------------------
# character sequences
# ---------------------------------------------------------------------------

def test_char_sequence_single_letter():
    assert char_sequence("a") == [CHAR_BOW, CHAR_IDS["a"], CHAR_EOW]


def test_char_sequence_length():
    assert len(char_sequence("cello")) == 7  # 5 chars + BOW + EOW


def test_char_sequence_roundtrip_and_truncation():
    for word in ("a", "scooter", "state-of-the-art", "o'clock", "x" * 40):
        ids = char_sequence(word)
        assert ids == [CHAR_BOW] + [CHAR_IDS[c] for c in word[:20]] + [CHAR_EOW]
        assert max(ids) < N_CHARS
    unknown = char_sequence("café")  # unknown characters fold to one id
    assert unknown[1:-1] == [CHAR_IDS[c] for c in "caf"] + [CHAR_UNK]


def test_char_sequence_rejects_empty():
    with pytest.raises(Exception):
        char_sequence("")


# ---------------------------------------------------------------------------
# sampling and masking
# ---------------------------------------------------------------------------

TABLE3_SENTENCE = ("We all need vehicles like bmw c1 scooter that allow more "
                   "social interaction while using them")


def test_masking_is_total_and_in_place():
    tokens = tokenize(TABLE3_SENTENCE)
    vocab, store = _mini_store([tokens])
    table = _table_for(vocab)
    ep = sample_episode("scooter", 1, np.random.default_rng(0), store, table)
    ctx = ep.contexts[0]
    pos = tokens.index("scooter")
    assert ctx[pos] == MASK_ID
    assert vocab.id_of("scooter") not in ctx
    assert decode_context(ctx, vocab)[pos] == MASK_TOKEN


def test_exhaustive_draw_when_k_equals_context_count():
    sentences = [["w", "a"], ["b", "w"], ["c", "w", "d"]]
    vocab, store = _mini_store(sentences)
    ep = sample_episode("w", 3, np.random.default_rng(1), store)
    masked_sets = sorted(tuple(c) for c in ep.contexts)
    wid = {t for ctx in ep.contexts for t in ctx}
    assert len(ep.contexts) == 3
    assert vocab.id_of("w") not in wid
    # each of the three sentences contributes exactly once
    assert len(set(masked_sets)) == 3


def test_sampling_with_replacement_when_scarce():
    sentences = [["w", "a"]]
    vocab, store = _mini_store(sentences)
    ep = sample_episode("w", 4, np.random.default_rng(2), store)
    assert ep.k == 4
    assert all(MASK_ID in ctx for ctx in ep.contexts)


def test_multiple_occurrences_all_masked_window_on_first():
    tokens = ["w"] + ["f"] * 5 + ["w", "x", "w"] + ["f"] * 20
    vocab, store = _mini_store([tokens])
    ep = sample_episode("w", 1, np.random.default_rng(0), store)
    ctx = ep.contexts[0]
    assert ctx[0] == MASK_ID                       # centered on first occurrence
    assert len(ctx) == 1 + CONTEXT_WINDOW          # nothing to the left
    assert ctx[6] == ctx[8] == MASK_ID
    assert vocab.id_of("w") not in ctx


def test_window_bounds_sequence_length():
    tokens = [f"f{i}" for i in range(40)] + ["w"] + [f"g{i}" for i in range(40)]
    vocab, store = _mini_store([tokens])
    ep = sample_episode("w", 1, np.random.default_rng(0), store)
    assert len(ep.contexts[0]) == 25  # 12 left + mask + 12 right


def test_oracle_attached_and_missing_oracle_raises():
    sentences = [["w", "a"]]
    vocab, store = _mini_store(sentences)
    table = _table_for(vocab)
    ep = sample_episode("w", 1, np.random.default_rng(0), store, table)
    assert np.array_equal(ep.oracle, table["w"])
    empty = EmbeddingTable(dim=4)
    with pytest.raises(EpisodeError):
        sample_episode("w", 1, np.random.default_rng(0), store, empty)


def test_seeded_episode_replay_is_identical():
    sentences = [[f"w{i}", "t", f"w{i + 1}"] for i in range(20)]
    vocab, store = _mini_store(sentences)

    def draw():
        rng = np.random.default_rng(42)
        return sample_episode("t", 5, rng, store)

    e1, e2 = draw(), draw()
    assert e1.contexts == e2.contexts and e1.char_seq == e2.char_seq


def test_sampling_uniformity_over_four_contexts():
    sentences = [["t", f"m{i}"] for i in range(4)]
    vocab, store = _mini_store(sentences)
    rng = np.random.default_rng(7)
    freq = np.zeros(4)
    marker_ids = [vocab.id_of(f"m{i}") for i in range(4)]
    for _ in range(10_000):
        ep = sample_episode("t", 1, rng, store)
        marker = [t for t in ep.contexts[0] if t != MASK_ID][0]
        freq[marker_ids.index(marker)] += 1
    sigma = np.sqrt(10_000 * 0.25 * 0.75)
    assert np.abs(freq - 2500).max() <= 3 * sigma


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------

def test_stream_single_eligible_word_always_targets_it():
    sentences = [["solo", "x", "solo"], ["solo", "y"]]
    vocab, store = _mini_store(sentences)
    table = _table_for(vocab)
    stream = episode_stream(vocab, store, table, (2, 2), seed=0, words=["solo"])
    for _ in range(10):
        assert next(stream).target_word == "solo"


def test_stream_replay_first_100_identical():
    sentences = [[f"w{i}", "c", f"w{(i * 3) % 17}"] for i in range(60)]
    vocab, store = _mini_store(sentences)
    table = _table_for(vocab)

    def first100(seed):
        stream = episode_stream(vocab, store, table, (2, 6), seed=seed)
        return [(e.target_word, tuple(map(tuple, e.contexts))) for e in
                (next(stream) for _ in range(100))]

    assert first100(5) == first100(5)
    assert first100(5) != first100(6)


def test_stream_supports_six_shot():
    sentences = [["t", f"w{i}"] for i in range(8)]
    vocab, store = _mini_store(sentences)
    stream = episode_stream(vocab, store, None, (6, 6), seed=0, words=["t"])
    ep = next(stream)
    assert ep.k == 6


def test_stream_no_targets_raises():
    sentences = [["a", "b"]]
    vocab, store = _mini_store(sentences)
    with pytest.raises(EpisodeError):
        episode_stream(vocab, store, None, (2, 2), seed=0, words=[])


def test_no_episode_leaks_target_id():
    sentences = [[f"w{i % 7}", "t", f"w{(i + 1) % 7}", "t"] for i in range(30)]
    vocab, store = _mini_store(sentences)
    table = _table_for(vocab)
    stream = episode_stream(vocab, store, table, (2, 6), seed=3)
    for _ in range(200):
        ep = next(stream)
        for ctx in ep.contexts:
            assert vocab.id_of(ep.target_word) not in ctx
            assert MASK_ID in ctx


# ---------------------------------------------------------------------------
# ad-hoc construction
# ---------------------------------------------------------------------------

def test_episode_from_masked_requires_a_marker_in_every_context():
    with pytest.raises(EpisodeError):
        episode_from_masked("w", [])
    with pytest.raises(EpisodeError):
        episode_from_masked("w", [["a", MASK_TOKEN], ["b"]])


def test_episode_from_masked_masks_and_builds_transient_vocab():
    ep, vocab = episode_from_masked(
        "w", [["a", MASK_TOKEN, "b"], [MASK_TOKEN, MASK_TOKEN, "c"]])
    assert ep.k == 2
    assert all(MASK_ID in ctx for ctx in ep.contexts)
    assert vocab.words == ["a", "b", "c"]
    assert ep.contexts[1] == [MASK_ID, MASK_ID, vocab.id_of("c")]


def test_episode_from_masked_returns_usable_vocab():
    masked = [["a", MASK_TOKEN, "b"], [MASK_TOKEN, "c"]]
    ep, vocab = episode_from_masked("word", masked)
    assert ep.contexts[0] == [vocab.id_of("a"), MASK_ID, vocab.id_of("b")]
    assert ep.char_seq == char_sequence("word")
    with pytest.raises(EpisodeError):
        episode_from_masked("word", [["no", "marker"]])


def test_mask_window_helper():
    ids = [5] * 20 + [9, 1, 9] + [2] * 20
    out = mask_window(ids, 9)  # CONTEXT_WINDOW around the first occurrence
    assert out == [5] * 12 + [MASK_ID, 1, MASK_ID] + [2] * 10


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_mask_window_equals_masking_the_sentence_then_windowing(data):
    n = data.draw(st.integers(1, 80))
    ids = data.draw(st.lists(st.integers(0, 30).filter(lambda t: t != 7), min_size=n,
                             max_size=n))
    # 0-3 occurrences of the target 7, at the ends, the middle, a window's
    # width from either end or anywhere
    spots = st.sampled_from([0, n // 2, n - 1, min(CONTEXT_WINDOW, n - 1),
                             max(n - 1 - CONTEXT_WINDOW, 0)]) | st.integers(0, n - 1)
    for at in data.draw(st.lists(spots, max_size=3, unique=True)):
        ids[at] = 7
    before = list(ids)
    if 7 in ids:
        assert mask_window(ids, 7) == window_on_mask([MASK_ID if t == 7 else t for t in ids])
    else:
        with pytest.raises(ValueError):
            mask_window(ids, 7)
        with pytest.raises(ValueError):
            window_on_mask(ids)
    assert ids == before


# ---------------------------------------------------------------------------
# target selection
# ---------------------------------------------------------------------------

def _loop_eligible(vocab, store, table):
    """The training targets as a loop over the vocabulary selected them."""
    out = []
    for w in vocab.eligible_words():
        if table is not None and w not in table:
            continue
        if store.index.get(vocab.id_of(w)):
            out.append(w)
    return out


def _loop_pseudo(vocab_n, store_n, table, min_count):
    """The adaptation targets as a loop over the vocabulary selected them."""
    return [word for wid, word in enumerate(vocab_n.words)
            if vocab_n.counts[wid] > min_count and word in table and store_n.index.get(wid)]


def _target_corpus(seed):
    """A vocabulary with counts 1..9, a store over only some of its
    sentences (so some words have none) and a table missing some words."""
    rng = np.random.default_rng(seed)
    sentences = [[f"w{int(rng.integers(40)):02d}" for _ in range(int(rng.integers(2, 6)))]
                 for _ in range(60)]
    vocab = build_vocab(sentences, min_count=int(rng.integers(1, 4)))
    store = SentenceStore.from_tokens(sentences[:20], vocab)
    rows = {w: rng.normal(size=3).astype(np.float32) for w in vocab.words
            if rng.random() < 0.7}
    return vocab, store, EmbeddingTable(dim=3, vectors=rows)


@pytest.mark.parametrize("seed", range(6))
def test_eligible_targets_equals_the_loops_in_order(seed):
    vocab, store, table = _target_corpus(seed)
    counts = sorted(set(vocab.counts))
    assert any(not store.index.get(i) for i in range(len(vocab)))
    assert any(w not in table for w in vocab.words)
    for threshold in sorted({c + d for c in counts for d in (-1, 0)} | {0}):
        # interleaved calls with other arguments must not leak through the kept result
        assert eligible_targets(vocab, store, table, threshold) == \
            _loop_pseudo(vocab, store, table, threshold), threshold
        assert eligible_targets(vocab, store, None) == _loop_eligible(vocab, store, None)
        at = Vocabulary(vocab.words, vocab.counts, vocab.stop_flags, min_count=threshold)
        assert eligible_targets(at, store, table) == _loop_eligible(at, store, table)
        assert eligible_targets(at, store, None) == _loop_eligible(at, store, None)
        assert split_targets(at, store, table) == split_words(_loop_eligible(at, store, table))


def test_eligible_targets_hands_out_copies():
    vocab, store, table = _target_corpus(0)
    want = eligible_targets(vocab, store, table)
    split = split_targets(vocab, store, table)
    got = eligible_targets(vocab, store, table)
    got.append("intruder")
    got.reverse()
    for part in split_targets(vocab, store, table):
        part.clear()
    assert eligible_targets(vocab, store, table) == want == _loop_eligible(vocab, store, table)
    assert split_targets(vocab, store, table) == split


def test_kept_targets_do_not_keep_the_store_alive():
    # the store holds the vocabulary, so holding the store strongly from the
    # vocabulary would make a cycle only the cyclic collector frees
    vocab, store, table = _target_corpus(1)
    assert split_targets(vocab, store, table)[0]
    store_ref = weakref.ref(store)
    gc.disable()
    try:
        del vocab, store
        assert store_ref() is None
    finally:
        gc.enable()
