import gc
import weakref
from collections import Counter
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import episode_reference as ref
from episode_reference import mask_window
from corpus_reference import build_vocab, store_of
from oov_forge.corpus import (EmbeddingTable, SentenceStore, Vocabulary, contexts_of,
                              split_words, tokenize)
from oov_forge.episode import (CHAR_BOW, CHAR_EOW, CHAR_IDS, CHAR_UNK, CONTEXT_WINDOW,
                               MASK_ID, MASK_TOKEN, MAX_LEN, N_CHARS, char_sequence,
                               decode_context, eligible_targets, episode_from_masked,
                               episode_stream, mask_windows, sample_episode, split_targets)
from oov_forge.errors import EpisodeError
from oov_forge.training import TrainConfig, build_validation_episodes
from synthetic_task import sentences_of


def _mini_store(sentences):
    store = SentenceStore.from_tokens(sentences, min_count=1)
    return store.vocab, store


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
    assert vocab.ids["scooter"] not in ctx
    assert decode_context(ctx, vocab)[pos] == MASK_TOKEN


def test_exhaustive_draw_when_k_equals_context_count():
    sentences = [["w", "a"], ["b", "w"], ["c", "w", "d"]]
    vocab, store = _mini_store(sentences)
    ep = sample_episode("w", 3, np.random.default_rng(1), store)
    masked_sets = sorted(tuple(c) for c in ep.contexts)
    wid = {t for ctx in ep.contexts for t in ctx}
    assert len(ep.contexts) == 3
    assert vocab.ids["w"] not in wid
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
    assert vocab.ids["w"] not in ctx


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
    marker_ids = [vocab.ids[f"m{i}"] for i in range(4)]
    for _ in range(10_000):
        ep = sample_episode("t", 1, rng, store)
        marker = [t for t in ep.contexts[0] if t != MASK_ID][0]
        freq[marker_ids.index(marker)] += 1
    sigma = np.sqrt(10_000 * 0.25 * 0.75)
    assert np.abs(freq - 2500).max() <= 3 * sigma


# ---------------------------------------------------------------------------
# packed sampling against the list sampler it replaced
# ---------------------------------------------------------------------------

def _differential_corpus(seed):
    """Random sentences of 1-60 tokens over 12 words, so targets repeat
    inside their windows and many sentences are shorter than a window, plus
    sentences whose first or last token is the only "edge"."""
    rng = np.random.default_rng(seed)
    sentences = [[f"w{int(rng.integers(12))}" for _ in range(int(rng.integers(1, 61)))]
                 for _ in range(50)]
    sentences += [["edge"] + ["w0"] * 30, ["w1"] * 30 + ["edge"], ["edge"],
                  ["rare", "w2"]]
    vocab, store = _mini_store(sentences)
    return vocab, store, _table_for(vocab), ref.ListStore(sentences_of(store), vocab)


def _assert_same(ep, word, contexts, oracle, coverage):
    assert ep.target_word == word and ep.contexts == contexts
    assert ep.lengths.tolist() == [len(c) for c in contexts]
    assert ep.pools.tolist() == [c.index(MASK_ID) for c in contexts]
    assert ep.oracle is oracle or np.array_equal(ep.oracle, oracle)
    assert ep.char_seq == char_sequence(word)
    for c, pool in zip(contexts, ep.pools.tolist()):
        coverage["first token"] += pool == 0
        coverage["last token"] += pool == len(c) - 1
        coverage["short sentence"] += len(c) < 2 * CONTEXT_WINDOW + 1
        coverage["repeated target"] += c.count(MASK_ID) > 1


@pytest.mark.parametrize("seed", range(3))
def test_packed_store_index_equals_the_list_index(seed):
    vocab, store, _, listed = _differential_corpus(seed)
    assert sentences_of(store) == listed.sentences
    for wid, word in enumerate(vocab.words):
        slots = store.slots_of(word)
        assert store.index_sentences[slots].tolist() == listed.contexts_of(word)
        assert store.index_first[slots].tolist() == [listed.sentences[sid].index(wid)
                                                     for sid in listed.contexts_of(word)]


@pytest.mark.parametrize("seed", range(3))
def test_packed_sampling_equals_the_list_sampler(seed):
    vocab, store, table, listed = _differential_corpus(seed)
    pick = np.random.default_rng(100 + seed)
    packed_rng, list_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    coverage = dict.fromkeys(["first token", "last token", "short sentence",
                              "repeated target"], 0)
    shots = {"below": 0, "above": 0}
    for _ in range(400):
        word = vocab.words[int(pick.integers(len(vocab)))]
        n = len(listed.contexts_of(word))
        k = int(pick.integers(1, 2 * n + 2))  # with replacement when k > n
        shots["below" if k <= n else "above"] += 1
        ep = sample_episode(word, k, packed_rng, store, table)
        _assert_same(ep, word, *ref.sample_episode(word, k, list_rng, listed, table), coverage)
    assert packed_rng.bit_generator.state == list_rng.bit_generator.state
    assert min(coverage.values()) > 0 and min(shots.values()) > 0, (coverage, shots)


@pytest.mark.parametrize("batch", [1, 3, 8])
def test_packed_stream_and_probes_equal_the_list_sampler(batch):
    vocab, store, table, listed = _differential_corpus(7)
    words = eligible_targets(vocab, store, table, 0)
    coverage = dict.fromkeys(["first token", "last token", "short sentence",
                              "repeated target"], 0)
    stream = episode_stream(store, table, (1, 6), seed=4, batch=batch, words=words)
    reference = ref.episode_stream(words, listed, table, (1, 6), seed=4)
    for _ in range(100 // batch + 1):
        episodes = next(stream)
        assert len(episodes) == batch
        for ep in episodes:
            _assert_same(ep, *next(reference), coverage)
    config = TrainConfig(k_min=1, k_max=6, seed=batch, val_episodes=40)
    probes = build_validation_episodes(words, store, table, config)
    rng = np.random.default_rng(config.seed + 1)
    for i, ep in enumerate(probes):
        word, k = words[i % len(words)], 1 + i % 6
        _assert_same(ep, word, *ref.sample_episode(word, k, rng, listed, table), coverage)
    assert len(probes) == 40 and min(coverage.values()) > 0, coverage


@settings(max_examples=100, deadline=None, derandomize=True)
@given(sentences=st.lists(st.lists(st.sampled_from(["a", "b", "c", MASK_TOKEN]), min_size=1,
                                   max_size=40).filter(lambda s: MASK_TOKEN in s),
                          min_size=1, max_size=5),
       max_len=st.sampled_from([1, 3, 9, MAX_LEN, 81]))
def test_episode_from_masked_equals_the_list_windows(sentences, max_len):
    # several markers per sentence: the window is cut around the first
    ep, vocab = episode_from_masked("w", sentences, max_len=max_len)
    ids = {MASK_TOKEN: MASK_ID, **vocab.ids}
    want = [mask_window([ids[t] for t in sent], MASK_ID, (max_len - 1) // 2)
            for sent in sentences]
    assert ep.contexts == want
    assert ep.pools.tolist() == [c.index(MASK_ID) for c in want]


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------

def test_stream_single_eligible_word_always_targets_it():
    sentences = [["solo", "x", "solo"], ["solo", "y"]]
    vocab, store = _mini_store(sentences)
    table = _table_for(vocab)
    stream = episode_stream(store, table, (2, 2), seed=0, batch=10, words=["solo"])
    for ep in next(stream):
        assert ep.target_word == "solo"


def test_stream_replay_first_100_identical():
    sentences = [[f"w{i}", "c", f"w{(i * 3) % 17}"] for i in range(60)]
    vocab, store = _mini_store(sentences)
    table = _table_for(vocab)

    def first100(seed):
        stream = episode_stream(store, table, (2, 6), seed=seed, batch=100)
        return [(e.target_word, tuple(map(tuple, e.contexts))) for e in next(stream)]

    assert first100(5) == first100(5)
    assert first100(5) != first100(6)


def test_stream_supports_six_shot():
    sentences = [["t", f"w{i}"] for i in range(8)]
    vocab, store = _mini_store(sentences)
    stream = episode_stream(store, None, (6, 6), seed=0, batch=1, words=["t"])
    ep, = next(stream)
    assert ep.k == 6


def test_stream_no_targets_raises():
    sentences = [["a", "b"]]
    vocab, store = _mini_store(sentences)
    with pytest.raises(EpisodeError):
        episode_stream(store, None, (2, 2), seed=0, batch=1, words=[])


def test_no_episode_leaks_target_id():
    sentences = [[f"w{i % 7}", "t", f"w{(i + 1) % 7}", "t"] for i in range(30)]
    vocab, store = _mini_store(sentences)
    table = _table_for(vocab)
    stream = episode_stream(store, table, (2, 6), seed=3, batch=200)
    for ep in next(stream):
        for ctx in ep.contexts:
            assert vocab.ids[ep.target_word] not in ctx
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
    assert ep.contexts[1] == [MASK_ID, MASK_ID, vocab.ids["c"]]


def test_episode_from_masked_returns_usable_vocab():
    masked = [["a", MASK_TOKEN, "b"], [MASK_TOKEN, "c"]]
    ep, vocab = episode_from_masked("word", masked)
    assert ep.contexts[0] == [vocab.ids["a"], MASK_ID, vocab.ids["b"]]
    assert ep.char_seq == char_sequence("word")
    with pytest.raises(EpisodeError):
        episode_from_masked("word", [["no", "marker"]])


def _packed_window(ids, target, window=CONTEXT_WINDOW):
    """``mask_windows`` of the one sentence ``ids``, as a list."""
    out, lengths, pools = mask_windows(np.array(ids), np.array([0]), np.array([len(ids)]),
                                       np.array([ids.index(target)]), np.array([target]),
                                       window)
    assert lengths.tolist() == [len(out)] and out[pools[0]] == MASK_ID
    return out.tolist()


def test_mask_window_helper():
    ids = [5] * 20 + [9, 1, 9] + [2] * 20
    out = mask_window(ids, 9)  # CONTEXT_WINDOW around the first occurrence
    assert out == [5] * 12 + [MASK_ID, 1, MASK_ID] + [2] * 10
    assert _packed_window(ids, 9) == out


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
    window = data.draw(st.sampled_from([0, 1, 5, CONTEXT_WINDOW, 40]))
    if 7 in ids:
        masked = [MASK_ID if t == 7 else t for t in ids]
        first = masked.index(MASK_ID)
        # the window as a loop over positions
        want = [masked[i] for i in range(len(masked)) if abs(i - first) <= window]
        assert mask_window(ids, 7, window) == want
        assert _packed_window(ids, 7, window) == want
        if window == CONTEXT_WINDOW:
            assert mask_window(ids, 7) == want
            assert _packed_window(ids, 7) == want
        assert mask_window(masked, MASK_ID, window) == want
        assert _packed_window(masked, MASK_ID, window) == want
    else:
        with pytest.raises(ValueError):
            mask_window(ids, 7, window)
    assert ids == before


# ---------------------------------------------------------------------------
# target selection
# ---------------------------------------------------------------------------

def _loop_eligible(store, table, min_count=None):
    """The training targets as a loop over the store's vocabulary selected
    them, each word counted over the store's sentences."""
    vocab = store.vocab
    threshold = vocab.min_count if min_count is None else min_count
    counts = Counter(chain.from_iterable(sentences_of(store)))
    out = []
    for wid, w in enumerate(vocab.words):
        if counts[wid] <= threshold:
            continue
        if table is not None and (w not in table or not np.any(table[w])):
            continue
        if len(contexts_of(w, store)):
            out.append(w)
    return out


def _loop_split(words):
    """The split as train made it: hash buckets, then, with two or more
    words, the last word held out when one part is empty."""
    train, val = split_words(words)
    if len(words) >= 2 and not train:
        train, val = val, []
    if len(words) >= 2 and not val:
        train, val = train[:-1], [train[-1]]
    return train, val


def _target_corpus(seed):
    """A vocabulary of 60 sentences, a store over only 20 of them, taken
    three times (so some words have none, and the store's counts reach past
    the thresholds of 1-3 about as often as the vocabulary's would) and a
    table missing some words, with a zero row for some others."""
    rng = np.random.default_rng(seed)
    sentences = [[f"w{int(rng.integers(40)):02d}" for _ in range(int(rng.integers(2, 6)))]
                 for _ in range(60)]
    vocab = build_vocab(sentences, min_count=int(rng.integers(1, 4)))
    store = store_of(sentences[:20] * 3, vocab)
    rows = {w: rng.normal(size=3).astype(np.float32) * (rng.random() < 0.85)
            for w in vocab.words if rng.random() < 0.7}
    return vocab, store, EmbeddingTable(dim=3, vectors=rows)


@pytest.mark.parametrize("seed", range(6))
def test_eligible_targets_equals_the_loops_in_order(seed):
    vocab, store, table = _target_corpus(seed)
    counts = sorted(set(store.counts.tolist()))
    assert any(not len(contexts_of(w, store)) for w in vocab.words)
    assert any(w not in table for w in vocab.words)
    assert any(not np.any(table[w]) for w in table)
    for threshold in sorted({c + d for c in counts for d in (-1, 0)} | {0}):
        # interleaved calls with other arguments must not leak through the kept result
        assert eligible_targets(vocab, store, table, threshold) == \
            _loop_eligible(store, table, threshold), threshold
        assert eligible_targets(vocab, store, None) == _loop_eligible(store, None)
        at = SentenceStore(store.tokens, store.offsets, Vocabulary(vocab.words, threshold))
        assert eligible_targets(at.vocab, at, table) == _loop_eligible(at, table)
        assert eligible_targets(at.vocab, at, None) == _loop_eligible(at, None)
        assert split_targets(at, table) == _loop_split(_loop_eligible(at, table))


def test_eligible_targets_hands_out_copies():
    vocab, store, table = _target_corpus(0)
    want = eligible_targets(vocab, store, table)
    split = split_targets(store, table)
    got = eligible_targets(vocab, store, table)
    got.append("intruder")
    got.reverse()
    for part in split_targets(store, table):
        part.clear()
    assert eligible_targets(vocab, store, table) == want == _loop_eligible(store, table)
    assert split_targets(store, table) == split


def test_kept_targets_live_on_the_store():
    vocab, store, table = _target_corpus(2)
    want = eligible_targets(vocab, store, table)
    split = split_targets(store, table)
    kept_table, threshold, words, kept_split = store._targets
    assert kept_table is table and threshold == vocab.min_count
    assert words == tuple(want) and kept_split == tuple(map(tuple, split))
    assert not hasattr(vocab, "_targets")
    # a second store over the same vocabulary keeps its own targets
    other = SentenceStore(store.tokens[:store.offsets[4]], store.offsets[:5], vocab)
    assert eligible_targets(vocab, other, table) == _loop_eligible(other, table) != want
    assert split_targets(other, table) == _loop_split(_loop_eligible(other, table))
    assert eligible_targets(vocab, store, table) == want
    assert split_targets(store, table) == split


def test_kept_targets_do_not_keep_the_store_alive():
    # the store holds the vocabulary and keeps the targets, and nothing
    # they hold refers back to it, so no cycle waits for the cyclic collector
    vocab, store, table = _target_corpus(1)
    assert split_targets(store, table)[0]
    store_ref = weakref.ref(store)
    gc.disable()
    try:
        del vocab, store
        assert store_ref() is None
    finally:
        gc.enable()
