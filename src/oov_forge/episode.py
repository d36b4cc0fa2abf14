"""K-shot episode construction: masked context sampling plus character
features for one target word.

An episode names the vocabulary its context token ids index: a sampled
episode the corpus vocabulary, an inference episode the transient
vocabulary of its sentences. Two reserved sentinels sit outside every id
space: MASK_ID marks masked-out target occurrences and UNK_ID marks tokens
that have no vocabulary entry. An episode keeps its contexts packed back to
back in one id array.
``sample_episodes`` is the one draw entry: it draws a batch's episodes one
at a time, with the RNG calls in a fixed order, then cuts the windows of the
whole batch from the store's token array by one gather (``mask_windows``).
``episode_stream`` yields such batches, ``batch`` episodes per ``next``.
"""

from __future__ import annotations

import string
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .corpus import EmbeddingTable, SentenceStore, Vocabulary, split_words
from .errors import EpisodeError, InputError

MASK_ID = -1
UNK_ID = -2
MASK_TOKEN = "<mask>"
UNK_TOKEN = "<unk>"

CONTEXT_WINDOW = 12      # tokens kept on each side of the target
MAX_LEN = 2 * CONTEXT_WINDOW + 1  # tokens in a windowed context
MAX_WORD_LEN = 20        # characters kept before truncation


# Characters the morphology encoder understands: ASCII letters, digits,
# hyphen and apostrophe; anything else maps to CHAR_UNK. A word is framed by
# the CHAR_BOW/CHAR_EOW markers.
CHAR_BOW, CHAR_EOW, CHAR_UNK = 0, 1, 2
CHAR_IDS = {c: i + 3 for i, c in enumerate(
    string.ascii_lowercase + string.ascii_uppercase + string.digits + "-'")}
N_CHARS = len(CHAR_IDS) + 3


def char_sequence(word: str, max_word_len: int = MAX_WORD_LEN) -> list[int]:
    """[BOW] + character ids + [EOW], truncated from the right."""
    if not word:
        raise InputError("char_sequence: empty word")
    return [CHAR_BOW] + [CHAR_IDS.get(c, CHAR_UNK) for c in word[:max_word_len]] + [CHAR_EOW]


@dataclass
class Episode:
    """One K-shot task: K masked contexts packed back to back, character
    features and the oracle target. Context i is the next ``lengths[i]``
    ids of ``tokens``, and ``pools[i]`` is the offset in it of the token
    that summarizes it: the first masked target."""

    target_word: str
    tokens: np.ndarray        # int32: ids in ``vocab``, MASK_ID and UNK_ID
    lengths: np.ndarray       # [K] tokens of each context
    pools: np.ndarray         # [K] pool offset of each context
    char_seq: list[int]
    vocab: Vocabulary
    oracle: np.ndarray | None = None

    @property
    def k(self) -> int:
        return len(self.lengths)

    @property
    def contexts(self) -> list[list[int]]:
        """The contexts as lists of ids, for ``decode_context``."""
        tokens, ends = self.tokens.tolist(), np.cumsum(self.lengths).tolist()
        return [tokens[lo:hi] for lo, hi in zip([0] + ends, ends)]


def mask_windows(tokens: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
                 firsts: np.ndarray, targets: np.ndarray, window: int = CONTEXT_WINDOW
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cut one context from each sentence ``tokens[starts[i]:starts[i] +
    lengths[i]]``: ``window`` tokens each side of position ``firsts[i]``,
    with every ``targets[i]`` in it masked. Returns the contexts packed
    back to back, their lengths and their pool offsets, ``firsts`` in the
    window."""
    lo = np.maximum(firsts - window, 0)
    sizes = np.minimum(firsts + window + 1, lengths) - lo
    ends = np.cumsum(sizes)
    out = tokens[np.arange(ends[-1]) + np.repeat(starts + lo - ends + sizes, sizes)]
    out[out == np.repeat(targets, sizes)] = MASK_ID
    return out, sizes, firsts - lo


def decode_context(ids: list[int], vocab: Vocabulary) -> list[str]:
    """Token ids back to strings; sentinels become their marker tokens."""
    out = []
    for tid in ids:
        if tid == MASK_ID:
            out.append(MASK_TOKEN)
        elif tid == UNK_ID:
            out.append(UNK_TOKEN)
        else:
            out.append(vocab.words[tid])
    return out


def sample_episodes(requests: Iterable[tuple[str, int]], rng: np.random.Generator,
                    store: SentenceStore, table: EmbeddingTable | None = None
                    ) -> list[Episode]:
    """Draw K masked contexts for each (word, K) request in turn, then cut
    the windows of all of them by one gather.

    Sampling is uniform without replacement while enough sentences exist,
    with replacement otherwise (keeps the episode shape fixed for rare
    words). The oracle vector is attached from ``table`` when given. Each
    request is read just before its draws, so a lazy ``requests`` may draw
    from ``rng`` too.
    """
    words, shots, chosen, oracles = [], [], [], []
    for word, k in requests:
        if k < 1:
            raise EpisodeError(f"k must be >= 1, got {k}")
        slots = store.slots_of(word)
        n = slots.stop - slots.start
        if not n:
            raise EpisodeError(f"no contexts for {word!r}")
        chosen.append(slots.start + (rng.choice(n, size=k, replace=False) if n >= k
                                     else rng.integers(0, n, size=k)))
        oracles.append(None if table is None else table.get(word))
        if table is not None and oracles[-1] is None:
            raise EpisodeError(f"no oracle embedding for {word!r}")
        words.append(word)
        shots.append(k)
    if not words:
        return []
    slots = np.concatenate(chosen)
    sids = store.index_sentences[slots]
    starts = store.offsets[sids]
    tokens, lengths, pools = mask_windows(
        store.tokens, starts, store.offsets[sids + 1] - starts, store.index_first[slots],
        np.repeat([store.vocab.ids[w] for w in words], shots))
    ctx_ends = np.cumsum(shots)
    tok_ends = np.cumsum(lengths)[ctx_ends - 1].tolist()
    episodes, c0, t0 = [], 0, 0
    for word, oracle, c1, t1 in zip(words, oracles, ctx_ends.tolist(), tok_ends):
        episodes.append(Episode(word, tokens[t0:t1], lengths[c0:c1], pools[c0:c1],
                                char_sequence(word), store.vocab, oracle))
        c0, t0 = c1, t1
    return episodes


def sample_episode(word: str, k: int, rng: np.random.Generator,
                   store: SentenceStore, table: EmbeddingTable | None = None) -> Episode:
    """The one episode of ``sample_episodes([(word, k)], ...)``."""
    return sample_episodes([(word, k)], rng, store, table)[0]


def episode_from_masked(word: str, masked_sentences: list[list[str]],
                        max_word_len: int = MAX_WORD_LEN,
                        max_len: int = MAX_LEN):
    """The inference episode: sentences already carrying MASK_TOKEN at the
    target slots, windowed to ``max_len`` tokens around the first marker.

    Its ids index a transient vocabulary of the sentences' words, which it
    carries. Returns (episode, that vocabulary): the benchmark unpacks both.
    """
    if not masked_sentences:
        raise EpisodeError("episode needs at least one context sentence")
    firsts = []
    for sent in masked_sentences:
        if MASK_TOKEN not in sent:
            raise EpisodeError(f"context has no {MASK_TOKEN} marker: {sent}")
        firsts.append(sent.index(MASK_TOKEN))
    words = dict.fromkeys(chain.from_iterable(masked_sentences))
    words.pop(MASK_TOKEN)
    vocab = Vocabulary(list(words), min_count=1)
    ids = {MASK_TOKEN: MASK_ID, **vocab.ids}
    lengths = np.fromiter(map(len, masked_sentences), dtype=np.intp,
                          count=len(masked_sentences))
    tokens = np.fromiter(map(ids.__getitem__, chain.from_iterable(masked_sentences)),
                         dtype=np.int32, count=int(lengths.sum()))
    contexts = mask_windows(tokens, np.cumsum(lengths) - lengths, lengths,
                            np.asarray(firsts), np.full(len(firsts), MASK_ID),
                            (max_len - 1) // 2)
    return Episode(word, *contexts, char_sequence(word, max_word_len=max_word_len),
                   vocab), vocab


def _targets(store: SentenceStore, table: EmbeddingTable | None,
             min_count: int | None) -> list:
    """The [table, threshold, targets, split] kept on ``store``, made anew
    when the table or the threshold differs; the split is filled in when
    first asked for."""
    threshold = store.vocab.min_count if min_count is None else min_count
    kept = store._targets
    if kept is None or kept[0] is not table or kept[1] != threshold:
        keep = store.counts > max(threshold, 0)  # a word in no sentence counts 0
        if table is not None:
            rows = store.vocab.rows_in(table)
            keep &= rows >= 0
            keep[keep] = table.row_norms[rows[keep]] > 0
        words = tuple(store.vocab.words[i] for i in np.flatnonzero(keep))
        kept = store._targets = [table, threshold, words, None]
    return kept


def eligible_targets(vocab: Vocabulary, store: SentenceStore,
                     table: EmbeddingTable | None, min_count: int | None = None) -> list[str]:
    """The training targets, in the order of ``store.vocab``: words that
    occur in the store more than ``min_count`` times (default
    ``store.vocab.min_count``) and have a nonzero row in the oracle table
    (cosine needs one). The last result is kept on the store, since a
    store's sentences and a table are read-only. ``vocab`` is accepted for
    the benchmark's pinned call and not read: the store holds its own."""
    return list(_targets(store, table, min_count)[2])


def split_targets(store: SentenceStore,
                  table: EmbeddingTable | None) -> tuple[list[str], list[str]]:
    """``split_words`` of the store's targets (``eligible_targets``), kept
    with them. A tiny corpus can hash every target into one part: then,
    given two or more targets, the last one is held out for validation."""
    kept = _targets(store, table, None)
    if kept[3] is None:
        words = kept[2]
        train, val = split_words(words)
        if len(words) >= 2 and not (train and val):
            train, val = words[:-1], words[-1:]
        kept[3] = (tuple(train), tuple(val))
    train, val = kept[3]
    return list(train), list(val)


def episode_stream(store: SentenceStore, table: EmbeddingTable | None, k: tuple[int, int],
                   seed: int, batch: int, words: list[str] | None = None
                   ) -> Iterator[list[Episode]]:
    """Infinite deterministic-for-seed stream of episode batches: each
    ``next`` is one ``sample_episodes`` list of ``batch`` episodes.

    Each episode's target is drawn uniformly from ``words`` (default: all
    eligible targets), then its shot count from the inclusive range ``k`` =
    (lo, hi), then its contexts, all from one generator; so the episodes,
    taken in order, do not depend on ``batch``.
    """
    if words is None:
        words = _targets(store, table, None)[2]
    if not words:
        raise EpisodeError("no eligible target words")
    lo, hi = k

    def generate():
        rng = np.random.default_rng(seed)
        while True:
            yield sample_episodes(((words[int(rng.integers(0, len(words)))],
                                    int(rng.integers(lo, hi + 1))) for _ in range(batch)),
                                  rng, store, table)

    return generate()
