"""K-shot episode construction: masked context sampling plus character
features for one target word.

Context token ids live in the owning corpus vocabulary's id space, with two
reserved sentinels: MASK_ID marks masked-out target occurrences and UNK_ID
marks tokens that have no vocabulary entry (ad-hoc inference sentences).
"""

from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np

from .corpus import EmbeddingTable, SentenceStore, Vocabulary, contexts_of, split_words
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
    """One K-shot task: masked contexts, character features, oracle target."""

    target_word: str
    contexts: list[list[int]]
    char_seq: list[int]
    oracle: np.ndarray | None = None

    @property
    def k(self) -> int:
        return len(self.contexts)


def mask_window(ids: list[int], target_id: int, window: int = CONTEXT_WINDOW) -> list[int]:
    """Keep ``window`` tokens each side of the first target occurrence and
    mask every occurrence in that window; an absent target is a ValueError."""
    first = ids.index(target_id)
    return [MASK_ID if t == target_id else t
            for t in ids[max(0, first - window):first + window + 1]]


def decode_context(ids: list[int], vocab: Vocabulary) -> list[str]:
    """Token ids back to strings; sentinels become their marker tokens."""
    out = []
    for tid in ids:
        if tid == MASK_ID:
            out.append(MASK_TOKEN)
        elif tid == UNK_ID:
            out.append(UNK_TOKEN)
        else:
            out.append(vocab.word_of(tid))
    return out


def sample_episode(word: str, k: int, rng: np.random.Generator,
                   store: SentenceStore, table: EmbeddingTable | None = None) -> Episode:
    """Draw K masked contexts for ``word``.

    Sampling is uniform without replacement while enough sentences exist,
    with replacement otherwise (keeps the episode shape fixed for rare
    words). The oracle vector is attached from ``table`` when given.
    """
    if k < 1:
        raise EpisodeError(f"k must be >= 1, got {k}")
    sids = contexts_of(word, store)
    if not sids:
        raise EpisodeError(f"no contexts for {word!r}")
    target_id = store.vocab.id_of(word)
    if len(sids) >= k:
        chosen = rng.choice(len(sids), size=k, replace=False)
    else:
        chosen = rng.integers(0, len(sids), size=k)
    contexts = [
        mask_window(store.sentences[sids[int(i)]], target_id)
        for i in chosen
    ]
    oracle = None
    if table is not None:
        oracle = table.get(word)
        if oracle is None:
            raise EpisodeError(f"no oracle embedding for {word!r}")
    return Episode(
        target_word=word,
        contexts=contexts,
        char_seq=char_sequence(word),
        oracle=oracle,
    )


def episode_from_masked(word: str, masked_sentences: list[list[str]],
                        max_word_len: int = MAX_WORD_LEN,
                        max_len: int = MAX_LEN):
    """The inference episode: sentences already carrying MASK_TOKEN at the
    target slots, windowed to ``max_len`` tokens around the first marker.

    Returns (episode, vocabulary): the ids index a transient vocabulary of
    the sentences' words, which the model needs to resolve them.
    """
    if not masked_sentences:
        raise EpisodeError("episode needs at least one context sentence")
    for sent in masked_sentences:
        if MASK_TOKEN not in sent:
            raise EpisodeError(f"context has no {MASK_TOKEN} marker: {sent}")
    words = dict.fromkeys(t for sent in masked_sentences for t in sent)
    words.pop(MASK_TOKEN)
    vocab = Vocabulary(list(words), [1] * len(words), [False] * len(words), min_count=1)
    contexts = [mask_window([MASK_ID if t == MASK_TOKEN else vocab.ids[t] for t in sent],
                            MASK_ID, (max_len - 1) // 2)
                for sent in masked_sentences]
    return Episode(word, contexts, char_sequence(word, max_word_len=max_word_len)), vocab


def _targets(vocab: Vocabulary, store: SentenceStore, table: EmbeddingTable | None,
             min_count: int | None) -> list:
    """The [vocab, table, threshold, targets, split] kept on ``store``, made
    anew when one of the arguments differs; the split is filled in when
    first asked for."""
    threshold = vocab.min_count if min_count is None else min_count
    kept = store._targets
    if kept is None or kept[0] is not vocab or kept[1] is not table or kept[2] != threshold:
        keep = np.asarray(vocab.counts) > threshold
        if table is not None:
            rows = vocab.rows_in(table)
            keep &= rows >= 0
            keep[keep] = table.row_norms[rows[keep]] > 0
        seen = np.zeros(len(vocab), dtype=bool)
        seen[np.fromiter(store.index, dtype=np.intp, count=len(store.index))] = True
        words = tuple(vocab.words[i] for i in np.flatnonzero(keep & seen))
        kept = store._targets = [vocab, table, threshold, words, None]
    return kept


def eligible_targets(vocab: Vocabulary, store: SentenceStore,
                     table: EmbeddingTable | None, min_count: int | None = None) -> list[str]:
    """The training targets, in vocabulary order: words counted more than
    ``min_count`` times (default ``vocab.min_count``), with a nonzero row
    in the oracle table (cosine needs one), and in at least one sentence.
    The last result is kept on the store, since a store's sentences and a
    table are read-only."""
    return list(_targets(vocab, store, table, min_count)[3])


def split_targets(vocab: Vocabulary, store: SentenceStore,
                  table: EmbeddingTable | None) -> tuple[list[str], list[str]]:
    """``split_words`` of ``eligible_targets(vocab, store, table)``, kept with
    it. A tiny corpus can hash every target into one part: then, given two
    or more targets, the last one is held out for validation."""
    kept = _targets(vocab, store, table, None)
    if kept[4] is None:
        words = kept[3]
        train, val = split_words(words)
        if len(words) >= 2 and not (train and val):
            train, val = words[:-1], words[-1:]
        kept[4] = (tuple(train), tuple(val))
    train, val = kept[4]
    return list(train), list(val)


def episode_stream(vocab: Vocabulary, store: SentenceStore,
                   table: EmbeddingTable | None, k: tuple[int, int], seed: int,
                   words: list[str] | None = None):
    """Infinite deterministic-for-seed episode generator.

    Each episode's shot count is drawn from the inclusive range ``k`` =
    (lo, hi); targets are drawn uniformly from ``words`` (default: all
    eligible targets).
    """
    if words is None:
        words = eligible_targets(vocab, store, table)
    if not words:
        raise EpisodeError("no eligible target words")
    lo, hi = k

    def generate():
        rng = np.random.default_rng(seed)
        while True:
            word = words[int(rng.integers(0, len(words)))]
            yield sample_episode(word, int(rng.integers(lo, hi + 1)), rng, store, table)

    return generate()
