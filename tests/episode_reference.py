"""The list sampler that the packed one replaced, kept as the reference the
differential tests compare against: sentences as lists of ids, an inverted
index of lists, and one list comprehension per context window. Also builds
packed episodes from contexts written out as lists."""

import numpy as np

from oov_forge.episode import CONTEXT_WINDOW, MASK_ID, Episode, char_sequence
from oov_forge.errors import EpisodeError, IngestionError


class ListStore:
    """Sentences as lists of vocabulary ids plus an inverted index: word id
    -> ids of the sentences containing it, ascending."""

    def __init__(self, sentences: list[list[int]], vocab):
        self.sentences = sentences
        self.vocab = vocab
        self.index: dict[int, list[int]] = {}
        for sid, sent in enumerate(sentences):
            for wid in dict.fromkeys(sent):
                self.index.setdefault(wid, []).append(sid)

    def contexts_of(self, word: str) -> list[int]:
        wid = self.vocab.id_of(word)
        if wid is None:
            raise IngestionError(f"unknown word: {word!r}")
        return list(self.index.get(wid, []))


def mask_window(ids: list[int], target_id: int, window: int = CONTEXT_WINDOW) -> list[int]:
    """Keep ``window`` tokens each side of the first target occurrence and
    mask every occurrence in that window; an absent target is a ValueError."""
    first = ids.index(target_id)
    return [MASK_ID if t == target_id else t
            for t in ids[max(0, first - window):first + window + 1]]


def sample_episode(word: str, k: int, rng: np.random.Generator, store: ListStore,
                   table=None) -> tuple[list[list[int]], np.ndarray | None]:
    """(contexts, oracle) of K masked contexts for ``word``, drawn with the
    RNG calls of ``oov_forge.episode.sample_episode``."""
    if k < 1:
        raise EpisodeError(f"k must be >= 1, got {k}")
    sids = store.contexts_of(word)
    if not sids:
        raise EpisodeError(f"no contexts for {word!r}")
    target_id = store.vocab.id_of(word)
    if len(sids) >= k:
        chosen = rng.choice(len(sids), size=k, replace=False)
    else:
        chosen = rng.integers(0, len(sids), size=k)
    contexts = [mask_window(store.sentences[sids[int(i)]], target_id) for i in chosen]
    oracle = None
    if table is not None:
        oracle = table.get(word)
        if oracle is None:
            raise EpisodeError(f"no oracle embedding for {word!r}")
    return contexts, oracle


def episode_stream(words: list[str], store: ListStore, table, k: tuple[int, int], seed: int):
    """(word, contexts, oracle) of each episode of ``oov_forge.episode.episode_stream``."""
    lo, hi = k
    rng = np.random.default_rng(seed)
    while True:
        word = words[int(rng.integers(0, len(words)))]
        yield (word, *sample_episode(word, int(rng.integers(lo, hi + 1)), rng, store, table))


def episode_of(word: str, contexts: list[list[int]], oracle=None, char_seq=None) -> Episode:
    """The packed episode of contexts given as lists of ids, each summarized
    at its first MASK_ID, or at its first token when it has none."""
    return Episode(word,
                   np.array([t for ids in contexts for t in ids], dtype=np.int32),
                   np.array([len(ids) for ids in contexts], dtype=np.intp),
                   np.array([ids.index(MASK_ID) if MASK_ID in ids else 0 for ids in contexts],
                            dtype=np.intp),
                   char_sequence(word) if char_seq is None else char_seq, oracle)


def reordered(ep: Episode, order) -> Episode:
    """``ep`` with its contexts taken in ``order``."""
    contexts = ep.contexts
    return episode_of(ep.target_word, [contexts[int(i)] for i in order], ep.oracle, ep.char_seq)
