"""The two-pass corpus pipeline that ``SentenceStore.from_tokens`` and
``prepare_corpus`` replaced, kept as the reference they must equal: the whole
corpus read into token lists, a vocabulary built over them, then their ids
looked up in a second pass."""

from itertools import chain

import numpy as np

from oov_forge.corpus import (DEFAULT_MIN_COUNT, SentenceStore, Vocabulary, read_text,
                              tokenize)
from oov_forge.errors import IngestionError


def read_sentences(path) -> list[list[str]]:
    """Read a one-sentence-per-line corpus into token lists."""
    return [tokenize(line) for line in read_text(path, "corpus").splitlines()]


def build_vocab(sentences: list[list[str]],
                min_count: int = DEFAULT_MIN_COUNT) -> Vocabulary:
    """The words of tokenized sentences; ids follow first appearance."""
    if min_count < 1:
        raise IngestionError(f"min_count must be >= 1, got {min_count}")
    if not any(sentences):
        raise IngestionError("empty corpus")
    return Vocabulary(list(dict.fromkeys(chain.from_iterable(sentences))), min_count)


def token_ids(sentences: list[list[str]], vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray]:
    """The vocabulary ids of tokenized sentences back to back (int32), and
    the offsets that cut them into sentences: 0, then each sentence's end."""
    offsets = np.zeros(len(sentences) + 1, dtype=np.intp)
    np.cumsum(np.fromiter(map(len, sentences), dtype=np.intp, count=len(sentences)),
              out=offsets[1:])
    tokens = np.fromiter(map(vocab.ids.__getitem__, chain.from_iterable(sentences)),
                         dtype=np.int32, count=int(offsets[-1]))
    return tokens, offsets


def store_of(sentences: list[list[str]], vocab: Vocabulary) -> SentenceStore:
    """The store of tokenized sentences, every word of which is in ``vocab``
    (which may hold more words)."""
    return SentenceStore(*token_ids(sentences, vocab), vocab)


def reference_store(sentences: list[list[str]],
                    min_count: int = DEFAULT_MIN_COUNT) -> SentenceStore:
    """``SentenceStore.from_tokens`` in two passes."""
    return store_of(sentences, build_vocab(sentences, min_count))


def reference_prepare(path, min_count: int = DEFAULT_MIN_COUNT):
    """``prepare_corpus`` in two passes."""
    store = reference_store(read_sentences(path), min_count)
    return store.vocab, store


STORE_FIELDS = ("tokens", "offsets", "counts", "index_ptr", "index_sentences", "index_first")


def assert_same_store(got: SentenceStore, want: SentenceStore) -> None:
    """Equal arrays, dtype included, and an equal vocabulary."""
    for name in STORE_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.vocab.words == want.vocab.words
    assert type(got.vocab.ids) is dict and got.vocab.ids == want.vocab.ids
    assert list(got.vocab.ids) == list(want.vocab.ids)
    assert got.vocab.min_count == want.vocab.min_count
