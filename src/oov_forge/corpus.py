"""Corpus ingestion: tokenization, vocabulary, embedding tables, and the
word -> sentences inverted index.

File formats handled here:
  * corpus: UTF-8 plain text, one sentence per line
  * embeddings: text format, header "<vocab_size> <dim>", then one
    "<word> <f1> ... <fdim>" row per word
  * stopwords: one word per line
"""

from __future__ import annotations

import hashlib
import string
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import IngestionError, FormatError

DEFAULT_MIN_COUNT = 16
VAL_FRACTION = 0.05

STRIP_CHARS = string.punctuation + "‘’“”–—"


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip edge punctuation, drop empties."""
    out = []
    for raw in text.lower().split():
        tok = raw.strip(STRIP_CHARS)
        if tok:
            out.append(tok)
    return out


def read_sentences(path) -> list[list[str]]:
    """Read a one-sentence-per-line corpus into token lists."""
    try:
        raw = open(path, "rb").read()
    except OSError as e:
        raise IngestionError(f"cannot read corpus {path}: {e}") from e
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise IngestionError(f"{path}: invalid UTF-8 at byte {e.start}") from e
    return [tokenize(line) for line in text.splitlines()]


def load_stopwords(path=None) -> frozenset[str]:
    """The bundled English list by default, or any one-word-per-line file."""
    if path is None:
        text = resources.files("oov_forge.data").joinpath("stopwords_en.txt").read_text("utf-8")
    else:
        text = open(path, encoding="utf-8").read()
    return frozenset(w.strip() for w in text.splitlines() if w.strip())


class Vocabulary:
    """Dense word ids with occurrence counts and stopword flags.

    All corpus words are retained (context lookup needs them); only words
    with count strictly greater than min_count are target-eligible.
    """

    def __init__(self, words: list[str], counts: list[int],
                 stop_flags: list[bool], min_count: int):
        self.words = words
        self.counts = counts
        self.stop_flags = stop_flags
        self.min_count = min_count
        self.ids = {w: i for i, w in enumerate(words)}

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.ids

    def id_of(self, word: str) -> int | None:
        return self.ids.get(word)

    def word_of(self, wid: int) -> str:
        return self.words[wid]

    def count_of(self, word: str) -> int:
        wid = self.ids.get(word)
        return 0 if wid is None else self.counts[wid]

    def is_stopword(self, word: str) -> bool:
        wid = self.ids.get(word)
        return False if wid is None else self.stop_flags[wid]

    def is_eligible(self, word: str) -> bool:
        wid = self.ids.get(word)
        return wid is not None and self.counts[wid] > self.min_count

    def eligible_words(self) -> list[str]:
        return [w for i, w in enumerate(self.words) if self.counts[i] > self.min_count]


def build_vocab(sentences: list[list[str]], min_count: int = DEFAULT_MIN_COUNT,
                stopwords: frozenset[str] | None = None) -> Vocabulary:
    """Count words over tokenized sentences; ids follow first appearance."""
    if min_count < 1:
        raise IngestionError(f"min_count must be >= 1, got {min_count}")
    if not any(sentences):
        raise IngestionError("empty corpus")
    if stopwords is None:
        stopwords = load_stopwords()
    words: list[str] = []
    counts: dict[str, int] = {}
    for sent in sentences:
        for tok in sent:
            if tok in counts:
                counts[tok] += 1
            else:
                counts[tok] = 1
                words.append(tok)
    return Vocabulary(
        words,
        [counts[w] for w in words],
        [w in stopwords for w in words],
        min_count,
    )


class SentenceStore:
    """Sentences as vocab-id sequences plus an inverted index: word id ->
    ids of the sentences containing it, ascending.

    Immutable after construction; safe to share across threads.
    """

    def __init__(self, sentences: list[list[int]], vocab: Vocabulary):
        self.sentences = sentences
        self.vocab = vocab
        self.index: dict[int, list[int]] = {}
        for sid, sent in enumerate(sentences):
            for wid in dict.fromkeys(sent):
                self.index.setdefault(wid, []).append(sid)

    @classmethod
    def from_tokens(cls, sentences: list[list[str]], vocab: Vocabulary) -> "SentenceStore":
        ids = vocab.ids
        return cls([[ids[tok] for tok in sent] for sent in sentences], vocab)

    def __len__(self) -> int:
        return len(self.sentences)


def contexts_of(word: str, store: SentenceStore) -> list[int]:
    """Sentence ids containing the word, in corpus order, deduplicated."""
    wid = store.vocab.id_of(word)
    if wid is None:
        raise IngestionError(f"unknown word: {word!r}")
    return list(store.index.get(wid, []))


def prepare_corpus(path, min_count: int = DEFAULT_MIN_COUNT,
                   stopwords: frozenset[str] | None = None):
    """One-stop: read corpus file -> (Vocabulary, SentenceStore)."""
    sentences = read_sentences(path)
    vocab = build_vocab(sentences, min_count, stopwords)
    return vocab, SentenceStore.from_tokens(sentences, vocab)


@dataclass
class EmbeddingTable:
    """Word -> float32[dim] map with provenance. Lookup of an absent word
    returns None, never a zero vector."""

    dim: int
    vectors: dict[str, np.ndarray] = field(default_factory=dict)
    source: str = ""

    def __contains__(self, word: str) -> bool:
        return word in self.vectors

    def __len__(self) -> int:
        return len(self.vectors)

    def get(self, word: str) -> np.ndarray | None:
        return self.vectors.get(word)

    def __getitem__(self, word: str) -> np.ndarray:
        try:
            return self.vectors[word]
        except KeyError:
            raise KeyError(f"word not in embedding table: {word!r}") from None

    def words(self) -> list[str]:
        return list(self.vectors.keys())


def load_embeddings(path) -> EmbeddingTable:
    try:
        fh = open(path, encoding="utf-8")
    except OSError as e:
        raise IngestionError(f"cannot read embeddings {path}: {e}") from e
    with fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise FormatError(f"{path}: line 1: expected '<vocab_size> <dim>' header")
        try:
            n_words, dim = int(header[0]), int(header[1])
        except ValueError:
            raise FormatError(f"{path}: line 1: non-integer header") from None
        if n_words < 0 or dim < 1:
            raise FormatError(f"{path}: line 1: bad header values {header}")
        table = EmbeddingTable(dim=dim, source=str(path))
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != dim + 1:
                raise FormatError(
                    f"{path}: line {lineno}: expected {dim} values, got {len(parts) - 1}"
                )
            word = parts[0]
            if word in table.vectors:
                raise FormatError(f"{path}: line {lineno}: duplicate word {word!r}")
            try:
                vec = np.array([float(p) for p in parts[1:]], dtype=np.float32)
            except ValueError:
                raise FormatError(f"{path}: line {lineno}: non-numeric value") from None
            if not np.isfinite(vec).all():
                raise FormatError(f"{path}: line {lineno}: non-finite value")
            table.vectors[word] = vec
    if len(table.vectors) != n_words:
        raise FormatError(
            f"{path}: header promises {n_words} rows, found {len(table.vectors)}"
        )
    return table


def format_vector(vec: np.ndarray) -> str:
    # repr of the exact float64 value a float32 widens to; parses back bit-equal
    return " ".join(repr(float(x)) for x in vec)


def save_embeddings(table: EmbeddingTable, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(table.vectors)} {table.dim}\n")
        for word, vec in table.vectors.items():
            fh.write(f"{word} {format_vector(vec)}\n")


def _word_bucket(word: str) -> int:
    digest = hashlib.sha1(word.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % 100


def split_words(words, val_fraction: float = VAL_FRACTION):
    """Deterministic train/validation split keyed on a hash of each word."""
    cut = round(val_fraction * 100)
    train, val = [], []
    for w in words:
        (val if _word_bucket(w) < cut else train).append(w)
    return train, val
