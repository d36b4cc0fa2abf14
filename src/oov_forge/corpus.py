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
import io
import os
import string
from collections import Counter
from collections.abc import Iterator, Mapping
from functools import cache, cached_property
from importlib import resources
from itertools import chain, islice

import numpy as np

from .container import atomic_open
from .errors import FormatError, IngestionError, InputError

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


def read_text(path, what: str) -> str:
    """A whole UTF-8 text file; a file that cannot be read or decoded raises
    IngestionError."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise IngestionError(f"cannot read {what} {path}: {e}") from e
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise IngestionError(f"{path}: invalid UTF-8 at byte {e.start}") from e


def read_sentences(path) -> list[list[str]]:
    """Read a one-sentence-per-line corpus into token lists."""
    return [tokenize(line) for line in read_text(path, "corpus").splitlines()]


@cache
def load_stopwords() -> frozenset[str]:
    """The bundled English list, one word per line, read once per process."""
    text = resources.files("oov_forge.data").joinpath("stopwords_en.txt").read_text("utf-8")
    return frozenset(w.strip() for w in text.splitlines() if w.strip())


class Vocabulary:
    """Dense word ids with occurrence counts and stopword flags.

    All corpus words are retained (context lookup needs them); min_count is
    the default count that a training target must exceed
    (``episode.eligible_targets``).
    """

    def __init__(self, words: list[str], counts: list[int],
                 stop_flags: list[bool], min_count: int):
        self.words = words
        self.counts = counts
        self.stop_flags = stop_flags
        self.min_count = min_count
        self.ids = {w: i for i, w in enumerate(words)}
        self._rows: tuple[EmbeddingTable, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.ids

    def id_of(self, word: str) -> int | None:
        return self.ids.get(word)

    def word_of(self, wid: int) -> str:
        return self.words[wid]

    def rows_in(self, table: EmbeddingTable) -> np.ndarray:
        """intp [V]: the row of each word in ``table``, -1 where it has none.
        The map of the last table asked is kept, since a table is read-only."""
        if self._rows is None or self._rows[0] is not table:
            rows = np.fromiter((table.index.get(w, -1) for w in self.words),
                               dtype=np.intp, count=len(self.words))
            self._rows = (table, rows)
        return self._rows[1]


def build_vocab(sentences: list[list[str]],
                min_count: int = DEFAULT_MIN_COUNT) -> Vocabulary:
    """Count words over tokenized sentences; ids follow first appearance."""
    if min_count < 1:
        raise IngestionError(f"min_count must be >= 1, got {min_count}")
    if not any(sentences):
        raise IngestionError("empty corpus")
    stopwords = load_stopwords()
    counts = Counter(chain.from_iterable(sentences))  # keys in first-appearance order
    words = list(counts)
    return Vocabulary(words, list(counts.values()), [w in stopwords for w in words],
                      min_count)


class SentenceStore:
    """The corpus as arrays. ``tokens`` holds every sentence's vocabulary
    ids back to back (int32), sentence i being
    ``tokens[offsets[i]:offsets[i + 1]]``. The inverted index is in CSR
    form: the sentences that contain word w are
    ``index_sentences[index_ptr[w]:index_ptr[w + 1]]``, ascending, and the
    same slots of ``index_first`` hold w's first position in each.

    The arrays are read-only; apart from the training targets and their
    split that ``episode.eligible_targets`` keeps here, a store is immutable
    and safe to share across threads.
    """

    def __init__(self, tokens: np.ndarray, offsets: np.ndarray, vocab: Vocabulary):
        """The store of ``tokens``, ids below ``len(vocab)``, cut into
        sentences at ``offsets``: 0, then the end of each sentence."""
        self.tokens = np.asarray(tokens, dtype=np.int32)
        self.offsets = np.asarray(offsets, dtype=np.intp)
        self.vocab = vocab
        # the last [vocab, table, threshold, targets, split] of episode.eligible_targets
        self._targets: list | None = None
        sentence = np.repeat(np.arange(len(self), dtype=np.int32), np.diff(self.offsets))
        # the token slots grouped by word, each group in corpus order; the
        # first slot of a word in each of its sentences is kept. Each
        # temporary is dropped once used: on the 500k-token train-planted
        # corpus that cuts the peak RSS of three loads from 115 to 99 MiB.
        # An LSD sort by id on 16-bit digits: numpy radix-sorts uint16 stably.
        order = np.argsort(self.tokens.astype(np.uint16), kind="stable")
        if len(vocab) > 1 << 16:
            order = order[np.argsort((self.tokens[order] >> 16).astype(np.uint16), kind="stable")]
        words, sents = self.tokens[order], sentence[order]
        first = np.ones(len(order), dtype=bool)
        np.not_equal(words[1:], words[:-1], out=first[1:])
        first[1:] |= sents[1:] != sents[:-1]
        del sents
        slots = order[first]
        del order
        self.index_ptr = np.zeros(len(vocab) + 1, dtype=np.intp)
        np.cumsum(np.bincount(words[first], minlength=len(vocab)), out=self.index_ptr[1:])
        del words, first
        self.index_sentences = sentence[slots]
        del sentence
        slots -= self.offsets[self.index_sentences]
        self.index_first = slots.astype(np.int32)
        for arr in (self.tokens, self.offsets, self.index_sentences, self.index_first,
                    self.index_ptr):
            arr.flags.writeable = False

    @classmethod
    def from_tokens(cls, sentences: list[list[str]], vocab: Vocabulary) -> "SentenceStore":
        """The store of tokenized sentences, every word of which is in ``vocab``."""
        return cls(*token_ids(sentences, vocab), vocab)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def slots_of(self, word: str) -> slice:
        """The word's slots of ``index_sentences`` and ``index_first``."""
        wid = self.vocab.id_of(word)
        if wid is None:
            raise IngestionError(f"unknown word: {word!r}")
        return slice(int(self.index_ptr[wid]), int(self.index_ptr[wid + 1]))


def contexts_of(word: str, store: SentenceStore) -> np.ndarray:
    """Sentence ids containing the word, in corpus order, deduplicated: a
    read-only view of the store's index."""
    return store.index_sentences[store.slots_of(word)]


def token_ids(sentences: list[list[str]], vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray]:
    """The vocabulary ids of tokenized sentences back to back (int32), and
    the offsets that cut them into sentences: 0, then each sentence's end."""
    offsets = np.zeros(len(sentences) + 1, dtype=np.intp)
    np.cumsum(np.fromiter(map(len, sentences), dtype=np.intp, count=len(sentences)),
              out=offsets[1:])
    tokens = np.fromiter(map(vocab.ids.__getitem__, chain.from_iterable(sentences)),
                         dtype=np.int32, count=int(offsets[-1]))
    return tokens, offsets


def prepare_corpus(path, min_count: int = DEFAULT_MIN_COUNT):
    """One-stop: read corpus file -> (Vocabulary, SentenceStore)."""
    sentences = read_sentences(path)
    vocab = build_vocab(sentences, min_count)
    tokens, offsets = token_ids(sentences, vocab)
    del sentences  # the token strings are freed before the index is built
    return vocab, SentenceStore(tokens, offsets, vocab)


class EmbeddingTable(Mapping):
    """Read-only word -> float32[dim] map with provenance. Lookup of an
    absent word returns None, never a zero vector.

    The rows live in one read-only float32 [V, dim] ``matrix``, in insertion
    order; ``index`` maps each word to its row, and ``t[w]`` is a view of
    that row.
    """

    def __init__(self, dim: int, vectors: Mapping[str, np.ndarray] | None = None,
                 source: str = ""):
        words = list(vectors or {})
        matrix = (np.stack([np.asarray(vectors[w], dtype=np.float32) for w in words])
                  if words else np.zeros((0, dim), dtype=np.float32))
        self._bind(dim, words, matrix, source)

    @classmethod
    def from_rows(cls, words: list[str], matrix: np.ndarray,
                  source: str = "") -> "EmbeddingTable":
        """A table over ``matrix`` [V, dim] (shared, not copied, when it is
        float32) whose row i is the vector of ``words[i]``."""
        table = cls.__new__(cls)
        matrix = np.asarray(matrix, dtype=np.float32)
        if matrix.ndim != 2:
            raise InputError(f"embedding matrix of shape {matrix.shape} is not 2-D")
        table._bind(matrix.shape[1], list(words), matrix, source)
        return table

    def _bind(self, dim: int, words: list[str], matrix: np.ndarray, source: str) -> None:
        if matrix.shape != (len(words), dim):
            raise InputError(f"embedding matrix of shape {matrix.shape} for "
                             f"{len(words)} words of dimension {dim}")
        self.index = {w: i for i, w in enumerate(words)}
        if len(self.index) != len(words):
            raise InputError("duplicate word in an embedding table")
        self.dim = dim
        self.source = source
        self._words = words
        self.matrix = matrix.view()
        self.matrix.flags.writeable = False

    @cached_property
    def row_norms(self) -> np.ndarray:
        """float32 [V] Euclidean norm of every row."""
        return np.sqrt(np.einsum("ij,ij->i", self.matrix, self.matrix))

    def __contains__(self, word) -> bool:
        return word in self.index

    def __len__(self) -> int:
        return len(self._words)

    def __iter__(self) -> Iterator[str]:
        return iter(self._words)

    def get(self, word: str, default=None) -> np.ndarray | None:
        i = self.index.get(word)
        return default if i is None else self.matrix[i]

    def __getitem__(self, word: str) -> np.ndarray:
        try:
            return self.matrix[self.index[word]]
        except KeyError:
            raise KeyError(f"word not in embedding table: {word!r}") from None

    def words(self) -> list[str]:
        return list(self._words)


BLOCK_LINES = 1024  # table lines parsed per block


def parse_rows(path, lines, first: int, dim: int,
               seen: set[str]) -> tuple[list[str], np.ndarray]:
    """The rows of ``lines``, numbered from line ``first`` of ``path``; this loop defines a row.
    Words go into ``seen``, and a bad line raises FormatError with its number."""
    words: list[str] = []
    rows: list[np.ndarray] = []
    for lineno, line in enumerate(lines, start=first):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != dim + 1:
            raise FormatError(
                f"{path}: line {lineno}: expected {dim} values, got {len(parts) - 1}"
            )
        word = parts[0]
        if word in seen:
            raise FormatError(f"{path}: line {lineno}: duplicate word {word!r}")
        try:
            vec = np.fromiter(map(float, parts[1:]), dtype=np.float32, count=dim)
        except ValueError:
            raise FormatError(f"{path}: line {lineno}: non-numeric value") from None
        if not np.isfinite(vec).all():
            raise FormatError(f"{path}: line {lineno}: non-finite value")
        seen.add(word)
        words.append(word)
        rows.append(vec)
    return words, np.array(rows, dtype=np.float32).reshape(len(rows), dim)


def parse_plain_block(lines, dim: int, seen: set[str]) -> tuple[list[str], np.ndarray] | None:
    """``parse_rows`` of lines that are each a word new to ``seen`` and the block, then ``dim``
    finite single-spaced values (numpy parses them as ``float`` does) and at most one space
    before the line end, as word2vec writes its rows; else None."""
    words, _, values = zip(*(line.partition(" ") for line in lines))
    values = [v.removesuffix("\n").removesuffix(" ") for v in values]
    if (any(w.split() != [w] for w in words) or len(set(words)) < len(words)
            or not seen.isdisjoint(words) or not values[0].strip()):
        return None  # (numpy warns about a block whose first row holds no values)
    try:
        rows = np.loadtxt(values, dtype=np.float64, comments=None, delimiter=" ", ndmin=2)
    except ValueError:
        return None
    with np.errstate(over="ignore"):  # an overflow is parse_rows' error to report
        rows = rows.astype(np.float32)
    if rows.shape != (len(lines), dim) or not np.isfinite(rows).all():
        return None
    seen.update(words)
    return list(words), rows


def load_embeddings(path) -> EmbeddingTable:
    """A text table, read in blocks of lines. A block that ``parse_plain_block`` rejects,
    as one with an error, goes through ``parse_rows``, which names the bad line."""
    try:
        fh = open(path, encoding="utf-8")
    except OSError as e:
        raise IngestionError(f"cannot read embeddings {path}: {e}") from e
    try:
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
            size = os.fstat(fh.fileno()).st_size
            if not size:  # a pipe: its size is known once it is read
                fh = io.StringIO(fh.read())
                size = len(fh.getvalue())
            # a row takes at least 2 * dim bytes (or characters): a bound on an overstated header
            matrix = np.empty((min(n_words, size // (2 * dim)), dim), dtype=np.float32)
            words: list[str] = []
            seen: set[str] = set()
            lineno = 2
            while block := list(islice(fh, BLOCK_LINES)):
                block_words, rows = (parse_plain_block(block, dim, seen)
                                     or parse_rows(path, block, lineno, dim, seen))
                start = len(words)
                words += block_words
                if start < len(matrix):  # rows past the header's count are only counted
                    matrix[start:len(words)] = rows[:len(matrix) - start]
                lineno += len(block)
    except UnicodeDecodeError as e:  # the position is within a decoded chunk
        raise IngestionError(
            f"{path}: invalid UTF-8 byte 0x{e.object[e.start]:02x}") from e
    if len(words) != n_words:
        raise FormatError(
            f"{path}: header promises {n_words} rows, found {len(words)}"
        )
    return EmbeddingTable.from_rows(words, matrix, source=str(path))


def format_vector(vec: np.ndarray) -> str:
    # repr of the exact float64 value a float32 widens to; parses back bit-equal
    return " ".join(map(repr, np.asarray(vec, dtype=np.float64).tolist()))


def save_embeddings(table: EmbeddingTable, path) -> None:
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(table)} {table.dim}\n")
        for word, vec in zip(table.words(), table.matrix):
            fh.write(f"{word} {format_vector(vec)}\n")


def _word_bucket(word: str) -> int:
    digest = hashlib.sha1(word.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % 100


def split_words(words):
    """Deterministic train/validation split keyed on a hash of each word."""
    cut = round(VAL_FRACTION * 100)
    train, val = [], []
    for w in words:
        (val if _word_bucket(w) < cut else train).append(w)
    return train, val
