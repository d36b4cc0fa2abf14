"""Reference methods the attention model is measured against.

* additive: per-context mean of in-table word vectors, then mean over
  contexts (optionally skipping stopwords)
* a-la-carte style: the additive vector pushed through a ridge-fitted
  d x d linear transform
* n-gram sum: boundary-marked character 3..6-grams with vectors fitted by
  sparse least squares so their sums approximate known-word embeddings (a
  linear surrogate for full subword-embedding training; the composition
  mechanism under test is the same)
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .container import (config_value, pack_text, read_container, unpack_text,
                        write_container)
from .corpus import EmbeddingTable, load_stopwords
from .episode import MASK_TOKEN
from .errors import FormatError, InferenceError, NumericError, OovForgeError

ALACARTE_MAGIC = "ALC1"
NGRAM_MAGIC = "NGR1"
NGRAM_MIN = 3
NGRAM_MAX = 6
NO_CONTEXT_TOKEN = "no context token found in the embedding table"


@dataclass
class ContextAverage:
    vector: np.ndarray
    empty: bool = False


def additive(contexts: list[list[str]], table: EmbeddingTable,
             drop_stopwords: bool = False) -> ContextAverage:
    """Mean over contexts of the per-context mean of contributing tokens.

    A token contributes when it is in the table and is not the mask marker
    (and not a stopword when filtering). Contexts with no contributor are
    skipped; if nothing contributes at all the result is a flagged zero
    vector, not an error.
    """
    if not contexts:
        raise OovForgeError("additive: at least one context required")
    if drop_stopwords:
        stopwords = load_stopwords()
    context_means = []
    for ctx in contexts:
        contribs = []
        for tok in ctx:
            if tok == MASK_TOKEN:
                continue
            if drop_stopwords and tok in stopwords:
                continue
            vec = table.get(tok)
            if vec is not None:
                contribs.append(vec)
        if contribs:
            context_means.append(_exact_mean(contribs))
    if not context_means:
        return ContextAverage(np.zeros(table.dim), empty=True)
    return ContextAverage(_exact_mean(context_means))


def _exact_mean(rows: list[np.ndarray]) -> np.ndarray:
    # Each column sum is fsum's correctly rounded one, so the mean is
    # permutation invariant bit for bit. A value with frexp exponent e and a
    # p-bit mantissa is a multiple of 2^(e - p); with g the least exponent of a
    # column's nonzero values, an absolute sum below 2^(g - p + 53) keeps every
    # partial sum, in any order, exact in float64, so numpy's sum is fsum's.
    # Other columns go through fsum, as does a zero sum (numpy may give -0.0)
    # and a sum that overflows or meets inf or nan, so numpy need not warn.
    x = np.stack(rows)
    p = np.finfo(x.dtype).nmant + 1
    with np.errstate(all="ignore"):
        sums = x.sum(axis=0, dtype=np.float64)
        abs_sums = np.abs(x).sum(axis=0, dtype=np.float64)
    g = np.min(np.frexp(x)[1], axis=0, where=x != 0, initial=1 << 12)
    exact = ((np.frexp(abs_sums)[1] <= g - p + 53) & np.isfinite(abs_sums)
             & (sums != 0))
    rest = np.flatnonzero(~exact)
    if rest.size:
        sums[rest] = [math.fsum(col) for col in x[:, rest].T.tolist()]
    return sums / len(rows)


@dataclass
class AlaCarteModel:
    """d x d linear correction on top of the additive estimate."""

    matrix: np.ndarray
    ridge: float = 0.0
    samples: int = 0
    residual: float = 0.0

    def save(self, path) -> None:
        config = {
            "format": "alacarte",
            "dim": str(self.matrix.shape[0]),
            "ridge": repr(self.ridge),
            "samples": str(self.samples),
            "residual": repr(self.residual),
        }
        write_container(path, ALACARTE_MAGIC, config,
                        [("matrix", self.matrix.astype(np.float32))])

    @classmethod
    def load(cls, path) -> "AlaCarteModel":
        config, arrays = read_container(path, ALACARTE_MAGIC)
        named = dict(arrays)
        if "matrix" not in named:
            raise FormatError(f"{path}: missing transform matrix")
        m = named["matrix"].astype(np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise FormatError(f"{path}: transform must be square, got {m.shape}")
        return cls(matrix=m, ridge=config_value(config, "ridge", float, "0"),
                   samples=config_value(config, "samples", int, "0"),
                   residual=config_value(config, "residual", float, "0"))


def alacarte_fit(pairs: list[tuple[np.ndarray, np.ndarray]],
                 ridge: float | None = None) -> AlaCarteModel:
    """Least-squares fit of A so that A @ additive approximates the oracle.

    ``pairs`` holds (additive vector, oracle vector) rows. The default ridge
    damping is 1e-3 * trace(X^T X) / d, which keeps small systems solvable.
    """
    if not pairs:
        raise OovForgeError("alacarte_fit: no samples")
    x = np.stack([p[0] for p in pairs]).astype(np.float64)
    y = np.stack([p[1] for p in pairs]).astype(np.float64)
    d = x.shape[1]
    if len(pairs) < d:
        warnings.warn(
            f"alacarte_fit: {len(pairs)} samples for a {d}x{d} transform; "
            "the system is rank-deficient and leans on the ridge term",
            stacklevel=2,
        )
    gram = x.T @ x
    if ridge is None:
        ridge = 1e-3 * float(np.trace(gram)) / d
    if ridge <= 0 and np.linalg.matrix_rank(gram) < d:
        raise NumericError("alacarte_fit: singular system and no ridge damping")
    # A = Y^T X (X^T X + ridge I)^-1, solved without forming the inverse
    a_t = np.linalg.solve(gram + ridge * np.eye(d), x.T @ y)
    a = a_t.T
    residual = float(np.linalg.norm(x @ a.T - y))
    return AlaCarteModel(matrix=a, ridge=float(ridge),
                         samples=len(pairs), residual=residual)


def alacarte_infer(contexts: list[list[str]], model: AlaCarteModel,
                   table: EmbeddingTable) -> np.ndarray:
    """The transform applied to the additive vector of the contexts; no
    in-table context token is an InferenceError."""
    base = additive(contexts, table)
    if base.empty:
        raise InferenceError(NO_CONTEXT_TOKEN)
    return model.matrix @ base.vector


def word_ngrams(word: str) -> list[str]:
    """All character n-grams of the boundary-marked word, with multiplicity."""
    marked = f"<{word}>"
    out = []
    for n in range(NGRAM_MIN, NGRAM_MAX + 1):
        for i in range(len(marked) - n + 1):
            out.append(marked[i:i + n])
    return out


@dataclass
class NgramSum:
    vector: np.ndarray
    covered: int = 0
    empty: bool = False


@dataclass
class NgramTable:
    """Character n-gram -> vector map; a word embeds as the sum of its
    covered n-grams."""

    dim: int
    vectors: dict[str, np.ndarray] = field(default_factory=dict)
    ridge: float = 0.0

    def save(self, path) -> None:
        grams = list(self.vectors.keys())
        mat = (np.stack([self.vectors[g] for g in grams]).astype(np.float32)
               if grams else np.zeros((0, self.dim), dtype=np.float32))
        config = {"format": "ngram-table", "dim": str(self.dim),
                  "n_min": str(NGRAM_MIN), "n_max": str(NGRAM_MAX),
                  "ridge": repr(self.ridge)}
        write_container(path, NGRAM_MAGIC, config,
                        [("grams", pack_text("\n".join(grams))), ("vectors", mat)])

    @classmethod
    def load(cls, path) -> "NgramTable":
        config, arrays = read_container(path, NGRAM_MAGIC)
        named = dict(arrays)
        if "grams" not in named or "vectors" not in named:
            raise FormatError(f"{path}: missing n-gram entries")
        text = unpack_text(named["grams"])
        grams = text.split("\n") if text else []
        mat = named["vectors"].astype(np.float64)
        dim = config_value(config, "dim", int)
        if mat.shape[1:] != (dim,):
            raise FormatError(f"{path}: dim={dim} but the vectors are {mat.shape}")
        if len(grams) != len(mat):
            raise FormatError(f"{path}: {len(grams)} grams vs {len(mat)} vectors")
        table = cls(dim=dim, ridge=config_value(config, "ridge", float, "0"))
        table.vectors = {g: mat[i] for i, g in enumerate(grams)}
        return table


def ngram_fit(words: list[str], table: EmbeddingTable,
              ridge: float = 1e-3) -> NgramTable:
    """Fit n-gram vectors by sparse least squares: for each training word,
    the sum of its n-gram vectors should approximate its table embedding."""
    words = [w for w in words if w in table]
    if not words:
        raise OovForgeError("ngram_fit: no training words present in the table")
    gram_ids: dict[str, int] = {}
    rows, cols, vals = [], [], []
    for r, word in enumerate(words):
        counts: dict[str, int] = {}
        for g in word_ngrams(word):
            counts[g] = counts.get(g, 0) + 1
        for g, c in counts.items():
            gid = gram_ids.setdefault(g, len(gram_ids))
            rows.append(r)
            cols.append(gid)
            vals.append(float(c))
    design = scipy.sparse.csr_matrix(
        (vals, (rows, cols)), shape=(len(words), len(gram_ids)))
    targets = table.matrix[[table.index[w] for w in words]].astype(np.float64)
    sol = np.zeros((len(gram_ids), table.dim))
    damp = np.sqrt(ridge)
    for j in range(table.dim):
        sol[:, j] = scipy.sparse.linalg.lsmr(design, targets[:, j], damp=damp)[0]
    out = NgramTable(dim=table.dim, ridge=ridge)
    grams = sorted(gram_ids, key=gram_ids.get)
    out.vectors = {g: sol[i] for i, g in enumerate(grams)}
    return out


def ngram_sum(word: str, ngrams: NgramTable) -> NgramSum:
    """Sum of the vectors of every covered n-gram of the word."""
    if not word:
        raise OovForgeError("ngram_sum: empty word")
    total = np.zeros(ngrams.dim)
    covered = 0
    for g in word_ngrams(word):
        vec = ngrams.vectors.get(g)
        if vec is not None:
            total += vec
            covered += 1
    return NgramSum(total, covered, empty=covered == 0)
