"""Reference methods the attention model is measured against.

* additive: per-context mean of in-table word vectors, then mean over
  contexts (optionally skipping stopwords)
* a-la-carte style: the additive vector pushed through a ridge-fitted
  d x d linear transform
* n-gram sum: boundary-marked character 3..6-grams with vectors fitted by
  sparse least squares so their sums approximate known-word embeddings (a
  linear surrogate for full subword-embedding training; the composition
  mechanism under test is the same)

The additive means are exact: each column sum is math.fsum's, correctly
rounded, so a mean does not depend on the order of its rows. A sum of p-bit
values runs in an accumulator with a q-bit mantissa: float32 rows (p = 24) in
float64 (q = 53), float64 context means (p = 53) in WIDE_ACC. A value with
frexp exponent e is a multiple of 2^(e - p), so with g the least exponent of a
cell's nonzero values, an absolute sum below 2^(g - p + q) keeps every partial
sum, in any order, exact; one rounding to float64 then gives fsum's result.
Every other cell goes through fsum, as do zero sums (numpy may give -0.0), sums
that overflow or meet inf or nan, and sums the cast to float64 overflows.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
import scipy.sparse

from .container import (config_value, pack_text, read_container, unpack_text,
                        write_container)
from .corpus import EmbeddingTable, load_stopwords
from .episode import MASK_TOKEN
from .errors import FormatError, InferenceError, NumericError, OovForgeError

ALACARTE_MAGIC = "ALC1"
NGRAM_MAGIC = "NGR1"
NGRAM_MIN = 3
NGRAM_MAX = 6
# ngram_fit's solver: scipy.sparse.linalg.lsmr's default tolerances, and the
# number of right-hand sides it iterates on together (on a d=300 fit, 64 at a
# time is as fast as all 300 at once and peaks at 15 MiB of heap, not 40)
LSMR_TOL = 1e-6
LSMR_CONLIM = 1e8
LSMR_CHUNK = 64
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
    skip = load_stopwords() if drop_stopwords else frozenset()
    index = table.index
    ctx_rows = [rows for rows in ([index[t] for t in ctx
                                   if t in index and t != MASK_TOKEN and t not in skip]
                                  for ctx in contexts) if rows]
    if not ctx_rows:
        return ContextAverage(np.zeros(table.dim), empty=True)
    # one gather of every contributing row, zero-padded to [context, slot, dim]
    counts = np.array([len(rows) for rows in ctx_rows])
    x = np.zeros((len(counts), counts.max(), table.dim), dtype=table.matrix.dtype)
    x[np.arange(x.shape[1]) < counts[:, None]] = table.matrix[list(chain.from_iterable(ctx_rows))]
    means = _exact_means(x, counts)
    return ContextAverage(_exact_means(means[None], np.array([len(means)]), WIDE_ACC)[0])


# The mean of context means sums in the long double where it is IEEE (x87
# extended, nmant 63; binary128, nmant 112), else in float64 (falls back to fsum).
WIDE_ACC = np.longdouble if np.finfo(np.longdouble).nmant in (63, 112) else np.float64


def _exact_means(x: np.ndarray, counts: np.ndarray, acc=np.float64) -> np.ndarray:
    """float64 [S, d] exact column means of the segments ``x[s, :counts[s]]`` of a
    zero-padded block ``x`` [S, L, d], summed in ``acc`` as the module docstring says."""
    p, q = np.finfo(x.dtype).nmant + 1, np.finfo(acc).nmant + 1
    mags = np.abs(x)
    with np.errstate(all="ignore"):
        sums = x.sum(axis=1, dtype=acc).astype(np.float64)
        abs_sums = mags.sum(axis=1, dtype=acc)
    np.copyto(mags, np.inf, where=mags == 0)  # zeros, padding too, set no exponent
    exact = ((np.frexp(abs_sums)[1] <= np.frexp(mags.min(axis=1))[1] - p + q)
             & np.isfinite(abs_sums) & np.isfinite(sums) & (sums != 0))
    for s, j in zip(*np.nonzero(~exact)):
        sums[s, j] = math.fsum(x[s, :counts[s], j].tolist())
    return sums / counts[:, None]


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
    """Fit n-gram vectors by damped sparse least squares: for each training
    word, the sum of its n-gram vectors should approximate its table
    embedding, with ``ridge`` weighting the squared norm of the vectors.

    Each dimension is its own least-squares problem. They are solved with
    scipy's LSMR recurrences run on chunks of LSMR_CHUNK dimensions at once
    (``_lsmr_columns``), so every dimension's result equals
    ``scipy.sparse.linalg.lsmr(design, target, damp=sqrt(ridge))[0]``."""
    if not (math.isfinite(ridge) and ridge >= 0):
        raise NumericError(f"ngram_fit: ridge must be finite and >= 0, got {ridge!r}")
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
    sol, _ = _lsmr_columns(design, targets, np.sqrt(ridge))
    out = NgramTable(dim=table.dim, ridge=ridge)
    grams = sorted(gram_ids, key=gram_ids.get)
    out.vectors = {g: sol[i] for i, g in enumerate(grams)}
    return out


def _lsmr_columns(design, targets: np.ndarray,
                  damp: float) -> tuple[np.ndarray, np.ndarray]:
    """``scipy.sparse.linalg.lsmr(design, targets[:, j], damp=damp)`` for
    every column j, LSMR_CHUNK columns at a time: the [n, k] solutions and
    the k iteration counts, each equal to lsmr's."""
    design_h = design.T.conj()  # the adjoint scipy's rmatvec multiplies by
    k = targets.shape[1]
    sol = np.zeros((design.shape[1], k))
    itns = np.zeros(k, dtype=np.int64)
    for start in range(0, k, LSMR_CHUNK):
        part = slice(start, start + LSMR_CHUNK)
        b = np.ascontiguousarray(targets[:, part].T)
        x, itns[part] = _lsmr_chunk(design, design_h, b, damp)
        sol[:, part] = x.T
    return sol, itns


def _lsmr_chunk(design, design_h, b: np.ndarray,
                damp: float) -> tuple[np.ndarray, np.ndarray]:
    # scipy's lsmr (Fong and Saunders 2011) on each row of b at once, with
    # the defaults atol = btol = 1e-6, conlim = 1e8 and maxiter = min(m, n).
    # Each column's u, v, h, hbar and x are contiguous rows and its scalars
    # are entries of arrays, with scipy's operations in scipy's order: the
    # multi-vector sparse products add every column in the order of the
    # one-vector ones, and _row_norms is np.linalg.norm's dot. A column
    # leaves the active set at the iteration where lsmr would stop it.
    m, n = design.shape
    x_out = np.zeros((len(b), n))
    itn_out = np.zeros(len(b), dtype=np.int64)
    normb = _row_norms(b)
    cols = np.flatnonzero(normb > 0)  # normb == 0: lsmr returns x = 0
    beta = normb[cols]
    u = (1 / beta)[:, None] * b[cols]
    v = np.ascontiguousarray((design_h @ u.T).T)
    alpha = _row_norms(v)
    live = alpha * beta != 0  # normar == 0: x = 0 as well
    cols, u, v, alpha, beta = cols[live], u[live], v[live], alpha[live], beta[live]
    v *= (1 / alpha)[:, None]
    k = len(cols)
    normb, betadd, zetabar, alphabar = beta, beta, alpha * beta, alpha.copy()
    rho = rhobar = cbar = rhodold = np.ones(k)
    sbar = zeta = betad = tautildeold = thetatilde = d = maxrbar = np.zeros(k)
    minrbar = np.full(k, 1e100)
    normA2 = alpha * alpha
    h, hbar, x = v.copy(), np.zeros_like(v), np.zeros_like(v)
    maxiter = min(m, n)
    itn = 0
    while len(cols):  # every column stops by itn == maxiter
        itn += 1
        u *= -alpha[:, None]
        u += (design @ v.T).T
        beta = _row_norms(u)
        grow = beta > 0
        rows = slice(None) if grow.all() else np.flatnonzero(grow)
        u[rows] *= (1 / beta[rows])[:, None]
        v[rows] *= -beta[rows][:, None]
        v[rows] += (design_h @ u[rows].T).T
        alpha[rows] = _row_norms(v[rows])
        grow &= alpha > 0
        rows = slice(None) if grow.all() else np.flatnonzero(grow)
        v[rows] *= (1 / alpha[rows])[:, None]

        chat, shat, alphahat = _sym_ortho(alphabar, damp)
        rhoold = rho
        c, s, rho = _sym_ortho(alphahat, beta)
        thetanew = s * alpha
        alphabar = c * alpha
        rhobarold = rhobar
        zetaold = zeta
        thetabar = sbar * rho
        rhotemp = cbar * rho
        cbar, sbar, rhobar = _sym_ortho(cbar * rho, thetanew)
        zeta = cbar * zetabar
        zetabar = -sbar * zetabar
        hbar *= (-(thetabar * rho / (rhoold * rhobarold)))[:, None]
        hbar += h
        x += (zeta / (rho * rhobar))[:, None] * hbar
        h *= (-(thetanew / rho))[:, None]
        h += v

        betaacute = chat * betadd
        betacheck = -shat * betadd
        betahat = c * betaacute
        betadd = -s * betaacute
        thetatildeold = thetatilde
        ctildeold, stildeold, rhotildeold = _sym_ortho(rhodold, thetabar)
        thetatilde = stildeold * rhobar
        rhodold = ctildeold * rhobar
        betad = -stildeold * betad + ctildeold * betahat
        tautildeold = (zetaold - thetatildeold * tautildeold) / rhotildeold
        taud = (zeta - thetatilde * tautildeold) / rhodold
        d = d + betacheck * betacheck
        normr = np.sqrt(d + (betad - taud) ** 2 + betadd * betadd)
        normA2 = normA2 + beta * beta
        normA = np.sqrt(normA2)
        normA2 = normA2 + alpha * alpha
        maxrbar = np.maximum(maxrbar, rhobarold)
        if itn > 1:
            minrbar = np.minimum(minrbar, rhobarold)
        condA = np.maximum(maxrbar, rhotemp) / np.minimum(minrbar, rhotemp)

        normar = np.abs(zetabar)
        normx = _row_norms(x)
        test1 = normr / normb
        prod = normA * normr
        test2 = np.divide(normar, prod, out=np.full(len(cols), np.inf), where=prod != 0)
        test3 = 1 / condA
        t1 = test1 / (1 + normA * normx / normb)
        rtol = LSMR_TOL + LSMR_TOL * normA * normx / normb
        stop = ((itn >= maxiter) | (1 + test3 <= 1) | (1 + test2 <= 1) | (1 + t1 <= 1)
                | (test3 <= 1 / LSMR_CONLIM) | (test2 <= LSMR_TOL) | (test1 <= rtol))
        if stop.any():
            x_out[cols[stop]] = x[stop]
            itn_out[cols[stop]] = itn
            keep = ~stop
            u, v, h, hbar, x = (_keep_rows(a, keep) for a in (u, v, h, hbar, x))
            (cols, alpha, alphabar, rho, rhobar, cbar, sbar, zeta, zetabar, betadd,
             betad, rhodold, tautildeold, thetatilde, d, normA2, maxrbar, minrbar,
             normb) = (a[keep] for a in (
                 cols, alpha, alphabar, rho, rhobar, cbar, sbar, zeta, zetabar, betadd,
                 betad, rhodold, tautildeold, thetatilde, d, normA2, maxrbar, minrbar,
                 normb))
    return x_out, itn_out


def _keep_rows(a: np.ndarray, keep: np.ndarray) -> np.ndarray:
    # the kept rows moved to the front of a's own buffer, so compacting
    # allocates one array's kept rows at a time and the result stays contiguous
    kept = a[keep]
    a[:len(kept)] = kept
    return a[:len(kept)]


def _row_norms(x: np.ndarray) -> np.ndarray:
    # np.linalg.norm of a contiguous vector is sqrt of its BLAS dot with
    # itself; vecdot on contiguous rows makes the same call for each row
    return np.sqrt(np.vecdot(x, x))


def _sym_ortho(a, b):
    # scipy's stable Givens rotation (c, s, r), elementwise: with the larger
    # of |a| and |b| leading, the other is lead * tau and r = (a or b) / lead
    with np.errstate(divide="ignore", invalid="ignore"):
        wide = np.abs(b) > np.abs(a)
        top = np.where(wide, b, a)
        tau = np.where(wide, a, b) / top
        lead = np.sign(top) / np.sqrt(1 + tau * tau)
        other = lead * tau
        c, s, r = np.where(wide, other, lead), np.where(wide, lead, other), top / lead
    zero = (a == 0) | (b == 0)
    if zero.any():  # scipy's exact zeros, and no 0 / 0 when both are 0
        c = np.where(b == 0, np.sign(a), np.where(a == 0, 0.0, c))
        s = np.where(b == 0, 0.0, np.where(a == 0, np.sign(b), s))
        r = np.where(b == 0, np.abs(a), np.where(a == 0, np.abs(b), r))
    return c, s, r


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
