"""Intrinsic evaluation: score inferred pseudo-word vectors against human
probe-similarity ratings via Spearman correlation, plus nearest-neighbor
probes over an embedding table.

Benchmark items travel as a normalized TSV, one item per line:

    pseudo_word <TAB> shot <TAB> ctx1|||ctx2|||... <TAB> p1,p2,... <TAB> r1,r2,...

Contexts are raw sentences each containing the pseudo-word; the evaluator
tokenizes and masks them before handing them to a method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .container import atomic_open
from .corpus import EmbeddingTable, read_text, tokenize
from .episode import MASK_TOKEN
from .errors import EvaluationError, FormatError, OovForgeError

InferFn = Callable[[str, list[list[str]]], np.ndarray]
CONTEXT_SEP = "|||"
CHIMERA_PLACEHOLDER = "___"  # marks the pseudo-word in a raw Chimera passage


@dataclass
class EvalItem:
    pseudo_word: str
    contexts: list[str]              # raw sentences containing the pseudo-word
    probes: list[str]
    human: list[float]
    shot: int

    def validate(self) -> None:
        if len(self.probes) != len(self.human) or len(self.probes) < 2:
            raise FormatError(
                f"item {self.pseudo_word!r}: needs >= 2 aligned probes/ratings"
            )
        if not all(math.isfinite(h) for h in self.human):
            raise FormatError(f"item {self.pseudo_word!r}: non-finite rating")
        if self.shot < 1:
            raise FormatError(f"item {self.pseudo_word!r}: shot {self.shot} is below 1")
        for ctx in self.contexts:
            if self.pseudo_word not in tokenize(ctx):
                raise FormatError(
                    f"item {self.pseudo_word!r}: context lacks the pseudo-word: {ctx!r}"
                )


def average_ranks(values) -> np.ndarray:
    """1-based ranks; ties get the mean of the rank span they occupy."""
    arr = np.asarray(values, dtype=np.float64)
    order = arr.argsort(kind="stable")
    s = arr[order]
    # True where a run of equal sorted values starts, and at the end
    edge = np.ones(len(arr) + 1, dtype=bool)
    np.not_equal(s[1:], s[:-1], out=edge[1:-1])  # NaN ties nothing
    bounds = edge.nonzero()[0]
    lo, hi = bounds[:-1], bounds[1:]
    ranks = np.empty(len(arr))
    # the run [lo, hi) shares the rank (lo + hi + 1) / 2
    ranks[order] = ((lo + hi + 1) / 2.0).repeat(hi - lo)
    return ranks


def spearman(a, b) -> float:
    """Pearson correlation of average-ranked values."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or len(a) < 2:
        raise EvaluationError(
            f"spearman needs two equal-length lists of >= 2 values, got "
            f"{a.shape} and {b.shape}"
        )
    n = len(a)
    ra = average_ranks(a)
    rb = average_ranks(b)
    da = ra - ra.sum() / n  # ndarray.mean's sum and division
    db = rb - rb.sum() / n
    na = math.sqrt((da * da).sum())
    nb = math.sqrt((db * db).sum())
    if na == 0.0 or nb == 0.0:
        raise EvaluationError("spearman undefined: constant input")
    # identical / exactly reversed orderings are exact by rank construction
    if (ra == rb).all():
        return 1.0
    if (ra + rb == n + 1.0).all():
        return -1.0
    return min(max(float((da * db).sum()) / (na * nb), -1.0), 1.0)


def cosine_np(u: np.ndarray, v: np.ndarray) -> float | np.ndarray:
    """Cosine over the last axis, row by row: ``u`` and ``v`` are each a
    vector or [n, d] rows, with the same n when both are rows. Two vectors
    give a float, anything else a float64 array of one cosine per pair of
    rows.

    Each pair gets the arithmetic of a lone pair of C-contiguous vectors:
    norms and dot product in the inputs' own precision, one BLAS dot per row
    as ``np.linalg.norm`` and ``u @ v`` make, then the float64 quotient,
    clamped to [-1, 1]. A pair whose dot or norm product is not finite (a
    float32 square sum that overflows) is recomputed in float64. Inputs of
    another layout are scored as their C-contiguous copies: a strided dot
    can differ from the contiguous one in the last bit. A pair without a
    cosine raises EvaluationError, and the first such pair in row order
    decides which; so do shapes that pair no rows."""
    u, v = np.asarray(u), np.asarray(v)
    lead = u.shape[:-1] + v.shape[:-1]  # the row counts: () for two vectors
    if not (1 <= u.ndim <= 2 and 1 <= v.ndim <= 2) or len(set(lead)) > 1 or (
            0 in lead and u.shape[-1] != v.shape[-1]):
        raise EvaluationError(f"cosine of vectors of shapes {u.shape} and {v.shape}")
    if u.shape[-1] != v.shape[-1]:
        raise _pair_error(u if u.ndim < 2 else u[0], v if v.ndim < 2 else v[0])
    lone = not lead
    cos = _row_cosines(u[None] if lone else u, v)
    undefined = np.isnan(cos)
    if undefined.any():
        i = int(undefined.argmax())
        raise _pair_error(u if u.ndim < 2 else u[i], v if v.ndim < 2 else v[i])
    return float(cos[0]) if lone else cos


def _row_cosines(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``cosine_np`` of rows of one length, at least one of ``u`` and ``v``
    [n, d], with NaN for each pair that has no cosine."""
    u, v = np.ascontiguousarray(u), np.ascontiguousarray(v)  # see cosine_np
    with np.errstate(all="ignore"):  # a pair that raises a flag is redone or NaN
        nu = np.sqrt(np.vecdot(u, u)).astype(np.float64)
        nv = np.sqrt(np.vecdot(v, v)).astype(np.float64)
        dot = np.vecdot(u, v).astype(np.float64)
        prod = nu * nv
        cos = np.minimum(np.maximum(dot / prod, -1.0), 1.0)  # np.clip, without its wrapper
        redo = ~(np.isfinite(dot) & np.isfinite(prod))
        if redo.any():
            at = np.nonzero(redo)
            shape = redo.shape + u.shape[-1:]
            ru = np.broadcast_to(u, shape)[at].astype(np.float64)
            rv = np.broadcast_to(v, shape)[at].astype(np.float64)
            c = np.vecdot(ru, rv) / np.sqrt(np.vecdot(ru, ru)) / np.sqrt(np.vecdot(rv, rv))
            cos[at] = np.where(np.isfinite(c), np.clip(c, -1.0, 1.0), np.nan)
    # zero in the inputs' own precision, even where the float64 redo finds a norm
    cos[(nu == 0.0) | (nv == 0.0)] = np.nan
    return cos


def _pair_error(u: np.ndarray, v: np.ndarray) -> EvaluationError:
    """Why the pair of vectors ``u``, ``v`` has no cosine: a zero norm comes
    first, then unequal lengths."""
    with np.errstate(all="ignore"):
        if np.linalg.norm(u) == 0.0 or np.linalg.norm(v) == 0.0:
            return EvaluationError("cosine undefined for a zero vector")
    if u.shape != v.shape:
        return EvaluationError(f"cosine of vectors of shapes {u.shape} and {v.shape}")
    return EvaluationError("cosine is not finite even in float64")


@dataclass
class ItemResult:
    pseudo_word: str
    shot: int
    rho: float | None
    failed: bool = False
    dropped_probes: int = 0
    reason: str = ""


@dataclass
class MethodReport:
    method: str
    items: list[ItemResult] = field(default_factory=list)
    mean_by_shot: dict[int, float] = field(default_factory=dict)
    pooled_by_shot: dict[int, float] = field(default_factory=dict)
    failed: int = 0
    dropped_probes: int = 0


def mask_contexts(word: str, contexts: list[str]) -> list[list[str]]:
    """Tokenize raw sentences and replace the pseudo-word by the mask marker."""
    out = []
    for ctx in contexts:
        toks = tokenize(ctx)
        out.append([MASK_TOKEN if t == word else t for t in toks])
    return out


def evaluate_method(items: list[EvalItem], infer_fn: InferFn,
                    table: EmbeddingTable, method: str = "method") -> MethodReport:
    """Score one inference method over the benchmark.

    Per item: infer a vector from the masked contexts, score its cosines to
    the probes' table rows with one ``cosine_np`` call, and rank-correlate
    them against the human ratings. Probes missing from the table are
    dropped (and counted); items whose method raises an OovForgeError keep a
    record but are excluded from the means. Any other exception is a bug and
    propagates.
    """
    report = MethodReport(method=method)
    pooled: dict[int, tuple[list[float], list[float]]] = {}
    for item in items:
        rows, human = [], []
        for p, h in zip(item.probes, item.human):
            r = table.index.get(p)
            if r is not None:
                rows.append(r)
                human.append(h)
        dropped = len(item.probes) - len(rows)
        report.dropped_probes += dropped
        try:
            if len(rows) < 2:
                raise EvaluationError("fewer than 2 probes remain in the table")
            vec = infer_fn(item.pseudo_word, mask_contexts(item.pseudo_word,
                                                           item.contexts))
            machine = cosine_np(vec, table.matrix[rows]).tolist()
            rho = spearman(machine, human)
        except OovForgeError as e:  # a method failure must not kill the run
            report.items.append(ItemResult(item.pseudo_word, item.shot, None,
                                           failed=True, dropped_probes=dropped,
                                           reason=str(e)))
            report.failed += 1
            continue
        report.items.append(ItemResult(item.pseudo_word, item.shot, rho,
                                       dropped_probes=dropped))
        bucket = pooled.setdefault(item.shot, ([], []))
        bucket[0].extend(machine)
        bucket[1].extend(human)
    for shot in sorted({r.shot for r in report.items}):
        scored = [r.rho for r in report.items if r.shot == shot and not r.failed]
        if scored:
            report.mean_by_shot[shot] = float(np.mean(scored))
        if shot in pooled and len(pooled[shot][0]) >= 2:
            try:
                report.pooled_by_shot[shot] = spearman(*pooled[shot])
            except EvaluationError:
                pass
    return report


# Rows whose float32 norm lies outside this range are scored exactly, never
# screened: inside it the screening products neither overflow nor lose
# accuracy to underflow.
_SCREEN_NORMS = (2.0 ** -50, 2.0 ** 50)


def nearest_neighbors(vector: np.ndarray, table: EmbeddingTable, top_k: int,
                      exclude: tuple[str, ...] = ()) -> list[tuple[str, float]]:
    """top_k in-table words by cosine, descending; ties break
    lexicographically; excluded words (e.g. the query itself) and zero-norm
    rows are skipped.

    Every returned cosine is ``cosine_np(vector, table[word])``, and the list
    is the one a scan of every row gives. One float32 product of the matrix
    with the unit query screens the rows first: for a row whose norm is in
    ``_SCREEN_NORMS``, the screened score and ``cosine_np`` each lie within
    the float32 rounding error of a length-dim dot product and a norm of the
    true cosine, so they differ by less than ``bound`` = 8 (dim + 2) 2^-24.
    Every row of the top k then scores at least the k-th best screened score
    minus 2 ``bound``, and only such rows are scored exactly, as one block.
    """
    if top_k < 1:
        raise EvaluationError(f"top_k must be >= 1, got {top_k}")
    if np.shape(vector) != (table.dim,):
        raise EvaluationError(f"query vector of shape {np.shape(vector)} for a "
                              f"table of dimension {table.dim}")
    q = np.ascontiguousarray(vector)
    if not np.isfinite(q).all():
        raise EvaluationError("query vector has a non-finite value")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(q))
    if not math.isfinite(norm):
        raise EvaluationError("query vector norm overflows")
    if norm == 0.0:
        return []  # no cosine is defined
    norms = table.row_norms
    screened = (norms >= _SCREEN_NORMS[0]) & (norms <= _SCREEN_NORMS[1])
    skip = [r for r in map(table.index.get, exclude) if r is not None]
    screened[skip] = False
    exact = ~screened
    exact[skip] = False
    with np.errstate(all="ignore"):  # unscreened rows may divide by zero
        scores = table.matrix @ (q / norm).astype(np.float32) / norms
    scores[~screened] = -np.inf
    n = min(top_k, int(screened.sum()))
    if n:
        bound = 8 * (table.dim + 2) * 2.0 ** -24
        kth = np.partition(scores, len(scores) - n)[len(scores) - n]
        exact |= scores >= kth - 2 * bound
    rows = np.flatnonzero(exact)
    cos = _row_cosines(q, table.matrix[rows])
    defined = ~np.isnan(cos)  # zero-norm table rows can never be neighbors
    words = table.words()
    scored = [(words[r], c) for r, c in zip(rows[defined].tolist(),
                                            cos[defined].tolist())]
    scored.sort(key=lambda wc: (-wc[1], wc[0]))
    return scored[:top_k]


# ---------------------------------------------------------------------------
# benchmark file handling
# ---------------------------------------------------------------------------

def save_benchmark_tsv(items: list[EvalItem], path) -> None:
    """One item per line, as ``load_benchmark_tsv`` reads them. An item that
    would not load back equal (it fails ``validate``, or a field holds a
    line break or its separator) is a FormatError and nothing is written."""
    lines = []
    for item in items:
        line = "\t".join([item.pseudo_word, str(item.shot), CONTEXT_SEP.join(item.contexts),
                          ",".join(item.probes),
                          ",".join(repr(float(h)) for h in item.human)])
        try:
            if "\n" in line or _parse_item(line) != item:
                raise FormatError("a field holds a line break or its separator")
        except FormatError as e:
            raise FormatError(f"cannot write item {item.pseudo_word!r}: {e}") from None
        lines.append(line + "\n")
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))


def _parse_item(line: str) -> EvalItem:
    parts = line.split("\t")
    if len(parts) != 5:
        raise FormatError(f"expected 5 fields, got {len(parts)}")
    word, shot_s, ctx_s, probes_s, human_s = parts
    try:
        item = EvalItem(word, ctx_s.split(CONTEXT_SEP), probes_s.split(","),
                        [float(h) for h in human_s.split(",")], int(shot_s))
    except ValueError as e:
        raise FormatError(str(e)) from e
    item.validate()
    return item


def load_benchmark_tsv(path) -> list[EvalItem]:
    items = []
    # lines end at "\n" only, as save_benchmark_tsv writes them
    for lineno, line in enumerate(read_text(path, "benchmark").split("\n"), start=1):
        if not line.strip():
            continue
        try:
            items.append(_parse_item(line))
        except FormatError as e:
            raise FormatError(f"{path}: line {lineno}: {e}") from e
    return items


def import_chimera(path, shot: int) -> list[EvalItem]:
    """Normalize a raw benchmark file into EvalItems.

    Expected raw layout, one item per line, four tab-separated fields:
    pseudo-word, passage with sentences joined by "@@" and the pseudo-word
    marked by CHIMERA_PLACEHOLDER, comma-separated probes, comma-separated
    ratings. Text is lowercased and the separators removed.
    """
    items = []
    for lineno, line in enumerate(read_text(path, "benchmark").splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise FormatError(f"{path}: line {lineno}: expected 4 fields, got {len(parts)}")
        word, passage, probes_s, human_s = parts
        word = word.strip().lower()
        contexts = []
        for sent in passage.split("@@"):
            sent = sent.strip().lower().replace(CHIMERA_PLACEHOLDER, word)
            if sent and word in tokenize(sent):
                contexts.append(sent)
        if not contexts:
            raise FormatError(f"{path}: line {lineno}: no usable contexts")
        try:
            human = [float(h) for h in human_s.split(",")]
        except ValueError as e:
            raise FormatError(f"{path}: line {lineno}: {e}") from e
        probes = [p.strip().lower() for p in probes_s.split(",")]
        item = EvalItem(word, contexts, probes, human, shot)
        item.validate()
        items.append(item)
    return items
