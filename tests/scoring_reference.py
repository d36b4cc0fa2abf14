"""The per-pair scoring that ``oov_forge.evaluation`` replaced with row-wise
blocks, kept as the reference the row-wise code must equal bit for bit: the
scalar cosine, the per-probe ``evaluate_method`` loop and the looped
``average_ranks``/``spearman``."""

import math

import numpy as np

from oov_forge.errors import EvaluationError, OovForgeError
from oov_forge.evaluation import ItemResult, MethodReport, mask_contexts


def cosine(u, v) -> float:
    """Cosine in the inputs' own precision; when a float32 square sum or dot
    product overflows, it is recomputed in float64."""
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise EvaluationError("cosine undefined for a zero vector")
    try:
        dot = float(u @ v)
    except ValueError:
        raise EvaluationError(f"cosine of vectors of shapes {np.shape(u)} "
                              f"and {np.shape(v)}") from None
    if math.isfinite(dot) and math.isfinite(nu * nv):
        return float(np.clip(dot / (nu * nv), -1.0, 1.0))
    u, v = np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64)
    cos = float(u @ v) / float(np.linalg.norm(u)) / float(np.linalg.norm(v))
    if not math.isfinite(cos):
        raise EvaluationError("cosine is not finite even in float64")
    return float(np.clip(cos, -1.0, 1.0))


def average_ranks(values) -> np.ndarray:
    """1-based ranks; ties get the mean of the rank span they occupy."""
    arr = np.asarray(values, dtype=np.float64)
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(len(arr), dtype=np.float64)
    i = 0
    while i < len(arr):
        j = i
        while j + 1 < len(arr) and arr[order[j + 1]] == arr[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
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
    ra = average_ranks(a)
    rb = average_ranks(b)
    da = ra - ra.mean()
    db = rb - rb.mean()
    na = float(np.sqrt((da * da).sum()))
    nb = float(np.sqrt((db * db).sum()))
    if na == 0.0 or nb == 0.0:
        raise EvaluationError("spearman undefined: constant input")
    if np.array_equal(ra, rb):
        return 1.0
    if np.array_equal(ra + rb, np.full(len(ra), len(ra) + 1.0)):
        return -1.0
    return float(np.clip((da * db).sum() / (na * nb), -1.0, 1.0))


def evaluate_method(items, infer_fn, table, method="method") -> MethodReport:
    """One cosine per probe, then the per-item and pooled rho."""
    report = MethodReport(method=method)
    pooled = {}
    for item in items:
        probes, human, dropped = [], [], 0
        for p, h in zip(item.probes, item.human):
            if p in table:
                probes.append(p)
                human.append(h)
            else:
                dropped += 1
        report.dropped_probes += dropped
        try:
            if len(probes) < 2:
                raise EvaluationError("fewer than 2 probes remain in the table")
            vec = infer_fn(item.pseudo_word, mask_contexts(item.pseudo_word,
                                                           item.contexts))
            machine = [cosine(vec, table[p]) for p in probes]
            rho = spearman(machine, human)
        except OovForgeError as e:
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
