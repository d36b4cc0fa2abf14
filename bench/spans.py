"""Span tracing from outside the program, for the benchmark's traced run.

Public functions are wrapped where callers look them up: a function imported
by name is patched in the importing module, model stages are patched on
``HiceModel``. Each call records a span (name, start, end, parent) in memory;
``write`` dumps them when the run ends. A span's self time is its duration
minus the durations of its direct children. Tape nodes are counted from the
graph handed to ``backward``, never by wrapping the tensor ops themselves.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class NullTracer:
    """Tracing off: spans cost one context manager, wrappers nothing."""

    @contextmanager
    def span(self, name):
        yield

    def wrap(self, fn, name, units=None):
        return fn


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index, units]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.nodes: dict[str, Counter] = defaultdict(Counter)

    def _open(self, name) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1, 0.0])
        self.stack.append(idx)
        return idx

    def _close(self, idx) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name, units=None):
        """``units(args, result)`` optionally sizes the work of one call."""
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if units is not None:
                self.spans[idx][4] = units(args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def count_graph(self, key, loss) -> None:
        node = getattr(loss, "node", None)
        if node is None:
            return
        ops = self.nodes[key]
        for n in node.graph.nodes[: node.index + 1]:
            ops[n.op] += 1
        ops["<graphs>"] += 1

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, units in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "units": units}) + "\n")


def _backward_counting(tracer, fn, key):
    def counted(loss, *args, **kwargs):
        tracer.count_graph(key, loss)
        return fn(loss, *args, **kwargs)
    return counted


def install(tracer: Tracer) -> None:
    """Patch the program's public functions at their lookup sites."""
    from oov_forge import (adaptation, baselines, corpus, episode, evaluation,
                           training)
    from oov_forge.model import HiceModel

    def rows(args, result):
        table = result if result is not None else args[0]
        return float(len(table))

    def file_bytes(args, result):
        return float(os.path.getsize(args[0]))

    patches = [
        (HiceModel, "embed_tokens", "model.embed_tokens", None),
        (HiceModel, "encode_context", "model.encode_context", None),
        (HiceModel, "aggregate", "model.aggregate", None),
        (HiceModel, "encode_morphology", "model.encode_morphology", None),
        (HiceModel, "predict", "model.predict", None),
        (episode, "sample_episode", "episode.sample_episode", None),
        (training, "sample_episode", "episode.sample_episode", None),
        (episode, "episode_from_masked", "episode.episode_from_masked", None),
        (training, "episode_loss", "training.episode_loss", None),
        (adaptation, "episode_loss", "training.episode_loss", None),
        (training.Adam, "step", "training.adam_step", None),
        (training, "evaluate_cosine", "training.evaluate_cosine", None),
        (training, "save_checkpoint", "training.save_checkpoint", None),
        (training, "write_container", "container.write_container", file_bytes),
        (training, "read_container", "container.read_container", None),
        (adaptation, "maml_update", "adaptation.maml_update", None),
        (corpus, "prepare_corpus", "corpus.prepare_corpus", None),
        (corpus, "load_embeddings", "corpus.load_embeddings", rows),
        (corpus, "save_embeddings", "corpus.save_embeddings", rows),
        (evaluation, "tokenize", "corpus.tokenize", None),
        (baselines, "additive", "baselines.additive", None),
        (baselines, "ngram_fit", "baselines.ngram_fit", None),
        (baselines, "ngram_sum", "baselines.ngram_sum", None),
        (evaluation, "evaluate_method", "evaluation.evaluate_method", None),
        (evaluation, "spearman", "evaluation.spearman", None),
        (evaluation, "nearest_neighbors", "evaluation.nearest_neighbors", None),
    ]
    for owner, attr, name, units in patches:
        fn = getattr(owner, attr, None)
        if fn is not None:  # a layer a later version removed is skipped
            setattr(owner, attr, tracer.wrap(fn, name, units))
    for owner, key in ((training, "train"), (adaptation, "adapt")):
        fn = getattr(owner, "backward", None)
        if fn is not None:
            setattr(owner, "backward", _backward_counting(
                tracer, tracer.wrap(fn, "tensor.backward"), key))


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

class _Index:
    """Durations, self times and root stage of every span."""

    def __init__(self, tracer: Tracer):
        spans = tracer.spans
        self.spans = spans
        self.dur = [end - start for _, start, end, _, _ in spans]
        child = [0.0] * len(spans)
        self.root = [0] * len(spans)
        for i, (_, _, _, parent, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += self.dur[i]
                self.root[i] = self.root[parent]
            else:
                self.root[i] = i
        self.self_time = [d - c for d, c in zip(self.dur, child)]

    def select(self, name, roots=None, parent=None):
        for i, s in enumerate(self.spans):
            if s[0] != name:
                continue
            if roots is not None and self.spans[self.root[i]][0] not in roots:
                continue
            if parent is not None and (s[3] < 0 or self.spans[s[3]][0] != parent):
                continue
            yield i

    def total(self, name, roots=None, own=False, parent=None) -> float:
        times = self.self_time if own else self.dur
        return sum(times[i] for i in self.select(name, roots, parent))

    def count(self, name, roots=None, parent=None) -> int:
        return sum(1 for _ in self.select(name, roots, parent))

    def mean_ms(self, name, roots=None) -> float:
        n = self.count(name, roots)
        return 1e3 * self.total(name, roots) / n if n else 0.0

    def units(self, name) -> float:
        return sum(self.spans[i][4] for i in self.select(name))


def _per(x, n) -> float:
    return x / n if n else 0.0


# every per-layer metric: (unit, which direction is better)
LAYER_METRICS = {
    "tensor.nodes_per_step": ("count", "lower"),
    "tensor.matmul_nodes_per_step": ("count", "lower"),
    "tensor.backward_ms_per_step": ("ms", "lower"),
    "tensor.nodes_per_adapt_update": ("count", "lower"),
    "model.embed_ms_per_step": ("ms", "lower"),
    "model.ctx_ms_per_step": ("ms", "lower"),
    "model.agg_ms_per_step": ("ms", "lower"),
    "model.morph_ms_per_step": ("ms", "lower"),
    "model.fuse_ms_per_step": ("ms", "lower"),
    "model.predict_ms_per_item": ("ms", "lower"),
    "episode.sample_ms_per_step": ("ms", "lower"),
    "episode.build_ms_per_item": ("ms", "lower"),
    "training.loss_ms_per_step": ("ms", "lower"),
    "training.adam_ms_per_step": ("ms", "lower"),
    "training.validate_ms": ("ms", "lower"),
    "training.checkpoint_ms": ("ms", "lower"),
    "training.val_cosine": ("cosine", "higher"),
    "adaptation.update_self_ms": ("ms", "lower"),
    "adaptation.grad_evals_per_update": ("count", "lower"),
    "corpus.prepare_ms": ("ms", "lower"),
    "corpus.load_rows_per_s": ("rows/s", "higher"),
    "corpus.save_rows_per_s": ("rows/s", "higher"),
    "corpus.tokenize_ms_per_item": ("ms", "lower"),
    "baselines.additive_ms_per_call": ("ms", "lower"),
    "baselines.alacarte_fit_ms": ("ms", "lower"),
    "baselines.ngram_fit_ms": ("ms", "lower"),
    "baselines.ngram_sum_ms_per_call": ("ms", "lower"),
    "evaluation.score_self_ms_per_item": ("ms", "lower"),
    "evaluation.spearman_ms_per_item": ("ms", "lower"),
    "evaluation.nn_ms_per_query": ("ms", "lower"),
    "evaluation.items_attempted": ("count", "higher"),
    "evaluation.items_failed": ("count", "lower"),
    "container.write_ms": ("ms", "lower"),
    "container.read_ms": ("ms", "lower"),
    "container.bytes_written": ("bytes", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

TRAIN = {"bench.train"}
EVAL = {"bench.hice", "bench.additive", "bench.alacarte"}
SETUP = {"bench.setup"}


def layer_metrics(tracer: Tracer, run) -> dict[str, float]:
    """Every per-layer metric; a layer the workload does not use reads 0."""
    ix = _Index(tracer)
    steps = ix.count("tensor.backward", TRAIN)
    updates = ix.count("adaptation.maml_update")
    hice_items = ix.count("method.infer", {"bench.hice"})
    eval_items = ix.count("method.infer", EVAL)
    setups = ix.count("bench.setup")
    train_nodes, adapt_nodes = tracer.nodes["train"], tracer.nodes["adapt"]

    def step_ms(name, own=True):
        return 1e3 * _per(ix.total(name, TRAIN, own=own), steps)

    def rate(name):
        return _per(ix.units(name), ix.total(name))

    out = {
        "tensor.nodes_per_step": _per(sum(v for k, v in train_nodes.items()
                                          if k != "<graphs>"), steps),
        "tensor.matmul_nodes_per_step": _per(train_nodes["matmul"], steps),
        "tensor.backward_ms_per_step": step_ms("tensor.backward"),
        "tensor.nodes_per_adapt_update": _per(sum(v for k, v in adapt_nodes.items()
                                                  if k != "<graphs>"), updates),
        "model.embed_ms_per_step": step_ms("model.embed_tokens"),
        "model.ctx_ms_per_step": step_ms("model.encode_context"),
        "model.agg_ms_per_step": step_ms("model.aggregate"),
        "model.morph_ms_per_step": step_ms("model.encode_morphology"),
        "model.fuse_ms_per_step": step_ms("model.predict"),
        "model.predict_ms_per_item": 1e3 * _per(
            ix.total("model.predict", {"bench.hice"}), hice_items),
        "episode.sample_ms_per_step": step_ms("episode.sample_episode"),
        "episode.build_ms_per_item": 1e3 * _per(
            ix.total("episode.episode_from_masked", {"bench.hice"}), hice_items),
        "training.loss_ms_per_step": step_ms("training.episode_loss"),
        "training.adam_ms_per_step": step_ms("training.adam_step", own=False),
        "training.validate_ms": ix.mean_ms("training.evaluate_cosine", TRAIN),
        "training.checkpoint_ms": ix.mean_ms("training.save_checkpoint", TRAIN),
        "training.val_cosine": run.details.get("val_cosine", (0.0, ""))[0],
        "adaptation.update_self_ms": 1e3 * _per(
            ix.total("adaptation.maml_update", own=True), updates),
        "adaptation.grad_evals_per_update": _per(
            ix.count("tensor.backward", parent="adaptation.maml_update"), updates),
        "corpus.prepare_ms": 1e3 * _per(ix.total("corpus.prepare_corpus", SETUP), setups),
        "corpus.load_rows_per_s": rate("corpus.load_embeddings"),
        "corpus.save_rows_per_s": rate("corpus.save_embeddings"),
        "corpus.tokenize_ms_per_item": 1e3 * _per(
            ix.total("corpus.tokenize", EVAL), eval_items),
        "baselines.additive_ms_per_call": ix.mean_ms(
            "baselines.additive", {"bench.additive", "bench.alacarte"}),
        "baselines.alacarte_fit_ms": ix.mean_ms("baselines.alacarte_fit"),
        "baselines.ngram_fit_ms": ix.mean_ms("baselines.ngram_fit"),
        "baselines.ngram_sum_ms_per_call": ix.mean_ms("baselines.ngram_sum"),
        "evaluation.score_self_ms_per_item": 1e3 * _per(
            ix.total("evaluation.evaluate_method", EVAL, own=True), eval_items),
        "evaluation.spearman_ms_per_item": 1e3 * _per(
            ix.total("evaluation.spearman", EVAL), eval_items),
        "evaluation.nn_ms_per_query": ix.mean_ms("evaluation.nearest_neighbors"),
        "evaluation.items_attempted": run.details.get("items_attempted", (0, ""))[0],
        "evaluation.items_failed": run.details.get("items_failed", (0, ""))[0],
        "container.write_ms": ix.mean_ms("container.write_container"),
        "container.read_ms": ix.mean_ms("container.read_container"),
        "container.bytes_written": _per(ix.units("container.write_container"),
                                        ix.count("container.write_container")),
    }
    return {k: float(v) for k, v in out.items()}
