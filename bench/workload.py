"""One benchmark workload, run in its own process against generated inputs.

    python3 bench/workload.py --workload eval-d300 --inputs DIR --seed 1 \
        --seconds 20 [--trace SPANS_FILE]

Set-up (the program's ingestion and fitting) runs SETUP_REPEATS times and is
timed each time. Then three stages run one after the other, each repeating
one operation until its share of ``--seconds`` has passed. Every operation's
output is checked; a failed check or an exception counts as a failed
operation. The last line printed is a JSON object with the stage rates,
set-up time, peak RSS, details and (with --trace) per-layer numbers.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"  # see child_env in run.py

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from oov_forge import (adaptation, baselines, corpus, episode,  # noqa: E402
                       evaluation, training)
from oov_forge import model as hice  # noqa: E402

import spans as tracing  # noqa: E402  (bench/spans.py, next to this file)

SETUP_REPEATS = 3
# On a shared 2-vCPU KVM guest (Intel Xeon) the speed of this process drifts
# by up to 2x within seconds as other tenants load the host: the interpreter
# reference loop takes from about 1.3 ms (full speed) to about 2.8 ms. How
# much the program's work slows depends on its kind, so every timed call is
# bracketed by timings of a reference of its kind (below), and its wall time
# is divided by the mean slowdown of the two brackets.
REFERENCE_SAMPLES = 7

# train-planted
BATCH_EPISODES = 32
CHUNK_STEPS = 2                  # training steps per train() call
VAL_EPISODES = 48
ADAPT_UPDATES = 1                # second-order updates per adapt() call
INFER_EPISODES = 64
VAL_COSINE_FLOOR = 0.2           # untrained: about 0.0; after 10 steps: about 0.3

# eval-d300
FIT_SAMPLES = 320                # above d=300, so the fit is not rank-deficient
ITEMS_PER_OP = 12
ADDITIVE_TOL = 1e-12

# artifact-io
TABLE_SHARD_ROWS = 1_000          # one save+load per shard keeps operations short
NN_TOP = 10
NN_TOL = 1e-6


class Failure(Exception):
    """An output check did not hold."""


def check(cond: bool, message: str) -> None:
    if not cond:
        raise Failure(message)


class Run:
    """Counts attempted and failed operations and keeps the first errors."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.stages: dict[str, dict] = {}
        self.details: dict[str, tuple[float, str]] = {}
        self.setup_times: list[float] = []
        self.setup_wall: list[float] = []

    def attempt(self, name, fn):
        """Run one checked operation; -> its result, or None if it failed."""
        self.attempted += 1
        try:
            with self.tracer.span("bench." + name):
                return fn()
        except Exception as e:  # every failure is counted and reported
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{name}: {type(e).__name__}: {e}\n"
                                   + traceback.format_exc(limit=3))
            return None

    def stage(self, name, op, seconds, min_ops, unit, reference):
        """Repeat ``op`` (which returns (units done, wall seconds taken)) for
        ``seconds`` and at least ``min_ops`` times. The stage rate is the
        units done over the summed operation times, each scaled to the
        host's full speed by ``reference``, timed between operations. A sum
        rather than a median, so that garbage collections, which fall on a
        few operations, are paid for in full."""
        units_done, scaled_s, wall_s, ops, tries = 0, 0.0, 0.0, 0, 0
        gc.collect()
        end = time.perf_counter() + seconds
        after = reference.time()
        while (tries < min_ops or time.perf_counter() < end) and self.failed <= 10:
            tries += 1
            before = after
            res = self.attempt(name, op)
            after = reference.time()
            if res is not None:
                units, dt = res
                units_done += units
                wall_s += dt
                scaled_s += dt * reference.scale(before, after)
                ops += 1
        self.stages[name] = {"rate": units_done / scaled_s if ops else 0.0,
                             "wall_rate": units_done / wall_s if ops else 0.0,
                             "ops": ops, "unit": unit}

    def setup(self, fn):
        """Run the program's set-up SETUP_REPEATS times; keep the last state.
        ``fn(step)`` makes each set-up call through ``step(call, *args)``,
        which scales the call's time like a stage operation."""
        scaled, wall, state = [], [], None

        def step(call, *args, **kwargs):
            before = INTERPRETER.time()
            out, dt = timed(call, *args, **kwargs)
            scaled[-1] += dt * INTERPRETER.scale(before, INTERPRETER.time())
            wall[-1] += dt
            return out

        for _ in range(SETUP_REPEATS):
            state = None
            gc.collect()
            scaled.append(0.0)
            wall.append(0.0)
            with self.tracer.span("bench.setup"):
                state = fn(step)
        self.setup_times = scaled
        self.setup_wall = wall
        return state


class Reference:
    """Fixed work, unrelated to the program, whose time tracks the host's
    current speed for one kind of operation. Each part is (loop, its time at
    full speed, samples per timing); ``time`` gives the mean slowdown of the
    parts, 1.0 at full speed."""

    def __init__(self, *parts):
        self.parts = parts

    def time(self) -> float:
        slowdowns = []
        for loop, full_speed_s, samples in self.parts:
            times = []
            for _ in range(samples):
                t0 = time.perf_counter()
                loop()
                times.append(time.perf_counter() - t0)
            slowdowns.append(statistics.median(times) / full_speed_s)
        return statistics.fmean(slowdowns)

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor that turns a wall time bracketed by two timings into a
        full-speed time."""
        return 2.0 / (before + after)


def interpreter_loop() -> None:
    a = np.arange(16.0)
    s = 0.0
    for i in range(600):
        s += float(a @ a) + math.sqrt(i)
        float(repr(s))


_BUFFERS = {}


def _buffers() -> dict:
    """The reference loops' arrays, made on first use."""
    if not _BUFFERS:
        rng = np.random.default_rng(0)
        _BUFFERS["a"] = np.ones(2_000_000)
        _BUFFERS["b"] = np.empty(2_000_000)
        _BUFFERS["x"] = rng.normal(size=(64, 300))
        _BUFFERS["w"] = rng.normal(size=(300, 300))
    return _BUFFERS


def memory_loop() -> None:
    """Two 16 MB copies: slows with memory bandwidth, not the interpreter."""
    buf = _buffers()
    np.copyto(buf["b"], buf["a"])
    np.copyto(buf["a"], buf["b"])


def kernel_loop() -> None:
    """Four [64, 300] x [300, 300] matrix products: the BLAS work of a
    d=300 forward."""
    buf = _buffers()
    for _ in range(4):
        buf["x"] @ buf["w"]


# pure-interpreter work: per-dimension fsum, table text IO, the Python
# neighbour scan, every set-up call
INTERPRETER = Reference((interpreter_loop, 0.0013, REFERENCE_SAMPLES))
# work that also walks memory: d=16 tape steps and forwards (a quarter of
# a training step is full garbage collections), checkpoint IO
ARRAYS = Reference((interpreter_loop, 0.0013, REFERENCE_SAMPLES),
                   (memory_loop, 0.0065, 3))
# d=300 forwards, where BLAS kernels take a large share
KERNELS = Reference((interpreter_loop, 0.0013, REFERENCE_SAMPLES),
                    (kernel_loop, 0.0010, REFERENCE_SAMPLES))


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def finite(arrays) -> bool:
    return all(np.isfinite(a).all() for a in arrays)


# ---------------------------------------------------------------------------
# train-planted
# ---------------------------------------------------------------------------

def train_planted(run: Run, inputs: str, seed: int, seconds: float) -> None:
    path = lambda name: os.path.join(inputs, name)  # noqa: E731

    def setup(step):
        vocab, store = step(corpus.prepare_corpus, path("corpus.txt"))
        table = step(corpus.load_embeddings, path("table.txt"))
        # the adapt CLI keeps every target word (min_count=1)
        vocab_n, store_n = step(corpus.prepare_corpus, path("target_corpus.txt"),
                                min_count=1)
        table_n = step(corpus.load_embeddings, path("target_table.txt"))
        model = step(hice.HiceModel.from_table,
                     hice.HiceConfig(embed_dim=table.dim, seed=seed), table, vocab)
        return vocab, store, table, vocab_n, store_n, table_n, model

    vocab, store, table, vocab_n, store_n, table_n, model = run.setup(setup)
    source, target = (vocab, store, table), (vocab_n, store_n, table_n)
    ckpt = path("best.hice")
    _, val_words = corpus.split_words(episode.eligible_targets(vocab, store, table))
    probes = training.build_validation_episodes(
        val_words, store, table,
        training.TrainConfig(seed=seed + 7, val_episodes=INFER_EPISODES))
    calls = {"train": 0, "adapt": 0}
    best = []

    def train_op():
        calls["train"] += 1
        cfg = training.TrainConfig(
            steps=CHUNK_STEPS, batch_episodes=BATCH_EPISODES, k_min=2, k_max=6,
            seed=seed * 1000 + calls["train"], validation_every=CHUNK_STEPS,
            patience=CHUNK_STEPS + 1, checkpoint_path=ckpt,
            val_episodes=VAL_EPISODES)
        (out, report), dt = timed(training.train, cfg, vocab, store, table, model=model)
        check(out is model, "train returned another model")
        check(len(report.step_cosines) == CHUNK_STEPS,
              f"ran {len(report.step_cosines)} of {CHUNK_STEPS} steps")
        check(all(math.isfinite(c) for c in report.step_cosines), "non-finite cosine")
        check(math.isfinite(report.best_val), "non-finite validation cosine")
        check(finite(p.data for _, p in model.parameters()), "non-finite parameters")
        best.append(report.best_val)
        return len(report.step_cosines) * cfg.batch_episodes, dt

    def adapt_op():
        calls["adapt"] += 1
        cfg = adaptation.AdaptConfig(alpha=1e-3, beta=1e-2, first_order=False,
                                     adapt_steps=ADAPT_UPDATES, batch_episodes=8,
                                     seed=seed * 1000 + calls["adapt"])
        before = [p.data.copy() for _, p in model.parameters()]
        out, dt = timed(adaptation.adapt, model, cfg, source, target)
        after = [p.data for _, p in out.parameters()]
        check(out is model, "adapt returned another model")
        check(finite(after), "non-finite parameters after adapt")
        check(any(not np.array_equal(a, b) for a, b in zip(after, before)),
              "adapt left every parameter unchanged")
        return cfg.adapt_steps, dt

    infer_ref = []

    def infer_op():
        cos, dt = timed(training.evaluate_cosine, model, probes)
        check(math.isfinite(cos) and -1.0 <= cos <= 1.0, f"cosine {cos} out of range")
        infer_ref.append(cos)
        check(cos == infer_ref[0], "inference is not deterministic")
        return len(probes), dt

    run.stage("train", train_op, 0.5 * seconds, 5, "episodes/s", ARRAYS)
    run.stage("adapt", adapt_op, 0.3 * seconds, 3, "updates/s", ARRAYS)
    run.stage("infer", infer_op, 0.2 * seconds, 3, "episodes/s", ARRAYS)

    run.attempted += 1
    if not (best and max(best) > VAL_COSINE_FLOOR):
        run.failed += 1
        run.errors.append(f"validation cosine {max(best, default=float('nan'))} "
                          f"not above {VAL_COSINE_FLOOR}")
    run.details["val_cosine"] = (max(best, default=float("nan")), "cosine")


# ---------------------------------------------------------------------------
# eval-d300
# ---------------------------------------------------------------------------

def fit_alacarte(vocab, store, table, words, seed):
    """The à la carte fit of the eval CLI: additive vectors of sampled
    contexts regressed onto the table vectors of the same words."""
    rng = np.random.default_rng(seed)
    pairs = []
    for w in words:
        ep = episode.sample_episode(w, min(6, len(corpus.contexts_of(w, store))),
                                    rng, store, table)
        ctxs = [episode.decode_context(ids, vocab) for ids in ep.contexts]
        base = baselines.additive(ctxs, table)
        if not base.empty:
            pairs.append((base.vector, table[w].astype(np.float64)))
    return baselines.alacarte_fit(pairs)


def additive_reference(contexts, table) -> np.ndarray:
    means = []
    for ctx in contexts:
        rows = [table[t] for t in ctx if t != episode.MASK_TOKEN and t in table]
        if rows:
            means.append(np.stack(rows).astype(np.float64).mean(axis=0))
    return np.stack(means).mean(axis=0)


def eval_d300(run: Run, inputs: str, seed: int, seconds: float) -> None:
    path = lambda name: os.path.join(inputs, name)  # noqa: E731

    def setup(step):
        vocab, store = step(corpus.prepare_corpus, path("corpus.txt"))
        table = step(corpus.load_embeddings, path("table.txt"))
        model = step(training.load_checkpoint, path("hice.hice"))
        items = step(evaluation.load_benchmark_tsv, path("items.tsv"))
        words = step(episode.eligible_targets, vocab, store, table)[:FIT_SAMPLES]
        with run.tracer.span("baselines.alacarte_fit"):
            alc = step(fit_alacarte, vocab, store, table, words, seed)
        ngrams = step(baselines.ngram_fit, words, table)
        return table, model, items, alc, ngrams

    table, model, items, alc, ngrams = run.setup(setup)
    # every operation scores the same mix of shots: 2, 4, 6, 2, 4, 6, ...
    by_shot = [[it for it in items if it.shot == k] for k in sorted({i.shot for i in items})]
    items = [it for group in zip(*by_shot) for it in group]
    check(model.config.embed_dim == table.dim == 300, "expected a d=300 model")

    def hice_fn(w, ctxs):
        ep, vocab = episode.episode_from_masked(
            w, ctxs, max_word_len=model.config.max_word_len,
            max_len=model.config.max_len)
        return model.predict_vector(ep, vocab)

    methods = {
        "hice": hice_fn,
        "additive": lambda w, ctxs: baselines.additive(ctxs, table).vector,
        "alacarte": lambda w, ctxs: baselines.alacarte_infer(ctxs, alc, table),
        "ngram": lambda w, ctxs: baselines.ngram_sum(w, ngrams).vector,
        "oracle": lambda w, ctxs: table[w].astype(np.float64),
    }
    counts = {"attempted": 0, "failed": 0}
    cursor = {m: 0 for m in methods}

    def score(method, chunk):
        fn = run.tracer.wrap(methods[method], "method.infer")
        rep, dt = timed(evaluation.evaluate_method, chunk, fn, table, method=method)
        counts["attempted"] += len(rep.items)
        counts["failed"] += rep.failed
        check(rep.failed == 0, f"{method}: {rep.failed} items failed: "
              + "; ".join(r.reason for r in rep.items if r.failed)[:300])
        check(all(math.isfinite(r.rho) for r in rep.items), f"{method}: bad rho")
        return rep, dt

    def op(method):
        def run_op():
            start = cursor[method]
            chunk = [items[(start + i) % len(items)] for i in range(ITEMS_PER_OP)]
            cursor[method] = start + ITEMS_PER_OP
            _, dt = score(method, chunk)
            return len(chunk), dt
        return run_op

    run.stage("hice", op("hice"), 0.5 * seconds, 3, "items/s", KERNELS)
    run.stage("additive", op("additive"), 0.25 * seconds, 3, "items/s", INTERPRETER)
    run.stage("alacarte", op("alacarte"), 0.25 * seconds, 3, "items/s", INTERPRETER)

    def oracle_check():
        rep, _ = score("oracle", items)
        check(all(r.rho == 1.0 for r in rep.items), "oracle rho below 1.0")

    def ngram_check():
        score("ngram", items)

    def vector_check():
        masked = [evaluation.mask_contexts(it.pseudo_word, it.contexts)
                  for it in items[::10]]
        for ctxs in masked:
            ref = additive_reference(ctxs, table)
            got = baselines.additive(ctxs, table).vector
            check(np.allclose(got, ref, rtol=0, atol=ADDITIVE_TOL * np.abs(ref).max()),
                  "additive differs from the numpy reference")
            got = baselines.alacarte_infer(ctxs, alc, table)
            check(np.allclose(got, alc.matrix @ ref, rtol=1e-9, atol=1e-9),
                  "alacarte differs from matrix @ additive reference")

    for name, fn in (("oracle", oracle_check), ("ngram", ngram_check),
                     ("vectors", vector_check)):
        run.attempt("check." + name, fn)
    run.details["items_attempted"] = (counts["attempted"], "items")
    run.details["items_failed"] = (counts["failed"], "items")


# ---------------------------------------------------------------------------
# artifact-io
# ---------------------------------------------------------------------------

def nn_reference(query, words, matrix, norms, top_k, exclude):
    """Vectorised cosines of every row and the top-k, ties broken
    lexicographically. -> (cosine of every row, [(word, cosine)])."""
    q = np.asarray(query, dtype=np.float64)
    cos = np.clip(matrix @ q / (float(np.linalg.norm(q)) * norms), -1.0, 1.0)
    order = np.lexsort((words, -cos))
    top = [(str(words[i]), float(cos[i])) for i in order[:top_k + len(exclude)]
           if words[i] not in exclude]
    return cos, top[:top_k]


def as_stored(arr: np.ndarray) -> np.ndarray:
    """A checkpoint array as the container stores it: floats as float32."""
    return arr.astype(np.float32) if arr.dtype.kind == "f" else arr


def artifact_io(run: Run, inputs: str, seed: int, seconds: float) -> None:
    path = lambda name: os.path.join(inputs, name)  # noqa: E731

    def setup(step):
        table = step(corpus.load_embeddings, path("table.txt"))
        model = step(hice.HiceModel.from_table,
                     hice.HiceConfig(embed_dim=table.dim, seed=seed), table)
        return table, model

    table, model = run.setup(setup)
    names = table.words()
    words = np.array(names)
    matrix = np.stack([table[w] for w in names]).astype(np.float64)
    norms = np.linalg.norm(matrix, axis=1)
    row_of = {w: i for i, w in enumerate(names)}
    shards = [names[i:i + TABLE_SHARD_ROWS] for i in range(0, len(names), TABLE_SHARD_ROWS)]
    rng = np.random.default_rng(seed)
    saves, loads, nn_times, ckpt_saves, ckpt_loads = [], [], [], [], []

    def table_op():
        shard = shards[len(saves) % len(shards)]
        part = corpus.EmbeddingTable(dim=table.dim, vectors={w: table[w] for w in shard},
                                     source=table.source)
        out = path("resaved.txt")
        _, t_save = timed(corpus.save_embeddings, part, out)
        again, t_load = timed(corpus.load_embeddings, out)
        check(again.words() == shard, "round trip changed the word list")
        check(all(again[w].dtype == np.float32 and again[w].tobytes() == table[w].tobytes()
                  for w in shard), "round trip is not bit-exact")
        saves.append(t_save / len(shard))
        loads.append(t_load / len(shard))
        return len(shard), t_save + t_load

    def nn_op():
        i = int(rng.integers(0, len(words)))
        query = matrix[i] + 0.1 * rng.normal(size=matrix.shape[1])
        exclude = (str(words[i]),)
        got, dt = timed(evaluation.nearest_neighbors, query, table, NN_TOP,
                        exclude=exclude)
        cos, ref = nn_reference(query, words, matrix, norms, NN_TOP, exclude)
        # the program may round norms in float32, so cosines agree to NN_TOL
        # and a swap is accepted only between neighbours that near-tie
        check(all(abs(cos[row_of[w]] - c) <= NN_TOL for w, c in got),
              "neighbour cosines differ from the reference")
        check(all(a == b or abs(cos[row_of[a]] - cos[row_of[b]]) <= NN_TOL
                  for (a, _), (b, _) in zip(got, ref)) and len(got) == len(ref),
              "neighbours differ from the reference")
        nn_times.append(dt)
        return 1, dt

    def ckpt_op():
        out = path("model.hice")
        _, t_save = timed(training.save_checkpoint, model, out)
        again, t_load = timed(training.load_checkpoint, out)
        check(again.config.as_dict() == model.config.as_dict(), "config changed")
        check(again.frozen_words == model.frozen_words, "frozen words changed")
        mine, theirs = model.state_arrays(), again.state_arrays()
        check([n for n, _ in mine] == [n for n, _ in theirs], "entries changed")
        check(all(np.array_equal(as_stored(a), as_stored(b))
                  for (_, a), (_, b) in zip(mine, theirs)),
              "checkpoint round trip is not exact")
        ckpt_saves.append(t_save)
        ckpt_loads.append(t_load)
        return 1, t_save + t_load

    run.stage("table", table_op, 0.35 * seconds, 3, "rows/s", INTERPRETER)
    run.stage("nn", nn_op, 0.3 * seconds, 9, "queries/s", INTERPRETER)
    run.stage("checkpoint", ckpt_op, 0.35 * seconds, 3, "round trips/s", ARRAYS)

    if saves:
        run.details["table_save_rows_per_s"] = (1 / statistics.median(saves), "rows/s")
        run.details["table_load_rows_per_s"] = (1 / statistics.median(loads), "rows/s")
    if nn_times:
        q = np.quantile(np.array(nn_times) * 1e3, [0.5, 0.9])
        run.details["nn_ms_p50"] = (float(q[0]), "ms")
        run.details["nn_ms_p90"] = (float(q[1]), "ms")
        run.details["nn_queries"] = (len(nn_times), "count")
    if ckpt_saves:
        run.details["checkpoint_save_ms"] = (statistics.median(ckpt_saves) * 1e3, "ms")
        run.details["checkpoint_load_ms"] = (statistics.median(ckpt_loads) * 1e3, "ms")


WORKLOADS = {
    "train-planted": train_planted,
    "eval-d300": eval_d300,
    "artifact-io": artifact_io,
}


def environment() -> dict:
    config = getattr(np, "__config__", None)
    blas = getattr(config, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "threads": {v: os.environ.get(v) for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", default=None, help="write spans to this file")
    args = ap.parse_args(argv)

    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    if args.trace:
        tracing.install(tracer)
    run = Run(tracer)
    try:
        WORKLOADS[args.workload](run, args.inputs, args.seed, args.seconds)
    except Exception as e:  # a crash outside any operation fails the run
        run.attempted += 1
        run.failed += 1
        run.errors.append(f"{type(e).__name__}: {e}\n" + traceback.format_exc(limit=5))
    result = {
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "setup_s": statistics.median(run.setup_times or [0.0]),
        "setup_times": run.setup_times,
        "setup_wall_s": statistics.median(run.setup_wall or [0.0]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stages": run.stages,
        "details": run.details,
        "env": environment(),
    }
    if args.trace:
        tracer.write(args.trace)
        result["layers"] = tracing.layer_metrics(tracer, run)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
