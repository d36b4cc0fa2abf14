"""Reference outputs pinned by tests/test_golden.py.

``outputs(workdir)`` computes every pinned value from fixed seeds: model
parameters after training and after one meta-update of each order, the
predictions of fresh models, the bytes of the files the package writes, and
the stdout of ``infer`` for each method. The CLI runs with ``workdir`` as its
working directory and relative paths, because ``eval`` writes its input paths
into its CSV headers.

Regenerate the stored reference (only for a change whose stated tolerance
allows different results, stating the largest difference) with

    PYTHONPATH=src python tests/golden/make.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

# one BLAS thread, as tests/conftest.py sets: the d=300 forward pass's
# summation order depends on the thread count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))  # synthetic_task

import synthetic_task  # noqa: E402
from oov_forge.adaptation import AdaptConfig, maml_step  # noqa: E402
from oov_forge.cli import main  # noqa: E402
from oov_forge.corpus import EmbeddingTable, save_embeddings  # noqa: E402
from oov_forge.episode import episode_from_masked, sample_episode  # noqa: E402
from oov_forge.evaluation import EvalItem, cosine_np, save_benchmark_tsv  # noqa: E402
from oov_forge.model import HiceConfig, HiceModel  # noqa: E402
from oov_forge.training import TrainConfig, save_checkpoint, train  # noqa: E402

ARRAYS = HERE / "reference.npz"
TEXTS = HERE / "reference.json"

METHODS = ("hice", "additive", "additive-ns", "alacarte", "ngram")


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _params(prefix: str, model: HiceModel) -> dict[str, np.ndarray]:
    return {f"{prefix}.{name}": p.data.copy() for name, p in model.parameters()}


def _cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"oov-forge {' '.join(argv)} exited {code}")
    return out.getvalue()


def _benchmark(table: EmbeddingTable) -> list[EvalItem]:
    """Four items whose pseudo-words are table rows, plus one whose
    contexts hold no table word, so a failure reason is pinned too."""
    words = sorted(table)
    probes = words[::8][:6]
    items = []
    for i, pw in enumerate(words[10:14]):
        fill = words[20 + 4 * i: 24 + 4 * i]
        items.append(EvalItem(
            pseudo_word=pw,
            contexts=[f"{fill[0]} {pw} {fill[1]} here",
                      f"{fill[2]} and {fill[3]} near the {pw}"],
            probes=list(probes),
            human=[cosine_np(table[pw].astype(np.float64), table[p].astype(np.float64))
                   for p in probes],
            shot=2 if i % 2 == 0 else 4,
        ))
    items.append(EvalItem("qqqq", ["the qqqq is here", "of qqqq"], list(probes),
                          [float(i) for i in range(len(probes))], 2))
    return items


def _model_outputs(workdir: Path, arrays: dict, texts: dict):
    vocab, store, table, _, _ = synthetic_task.planted_task(
        n_topics=6, words_per_topic=8, n_sentences=900, dim=16, seed=11, min_count=4)
    words = sorted(w for w in table if vocab.id_of(w) is not None)
    # d=16: 40 training steps
    model, report = train(
        TrainConfig(steps=40, batch_episodes=8, seed=3, validation_every=20,
                    val_episodes=16), vocab, store, table)
    arrays.update(_params("train", model))
    arrays["train.step_cosines"] = np.array(report.step_cosines)
    save_checkpoint(model, workdir / "trained.hice")

    # a fresh d=16 model on sampled episodes and on a masked inference episode
    fresh = HiceModel.from_table(HiceConfig(embed_dim=16, seed=1), table, vocab)
    rng = np.random.default_rng(5)
    episodes = [sample_episode(w, 1 + i % 4, rng, store, table)
                for i, w in enumerate(words[:6])]
    arrays["fresh16.predict"] = fresh.predict(episodes, vocab).data
    masked = [["t00w01", "<mask>", "zzz", "t00w02"], ["<mask>", "t01w03", "<mask>"]]
    arrays["fresh16.predict_vector"] = fresh.predict_vector(
        *episode_from_masked("blorp", masked))
    save_checkpoint(fresh, workdir / "fresh16.hice")
    texts["sha256.fresh16.hice"] = _sha256(workdir / "fresh16.hice")

    # first- and second-order meta-updates from a fresh d=16 model
    batch_source = [sample_episode(w, 3, rng, store, table) for w in words[:8]]
    batch_target = [sample_episode(w, 2, rng, store, table) for w in words[8:16]]
    for order, first in (("first", True), ("second", False)):
        meta = HiceModel.from_table(HiceConfig(embed_dim=16, seed=4), table, vocab)
        maml_step(meta, batch_source, batch_target,
                  AdaptConfig(alpha=1e-2, beta=1e-2, first_order=first),
                  vocab_source=vocab, vocab_target=vocab)
        arrays.update(_params(f"maml_{order}", meta))

    # a fresh d=300 model over a small table
    big_rng = np.random.default_rng(9)
    big_words = [f"w{i:02d}" for i in range(40)]
    rows = big_rng.normal(size=(40, 300)).astype(np.float32)
    big = HiceModel(HiceConfig(embed_dim=300, seed=2), rows, big_words)
    arrays["fresh300.predict_vector"] = np.stack([
        big.predict_vector(*episode_from_masked(
            word, [[big_words[(i + j) % 40] if j != i % 5 else "<mask>"
                    for j in range(5 + i)] for i in range(k)]))
        for k, word in ((1, "alpha"), (3, "beta-ish"), (5, "gamma's"))])
    save_checkpoint(big, workdir / "fresh300.hice")
    texts["sha256.fresh300.hice"] = _sha256(workdir / "fresh300.hice")
    return store, table


def _cli_outputs(store, table, texts: dict) -> None:
    """Run in the working directory that ``outputs`` sets."""
    Path("corpus.txt").write_text(synthetic_task.corpus_text(store))
    save_embeddings(table, "embeddings.txt")
    save_benchmark_tsv(_benchmark(table), "bench.tsv")
    _cli(["prepare", "corpus.txt", "embeddings.txt", "prep", "--min-count", "4"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a rank-deficient à la carte fit warns
        _cli(["eval", "bench.tsv", "--embeddings", "embeddings.txt",
              "--methods", ",".join(METHODS + ("oracle",)),
              "--checkpoint", "trained.hice", "--prepared-dir", "prep",
              "--fit-samples", "30", "--save-fitted", "fitted", "--out-dir", "rep",
              "--seed", "6"])
    for name in ("eval_items.csv", "eval_summary.csv"):
        texts[f"eval.{name}"] = Path("rep", name).read_text()
    texts["sha256.alacarte.alc"] = _sha256("fitted/alacarte.alc")
    texts["sha256.ngrams.ngr"] = _sha256("fitted/ngrams.ngr")
    Path("ctx.txt").write_text("t00w01 t00w02 t02w99 t00w03\n"
                               "the t02w99 of t01w05\n")
    checkpoint = {"hice": "trained.hice", "alacarte": "fitted/alacarte.alc",
                  "ngram": "fitted/ngrams.ngr"}
    for method in METHODS:
        argv = ["infer", "--word", "t02w99", "--contexts-file", "ctx.txt",
                "--method", method, "--embeddings", "embeddings.txt", "--neighbors", "3"]
        if method in checkpoint:
            argv += ["--checkpoint", checkpoint[method]]
        texts[f"infer.{method}"] = _cli(argv)


def outputs(workdir) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Every pinned value -> (arrays, texts); writes its files under
    ``workdir``."""
    workdir = Path(workdir)
    arrays: dict[str, np.ndarray] = {}
    texts: dict[str, str] = {}
    store, table = _model_outputs(workdir, arrays, texts)
    old = os.getcwd()
    os.chdir(workdir)
    try:
        _cli_outputs(store, table, texts)
    finally:
        os.chdir(old)
    return arrays, texts


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        arrays, texts = outputs(tmp)
    np.savez_compressed(ARRAYS, **arrays)
    TEXTS.write_text(json.dumps(texts, indent=1, sort_keys=True) + "\n")
    print(f"{ARRAYS.name}: {len(arrays)} arrays; {TEXTS.name}: {len(texts)} texts")
