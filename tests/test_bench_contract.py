"""The package interface that the benchmark (``bench/``) calls, exercised the
way ``bench/workload.py``, ``bench/gen.py`` and ``bench/spans.py`` call it.
The benchmark skips a layer it cannot find and reports a failed check as
``correct: false``, so a change that drops one of these names passes every
other test."""

import math

import numpy as np
import pytest

import synthetic_task
from oov_forge import (adaptation, baselines, corpus, episode, evaluation,
                       training)
from oov_forge import model as hice

# every module-level name bench/*.py reads
BENCH_NAMES = {
    adaptation: ["AdaptConfig", "adapt", "episode_loss", "maml_update", "backward"],
    baselines: ["additive", "alacarte_fit", "alacarte_infer", "ngram_fit", "ngram_sum"],
    corpus: ["EmbeddingTable", "contexts_of", "load_embeddings", "prepare_corpus",
             "save_embeddings", "split_words"],
    episode: ["MASK_TOKEN", "decode_context", "eligible_targets", "episode_from_masked",
              "sample_episode"],
    evaluation: ["evaluate_method", "load_benchmark_tsv", "mask_contexts",
                 "nearest_neighbors", "spearman", "tokenize"],
    training: ["Adam", "TrainConfig", "build_validation_episodes", "episode_loss",
               "evaluate_cosine", "load_checkpoint", "read_container",
               "sample_episode", "save_checkpoint", "train", "write_container",
               "backward"],
    hice: ["HiceConfig", "HiceModel"],
}

# HiceModel attributes bench/spans.py wraps and bench/workload.py reads
MODEL_ATTRIBUTES = ["embed_tokens", "encode_context", "aggregate", "encode_morphology",
                    "predict", "predict_vector", "parameters", "state_arrays",
                    "frozen_words", "from_table"]


@pytest.mark.parametrize("module", list(BENCH_NAMES), ids=lambda m: m.__name__)
def test_module_names_the_benchmark_reads(module):
    assert [n for n in BENCH_NAMES[module] if not hasattr(module, n)] == []


def test_model_attributes_the_benchmark_reads():
    assert [n for n in MODEL_ATTRIBUTES if not hasattr(hice.HiceModel, n)] == []
    assert hasattr(training.Adam, "step")


@pytest.fixture
def table():
    rng = np.random.default_rng(3)
    words = [f"w{i}" for i in range(12)]
    return corpus.EmbeddingTable.from_rows(words, rng.normal(size=(12, 8)).astype(np.float32))


def test_model_constructors_and_inference_as_the_benchmark_calls_them(table, tiny_corpus):
    # an episode carries the vocabulary its ids index, so the vocabulary
    # passed to from_table and predict_vector is accepted and unused; the
    # calls stay as the benchmark makes them until it drops that argument
    vocab, _ = tiny_corpus
    config = hice.HiceConfig(embed_dim=table.dim, seed=5)
    with_vocab = hice.HiceModel.from_table(config, table, vocab)   # train-planted
    bare = hice.HiceModel.from_table(config, table)                # artifact-io
    built = hice.HiceModel(config, table.matrix, table.words())    # gen.py
    ep, ep_vocab = episode.episode_from_masked(                    # eval-d300
        "w99", [["w1", episode.MASK_TOKEN, "w2"], [episode.MASK_TOKEN, "w3"]],
        max_word_len=bare.config.max_word_len, max_len=bare.config.max_len)
    vectors = [m.predict_vector(ep, ep_vocab) for m in (with_vocab, bare, built)]
    assert vectors[0].shape == (table.dim,)
    assert all(np.array_equal(vectors[0], v) for v in vectors[1:])


def test_checkpoint_round_trip_as_the_benchmark_checks_it(table, tmp_path):
    model = hice.HiceModel.from_table(hice.HiceConfig(embed_dim=table.dim, seed=5), table)
    path = tmp_path / "model.hice"
    training.save_checkpoint(model, path)
    again = training.load_checkpoint(path)
    assert again.config.as_dict() == model.config.as_dict()
    assert again.frozen_words == model.frozen_words == table.words()
    mine, theirs = model.state_arrays(), again.state_arrays()
    assert [n for n, _ in mine] == [n for n, _ in theirs]
    as_stored = lambda a: a.astype(np.float32) if a.dtype.kind == "f" else a  # noqa: E731
    assert all(np.array_equal(as_stored(a), as_stored(b))
               for (_, a), (_, b) in zip(mine, theirs))


def test_corpus_training_and_adaptation_as_the_benchmark_calls_them(tmp_path):
    # the argument shapes of train-planted's set-up and operations and of
    # eval-d300's a la carte fit, on a small planted task written to files
    _, source, _, oracle, _ = synthetic_task.planted_task(
        n_topics=6, words_per_topic=8, n_sentences=400, dim=16, seed=7)
    _, target, _, oracle_n, _ = synthetic_task.planted_task(
        n_topics=6, words_per_topic=8, n_sentences=200, dim=16, seed=8, min_count=1)
    for name, store in (("corpus.txt", source), ("target_corpus.txt", target)):
        (tmp_path / name).write_text(synthetic_task.corpus_text(store), encoding="utf-8")
    corpus.save_embeddings(oracle, tmp_path / "table.txt")
    corpus.save_embeddings(oracle_n, tmp_path / "target_table.txt")

    vocab, store = corpus.prepare_corpus(tmp_path / "corpus.txt")
    table = corpus.load_embeddings(tmp_path / "table.txt")
    vocab_n, store_n = corpus.prepare_corpus(tmp_path / "target_corpus.txt", min_count=1)
    table_n = corpus.load_embeddings(tmp_path / "target_table.txt")
    model = hice.HiceModel.from_table(hice.HiceConfig(embed_dim=table.dim, seed=7), table, vocab)
    _, val_words = corpus.split_words(episode.eligible_targets(vocab, store, table))
    assert val_words
    probes = training.build_validation_episodes(
        val_words, store, table, training.TrainConfig(seed=14, val_episodes=6))
    cfg = training.TrainConfig(
        steps=2, batch_episodes=4, k_min=2, k_max=6, seed=7001, validation_every=2,
        patience=3, checkpoint_path=tmp_path / "best.hice", val_episodes=4)
    out, report = training.train(cfg, vocab, store, table, model=model)
    assert out is model and len(report.step_cosines) == 2
    assert all(map(math.isfinite, report.step_cosines)) and math.isfinite(report.best_val)
    before = model.parameters().data.copy()
    cfg = adaptation.AdaptConfig(alpha=1e-3, beta=1e-2, first_order=False, adapt_steps=1,
                                 batch_episodes=8, seed=7001)
    assert adaptation.adapt(model, cfg, (vocab, store, table),
                            (vocab_n, store_n, table_n)) is model
    assert not np.array_equal(model.parameters().data, before)
    assert -1.0 <= training.evaluate_cosine(model, probes) <= 1.0

    vocab, store = corpus.prepare_corpus(tmp_path / "corpus.txt", min_count=1)
    rng = np.random.default_rng(7)
    for w in episode.eligible_targets(vocab, store, table)[:5]:
        ep = episode.sample_episode(w, min(6, len(corpus.contexts_of(w, store))),
                                    rng, store, table)
        ctxs = [episode.decode_context(ids, vocab) for ids in ep.contexts]
        assert all(episode.MASK_TOKEN in ctx and set(ctx) - {episode.MASK_TOKEN} <= set(vocab.ids)
                   for ctx in ctxs)
        assert not baselines.additive(ctxs, table).empty


def test_scoring_reaches_the_spearman_and_tokenize_layers_the_benchmark_wraps(monkeypatch):
    # bench/spans.py times evaluation.spearman and evaluation.tokenize by
    # replacing the module attributes; a call that stops going through them
    # drops the layer from the trace without an error
    calls = {"spearman": 0, "tokenize": 0}

    def counting(name):
        fn = getattr(evaluation, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in calls:
        monkeypatch.setattr(evaluation, name, counting(name))
    rng = np.random.default_rng(5)
    words = [f"w{i}" for i in range(8)]
    table = corpus.EmbeddingTable.from_rows(words, rng.normal(size=(8, 4)).astype(np.float32))
    items = [evaluation.EvalItem(f"nonce{i}", [f"a nonce{i} here"] * (1 + i % 3),
                                 words[i % 3:i % 3 + 4] if i != 5 else ["w0", "absent"],
                                 [float(j) for j in range(4)] if i != 5 else [1.0, 2.0],
                                 shot=2 + 2 * (i % 3))
             for i in range(9)]

    def method(w, ctxs):
        if w == "nonce4":
            raise evaluation.EvaluationError("no vector")
        return rng.normal(size=4)

    report = evaluation.evaluate_method(items, method, table)
    scored = [r for r in report.items if not r.failed]
    assert len(scored) == 7 and report.failed == 2
    assert calls["spearman"] == len(scored) + len({r.shot for r in scored})
    # the item with one probe left in the table fails before its contexts are read
    assert calls["tokenize"] == sum(len(item.contexts) for item in items
                                    if item.pseudo_word != "nonce5")
