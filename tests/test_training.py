import gc
import inspect
import os
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import synthetic_task
from fd import mul
import oov_forge.tensor as tc
from oov_forge.container import pack_text, read_container, write_container
from oov_forge.corpus import EmbeddingTable, SentenceStore
from episode_reference import episode_of
from oov_forge.episode import eligible_targets, sample_episode
from oov_forge import training
from oov_forge.errors import FormatError, NumericError, TrainingError
from oov_forge.model import HiceConfig, HiceModel
from oov_forge.tensor import Graph, ParamVector, backward, constant, scale, sum_all
from oov_forge.training import (Adam, TrainConfig, episode_loss,
                                CHECKPOINT_MAGIC, GRAD_CLIP, load_checkpoint,
                                save_checkpoint, train)
from vectors import assert_on_vectors


def small_task(**kw):
    defaults = dict(n_topics=6, words_per_topic=8, n_sentences=700, dim=8,
                    seed=0, min_count=2)
    defaults.update(kw)
    return synthetic_task.planted_task(**defaults)


def small_model_config(dim=8):
    return HiceConfig(embed_dim=dim, n_heads=2, char_emb_dim=4, char_filters=3,
                      seed=0)


class _StubModel:
    """predict() returns a fixed vector per word; for loss-shape tests."""

    def __init__(self, outputs):
        self.outputs = outputs

    def batch(self, episodes):
        return SimpleNamespace(words=[ep.target_word for ep in episodes],
                               oracles=np.stack([ep.oracle for ep in episodes]))

    def predict(self, batch):
        return constant(np.stack([self.outputs[w] for w in batch.words]))


def _episode(word, oracle):
    return episode_of(word, [[EpisodeMask := -1]], np.asarray(oracle, dtype=np.float32))


# ---------------------------------------------------------------------------
# episode_loss
# ---------------------------------------------------------------------------

def test_loss_is_minus_one_for_perfect_prediction():
    ep = _episode("w", [1.0, 2.0, 0.5])
    stub = _StubModel({"w": np.array([1.0, 2.0, 0.5])})
    loss, mean_cos = episode_loss(stub, [ep])
    assert loss.item() == pytest.approx(-1.0, abs=1e-12)
    assert mean_cos == pytest.approx(1.0, abs=1e-12)


def test_loss_is_zero_for_orthogonal_prediction():
    ep = _episode("w", [1.0, 0.0])
    stub = _StubModel({"w": np.array([0.0, 1.0])})
    loss, _ = episode_loss(stub, [ep])
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_loss_batch_mean():
    eps = [_episode("a", [1.0, 0.0]), _episode("b", [1.0, 0.0])]
    stub = _StubModel({"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])})
    loss, mean_cos = episode_loss(stub, eps)
    assert loss.item() == pytest.approx(-0.5, abs=1e-12)
    assert mean_cos == pytest.approx(0.5, abs=1e-12)


def test_loss_rejects_zero_norm_oracle():
    ep = _episode("weird", [0.0, 0.0])
    stub = _StubModel({"weird": np.array([1.0, 0.0])})
    with pytest.raises(TrainingError, match="weird"):
        episode_loss(stub, [ep])


def test_loss_requires_oracle():
    ep = episode_of("w", [[-1]])
    with pytest.raises(TrainingError):
        episode_loss(_StubModel({"w": np.zeros(2)}), [ep])


@pytest.mark.parametrize("fields, name", [
    ({"validation_every": 0}, "validation_every"), ({"validation_every": -2}, "validation_every"),
    ({"k_min": 0}, "k_min"), ({"k_min": 0, "k_max": 0}, "k_min"),
    ({"k_max": 1}, "k_max"), ({"k_min": 5, "k_max": 4}, "k_max"),
    ({"steps": -1}, "steps"), ({"val_episodes": 0}, "val_episodes"),
], ids=["val-every-0", "val-every-negative", "k-min-0", "k-min-and-k-max-0",
        "k-max-below-default-k-min", "k-max-below-k-min", "steps-negative",
        "no-validation-episodes"])
def test_train_config_refuses_settings_that_cannot_train(fields, name):
    with pytest.raises(TrainingError, match=name):
        TrainConfig(**fields)


def test_train_config_keeps_the_edge_settings():
    # zero steps writes an untrained checkpoint; one shot and one step a round
    cfg = TrainConfig(steps=0, k_min=1, k_max=1, validation_every=1)
    assert (cfg.steps, cfg.k_min, cfg.k_max, cfg.validation_every) == (0, 1, 1, 1)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_minimizes_quadratic():
    params = ParamVector(2)
    p = params.add("p", np.array([5.0, -3.0]))
    opt = Adam(params, lr=0.1)
    for _ in range(300):
        with Graph():
            backward(sum_all(mul(p, p)))
        opt.step()
        p.grad = None
    assert np.abs(p.data).max() < 1e-3


def test_adam_gradient_clipping():
    params = ParamVector(4)
    p = params.add("p", np.zeros(4))
    opt = Adam(params, lr=1.0, grad_clip=1.0)
    with Graph():
        backward(sum_all(scale(p, 100.0)))  # gradient 100 in every entry
    opt.step()
    # clipped global norm is 1, so the first Adam step magnitude stays ~lr
    assert np.abs(p.data).max() <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_zero_steps_returns_initial_params():
    vocab, store, table, oracle, _ = small_task()
    cfg = TrainConfig(steps=0, seed=1)
    model, report = train(cfg, vocab, store, oracle,
                          model=HiceModel.from_table(small_model_config(), oracle))
    fresh = HiceModel.from_table(small_model_config(), oracle)
    for (_, a), (_, b) in zip(model.parameters(), fresh.parameters()):
        assert np.array_equal(a.data, b.data)
    assert report.points == []
    assert report.best_step == 0


def test_train_learns_synthetic_task_and_is_deterministic():
    vocab, store, table, oracle, _ = small_task()
    cfg = TrainConfig(steps=80, batch_episodes=8, validation_every=20,
                      k_min=2, k_max=4, seed=3, patience=10)

    def run():
        model, report = train(cfg, vocab, store, oracle,
                              model=HiceModel.from_table(small_model_config(), oracle))
        return model, report

    model1, report1 = run()
    model2, report2 = run()
    assert report1.best_val > 0.8  # the planted task is easy
    assert report1.points == report2.points
    assert report1.best_val == report2.best_val
    steps = [p[0] for p in report1.points]
    assert steps == sorted(steps)  # validation points monotone in step
    for (_, a), (_, b) in zip(model1.parameters(), model2.parameters()):
        assert np.array_equal(a.data, b.data)


def test_training_cosine_windows_non_decreasing():
    vocab, store, table, oracle, _ = small_task()
    cfg = TrainConfig(steps=75, batch_episodes=8, validation_every=25,
                      k_min=2, k_max=4, seed=0, patience=10)
    _, report = train(cfg, vocab, store, oracle,
                      model=HiceModel.from_table(small_model_config(), oracle))
    # 200-episode windows = 25 steps of 8 episodes
    w = [np.mean(report.step_cosines[i * 25:(i + 1) * 25]) for i in range(3)]
    assert w[0] <= w[1] <= w[2]


def test_validation_words_never_targeted_in_training():
    vocab, store, table, oracle, _ = small_task()
    from oov_forge.corpus import split_words
    from oov_forge.episode import eligible_targets, episode_stream
    words = eligible_targets(vocab, store, oracle)
    train_words, val_words = split_words(words)
    assert not set(train_words) & set(val_words)
    stream = episode_stream(store, oracle, (2, 4), seed=0, batch=300, words=train_words)
    targets = {ep.target_word for ep in next(stream)}
    assert not targets & set(val_words)


def test_train_and_its_targets_read_the_store_not_the_vocabulary_beside_it():
    # two corpora of the same size over disjoint words: the vocabulary passed
    # beside a store is not read, so passing the other corpus's changes nothing
    rng = np.random.default_rng(5)
    corpora = [[[f"{p}{i}" for i in rng.integers(0, 12, size=8)] for _ in range(120)]
               for p in "ab"]
    store_a, store_b = (SentenceStore.from_tokens(sentences, 2) for sentences in corpora)
    vocab_a, vocab_b = store_a.vocab, store_b.vocab
    assert len(vocab_a) == len(vocab_b)
    table = EmbeddingTable(dim=8, vectors={w: rng.normal(size=8)
                                           for w in vocab_a.words + vocab_b.words})
    want = eligible_targets(vocab_b, store_b, table)
    assert sorted(want) == sorted(vocab_b.words)
    assert eligible_targets(vocab_a, store_b, table) == want
    cfg = TrainConfig(steps=4, batch_episodes=4, validation_every=2, seed=1)
    params = [train(cfg, vocab, store_b, table,
                    model=HiceModel.from_table(small_model_config(), table))[0]
              .parameters().data.tobytes() for vocab in (vocab_a, vocab_b)]
    assert params[0] == params[1]


# the ops the tape records: every public function of oov_forge.tensor that
# calls _record (criterion 1 gives each a gradient case)
TAPE_OPS = {"add", "scale", "add_bias", "scale_rows", "matmul", "encoding_block",
            "char_cnn", "sum_all", "segment_mean", "concat_cols", "cosine", "gather_rows"}


def test_a_training_step_records_15_nodes_of_the_12_tape_ops():
    assert TAPE_OPS == {name for name, fn in vars(tc).items()
                        if inspect.isfunction(fn) and fn.__module__ == tc.__name__
                        and not name.startswith("_") and "_record" in fn.__code__.co_names}
    vocab, store, table, oracle, _ = small_task()
    rng = np.random.default_rng(0)
    words = eligible_targets(vocab, store, oracle)[:4]
    batch = [sample_episode(w, k, rng, store, oracle) for w, k in zip(words, (2, 3, 4, 6))]
    model = HiceModel.from_table(small_model_config(), oracle)
    with Graph() as g:
        episode_loss(model, batch)
    ops = [node.op for node in g.nodes]
    # 2 nodes of embedding, 2 of positional weights, 1 for the last context
    # block (its query-row gather included), 1 for the aggregator block and 1
    # for its mean pool, 2 of the char-CNN (the character gather and one
    # char_cnn node), 3 of fusion and 3 of loss (cosine, sum_all, scale)
    assert len(ops) == 15, ops
    assert set(ops) <= TAPE_OPS
    assert ops.count("encoding_block") == 2 and ops.count("char_cnn") == 1
    assert ops.count("matmul") == 1 and ops[-3:] == ["cosine", "sum_all", "scale"]


def test_divergence_aborts_with_step_number(monkeypatch):
    vocab, store, table, oracle, _ = small_task()
    from oov_forge.errors import NumericError
    import oov_forge.training as training_mod

    calls = {"n": 0}
    real = training_mod.episode_loss

    def exploding(model, episodes):
        calls["n"] += 1
        if calls["n"] >= 3:
            raise NumericError("cosine: non-finite value produced")
        return real(model, episodes)

    monkeypatch.setattr(training_mod, "episode_loss", exploding)
    cfg = TrainConfig(steps=5, batch_episodes=2, validation_every=5, seed=0)
    with pytest.raises(TrainingError, match="step 3"):
        train(cfg, vocab, store, oracle, model=HiceModel.from_table(small_model_config(), oracle))


def test_train_report_csv_shape():
    vocab, store, table, oracle, _ = small_task()
    cfg = TrainConfig(steps=20, batch_episodes=4, validation_every=10, seed=0)
    _, report = train(cfg, vocab, store, oracle,
                      model=HiceModel.from_table(small_model_config(), oracle))
    csv = report.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "step,train_cos,val_cos"
    assert len(lines) == 1 + len(report.points)
    step, train_cos, val_cos = lines[1].split(",")
    assert int(step) == report.points[0][0]
    assert float(train_cos) == report.points[0][1]


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip_float32_identical(tmp_path):
    vocab, store, table, oracle, _ = small_task()
    model = HiceModel.from_table(small_model_config(), oracle)
    path = tmp_path / "model.hice"
    save_checkpoint(model, path, extra_config={"note": "unit-test"})
    loaded = load_checkpoint(path)
    for (name_a, a), (name_b, b) in zip(model.parameters(), loaded.parameters()):
        assert name_a == name_b
        assert np.array_equal(a.data.astype(np.float32), b.data.astype(np.float32))
    assert np.array_equal(model.frozen, loaded.frozen)
    assert loaded.frozen_words == model.frozen_words
    # a second save is byte-identical (float32 is the fixed point)
    path2 = tmp_path / "model2.hice"
    save_checkpoint(loaded, path2, extra_config={"note": "unit-test"})
    a = path.read_bytes()
    b = path2.read_bytes()
    assert a == b


def test_a_load_draws_no_random_numbers(tmp_path, monkeypatch):
    # the parameters come from the file's arrays, not from a seeded draw
    vocab, store, table, oracle, _ = small_task()
    path = tmp_path / "model.hice"
    save_checkpoint(HiceModel.from_table(small_model_config(), oracle), path)

    def no_draws(*args, **kwargs):
        raise AssertionError("load_checkpoint drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    loaded = load_checkpoint(path)
    monkeypatch.undo()
    _, arrays = read_container(path, CHECKPOINT_MAGIC)
    stored = {name: arr for name, arr in arrays if not name.startswith("frozen_")}
    assert [name for name, _ in loaded.parameters()] == list(stored)
    for name, p in loaded.parameters():
        assert p.data.dtype == np.float64
        assert np.array_equal(p.data, stored[name]), name


def test_a_load_leaves_no_file_open(tmp_path, monkeypatch):
    vocab, store, table, oracle, _ = small_task()
    path = tmp_path / "model.hice"
    save_checkpoint(HiceModel.from_table(small_model_config(), oracle), path)
    unraisable = []  # a ResourceWarning raised while a file object is collected
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        load_checkpoint(path)
        gc.collect()
    assert unraisable == []


def _load_from_a_pipe(blob: bytes):
    read_fd, write_fd = os.pipe()
    os.write(write_fd, blob)
    os.close(write_fd)
    try:
        return load_checkpoint(f"/dev/fd/{read_fd}")
    finally:
        os.close(read_fd)


def test_a_checkpoint_loads_from_a_pipe_as_from_its_file(tmp_path):
    path = tmp_path / "model.hice"
    blob = _small_checkpoint(path)
    assert len(blob) < 1 << 16  # the pipe holds it all before the load reads it
    piped, loaded = _load_from_a_pipe(blob), load_checkpoint(path)
    assert [name for name, _ in piped.parameters()] == [name for name, _ in loaded.parameters()]
    for (name, a), (_, b) in zip(piped.parameters(), loaded.parameters()):
        assert np.array_equal(a.data, b.data), name
    assert np.array_equal(piped.frozen, loaded.frozen)
    assert piped.frozen_words == loaded.frozen_words
    with pytest.raises(FormatError, match="truncated file"):
        _load_from_a_pipe(blob[:-3])
    with pytest.raises(FormatError, match="3 trailing bytes"):
        _load_from_a_pipe(blob + b"abc")


def test_checkpoint_layout(tmp_path):
    # one query and one key/value projection per block, in this order
    config = HiceConfig(embed_dim=6, n_heads=4, char_emb_dim=4, char_filters=3,
                        seed=0)
    frozen = np.random.default_rng(0).normal(size=(5, 6)).astype(np.float32)
    model = HiceModel(config, frozen, [f"w{i}" for i in range(5)])
    path = tmp_path / "model.hice"
    save_checkpoint(model, path)
    _, arrays = read_container(path, "HICE1")

    def block(prefix):
        return [
            (f"{prefix}.wq", (8, 8)), (f"{prefix}.wkv", (8, 16)),
            (f"{prefix}.wo", (8, 8)), (f"{prefix}.ffn.w1", (8, 32)),
            (f"{prefix}.ffn.b1", (32,)), (f"{prefix}.ffn.w2", (32, 8)),
            (f"{prefix}.ffn.b2", (8,)), (f"{prefix}.ln1.g", (8,)),
            (f"{prefix}.ln1.b", (8,)), (f"{prefix}.ln2.g", (8,)),
            (f"{prefix}.ln2.b", (8,))]

    expected = ([("special_embed", (2, 6)), ("input_proj.w", (6, 8)),
                 ("input_proj.b", (8,)), ("a_pos", (25,))]
                + block("ctx0") + block("agg0")
                + [("char_embed", (67, 4)),
                   ("conv2.filters", (2, 4, 3)), ("conv2.bias", (3,)),
                   ("conv3.filters", (3, 4, 3)), ("conv3.bias", (3,)),
                   ("conv4.filters", (4, 4, 3)), ("conv4.bias", (3,)),
                   ("fuse.w", (17, 6)), ("fuse.b", (6,)),
                   ("frozen_rows", (5, 6)), ("frozen_words", (14,))])
    assert [(name, arr.shape) for name, arr in arrays] == expected


def test_checkpoint_with_an_unexpected_array_is_a_format_error(tmp_path):
    # a config rewritten to drop the aggregator must not load without it
    vocab, store, table, oracle, _ = small_task()
    path = tmp_path / "model.hice"
    save_checkpoint(HiceModel.from_table(small_model_config(), oracle), path)
    config, arrays = read_container(path, "HICE1")
    write_container(path, "HICE1", {**config, "n_agg_blocks": "0"}, arrays)
    with pytest.raises(FormatError, match="unexpected array 'agg0.wq'"):
        load_checkpoint(path)


def test_checkpoint_config_survives_textually(tmp_path):
    vocab, store, table, oracle, _ = small_task()
    model = HiceModel.from_table(small_model_config(), oracle)
    path = tmp_path / "model.hice"
    save_checkpoint(model, path, extra_config={"run.note": "abc def", "adapted": "true"})
    config, _ = read_container(path, CHECKPOINT_MAGIC)
    assert config["run.note"] == "abc def"
    assert config["adapted"] == "true"
    assert config["embed_dim"] == "8"


def test_checkpoint_truncation_is_a_typed_error(tmp_path):
    vocab, store, table, oracle, _ = small_task()
    model = HiceModel.from_table(small_model_config(), oracle)
    path = tmp_path / "model.hice"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    for cut in (3, 12, len(blob) // 2, len(blob) - 5):
        bad = tmp_path / f"cut{cut}.hice"
        bad.write_bytes(blob[:cut])
        with pytest.raises(FormatError):
            load_checkpoint(bad)


@pytest.mark.parametrize("edit, message", [
    ("drop_words", "missing frozen embedding block"),
    ("extra_word", "word list does not match frozen rows"),
    ("duplicate_word", "duplicate word"),
])
def test_checkpoint_frozen_block_must_be_whole(tmp_path, edit, message):
    vocab, store, table, oracle, _ = small_task()
    model = HiceModel.from_table(small_model_config(), oracle)
    path = tmp_path / "model.hice"
    save_checkpoint(model, path)
    config, arrays = read_container(path, "HICE1")
    if edit == "drop_words":
        arrays = [(n, a) for n, a in arrays if n != "frozen_words"]
    else:
        words = model.frozen_words
        words = words + ["extra"] if edit == "extra_word" else words[:-1] + words[:1]
        arrays = [(n, pack_text("\n".join(words))) if n == "frozen_words" else (n, a)
                  for n, a in arrays]
    write_container(path, "HICE1", config, arrays)
    with pytest.raises(FormatError, match=message):
        load_checkpoint(path)


@pytest.mark.parametrize("pool", ["mean", "Mean", "mean ", "max"])
def test_checkpoint_with_an_unknown_context_pool_is_a_format_error(tmp_path, pool):
    vocab, store, table, oracle, _ = small_task()
    path = tmp_path / "model.hice"
    save_checkpoint(HiceModel.from_table(small_model_config(), oracle), path)
    config, arrays = read_container(path, "HICE1")
    write_container(path, "HICE1", {**config, "context_pool": pool}, arrays)
    with pytest.raises(FormatError, match="context_pool"):
        load_checkpoint(path)


def test_per_head_checkpoint_is_a_format_error(tmp_path):
    # a file that keeps one array per head and projection does not load
    vocab, store, table, oracle, _ = small_task()
    model = HiceModel.from_table(small_model_config(), oracle)
    path = tmp_path / "model.hice"
    save_checkpoint(model, path)
    config, arrays = read_container(path, "HICE1")
    per_head = []
    for name, arr in arrays:
        prefix, _, kind = name.rpartition(".")
        if kind == "wq":
            per_head += [(f"{prefix}.head{h}.wq", arr[:, 4 * h:4 * h + 4]) for h in range(2)]
        elif kind == "wkv":
            per_head += [(f"{prefix}.head{h}.{w}", arr[:, 8 * j + 4 * h:8 * j + 4 * h + 4])
                         for h in range(2) for j, w in enumerate(("wk", "wv"))]
        else:
            per_head.append((name, arr))
    write_container(path, "HICE1", config, per_head)
    with pytest.raises(FormatError, match="missing parameter 'ctx0.wq'"):
        load_checkpoint(path)


@pytest.mark.parametrize("edit", [
    {"n_heads": None}, {"embed_dim": None}, {"n_heads": "two"},
    {"filter_widths": "2,x"}, {"max_len": "2.5"}, {"seed": ""},
    {"n_heads": "0"}, {"n_heads": "-2"}, {"char_filters": "-1"}, {"char_emb_dim": "-1"},
    {"filter_widths": "-2,3,4"}, {"seed": "-1"},
    {"d_model": "12"}, {"d_ff": "16"}, {"max_len": "11"}, {"max_word_len": "5"},
    {"use_morph": "True"}, {"use_morph": "yes"}, {"n_heads": " 4"},
    {"filter_widths": "2, 3,4"},
], ids=["missing-n_heads", "missing-embed_dim", "n_heads-two", "filter_widths-2,x",
        "max_len-2.5", "empty-seed", "n_heads-0", "n_heads--2", "char_filters--1",
        "char_emb_dim--1", "filter_widths--2,3,4", "seed--1", "d_model-12", "d_ff-16",
        "max_len-11", "max_word_len-5", "use_morph-True", "use_morph-yes", "n_heads- 4",
        "filter_widths-2, 3,4"])
def test_checkpoint_with_a_bad_config_value_is_a_format_error(tmp_path, edit):
    vocab, store, table, oracle, _ = small_task()
    path = tmp_path / "model.hice"
    save_checkpoint(HiceModel.from_table(small_model_config(), oracle), path)
    config, arrays = read_container(path, "HICE1")
    config = {k: v for k, v in {**config, **edit}.items() if v is not None}
    write_container(path, "HICE1", config, arrays)
    with pytest.raises(FormatError, match="config"):
        load_checkpoint(path)


def _small_checkpoint(path):
    config = HiceConfig(embed_dim=4, n_heads=2, char_emb_dim=2, char_filters=2,
                        filter_widths=(2,))
    frozen = np.random.default_rng(0).normal(size=(3, 4)).astype(np.float32)
    save_checkpoint(HiceModel(config, frozen, ["ab", "cd", "ef"]), path)
    return path.read_bytes()


@pytest.mark.parametrize("where", [b"embed_dim=4", b"special_embed", b"ab\ncd"],
                         ids=["config", "entry-name", "frozen-words"])
def test_checkpoint_non_utf8_text_is_a_format_error(tmp_path, where):
    # the last byte of ``where`` becomes 0xff
    blob = _small_checkpoint(tmp_path / "model.hice")
    at = blob.index(where) + len(where) - 1
    (tmp_path / "model.hice").write_bytes(blob[:at] + b"\xff" + blob[at + 1:])
    with pytest.raises(FormatError, match="UTF-8"):
        load_checkpoint(tmp_path / "model.hice")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(at=st.integers(0, 5000), byte=st.none() | st.integers(0, 255))
def test_a_corrupted_checkpoint_loads_or_is_a_format_error(tmp_path_factory, at, byte):
    # one byte replaced (or, for byte None, the file cut there)
    path = tmp_path_factory.getbasetemp() / "corrupted.hice"
    blob = _small_checkpoint(path)
    at %= len(blob)
    path.write_bytes(blob[:at] if byte is None else blob[:at] + bytes([byte]) + blob[at + 1:])
    try:
        load_checkpoint(path)
    except FormatError:
        pass


def test_checkpoint_magic_mismatch(tmp_path):
    path = tmp_path / "bad.hice"
    path.write_bytes(b"\x05NOPE1" + b"\x00" * 32)
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(path)


def test_checkpointing_during_training_keeps_best(tmp_path):
    vocab, store, table, oracle, _ = small_task()
    path = tmp_path / "best.hice"
    cfg = TrainConfig(steps=40, batch_episodes=8, validation_every=10,
                      seed=2, checkpoint_path=str(path), patience=10)
    model, report = train(cfg, vocab, store, oracle,
                          model=HiceModel.from_table(small_model_config(), oracle))
    assert path.exists()
    best = load_checkpoint(path)
    cfgd, _ = read_container(path, CHECKPOINT_MAGIC)
    assert float(cfgd["best_val"]) == pytest.approx(report.best_val)
    for (_, a), (_, b) in zip(model.parameters(), best.parameters()):
        assert np.array_equal(a.data.astype(np.float32), b.data.astype(np.float32))


# ---------------------------------------------------------------------------
# the parameter vector
# ---------------------------------------------------------------------------

def _probes(vocab, store, oracle, n=4):
    rng = np.random.default_rng(0)
    return [sample_episode(w, 2, rng, store, oracle)
            for w in eligible_targets(vocab, store, oracle)[:n]]


def test_train_and_a_load_keep_every_parameter_on_the_vectors(tmp_path):
    vocab, store, table, oracle, _ = small_task()
    path = tmp_path / "best.hice"
    cfg = TrainConfig(steps=30, batch_episodes=8, validation_every=10,
                      seed=2, checkpoint_path=str(path), patience=10)
    model, report = train(cfg, vocab, store, oracle,
                          model=HiceModel.from_table(small_model_config(), oracle))
    assert report.best_step > 0  # the best state was restored
    assert_on_vectors(model, _probes(vocab, store, oracle))
    loaded = load_checkpoint(path)
    loaded.predict(_probes(vocab, store, oracle))
    assert loaded.parameters().grad is None  # inference allocates no gradient vector
    assert_on_vectors(loaded, _probes(vocab, store, oracle))


def test_adam_returns_the_gradient_norm_and_clip_factor():
    params = ParamVector(4)
    p = params.add("p", np.zeros(4))
    opt = Adam(params, lr=1.0, grad_clip=1.0)
    with Graph():
        backward(sum_all(scale(p, 100.0)))
    assert opt.step() == (200.0, 1.0 / 200.0)
    assert np.array_equal(p.grad, np.full(4, 0.5))  # clipped in place
    p.grad = None
    state = [arr.copy() for arr in (p.data, opt.m, opt.v)]
    assert opt.step() == (0.0, 1.0)  # no gradient: no update
    assert all(np.array_equal(a, b) for a, b in zip(state, (p.data, opt.m, opt.v)))


def test_train_records_each_steps_gradient_norm_and_clip_factor(monkeypatch):
    expected = []
    step = Adam.step

    def recording(self):
        total = 0.0
        for _, p in self.params:
            if p.grad is not None:
                total += float((p.grad * p.grad).sum())
        expected.append(total ** 0.5)
        return step(self)

    monkeypatch.setattr(Adam, "step", recording)
    vocab, store, table, oracle, _ = small_task()
    cfg = TrainConfig(steps=12, batch_episodes=8, validation_every=6, seed=3)
    _, report = train(cfg, vocab, store, oracle,
                      model=HiceModel.from_table(small_model_config(), oracle))
    assert len(expected) == 12 and report.grad_norms == expected
    assert report.clip_factors == [GRAD_CLIP / n if n > GRAD_CLIP else 1.0 for n in expected]
    assert report.to_csv().splitlines()[0] == "step,train_cos,val_cos"


def test_without_morphology_its_parameters_and_moments_stay_put(monkeypatch):
    made = []

    class Recording(Adam):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(training, "Adam", Recording)
    vocab, store, table, oracle, _ = small_task()
    config = HiceConfig(embed_dim=8, n_heads=2, char_emb_dim=4, char_filters=3,
                        use_morph=False, seed=0)
    model = HiceModel.from_table(config, oracle)
    before = {name: p.data.tobytes() for name, p in model.parameters()}
    cfg = TrainConfig(steps=10, batch_episodes=8, validation_every=5, seed=1)
    train(cfg, vocab, store, oracle, model=model)
    (opt,) = made
    params = model.parameters()
    moved = []
    for (name, p), lo, hi in zip(params, params.bounds, params.bounds[1:]):
        if name == "char_embed" or name.startswith("conv"):
            assert p.data.tobytes() == before[name], name
            zeros = np.zeros(hi - lo).tobytes()
            assert opt.m[lo:hi].tobytes() == zeros and opt.v[lo:hi].tobytes() == zeros, name
        else:
            moved.append(p.data.tobytes() != before[name])
    assert all(moved)


def test_a_checkpoint_with_a_nonfinite_payload_is_refused(tmp_path):
    vocab, store, table, oracle, _ = small_task()
    model = HiceModel.from_table(small_model_config(), oracle)
    config = dict(model.config.as_dict(), format="hice-checkpoint")
    arrays = [(name, np.array(arr, dtype=np.float32)) for name, arr in model.state_arrays()
              if name != "frozen_words"] + [("frozen_words", model.state_arrays()[-1][1])]
    dict(arrays)["fuse.b"][1] = np.nan
    path = tmp_path / "nan.hice"
    write_container(path, CHECKPOINT_MAGIC, config, arrays)
    with pytest.raises(FormatError, match="non-finite values in entry 'fuse.b'"):
        load_checkpoint(path)
    # handed over directly, the array is refused as a tensor refuses it
    named = {name: p.data.copy() for name, p in model.parameters()}
    named["a_pos"][0] = np.inf
    with pytest.raises(NumericError, match="non-finite"):
        HiceModel.from_arrays(model.config, model.table, named)
