import csv
import hashlib
import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import synthetic_task
from oov_forge import cli, evaluation
from oov_forge.baselines import (ALACARTE_MAGIC, NGRAM_MAGIC, AlaCarteModel,
                                 ngram_fit)
from oov_forge.cli import main
from oov_forge.container import read_container, write_container
from oov_forge.corpus import EmbeddingTable, load_embeddings, prepare_corpus, save_embeddings
from oov_forge.episode import eligible_targets, split_targets
from oov_forge.errors import EpisodeError, FormatError, OovForgeError
from oov_forge.evaluation import EvalItem, cosine_np, save_benchmark_tsv
from oov_forge.training import CHECKPOINT_MAGIC, load_checkpoint

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


# ---------------------------------------------------------------------------
# fixtures: a small on-disk task
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    vocab, store, table, oracle, _ = synthetic_task.planted_task(
        n_topics=6, words_per_topic=8, n_sentences=900, dim=8, seed=11,
        min_count=4)
    (root / "corpus.txt").write_text(synthetic_task.corpus_text(store))
    save_embeddings(oracle, root / "embeddings.txt")
    return root


@pytest.fixture(scope="module")
def prepared(workdir):
    out = workdir / "prep"
    code = main(["prepare", str(workdir / "corpus.txt"),
                 str(workdir / "embeddings.txt"), str(out),
                 "--min-count", "4"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def checkpoint(workdir, prepared):
    out = workdir / "model.hice"
    code = main(["train", str(prepared), "--steps", "60", "--seed", "5",
                 "--batch", "8", "--val-every", "20", "--k-max", "4",
                 "--heads", "2", "--out", str(out)])
    assert code == 0
    return out


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------

def test_prepare_is_byte_identical_on_rerun(workdir, prepared, capsys):
    first = {p.name: p.read_bytes() for p in prepared.iterdir()}
    assert main(["prepare", str(workdir / "corpus.txt"),
                 str(workdir / "embeddings.txt"), str(prepared),
                 "--min-count", "4"]) == 0
    second = {p.name: p.read_bytes() for p in prepared.iterdir()}
    assert first == second
    out = capsys.readouterr().out
    assert "vocabulary:" in out and "split:" in out


# sha256 of the files prepare writes for the workdir corpus, computed with the
# list-based sentence store that the packed one replaced
PREPARED_SHA256 = {
    "vocab.tsv": "518811f10355080e413f9cf74b354e6a8ffb0bb804d341dd47b7c1477ab6dad9",
    "sentences.txt": "844b705bc2a903fd0fe88dd887e98bf8c71b7addf84801e8be2f08fc812592d2",
    "split.txt": "442440c9aa43f91bf05abc50cd896d6e8c709969c44cdc317f4b10b60537bb2e",
}


def test_prepare_writes_the_pinned_bytes_and_loads_back_its_store(workdir, prepared):
    for name, digest in PREPARED_SHA256.items():
        assert hashlib.sha256((prepared / name).read_bytes()).hexdigest() == digest, name
    vocab, store = prepare_corpus(workdir / "corpus.txt", min_count=4)
    loaded, _ = cli.load_prepared(prepared)
    assert (loaded.vocab.words, loaded.vocab.min_count) == (vocab.words, vocab.min_count)
    for name in ("tokens", "offsets", "counts", "index_ptr", "index_sentences", "index_first"):
        want, got = getattr(store, name), getattr(loaded, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def test_prepare_empty_corpus_exits_2(workdir, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("\n\n")
    code = main(["prepare", str(empty), str(workdir / "embeddings.txt"),
                 str(tmp_path / "out")])
    assert code == 2


def test_prepare_unreadable_embeddings_exits_2(workdir, tmp_path):
    code = main(["prepare", str(workdir / "corpus.txt"),
                 str(tmp_path / "missing.txt"), str(tmp_path / "out")])
    assert code == 2


# ---------------------------------------------------------------------------
# training targets: prepare, train and adapt share one rule
# ---------------------------------------------------------------------------

def _sixty_word_task(root, table_words, zero_word=None):
    """A corpus of 60 words, each counted more than 4 times, and a d=8
    table of ``table_words``, the row of ``zero_word`` all zeros."""
    rng = np.random.default_rng(21)
    words = [f"w{i}" for i in range(60)]
    (root / "corpus.txt").write_text("".join(
        " ".join(words[int(i)] for i in rng.integers(0, 60, size=8)) + "\n"
        for _ in range(400)))
    rows = {w: rng.normal(size=8).astype(np.float32) for w in table_words}
    if zero_word is not None:
        rows[zero_word] = np.zeros(8, dtype=np.float32)
    save_embeddings(EmbeddingTable(dim=8, vectors=rows), root / "table.txt")
    return words


def _prepared_targets(prep, table_path):
    """The targets and split that train reads from a prepared directory."""
    store, _ = cli.load_prepared(prep)
    table = load_embeddings(table_path)
    return eligible_targets(store.vocab, store, table), split_targets(store, table)


def test_a_zero_table_row_is_no_target_of_train_or_adapt(tmp_path):
    words = _sixty_word_task(tmp_path, [f"w{i}" for i in range(60)], zero_word="w7")
    prep, model = tmp_path / "prep", tmp_path / "m.hice"
    assert main(["prepare", str(tmp_path / "corpus.txt"), str(tmp_path / "table.txt"),
                 str(prep), "--min-count", "4"]) == 0
    targets, _ = _prepared_targets(prep, tmp_path / "table.txt")
    assert sorted(targets) == sorted(w for w in words if w != "w7")
    assert "w7\t" not in (prep / cli.SPLIT_FILE).read_text()
    assert main(["train", str(prep), "--steps", "30", "--batch", "8", "--val-every", "10",
                 "--heads", "2", "--out", str(model)]) == 0
    assert main(["adapt", str(model), str(tmp_path / "corpus.txt"), "--finetune",
                 "--embeddings", str(tmp_path / "table.txt"), "--steps", "30",
                 "--min-count", "4", "--out", str(tmp_path / "a.hice")]) == 0


def test_prepare_writes_the_targets_and_split_that_train_uses(tmp_path, capsys):
    # 20 of the 60 frequent words have no row in the table
    words = _sixty_word_task(tmp_path, [f"w{i}" for i in range(20, 60)])
    prep = tmp_path / "prep"
    assert main(["prepare", str(tmp_path / "corpus.txt"), str(tmp_path / "table.txt"),
                 str(prep), "--min-count", "4"]) == 0
    out = capsys.readouterr().out
    targets, (train_words, val_words) = _prepared_targets(prep, tmp_path / "table.txt")
    assert sorted(targets) == sorted(words[20:])
    assert f"(count > 4, nonzero table row): {len(targets)}\n" in out
    assert f"split: {len(train_words)} train / {len(val_words)} val\n" in out
    split = [line.split("\t") for line in (prep / cli.SPLIT_FILE).read_text().splitlines()]
    assert split == [[w, "train"] for w in sorted(train_words)] + \
        [[w, "val"] for w in sorted(val_words)]
    eligible = [line.split("\t")[0] for line in (prep / cli.VOCAB_FILE).read_text().splitlines()
                if line.endswith("\t1")]
    assert eligible == targets


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_zero_steps_makes_valid_checkpoint(prepared, tmp_path, capsys):
    out = tmp_path / "untrained.hice"
    code = main(["train", str(prepared), "--steps", "0", "--out", str(out)])
    assert code == 0
    model = load_checkpoint(out)
    assert model.config.embed_dim == 8
    assert "best validation cosine" in capsys.readouterr().out


@pytest.mark.parametrize("flags, message", [
    (["--val-every", "0"], "validation_every"),
    (["--val-every", "-2"], "validation_every"),
    (["--k-max", "1"], "k_max"),     # below the default k_min of 2
    (["--k-max", "0"], "k_max"),
    (["--steps", "-1"], "steps"),
    (["--batch", "0"], "batch_episodes"),
], ids=["val-every-0", "val-every-negative", "k-max-below-k-min", "k-max-0",
        "steps-negative", "batch-0"])
def test_train_refuses_a_setting_that_cannot_train(prepared, tmp_path, capsys, flags, message):
    out = tmp_path / "m.hice"
    code = main(["train", str(prepared), "--steps", "3", "--batch", "4", *flags,
                 "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_train_replay_identical_reports(prepared, tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.hice"
        assert main(["train", str(prepared), "--steps", "30", "--seed", "9",
                     "--batch", "4", "--val-every", "10", "--heads", "2",
                     "--out", str(out)]) == 0
        outs.append((out.read_bytes(), (tmp_path / f"{tag}.hice.csv").read_bytes()))
    assert outs[0][1] == outs[1][1]


def test_train_no_morph_flag_recorded(prepared, tmp_path):
    out = tmp_path / "nomorph.hice"
    assert main(["train", str(prepared), "--steps", "0", "--no-morph",
                 "--out", str(out)]) == 0
    model = load_checkpoint(out)
    assert model.config.as_dict()["use_morph"] == "false"
    assert model.config.use_morph is False


@pytest.mark.parametrize("name, line", [
    ("vocab.tsv", "extra\tmany\t0\t1"),      # non-integer count
    ("sentences.txt", "0 one 2"),             # non-integer token id
    ("run_config.txt", "min_count = x"),      # non-integer setting
])
def test_train_malformed_prepared_file_exits_2(prepared, tmp_path, name, line):
    bad = tmp_path / "prep"
    shutil.copytree(prepared, bad)
    with open(bad / name, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    code = main(["train", str(bad), "--steps", "0", "--out", str(tmp_path / "m.hice")])
    assert code == 2


@pytest.mark.parametrize("name, line, message", [
    ("sentences.txt", "0 -1 2", "token id out of range"),
    ("sentences.txt", "0 {n_words}", "token id out of range"),
    ("vocab.tsv", "{first}\t9\t0\t1", "repeated word '{first}'"),
], ids=["negative-id", "id-past-the-vocabulary", "repeated-word"])
def test_load_prepared_names_the_line_of_an_id_or_word_it_cannot_map(prepared, tmp_path,
                                                                     name, line, message):
    bad = tmp_path / "prep"
    shutil.copytree(prepared, bad)
    words = [row.split("\t")[0]
             for row in (bad / "vocab.tsv").read_text(encoding="utf-8").splitlines()]
    lineno = len((bad / name).read_text(encoding="utf-8").splitlines()) + 1
    with open(bad / name, "a", encoding="utf-8") as fh:
        fh.write(line.format(n_words=len(words), first=words[0]) + "\n")
    with pytest.raises(FormatError, match=f"^{name}: line {lineno}: "
                       + message.format(first=words[0])):
        cli.load_prepared(bad)


@pytest.mark.parametrize("row, message", [
    ("newword\t-5\t0\t1", "count below 1"),
    ("newword\t0\t0\t1", "count below 1"),
    ("newword\t5\tx\t1", "stop and eligible flags must be 0 or 1"),
    ("newword\t5\t0\tbanana", "stop and eligible flags must be 0 or 1"),
], ids=["negative-count", "zero-count", "stop-flag", "eligible-flag"])
def test_load_prepared_refuses_a_vocab_row_prepare_never_writes(prepared, tmp_path, capsys,
                                                                row, message):
    bad = tmp_path / "prep"
    shutil.copytree(prepared, bad)
    lineno = len((bad / "vocab.tsv").read_text(encoding="utf-8").splitlines()) + 1
    with open(bad / "vocab.tsv", "a", encoding="utf-8") as fh:
        fh.write(row + "\n")
    with pytest.raises(FormatError, match=f"^vocab.tsv: line {lineno}: {message}$"):
        cli.load_prepared(bad)
    assert main(["train", str(bad), "--steps", "0", "--out", str(tmp_path / "m.hice")]) == 2
    assert f"vocab.tsv: line {lineno}: {message}" in capsys.readouterr().err


def test_the_count_and_stopword_columns_of_vocab_tsv_are_informational(workdir, prepared,
                                                                       tmp_path):
    # they are what prepare found: load_prepared checks them, then the store
    # recounts its sentences, so a valid edit changes neither counts nor targets
    table = load_embeddings(workdir / "embeddings.txt")
    store, _ = cli.load_prepared(prepared)
    targets, split = eligible_targets(store.vocab, store, table), split_targets(store, table)
    edited = tmp_path / "prep"
    shutil.copytree(prepared, edited)
    rows = [line.split("\t") for line in
            (edited / cli.VOCAB_FILE).read_text(encoding="utf-8").splitlines()]
    wid = store.vocab.ids[targets[0]]
    other = (wid + 1) % len(rows)
    rows[other][2] = "1" if rows[other][2] == "0" else "0"

    def write_count(count: str) -> None:
        rows[wid][1] = count
        (edited / cli.VOCAB_FILE).write_text("".join("\t".join(r) + "\n" for r in rows),
                                             encoding="utf-8")

    write_count("1")
    loaded, _ = cli.load_prepared(edited)
    assert np.array_equal(loaded.counts, store.counts)
    assert eligible_targets(loaded.vocab, loaded, table) == targets
    assert split_targets(loaded, table) == split
    for count, message in (("x", "non-integer count"), ("0", "count below 1")):
        write_count(count)
        with pytest.raises(FormatError, match=f"^vocab.tsv: line {wid + 1}: {message}$"):
            cli.load_prepared(edited)


# ---------------------------------------------------------------------------
# infer
# ---------------------------------------------------------------------------

def test_infer_additive_single_word_context(workdir, tmp_path, capsys):
    table = load_embeddings(workdir / "embeddings.txt")
    known = next(iter(table))
    ctx = tmp_path / "ctx.txt"
    ctx.write_text(f"{known} newword\n")
    code = main(["infer", "--word", "newword", "--contexts-file", str(ctx),
                 "--method", "additive", "--embeddings",
                 str(workdir / "embeddings.txt")])
    assert code == 0
    line = capsys.readouterr().out.strip().splitlines()[0]
    parts = line.split()
    assert parts[0] == "newword"
    vec = np.array([float(x) for x in parts[1:]])
    assert np.allclose(vec, table[known].astype(np.float64))


def test_infer_output_parses_as_embedding_row(workdir, checkpoint, tmp_path, capsys):
    ctx = tmp_path / "ctx.txt"
    ctx.write_text("t00w00 flurble t00w01 t00w02\nt00w03 flurble t00w04\n")
    code = main(["infer", "--word", "flurble", "--contexts-file", str(ctx),
                 "--method", "hice", "--checkpoint", str(checkpoint)])
    assert code == 0
    line = capsys.readouterr().out.strip().splitlines()[0]
    emb = tmp_path / "row.txt"
    emb.write_text(f"1 8\n{line}\n")
    parsed = load_embeddings(emb)  # the row format round-trips
    assert "flurble" in parsed


@pytest.mark.parametrize("edit", [
    {"n_heads": None}, {"n_heads": "two"}, {"n_heads": "0"}, {"d_model": "64"},
    {"d_ff": "7"}, {"max_len": "11"}, {"max_word_len": "5"}, {"context_pool": "mean"},
    {"use_morph": "True"},
], ids=["missing-n_heads", "n_heads-two", "n_heads-0", "d_model-64", "d_ff-7",
        "max_len-11", "max_word_len-5", "context_pool-mean", "use_morph-True"])
def test_infer_checkpoint_with_a_bad_config_exits_2(workdir, checkpoint, tmp_path,
                                                    capsys, edit):
    config, arrays = read_container(checkpoint, CHECKPOINT_MAGIC)
    config = {k: v for k, v in {**config, **edit}.items() if v is not None}
    bad = tmp_path / "bad.hice"
    write_container(bad, CHECKPOINT_MAGIC, config, arrays)
    ctx = tmp_path / "ctx.txt"
    ctx.write_text("t00w00 flurble t00w01\n")
    code = main(["infer", "--word", "flurble", "--contexts-file", str(ctx),
                 "--method", "hice", "--checkpoint", str(bad)])
    assert code == 2
    assert next(iter(edit)) in capsys.readouterr().err


@pytest.fixture(scope="module")
def fitted_files(workdir):
    """An ALC1 and an NGR1 file fitted to the 8-dimensional table."""
    table = load_embeddings(workdir / "embeddings.txt")
    alc, ngr = workdir / "identity.alc", workdir / "grams.ngr"
    AlaCarteModel(matrix=np.eye(table.dim)).save(alc)
    ngram_fit(sorted(table), table).save(ngr)
    return {"alacarte": alc, "ngram": ngr}


def _edit_container(src, dst, magic, config_edit=None, arrays_edit=None):
    config, arrays = read_container(src, magic)
    config = {k: v for k, v in {**config, **(config_edit or {})}.items() if v is not None}
    write_container(dst, magic, config, arrays_edit(arrays) if arrays_edit else arrays)
    return dst


@pytest.mark.parametrize("method, edit, key", [
    ("ngram", {"dim": None}, "dim"),
    ("ngram", {"dim": "x"}, "dim"),
    ("ngram", {"dim": "9"}, "dim=9"),
    ("ngram", {"ridge": "x"}, "ridge"),
    ("alacarte", {"samples": "x"}, "samples"),
    ("alacarte", {"residual": "1,5"}, "residual"),
], ids=["ngram-missing-dim", "ngram-dim-x", "ngram-dim-9", "ngram-ridge-x",
        "alacarte-samples-x", "alacarte-residual-1,5"])
def test_infer_baseline_file_with_a_bad_config_exits_2(workdir, fitted_files, tmp_path,
                                                       capsys, method, edit, key):
    magic = NGRAM_MAGIC if method == "ngram" else ALACARTE_MAGIC
    bad = _edit_container(fitted_files[method], tmp_path / "bad", magic, edit)
    ctx = tmp_path / "ctx.txt"
    ctx.write_text("t00w00 t00w99 t00w01\n")
    code = main(["infer", "--word", "t00w99", "--contexts-file", str(ctx),
                 "--method", method, "--checkpoint", str(bad),
                 "--embeddings", str(workdir / "embeddings.txt")])
    assert code == 2
    assert key in capsys.readouterr().err


def test_infer_and_eval_reject_a_transform_of_another_dimension(
        workdir, bench_tsv, tmp_path, capsys):
    small = tmp_path / "small.alc"
    AlaCarteModel(matrix=np.eye(4)).save(small)
    ctx = tmp_path / "ctx.txt"
    ctx.write_text("t00w00 t00w99 t00w01\n")
    assert main(["infer", "--word", "t00w99", "--contexts-file", str(ctx),
                 "--method", "alacarte", "--checkpoint", str(small),
                 "--embeddings", str(workdir / "embeddings.txt")]) == 2
    assert main(["eval", str(bench_tsv), "--embeddings", str(workdir / "embeddings.txt"),
                 "--methods", "alacarte", "--alacarte-model", str(small),
                 "--out-dir", str(tmp_path / "rep")]) == 6
    err = capsys.readouterr().err
    assert err.count("a 4-dimensional transform for a 8-dimensional table") == 2


def _four_dim_table(tmp_path):
    small = tmp_path / "small.txt"
    save_embeddings(EmbeddingTable(dim=4, vectors={"t00w00": np.ones(4, np.float32),
                                                   "t00w01": np.eye(4, dtype=np.float32)[0]}),
                    small)
    return small


@pytest.mark.parametrize("method", ["hice", "ngram"])
def test_infer_rejects_a_file_of_another_dimension_before_any_output(
        workdir, checkpoint, fitted_files, tmp_path, capsys, method):
    small = _four_dim_table(tmp_path)
    path = checkpoint if method == "hice" else fitted_files["ngram"]
    ctx = tmp_path / "ctx.txt"
    ctx.write_text("t00w00 t00w99 t00w01\n")
    assert main(["infer", "--word", "t00w99", "--contexts-file", str(ctx),
                 "--method", method, "--checkpoint", str(path),
                 "--embeddings", str(small), "--neighbors", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "a 8-dimensional" in err and "for a 4-dimensional table" in err


@pytest.mark.parametrize("method", ["hice", "ngram"])
def test_eval_rejects_a_file_of_another_dimension_before_scoring(
        bench_tsv, checkpoint, fitted_files, tmp_path, capsys, method):
    flag, path = (("--checkpoint", checkpoint) if method == "hice"
                  else ("--ngram-model", fitted_files["ngram"]))
    out = tmp_path / "rep"
    assert main(["eval", str(bench_tsv), "--embeddings", str(_four_dim_table(tmp_path)),
                 "--methods", method, flag, str(path), "--out-dir", str(out)]) == 6
    err = capsys.readouterr().err
    assert "a 8-dimensional" in err and "for a 4-dimensional table" in err
    assert not out.exists()


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_eval_rejects_fit_samples_below_one_before_fitting(
        workdir, prepared, bench_tsv, tmp_path, capsys, samples):
    out = tmp_path / "rep"
    assert main(["eval", str(bench_tsv), "--embeddings", str(workdir / "embeddings.txt"),
                 "--methods", "ngram", "--prepared-dir", str(prepared),
                 "--fit-samples", samples, "--save-fitted", str(tmp_path / "fit"),
                 "--out-dir", str(out)]) == 6
    assert f"--fit-samples must be at least 1, got {samples}" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "fit").exists()


def test_infer_baseline_file_with_a_repeated_entry_exits_2(workdir, fitted_files, tmp_path,
                                                          capsys):
    bad = _edit_container(fitted_files["ngram"], tmp_path / "bad.ngr", NGRAM_MAGIC,
                          arrays_edit=lambda arrays: arrays + arrays[-1:])
    ctx = tmp_path / "ctx.txt"
    ctx.write_text("t00w00 t00w99\n")
    assert main(["infer", "--word", "t00w99", "--contexts-file", str(ctx),
                 "--method", "ngram", "--checkpoint", str(bad)]) == 2
    assert "repeated entry 'vectors'" in capsys.readouterr().err


def _nothing_to_infer_bench(workdir, tmp_path):
    """One item whose contexts hold no table word besides the pseudo-word,
    which has no known n-gram either."""
    probes = sorted(load_embeddings(workdir / "embeddings.txt"))[::8][:6]
    bench = tmp_path / "nothing.tsv"
    save_benchmark_tsv([EvalItem("qqqq", ["the qqqq is here", "of qqqq"], probes,
                                 [float(i) for i in range(6)], 2)], bench)
    return bench


@pytest.mark.parametrize("method", ["additive", "additive-ns", "alacarte"])
def test_no_in_table_context_token_fails_infer_and_eval_alike(
        workdir, fitted_files, tmp_path, capsys, method):
    message = "no context token found in the embedding table"
    ctx = tmp_path / "ctx.txt"
    ctx.write_text("the qqqq is here\nof qqqq\n")
    code = main(["infer", "--word", "qqqq", "--contexts-file", str(ctx),
                 "--method", method, "--checkpoint", str(fitted_files["alacarte"]),
                 "--embeddings", str(workdir / "embeddings.txt")])
    assert code == 5
    assert capsys.readouterr().err == f"error: {message}\n"
    out = tmp_path / "rep"
    assert main(["eval", str(_nothing_to_infer_bench(workdir, tmp_path)),
                 "--embeddings", str(workdir / "embeddings.txt"), "--methods", method,
                 "--alacarte-model", str(fitted_files["alacarte"]),
                 "--out-dir", str(out)]) == 0
    assert _item_rows(out) == [[method, "2", "qqqq", "", "1", message]]


def test_no_known_ngram_fails_infer_and_eval_alike(workdir, fitted_files, tmp_path,
                                                   capsys):
    message = "no known n-grams in 'qqqq'"
    ctx = tmp_path / "ctx.txt"
    ctx.write_text("the qqqq is here\n")
    code = main(["infer", "--word", "qqqq", "--contexts-file", str(ctx),
                 "--method", "ngram", "--checkpoint", str(fitted_files["ngram"])])
    assert code == 5
    assert capsys.readouterr().err == f"error: {message}\n"
    out = tmp_path / "rep"
    assert main(["eval", str(_nothing_to_infer_bench(workdir, tmp_path)),
                 "--embeddings", str(workdir / "embeddings.txt"), "--methods", "ngram",
                 "--ngram-model", str(fitted_files["ngram"]),
                 "--out-dir", str(out)]) == 0
    assert _item_rows(out) == [["ngram", "2", "qqqq", "", "1", message]]


def test_infer_word_missing_from_contexts_exits_5(workdir, tmp_path):
    ctx = tmp_path / "ctx.txt"
    ctx.write_text("nothing here\n")
    code = main(["infer", "--word", "absent", "--contexts-file", str(ctx),
                 "--method", "additive", "--embeddings",
                 str(workdir / "embeddings.txt")])
    assert code == 5


def test_infer_neighbors_listing(workdir, tmp_path, capsys):
    table = load_embeddings(workdir / "embeddings.txt")
    known = sorted(table)[0]
    ctx = tmp_path / "ctx.txt"
    ctx.write_text(f"{known} target\n")
    code = main(["infer", "--word", "target", "--contexts-file", str(ctx),
                 "--method", "additive", "--embeddings",
                 str(workdir / "embeddings.txt"), "--neighbors", "3"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    neighbor_lines = [l for l in lines if l.startswith("# ")]
    assert len(neighbor_lines) == 3
    assert neighbor_lines[0].split()[1] == known  # its own vector is nearest


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def bench_tsv(workdir):
    """Pseudo-words are table rows, human ratings are cosine-generated, so
    the oracle method must score a perfect correlation."""
    table = load_embeddings(workdir / "embeddings.txt")
    words = sorted(table)
    probes = words[::8][:6]  # one per topic: distinct oracle vectors
    items = []
    for i, pw in enumerate(words[10:14]):
        human = [cosine_np(table[pw].astype(np.float64),
                           table[p].astype(np.float64)) for p in probes]
        fill = words[20 + 4 * i: 24 + 4 * i]
        items.append(EvalItem(
            pseudo_word=pw,
            contexts=[f"{fill[0]} {pw} {fill[1]} here",
                      f"{fill[2]} and {fill[3]} near the {pw}"],
            probes=list(probes),
            human=human,
            shot=2 if i % 2 == 0 else 4,
        ))
    path = workdir / "bench.tsv"
    save_benchmark_tsv(items, path)
    return path


def test_eval_oracle_method_scores_one(workdir, bench_tsv, tmp_path, capsys):
    out = tmp_path / "rep"
    code = main(["eval", str(bench_tsv), "--embeddings",
                 str(workdir / "embeddings.txt"), "--methods", "oracle",
                 "--out-dir", str(out)])
    assert code == 0
    rows = [l for l in (out / "eval_summary.csv").read_text().splitlines()
            if l and not l.startswith("#") and not l.startswith("method,")]
    for row in rows:
        method, shot, mean_rho = row.split(",")[:3]
        assert method == "oracle"
        assert float(mean_rho) == pytest.approx(1.0, abs=1e-12)


def test_eval_emits_row_per_method_per_shot_and_recomputes(
        workdir, prepared, bench_tsv, tmp_path):
    out = tmp_path / "rep"
    code = main(["eval", str(bench_tsv), "--embeddings",
                 str(workdir / "embeddings.txt"),
                 "--methods", "additive,additive-ns,alacarte",
                 "--prepared-dir", str(prepared), "--fit-samples", "40",
                 "--svg", str(tmp_path / "chart.svg"),
                 "--out-dir", str(out)])
    assert code == 0
    summary = [l for l in (out / "eval_summary.csv").read_text().splitlines()
               if l and not l.startswith("#")][1:]
    assert len(summary) == 6  # 3 methods x 2 shots
    items = _item_rows(out)
    # summary means equal recomputation from the per-item dump
    from collections import defaultdict
    per = defaultdict(list)
    for method, shot, word, rho, failed, reason in items:
        assert (reason == "") == (failed == "0")  # a failed item says why
        if failed == "0":
            per[(method, int(shot))].append(float(rho))
    for line in summary:
        method, shot, mean_rho = line.split(",")[:3]
        assert float(mean_rho) == pytest.approx(
            np.mean(per[(method, int(shot))]), abs=1e-12)
    svg = (tmp_path / "chart.svg").read_text()
    assert "<svg" in svg and "additive" in svg
    assert "command=eval" in svg  # provenance comment embedded


def test_eval_additive_on_planted_perfect_benchmark(workdir, tmp_path, capsys):
    """Ratings generated from the additive estimate itself: the additive
    method must score a perfect mean correlation."""
    from oov_forge.baselines import additive as additive_fn
    from oov_forge.evaluation import mask_contexts
    table = load_embeddings(workdir / "embeddings.txt")
    words = sorted(table)
    probes = words[::8][:6]
    items = []
    for i, pw in enumerate(["blick", "wug", "florp"]):
        raw = [f"{words[30 + 3 * i]} {pw} {words[31 + 3 * i]}",
               f"{words[32 + 3 * i]} with the {pw}"]
        est = additive_fn(mask_contexts(pw, raw), table).vector
        human = [cosine_np(est, table[p].astype(np.float64))
                 for p in probes]
        items.append(EvalItem(pw, raw, list(probes), human, 2))
    bench = tmp_path / "planted.tsv"
    save_benchmark_tsv(items, bench)
    out = tmp_path / "rep"
    assert main(["eval", str(bench), "--embeddings",
                 str(workdir / "embeddings.txt"), "--methods", "additive",
                 "--out-dir", str(out)]) == 0
    capsys.readouterr()
    rows = [l for l in (out / "eval_summary.csv").read_text().splitlines()
            if l and not l.startswith("#")][1:]
    assert len(rows) == 1
    assert float(rows[0].split(",")[2]) == pytest.approx(1.0, abs=1e-12)


def test_eval_oracle_fails_an_item_missing_from_the_table(workdir, tmp_path):
    probes = sorted(load_embeddings(workdir / "embeddings.txt"))[::8][:6]
    bench = tmp_path / "missing.tsv"
    ratings = [float(i) for i in range(6)]
    save_benchmark_tsv([EvalItem("blick", ["a blick here"], probes, ratings, 2),
                        EvalItem("bl,ick", ["a bl,ick here"], probes, ratings, 2)],
                       bench)
    out = tmp_path / "rep"
    assert main(["eval", str(bench), "--embeddings", str(workdir / "embeddings.txt"),
                 "--methods", "oracle", "--out-dir", str(out)]) == 0
    # the failure reason is written, quoted where it holds a comma
    assert _item_rows(out) == [
        ["oracle", "2", "blick", "", "1", "oracle: 'blick' not in the table"],
        ["oracle", "2", "bl,ick", "", "1", "oracle: 'bl,ick' not in the table"],
    ]


def test_eval_summary_keeps_a_shot_whose_items_all_failed(workdir, tmp_path, capsys):
    table = load_embeddings(workdir / "embeddings.txt")
    words = sorted(table)
    probes = words[::8][:6]
    ratings = [float(i) for i in range(6)]
    bench = tmp_path / "mixed.tsv"
    save_benchmark_tsv([EvalItem(words[3], [f"a {words[3]} here"], probes, ratings, 2),
                        EvalItem("blick", ["a blick here"], probes, ratings, 4)], bench)
    out = tmp_path / "rep"
    assert main(["eval", str(bench), "--embeddings", str(workdir / "embeddings.txt"),
                 "--methods", "oracle", "--out-dir", str(out),
                 "--svg", str(tmp_path / "chart.svg")]) == 0
    rows = [l.split(",") for l in (out / "eval_summary.csv").read_text().splitlines()
            if not l.startswith("#")][1:]
    assert [r[:2] + r[4:] for r in rows] == [["oracle", "2", "1", "0"],
                                             ["oracle", "4", "1", "1"]]
    assert rows[1][2:4] == ["nan", "nan"]  # the all-failed shot has no rho
    # the printed table and the chart keep the shot too, with no score
    header, scores = capsys.readouterr().out.splitlines()[:2]
    assert header.split() == ["method", "2-shot", "4-shot"]
    assert scores.split()[0] == "oracle" and scores.split()[2] == "-"
    svg = (tmp_path / "chart.svg").read_text()
    assert "4-shot</text>" in svg and "4-shot:" not in svg


def _item_rows(out_dir):
    """The rows of eval_items.csv below its provenance comments and header."""
    lines = [l for l in (out_dir / "eval_items.csv").read_text().splitlines()
             if not l.startswith("#")]
    header, *rows = csv.reader(lines)
    assert header == ["method", "shot", "pseudo_word", "rho", "failed", "reason"]
    return rows


def test_eval_malformed_tsv_exits_6(workdir, tmp_path):
    bad = tmp_path / "bad.tsv"
    for content in (b"only\ttwo\n", b"w\xff\t2\tw here\tp,q\t1,2\n",
                    b"w\t2\tw here\tp,q,r\t1,nan,2\n"):
        bad.write_bytes(content)
        code = main(["eval", str(bad), "--embeddings",
                     str(workdir / "embeddings.txt"), "--methods", "additive"])
        assert code == 6


def test_eval_hice_runs(workdir, bench_tsv, checkpoint, tmp_path):
    out = tmp_path / "rep"
    code = main(["eval", str(bench_tsv), "--embeddings",
                 str(workdir / "embeddings.txt"), "--methods", "hice,additive",
                 "--checkpoint", str(checkpoint), "--out-dir", str(out)])
    assert code == 0
    text = (out / "eval_summary.csv").read_text()
    assert "hice," in text and "additive," in text


def test_eval_tokenizes_each_context_once_for_all_methods(workdir, bench_tsv, checkpoint,
                                                          fitted_files, tmp_path, monkeypatch):
    contexts = [c for item in evaluation.load_benchmark_tsv(bench_tsv) for c in item.contexts]
    calls = []
    tokenize = evaluation.tokenize

    def counting(text):
        calls.append(text)
        return tokenize(text)

    monkeypatch.setattr(evaluation, "tokenize", counting)
    code = main(["eval", str(bench_tsv), "--embeddings", str(workdir / "embeddings.txt"),
                 "--methods", "hice,additive,alacarte,ngram,oracle",
                 "--checkpoint", str(checkpoint), "--alacarte-model",
                 str(fitted_files["alacarte"]), "--ngram-model", str(fitted_files["ngram"]),
                 "--out-dir", str(tmp_path)])
    assert code == 0
    summary = (tmp_path / "eval_summary.csv").read_text()
    assert all(f"\n{m}," in summary for m in ("hice", "additive", "alacarte", "ngram", "oracle"))
    # each context once as the benchmark loads (validate), then once for the five methods
    assert sorted(calls) == sorted(contexts * 2)


# ---------------------------------------------------------------------------
# adapt
# ---------------------------------------------------------------------------

def test_adapt_zero_steps_keeps_params(workdir, prepared, checkpoint, tmp_path):
    out = tmp_path / "adapted.hice"
    code = main(["adapt", str(checkpoint), str(workdir / "corpus.txt"),
                 "--source-dir", str(prepared), "--steps", "0",
                 "--min-count", "4", "--out", str(out)])
    assert code == 0
    before = load_checkpoint(checkpoint)
    after = load_checkpoint(out)
    for (_, a), (_, b) in zip(before.parameters(), after.parameters()):
        assert np.array_equal(a.data, b.data)
    config, _ = read_container(out, CHECKPOINT_MAGIC)
    assert config["adapted"] == "true"


def test_adapt_alpha_zero_equals_finetune_mode(workdir, prepared, checkpoint, tmp_path):
    out_a = tmp_path / "a.hice"
    out_b = tmp_path / "b.hice"
    common = [str(checkpoint), str(workdir / "corpus.txt"),
              "--source-dir", str(prepared), "--steps", "3", "--seed", "4",
              "--beta", "1e-3", "--min-count", "4"]
    assert main(["adapt", *common, "--alpha", "0", "--out", str(out_a)]) == 0
    assert main(["adapt", *common, "--finetune", "--out", str(out_b)]) == 0
    a = load_checkpoint(out_a)
    b = load_checkpoint(out_b)
    for (_, pa), (_, pb) in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa.data, pb.data)


def test_train_and_adapt_record_every_setting(workdir, prepared, tmp_path):
    out = tmp_path / "m.hice"
    assert main(["train", str(prepared), "--steps", "4", "--lr", "0.01", "--batch", "4",
                 "--val-every", "2", "--patience", "3", "--heads", "2",
                 "--out", str(out)]) == 0
    config, _ = read_container(out, CHECKPOINT_MAGIC)
    given = {"lr": "0.01", "batch": "4", "val_every": "2", "patience": "3", "heads": "2"}
    assert {k: config[f"run.{k}"] for k in given} == given
    assert {f"run.{k}" for k in cli.TRAIN_SETTINGS} <= set(config)
    header = (tmp_path / "m.hice.csv").read_text()
    assert all(f"# {k} = {v}\n" in header for k, v in given.items())

    adapted = tmp_path / "a.hice"
    assert main(["adapt", str(out), str(workdir / "corpus.txt"), "--source-dir",
                 str(prepared), "--steps", "1", "--min-count", "7", "--finetune",
                 "--out", str(adapted)]) == 0
    config, _ = read_container(adapted, CHECKPOINT_MAGIC)
    assert {f"run.{k}" for k in cli.ADAPT_SETTINGS} <= set(config)
    assert (config["run.min_count"], config["run.alpha"], config["run.mode"]) == (
        "7", "0.0", "finetune")


def test_adapt_finetune_needs_no_source_corpus(workdir, prepared, checkpoint, tmp_path):
    common = [str(checkpoint), str(workdir / "corpus.txt"), "--finetune", "--steps", "2",
              "--seed", "4", "--beta", "1e-3", "--min-count", "4"]
    with_source = tmp_path / "s.hice"
    assert main(["adapt", *common, "--source-dir", str(prepared),
                 "--out", str(with_source)]) == 0
    # only the source's run config is read at alpha = 0, for the table's path
    config_only = tmp_path / "config_only"
    config_only.mkdir()
    shutil.copy(prepared / cli.RUN_CONFIG_FILE, config_only)
    from_config, bare = tmp_path / "c.hice", tmp_path / "b.hice"
    assert main(["adapt", *common, "--source-dir", str(config_only),
                 "--out", str(from_config)]) == 0
    assert main(["adapt", *common, "--embeddings", str(workdir / "embeddings.txt"),
                 "--out", str(bare)]) == 0
    want = load_checkpoint(with_source).parameters()
    for out in (from_config, bare):
        for (_, a), (_, b) in zip(want, load_checkpoint(out).parameters()):
            assert np.array_equal(a.data, b.data)


def test_adapt_without_source_dir_needs_alpha_zero_and_a_table(workdir, checkpoint, capsys):
    args = ["adapt", str(checkpoint), str(workdir / "corpus.txt"), "--steps", "1"]
    assert main([*args, "--embeddings", str(workdir / "embeddings.txt")]) == 4
    assert "needs --source-dir" in capsys.readouterr().err
    assert main([*args, "--finetune"]) == 2
    assert "no embeddings path" in capsys.readouterr().err


def test_adapt_no_eligible_words_exits_4(workdir, prepared, checkpoint, tmp_path):
    alien = tmp_path / "alien.txt"
    alien.write_text("zzz yyy xxx\nzzz yyy\n")
    code = main(["adapt", str(checkpoint), str(alien),
                 "--source-dir", str(prepared), "--steps", "1"])
    assert code == 4


def test_adapt_replay_determinism(workdir, prepared, checkpoint, tmp_path):
    blobs = []
    for tag in ("r1", "r2"):
        out = tmp_path / f"{tag}.hice"
        assert main(["adapt", str(checkpoint), str(workdir / "corpus.txt"),
                     "--source-dir", str(prepared), "--steps", "2",
                     "--seed", "7", "--min-count", "4", "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


# ---------------------------------------------------------------------------
# neighbors
# ---------------------------------------------------------------------------

def test_neighbors_command(workdir, capsys):
    table = load_embeddings(workdir / "embeddings.txt")
    word = sorted(table)[0]
    code = main(["neighbors", "--embeddings", str(workdir / "embeddings.txt"),
                 "--word", word, "--top", "4"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert all("\t" in l for l in lines)
    assert word not in [l.split("\t")[0] for l in lines]


def test_neighbors_table_not_utf8_exits_2(tmp_path, capsys):
    table = tmp_path / "emb.txt"
    table.write_bytes(b"2 2\nfoo 1 2\nb\xffr 3 4\n")
    code = main(["neighbors", "--embeddings", str(table), "--word", "foo"])
    assert code == 2
    assert "invalid UTF-8" in capsys.readouterr().err


def test_neighbors_unknown_word_exits_5(workdir):
    code = main(["neighbors", "--embeddings", str(workdir / "embeddings.txt"),
                 "--word", "notaword"])
    assert code == 5


def test_neighbors_non_numeric_vector_file_exits_2(workdir, tmp_path):
    vec = tmp_path / "vec.txt"
    vec.write_text("word 0.5 half 0.25\n")
    code = main(["neighbors", "--embeddings", str(workdir / "embeddings.txt"),
                 "--vector-file", str(vec)])
    assert code == 2


@pytest.mark.parametrize("content", [b"", b"\n\n", b"word 0.5 0.25\n", b"word\n",
                                     None, b"word \xff 0.5\n"],
                         ids=["empty", "blank", "wrong-dimension", "no-values",
                              "missing", "non-utf8"])
def test_neighbors_unusable_vector_file_exits_2(workdir, tmp_path, capsys, content):
    vec = tmp_path / "vec.txt"
    if content is not None:
        vec.write_bytes(content)
    code = main(["neighbors", "--embeddings", str(workdir / "embeddings.txt"),
                 "--vector-file", str(vec)])
    assert code == 2
    assert "unexpected" not in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "1e300"], ids=["nan", "norm-overflow"])
def test_neighbors_unusable_query_vector_exits_6(workdir, tmp_path, capsys, value):
    dim = load_embeddings(workdir / "embeddings.txt").dim
    vec = tmp_path / "vec.txt"
    vec.write_text("word " + " ".join([value] * dim) + "\n")
    code = main(["neighbors", "--embeddings", str(workdir / "embeddings.txt"),
                 "--vector-file", str(vec)])
    assert code == 6
    assert "unexpected" not in capsys.readouterr().err


def test_config_file_round_trips_values_containing_hash(tmp_path):
    config = {"tokenizer.strip_chars": cli.STRIP_CHARS,
              "out": "/data/run#3/model.hice", "seed": "7"}
    path = tmp_path / "run_config.txt"
    cli.write_config_file(path, config)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("# a comment line\n   # an indented comment\n\n")
    assert cli.load_config_file(path) == config


@settings(max_examples=150, deadline=None, derandomize=True)
@given(blob=st.binary(max_size=40) | st.lists(st.sampled_from(
    [b"seed", b" = ", b"=", b"#", b" ", b"\t", b"\n", b"\r", b"\xc2\x85", b"\xe9", b"7"]),
    max_size=12).map(b"".join))
def test_a_config_file_loads_or_is_a_typed_error(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_bytes(blob)
    try:
        config = cli.load_config_file(path)
    except OovForgeError:
        return
    for key, value in config.items():
        assert key == key.strip() and value == value.strip()
        assert "=" not in key and not key.startswith("#")
        assert not any(ch in key + value for ch in "\n\r\x85")


@pytest.mark.parametrize("argv", [
    ["infer", "--word", "w", "--contexts-file", "c.txt"],
    ["neighbors", "--embeddings", "t.txt"],
], ids=["infer", "neighbors"])
def test_commands_that_read_no_setting_reject_config(argv, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 3\n")
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--config", str(cfg)])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


@pytest.mark.parametrize("argv, error, code", [
    (["train", "prep"], EpisodeError("x"), 3),            # the command's code
    (["neighbors", "--embeddings", "t"], FormatError("x"), 2),  # the error's code
    (["eval", "b.tsv", "--embeddings", "t"], FormatError("x"), 6),  # eval: always 6
    (["prepare", "c", "e", "out"], RuntimeError("x"), 1),  # a bug
], ids=["fallback", "typed", "eval", "bug"])
def test_exit_code_of_a_failed_command(monkeypatch, argv, error, code):
    def fail(args):
        raise error

    monkeypatch.setattr(cli, f"cmd_{argv[0]}", fail)
    assert main(argv) == code


@pytest.mark.parametrize("command, setting, code", [
    ("train", "lr = abc", 2), ("train", None, 2), ("eval", "seed = abc", 6),
], ids=["train-config-file", "train-env-seed", "eval-config-file"])
def test_a_setting_that_does_not_parse_is_a_format_error(
        workdir, prepared, bench_tsv, tmp_path, monkeypatch, capsys, command, setting, code):
    argv = (["train", str(prepared), "--steps", "0", "--out", str(tmp_path / "m.hice")]
            if command == "train" else
            ["eval", str(bench_tsv), "--embeddings", str(workdir / "embeddings.txt"),
             "--methods", "alacarte", "--prepared-dir", str(prepared),
             "--out-dir", str(tmp_path / "rep")])
    if setting:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(setting + "\n")
        argv += ["--config", str(cfg)]
    else:
        monkeypatch.setenv("OOVFORGE_SEED", "abc")
    assert main(argv) == code
    assert "cannot parse" in capsys.readouterr().err


@pytest.mark.parametrize("command, typo, code, reads", [
    ("prepare", "min_cuont = 99", 2, "min_count"),
    ("train", "stpes = 5", 2, ", ".join(sorted(cli.TRAIN_SETTINGS))),
    ("adapt", "first_order = false", 2, ", ".join(sorted(cli.ADAPT_SETTINGS))),
    ("eval", "sede = 3", 6, "seed"),
])
def test_a_config_key_the_command_does_not_read_is_a_format_error(
        workdir, checkpoint, bench_tsv, tmp_path, capsys, command, typo, code, reads):
    out = tmp_path / "out"
    argv = {
        "prepare": ["prepare", str(workdir / "corpus.txt"), str(workdir / "embeddings.txt"),
                    str(out)],
        "train": ["train", str(tmp_path), "--out", str(out)],
        "adapt": ["adapt", str(checkpoint), str(workdir / "corpus.txt"), "--out", str(out)],
        "eval": ["eval", str(bench_tsv), "--embeddings", str(workdir / "embeddings.txt"),
                 "--out-dir", str(out)],
    }[command]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# a comment\n{typo}\n")
    assert main(argv + ["--config", str(cfg)]) == code
    err = capsys.readouterr().err
    key = typo.split(" = ")[0]
    assert f"{command} reads no setting {key!r}; it reads {reads}" in err
    assert not out.exists()


def test_env_seed_applies_when_flag_absent(prepared, tmp_path, monkeypatch):
    out_env = tmp_path / "env.hice"
    monkeypatch.setenv("OOVFORGE_SEED", "9")
    assert main(["train", str(prepared), "--steps", "10", "--batch", "4",
                 "--val-every", "10", "--heads", "2", "--out", str(out_env)]) == 0
    monkeypatch.delenv("OOVFORGE_SEED")
    out_flag = tmp_path / "flag.hice"
    assert main(["train", str(prepared), "--steps", "10", "--seed", "9",
                 "--batch", "4", "--val-every", "10", "--heads", "2",
                 "--out", str(out_flag)]) == 0
    a = load_checkpoint(out_env)
    b = load_checkpoint(out_flag)
    for (_, pa), (_, pb) in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa.data, pb.data)


def test_config_file_is_overridden_by_flags(prepared, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps = 10\nseed = 9\n# a comment\n")
    out_a = tmp_path / "a.hice"
    assert main(["train", str(prepared), "--config", str(cfg), "--batch", "4",
                 "--val-every", "10", "--heads", "2", "--out", str(out_a)]) == 0
    out_b = tmp_path / "b.hice"
    assert main(["train", str(prepared), "--config", str(cfg), "--seed", "3",
                 "--batch", "4", "--val-every", "10", "--heads", "2",
                 "--steps", "10", "--out", str(out_b)]) == 0
    a = load_checkpoint(out_a)   # seed 9 from file
    b = load_checkpoint(out_b)   # seed 3 from flag wins
    same = all(np.array_equal(pa.data, pb.data)
               for (_, pa), (_, pb) in zip(a.parameters(), b.parameters()))
    assert not same


# ---------------------------------------------------------------------------
# qualitative fixture: context semantics vs character look-alikes
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def scooter_setup(tmp_path_factory):
    """A vehicle topic and a look-alike family placed far away: contexts say
    'vehicle', characters say 'cooter'."""
    root = tmp_path_factory.mktemp("scooter")
    rng = np.random.default_rng(21)
    trained_topics = {
        "vehicle": ["car", "bmw", "vehicles", "ride", "road", "wheels",
                    "motor", "bike"],
        "music": ["piano", "violin", "band", "song", "tune", "drum",
                  "cello", "organ"],
    }
    # the look-alike family lives only in the table: the model never trains
    # on it, but n-gram sums land there because of shared characters
    lookalikes = ["cooter", "pooter", "footer", "looter", "rooter",
                  "scoot", "cooters", "tooter"]
    dim = 8
    centers = {t: rng.normal(size=dim) * 2.0
               for t in (*trained_topics, "lookalike")}
    vectors = {}
    for t, words in trained_topics.items():
        for w in words:
            vectors[w] = (centers[t] + 0.15 * rng.normal(size=dim)).astype(np.float32)
    for w in lookalikes:
        vectors[w] = (centers["lookalike"] + 0.15 * rng.normal(size=dim)
                      ).astype(np.float32)
    table = EmbeddingTable(dim=dim, vectors=vectors)
    sentences = []
    for _ in range(500):
        t = list(trained_topics)[int(rng.integers(len(trained_topics)))]
        words = trained_topics[t]
        length = int(rng.integers(4, 8))
        sentences.append(" ".join(words[int(rng.integers(len(words)))]
                                  for _ in range(length)))
    (root / "corpus.txt").write_text("\n".join(sentences) + "\n")
    save_embeddings(table, root / "embeddings.txt")
    ngrams = ngram_fit(table.words(), table, ridge=1e-4)
    ngrams.save(root / "grams.ngr")
    return root


def test_scooter_contexts_beat_character_lookalikes(scooter_setup, capsys):
    root = scooter_setup
    assert main(["prepare", str(root / "corpus.txt"),
                 str(root / "embeddings.txt"), str(root / "prep"),
                 "--min-count", "2"]) == 0
    assert main(["train", str(root / "prep"), "--steps", "150", "--seed", "3",
                 "--batch", "8", "--val-every", "50", "--k-max", "4",
                 "--heads", "2", "--out", str(root / "model.hice")]) == 0
    capsys.readouterr()

    ctx = root / "ctx.txt"
    ctx.write_text(
        "we all need vehicles like bmw c1 scooter that allow more social "
        "interaction while using them\n"
        "the scooter is a ride with wheels on the road\n")

    assert main(["infer", "--word", "scooter", "--contexts-file", str(ctx),
                 "--method", "hice", "--checkpoint", str(root / "model.hice"),
                 "--neighbors", "5"]) == 0
    hice_out = capsys.readouterr().out.strip().splitlines()
    hice_top = {l.split()[1] for l in hice_out if l.startswith("# ")}

    assert main(["infer", "--word", "scooter", "--contexts-file", str(ctx),
                 "--method", "ngram", "--checkpoint", str(root / "grams.ngr"),
                 "--embeddings", str(root / "embeddings.txt"),
                 "--neighbors", "5"]) == 0
    ngram_out = capsys.readouterr().out.strip().splitlines()
    ngram_top = {l.split()[1] for l in ngram_out if l.startswith("# ")}

    assert len(hice_top) == 5 and len(ngram_top) == 5
    assert not hice_top & ngram_top  # context semantics vs look-alikes
    vehicle = {"car", "bmw", "vehicles", "ride", "road", "wheels", "motor", "bike"}
    assert hice_top <= vehicle
