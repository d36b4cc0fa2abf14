"""Serialization round-trips and corruption handling for every on-disk
format: the binary container, checkpoints, embedding tables, benchmark TSVs,
and attention reports. Corruption must always surface as FormatError (or
IngestionError for unreadable text), never as an unhandled crash."""

import gc
import os
import struct
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oov_forge import cli, container
from oov_forge.container import (pack_text, read_container, unpack_text,
                                 write_container)
from oov_forge.corpus import (EmbeddingTable, SentenceStore, build_vocab, prepare_corpus,
                              save_embeddings)
from oov_forge.errors import FormatError, OovForgeError
from oov_forge.evaluation import EvalItem, load_benchmark_tsv, save_benchmark_tsv
from synthetic_task import sentences_of


def test_container_roundtrip(tmp_path, rng):
    arrays = [
        ("alpha", rng.normal(size=(3, 4)).astype(np.float32)),
        ("beta", rng.normal(size=7).astype(np.float32)),
        ("note", pack_text("hello\nworld")),
        ("empty", np.zeros((0, 5), dtype=np.float32)),
    ]
    config = {"kind": "test", "value": "1.25", "flag": "true"}
    path = tmp_path / "blob.bin"
    write_container(path, "TST1", config, arrays)
    got_config, got_arrays = read_container(path, "TST1")
    assert got_config == config
    named = dict(got_arrays)
    assert np.array_equal(named["alpha"], arrays[0][1])
    assert np.array_equal(named["beta"], arrays[1][1])
    assert unpack_text(named["note"]) == "hello\nworld"
    assert named["empty"].shape == (0, 5)


def test_read_arrays_own_aligned_writable_memory(tmp_path, rng):
    # the 3-byte text entry leaves the float payloads after it at offsets
    # that are not multiples of 4
    arrays = [("note", pack_text("abc")), ("alpha", rng.normal(size=(3, 4))),
              ("empty", np.zeros((0, 2))), ("beta", rng.normal(size=5))]
    path = tmp_path / "blob.bin"
    write_container(path, "TST1", {"k": "v"}, arrays)
    alpha_at = path.stat().st_size - 4 * (12 + 0 + 5)  # alpha, empty, beta end the file
    assert alpha_at % 4
    _, got = read_container(path, "TST1")
    for name, arr in got:
        flags = arr.flags
        assert flags.owndata and flags.c_contiguous and flags.aligned, name
        assert flags.writeable, name
        arr[...] = 0


def test_container_magic_mismatch(tmp_path):
    path = tmp_path / "blob.bin"
    write_container(path, "AAA1", {}, [])
    with pytest.raises(FormatError, match="magic"):
        read_container(path, "BBB1")


def test_container_truncation_everywhere(tmp_path, rng):
    path = tmp_path / "blob.bin"
    write_container(path, "TST1", {"k": "v"},
                    [("m", rng.normal(size=(4, 4)).astype(np.float32))])
    blob = path.read_bytes()
    for cut in range(0, len(blob), max(1, len(blob) // 23)):
        bad = tmp_path / "cut.bin"
        bad.write_bytes(blob[:cut])
        with pytest.raises(FormatError):
            read_container(bad, "TST1")


def test_container_trailing_bytes(tmp_path):
    path = tmp_path / "blob.bin"
    write_container(path, "TST1", {}, [])
    path.write_bytes(path.read_bytes() + b"JUNK")
    with pytest.raises(FormatError, match="trailing"):
        read_container(path, "TST1")


def test_container_repeated_entry_name(tmp_path):
    path = tmp_path / "blob.bin"
    write_container(path, "TST1", {}, [("m", np.zeros(2, np.float32)),
                                       ("m", np.ones(2, np.float32))])
    with pytest.raises(FormatError, match="repeated entry 'm'"):
        read_container(path, "TST1")


def _one_entry_container(path, dtag: bytes, shape, payload: bytes = b"") -> None:
    """A TST1 container of one entry ``x`` whose manifest says ``dtag`` and
    ``shape``, followed by ``payload`` whatever its size."""
    path.write_bytes(b"\x04TST1" + struct.pack("<II", 0, 1) + struct.pack("<H", 1) + b"x"
                     + struct.pack("<B", len(dtag)) + dtag
                     + struct.pack(f"<B{len(shape)}I", len(shape), *shape) + payload)


@pytest.mark.parametrize("shape", [(2**32 - 1, 2**32 - 1), (4096, 4096)])
def test_container_shape_past_the_file_end_is_truncated_before_any_allocation(tmp_path, shape):
    path = tmp_path / "blob.bin"
    _one_entry_container(path, b"f4", shape, np.ones(8, np.float32).tobytes())
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="truncated file"):
            read_container(path, "TST1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the 64 MiB the second shape promises was never allocated


@pytest.mark.parametrize("shape", [(0,), (0, 5), (5, 0), (2, 0, 3)])
def test_container_empty_float_entry_loads(tmp_path, shape):
    path = tmp_path / "blob.bin"
    _one_entry_container(path, b"f4", shape)
    _, [(name, arr)] = read_container(path, "TST1")
    assert name == "x" and arr.shape == shape and arr.dtype == np.float32


def test_container_empty_entry_numpy_cannot_shape_is_a_format_error(tmp_path):
    # no bytes to read, but the product of the other dimensions overflows numpy's sizes
    path = tmp_path / "blob.bin"
    _one_entry_container(path, b"f4", (0, 2**32 - 1, 2**32 - 1, 2**32 - 1))
    with pytest.raises(FormatError, match="implausible shape"):
        read_container(path, "TST1")


@pytest.mark.parametrize("at", [0, -1], ids=["first", "last"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_container_rejects_a_nonfinite_first_or_last_value(tmp_path, value, at):
    arr = np.linspace(-1, 1, 37, dtype=np.float32).reshape(37, 1)
    arr[at] = value
    path = tmp_path / "blob.bin"
    write_container(path, "TST1", {}, [("ok", np.ones(3, np.float32)), ("x", arr)])
    with pytest.raises(FormatError, match="non-finite values in entry 'x'"):
        read_container(path, "TST1")


class FailingRead:
    """A file whose ``readinto`` fails as a bad disk would."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def readinto(self, buffer):
        raise OSError(5, "Input/output error")


def test_container_read_error_is_a_format_error(tmp_path, monkeypatch):
    path = tmp_path / "blob.bin"
    write_container(path, "TST1", {}, [("x", np.ones(3, np.float32))])
    real_open = open
    monkeypatch.setattr(container, "open", lambda *a, **kw: FailingRead(real_open(*a, **kw)),
                        raising=False)
    with pytest.raises(FormatError, match="cannot read .*Input/output error"):
        read_container(path, "TST1")


class DiskFull:
    """A file that takes 64 bytes or characters: the write that would go
    past them stops there."""

    def __init__(self, fh):
        self.fh = fh
        self.room = 64

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        if len(data) > self.room:
            self.fh.write(data[: self.room])
            self.room = 0
            raise OSError(28, "No space left on device")
        self.room -= len(data)
        return self.fh.write(data)


def fill_the_disk(monkeypatch, name=""):
    """Make every file the atomic writer opens whose name starts with
    ``name`` a DiskFull."""
    real_open = open

    def full_open(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        return DiskFull(fh) if os.path.basename(path).startswith(name) else fh

    monkeypatch.setattr(container, "open", full_open, raising=False)


def test_container_failed_write_keeps_the_previous_file(tmp_path, rng, monkeypatch):
    path = tmp_path / "blob.bin"
    write_container(path, "TST1", {"k": "v"},
                    [("m", rng.normal(size=(4, 4)).astype(np.float32))])
    before = path.read_bytes()
    fill_the_disk(monkeypatch)
    with pytest.raises(OSError, match="No space"):
        write_container(path, "TST1", {"k": "w"},
                        [("m", rng.normal(size=(8, 8)).astype(np.float32))])
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["blob.bin"]


def test_save_embeddings_failed_write_keeps_the_previous_file(tmp_path, rng, monkeypatch):
    path = tmp_path / "emb.txt"
    save_embeddings(EmbeddingTable(dim=4, vectors={
        f"w{i}": rng.normal(size=4).astype(np.float32) for i in range(5)}), path)
    before = path.read_bytes()
    fill_the_disk(monkeypatch)
    with pytest.raises(OSError, match="No space"):  # the first row stops part-way
        save_embeddings(EmbeddingTable(dim=4, vectors={
            "new": rng.normal(size=4).astype(np.float32)}), path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["emb.txt"]


def test_save_benchmark_tsv_failed_write_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "bench.tsv"
    item = EvalItem("car", ["the car on the road"], ["bike", "music"], [2.0, 1.0], 2)
    save_benchmark_tsv([item], path)
    before = path.read_bytes()
    fill_the_disk(monkeypatch)
    with pytest.raises(OSError, match="No space"):
        save_benchmark_tsv([item, item], path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["bench.tsv"]


def test_text_readers_leave_no_file_open(tmp_path, monkeypatch):
    (tmp_path / "corpus.txt").write_text("the car on the road\n")
    item = EvalItem("car", ["the car"], ["bike", "music"], [2.0, 1.0], 1)
    save_benchmark_tsv([item], tmp_path / "bench.tsv")
    (tmp_path / "run.cfg").write_text("steps = 3\n")
    unraisable = []  # a ResourceWarning raised while a file object is collected
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        prepare_corpus(tmp_path / "corpus.txt", min_count=1)
        load_benchmark_tsv(tmp_path / "bench.tsv")
        cli.load_config_file(tmp_path / "run.cfg")
        gc.collect()
    assert unraisable == []

@pytest.mark.parametrize("name", [cli.VOCAB_FILE, cli.SENTENCES_FILE, cli.SPLIT_FILE,
                                  cli.RUN_CONFIG_FILE])
def test_write_prepared_failed_write_keeps_the_previous_file(tmp_path, monkeypatch, name,
                                                            tiny_table):
    # a failed write to any file of a prepared directory replaces none of them
    sentences = [s.split() for s in (
        "the car has a wheel and an engine", "we like the car on the road",
        "the bike is on the road", "the piano and the violin make music",
        "the car and the bike share the road", "a band plays a song")]
    out = tmp_path / "prep"

    def prepare(token_lists, note):
        vocab = build_vocab(token_lists, min_count=1)
        store = SentenceStore.from_tokens(token_lists, vocab)
        cli.write_prepared(out, vocab, store, tiny_table,
                           {"command": "prepare", "note": note,
                            "tokenizer.strip_chars": cli.STRIP_CHARS})

    files = [cli.VOCAB_FILE, cli.SENTENCES_FILE, cli.SPLIT_FILE, cli.RUN_CONFIG_FILE]
    prepare(sentences, "first")
    before = {f: (out / f).read_bytes() for f in files}
    fill_the_disk(monkeypatch, name)
    with pytest.raises(OSError, match="No space"):
        prepare(sentences[::-1] + sentences, "second")
    monkeypatch.undo()
    assert {f: (out / f).read_bytes() for f in files} == before
    assert sorted(p.name for p in out.iterdir()) == sorted(files)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(name=st.sampled_from([cli.VOCAB_FILE, cli.SENTENCES_FILE, cli.RUN_CONFIG_FILE]),
       at=st.integers(0, 1000),
       byte=st.none() | st.sampled_from(b"-019\t\n ") | st.integers(0, 255))
def test_a_corrupted_prepared_directory_loads_or_is_a_typed_error(tmp_path_factory, name, at,
                                                                   byte):
    # one byte replaced (or, for byte None, the file cut there)
    out = tmp_path_factory.getbasetemp() / "corrupted-prep"
    sentences = [s.split() for s in ("the car has a wheel", "we like the car on the road",
                                     "the bike is on the road", "a band plays a song")]
    vocab = build_vocab(sentences, min_count=1)
    table = EmbeddingTable(dim=2, vectors={w: np.ones(2) for w in vocab.words})
    cli.write_prepared(out, vocab, SentenceStore.from_tokens(sentences, vocab), table,
                       {"command": "prepare", "min_count": "1"})
    blob = (out / name).read_bytes()
    at %= len(blob)
    (out / name).write_bytes(blob[:at] if byte is None
                             else blob[:at] + bytes([byte]) + blob[at + 1:])
    try:
        vocab, store, _ = cli.load_prepared(out)
    except OovForgeError:
        return
    assert len(set(vocab.words)) == len(vocab.words)
    assert all(0 <= t < len(vocab) for t in store.tokens.tolist())


@pytest.mark.parametrize("report", ["eval_summary.csv", "eval_items.csv", "chart.svg",
                                    "model.hice.csv"])
def test_cli_report_failed_write_keeps_the_previous_file(tmp_path, tiny_table, tiny_corpus,
                                                         monkeypatch, report):
    emb, out = tmp_path / "emb.txt", tmp_path / "out"
    save_embeddings(tiny_table, emb)
    out.mkdir()
    if report == "model.hice.csv":
        vocab, store = tiny_corpus
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("".join(" ".join(vocab.words[t] for t in s) + "\n"
                                  for s in sentences_of(store)))
        prep = tmp_path / "prep"
        assert cli.main(["prepare", str(corpus), str(emb), str(prep),
                         "--min-count", "1"]) == 0

        def run(steps):
            return cli.main(["train", str(prep), "--steps", steps, "--batch", "2",
                             "--val-every", "1", "--heads", "2",
                             "--out", str(out / "model.hice")])
    else:
        bench = tmp_path / "bench.tsv"
        save_benchmark_tsv([EvalItem("car", ["the car on the road", "we like the car"],
                                     ["bike", "music", "piano"], [3.0, 1.0, 2.0], 2)],
                           bench)

        def run(methods):
            return cli.main(["eval", str(bench), "--embeddings", str(emb),
                             "--methods", methods, "--out-dir", str(out),
                             "--svg", str(out / "chart.svg")])

    first, second = ("1", "2") if report == "model.hice.csv" else ("oracle", "oracle,additive")
    assert run(first) == 0
    before = (out / report).read_bytes()
    fill_the_disk(monkeypatch, report)
    assert run(second) != 0
    monkeypatch.undo()
    assert (out / report).read_bytes() == before
    assert not list(tmp_path.rglob("*.tmp"))


def test_container_rejects_nonfinite_floats(tmp_path):
    path = tmp_path / "blob.bin"
    arr = np.array([1.0, np.nan], dtype=np.float32)
    # bypass the Tensor-level checks: write raw bytes through the container
    import struct
    with open(path, "wb") as fh:
        tag = b"TST1"
        fh.write(struct.pack("<B", len(tag)) + tag)
        fh.write(struct.pack("<I", 0))
        fh.write(struct.pack("<I", 1))
        name = b"x"
        fh.write(struct.pack("<H", len(name)) + name)
        fh.write(struct.pack("<B", 2) + b"f4")
        fh.write(struct.pack("<B", 1) + struct.pack("<I", 2))
        fh.write(arr.tobytes())
    with pytest.raises(FormatError, match="non-finite"):
        read_container(path, "TST1")


def test_container_unknown_dtype_tag(tmp_path):
    import struct
    path = tmp_path / "blob.bin"
    with open(path, "wb") as fh:
        tag = b"TST1"
        fh.write(struct.pack("<B", len(tag)) + tag)
        fh.write(struct.pack("<I", 0))
        fh.write(struct.pack("<I", 1))
        fh.write(struct.pack("<H", 1) + b"x")
        fh.write(struct.pack("<B", 2) + b"f8")  # not a supported tag
        fh.write(struct.pack("<B", 0))
    with pytest.raises(FormatError, match="dtype"):
        read_container(path, "TST1")

