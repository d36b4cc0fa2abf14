"""Serialization round-trips and corruption handling for every on-disk
format: the binary container, checkpoints, embedding tables, benchmark TSVs,
and attention reports. Corruption must always surface as FormatError (or
IngestionError for unreadable text), never as an unhandled crash."""

import numpy as np
import pytest

from oov_forge import container
from oov_forge.container import (pack_text, read_container, unpack_text,
                                 write_container)
from oov_forge.errors import FormatError
from oov_forge.model import AttentionReport, parse_attention_report


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


def test_container_failed_write_keeps_the_previous_file(tmp_path, rng, monkeypatch):
    path = tmp_path / "blob.bin"
    write_container(path, "TST1", {"k": "v"},
                    [("m", rng.normal(size=(4, 4)).astype(np.float32))])
    before = path.read_bytes()
    real_open = open

    class DiskFull:
        """A file whose first payload-sized write stops half-way."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            if len(data) >= 64:
                self.fh.write(data[: len(data) // 2])
                raise OSError(28, "No space left on device")
            return self.fh.write(data)

    monkeypatch.setattr(container, "open",
                        lambda *a, **kw: DiskFull(real_open(*a, **kw)), raising=False)
    with pytest.raises(OSError, match="No space"):
        write_container(path, "TST1", {"k": "w"},
                        [("m", rng.normal(size=(8, 8)).astype(np.float32))])
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["blob.bin"]


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


def test_attention_report_parse_rejects_garbage():
    with pytest.raises(FormatError):
        parse_attention_report("not a report\nat all")
    report = AttentionReport(
        word="w",
        context_tokens=[["a", "<mask>"]],
        context_matrices=[[np.array([[0.5, 0.5], [0.25, 0.75]])]],
        aggregator_matrices=[np.array([[1.0]])],
    )
    text = report.render()
    assert parse_attention_report(text).word == "w"
    broken = "\n".join(text.splitlines()[:4])
    with pytest.raises(FormatError):
        parse_attention_report(broken)


def test_attention_report_roundtrip_bitexact(rng):
    mats = [rng.random((3, 3)) for _ in range(2)]
    report = AttentionReport(
        word="scooter",
        context_tokens=[["we", "<mask>", "ride"]],
        context_matrices=[mats],
        aggregator_matrices=[rng.random((1, 1))],
    )
    back = parse_attention_report(report.render())
    for a, b in zip(back.context_matrices[0], mats):
        assert np.array_equal(a, b)
    assert np.array_equal(back.aggregator_matrices[0],
                          report.aggregator_matrices[0])
