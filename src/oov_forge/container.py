"""Binary container for model checkpoints and fitted baselines.

Layout (all integers little-endian):

    u8                      magic length
    magic bytes             ASCII tag, e.g. HICE1 / ALC1 / NGR1
    u32                     config block byte length
    config bytes            UTF-8 "key=value" lines
    u32                     number of manifest entries
    per entry:
        u16 + bytes         name (UTF-8)
        u8  + bytes         dtype tag: "f4" (float32) or "u1" (raw bytes)
        u8                  ndim
        ndim x u32          dims
    payloads                raw little-endian arrays, manifest order

Floats are always stored as float32; "u1" entries carry UTF-8 side data
(e.g. the word list of a frozen embedding block). Any truncation, magic
mismatch, or unknown dtype raises FormatError - never a bare crash.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager

import numpy as np

from .errors import FormatError

_DTYPES = {"f4": np.dtype("<f4"), "u1": np.dtype("u1")}


def _encode_config(config: dict[str, str]) -> bytes:
    lines = []
    for key, value in config.items():
        if "\n" in key or "=" in key:
            raise FormatError(f"bad config key: {key!r}")
        if "\n" in str(value):
            raise FormatError(f"config value for {key!r} contains a newline")
        lines.append(f"{key}={value}")
    return ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")


def _decode_config(blob: bytes) -> dict[str, str]:
    config = {}
    for line in blob.decode("utf-8").splitlines():
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"config line without '=': {line!r}")
        key, value = line.split("=", 1)
        config[key] = value
    return config


@contextmanager
def atomic_open(path, mode: str = "wb", **kwargs):
    """Open a temporary file beside ``path`` for writing and rename it into
    place once the block completes, so a failed write leaves any previous
    file untouched and no temporary file behind."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_container(path, magic: str, config: dict[str, str],
                    arrays: list[tuple[str, np.ndarray]]) -> None:
    with atomic_open(path) as fh:
        _write_body(fh, magic, config, arrays)


def _write_body(fh, magic: str, config: dict[str, str],
                arrays: list[tuple[str, np.ndarray]]) -> None:
    tag = magic.encode("ascii")
    fh.write(struct.pack("<B", len(tag)))
    fh.write(tag)
    blob = _encode_config(config)
    fh.write(struct.pack("<I", len(blob)))
    fh.write(blob)
    fh.write(struct.pack("<I", len(arrays)))
    prepared = []
    for name, arr in arrays:
        if arr.dtype == np.uint8:
            data = np.ascontiguousarray(arr)
            tagd = "u1"
        else:
            data = np.ascontiguousarray(arr, dtype="<f4")
            tagd = "f4"
        prepared.append(data)
        nb = name.encode("utf-8")
        fh.write(struct.pack("<H", len(nb)))
        fh.write(nb)
        db = tagd.encode("ascii")
        fh.write(struct.pack("<B", len(db)))
        fh.write(db)
        fh.write(struct.pack("<B", data.ndim))
        for dim in data.shape:
            fh.write(struct.pack("<I", dim))
    for data in prepared:
        fh.write(data.tobytes())


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise FormatError(f"{self.path}: truncated file")
        chunk = self.blob[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u8(self) -> int:
        return struct.unpack("<B", self.take(1))[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def read_container(path, expected_magic: str):
    """-> (config dict, list of (name, ndarray)). Floats come back float32."""
    try:
        blob = open(path, "rb").read()
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}") from e
    r = _Reader(blob, path)
    magic = r.take(r.u8()).decode("ascii", errors="replace")
    if magic != expected_magic:
        raise FormatError(
            f"{path}: magic mismatch: expected {expected_magic!r}, found {magic!r}"
        )
    config = _decode_config(r.take(r.u32()))
    n_entries = r.u32()
    if n_entries > 1_000_000:
        raise FormatError(f"{path}: implausible manifest size {n_entries}")
    manifest = []
    for _ in range(n_entries):
        name = r.take(r.u16()).decode("utf-8")
        dtag = r.take(r.u8()).decode("ascii")
        if dtag not in _DTYPES:
            raise FormatError(f"{path}: unknown dtype tag {dtag!r}")
        ndim = r.u8()
        shape = tuple(r.u32() for _ in range(ndim))
        manifest.append((name, dtag, shape))
    arrays = []
    for name, dtag, shape in manifest:
        dt = _DTYPES[dtag]
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        raw = r.take(count * dt.itemsize)
        arr = np.frombuffer(raw, dtype=dt).reshape(shape).copy()
        if dtag == "f4" and not np.isfinite(arr).all():
            raise FormatError(f"{path}: non-finite values in entry {name!r}")
        arrays.append((name, arr))
    if r.pos != len(blob):
        raise FormatError(f"{path}: {len(blob) - r.pos} trailing bytes")
    return config, arrays


def pack_text(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8).copy()


def unpack_text(arr: np.ndarray) -> str:
    return arr.tobytes().decode("utf-8")
