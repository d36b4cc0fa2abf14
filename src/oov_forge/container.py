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

import io
import math
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


def config_value(config: dict[str, str], key: str, parse=str,
                 default: str | None = None):
    """``parse`` of the value of ``key``, or of ``default`` when the key is
    absent; a missing key or a value ``parse`` rejects is a FormatError
    naming the key."""
    value = config.get(key, default)
    if value is None:
        raise FormatError(f"config: missing {key!r}")
    try:
        return parse(value)
    except ValueError:
        raise FormatError(f"config: cannot parse {key}={value!r}") from None


def _decode_config(blob: bytes) -> dict[str, str]:
    config = {}
    for line in _utf8(blob, "config block").splitlines():
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
    tag, blob = magic.encode("ascii"), _encode_config(config)
    head = [struct.pack("<B", len(tag)), tag, struct.pack("<I", len(blob)), blob,
            struct.pack("<I", len(arrays))]
    payloads = []
    for name, arr in arrays:
        raw = arr.dtype == np.uint8
        data = np.ascontiguousarray(arr, dtype=None if raw else "<f4")
        nb, db = name.encode("utf-8"), b"u1" if raw else b"f4"
        head += [struct.pack("<H", len(nb)), nb, struct.pack("<B", len(db)), db,
                 struct.pack(f"<B{data.ndim}I", data.ndim, *data.shape)]
        payloads.append(data.reshape(-1).view(np.uint8))  # the array's bytes, not a copy
    with atomic_open(path) as fh:
        fh.write(b"".join(head))
        for payload in payloads:
            fh.write(payload)


def _utf8(raw, what: str) -> str:
    try:
        return str(raw, "utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{what}: invalid UTF-8 at byte {e.start}") from None


def read_container(path, expected_magic: str):
    """-> (config dict, list of (name, ndarray)). Floats come back float32,
    and each payload is read straight into memory its array owns."""
    try:
        with open(path, "rb") as fh:
            left = os.fstat(fh.fileno()).st_size  # bytes not yet read
            if not left:  # a pipe: its size is known once it is read
                fh = io.BytesIO(fh.read())
                left = len(fh.getvalue())

            def take(n: int) -> bytes:
                nonlocal left  # a corrupt length must not make read() allocate it
                if n > left or len(chunk := fh.read(n)) != n:
                    raise FormatError(f"{path}: truncated file")
                left -= n
                return chunk

            def uint(n: int) -> int:
                return int.from_bytes(take(n), "little")

            magic = str(take(uint(1)), "ascii", "replace")
            if magic != expected_magic:
                raise FormatError(
                    f"{path}: magic mismatch: expected {expected_magic!r}, found {magic!r}"
                )
            config = _decode_config(take(uint(4)))
            n_entries = uint(4)
            if n_entries > 1_000_000:
                raise FormatError(f"{path}: implausible manifest size {n_entries}")
            manifest, names = [], set()
            for _ in range(n_entries):
                name = _utf8(take(uint(2)), f"{path}: entry name")
                dtag = str(take(uint(1)), "ascii", "replace")
                if dtag not in _DTYPES:
                    raise FormatError(f"{path}: unknown dtype tag {dtag!r}")
                ndim = uint(1)
                shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
                if name in names:
                    raise FormatError(f"{path}: repeated entry {name!r}")
                names.add(name)
                manifest.append((name, _DTYPES[dtag], shape))
            need = sum(math.prod(shape) * dt.itemsize for _, dt, shape in manifest)
            if need > left:  # in exact integers, before any allocation
                raise FormatError(f"{path}: truncated file")
            arrays = []
            for name, dt, shape in manifest:
                try:
                    arr = np.empty(shape, dtype=dt)
                except ValueError:  # a zero beside dimensions whose product overflows
                    raise FormatError(f"{path}: implausible shape {shape} of {name!r}") from None
                if fh.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
                    raise FormatError(f"{path}: truncated file")  # it shrank as we read it
                # min and max propagate NaN and show an infinity, with no temporary array
                if dt.kind == "f" and arr.size and not np.isfinite([arr.min(), arr.max()]).all():
                    raise FormatError(f"{path}: non-finite values in entry {name!r}")
                arrays.append((name, arr))
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}") from e
    if left > need:
        raise FormatError(f"{path}: {left - need} trailing bytes")
    return config, arrays


def pack_text(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8).copy()


def unpack_text(arr: np.ndarray) -> str:
    return _utf8(arr.tobytes(), "text entry")
