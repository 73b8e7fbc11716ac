"""Artifact files: every write goes through here, as does every CSV read.

:func:`write_bytes` writes ``<name>.tmp`` beside the target and renames it
over the target, so a killed process leaves the old file (or none), never
a half-written one; there is no fsync, so this does not cover power loss.
Writing the same content twice produces identical bytes, which the
reproducibility checks rely on.

Container layout: 4-byte magic, big-endian uint32 header length, a
sorted-keys JSON header (metadata plus an array index), then the raw
array payload.  JSON artifacts (run manifests, split, correlation and
attack manifests): sorted keys, indent 2, trailing newline.  CSV artifacts
(dataset manifest, loss curves, attacked-set index, report): the default
``csv`` dialect, so lines end in ``\r\n``; a bad row fails as ``path:line``.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"DENS"
FORMAT_VERSION = 1

__all__ = ["write_bytes", "write_container", "read_container", "write_json", "read_json",
           "write_csv", "read_csv", "digest", "FORMAT_VERSION"]


def write_bytes(path: str | Path, data: bytes) -> bytes:
    """Write `data` whole, creating the parent directory: into
    ``<name>.tmp`` first, then renamed over `path`.  Returns `data`."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)
    return data


def write_container(path: str | Path, header: dict, arrays: dict[str, np.ndarray]) -> bytes:
    index = []
    chunks = []
    offset = 0
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        buf = np.ascontiguousarray(arr).tobytes()
        index.append({"name": name, "dtype": arr.dtype.str, "shape": list(arr.shape),
                      "offset": offset, "nbytes": len(buf)})
        chunks.append(buf)
        offset += len(buf)
    meta = {"format_version": FORMAT_VERSION, **header, "arrays": index}
    hjson = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return write_bytes(path, b"".join([MAGIC, struct.pack(">I", len(hjson)), hjson, *chunks]))


def read_container(path: str | Path, blob: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """Parse `blob`, the bytes read from `path`, which names the file in errors."""
    if len(blob) < 8 or blob[:4] != MAGIC:
        raise ValueError(f"{path}: not a recognized container file")
    (hlen,) = struct.unpack(">I", blob[4:8])
    if len(blob) < 8 + hlen:
        raise ValueError(f"{path}: truncated container header")
    try:
        meta = json.loads(blob[8 : 8 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: corrupt container header: {exc}") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: bad container header: not a JSON object")
    if meta.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {meta.get('format_version')!r}")
    payload = blob[8 + hlen :]
    arrays: dict[str, np.ndarray] = {}
    try:  # a missing field, a negative span, a bad dtype or a shape the bytes do not fill
        for entry in meta["arrays"]:
            start, nbytes = entry["offset"], entry["nbytes"]
            if min(start, nbytes) < 0:
                raise ValueError(f"array {entry['name']!r} has a negative offset or size")
            if start + nbytes > len(payload):
                raise EOFError
            arr = np.frombuffer(payload[start : start + nbytes], dtype=np.dtype(entry["dtype"]))
            arrays[entry["name"]] = arr.reshape(entry["shape"]).copy()
    except EOFError:
        raise ValueError(f"{path}: truncated container payload") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad container header: {exc}") from None
    header = {k: v for k, v in meta.items() if k != "arrays"}
    return header, arrays


def write_json(path: str | Path, obj) -> None:
    write_bytes(path, (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("utf-8"))


def read_json(path: str | Path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # bad JSON, or bytes that are not text
        raise ValueError(f"{path}: invalid JSON: {exc}") from None


def write_csv(path: str | Path, header: list[str], rows) -> None:
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    write_bytes(path, buf.getvalue().encode("utf-8"))


def read_csv(path: str | Path, header: list[str]) -> list[tuple[int, list[str]]]:
    """(line, row) pairs after `header`; a bad header, no rows, a bad width, a
    line that csv cannot parse or bytes that are not UTF-8 fail."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != list(header):
                raise ValueError(f"{path}: header must be {','.join(header)}")
            rows = [(reader.line_num, row) for row in reader]
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not UTF-8 text") from None
    except csv.Error as exc:  # a malformed line, such as a field over csv's size limit
        raise ValueError(f"{path}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no records")
    for ln, row in rows:
        if len(row) != len(header):
            raise ValueError(f"{path}:{ln}: expected {len(header)} columns, got {len(row)}")
    return rows


def digest(*parts) -> str:
    """sha256 hex over content only, never paths or times: an array by its
    dtype, shape and bytes, a dataclass by its fields, anything else as
    sorted-keys JSON; each part is prefixed with its length."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            blob = f"{part.dtype.str}{part.shape}".encode() + np.ascontiguousarray(part).tobytes()
        else:
            part = dataclasses.asdict(part) if dataclasses.is_dataclass(part) else part
            blob = json.dumps(part, sort_keys=True).encode("utf-8")
        h.update(struct.pack(">Q", len(blob)) + blob)
    return h.hexdigest()
