"""Artifact writers: the versioned binary container for parameters and
feature caches, and the JSON text files.

Container layout: 4-byte magic, big-endian uint32 header length, a
sorted-keys JSON header (metadata plus an array index), then the raw
array payload.  JSON artifacts (run manifests, split, correlation and
attack manifests) all go through :func:`write_json`: sorted keys, indent
2, trailing newline.  Writing the same content twice produces identical
bytes, which the reproducibility checks rely on.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

MAGIC = b"DENS"
FORMAT_VERSION = 1

__all__ = ["write_container", "read_container", "write_json", "FORMAT_VERSION"]


def write_container(path: str | Path, header: dict, arrays: dict[str, np.ndarray]) -> None:
    index = []
    chunks = []
    offset = 0
    for name, arr in arrays.items():
        buf = np.ascontiguousarray(arr).tobytes()
        index.append(
            {
                "name": name,
                "dtype": np.asarray(arr).dtype.str,
                "shape": list(np.asarray(arr).shape),
                "offset": offset,
                "nbytes": len(buf),
            }
        )
        chunks.append(buf)
        offset += len(buf)
    meta = {"format_version": FORMAT_VERSION, **header, "arrays": index}
    hjson = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack(">I", len(hjson)))
        fh.write(hjson)
        for buf in chunks:
            fh.write(buf)


def read_container(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8 or blob[:4] != MAGIC:
        raise ValueError(f"{path}: not a recognized container file")
    (hlen,) = struct.unpack(">I", blob[4:8])
    if len(blob) < 8 + hlen:
        raise ValueError(f"{path}: truncated container header")
    try:
        meta = json.loads(blob[8 : 8 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: corrupt container header: {exc}") from None
    if meta.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported format version {meta.get('format_version')!r}"
        )
    payload = blob[8 + hlen :]
    arrays: dict[str, np.ndarray] = {}
    for entry in meta["arrays"]:
        start, nbytes = entry["offset"], entry["nbytes"]
        if start + nbytes > len(payload):
            raise ValueError(f"{path}: truncated container payload")
        arr = np.frombuffer(
            payload[start : start + nbytes], dtype=np.dtype(entry["dtype"])
        ).reshape(entry["shape"])
        arrays[entry["name"]] = arr.copy()
    header = {k: v for k, v in meta.items() if k != "arrays"}
    return header, arrays


def write_json(path: str | Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")
