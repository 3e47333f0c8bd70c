"""Binary container for named float64 tensors.

Layout (all little-endian):

    magic "ROAR" | version u32 | tensor count u32
    per tensor: name length u32 | UTF-8 name | rank u32 | dims u64 each
                | row-major f64 payload

The binary holds no timestamps or other volatile fields, so identical
tensor dicts serialize to identical bytes; provenance (config, seed, step,
creation time) lives in a JSON sidecar next to the checkpoint.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"ROAR"
VERSION = 1

__all__ = ["save_tensors", "load_tensors", "save_sidecar", "load_sidecar", "content_hash"]


class CheckpointError(IOError):
    """Malformed or incompatible checkpoint file."""


def save_tensors(path: str | Path, tensors: dict[str, np.ndarray]) -> None:
    """Write a name -> array mapping. Iteration order is preserved."""
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(tensors)))
        for name, arr in tensors.items():
            arr = np.asarray(arr, dtype=np.float64, order="C")  # keeps a rank-0 array rank 0
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack("<%dQ" % arr.ndim, *arr.shape))
            fh.write(arr.tobytes(order="C"))


def load_tensors(path: str | Path) -> dict[str, np.ndarray]:
    """Read a ``save_tensors`` file; a short read, trailing byte or NaN/inf is a CheckpointError."""
    path = Path(path)
    if path.is_dir():
        raise CheckpointError(f"{path}: a directory, not a tensor container")
    with open(path, "rb") as fh:
        left = os.fstat(fh.fileno()).st_size

        def read(n: int, what: str) -> bytes:
            nonlocal left
            if n > left:
                raise CheckpointError(f"{path}: truncated {what}")
            left -= n
            return fh.read(n)

        magic = read(4, "header")
        if magic != MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r}")
        version, count = struct.unpack("<II", read(8, "header"))
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        out: dict[str, np.ndarray] = {}
        for i in range(count):
            (name_len,) = struct.unpack("<I", read(4, f"name of tensor {i}"))
            try:
                name = read(name_len, f"name of tensor {i}").decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(f"{path}: name of tensor {i} is not UTF-8") from None
            (rank,) = struct.unpack("<I", read(4, f"rank of {name!r}"))
            dims = struct.unpack("<%dQ" % rank, read(8 * rank, f"dims of {name!r}"))
            payload = read(8 * math.prod(dims), f"payload for {name!r}")
            arr = np.frombuffer(payload, dtype="<f8").reshape(dims)
            if not np.isfinite(arr).all():
                raise CheckpointError(f"{path}: non-finite values in {name!r}")
            out[name] = arr.copy()
        if left:
            raise CheckpointError(f"{path}: {left} trailing bytes after the last tensor")
        return out


def save_sidecar(path: str | Path, meta: dict) -> None:
    """JSON sidecar (<checkpoint>.json). Volatile fields belong here."""
    Path(str(path) + ".json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_sidecar(path: str | Path) -> dict:
    """Read <path>.json; a directory or anything but a JSON object is a CheckpointError."""
    side = Path(str(path) + ".json")
    if side.is_dir():
        raise CheckpointError(f"{side}: a directory, not a sidecar")
    try:
        meta = json.loads(side.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise CheckpointError(f"{side}: {exc}") from None
    if not isinstance(meta, dict):
        raise CheckpointError(f"{side}: not a JSON object")
    return meta


def content_hash(obj) -> str:
    """Stable hash of a JSON-serializable object (config provenance)."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]
