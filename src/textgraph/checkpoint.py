"""Checkpoint files: named float64 arrays in one binary blob plus a JSON manifest.

A checkpoint `foo` is two files: `foo.bin` (raw little-endian float64 values,
arrays back to back in manifest order) and `foo.json` (array names, shapes,
offsets, and a free-form `meta` dict).  The suffixes are appended to the whole
stem, so `ck/model.v1` and `ck/model.v2` are two checkpoints.  Arrays load
back C-ordered.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import LoadError

FORMAT_TAG = "textgraph-checkpoint-v1"


def checkpoint_stem(path) -> Path:
    """The path a checkpoint's files share, without a `.bin` or `.json` suffix."""
    p = Path(path)
    if p.suffix in (".bin", ".json"):
        p = p.with_suffix("")
    return p


def save_checkpoint(path, arrays: dict[str, np.ndarray], meta: dict | None = None) -> Path:
    """Write arrays (name -> ndarray) and meta; returns the manifest path."""
    stem = checkpoint_stem(path)
    stem.parent.mkdir(parents=True, exist_ok=True)
    entries = []
    offset = 0
    with open(f"{stem}.bin", "wb") as fh:
        for name in sorted(arrays):
            arr = np.ascontiguousarray(arrays[name], dtype=np.float64)
            fh.write(arr.astype("<f8", copy=False).tobytes())
            entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
            offset += arr.size
    manifest = {"format": FORMAT_TAG, "meta": meta or {}, "arrays": entries}
    manifest_path = Path(f"{stem}.json")
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return manifest_path


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read back (arrays, meta).  Raises LoadError on missing, malformed or
    inconsistent files, and on an array holding a NaN or an infinity."""
    stem = checkpoint_stem(path)
    manifest_path = Path(f"{stem}.json")
    bin_path = Path(f"{stem}.bin")
    if not manifest_path.exists():
        raise LoadError(f"{manifest_path}: not found")
    if not bin_path.exists():
        raise LoadError(f"{bin_path}: not found")
    with open(manifest_path, encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as e:
            raise LoadError(f"{manifest_path}: bad JSON ({e})") from e
        except UnicodeDecodeError as e:
            raise LoadError(f"{manifest_path}: not UTF-8 text ({e.reason})") from None
    if not isinstance(manifest, dict):
        raise LoadError(f"{manifest_path}: not a JSON object")
    if manifest.get("format") != FORMAT_TAG:
        raise LoadError(f"{manifest_path}: unknown format {manifest.get('format')!r}")
    entries, meta = manifest.get("arrays"), manifest.get("meta", {})
    if not isinstance(entries, list) or not isinstance(meta, dict):
        raise LoadError(f"{manifest_path}: needs an 'arrays' list and a 'meta' object")
    flat = np.fromfile(bin_path, dtype="<f8")
    arrays: dict[str, np.ndarray] = {}
    offset = 0  # arrays are stored back to back, in manifest order
    for i, entry in enumerate(entries):
        fields = entry if isinstance(entry, dict) else {}
        name, shape, at = (fields.get(k) for k in ("name", "shape", "offset"))
        if not (isinstance(name, str) and name not in arrays
                and isinstance(shape, list)
                and all(type(d) is int and d >= 0 for d in shape)
                and type(at) is int and at == offset):
            raise LoadError(f"{manifest_path}: array entry {i} needs an unused "
                            f"string name, a shape of non-negative ints and "
                            f"offset {offset}, got {entry!r}")
        n = math.prod(shape)
        chunk = flat[offset:offset + n]
        if chunk.size != n:
            raise LoadError(f"{bin_path}: array '{name}' truncated")
        if not np.isfinite(chunk).all():
            raise LoadError(f"{bin_path}: array '{name}' holds a non-finite value")
        arrays[name] = chunk.astype(np.float64).reshape(shape)
        offset += n
    if flat.size != offset:
        raise LoadError(f"{bin_path}: size {flat.size} values, manifest expects {offset}")
    return arrays, meta
