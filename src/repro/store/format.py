"""On-disk snapshot format: a manifest plus memmap-loadable arrays.

A snapshot is a *directory*:

``manifest.json``
    Small JSON header — format name, version, snapshot kind
    (``"graph"``; a reader names the kind it loads and refuses any
    other), a picklable-free ``payload`` of scalars/strings, and the
    declared ``dtype``/``shape`` of every array so loads can detect
    corruption before touching data.

``arrays/<key>.npy``
    One standard ``.npy`` file per array, written with :func:`np.save`
    and opened with ``np.load(mmap_mode="r")`` — loading a snapshot
    maps pages lazily instead of rebuilding or even reading the edge
    set, which is what makes :mod:`repro.store` loads O(header) rather
    than O(graph).

The manifest is written *last* (and atomically, via rename), so a
snapshot directory without a valid manifest is by definition an
interrupted or corrupt write and every reader rejects it with
:class:`StoreError`.

Read-only mapping doubles as a mutation guard: writes through a loaded
array raise ``ValueError: assignment destination is read-only`` instead
of silently corrupting the snapshot other processes may be serving.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "StoreError",
    "write_snapshot",
    "read_manifest",
    "open_array",
    "open_arrays",
]

FORMAT_NAME = "repro-store"
FORMAT_VERSION = 2

_ARRAY_DIR = "arrays"
_MANIFEST = "manifest.json"


class StoreError(RuntimeError):
    """A snapshot is missing, corrupt, or from an incompatible writer."""


def _array_path(root: Path, key: str) -> Path:
    if not key or any(ch in key for ch in "/\\.") or key.startswith("_"):
        raise StoreError(f"illegal array key {key!r}")
    return root / _ARRAY_DIR / f"{key}.npy"


def write_snapshot(
    path: str | os.PathLike,
    kind: str,
    payload: dict,
    arrays: dict[str, np.ndarray],
) -> None:
    """Write a snapshot directory (arrays first, manifest last).

    Args:
        path: snapshot directory; created if absent, manifest replaced
            if present.
        kind: snapshot kind tag (``"graph"``).
        payload: JSON-serialisable scalars describing the snapshot.
        arrays: name → array; each is saved as ``arrays/<name>.npy``.

    Raises:
        StoreError: on an illegal array key.
    """
    root = Path(path)
    (root / _ARRAY_DIR).mkdir(parents=True, exist_ok=True)
    manifest_arrays = {}
    for key, array in arrays.items():
        array = np.ascontiguousarray(array)
        np.save(_array_path(root, key), array)
        manifest_arrays[key] = {
            "dtype": array.dtype.str,
            "shape": list(array.shape),
        }
    manifest = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": kind,
        "payload": payload,
        "arrays": manifest_arrays,
    }
    tmp = root / (_MANIFEST + ".tmp")
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    os.replace(tmp, root / _MANIFEST)


def read_manifest(path: str | os.PathLike, kind: str | None = None) -> dict:
    """Read and validate a snapshot's manifest.

    Args:
        path: snapshot directory.
        kind: when given, also require this snapshot kind.

    Raises:
        StoreError: missing/unparseable manifest, wrong format name,
            version mismatch, or wrong kind.
    """
    root = Path(path)
    manifest_path = root / _MANIFEST
    if not manifest_path.is_file():
        raise StoreError(f"no snapshot manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise StoreError(f"unreadable snapshot manifest at {manifest_path}: {exc}")
    if manifest.get("format") != FORMAT_NAME:
        raise StoreError(
            f"{manifest_path} is not a {FORMAT_NAME} snapshot "
            f"(format={manifest.get('format')!r})"
        )
    if manifest.get("version") != FORMAT_VERSION:
        raise StoreError(
            f"snapshot version {manifest.get('version')!r} is not supported "
            f"by this reader (expected {FORMAT_VERSION})"
        )
    if kind is not None and manifest.get("kind") != kind:
        raise StoreError(
            f"snapshot at {root} holds a {manifest.get('kind')!r}, "
            f"expected a {kind!r}"
        )
    return manifest


def open_array(
    path: str | os.PathLike, manifest: dict, key: str
) -> np.ndarray:
    """Memory-map one declared array read-only, verifying its header.

    Raises:
        StoreError: undeclared key, missing file, corrupt/truncated
            data, or a dtype/shape that disagrees with the manifest.
    """
    root = Path(path)
    declared = manifest.get("arrays", {}).get(key)
    if declared is None:
        raise StoreError(f"snapshot at {root} declares no array {key!r}")
    file = _array_path(root, key)
    if not file.is_file():
        raise StoreError(f"snapshot array file missing: {file}")
    try:
        array = np.load(file, mmap_mode="r", allow_pickle=False)
    except Exception as exc:
        raise StoreError(f"corrupt snapshot array {file}: {exc}")
    if array.dtype.str != declared["dtype"] or list(array.shape) != declared["shape"]:
        raise StoreError(
            f"snapshot array {file} does not match its manifest entry "
            f"(got {array.dtype.str}{list(array.shape)}, declared "
            f"{declared['dtype']}{declared['shape']})"
        )
    return array


def open_arrays(
    path: str | os.PathLike, manifest: dict, keys: tuple[str, ...]
) -> dict[str, np.ndarray]:
    """Memory-map the named arrays read-only (see :func:`open_array`).

    Raises:
        StoreError: as :func:`open_array`, naming the first array the
            manifest does not declare.
    """
    from repro import telemetry

    with telemetry.time_block("store.mmap_attach"):
        return {key: open_array(path, manifest, key) for key in keys}
