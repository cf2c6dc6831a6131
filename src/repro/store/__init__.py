"""Persistent graph store: versioned on-disk CSR snapshots, mmap-backed.

Building a large overlay is minutes of work; serving lookups over it
needs none of that work repeated.  This package snapshots built
small-world graphs into directories of plain ``.npy`` arrays plus a
JSON manifest, and loads them back as read-only ``np.memmap`` views:
O(header) load time, zero rebuild, zero copy, and bit-identical
routing through the same CSR + metric frontier contract the live
graph exposes.

* :func:`save_graph` / :func:`load_graph` — :class:`SmallWorldGraph`
  snapshots (identifier vectors + the CSR's ``indptr``/``indices``;
  format version 2 stores no neighbour/long flags, the load derives
  each row's split from ``n`` and the key space).
* :class:`StoreError` — every failure mode (missing, corrupt,
  truncated, version/kind mismatch) surfaces as this one exception.
"""

from repro.store.format import (
    FORMAT_NAME,
    FORMAT_VERSION,
    StoreError,
    read_manifest,
    write_snapshot,
)
from repro.store.graph_store import load_graph, save_graph

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "StoreError",
    "read_manifest",
    "write_snapshot",
    "save_graph",
    "load_graph",
]
