"""Persist and reload :class:`SmallWorldGraph` snapshots.

:func:`save_graph` writes the graph's identifier vectors and its full
CSR edge set; :func:`load_graph` maps them back read-only without
rebuilding anything — the CSR arrays come straight off disk, the
per-peer ``long_links`` rows are a lazy
:class:`~repro.core.graph.LongLinkRows` sequence of slices into the
mapped ``indices`` array, and the identifier memmaps are reattached to
the dataclass after construction (``__post_init__``'s ``np.asarray``
would otherwise strip the ``np.memmap`` subclass and lose the
file-backing metadata the zero-copy parallel path serves workers from).
A load checks the row pointers and identifiers in O(n) vectorized
passes (plus the CSR's own O(E) target range check) and raises
:class:`~repro.store.format.StoreError` on a corrupt or hand-edited
snapshot instead of routing wrong.

Routing on a loaded graph is bit-identical to routing on the original:
``route_many(metric="key")`` consumes only ``ids``/``space``/CSR, all
of which round-trip exactly.  The one non-serialisable field is
``normalize`` (an arbitrary callable); pass it back via
``load_graph(..., normalize=...)`` when ``metric="normalized"`` routing
must also match.
"""

from __future__ import annotations

import os
from collections.abc import Callable

import numpy as np

from repro.core.adjacency import CSRAdjacency, neighbor_counts
from repro.core.graph import LongLinkRows, SmallWorldGraph
from repro.keyspace import IntervalSpace, RingSpace
from repro.store.format import StoreError, open_arrays, read_manifest, write_snapshot

__all__ = ["save_graph", "load_graph"]

_SPACES = {"interval": IntervalSpace, "ring": RingSpace}


def space_from_name(name: str):
    """Rebuild a key-space geometry from its persisted ``name`` tag."""
    cls = _SPACES.get(name)
    if cls is None:
        raise StoreError(f"unknown key-space name {name!r} in snapshot")
    return cls()


def _check_graph_arrays(ids: np.ndarray, indptr: np.ndarray, is_ring: bool) -> None:
    """Reject row pointers or identifiers a router would silently misread.

    Every row must start with its ring/interval neighbours (the lazy
    ``long_links`` rows skip exactly that many slots), so a row shorter
    than its neighbour count is as corrupt as a decreasing pointer.
    """
    if len(indptr) != len(ids) + 1:
        raise StoreError("indptr must have one entry per peer plus one")
    if indptr[0] != 0:
        raise StoreError("indptr[0] must be 0")
    degrees = np.diff(indptr)
    if np.any(degrees < 0):
        raise StoreError("indptr must be non-decreasing")
    if np.any(degrees < neighbor_counts(len(ids), is_ring)):
        raise StoreError("a row is shorter than its ring/interval neighbour count")
    if not np.all(np.diff(ids) > 0):
        raise StoreError("ids must be strictly increasing")


def save_graph(graph: SmallWorldGraph, path: str | os.PathLike) -> None:
    """Write ``graph`` as a versioned snapshot directory.

    Persists the identifier vectors and the flattened CSR edge set (the
    complete routing state); ``normalize`` callables are deliberately
    not serialised (see module docstring).

    Raises:
        StoreError: for a key space outside the shipped interval/ring
            geometries.
    """
    from repro import telemetry

    if graph.space.name not in _SPACES:
        raise StoreError(
            f"cannot persist graphs over key space {graph.space.name!r}"
        )
    csr = graph.adjacency
    with telemetry.time_block("store.save_graph"):
        write_snapshot(
            path,
            "graph",
            payload={
                "n": graph.n,
                "space": graph.space.name,
                "model": graph.model,
                "cutoff_mass": float(graph.cutoff_mass),
            },
            arrays={
                "ids": graph.ids,
                "normalized_ids": graph.normalized_ids,
                "indptr": csr.indptr,
                "indices": csr.indices,
                "is_long": csr.is_long,
            },
        )


def load_graph(
    path: str | os.PathLike,
    normalize: Callable[[float], float] = float,
) -> SmallWorldGraph:
    """Map a saved graph back without rebuilding its edge set.

    All arrays are read-only ``np.memmap`` views — mutation attempts
    raise, and the parallel dispatch layer can serve workers straight
    off the backing files with no copy.

    Args:
        path: snapshot directory written by :func:`save_graph`.
        normalize: the model's CDF callable, if ``metric="normalized"``
            routing is needed (not persisted; defaults to identity).

    Raises:
        StoreError: missing/corrupt snapshot, version/kind mismatch, or
            row pointers/identifiers that violate the CSR invariants.
    """
    from repro import telemetry

    with telemetry.time_block("store.load_graph"):
        manifest = read_manifest(path, kind="graph")
        payload = manifest["payload"]
        arrays = open_arrays(path, manifest)
    space = space_from_name(payload["space"])
    _check_graph_arrays(arrays["ids"], arrays["indptr"], space.is_ring)
    try:
        csr = CSRAdjacency(
            indptr=arrays["indptr"],
            indices=arrays["indices"],
            is_long=arrays["is_long"],
        )
    except ValueError as exc:
        raise StoreError(f"corrupt edge arrays: {exc}") from exc
    graph = SmallWorldGraph(
        ids=arrays["ids"],
        normalized_ids=arrays["normalized_ids"],
        long_links=LongLinkRows.from_csr(csr, space.is_ring),
        space=space,
        normalize=normalize,
        model=payload["model"],
        cutoff_mass=payload["cutoff_mass"],
    )
    # __post_init__'s np.asarray demoted the memmaps to plain ndarray
    # views; reattach the originals so downstream layers can see the
    # file backing (shape/dtype/data are identical either way).
    graph.ids = arrays["ids"]
    graph.normalized_ids = arrays["normalized_ids"]
    graph.__dict__["_adjacency"] = csr
    return graph
