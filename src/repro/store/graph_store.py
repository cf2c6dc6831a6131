"""Persist and reload :class:`SmallWorldGraph` snapshots.

:func:`save_graph` writes four arrays: the graph's identifier vectors
(``ids``, ``normalized_ids``) and its CSR edge set (``indptr``,
``indices``).  The neighbour/long split is not stored: every graph row
starts with its ring/interval neighbours (:mod:`repro.core.adjacency`),
so :func:`load_graph` derives each row's ``long_start`` from ``n`` and
the key space, and a snapshot cannot carry a second, disagreeing copy
of it.  :func:`load_graph` maps the arrays back read-only without
rebuilding anything — the CSR arrays come straight off disk, the
per-peer ``long_links`` rows are a lazy
:class:`~repro.core.graph.LongLinkRows` sequence of slices into the
mapped ``indices`` array, and the identifier memmaps are reattached to
the dataclass after construction (``__post_init__``'s ``np.asarray``
would otherwise strip the ``np.memmap`` subclass and hide that the
arrays are views of the snapshot files).
A load checks that the manifest holds the four arrays and the payload
keys a graph needs, then the row pointers and identifiers in O(n)
vectorized passes (plus the CSR's own O(E) target range check; the ids
pass is the graph constructor's) and raises
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
from repro.core.graph import SmallWorldGraph
from repro.keyspace import IntervalSpace, RingSpace
from repro.store.format import StoreError, open_arrays, read_manifest, write_snapshot

__all__ = ["save_graph", "load_graph"]

_SPACES = {"interval": IntervalSpace, "ring": RingSpace}

#: What every graph snapshot holds: its arrays and its payload keys.
_ARRAYS = ("ids", "normalized_ids", "indptr", "indices")
_PAYLOAD = ("n", "space", "model", "cutoff_mass")


def space_from_name(name: str):
    """Rebuild a key-space geometry from its persisted ``name`` tag."""
    cls = _SPACES.get(name)
    if cls is None:
        raise StoreError(f"unknown key-space name {name!r} in snapshot")
    return cls()


def _long_start(ids: np.ndarray, indptr: np.ndarray, is_ring: bool) -> np.ndarray:
    """Check the row pointers; return each row's ``long_start``.

    The row pointers need ``n + 1`` entries, starting at 0, never
    decreasing.  Every row starts with its ring/interval neighbours, so
    its long links begin that many slots in, and a row shorter than its
    neighbour count is as corrupt as a decreasing pointer.

    Raises:
        StoreError: for row pointers a router would silently misread.
    """
    if len(indptr) != len(ids) + 1:
        raise StoreError("indptr must have one entry per peer plus one")
    if indptr[0] != 0:
        raise StoreError("indptr[0] must be 0")
    degrees = np.diff(indptr)
    if np.any(degrees < 0):
        raise StoreError("indptr must be non-decreasing")
    nbr_counts = neighbor_counts(len(ids), is_ring)
    if np.any(degrees < nbr_counts):
        raise StoreError("a row is shorter than its ring/interval neighbour count")
    return indptr[:-1] + nbr_counts


def save_graph(graph: SmallWorldGraph, path: str | os.PathLike) -> None:
    """Write ``graph`` as a versioned snapshot directory.

    Persists the identifier vectors and the CSR's ``indptr`` and
    ``indices`` (the complete routing state; the neighbour/long split is
    derived on load); ``normalize`` callables are deliberately not
    serialised (see module docstring).

    Raises:
        StoreError: for a key space outside the shipped interval/ring
            geometries, or rows whose long links do not begin right
            after their ring/interval neighbours (a split the load could
            not derive back).
    """
    from repro import telemetry

    if graph.space.name not in _SPACES:
        raise StoreError(
            f"cannot persist graphs over key space {graph.space.name!r}"
        )
    csr = graph.adjacency
    nbr_counts = neighbor_counts(graph.n, graph.space.is_ring)
    if not np.array_equal(csr.long_start - csr.indptr[:-1], nbr_counts):
        raise StoreError(
            "cannot persist rows whose long links do not start after their "
            "ring/interval neighbours"
        )
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
            },
        )


def load_graph(
    path: str | os.PathLike,
    normalize: Callable[[float], float] = float,
) -> SmallWorldGraph:
    """Map a saved graph back without rebuilding its edge set.

    All arrays are read-only ``np.memmap`` views of the snapshot files
    — mutation attempts raise, and nothing is copied into memory.

    Args:
        path: snapshot directory written by :func:`save_graph`.
        normalize: the model's CDF callable, if ``metric="normalized"``
            routing is needed (not persisted; defaults to identity).

    Raises:
        StoreError: missing/corrupt snapshot, version/kind mismatch, a
            manifest without one of the four arrays or payload keys a
            graph needs, row pointers that violate the CSR invariants,
            or identifiers that break the peer-id rule
            (:func:`repro.keyspace.check_peer_ids`, which the graph's
            constructor runs).
    """
    from repro import telemetry

    with telemetry.time_block("store.load_graph"):
        manifest = read_manifest(path, kind="graph")
        payload = manifest.get("payload", {})
        for key in _PAYLOAD:
            if key not in payload:
                raise StoreError(f"snapshot at {path} has no payload key {key!r}")
        arrays = open_arrays(path, manifest, _ARRAYS)
    space = space_from_name(payload["space"])
    long_start = _long_start(arrays["ids"], arrays["indptr"], space.is_ring)
    try:
        csr = CSRAdjacency(
            indptr=arrays["indptr"],
            indices=arrays["indices"],
            long_start=long_start,
        )
    except ValueError as exc:
        raise StoreError(f"corrupt edge arrays: {exc}") from exc
    try:
        graph = SmallWorldGraph(
            ids=arrays["ids"],
            normalized_ids=arrays["normalized_ids"],
            adjacency=csr,
            space=space,
            normalize=normalize,
            model=payload["model"],
            cutoff_mass=payload["cutoff_mass"],
        )
    except ValueError as exc:
        raise StoreError(str(exc)) from exc
    # __post_init__'s np.asarray demoted the memmaps to plain ndarray
    # views; reattach the originals so downstream layers can see the
    # file backing (shape/dtype/data are identical either way).
    graph.ids = arrays["ids"]
    graph.normalized_ids = arrays["normalized_ids"]
    return graph
