"""Persist and reload baseline overlays through the CSR + metric contract.

Every comparator (:mod:`repro.baselines`) already exposes its complete
routing state as a ``(CSRAdjacency, RoutingMetric)`` pair — the same
pair the batch frontier kernel consumes.  :func:`save_overlay` writes
exactly that pair (plus the per-peer table sizes and identifiers), and
:func:`load_overlay` rebuilds a :class:`LoadedOverlay` that routes
bit-identically to the original through the shared kernel, without
reconstructing fingers, tries, zones or leaf sets.

Unlike the worker-side codec in :mod:`repro.parallel.dispatch` (which
ships score-only metrics because ``prepare`` ran in the parent), this
codec is *full fidelity*: owner structures (CAN's BSP tree), key
transforms and space geometries round-trip, so a loaded overlay can
prepare fresh batches on its own.  Key transforms are restorable only
for the shipped :func:`repro.baselines.base.hash_keys` mixer — custom
callables raise :class:`StoreError` at save time rather than silently
dropping semantics.
"""

from __future__ import annotations

import os

import numpy as np

from repro.baselines.base import BaselineOverlay, hash_keys
from repro.core.adjacency import CSRAdjacency
from repro.core.metric_routing import (
    ClockwiseMetric,
    GreedyValueMetric,
    LatticeMetric,
    PrefixDigitMetric,
    RoutingMetric,
    TorusZoneMetric,
    TrieMetric,
    frontier_route_many,
    torus_zone_lookup,
)
from repro.core.routing import RouteResult
from repro.store.format import StoreError, open_arrays, read_manifest, write_snapshot
from repro.store.graph_store import check_indptr, space_from_name

__all__ = ["save_overlay", "load_overlay", "LoadedOverlay"]

_BSP_KEYS = ("bsp_split_dim", "bsp_split_at", "bsp_low", "bsp_high", "bsp_zone")


def _encode_transform(transform) -> str | None:
    if transform is None:
        return None
    if transform is hash_keys:
        return "hash"
    raise StoreError(
        f"cannot persist custom key transform {transform!r}; only the "
        "shipped hash_keys mixer is restorable"
    )


def _decode_transform(flag: str | None):
    if flag is None:
        return None
    if flag == "hash":
        return hash_keys
    raise StoreError(f"unknown key-transform flag {flag!r} in snapshot")


def _encode_store_metric(
    metric: RoutingMetric,
) -> tuple[str, dict, dict[str, np.ndarray]]:
    """Split a metric into (family, JSON params, named arrays), fully.

    Exact-type matching, like the dispatch codec: an unknown subclass
    may score differently and must not silently persist as its base.

    Raises:
        StoreError: unknown metric family, custom transform, custom key
            space, or a score-only torus metric with no BSP tree.
    """
    kind = type(metric)
    if kind is GreedyValueMetric:
        if metric.space.name not in ("interval", "ring"):
            raise StoreError(
                f"cannot persist metric over key space {metric.space.name!r}"
            )
        params = {
            "space": metric.space.name,
            "transform": _encode_transform(metric.transform),
        }
        return "greedy", params, {"positions": metric.positions}
    if kind is ClockwiseMetric:
        params = {
            "owner_rule": metric.owner_rule,
            "terminal_owner_hop": metric.terminal_owner_hop,
            "transform": _encode_transform(metric.transform),
        }
        return "clockwise", params, {"positions": metric.positions}
    if kind is PrefixDigitMetric:
        arrays = {
            "positions": metric.positions,
            "digits": metric.digits,
            "tag_level": metric.tag_level,
            "tag_digit": metric.tag_digit,
        }
        params = {
            "base": metric.base,
            "transform": _encode_transform(metric.transform),
        }
        return "prefix", params, arrays
    if kind is TrieMetric:
        arrays = {
            "positions": metric.positions,
            "bits": metric.bits,
            "tag_level": metric.tag_level,
            "tag_rank": metric.tag_rank,
            "cell_lefts": metric.cell_lefts,
            "cell_order": metric.cell_order,
        }
        return "trie", {}, arrays
    if kind is TorusZoneMetric:
        if metric.bsp is None:
            raise StoreError(
                "cannot persist a score-only TorusZoneMetric (no BSP tree)"
            )
        arrays = {"lo": metric.lo, "hi": metric.hi}
        arrays.update(zip(_BSP_KEYS, metric.bsp))
        return "torus", {"max_depth": metric.max_depth}, arrays
    if kind is LatticeMetric:
        return "lattice", {"n": metric.n}, {}
    raise StoreError(
        f"cannot persist {kind.__name__}; the store codec supports the six "
        "shipped RoutingMetric families"
    )


def _check_torus(arrays: dict, n: int, max_depth: int) -> None:
    """Reject CAN zone boxes or BSP arrays that would misroute a lookup.

    Range checks first, so the final check can descend safely: the
    five BSP arrays share one length, internal nodes' children lie
    inside them, zone ids lie in ``[-1, n)``, the zone boxes are
    ``(n, dims)`` and split dims lie in ``[0, dims)``.  Then every
    zone's centre must descend to that zone.
    """
    split_dim, _, low, high, zone = (np.asarray(arrays[key]) for key in _BSP_KEYS)
    size = len(zone)
    if size == 0 or any(len(arrays[key]) != size for key in _BSP_KEYS):
        raise StoreError("the BSP arrays must be non-empty and of equal length")
    internal = zone < 0
    for child in (low, high):
        if np.any((child[internal] < 0) | (child[internal] >= size)):
            raise StoreError("a BSP child index is out of range")
    if np.any((zone < -1) | (zone >= n)):
        raise StoreError("a BSP zone id is out of range")
    lo, hi = np.asarray(arrays["lo"]), np.asarray(arrays["hi"])
    if lo.ndim != 2 or lo.shape[0] != n or hi.shape != lo.shape:
        raise StoreError("zone boxes must have shape (n, dims)")
    if np.any((split_dim[internal] < 0) | (split_dim[internal] >= lo.shape[1])):
        raise StoreError("a BSP split dim is out of range")
    try:
        owners = torus_zone_lookup(
            0.5 * (lo + hi), tuple(arrays[key] for key in _BSP_KEYS), max_depth
        )
    except RuntimeError as exc:
        raise StoreError(f"corrupt BSP tree: {exc}") from exc
    if not np.array_equal(owners, np.arange(n)):
        raise StoreError("a zone's centre does not resolve to that zone")


def _rebuild_store_metric(kind: str, params: dict, arrays: dict) -> RoutingMetric:
    """Inverse of :func:`_encode_store_metric` over mapped arrays."""
    if kind == "greedy":
        return GreedyValueMetric(
            arrays["positions"],
            space_from_name(params["space"]),
            transform=_decode_transform(params["transform"]),
        )
    if kind == "clockwise":
        return ClockwiseMetric(
            arrays["positions"],
            owner_rule=params["owner_rule"],
            transform=_decode_transform(params["transform"]),
            terminal_owner_hop=params["terminal_owner_hop"],
        )
    if kind == "prefix":
        return PrefixDigitMetric(
            arrays["positions"],
            arrays["digits"],
            arrays["tag_level"],
            arrays["tag_digit"],
            params["base"],
            transform=_decode_transform(params["transform"]),
        )
    if kind == "trie":
        return TrieMetric(
            arrays["positions"],
            arrays["bits"],
            arrays["tag_level"],
            arrays["tag_rank"],
            arrays["cell_lefts"],
            arrays["cell_order"],
        )
    if kind == "torus":
        return TorusZoneMetric(
            arrays["lo"],
            arrays["hi"],
            bsp=tuple(arrays[key] for key in _BSP_KEYS),
            max_depth=params["max_depth"],
        )
    if kind == "lattice":
        return LatticeMetric(params["n"])
    raise StoreError(f"unknown metric kind {kind!r} in snapshot")


class LoadedOverlay(BaselineOverlay):
    """An overlay snapshot rebuilt from disk: CSR + metric, nothing else.

    Routes through the shared frontier kernel exactly like
    :func:`repro.baselines.base.route_many_overlay` does for native
    overlays — the scalar :meth:`route` is a batch of one with path
    recording, so paths, hops and owners reproduce the original
    overlay's routing bit for bit.
    """

    def __init__(
        self,
        name: str,
        csr: CSRAdjacency,
        metric: RoutingMetric,
        table_sizes: np.ndarray,
        ids: np.ndarray | None = None,
    ):
        self.name = name
        self.ids = ids
        self._table_sizes = table_sizes
        self._frontier_cache = (csr, metric)

    @property
    def n(self) -> int:
        return self.to_csr().n

    def route(
        self, source: int, key: float, max_hops: int | None = None
    ) -> RouteResult:
        if not 0 <= source < self.n:
            raise ValueError(
                f"source index {source} out of range for {self.n} peers"
            )
        csr, metric = self._frontier()
        batch = frontier_route_many(
            csr,
            metric,
            np.asarray([source], dtype=np.int64),
            np.asarray([key], dtype=float),
            max_hops=max_hops,
            record_paths=True,
        )
        return batch.to_route_results()[0]

    def owner_of(self, key: float) -> int:
        """Resolve ``key``'s owner through the persisted metric."""
        prepared = self.metric.prepare(np.asarray([key], dtype=float))
        return int(prepared.owners[0])

    def table_sizes(self) -> np.ndarray:
        return self._table_sizes

    def __repr__(self) -> str:
        return f"LoadedOverlay(name={self.name!r}, n={self.n})"


def save_overlay(overlay: BaselineOverlay, path: str | os.PathLike) -> None:
    """Write ``overlay``'s complete routing state as a snapshot directory.

    Raises:
        StoreError: for overlays whose metric the codec cannot persist
            (see :func:`_encode_store_metric`).
    """
    from repro import telemetry

    csr = overlay.to_csr()
    kind, params, metric_arrays = _encode_store_metric(overlay.metric)
    arrays = {
        "indptr": csr.indptr,
        "indices": csr.indices,
        "is_long": csr.is_long,
        "table_sizes": np.asarray(overlay.table_sizes()),
    }
    for key, array in metric_arrays.items():
        arrays[f"metric_{key}"] = array
    ids = getattr(overlay, "ids", None)
    if ids is None:
        ids = getattr(overlay, "keys", None)
    if ids is not None:
        arrays["ids"] = np.asarray(ids, dtype=float)
    with telemetry.time_block("store.save_overlay"):
        write_snapshot(
            path,
            "overlay",
            payload={
                "overlay": overlay.name,
                "n": overlay.n,
                "metric": {"kind": kind, "params": params},
            },
            arrays=arrays,
        )


def load_overlay(path: str | os.PathLike) -> LoadedOverlay:
    """Map a saved overlay back as a routable :class:`LoadedOverlay`.

    All arrays are read-only memmaps; nothing is rebuilt or copied.

    Raises:
        StoreError: missing/corrupt snapshot, version/kind mismatch,
            row pointers/edge targets that violate the CSR invariants,
            or CAN zone/BSP arrays that do not resolve every zone to
            itself.
    """
    from repro import telemetry

    with telemetry.time_block("store.load_overlay"):
        manifest = read_manifest(path, kind="overlay")
        payload = manifest["payload"]
        arrays = open_arrays(path, manifest)
    check_indptr(arrays["indptr"], int(payload["n"]))
    try:
        csr = CSRAdjacency(
            indptr=arrays["indptr"],
            indices=arrays["indices"],
            is_long=arrays["is_long"],
        )
    except ValueError as exc:
        raise StoreError(f"corrupt edge arrays: {exc}") from exc
    spec = payload["metric"]
    metric_arrays = {
        key[len("metric_"):]: array
        for key, array in arrays.items()
        if key.startswith("metric_")
    }
    if spec["kind"] == "torus":
        _check_torus(metric_arrays, int(payload["n"]), spec["params"]["max_depth"])
    metric = _rebuild_store_metric(spec["kind"], spec["params"], metric_arrays)
    return LoadedOverlay(
        name=payload["overlay"],
        csr=csr,
        metric=metric,
        table_sizes=arrays["table_sizes"],
        ids=arrays.get("ids"),
    )
