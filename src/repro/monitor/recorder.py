"""Flight recorder: sampled per-lookup traces with per-round spans.

Sampling is a deterministic splitmix-style hash of each query's
``(source, key)`` pair — 1-in-``sample_rate`` queries are traced, and
because the hash never looks at tickets or batching, the *same* queries
are sampled however the stream is micro-batched.

The recorder reads the serving engine's outcome log, which holds every
ticket's source and key, and hashes it only when traces are asked for,
so it costs the serving hot path nothing.  Per-round detail
(admission → cache consult → each frontier round with its candidate
count → retirement reason) is reconstructed at export time by replaying
the sampled routed queries as one
:func:`~repro.core.metric_routing.frontier_route_many` batch with paths
recorded — the kernel's bit-identity contract guarantees each replay
takes exactly the hops its live walk took, which
:meth:`FlightRecorder.traces` checks against the engine's outcome
log every time.  Round-span timestamps inside a lookup are
therefore synthetic (evenly spaced across the measured latency); the
lookup envelope itself uses the real enqueue time and latency.

Exports: one dict per span as JSONL (:meth:`export_jsonl`) and the
Chrome trace event format (:meth:`export_chrome_trace`), loadable in
Perfetto / ``chrome://tracing``.
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.core.metric_routing import (
    _REASON_LABELS,
    REASON_ARRIVED,
    REASON_STUCK,
    frontier_route_many,
)
from repro.keyspace import splitmix64

__all__ = ["FlightRecorder", "LookupTrace", "sample_mask"]

_U64 = np.uint64


def sample_mask(sources, keys, sample_rate: int) -> np.ndarray:
    """Deterministic 1-in-``sample_rate`` mask over ``(source, key)`` pairs.

    Hashes each source id mixed with the raw float64 bits of its key;
    depends only on the query itself, never on submission order or
    micro-batching.
    """
    if sample_rate < 1:
        raise ValueError(f"sample_rate must be >= 1, got {sample_rate}")
    sources = np.asarray(sources, dtype=np.int64).astype(_U64)
    key_bits = np.ascontiguousarray(np.asarray(keys, dtype=np.float64)).view(_U64)
    h = splitmix64(sources ^ splitmix64(key_bits))
    return (h % _U64(sample_rate)) == 0


class LookupTrace:
    """One sampled lookup's reconstructed end-to-end trace."""

    __slots__ = (
        "ticket", "source", "key", "owner", "cache_hit", "success",
        "reason", "hops", "latency_seconds", "t_enqueue", "rounds",
    )

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw[name])

    def to_dict(self) -> dict:
        d = {name: getattr(self, name) for name in self.__slots__}
        d["rounds"] = [dict(r) for r in self.rounds]
        return d


class FlightRecorder:
    """Trace sampled lookups of a :class:`~repro.serving.engine.ServingEngine`.

    Args:
        engine: the serving engine whose outcome log is traced.
        sample_rate: trace 1 in this many queries (hash-based).
    """

    def __init__(self, engine, sample_rate: int = 64):
        if sample_rate < 1:
            raise ValueError(f"sample_rate must be >= 1, got {sample_rate}")
        self.engine = engine
        self.sample_rate = int(sample_rate)

    def _sampled(self, res) -> np.ndarray:
        """The sampled tickets of outcome log ``res``, ascending."""
        return np.flatnonzero(sample_mask(res.sources, res.keys, self.sample_rate))

    @property
    def n_sampled(self) -> int:
        """Sampled queries among every ticket submitted so far."""
        return len(self._sampled(self.engine.results()))

    # ------------------------------------------------------------------
    # reconstruction
    # ------------------------------------------------------------------
    def _replay_rounds(self, sources, keys) -> tuple[list[list[dict]], np.ndarray]:
        """Re-route sampled queries as one batch; return rounds and hops.

        Bit-identical to the live walks by the kernel contract.  Hop j
        of a walk is its round j + 1, which left ``path[j]`` after
        scoring that node's whole row.  A walk that stops short of its
        owner spends one more round at its last node: a ``stuck`` walk
        scores that node's row and finds nothing closer, and a
        ``max_hops`` walk is retired before it gathers any candidate.
        """
        engine = self.engine
        batch = frontier_route_many(
            engine.csr, engine.metric, sources, keys,
            max_hops=engine.max_hops, record_paths=True,
        )
        indptr = engine.csr.indptr
        out: list[list[dict]] = []
        for path, reason in zip(batch.paths, batch.reason_codes.tolist()):
            nodes = np.asarray(path, dtype=np.int64)
            degree = (indptr[nodes + 1] - indptr[nodes]).tolist()
            rounds = [
                {"round": j + 1, "node": node, "candidates": degree[j], "moved": True}
                for j, node in enumerate(path[:-1])
            ]
            if reason != REASON_ARRIVED:
                rounds.append(
                    {
                        "round": len(path),
                        "node": path[-1],
                        "candidates": degree[-1] if reason == REASON_STUCK else 0,
                        "moved": False,
                    }
                )
            out.append(rounds)
        return out, batch.hops

    def traces(self) -> list[LookupTrace]:
        """Reconstruct every sampled lookup that has completed.

        The routed ones are replayed together in one batch, and each
        replay's hop count is checked against the live outcome the
        engine recorded.

        Raises:
            RuntimeError: when a replay disagrees with the engine's
                outcome log — a determinism violation.
        """
        res = self.engine.results()
        tickets = self._sampled(res)
        tickets = tickets[res.completed[tickets]]
        routed = tickets[~res.cache_hit[tickets]]
        replayed: dict[int, list[dict]] = {}
        if len(routed):
            rounds, hops = self._replay_rounds(res.sources[routed], res.keys[routed])
            live = res.hops[routed]
            if (hops != live).any():
                i = int(np.argmax(hops != live))
                raise RuntimeError(
                    f"flight-recorder replay of ticket {routed[i]} took "
                    f"{hops[i]} hops but the live walk took {live[i]}"
                )
            replayed = dict(zip(routed.tolist(), rounds))
        return [
            LookupTrace(
                ticket=t,
                source=int(res.sources[t]),
                key=float(res.keys[t]),
                owner=int(res.owners[t]),
                cache_hit=bool(res.cache_hit[t]),
                success=bool(res.success[t]),
                reason=str(_REASON_LABELS[res.reason_codes[t]]),
                hops=int(res.hops[t]),
                latency_seconds=float(res.latency_seconds[t]),
                t_enqueue=float(res.t_enqueue[t]),
                rounds=replayed.get(t, []),
            )
            for t in tickets.tolist()
        ]

    # ------------------------------------------------------------------
    # exports
    # ------------------------------------------------------------------
    def export_jsonl(self, path: str | os.PathLike) -> int:
        """Write one JSON line per sampled lookup; returns the line count."""
        traces = self.traces()
        with open(os.fspath(path), "w", encoding="utf-8") as fh:
            for trace in traces:
                fh.write(json.dumps(trace.to_dict(), sort_keys=True) + "\n")
        return len(traces)

    def export_chrome_trace(self, path: str | os.PathLike) -> int:
        """Write the Chrome trace event format (Perfetto-loadable).

        Each sampled lookup becomes one complete ("ph": "X") event on
        its own track (tid = ticket), with the cache consult and every
        frontier round as child events spaced evenly across the
        measured latency.  Returns the event count.
        """
        traces = self.traces()
        t0 = min((t.t_enqueue for t in traces), default=0.0)
        events: list[dict] = []
        for trace in traces:
            start_us = (trace.t_enqueue - t0) * 1e6
            dur_us = max(trace.latency_seconds * 1e6, 1.0)
            args = {
                "ticket": trace.ticket,
                "source": trace.source,
                "key": trace.key,
                "owner": trace.owner,
                "hops": trace.hops,
                "reason": trace.reason,
                "cache_hit": trace.cache_hit,
            }
            events.append(
                {
                    "name": "lookup",
                    "cat": "serving",
                    "ph": "X",
                    "ts": start_us,
                    "dur": dur_us,
                    "pid": 1,
                    "tid": trace.ticket,
                    "args": args,
                }
            )
            # Child lanes: cache consult, then one slot per round.
            n_child = 1 + len(trace.rounds)
            slot = dur_us / n_child
            events.append(
                {
                    "name": "cache_hit" if trace.cache_hit else "cache_miss",
                    "cat": "cache",
                    "ph": "X",
                    "ts": start_us,
                    "dur": slot,
                    "pid": 1,
                    "tid": trace.ticket,
                    "args": {"cache_hit": trace.cache_hit},
                }
            )
            for i, rnd in enumerate(trace.rounds):
                events.append(
                    {
                        "name": f"round {rnd['round']}",
                        "cat": "frontier",
                        "ph": "X",
                        "ts": start_us + (i + 1) * slot,
                        "dur": slot,
                        "pid": 1,
                        "tid": trace.ticket,
                        "args": {
                            "node": rnd["node"],
                            "candidates": rnd["candidates"],
                            "moved": rnd["moved"],
                        },
                    }
                )
        payload = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "sample_rate": self.sample_rate,
                "n_sampled": self.n_sampled,
            },
        }
        with open(os.fspath(path), "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return len(events)
