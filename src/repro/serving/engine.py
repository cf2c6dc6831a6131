"""The streaming lookup-serving engine: micro-batched frontier admission.

The batch engines route a workload that exists up front; a *server*
faces a continuous query stream.  :class:`ServingEngine` turns the
resident frontier kernel (:class:`repro.core.metric_routing.
StreamFrontier`) into exactly that.  Every submitted query gets a ticket
and a row in one ticket-indexed outcome log.  Submitted queries wait in
that log, and each pump admits the next tickets in order as one
micro-batch into the live frontier — walks join and leave continuously,
the frontier never drains between batches.  Retired walks write their
outcomes into the same rows, and :meth:`ServingEngine.report` computes
the SLO quantiles (p50/p99/p999 latency and hops) exactly from them.

One :class:`StreamFrontier` holds every in-flight walk; admission
backpressure is ``max_active``.  Because walks are independent and the
hot-key cache (:class:`repro.serving.cache.RouteCache`) is consulted
*and filled at admission time*, per-query outcomes — owner, hops,
success, reason, cache flag — are a pure function of the query stream
and the :class:`ServeConfig`, never of which walks share the frontier.
Owners, and the hops of every routed (non-cached) query, equal those of
replaying the whole stream as one :func:`repro.core.route_many` batch;
which repeats hit the cache depends on where the micro-batches split
the stream.  Latency and throughput are wall-clock and deliberately
outside that determinism contract.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.core.metric_routing import (
    _REASON_LABELS,
    REASON_ARRIVED,
    GreedyValueMetric,
    StreamFrontier,
    _check_sources,
)
from repro.keyspace import check_unit_keys
from repro.serving.cache import RouteCache

__all__ = ["ServeConfig", "ServeReport", "ServeResult", "ServingEngine"]

#: The SLO grid: median, tail, extreme tail.
SLO_PROBS = (0.5, 0.99, 0.999)

#: The outcome columns a retired walk copies from its frontier slot.
_WALK_COLUMNS = (
    "owners", "hops", "neighbor_hops", "long_hops", "success", "reason_codes",
)


@dataclass
class ServeConfig:
    """Admission-loop knobs for :class:`ServingEngine`.

    Attributes:
        admit_per_round: micro-batch width — how many pending queries
            at most join the frontier per pump.
        max_active: resident-frontier backpressure bound; admission
            stalls while this many walks are in flight.
        max_hops: per-walk hop budget, ``>= 0``; defaults to the graph
            size.
        cache_capacity: hot-key route-cache entries; ``0`` disables the
            cache entirely.
    """

    admit_per_round: int = 4096
    max_active: int = 32_768
    max_hops: int | None = None
    cache_capacity: int = 0

    def __post_init__(self):
        if self.admit_per_round < 1:
            raise ValueError(
                f"admit_per_round must be >= 1, got {self.admit_per_round}"
            )
        if self.max_active < 1:
            raise ValueError(f"max_active must be >= 1, got {self.max_active}")
        if self.max_hops is not None and self.max_hops < 0:
            raise ValueError(f"max_hops must be >= 0, got {self.max_hops}")
        if self.cache_capacity < 0:
            raise ValueError(
                f"cache_capacity must be >= 0, got {self.cache_capacity}"
            )


@dataclass
class ServeResult:
    """Per-query outcome columns, aligned by submission order (ticket)."""

    sources: np.ndarray
    keys: np.ndarray
    owners: np.ndarray
    hops: np.ndarray
    neighbor_hops: np.ndarray
    long_hops: np.ndarray
    success: np.ndarray
    reason_codes: np.ndarray
    cache_hit: np.ndarray
    latency_seconds: np.ndarray
    t_enqueue: np.ndarray
    completed: np.ndarray

    def __len__(self) -> int:
        return len(self.keys)


@dataclass
class ServeReport:
    """SLO summary of one serving window."""

    n_queries: int
    seconds: float
    lookups_per_sec: float
    success_rate: float
    mean_hops: float
    hops_p50: float
    hops_p99: float
    hops_p999: float
    latency_p50_ms: float
    latency_p99_ms: float
    latency_p999_ms: float
    reasons: dict[str, int]
    cache: dict[str, int | float] | None
    rounds: int = 0

    def render(self) -> str:
        """Aligned ASCII SLO table."""
        rows = [
            ("queries", f"{self.n_queries}"),
            ("wall seconds", f"{self.seconds:.3f}"),
            ("throughput", f"{self.lookups_per_sec:,.0f} lookups/s"),
            ("success rate", f"{self.success_rate:.4f}"),
            (
                "routed hops",
                f"mean {self.mean_hops:.2f}  p50 {self.hops_p50:.0f}  "
                f"p99 {self.hops_p99:.0f}  p999 {self.hops_p999:.0f}",
            ),
            (
                "latency (ms)",
                f"p50 {self.latency_p50_ms:.3f}  p99 {self.latency_p99_ms:.3f}  "
                f"p999 {self.latency_p999_ms:.3f}",
            ),
            (
                "reasons",
                "  ".join(f"{k}={v}" for k, v in self.reasons.items()),
            ),
        ]
        if self.cache is not None:
            rows.append(
                (
                    "route cache",
                    f"hit rate {self.cache['hit_rate']:.3f}  "
                    f"(hits {self.cache['hits']}, misses {self.cache['misses']}, "
                    f"evictions {self.cache['evictions']})",
                )
            )
        width = max(len(label) for label, _ in rows)
        lines = ["serving report", "-" * 14]
        lines += [f"{label:<{width}}  {value}" for label, value in rows]
        return "\n".join(lines)


class _ResultLog:
    """Ticket-indexed growable outcome columns.

    The engine's only per-lookup state.  ``submit`` writes a ticket's
    source, key and enqueue time; the ticket then waits here until
    admission, and completion writes its outcome into the same row.
    Every other column holds its fill value until then, and a cache hit
    keeps the walk columns' fill values as its outcome.
    """

    _SPECS = (
        ("sources", np.int64, 0),
        ("keys", float, 0.0),
        ("owners", np.int64, -1),
        ("hops", np.int64, 0),
        ("neighbor_hops", np.int64, 0),
        ("long_hops", np.int64, 0),
        ("success", bool, False),
        ("reason_codes", np.int8, REASON_ARRIVED),
        ("cache_hit", bool, False),
        ("latency_seconds", float, 0.0),
        ("t_enqueue", float, 0.0),
        ("completed", bool, False),
    )

    def __init__(self, capacity: int = 1024):
        self._cap = max(int(capacity), 1)
        for name, dtype, fill in self._SPECS:
            arr = np.full(self._cap, fill, dtype=dtype)
            setattr(self, name, arr)

    def ensure(self, n: int) -> None:
        if n <= self._cap:
            return
        cap = self._cap
        while cap < n:
            cap *= 2
        for name, dtype, fill in self._SPECS:
            arr = getattr(self, name)
            grown = np.full(cap, fill, dtype=dtype)
            grown[: self._cap] = arr
            setattr(self, name, grown)
        self._cap = cap


def _quantiles(values: np.ndarray) -> list[float]:
    """Exact :data:`SLO_PROBS` quantiles of ``values``; zeros when empty."""
    if len(values) == 0:
        return [0.0] * len(SLO_PROBS)
    return np.quantile(values, SLO_PROBS).tolist()


class ServingEngine:
    """Serve a continuous lookup stream over one small-world graph.

    Args:
        graph: a :class:`repro.core.SmallWorldGraph` — freshly built or
            memmapped back by :func:`repro.store.load_graph` (see
            :meth:`from_store`).
        config: admission-loop knobs; defaults to :class:`ServeConfig`.
        clock: injectable wall clock (tests pin latency bookkeeping).
    """

    def __init__(self, graph, config: ServeConfig | None = None, *, clock=None):
        self.graph = graph
        self.config = config or ServeConfig()
        self.csr = graph.adjacency
        self.metric = GreedyValueMetric(graph.ids, graph.space)
        self.max_hops = (
            graph.n if self.config.max_hops is None else self.config.max_hops
        )
        self.cache = (
            RouteCache(self.config.cache_capacity)
            if self.config.cache_capacity
            else None
        )
        self._clock = clock if clock is not None else time.perf_counter
        self._log = _ResultLog()
        # Admission is FIFO by ticket: tickets [_admitted, _next_ticket)
        # are the pending queries.
        self._next_ticket = 0
        self._admitted = 0
        self.completed = 0
        self._frontier = StreamFrontier(
            self.csr, self.metric, max_hops=self.max_hops,
            capacity=self.config.max_active,
        )
        self._busy_seconds = 0.0
        self.rounds = 0
        # The one observability hook (repro.monitor): None by default,
        # so the un-monitored hot path pays one attribute check per pump.
        # The flight recorder needs no hook — it reads the outcome log.
        self._monitor = None

    def attach_monitor(self, monitor) -> None:
        """Attach a :class:`repro.monitor.Monitor` (called every pump)."""
        self._monitor = monitor

    @classmethod
    def from_store(cls, path, config: ServeConfig | None = None) -> "ServingEngine":
        """Serve straight from an on-disk snapshot (no rebuild)."""
        from repro.store import load_graph

        return cls(load_graph(path), config)

    # ------------------------------------------------------------------
    # intake
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Submitted queries not yet admitted into the frontier."""
        return self._next_ticket - self._admitted

    @property
    def in_flight(self) -> int:
        """Walks currently resident in the frontier."""
        return self._frontier.active_count

    def submit(self, sources: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Enqueue a chunk of lookups; returns their tickets.

        Tickets are dense submission sequence numbers — the row index
        of each query in :meth:`results`.  The whole chunk is checked
        before it gets tickets or log rows, so a rejected chunk leaves
        no trace and never poisons the micro-batch it would have joined.

        Raises:
            ValueError: on misaligned inputs, a key that is NaN or
                outside ``[0, 1)``, or a source outside ``[0, n)``.
        """
        sources = np.asarray(sources, dtype=np.int64)
        keys = np.asarray(keys, dtype=float)
        if sources.ndim != 1 or keys.ndim != 1 or len(sources) != len(keys):
            raise ValueError("sources and keys must be aligned 1-d arrays")
        check_unit_keys(keys)
        _check_sources(sources, self.csr.n)
        m = len(keys)
        tickets = np.arange(self._next_ticket, self._next_ticket + m, dtype=np.int64)
        self._next_ticket += m
        self._log.ensure(self._next_ticket)
        self._log.sources[tickets] = sources
        self._log.keys[tickets] = keys
        self._log.t_enqueue[tickets] = self._clock()
        return tickets

    # ------------------------------------------------------------------
    # the admission loop
    # ------------------------------------------------------------------
    def pump(self) -> int:
        """One admission round; returns how many queries completed.

        Admits one micro-batch into the resident frontier and advances
        every in-flight walk one hop.
        """
        started = self._clock()
        before = self.completed
        self._admit()
        if self._frontier.active_count:
            self.rounds += 1
            telemetry.count("serving.rounds")
            retired = self._frontier.step()
            if retired.size:
                self._retire(retired)
        self._busy_seconds += self._clock() - started
        if self._monitor is not None:
            self._monitor.after_pump()
        return self.completed - before

    def drain(self) -> int:
        """Pump until no query is pending or in flight."""
        done = 0
        while self.pending or self.in_flight:
            done += self.pump()
        return done

    def serve(
        self,
        demand,
        n_queries: int,
        rng: np.random.Generator,
        chunk: int | None = None,
    ) -> ServeReport:
        """Serve ``n_queries`` drawn from a demand model; return the SLO report.

        Traffic is drawn chunk by chunk as the pending queries drain —
        the closed-loop equivalent of a client population keeping the
        server saturated.
        """
        if n_queries < 0:
            raise ValueError(f"n_queries must be >= 0, got {n_queries}")
        chunk = chunk or max(4 * self.config.admit_per_round, 8192)
        target = self.completed + n_queries
        submitted = 0
        started = self._clock()
        while self.completed < target:
            if submitted < n_queries and self.pending < chunk:
                m = min(chunk, n_queries - submitted)
                _, sources, keys = demand.draw(m, rng)
                self.submit(sources, keys)
                submitted += m
            self.pump()
        return self.report(seconds=self._clock() - started, n_queries=n_queries)

    def _admit(self) -> None:
        """Admit the next pending tickets, up to the round's room."""
        lo = self._admitted
        m = min(
            self.config.admit_per_round,
            self.config.max_active - self._frontier.active_count,
            self._next_ticket - lo,
        )
        if m <= 0:
            return
        hi = self._admitted = lo + m
        telemetry.count("serving.admitted", m)
        sources, keys = self._log.sources[lo:hi], self._log.keys[lo:hi]
        tickets = np.arange(lo, hi, dtype=np.int64)
        if self.cache is not None:
            owners, hit = self.cache.lookup(keys)
            if hit.any():
                self._finish_hits(lo, hit, owners)
                if hit.all():
                    return
                miss = ~hit
                sources, keys, tickets = sources[miss], keys[miss], tickets[miss]
        prepared = self.metric.prepare(keys)
        if self.cache is not None:
            # Filled at admission time — before any routing — so cache
            # accounting depends only on the admission order, never on
            # frontier interleaving.
            self.cache.insert(keys, prepared.owners)
        slots = self._frontier.admit(sources, prepared, tickets=tickets)
        done = slots[~self._frontier.active[slots]]
        if done.size:
            self._retire(done)

    def _finish_hits(self, lo: int, hit: np.ndarray, owners: np.ndarray) -> None:
        """Complete the cache hits among tickets ``[lo, lo + len(hit))``.

        A hit is stamped at admission, so its latency is its queue wait
        plus one cache probe.  Only the five columns whose fill values a
        hit changes are written; its hops and reason keep theirs.
        """
        log = self._log
        span = slice(lo, lo + len(hit))
        now = self._clock()
        np.copyto(log.owners[span], owners, where=hit)
        np.subtract(
            now, log.t_enqueue[span], out=log.latency_seconds[span], where=hit
        )
        log.success[span] |= hit
        log.cache_hit[span] |= hit
        log.completed[span] |= hit
        n_hits = int(np.count_nonzero(hit))
        self.completed += n_hits
        telemetry.count("serving.completed", n_hits)

    def _retire(self, slots: np.ndarray) -> None:
        """Complete the walks in retired frontier ``slots`` and free them."""
        frontier, log = self._frontier, self._log
        tickets = frontier.tickets[slots]
        for name in _WALK_COLUMNS:
            getattr(log, name)[tickets] = getattr(frontier, name)[slots]
        frontier.release(slots)
        log.latency_seconds[tickets] = self._clock() - log.t_enqueue[tickets]
        log.completed[tickets] = True
        self.completed += len(tickets)
        telemetry.count("serving.completed", len(tickets))

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def results(self) -> ServeResult:
        """Per-query outcome columns for every submitted ticket."""
        n = self._next_ticket
        log = self._log
        return ServeResult(
            **{name: getattr(log, name)[:n] for name, _, _ in log._SPECS}
        )

    def report(
        self, seconds: float | None = None, n_queries: int | None = None
    ) -> ServeReport:
        """SLO snapshot: throughput, quantiles, reasons, cache stats.

        Every statistic is exact over the completed tickets: hop
        quantiles and ``mean_hops`` cover the routed (non-cached) ones,
        latency quantiles, success rate and reasons cover them all.

        Args:
            seconds: serving-window wall time; defaults to the summed
                pump time (the engine's busy clock).
            n_queries: window query count; defaults to all completions.
        """
        n = self.completed if n_queries is None else n_queries
        secs = self._busy_seconds if seconds is None else seconds
        res = self.results()
        done = res.completed
        hops = res.hops[done & ~res.cache_hit]
        hops_q = _quantiles(hops)
        latency_q = _quantiles(res.latency_seconds[done])
        tally = np.bincount(res.reason_codes[done], minlength=len(_REASON_LABELS))
        succ = res.success[done]
        return ServeReport(
            n_queries=n,
            seconds=secs,
            lookups_per_sec=n / secs if secs > 0 else 0.0,
            success_rate=float(succ.mean()) if len(succ) else 0.0,
            # The integer hop total over the routed count.
            mean_hops=int(hops.sum()) / len(hops) if len(hops) else 0.0,
            hops_p50=hops_q[0],
            hops_p99=hops_q[1],
            hops_p999=hops_q[2],
            latency_p50_ms=latency_q[0] * 1e3,
            latency_p99_ms=latency_q[1] * 1e3,
            latency_p999_ms=latency_q[2] * 1e3,
            reasons={
                str(label): int(count) for label, count in zip(_REASON_LABELS, tally)
            },
            cache=self.cache.stats() if self.cache is not None else None,
            rounds=self.rounds,
        )
