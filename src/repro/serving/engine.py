"""The streaming lookup-serving engine: micro-batched frontier admission.

The batch engines route a workload that exists up front; a *server*
faces a continuous query stream.  :class:`ServingEngine` turns the
resident frontier kernel (:class:`repro.core.metric_routing.
StreamFrontier`) into exactly that: submitted queries wait in a ring
buffer, each pump admits one micro-batch into the live frontier — walks
join and leave continuously, the frontier never drains between batches
— and retired walks report per-query outcomes plus streaming SLO
quantiles (p50/p99/p999 latency and hops via
:class:`repro.telemetry.P2Quantile`).

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
from dataclasses import dataclass, field

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
from repro.telemetry import P2Quantile

__all__ = ["ServeConfig", "ServeReport", "ServeResult", "ServingEngine"]

#: The SLO grid: median, tail, extreme tail.
SLO_PROBS = (0.5, 0.99, 0.999)


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
    extras: dict = field(default_factory=dict)

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


class _RingBuffer:
    """Growable circular buffer of pending ``(source, key, ticket)`` rows."""

    def __init__(self, capacity: int = 1024):
        cap = max(int(capacity), 2)
        self._sources = np.empty(cap, dtype=np.int64)
        self._keys = np.empty(cap, dtype=float)
        self._tickets = np.empty(cap, dtype=np.int64)
        self._head = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def capacity(self) -> int:
        return len(self._keys)

    def _logical(self, arr: np.ndarray) -> np.ndarray:
        cap = self.capacity
        idx = (self._head + np.arange(self._size)) % cap
        return arr[idx]

    def _grow(self, needed: int) -> None:
        cap = self.capacity
        new_cap = cap
        while new_cap < needed:
            new_cap *= 2
        for name in ("_sources", "_keys", "_tickets"):
            arr = getattr(self, name)
            grown = np.empty(new_cap, dtype=arr.dtype)
            grown[: self._size] = self._logical(arr)
            setattr(self, name, grown)
        self._head = 0

    def push(
        self, sources: np.ndarray, keys: np.ndarray, tickets: np.ndarray
    ) -> None:
        m = len(keys)
        if self._size + m > self.capacity:
            self._grow(self._size + m)
        cap = self.capacity
        tail = (self._head + self._size) % cap
        first = min(cap - tail, m)
        for arr, vals in (
            (self._sources, sources), (self._keys, keys), (self._tickets, tickets),
        ):
            arr[tail : tail + first] = vals[:first]
            if first < m:
                arr[: m - first] = vals[first:]
        self._size += m

    def pop(self, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        m = min(m, self._size)
        cap = self.capacity
        head = self._head
        first = min(cap - head, m)
        out = []
        for arr in (self._sources, self._keys, self._tickets):
            if first < m:
                out.append(np.concatenate([arr[head : head + first], arr[: m - first]]))
            else:
                out.append(arr[head : head + m].copy())
        self._head = (head + m) % cap
        self._size -= m
        return out[0], out[1], out[2]


class _ResultLog:
    """Ticket-indexed growable outcome columns."""

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
        self._queue = _RingBuffer()
        self._log = _ResultLog()
        self._next_ticket = 0
        self.completed = 0
        self._frontier = StreamFrontier(
            self.csr, self.metric, max_hops=self.max_hops,
            capacity=self.config.max_active,
        )
        self._latency_q = P2Quantile(SLO_PROBS)
        self._hops_q = P2Quantile(SLO_PROBS)
        self._reason_tally = np.zeros(len(_REASON_LABELS), dtype=np.int64)
        self._routed_hops_total = 0
        self._routed_total = 0
        self._busy_seconds = 0.0
        self.rounds = 0
        # Observability hooks (repro.monitor): both default to None so
        # the un-monitored hot path pays one attribute check per pump /
        # admit and nothing else.
        self._monitor = None
        self._recorder = None

    def attach_monitor(self, monitor) -> None:
        """Attach a :class:`repro.monitor.Monitor` (called every pump)."""
        self._monitor = monitor

    def attach_recorder(self, recorder) -> None:
        """Attach a :class:`repro.monitor.FlightRecorder` (sees admissions)."""
        self._recorder = recorder

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
        """Queries waiting in the admission ring."""
        return len(self._queue)

    @property
    def in_flight(self) -> int:
        """Walks currently resident in the frontier."""
        return self._frontier.active_count

    def submit(self, sources: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Enqueue a chunk of lookups; returns their tickets.

        Tickets are dense submission sequence numbers — the row index
        of each query in :meth:`results`.  The whole chunk is checked
        before it gets tickets or queue rows, so a rejected chunk leaves
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
        if self._recorder is not None:
            # At submission (few large chunks) rather than admission
            # (many small micro-batches): the sampled set is identical —
            # the hash depends only on each (source, key) — and the
            # vectorized hash amortizes over the whole chunk.
            self._recorder.observe_admission(tickets, sources, keys)
        self._queue.push(sources, keys, tickets)
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
        """Pump until queue and frontier are both empty."""
        done = 0
        while len(self._queue) or self.in_flight:
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

        Traffic is drawn chunk by chunk as the admission ring drains —
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
            if submitted < n_queries and len(self._queue) < chunk:
                m = min(chunk, n_queries - submitted)
                _, sources, keys = demand.draw(m, rng)
                self.submit(sources, keys)
                submitted += m
            self.pump()
        return self.report(seconds=self._clock() - started, n_queries=n_queries)

    def _admit(self) -> int:
        room = min(
            self.config.admit_per_round,
            self.config.max_active - self._frontier.active_count,
        )
        if room <= 0 or len(self._queue) == 0:
            return 0
        sources, keys, tickets = self._queue.pop(room)
        telemetry.count("serving.admitted", len(tickets))
        if self.cache is not None:
            owners, hit = self.cache.lookup(keys)
            if hit.any():
                done = np.flatnonzero(hit)
                self._finish(
                    tickets[done],
                    owners=owners[done],
                    hops=np.zeros(done.size, dtype=np.int64),
                    neighbor_hops=np.zeros(done.size, dtype=np.int64),
                    long_hops=np.zeros(done.size, dtype=np.int64),
                    success=np.ones(done.size, dtype=bool),
                    reason_codes=np.full(done.size, REASON_ARRIVED, dtype=np.int8),
                    cache_hit=True,
                )
            miss = ~hit
            if not miss.any():
                return len(tickets)
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
        return len(tickets)

    def _retire(self, slots: np.ndarray) -> None:
        data = self._frontier.take(slots)
        self._frontier.release(slots)
        self._finish(
            data["tickets"],
            owners=data["owners"],
            hops=data["hops"],
            neighbor_hops=data["neighbor_hops"],
            long_hops=data["long_hops"],
            success=data["success"],
            reason_codes=data["reason_codes"],
            cache_hit=False,
        )

    def _finish(
        self, tickets, *, owners, hops, neighbor_hops, long_hops,
        success, reason_codes, cache_hit,
    ) -> None:
        log = self._log
        now = self._clock()
        latency = now - log.t_enqueue[tickets]
        log.owners[tickets] = owners
        log.hops[tickets] = hops
        log.neighbor_hops[tickets] = neighbor_hops
        log.long_hops[tickets] = long_hops
        log.success[tickets] = success
        log.reason_codes[tickets] = reason_codes
        log.cache_hit[tickets] = cache_hit
        log.latency_seconds[tickets] = latency
        log.completed[tickets] = True
        self.completed += len(tickets)
        self._latency_q.observe_batch(latency)
        if not cache_hit:
            self._hops_q.observe_batch(hops)
            self._routed_hops_total += int(np.sum(hops))
            self._routed_total += len(tickets)
        self._reason_tally += np.bincount(
            reason_codes, minlength=len(_REASON_LABELS)
        )
        telemetry.count("serving.completed", len(tickets))
        registry = telemetry.active_registry()
        if registry is not None and (
            registry.quantiles.get("serving.latency_seconds") is not self._latency_q
        ):
            # Publish the engine's own estimators instead of feeding a
            # second copy of every observation through the registry: one
            # observe_batch above updates both report() and /metrics.
            registry.quantiles["serving.latency_seconds"] = self._latency_q
            registry.quantiles["serving.hops"] = self._hops_q

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def results(self) -> ServeResult:
        """Per-query outcome columns for every submitted ticket."""
        n = self._next_ticket
        log = self._log
        return ServeResult(
            sources=log.sources[:n],
            keys=log.keys[:n],
            owners=log.owners[:n],
            hops=log.hops[:n],
            neighbor_hops=log.neighbor_hops[:n],
            long_hops=log.long_hops[:n],
            success=log.success[:n],
            reason_codes=log.reason_codes[:n],
            cache_hit=log.cache_hit[:n],
            latency_seconds=log.latency_seconds[:n],
            completed=log.completed[:n],
        )

    def report(
        self, seconds: float | None = None, n_queries: int | None = None
    ) -> ServeReport:
        """SLO snapshot: throughput, quantiles, reasons, cache stats.

        Args:
            seconds: serving-window wall time; defaults to the summed
                pump time (the engine's busy clock).
            n_queries: window query count; defaults to all completions.
        """
        n = self.completed if n_queries is None else n_queries
        secs = self._busy_seconds if seconds is None else seconds
        done = self._log.completed[: self._next_ticket]
        succ = self._log.success[: self._next_ticket][done]
        reasons = {
            str(label): int(self._reason_tally[code])
            for code, label in enumerate(_REASON_LABELS)
        }
        return ServeReport(
            n_queries=n,
            seconds=secs,
            lookups_per_sec=n / secs if secs > 0 else 0.0,
            success_rate=float(succ.mean()) if len(succ) else 0.0,
            mean_hops=(
                self._routed_hops_total / self._routed_total
                if self._routed_total
                else 0.0
            ),
            hops_p50=self._hops_q.quantile(0.5),
            hops_p99=self._hops_q.quantile(0.99),
            hops_p999=self._hops_q.quantile(0.999),
            latency_p50_ms=self._latency_q.quantile(0.5) * 1e3,
            latency_p99_ms=self._latency_q.quantile(0.99) * 1e3,
            latency_p999_ms=self._latency_q.quantile(0.999) * 1e3,
            reasons=reasons,
            cache=self.cache.stats() if self.cache is not None else None,
            rounds=self.rounds,
            extras={"frontier_fill_ratio": self._frontier.fill_ratio},
        )
