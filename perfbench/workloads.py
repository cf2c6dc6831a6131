"""The two benchmark workloads: ``serve`` and ``churn``.

Each workload is driven through public ``repro`` APIs only, from one
process and one thread, and runs a fixed amount of work that is a pure
function of ``(workload, seed, seconds)``: the same arguments route the
same lookups through the same graph, so ``hops_mean``, the failure
count and the cache hit rate repeat exactly.  Wall-clock quantities are
the only numbers outside that contract.

* ``serve`` — 10^6 peers, PowerLaw(1.5) ids, the eq. (7) model with
  log2 n long links installed in both directions (skewed out-degrees);
  DemandModel traffic over the peer ids against an 8192-entry route
  cache.  Hot keys hit the cache and retire after one pump; every miss
  resolves an owner and walks rounds that take the ragged kernel.
* ``churn`` — 2*10^5 peers loaded into a live ``Network``; each epoch
  departs 5% of peers, joins 5%, repairs, snapshots and routes 10^5
  lookups through ``route_many``, whose near-uniform degrees take the
  padded kernel.  The only workload that runs ``repro.overlay`` and the
  batch router (``route_many``), and the one with no route cache.

So each mechanism runs in one workload and is bypassed by the other:
the cache and the ragged kernel in ``serve``, the overlay, the batch
router and the padded kernel in ``churn``.

``serve`` is a closed loop of ``clients`` logical clients in the one
thread: each holds one outstanding lookup and submits its next one
after the pump that retired it.  In ``churn`` an epoch's lookups all
arrive when its membership change starts, wait for the repaired
overlay's snapshot and are answered in ``route_many`` calls of
``clients`` lookups; a lookup's latency runs from the epoch's start to
the return of its call.  (Timed from the snapshot instead, latency
covered the route phase alone, the part of an epoch a drifting host
slows most: its ten-run spread was 1.3-1.6x that of throughput.)
"""

from __future__ import annotations

import gc
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import PowerLaw, store
from repro.core import batch_routing, builder
from repro.core.builder import GraphConfig
from repro.overlay import bulk_dynamics
from repro.overlay.network import Network
from repro.serving import DemandModel, ServeConfig, ServingEngine

import checks
import hostinfo

WORKLOADS = ("serve", "churn")

#: Peer-id distribution shared by every workload.
DISTRIBUTION = PowerLaw(alpha=1.5)

#: ``serve``'s user population (Pareto activity, home-key ranks, entry
#: peers) is one fixed draw.  Drawn from the run seed, the heavy activity
#: tail alone moved the cache hit rate over 0.775-0.800 between seeds;
#: the seed still picks the graph and every request.
POPULATION_SEED = 0


@dataclass(frozen=True)
class Sizes:
    """How much work one run does.

    Attributes:
        n: peers in the built graph.
        warmup: untimed warm-up lookups (serve).
        lookups: timed lookups (serve) or lookups per epoch (churn).
        clients: closed-loop clients (serve) or lookups per
            ``route_many`` call (churn).
        epochs: timed churn epochs.
        builds: builds before the timed phase.
        builds_after: builds after the timed phase (``churn``, whose
            build is short).  ``build_s`` is the median of all builds,
            which then sample the host at both ends of the run rather
            than at its start alone.
        setups: set-up repetitions; ``setup_s`` is their median.
        replay: lookups replayed through ``route_many`` by the check.
        users: DemandModel population (``serve``).
    """

    n: int
    warmup: int = 0
    lookups: int = 0
    clients: int = 1
    epochs: int = 0
    builds: int = 1
    builds_after: int = 0
    setups: int = 3
    replay: int = 20_000
    users: int = 100_000


#: Timed work per second of ``--seconds``, from the rates measured on a
#: 2-CPU host (~235k lookups/s serve, ~0.4 epochs/s churn).  They fix the
#: amount of work, not the duration.
_PER_SECOND = {"serve": 240_000, "churn": 0.35}


def sizes(workload: str, seconds: float, tiny: bool = False) -> Sizes:
    """Work of one run of ``workload`` with ``--seconds seconds``.

    ``tiny`` is the unit-test scale: a 4096-peer graph, a few thousand
    lookups and two epochs.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if tiny:
        if workload == "churn":
            return Sizes(
                n=4096, lookups=2000, clients=200, epochs=2, builds=2, builds_after=1,
                setups=2,
            )
        return Sizes(
            n=4096, warmup=1000, lookups=3000, clients=64, setups=2,
            replay=1000, users=500,
        )
    work = _PER_SECOND[workload] * seconds
    if workload == "churn":
        return Sizes(
            n=200_000, lookups=100_000, clients=1000, epochs=max(2, round(work)),
            builds=3, builds_after=2,
        )
    lookups = max(100_000, int(round(work, -4)))
    return Sizes(n=1_000_000, warmup=100_000, lookups=lookups, clients=4096)


def seeds(seed: int) -> tuple[np.random.Generator, ...]:
    """Independent generators for the graph, the traffic and the churn."""
    return tuple(
        np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(3)
    )


@dataclass
class Phase:
    """Wall clock, CPU, steal and memory of one timed phase."""

    wall: float = 0.0
    cpu_share: float = 0.0
    steal_share: float = 0.0
    peak_rss_mb: float = 0.0
    peak_rss_source: str = ""


class Measure:
    """Context manager that times one phase into a :class:`Phase`."""

    def __init__(self):
        self.phase = Phase()

    def __enter__(self) -> Phase:
        gc.collect()
        self.phase.peak_rss_source = hostinfo.reset_peak_rss()
        self._steal = hostinfo.cpu_ticks()
        self._cpu = time.process_time()
        self._t0 = time.perf_counter()
        return self.phase

    def __exit__(self, *exc) -> None:
        phase = self.phase
        phase.wall = time.perf_counter() - self._t0
        phase.cpu_share = (time.process_time() - self._cpu) / phase.wall
        phase.steal_share = hostinfo.steal_share(self._steal, hostinfo.cpu_ticks())
        phase.peak_rss_mb = hostinfo.peak_rss_mb(phase.peak_rss_source)


@dataclass
class Outcome:
    """Per-lookup outcome columns of one timed phase, plus its counters."""

    sources: np.ndarray
    keys: np.ndarray
    owners: np.ndarray
    hops: np.ndarray
    reasons: np.ndarray
    success: np.ndarray
    completed: np.ndarray
    cache_hit: np.ndarray
    latency_s: np.ndarray
    counters: dict = field(default_factory=dict)


def _span(tracer, name: str):
    """A benchmark phase span in a traced run, nothing otherwise."""
    return nullcontext() if tracer is None else tracer.span(name)


@dataclass
class Session:
    """State one set-up leaves ready to time.

    Serve workloads hold the loaded snapshot and its warmed engine;
    ``churn`` holds the live network and its churn generator.
    """

    graph: object = None
    engine: object = None
    network: object = None
    rng: object = None


def closed_loop(engine, sources, keys, clients, tracer=None, timeline=None) -> int:
    """Serve every lookup with at most ``clients`` outstanding; return pumps.

    Each client submits its next lookup after the pump that retired its
    previous one, so the offered load follows the engine's speed.  When
    given, ``timeline`` receives ``(clock, lookups completed)`` after
    every pump.
    """
    total = len(keys)
    first = engine.completed
    target = first + total
    nxt = min(clients, total)
    engine.submit(sources[:nxt], keys[:nxt])
    pumps = 0
    while engine.completed < target:
        if tracer is not None:
            tracer.group = pumps
        done = engine.pump()
        pumps += 1
        if timeline is not None:
            timeline.append((time.perf_counter(), engine.completed - first))
        if done and nxt < total:
            m = min(done, total - nxt)
            engine.submit(sources[nxt : nxt + m], keys[nxt : nxt + m])
            nxt += m
    return pumps


class Workload:
    """One workload's build, set-ups, timed phase and checks.

    A set-up returns a :class:`Session` — a served engine or a live
    network, ready to time — so a traced run can hold an untraced and a
    traced session side by side and time both under the same memory
    state.

    Args:
        name: one of :data:`WORKLOADS`.
        seed: names every input of the run.
        size: the run's :class:`Sizes`.
        workdir: scratch directory for store snapshots.
    """

    def __init__(self, name: str, seed: int, size: Sizes, workdir: Path):
        self.name = name
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.graph = None
        self.build_times: list[float] = []
        self._stream = None
        self._snapshots = 0

    def build(self, repeats: int | None = None) -> None:
        """Build the eq. (7) model from the seed, CSR included.

        Makes ``repeats`` (default ``size.builds``) identical builds and
        adds their seconds to ``build_times``; the last graph stays in
        ``graph``.
        """
        config = GraphConfig(bidirectional=self.name == "serve")
        for _ in range(self.size.builds if repeats is None else repeats):
            self.drop_build()
            graph_rng, _, _ = seeds(self.seed)
            started = time.perf_counter()
            graph = builder.build_skewed_model(
                DISTRIBUTION, n=self.size.n, rng=graph_rng, config=config
            )
            graph.adjacency  # noqa: B018 - the CSR is part of the build
            self.build_times.append(time.perf_counter() - started)
            self.graph = graph

    @property
    def build_s(self) -> float:
        """Median seconds of every build so far."""
        return statistics.median(self.build_times)

    def drop_build(self) -> None:
        """Release the built graph; sessions serve from what they loaded."""
        self.graph = None
        gc.collect()

    def setup(self, tracer=None) -> tuple[float, Session]:
        """One set-up from the built graph; returns its seconds and session."""
        if self.name == "churn":
            return self._setup_churn(tracer)
        return self._setup_serve(tracer)

    def timed(self, session: Session, tracer=None) -> tuple[Phase, Outcome]:
        """The timed phase on ``session``; returns measurements and outcomes."""
        if self.name == "churn":
            return self._timed_churn(session, tracer)
        return self._timed_serve(session, tracer)

    def verify(self, session: Session, outcome: Outcome) -> None:
        """Run every correctness check; raise :class:`checks.CheckFailed`."""
        checks.all_completed(outcome.success, outcome.completed)
        routed = ~outcome.cache_hit
        checks.hops_within_baseline(
            float(outcome.hops[routed].mean()), outcome.counters["n"],
            outcome.counters["mean_out_degree"],
        )
        if self.name == "churn":
            checks.churn_epochs(
                outcome.counters["live_after_epoch"], self.size.n,
                outcome.counters["ids_sorted_distinct"],
            )
            return
        checks.cache_hits_match(
            session.graph, outcome.keys, outcome.owners, outcome.cache_hit
        )
        pick = self.replay_sample(len(outcome.keys))
        checks.replay_matches(
            session.graph, outcome.sources[pick], outcome.keys[pick],
            outcome.owners[pick], outcome.hops[pick], outcome.reasons[pick],
            outcome.cache_hit[pick],
        )

    def replay_sample(self, lookups: int) -> np.ndarray:
        """Indices of the timed lookups the replay check re-routes."""
        rng = np.random.default_rng(self.seed)
        return rng.choice(lookups, size=min(self.size.replay, lookups), replace=False)

    def close(self) -> None:
        """Drop the built graph and remove the run's snapshots."""
        self.drop_build()
        shutil.rmtree(self.workdir, ignore_errors=True)

    # ------------------------------------------------------------------
    # serve
    # ------------------------------------------------------------------
    def _traffic(self) -> tuple[np.ndarray, np.ndarray]:
        """Warm-up followed by timed lookups, drawn from the seed."""
        _, rng, _ = seeds(self.seed)
        demand = DemandModel(
            self.graph.ids, n_users=self.size.users, n_peers=self.size.n,
            rng=np.random.default_rng(POPULATION_SEED),
        )
        _, sources, keys = demand.draw(self.size.warmup + self.size.lookups, rng)
        return sources, keys

    def _setup_serve(self, tracer) -> tuple[float, Session]:
        if self._stream is None:
            self._stream = self._traffic()
        # Earlier snapshots stay mapped by their sessions until those are
        # dropped; unlinking the files now only returns the disk space then.
        shutil.rmtree(self.workdir / f"snapshot-{self._snapshots - 1}", ignore_errors=True)
        path = self.workdir / f"snapshot-{self._snapshots}"
        self._snapshots += 1
        config = ServeConfig(cache_capacity=8192)
        warm = self.size.warmup
        sources, keys = self._stream
        started = time.perf_counter()
        store.save_graph(self.graph, path)
        served = store.load_graph(path)
        engine = ServingEngine(served, config)
        with _span(tracer, "setup.warmup"):
            closed_loop(engine, sources[:warm], keys[:warm], self.size.clients)
        return time.perf_counter() - started, Session(graph=served, engine=engine)

    def _timed_serve(self, session: Session, tracer) -> tuple[Phase, Outcome]:
        engine = session.engine
        warm = self.size.warmup
        sources, keys = self._stream[0][warm:], self._stream[1][warm:]
        cache = engine.cache
        before = (cache.hits, cache.misses, cache.evictions) if cache else (0, 0, 0)
        first = engine.completed
        timeline = []
        with Measure() as phase, _span(tracer, "timed"):
            timeline.append((time.perf_counter(), 0))
            pumps = closed_loop(engine, sources, keys, self.size.clients, tracer, timeline)
        res = engine.results()
        window = slice(first, first + len(keys))
        after = (cache.hits, cache.misses, cache.evictions) if cache else (0, 0, 0)
        csr = session.graph.adjacency
        outcome = Outcome(
            sources=res.sources[window].copy(),
            keys=res.keys[window].copy(),
            owners=res.owners[window].copy(),
            hops=res.hops[window].copy(),
            reasons=res.reason_codes[window].copy(),
            success=res.success[window].copy(),
            completed=res.completed[window].copy(),
            cache_hit=res.cache_hit[window].copy(),
            latency_s=res.latency_seconds[window].copy(),
            counters={
                "n": csr.n,
                "mean_out_degree": csr.n_edges / csr.n,
                "pumps": pumps,
                "timeline": np.array(timeline),
                "cache_hits": after[0] - before[0],
                "cache_misses": after[1] - before[1],
                "cache_evictions": after[2] - before[2],
            },
        )
        return phase, outcome

    # ------------------------------------------------------------------
    # churn
    # ------------------------------------------------------------------
    def _setup_churn(self, tracer) -> tuple[float, Session]:
        _, _, rng = seeds(self.seed)
        started = time.perf_counter()
        network = Network.from_graph(self.graph)
        with _span(tracer, "setup.warmup"):
            self._epoch(network, rng, None)
        return time.perf_counter() - started, Session(network=network, rng=rng)

    def _epoch(self, network, rng, log) -> None:
        """Leave, join, repair, snapshot, then route the epoch's lookups."""
        size = self.size
        arrived = time.perf_counter()
        m = size.n // 20
        leaving = rng.choice(network.ids_array(), size=m, replace=False)
        left = bulk_dynamics.bulk_leave(network, leaving)
        cohort = bulk_dynamics.sample_cohort_ids(network, DISTRIBUTION, m, rng)
        joined = bulk_dynamics.bulk_join(network, cohort, DISTRIBUTION, rng)
        repaired = bulk_dynamics.bulk_repair(
            network, rng, DISTRIBUTION, fraction=0.1, refresh=True
        )
        snap = network.snapshot()
        sources = rng.integers(0, snap.n, size=size.lookups)
        keys = DISTRIBUTION.sample(size.lookups, rng)
        for lo in range(0, size.lookups, size.clients):
            hi = min(lo + size.clients, size.lookups)
            batch = batch_routing.route_many(snap, sources[lo:hi], keys[lo:hi], workers=1)
            if log is not None:
                log["latency"].append(np.full(hi - lo, time.perf_counter() - arrived))
                log["batches"].append(batch)
        if log is not None:
            log["events"] += left.peers + joined.peers
            log["links_installed"] += joined.links_installed + repaired.links_installed
            log["dangling_dropped"] += repaired.dangling_dropped
            log["draw_rounds"] += joined.rounds + repaired.rounds
            log["live_after_epoch"].append(network.n)
            log["ids_sorted_distinct"].append(bool(np.all(np.diff(snap.ids) > 0)))
            log["n_edges"] += snap.adjacency.n_edges

    def _timed_churn(self, session: Session, tracer) -> tuple[Phase, Outcome]:
        network, rng = session.network, session.rng
        log = {
            "latency": [], "batches": [], "events": 0, "links_installed": 0,
            "dangling_dropped": 0, "draw_rounds": 0, "live_after_epoch": [],
            "ids_sorted_distinct": [], "n_edges": 0,
        }
        timeline = []
        with Measure() as phase, _span(tracer, "timed"):
            timeline.append((time.perf_counter(), 0))
            for epoch in range(self.size.epochs):
                if tracer is not None:
                    tracer.group = epoch
                with _span(tracer, "epoch"):
                    self._epoch(network, rng, log)
                timeline.append((time.perf_counter(), (epoch + 1) * self.size.lookups))
        batches = log["batches"]

        def column(attr):
            return np.concatenate([getattr(b, attr) for b in batches])

        hops = column("hops")
        lookups = len(hops)
        outcome = Outcome(
            sources=column("sources"),
            keys=column("target_keys"),
            owners=column("owners"),
            hops=hops,
            reasons=column("reason_codes"),
            success=column("success"),
            completed=np.ones(lookups, dtype=bool),
            cache_hit=np.zeros(lookups, dtype=bool),
            latency_s=np.concatenate(log["latency"]),
            counters={
                "n": self.size.n,
                "mean_out_degree": log["n_edges"] / (self.size.n * self.size.epochs),
                "timeline": np.array(timeline),
                "calls": len(batches),
                "events": log["events"],
                "links_installed": log["links_installed"],
                "dangling_dropped": log["dangling_dropped"],
                "draw_rounds": log["draw_rounds"],
                "live_after_epoch": log["live_after_epoch"],
                "ids_sorted_distinct": log["ids_sorted_distinct"],
            },
        )
        return phase, outcome
