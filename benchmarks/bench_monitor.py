"""The monitor: observability must be (nearly) free.

Gates :mod:`repro.monitor` on one promise: a fully-monitored serving
session — window series, anomaly detectors and SLO burn rates on every
pump, with telemetry enabled and a 1-in-64 flight recorder attached —
sustains **>= 95%** of the same workload's un-monitored throughput.
The monitor's one health probe runs when it is built and the recorder
reads the outcome log only when traces are exported, so neither falls
inside the timed ``engine.serve``.

The two sides run in :data:`OVERHEAD_PAIRS` alternating pairs (which
side goes first flips every pair, so drift on a shared host hits
both).  Each serve is timed in CPU seconds (``time.process_time``; the
gated code runs in this one process), and the gate compares the
throughput ratio of the two sides' median runs.  One re-measure runs
when the first set of pairs reads below the gate.  The determinism
contract is asserted on every pair: the monitored and un-monitored
streams produce bit-identical per-query outcome columns (monitoring
observes; it never perturbs).

A second layer checks the flight recorder's exports end-to-end: the
sampled set is the deterministic hash choice, the Chrome trace JSON is
structurally valid, and every per-round span chain replays to exactly
the hop count the live walk reported.

Every layer appends to ``benchmarks/results/BENCH_monitor.json``; the
overhead gate records every pair's timings.
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np
import pytest

from repro import telemetry
from repro.core import GraphConfig, build_uniform_model
from repro.monitor import FlightRecorder, Monitor, sample_mask
from repro.serving import DemandModel, ServeConfig, ServingEngine

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
TRAJECTORY = RESULTS_DIR / "BENCH_monitor.json"

N_PEERS = 200_000
N_QUERIES = 120_000
N_USERS = 20_000
SAMPLE_RATE = 64
OVERHEAD_GATE = 0.95  # monitored throughput >= 95% of un-monitored
OVERHEAD_PAIRS = 16  # alternating un-monitored/monitored pairs per attempt

_OUTCOME_COLS = (
    "owners", "hops", "neighbor_hops", "long_hops", "success",
    "reason_codes", "cache_hit",
)


def _record_trajectory(entry: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    history.append(entry)
    TRAJECTORY.write_text(json.dumps(history, indent=2) + "\n")


@pytest.fixture(scope="module")
def graph():
    g = build_uniform_model(
        N_PEERS, np.random.default_rng(3), GraphConfig(out_degree=8)
    )
    _ = g.adjacency
    return g


def _serve(graph, monitored: bool):
    """One full serving session; returns (CPU seconds, results, recorder).

    Only ``engine.serve`` is timed: the engine, the demand model and
    the monitor (with its health probe) are built before the clock
    starts.
    """
    rng = np.random.default_rng(5)
    demand = DemandModel(
        graph.ids, n_users=N_USERS, n_peers=graph.n, rng=rng
    )
    engine = ServingEngine(
        graph,
        ServeConfig(admit_per_round=4096, max_active=32_768, cache_capacity=8192),
    )
    recorder = None
    if monitored:
        telemetry.enable()
        engine.attach_monitor(Monitor(engine, window=4096))
        recorder = FlightRecorder(engine, sample_rate=SAMPLE_RATE)
    try:
        start = time.process_time()
        engine.serve(demand, N_QUERIES, rng)
        seconds = time.process_time() - start
    finally:
        if monitored:
            telemetry.disable()
    return seconds, engine.results(), recorder


def _alternating_pairs(graph):
    """Run :data:`OVERHEAD_PAIRS` pairs; return their timings and the
    last monitored run's recorder.

    Every run is fully seeded, so outcome columns are identical across
    repeats and only the timing varies; parity is asserted per pair.
    """
    pairs = []
    # One untimed session per side first: the first serve in a process
    # pays one-time costs (the CSR's row-order scan among them) that
    # would otherwise land on whichever side happened to run first.
    _serve(graph, False)
    _serve(graph, True)
    for pair in range(OVERHEAD_PAIRS):
        order = (False, True) if pair % 2 == 0 else (True, False)
        runs = {monitored: _serve(graph, monitored) for monitored in order}
        (base_s, base_results, _), (mon_s, mon_results, recorder) = (
            runs[False], runs[True]
        )
        for col in _OUTCOME_COLS:
            assert np.array_equal(
                getattr(base_results, col), getattr(mon_results, col)
            ), f"monitoring perturbed outcome column {col!r}"
        pairs.append(
            {
                "first": "monitored" if order[0] else "unmonitored",
                "unmonitored_seconds": round(base_s, 5),
                "monitored_seconds": round(mon_s, 5),
            }
        )
    return pairs, recorder


def test_monitor_overhead_gate(graph):
    """The PR gate: monitored serving >= 95% of un-monitored throughput.

    Outcome-column parity between the two sides is asserted always —
    the monitor must observe without perturbing.
    """
    wall_started = time.perf_counter()
    # One re-measure on a below-gate first attempt: the gate fails only
    # when two independent sets of pairs both show >5% overhead.
    attempts = []
    for _attempt in range(2):
        pairs, recorder = _alternating_pairs(graph)
        base_s = float(np.median([p["unmonitored_seconds"] for p in pairs]))
        mon_s = float(np.median([p["monitored_seconds"] for p in pairs]))
        ratio = base_s / mon_s  # monitored / un-monitored throughput
        attempts.append(
            {
                "pair_seconds": pairs,
                "unmonitored_median_seconds": round(base_s, 5),
                "monitored_median_seconds": round(mon_s, 5),
                "throughput_ratio": round(ratio, 4),
            }
        )
        if ratio >= OVERHEAD_GATE:
            break
    n_sampled = recorder.n_sampled
    print(
        f"\nmonitor overhead at n={N_PEERS}, {N_QUERIES} queries, "
        f"1-in-{SAMPLE_RATE} tracing, {OVERHEAD_PAIRS} alternating pairs "
        f"(CPU s): median {N_QUERIES / base_s:,.0f} -> "
        f"{N_QUERIES / mon_s:,.0f} lookups/s "
        f"({ratio:.3f}x, sampled {n_sampled}, attempts {len(attempts)})"
    )
    print(f"gate: monitored >= {OVERHEAD_GATE:.0%} of un-monitored")
    _record_trajectory(
        {
            "timestamp": time.time(),
            "kind": "monitor_overhead",
            "n": N_PEERS,
            "queries": N_QUERIES,
            "sample_rate": SAMPLE_RATE,
            "timer": "process_time",
            "pairs": OVERHEAD_PAIRS,
            "attempts": attempts,
            "baseline_lookups_per_sec": N_QUERIES / base_s,
            "monitored_lookups_per_sec": N_QUERIES / mon_s,
            "throughput_ratio": ratio,
            "n_sampled": n_sampled,
            "outcome_parity": True,
            "gate": OVERHEAD_GATE,
            "wall_seconds": round(time.perf_counter() - wall_started, 4),
        }
    )
    assert ratio >= OVERHEAD_GATE, (
        f"monitored serving at {ratio:.3f}x of un-monitored throughput, "
        f"below the {OVERHEAD_GATE:.0%} gate"
    )


def test_flight_recorder_export(graph):
    """Sampled set is the hash choice; Chrome export is valid and replays true."""
    _, results, recorder = _serve(graph, monitored=True)
    expected = np.flatnonzero(
        sample_mask(results.sources, results.keys, SAMPLE_RATE)
    ).tolist()
    # traces() raises if any replayed hop chain disagrees with the
    # engine's outcome log.
    traces = recorder.traces()
    assert [t.ticket for t in traces] == expected
    assert recorder.n_sampled == len(expected)
    out = RESULTS_DIR / "monitor_chrome_trace.json"
    RESULTS_DIR.mkdir(exist_ok=True)
    n_events = recorder.export_chrome_trace(out)
    payload = json.loads(out.read_text())
    assert isinstance(payload["traceEvents"], list)
    assert len(payload["traceEvents"]) == n_events
    lookups = [e for e in payload["traceEvents"] if e["name"] == "lookup"]
    assert len(lookups) == len(traces)
    for event in payload["traceEvents"]:
        assert event["ph"] == "X"
        assert {"name", "ts", "dur", "pid", "tid", "args"} <= set(event)
    print(
        f"\nflight recorder: {len(traces)} sampled lookups, "
        f"{n_events} Chrome trace events, replay verified"
    )
    _record_trajectory(
        {
            "timestamp": time.time(),
            "kind": "flight_recorder_export",
            "n": N_PEERS,
            "queries": N_QUERIES,
            "sample_rate": SAMPLE_RATE,
            "n_sampled": len(expected),
            "chrome_events": n_events,
            "replay_verified": True,
        }
    )
