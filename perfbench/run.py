"""Repository benchmark: one workload, one seed, fixed work, one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` is the separate traced run of the same workload and seed:
it wraps the public calls of each layer (see ``tracer.py``), prints the
per-layer metrics and a per-layer table of calls, self time and share of
timed wall time, and writes the spans as a Chrome trace under
``.perfbench/traces/``.  Every run writes a run record (seed, commit,
CPUs, CPU and steal share, sample count, every metric) under
``.perfbench/records/``.

The amount of work is a pure function of ``(workload, seed,
seconds)``; ``--seconds`` only sizes it (see ``workloads.sizes``).  The
run builds its graph from ``src/`` of the checkout it sits in and
exits 2 without a result when that tree is missing.  When a
correctness check fails it prints the result with ``"correct": false``
and exits 1.
"""

from __future__ import annotations

import os

# One process, one thread: keep native libraries from starting pools.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: End-to-end metrics of every workload: name -> unit.
END_TO_END = {
    "throughput_lps": "lookups/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "hops_mean": "hops",
    "success_rate": "ratio",
    "build_s": "s",
    "setup_s": "s",
    "setup_rss_mb": "MB",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run: name -> unit.  Every workload
#: prints all of them; a layer the workload does not run reads 0.
PER_LAYER = {
    "build.bulk_links_s": "s",
    "build.symmetrize_s": "s",
    "build.edges": "count",
    "store.save_s": "s",
    "store.load_s": "s",
    "setup.warmup_s": "s",
    "overlay.from_graph_s": "s",
    "engine.submit_s": "s",
    "engine.pump_s": "s",
    "engine.self_s": "s",
    "engine.pumps": "count",
    "engine.lookups_per_pump": "lookups",
    "engine.stall_max_ms": "ms",
    "cache.lookup_s": "s",
    "cache.insert_s": "s",
    "cache.hit_rate": "ratio",
    "cache.evictions": "count",
    "routing.prepare_s": "s",
    "frontier.admit_s": "s",
    "frontier.release_s": "s",
    "frontier.step_padded_s": "s",
    "frontier.step_ragged_s": "s",
    "frontier.rounds_padded": "count",
    "frontier.rounds_ragged": "count",
    "frontier.walks_per_round": "walks",
    "frontier.candidates": "count",
    "frontier.fill_ratio": "ratio",
    "routing.route_many_s": "s",
    "overlay.leave_s": "s",
    "overlay.join_s": "s",
    "overlay.repair_s": "s",
    "overlay.snapshot_s": "s",
    "overlay.events": "count",
    "overlay.links_installed": "count",
    "overlay.dangling_dropped": "count",
    "overlay.draw_rounds": "count",
    "host.cpu_share": "ratio",
    "host.steal_share": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def bootstrap() -> None:
    """Import ``repro`` from this checkout's ``src/`` or exit 2."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        _die(f"no repro package under {package}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        _die(f"imported repro from {repro.__file__}, not {package}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="unit-test scale: 4096 peers, a few thousand lookups, two epochs",
    )
    return parser.parse_args(argv)


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; return ``(result line dict, run record dict)``."""
    import checks
    import hostinfo
    import workloads
    from tracer import Tracer

    size = workloads.sizes(workload, seconds, tiny=tiny)
    workdir = OUT / "tmp" / f"{workload}-{seed}-{os.getpid()}"
    wl = workloads.Workload(workload, seed, size, workdir)
    tracer = Tracer() if trace else None
    try:
        if tracer is None:
            metrics, phase, outcome, session, setup_times = _untraced(wl)
        else:
            metrics, phase, outcome, session, setup_times = _traced(wl, tracer)
        correct, failure = True, ""
        try:
            wl.verify(session, outcome)
        except checks.CheckFailed as exc:
            correct, failure = False, str(exc)
    finally:
        session = None
        wl.close()

    lookups = len(outcome.keys)
    failed = int(lookups - np.count_nonzero(outcome.success & outcome.completed))
    rates, p50, p99 = windowed(outcome, size.epochs or SERVE_WINDOWS)
    extras = {
        "fail_rate": failed / lookups,
        "lookups": lookups,
        "latency_samples": len(outcome.latency_s),
        "timed_wall_s": phase.wall,
        "cache.hit_rate": _hit_rate(outcome.counters),
        "window_rates": rates,
        "throughput_whole_run": lookups / phase.wall,
        "latency_p99_whole_run_ms": float(np.percentile(outcome.latency_s, 99)) * 1e3,
    }
    if workload == "churn":
        extras["churn_eps"] = outcome.counters["events"] / phase.wall
        extras["epochs"] = size.epochs
        extras["route_many_calls"] = outcome.counters["calls"]
    if tracer is None:
        metrics.update(
            throughput_lps=statistics.median(rates),
            latency_p50_ms=p50 * 1e3,
            latency_p99_ms=p99 * 1e3,
            hops_mean=float(outcome.hops[~outcome.cache_hit].mean()),
            success_rate=1.0 - failed / lookups,
        )
    units = END_TO_END if tracer is None else PER_LAYER
    result = {
        "correct": correct,
        "attempted": lookups,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "tiny": tiny,
        "commit": hostinfo.commit_sha(ROOT),
        "source_sha256": hostinfo.source_digest(SRC),
        "nproc": hostinfo.nproc(),
        "host.cpu_share": phase.cpu_share,
        "host.steal_share": phase.steal_share,
        "peak_rss_source": phase.peak_rss_source,
        "build_times_s": wl.build_times,
        "setup_times_s": setup_times,
        "sizes": dataclasses.asdict(size),
        "correct": correct,
        "failure": failure,
        "metrics": metrics,
        "extras": extras,
        "unix_time": time.time(),
    }
    if tracer is not None:
        record["layers"] = tracer.layer_table(tracer.names.index("timed"))[0]
        record["tracer"] = tracer
    return result, record


def _untraced(wl):
    """Build, set up ``size.setups`` times, time the last session.

    The ``size.builds_after`` further builds come after the timed phase.
    """
    import hostinfo

    wl.build()
    setup_times = []
    session = None
    for _ in range(wl.size.setups):
        session = None  # release the previous session first
        seconds, session = wl.setup()
        setup_times.append(seconds)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "setup_rss_mb": hostinfo.maxrss_mb(),
    }
    wl.drop_build()
    phase, outcome = wl.timed(session)
    metrics["peak_rss_mb"] = phase.peak_rss_mb
    wl.build(wl.size.builds_after)
    wl.drop_build()
    metrics["build_s"] = wl.build_s
    return metrics, phase, outcome, session, setup_times


def _traced(wl, tracer):
    """Traced build and set-up; time an untraced and a traced session.

    Both sessions are set up before the build is dropped and timed after
    it, so the overhead comparison runs both under one memory state.
    """
    with tracer.installed(), tracer.span("build.root") as build_root:
        wl.build()
    edges = wl.graph.adjacency.n_edges
    plain_seconds, plain = wl.setup()
    with tracer.installed(), tracer.span("setup") as setup_root:
        traced_seconds, session = wl.setup(tracer)
    wl.drop_build()
    plain_phase, _ = wl.timed(plain)
    plain = None
    before = dict(tracer.counts)
    with tracer.installed():
        phase, outcome = wl.timed(session, tracer)
    counts = {k: v - before.get(k, 0.0) for k, v in tracer.counts.items()}
    metrics = layer_metrics(
        tracer, (build_root, setup_root, tracer.names.index("timed")), counts, outcome,
        edges, phase, plain_phase,
    )
    return metrics, phase, outcome, session, [plain_seconds, traced_seconds]


#: Serve runs split their timed lookups into this many windows of equal
#: work (churn: one window per epoch) and report the median window for
#: throughput and latency, so one disturbed stretch of a shared host
#: does not set the run's figure.
SERVE_WINDOWS = 8


def windowed(outcome, windows: int) -> tuple[list[float], float, float]:
    """Per-window rates and the median window's p50 and p99 latency (seconds).

    The timed lookups split into ``windows`` stretches of equal work.  A
    window's rate runs from the first timeline checkpoint at or past its
    lower share of the work to the first at or past its upper share;
    its latencies are those of its lookups in submission order.
    """
    timeline = outcome.counters["timeline"]
    clock, done = timeline[:, 0], timeline[:, 1]
    marks = np.searchsorted(done, done[-1] * np.arange(windows + 1) / windows)
    rates = [
        float((done[b] - done[a]) / (clock[b] - clock[a]))
        for a, b in zip(marks[:-1], marks[1:])
        if b > a
    ]
    blocks = np.array_split(outcome.latency_s, windows)
    p50 = statistics.median(float(np.percentile(b, 50)) for b in blocks)
    p99 = statistics.median(float(np.percentile(b, 99)) for b in blocks)
    return rates, p50, p99


def _hit_rate(counters: dict) -> float:
    probes = counters.get("cache_hits", 0) + counters.get("cache_misses", 0)
    return counters.get("cache_hits", 0) / probes if probes else 0.0


def layer_metrics(tracer, roots, counts, outcome, edges, phase, plain_phase) -> dict:
    """Per-layer numbers of the traced run (see ``PER_LAYER``).

    ``roots`` are the build, set-up and timed phase spans; ``*_s``
    metrics sum the inclusive durations of one span name under its root.
    """
    build_root, setup_root, timed_root = roots
    durations = {root: _durations(tracer, root) for root in roots}

    def total(root, name):
        return sum(durations[root].get(name, ()))

    own = tracer.self_times()
    timed = tracer.within(timed_root)
    pumps = [sid for sid in timed if tracer.names[sid] == "engine.pump"]
    stalls = [
        tracer.ends[sid] - tracer.starts[sid]
        for sid in timed
        if tracer.names[sid] in ("engine.pump", "engine.submit")
    ]
    rounds = counts.get("rounds_padded", 0) + counts.get("rounds_ragged", 0)
    c = outcome.counters
    rows, wall = tracer.layer_table(timed_root)
    outside = rows[-1][2]
    builds = tracer.names.count("build")
    lookups = len(outcome.keys)
    return {
        "build.bulk_links_s": total(build_root, "build.bulk_links") / builds,
        "build.symmetrize_s": total(build_root, "build.symmetrize") / builds,
        "build.edges": edges,
        "store.save_s": total(setup_root, "store.save"),
        "store.load_s": total(setup_root, "store.load"),
        "setup.warmup_s": total(setup_root, "setup.warmup"),
        "overlay.from_graph_s": total(setup_root, "overlay.from_graph"),
        "engine.submit_s": total(timed_root, "engine.submit"),
        "engine.pump_s": total(timed_root, "engine.pump"),
        "engine.self_s": sum(own[sid] for sid in pumps),
        "engine.pumps": len(pumps),
        "engine.lookups_per_pump": lookups / len(pumps) if pumps else 0.0,
        "engine.stall_max_ms": max(stalls, default=0.0) * 1e3,
        "cache.lookup_s": total(timed_root, "cache.lookup"),
        "cache.insert_s": total(timed_root, "cache.insert"),
        "cache.hit_rate": _hit_rate(c),
        "cache.evictions": c.get("cache_evictions", 0),
        "routing.prepare_s": total(timed_root, "routing.prepare"),
        "frontier.admit_s": total(timed_root, "frontier.admit"),
        "frontier.release_s": total(timed_root, "frontier.release"),
        "frontier.step_padded_s": total(timed_root, "frontier.step_padded"),
        "frontier.step_ragged_s": total(timed_root, "frontier.step_ragged"),
        "frontier.rounds_padded": int(counts.get("rounds_padded", 0)),
        "frontier.rounds_ragged": int(counts.get("rounds_ragged", 0)),
        "frontier.walks_per_round": counts.get("walks", 0) / rounds if rounds else 0.0,
        "frontier.candidates": int(counts.get("candidates", 0)),
        "frontier.fill_ratio": (
            counts["candidates"] / counts["padded_slots"]
            if counts.get("padded_slots") else 0.0
        ),
        "routing.route_many_s": total(timed_root, "routing.route_many"),
        "overlay.leave_s": total(timed_root, "overlay.leave"),
        "overlay.join_s": total(timed_root, "overlay.join"),
        "overlay.repair_s": total(timed_root, "overlay.repair"),
        "overlay.snapshot_s": total(timed_root, "overlay.snapshot"),
        "overlay.events": c.get("events", 0),
        "overlay.links_installed": c.get("links_installed", 0),
        "overlay.dangling_dropped": c.get("dangling_dropped", 0),
        "overlay.draw_rounds": c.get("draw_rounds", 0),
        "host.cpu_share": phase.cpu_share,
        "host.steal_share": phase.steal_share,
        "trace.coverage": 1.0 - outside / wall,
        "trace.overhead": 1.0 - plain_phase.wall / phase.wall,
    }


def _durations(tracer, root) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for sid in tracer.within(root):
        out.setdefault(tracer.names[sid], []).append(tracer.ends[sid] - tracer.starts[sid])
    return out


def report(result: dict, record: dict) -> str:
    """Human-readable lines: every metric with its unit, then the layer table."""
    lines = [
        f"workload {record['workload']}  seed {record['seed']}  "
        f"trace {record['trace']}  correct {record['correct']}"
    ]
    if record["failure"]:
        lines.append(f"CHECK FAILED: {record['failure']}")
    for name, entry in result["metrics"].items():
        lines.append(f"  {name:<26} {entry['value']:>16.6g} {entry['unit']}")
    extras = record["extras"]
    lines.append(
        f"  latency samples {extras['latency_samples']}  lookups {extras['lookups']}  "
        f"fail_rate {extras['fail_rate']:.6g}  cache.hit_rate {extras['cache.hit_rate']:.6g}"
        + (f"  churn_eps {extras['churn_eps']:.6g}" if "churn_eps" in extras else "")
    )
    lines.append(
        f"  host: nproc {record['nproc']}  cpu_share {record['host.cpu_share']:.3f}  "
        f"steal_share {record['host.steal_share']:.4f}  "
        f"peak rss via {record['peak_rss_source']}"
    )
    if "layers" in record:
        lines.append(f"  {'layer':<26} {'calls':>9} {'self s':>10} {'share':>7}")
        for name, calls, secs, share in record["layers"]:
            lines.append(f"  {name:<26} {calls:>9} {secs:>10.4f} {share:>7.1%}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _die(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(record['unix_time'])}"
    tracer = record.pop("tracer", None)
    if tracer is not None:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        trace_path = OUT / "traces" / f"{stem}.json"
        record["trace_file"] = str(trace_path.relative_to(ROOT))
        tracer.export_chrome_trace(trace_path)
    (OUT / "records").mkdir(parents=True, exist_ok=True)
    record_path = OUT / "records" / f"{stem}.json"
    record_path.write_text(json.dumps(record, indent=1, default=float) + "\n")
    print(report(result, record))
    print(f"record {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
