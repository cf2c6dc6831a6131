"""Command-line entry point: ``python -m repro`` / ``repro-experiments``.

Subcommands:

* ``list`` — show the experiment registry;
* ``run E1 [E5 ...]`` — run experiments and print their tables
  (``--quick`` for the reduced-size variants, ``--seed`` for
  reproducibility, ``--csv`` for machine-readable output,
  ``--workers N`` to shard lookup batches over N worker threads);
* ``run all`` — run the full suite in registry order;
* ``build --store PATH`` — build a model graph and persist it as a
  :mod:`repro.store` snapshot;
* ``load --store PATH`` — memmap a snapshot back (no rebuild) and
  route a lookup batch over it;
* ``serve`` — stream heavy-tailed lookup traffic through the
  :mod:`repro.serving` engine (from a snapshot or a fresh build) and
  print the p50/p99/p999 SLO report; ``--monitor`` attaches the
  :mod:`repro.monitor` observatory (scrape endpoint, anomaly flags,
  optional flight-recorder trace export);
* ``monitor`` — the same monitored serving loop with a live ASCII
  dashboard refreshing sparklines and alert states between batches.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.experiments.runner import REGISTRY, run_experiment

__all__ = ["main", "build_parser"]


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {number}")
    return number


def _nonnegative_int(value: str) -> int:
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {number}")
    return number


def _add_telemetry_flag(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--telemetry",
        nargs="?",
        const="",
        default=None,
        metavar="PATH",
        help=(
            "collect cross-layer metrics (repro.telemetry) and print a "
            "summary table after the command; with PATH, also stream "
            "trace events and the final snapshot to a JSONL file"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    """Return the configured argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduction harness for 'On Small World Graphs in Non-uniformly "
            "Distributed Key Spaces' (ICDE 2005)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list registered experiments")
    run_p = sub.add_parser("run", help="run one or more experiments")
    run_p.add_argument(
        "experiments",
        nargs="+",
        help="experiment ids (E1..E12) or 'all'",
    )
    run_p.add_argument("--seed", type=int, default=0, help="random seed")
    run_p.add_argument(
        "--quick", action="store_true", help="reduced sizes for a fast pass"
    )
    run_p.add_argument(
        "--csv", action="store_true", help="emit CSV instead of ASCII tables"
    )
    run_p.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "shard lookup batches over N worker threads "
            "(repro.parallel; results are bit-identical to serial)"
        ),
    )
    _add_telemetry_flag(run_p)

    build_p = sub.add_parser(
        "build", help="build a model graph and persist it as a store snapshot"
    )
    build_p.add_argument(
        "--store", required=True, metavar="PATH",
        help="snapshot directory to write",
    )
    build_p.add_argument(
        "--n", type=_positive_int, default=100_000, help="number of peers"
    )
    build_p.add_argument(
        "--model", choices=("uniform", "skewed", "naive"), default="uniform",
        help="which of the paper's models to build",
    )
    build_p.add_argument(
        "--alpha", type=float, default=2.5,
        help="power-law exponent for the skewed/naive populations",
    )
    build_p.add_argument("--seed", type=int, default=0, help="random seed")
    build_p.add_argument(
        "--out-degree", type=_positive_int, default=None, metavar="K",
        help="long links per peer (default: the paper's log2 N)",
    )
    _add_telemetry_flag(build_p)

    load_p = sub.add_parser(
        "load", help="memmap a stored snapshot and route lookups over it"
    )
    load_p.add_argument(
        "--store", required=True, metavar="PATH",
        help="snapshot directory written by 'build' (or save_graph)",
    )
    load_p.add_argument(
        "--routes", type=_positive_int, default=10_000,
        help="number of random lookups to route",
    )
    load_p.add_argument("--seed", type=int, default=0, help="random seed")
    load_p.add_argument(
        "--workers", type=_positive_int, default=None, metavar="N",
        help="shard the lookup batch over N worker threads",
    )
    _add_telemetry_flag(load_p)

    serve_p = sub.add_parser(
        "serve", help="stream lookup traffic through the serving engine"
    )
    _add_serving_args(serve_p)
    serve_p.add_argument(
        "--monitor", action="store_true",
        help=(
            "attach the repro.monitor observatory: window series, anomaly "
            "flags, a health probe of the graph and an HTTP /metrics + "
            "/health scrape endpoint (implies telemetry collection)"
        ),
    )
    _add_monitor_args(serve_p)
    _add_telemetry_flag(serve_p)

    monitor_p = sub.add_parser(
        "monitor",
        help=(
            "monitored serving loop with a live ASCII dashboard "
            "(sparklines, SLO burn rates, alerts)"
        ),
    )
    _add_serving_args(monitor_p)
    _add_monitor_args(monitor_p)
    monitor_p.add_argument(
        "--refresh", type=float, default=1.0, metavar="SECONDS",
        help="dashboard frame period",
    )
    monitor_p.add_argument(
        "--no-clear", action="store_true",
        help="print frames sequentially instead of clearing the screen",
    )
    _add_telemetry_flag(monitor_p)
    return parser


def _add_serving_args(p: argparse.ArgumentParser) -> None:
    """The serving-engine argument block shared by ``serve`` and ``monitor``."""
    p.add_argument(
        "--store", default=None, metavar="PATH",
        help="serve from this snapshot (default: build a fresh graph)",
    )
    p.add_argument(
        "--n", type=_positive_int, default=100_000,
        help="peers for the fresh build when --store is not given",
    )
    p.add_argument(
        "--model", choices=("uniform", "skewed", "naive"), default="uniform",
        help="model family for the fresh build",
    )
    p.add_argument(
        "--alpha", type=float, default=2.5,
        help="power-law exponent for the skewed/naive populations",
    )
    p.add_argument(
        "--queries", type=_positive_int, default=100_000,
        help="how many lookups to stream through the engine",
    )
    p.add_argument(
        "--users", type=_positive_int, default=10_000,
        help="user-population size of the demand model",
    )
    p.add_argument(
        "--affinity", type=float, default=0.8,
        help="probability a query re-asks the user's home key",
    )
    p.add_argument(
        "--batch", type=_positive_int, default=4096, metavar="B",
        help="admission micro-batch width (queries per frontier round)",
    )
    p.add_argument(
        "--cache", type=_nonnegative_int, default=4096, metavar="C",
        help="hot-key route-cache capacity (0 disables the cache)",
    )
    p.add_argument("--seed", type=int, default=0, help="random seed")


def _add_monitor_args(p: argparse.ArgumentParser) -> None:
    """Observability knobs shared by ``serve --monitor`` and ``monitor``."""
    p.add_argument(
        "--monitor-port", type=int, default=0, metavar="PORT",
        help="scrape-endpoint port (default 0: pick an ephemeral port)",
    )
    p.add_argument(
        "--window", type=_positive_int, default=4096, metavar="W",
        help="monitor ticket-window width (deterministic series cadence)",
    )
    p.add_argument(
        "--trace-sample", type=_nonnegative_int, default=0, metavar="N",
        help=(
            "flight-record 1 in N queries (deterministic hash sampling); "
            "0 disables the recorder"
        ),
    )
    p.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help=(
            "write the sampled flight-recorder traces as Chrome trace "
            "JSON (Perfetto-loadable); .jsonl suffix writes JSONL instead; "
            "needs --trace-sample N >= 1"
        ),
    )


def _cmd_list() -> int:
    width = max(len(e.title) for e in REGISTRY.values())
    for exp in REGISTRY.values():
        print(f"{exp.exp_id:>4}  {exp.title:<{width}}  [{exp.paper_anchor}]")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    wanted = args.experiments
    if len(wanted) == 1 and wanted[0].lower() == "all":
        wanted = list(REGISTRY)
    status = 0
    for exp_id in wanted:
        try:
            start = time.perf_counter()
            tables = run_experiment(
                exp_id, seed=args.seed, quick=args.quick, workers=args.workers
            )
            elapsed = time.perf_counter() - start
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            status = 2
            continue
        for table in tables:
            print(table.to_csv() if args.csv else table.render())
            print()
        print(f"[{exp_id.upper()} completed in {elapsed:.1f}s]")
        print()
    return status


def _cmd_build(args: argparse.Namespace) -> int:
    from repro.core.builder import (
        GraphConfig,
        build_naive_model,
        build_skewed_model,
        build_uniform_model,
    )
    from repro.distributions import PowerLaw

    rng = np.random.default_rng(args.seed)
    config = GraphConfig(out_degree=args.out_degree, snapshot=args.store)
    start = time.perf_counter()
    if args.model == "uniform":
        graph = build_uniform_model(args.n, rng, config)
    elif args.model == "skewed":
        graph = build_skewed_model(PowerLaw(args.alpha), args.n, rng, config)
    else:
        graph = build_naive_model(PowerLaw(args.alpha), args.n, rng, config)
    elapsed = time.perf_counter() - start
    print(
        f"built {graph!r} in {elapsed:.1f}s and stored it at {args.store}"
    )
    return 0


def _cmd_load(args: argparse.Namespace) -> int:
    from repro.core import route_many
    from repro.store import StoreError, load_graph

    start = time.perf_counter()
    try:
        graph = load_graph(args.store)
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    loaded = time.perf_counter() - start
    rng = np.random.default_rng(args.seed)
    sources = rng.integers(0, graph.n, size=args.routes)
    keys = rng.random(args.routes)
    start = time.perf_counter()
    result = route_many(graph, sources, keys, workers=args.workers)
    routed = time.perf_counter() - start
    print(f"loaded {graph!r} from {args.store} in {loaded * 1e3:.1f}ms")
    print(
        f"routed {args.routes} lookups in {routed:.2f}s: "
        f"success {result.success_rate:.3f}, mean hops {result.mean_hops:.2f}"
    )
    return 0


def _serving_setup(args: argparse.Namespace):
    """Load-or-build the graph and stand up demand + engine (serve/monitor).

    Returns ``(engine, demand, rng)``, or an exit status int on error.
    """
    from repro.serving import DemandModel, ServeConfig, ServingEngine

    rng = np.random.default_rng(args.seed)
    start = time.perf_counter()
    if args.store is not None:
        from repro.store import StoreError, load_graph

        try:
            graph = load_graph(args.store)
        except StoreError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(
            f"loaded {graph!r} from {args.store} "
            f"in {(time.perf_counter() - start) * 1e3:.1f}ms"
        )
    else:
        from repro.core.builder import (
            build_naive_model,
            build_skewed_model,
            build_uniform_model,
        )
        from repro.distributions import PowerLaw

        if args.model == "uniform":
            graph = build_uniform_model(args.n, rng)
        elif args.model == "skewed":
            graph = build_skewed_model(PowerLaw(args.alpha), args.n, rng)
        else:
            graph = build_naive_model(PowerLaw(args.alpha), args.n, rng)
        print(f"built {graph!r} in {time.perf_counter() - start:.1f}s")

    demand = DemandModel(
        graph.ids, n_users=args.users, n_peers=graph.n, rng=rng,
        affinity=args.affinity,
    )
    engine = ServingEngine(
        graph,
        ServeConfig(admit_per_round=args.batch, cache_capacity=args.cache),
    )
    return engine, demand, rng


def _attach_observability(engine, args: argparse.Namespace):
    """Attach monitor, optional recorder, and the scrape endpoint.

    Returns ``(monitor, recorder, scrape)``; enables telemetry so the
    scrape endpoint has a registry to render.  The caller turns it off
    again (:func:`_detach_observability`) once the scrape endpoint stops.
    """
    from repro import telemetry
    from repro.monitor import FlightRecorder, Monitor, ScrapeServer

    telemetry.enable()
    monitor = Monitor(engine, window=args.window)
    engine.attach_monitor(monitor)
    recorder = None
    if args.trace_sample:
        recorder = FlightRecorder(engine, sample_rate=args.trace_sample)
    scrape = ScrapeServer(monitor, port=args.monitor_port).start()
    print(
        f"[monitor] scraping at {scrape.url}/metrics "
        f"(health: {scrape.url}/health, series: {scrape.url}/series)"
    )
    return monitor, recorder, scrape


def _detach_observability(scrape, telemetry_was_on: bool) -> None:
    """Stop the scrape endpoint and restore the caller's telemetry state."""
    from repro import telemetry

    if scrape is not None:
        scrape.stop()
    if not telemetry_was_on:
        telemetry.disable()


def _export_traces(recorder, args: argparse.Namespace) -> None:
    if recorder is None or args.trace_out is None:
        return
    if str(args.trace_out).endswith(".jsonl"):
        n = recorder.export_jsonl(args.trace_out)
        print(f"[monitor] {n} flight-recorder traces written to {args.trace_out}")
    else:
        n = recorder.export_chrome_trace(args.trace_out)
        print(
            f"[monitor] {n} Chrome trace events written to {args.trace_out} "
            "(load in Perfetto / chrome://tracing)"
        )


def _cmd_serve(args: argparse.Namespace) -> int:
    setup = _serving_setup(args)
    if isinstance(setup, int):
        return setup
    engine, demand, rng = setup
    from repro import telemetry

    telemetry_was_on = telemetry.enabled()
    monitor = scrape = recorder = None
    try:
        if args.monitor or args.trace_sample:
            monitor, recorder, scrape = _attach_observability(engine, args)
        report = engine.serve(demand, args.queries, rng)
    finally:
        _detach_observability(scrape, telemetry_was_on)
    print()
    print(report.render())
    if monitor is not None:
        import json

        verdict = monitor.health()
        print()
        print(
            f"[monitor] health: {verdict['status']}  "
            f"windows {verdict['windows_emitted']}  "
            f"alerts {verdict['n_alerts_total']}"
        )
        if verdict["status"] != "ok":
            print(json.dumps(verdict, indent=2))
    _export_traces(recorder, args)
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    from repro.monitor import render_dashboard

    setup = _serving_setup(args)
    if isinstance(setup, int):
        return setup
    engine, demand, rng = setup
    from repro import telemetry

    telemetry_was_on = telemetry.enabled()
    monitor = recorder = scrape = None
    chunk = max(4 * engine.config.admit_per_round, 8192)
    target = args.queries
    submitted = 0
    last_frame = float("-inf")
    started = time.perf_counter()
    try:
        monitor, recorder, scrape = _attach_observability(engine, args)
        while engine.completed < target:
            if submitted < target and engine.pending < chunk:
                m = min(chunk, target - submitted)
                _, sources, keys = demand.draw(m, rng)
                engine.submit(sources, keys)
                submitted += m
            engine.pump()
            now = time.monotonic()
            if now - last_frame >= args.refresh:
                print(render_dashboard(monitor, clear=not args.no_clear))
                last_frame = now
        print(render_dashboard(monitor, clear=not args.no_clear))
    except KeyboardInterrupt:
        print("\n[monitor] interrupted")
    finally:
        _detach_observability(scrape, telemetry_was_on)
    print()
    print(
        engine.report(
            seconds=time.perf_counter() - started, n_queries=engine.completed
        ).render()
    )
    _export_traces(recorder, args)
    return 0


def _telemetry_wrap(args: argparse.Namespace, command) -> int:
    """Run ``command`` under telemetry when ``--telemetry`` was given.

    Prints the summary table after the command; an optional flag value
    is the JSONL path trace events and the final snapshot stream to.
    """
    spec = getattr(args, "telemetry", None)
    if spec is None:
        return command(args)
    from repro import telemetry

    telemetry.enable(jsonl=spec or None)
    try:
        status = command(args)
        print()
        print(telemetry.summary_table())
        if spec:
            print(f"[telemetry JSONL written to {spec}]")
        return status
    finally:
        telemetry.disable()


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "trace_out", None) is not None and not args.trace_sample:
        parser.error("--trace-out needs --trace-sample N with N >= 1")
    if args.command == "list":
        return _cmd_list()
    if args.command == "build":
        return _telemetry_wrap(args, _cmd_build)
    if args.command == "load":
        return _telemetry_wrap(args, _cmd_load)
    if args.command == "serve":
        return _telemetry_wrap(args, _cmd_serve)
    if args.command == "monitor":
        return _telemetry_wrap(args, _cmd_monitor)
    return _telemetry_wrap(args, _cmd_run)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
