#!/usr/bin/env bash
# CI entrypoint: tier-1 test suite + examples + throughput smokes.
#
# Usage: ./ci.sh            # lint (if ruff is available) + tests + examples + smoke
#        ./ci.sh --no-smoke # tests and examples only
set -euo pipefail
cd "$(dirname "$0")"

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

if command -v ruff >/dev/null 2>&1; then
  echo "== ruff =="
  ruff check src tests benchmarks
else
  echo "== ruff not installed; skipping lint =="
fi

echo "== tier-1 tests =="
python -m pytest -x -q

# perfbench/ sits outside testpaths; its unit tests run the workloads at
# tiny scale, traced and untraced, against this checkout's src/.
echo "== perfbench unit tests =="
python -m pytest perfbench -q

echo "== examples =="
for example in examples/*.py; do
  echo "-- $example"
  python "$example" >/dev/null
done

if [[ "${1:-}" != "--no-smoke" ]]; then
  echo "== routing throughput smoke (scalar oracle vs batch, >=5x gate) =="
  python -m pytest benchmarks/bench_routing_throughput.py -q -s

  echo "== construction throughput smoke (per-peer scalar oracle vs bulk, >=5x gate + 1e6 build) =="
  python -m pytest benchmarks/bench_construction.py -q -s -k bulk

  echo "== churn throughput smoke (scalar oracle vs bulk, >=5x gate + 1e5 sustain, timed snapshots vs search oracle) =="
  python -m pytest benchmarks/bench_churn.py -q -s -k bulk

  echo "== baseline comparator smoke (scalar oracle vs batch frontier, >=5x aggregate gate) =="
  python -m pytest benchmarks/bench_baselines.py -q -s -k speedup

  echo "== parallel engine smoke (2-worker parity + >=1.2x gate where cores allow) =="
  python -m pytest benchmarks/bench_parallel.py -q -s -k "parity or smoke"

  echo "== persistent store smoke (round-trip parity + >=100x load gate + arena-cache gate) =="
  python -m pytest benchmarks/bench_store.py -q -s

  echo "== telemetry smoke (<=5% enabled overhead + shard-merge bit-identity) =="
  python -m pytest benchmarks/bench_telemetry.py -q -s

  echo "== kernel smoke (scalar-oracle parity on 3 graphs + skewed/uniform ns per candidate <=2x + search rounds: beat linear on sorted skewed rows, skewed/uniform ns per walk-round <=2x, churn-shaped picks >= linear) =="
  python -m pytest benchmarks/bench_kernel.py -q -s

  echo "== serving smoke (stream-vs-batch parity + sustained-throughput gate at 1e6) =="
  python -m pytest benchmarks/bench_serving.py -q -s

  echo "== monitor smoke (<=5% monitored-serving overhead + flight-recorder export) =="
  python -m pytest benchmarks/bench_monitor.py -q -s

  echo "== consolidating BENCH_*.json trajectories =="
  python benchmarks/consolidate_bench.py
fi

echo "== ci.sh: all green =="
