#!/usr/bin/env bash
# CI entrypoint: tier-1 test suite + examples + throughput smokes.
#
# Usage: ./ci.sh            # lint (if ruff is available) + tests + examples + smoke
#        ./ci.sh --no-smoke # tests and examples only
#
# Every step runs even when an earlier one fails; the script then names
# each failed step and exits 1.
set -uo pipefail
cd "$(dirname "$0")" || exit 1

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

failed=()

# step LABEL CMD...: print the label, run the command, note a failure.
step() {
  local label=$1
  shift
  echo "== $label =="
  "$@" || failed+=("$label")
}

run_examples() {
  local example status=0
  for example in examples/*.py; do
    echo "-- $example"
    python "$example" >/dev/null || status=1
  done
  return $status
}

if command -v ruff >/dev/null 2>&1; then
  step "ruff" ruff check src tests benchmarks
else
  echo "== ruff not installed; skipping lint =="
fi

step "tier-1 tests" python -m pytest -x -q

# perfbench/ sits outside testpaths; its unit tests run the workloads at
# tiny scale, traced and untraced, against this checkout's src/.
step "perfbench unit tests" python -m pytest perfbench -q

step "examples" run_examples

if [[ "${1:-}" != "--no-smoke" ]]; then
  step "routing throughput smoke (scalar oracle vs batch, >=5x gate)" \
    python -m pytest benchmarks/bench_routing_throughput.py -q -s

  step "construction throughput smoke (per-peer scalar oracle vs bulk, >=5x gate + 1e6 bidirectional build <= 9.5 CPU-s)" \
    python -m pytest benchmarks/bench_construction.py -q -s -k bulk

  step "churn throughput smoke (scalar oracle vs bulk, >=5x gate + 1e5 sustain, timed snapshots vs search oracle)" \
    python -m pytest benchmarks/bench_churn.py -q -s -k bulk

  step "baseline comparator smoke (scalar oracle vs batch frontier on six comparators, >=5x aggregate gate)" \
    python -m pytest benchmarks/bench_baselines.py -q -s -k speedup

  step "parallel engine smoke (1/2/4-thread parity + 2-thread >=1.2x gate where cores allow + ungated serial-vs-2-thread size sweep)" \
    python -m pytest benchmarks/bench_parallel.py -q -s -k "parity or smoke or sweep"

  step "persistent store smoke (round-trip parity of hops, neighbour/long split, reasons, owners, paths + >=100x load gate)" \
    python -m pytest benchmarks/bench_store.py -q -s

  step "telemetry smoke (<=5% enabled overhead, best CPU time of 8 alternating pairs + shard-merge bit-identity, merged hop histogram = serial run's)" \
    python -m pytest benchmarks/bench_telemetry.py -q -s

  step "kernel smoke (scalar-oracle parity on 3 graphs + skewed/uniform ns per candidate <=2x + search rounds: beat linear on sorted skewed rows, skewed/uniform ns per walk-round <=2x, churn-shaped picks >= linear)" \
    python -m pytest benchmarks/bench_kernel.py -q -s

  step "serving smoke (stream-vs-batch parity + sustained-throughput gate at 1e6)" \
    python -m pytest benchmarks/bench_serving.py -q -s

  step "monitor smoke (<=5% monitored-serving overhead + flight-recorder export)" \
    python -m pytest benchmarks/bench_monitor.py -q -s

  step "consolidating BENCH_*.json trajectories" \
    python benchmarks/consolidate_bench.py
fi

if ((${#failed[@]})); then
  echo "== ci.sh: ${#failed[@]} step(s) failed =="
  printf '  - %s\n' "${failed[@]}"
  exit 1
fi
echo "== ci.sh: all green =="
