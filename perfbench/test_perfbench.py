"""Tests of the benchmark's own code at a tiny size (4096 peers).

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

bench.bootstrap()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def _tiny(workload, seed=3, trace=False):
    return bench.run(workload, seed, 1.0, trace, tiny=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_repeats_hops_failures_and_hit_rate(workload):
    first, first_record = _tiny(workload)
    second, second_record = _tiny(workload)
    assert first["correct"] and second["correct"]
    for name in ("hops_mean", "success_rate"):
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"]
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    hit_rate = first_record["extras"]["cache.hit_rate"]
    assert hit_rate == second_record["extras"]["cache.hit_rate"]
    traced, _ = _tiny(workload, trace=True)
    assert traced["metrics"]["cache.hit_rate"]["value"] == hit_rate
    if workload == "serve":
        assert 0 < hit_rate < 1


def test_seeds_change_the_inputs():
    one, _ = _tiny("serve", seed=1)
    two, _ = _tiny("serve", seed=2)
    assert one["metrics"]["hops_mean"]["value"] != two["metrics"]["hops_mean"]["value"]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_names_and_units_match_benchmark_json(capsys, trace, section):
    code = bench.main(
        ["--workload", "churn", "--seed", "5", "--seconds", "1", "--tiny",
         "--trace", str(trace)]
    )
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[section]}
    for name, unit in printed.items():
        assert any(line.split()[:1] == [name] and line.endswith(unit) for line in out)
    if section == "end_to_end":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_benchmark_json_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER


# ----------------------------------------------------------------------
# each correctness check fails when one outcome is corrupted
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def served(tmp_path_factory):
    size = workloads.sizes("serve", 1.0, tiny=True)
    wl = workloads.Workload("serve", 4, size, tmp_path_factory.mktemp("snap"))
    wl.build()
    _, session = wl.setup()
    wl.drop_build()
    _, outcome = wl.timed(session)
    wl.verify(session, outcome)
    yield wl, session, outcome
    wl.close()


def _corrupt(outcome, column, index, value):
    data = getattr(outcome, column).copy()
    data[index] = value
    return dataclasses.replace(outcome, **{column: data})


def _replayed_routed(wl, outcome):
    """A replayed lookup that walked (not a cache hit)."""
    pick = wl.replay_sample(len(outcome.keys))
    return int(next(i for i in pick if not outcome.cache_hit[i]))


@pytest.mark.parametrize(
    "column, value",
    [("success", False), ("completed", False)],
)
def test_incomplete_or_failed_lookup_fails(served, column, value):
    wl, session, outcome = served
    with pytest.raises(checks.CheckFailed):
        wl.verify(session, _corrupt(outcome, column, 7, value))


@pytest.mark.parametrize("column", ["owners", "hops", "reasons"])
def test_replay_mismatch_fails(served, column):
    wl, session, outcome = served
    i = _replayed_routed(wl, outcome)
    wrong = {"owners": outcome.owners[i] + 1, "hops": outcome.hops[i] + 1, "reasons": 2}
    with pytest.raises(checks.CheckFailed, match="replay"):
        wl.verify(session, _corrupt(outcome, column, i, wrong[column]))


def test_wrong_cache_hit_owner_fails(served):
    wl, session, outcome = served
    hit = int(np.flatnonzero(outcome.cache_hit)[0])
    with pytest.raises(checks.CheckFailed, match="cache hit"):
        wl.verify(session, _corrupt(outcome, "owners", hit, outcome.owners[hit] + 1))


def test_hops_over_baseline_fails(served):
    wl, session, outcome = served
    routed = int(np.flatnonzero(~outcome.cache_hit)[0])
    with pytest.raises(checks.CheckFailed, match="baseline"):
        wl.verify(session, _corrupt(outcome, "hops", routed, 10**9))


@pytest.mark.parametrize(
    "counter, epoch, value",
    [("live_after_epoch", 1, 4095), ("ids_sorted_distinct", 0, False)],
)
def test_churn_epoch_checks_fail(tmp_path, counter, epoch, value):
    size = workloads.sizes("churn", 1.0, tiny=True)
    wl = workloads.Workload("churn", 4, size, tmp_path)
    wl.build()
    _, session = wl.setup()
    _, outcome = wl.timed(session)
    wl.verify(session, outcome)
    counters = dict(outcome.counters)
    counters[counter] = list(counters[counter])
    counters[counter][epoch] = value
    with pytest.raises(checks.CheckFailed, match=f"epoch {epoch}"):
        wl.verify(session, dataclasses.replace(outcome, counters=counters))
    wl.close()


# ----------------------------------------------------------------------
# tracer arithmetic and export
# ----------------------------------------------------------------------
def test_self_times_and_layer_table_add_up(tmp_path):
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 9.0, 15.0, 20.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("timed") as root:  # 0 .. 20
        with tracer.span("engine.pump"):  # 1 .. 15
            with tracer.span("cache.lookup"):  # 2 .. 4
                pass
            with tracer.span("frontier.step_padded"):  # 5 .. 9
                pass
    own = tracer.self_times()
    assert own == [6.0, 8.0, 2.0, 4.0]
    rows, wall = tracer.layer_table(root)
    assert wall == 20.0
    assert sum(row[2] for row in rows) == pytest.approx(wall)
    assert rows[-1][0] == "(outside any span)" and rows[-1][2] == 6.0
    path = tmp_path / "trace.json"
    assert tracer.export_chrome_trace(path) == 4
    events = json.loads(path.read_text())["traceEvents"]
    assert {e["ph"] for e in events} == {"X"}
    assert events[2]["args"]["parent"] == 1


def test_wrappers_are_removed_after_a_traced_run():
    from repro.core.metric_routing import StreamFrontier
    from repro.serving.cache import RouteCache

    step, lookup = StreamFrontier.step, RouteCache.lookup
    _tiny("serve", trace=True)
    assert StreamFrontier.step is step and RouteCache.lookup is lookup


def test_without_the_source_tree_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "churn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode == 2
    assert '"correct"' not in done.stdout
