"""``benchmarks/consolidate_bench.py`` marks which source each trajectory
entry measured: the commit, whether tracked files differed from it, and
the digest of ``src/`` (the recipe perfbench records)."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load(name: str, path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


consolidate_bench = _load(
    "consolidate_bench", ROOT / "benchmarks" / "consolidate_bench.py"
)
hostinfo = _load("perfbench_hostinfo", ROOT / "perfbench" / "hostinfo.py")

SUMMARY = {
    "generated_at": 1.0,
    "host": {"cpu_count": 2},
    "benchmarks": {"BENCH_demo": {"latest_by_kind": {"gate": {"ratio": 1.0}}}},
}


@pytest.mark.parametrize(
    "outputs, sha, dirty",
    [
        ({"rev-parse": "abc123\n", "status": ""}, "abc123", False),
        (
            {"rev-parse": "abc123\n", "status": " M src/repro/__init__.py\n"},
            "abc123",
            True,
        ),
        ({"rev-parse": None, "status": None}, None, None),
    ],
    ids=["clean", "dirty", "no-git"],
)
def test_trajectory_entry_records_dirty_and_source_digest(
    outputs, sha, dirty, tmp_path, monkeypatch
):
    calls = []

    def fake_git(*args):
        calls.append(args)
        return outputs[args[0]]

    monkeypatch.setattr(consolidate_bench, "_git", fake_git)
    path = tmp_path / "BENCH_trajectory.json"
    entry = consolidate_bench.append_trajectory(SUMMARY, path)
    assert [args[:3] for args in calls if args[0] == "status"] == [
        ("status", "--porcelain", "--untracked-files=no")
    ]
    assert entry["git_sha"] == sha
    assert entry["dirty"] is dirty
    assert entry["source_sha256"] == hostinfo.source_digest(ROOT / "src")
    assert entry["benchmarks"] == {"BENCH_demo": {"gate": {"ratio": 1.0}}}
    assert json.loads(path.read_text()) == [entry]
