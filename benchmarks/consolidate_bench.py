"""Consolidate all ``BENCH_*.json`` trajectories into one summary file.

Each gated benchmark appends raw measurement entries to its own
``benchmarks/results/BENCH_<name>.json`` trajectory.  This script folds
them into ``benchmarks/results/BENCH_summary.json`` — one document with,
per benchmark, the entry count, the latest entry of each measurement
``kind``, and the speedup trend where entries carry one — so a single
file answers "how fast is every engine right now, and is it regressing?"

The summary is a *snapshot* — each run overwrites it.  Cross-PR history
lives in ``BENCH_trajectory.json``: an append-mode list with one entry
per consolidation run, keyed by git SHA and wall time, carrying every
benchmark's latest per-kind measurements.  Overwriting the summary (or
even wiping individual trajectories) no longer loses perf history.
Each entry also says whether tracked files differed from that commit
(``dirty``) and hashes the source that ran (``source_sha256``), so a
run of a modified tree is never mistaken for the commit's own.

Run directly (``python benchmarks/consolidate_bench.py``) or let
``ci.sh`` do it after the benchmark smokes.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import platform
import subprocess
import sys
import time

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
SUMMARY = RESULTS_DIR / "BENCH_summary.json"
TRAJECTORY = RESULTS_DIR / "BENCH_trajectory.json"

#: Keep the append-mode trajectory bounded (oldest entries dropped).
TRAJECTORY_CAP = 500

#: Entry fields recognised as that measurement's wall-clock cost, in
#: preference order (benchmarks record one of these; older trajectories
#: may record none, in which case no wall-time row is emitted).
_WALL_FIELDS = ("wall_seconds", "seconds")


def host_info() -> dict:
    """Describe the machine the benchmarks ran on.

    Recorded in the summary so a regression can be told apart from a
    hardware change when trajectories span machines.
    """
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
    }


def _wall_times(entries: list[dict]) -> dict | None:
    """Latest/total wall-clock seconds over entries that record one."""
    walls = []
    for entry in entries:
        for field in _WALL_FIELDS:
            if isinstance(entry.get(field), (int, float)):
                walls.append(float(entry[field]))
                break
    if not walls:
        return None
    return {
        "latest": walls[-1],
        "total": sum(walls),
        "samples": len(walls),
    }


def _speedup_trend(entries: list[dict]) -> dict | None:
    """First/latest/best speedup per measurement ``kind``.

    Kinds measure different things (a 2-worker smoke vs a 4-worker gate,
    a churn ratio vs a sustain run), so pooling them would make the
    trend compare incommensurable numbers — each kind gets its own row.
    """
    by_kind: dict[str, list[float]] = {}
    for entry in entries:
        if "speedup" in entry:
            by_kind.setdefault(entry.get("kind", "default"), []).append(
                entry["speedup"]
            )
    if not by_kind:
        return None
    return {
        kind: {
            "first": speedups[0],
            "latest": speedups[-1],
            "best": max(speedups),
            "samples": len(speedups),
        }
        for kind, speedups in by_kind.items()
    }


def _git(*args: str) -> str | None:
    """Stdout of ``git args`` run in this checkout, or ``None`` outside one."""
    try:
        out = subprocess.run(
            ["git", *args],
            capture_output=True, text=True, timeout=10,
            cwd=pathlib.Path(__file__).parent,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout if out.returncode == 0 else None


def git_sha() -> str | None:
    """The working tree's HEAD SHA, or ``None`` outside a git checkout."""
    sha = (_git("rev-parse", "HEAD") or "").strip()
    return sha or None


def git_dirty() -> bool | None:
    """True when tracked files differ from HEAD; ``None`` outside git.

    ``benchmarks/results/`` is left out: the smokes append to its
    tracked trajectories and this script rewrites the summary before
    asking, so counting them would mark every run dirty.
    """
    status = _git(
        "status", "--porcelain", "--untracked-files=no",
        "--", ":(top)", ":(top,exclude)benchmarks/results",
    )
    return None if status is None else bool(status.strip())


def source_digest(src: pathlib.Path = SRC) -> str:
    """SHA-256 over every ``.py`` file under ``src``, path then bytes
    (the recipe of perfbench's ``source_sha256``)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def append_trajectory(
    summary: dict, trajectory_path: pathlib.Path = TRAJECTORY
) -> dict:
    """Append this run's per-kind latests to the cross-run trajectory.

    Each entry records when the consolidation ran, on which commit,
    whether the tree was dirty, the digest of its source, and every
    benchmark's ``latest_by_kind`` measurements — enough to plot
    any gated number across PRs even though ``BENCH_summary.json`` is
    overwritten per run.  A corrupt trajectory file is preserved as
    ``.corrupt`` rather than silently clobbered.  Returns the appended
    entry.
    """
    entry = {
        "generated_at": summary["generated_at"],
        "git_sha": git_sha(),
        "dirty": git_dirty(),
        "source_sha256": source_digest(),
        "host": summary["host"],
        "benchmarks": {
            name: doc.get("latest_by_kind", {})
            for name, doc in summary["benchmarks"].items()
            if isinstance(doc, dict)
        },
    }
    history: list = []
    if trajectory_path.exists():
        try:
            history = json.loads(trajectory_path.read_text())
            if not isinstance(history, list):
                raise ValueError("trajectory root is not a list")
        except (OSError, json.JSONDecodeError, ValueError):
            trajectory_path.rename(
                trajectory_path.with_suffix(trajectory_path.suffix + ".corrupt")
            )
            history = []
    history.append(entry)
    history = history[-TRAJECTORY_CAP:]
    trajectory_path.write_text(json.dumps(history, indent=2) + "\n")
    return entry


def consolidate(results_dir: pathlib.Path = RESULTS_DIR) -> dict:
    """Build the summary document from every trajectory on disk."""
    benchmarks: dict[str, dict] = {}
    for path in sorted(results_dir.glob("BENCH_*.json")):
        if path.name in (SUMMARY.name, TRAJECTORY.name):
            continue
        try:
            entries = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            benchmarks[path.stem] = {"error": f"unreadable trajectory: {exc}"}
            continue
        if not isinstance(entries, list) or not entries:
            benchmarks[path.stem] = {"entries": 0}
            continue
        latest_by_kind = {
            entry.get("kind", "default"): entry for entry in entries
        }
        summary: dict = {
            "entries": len(entries),
            "latest_by_kind": latest_by_kind,
        }
        trend = _speedup_trend(entries)
        if trend is not None:
            summary["speedup_trend"] = trend
        walls = _wall_times(entries)
        if walls is not None:
            summary["wall_seconds"] = walls
        benchmarks[path.stem] = summary
    return {
        "generated_at": time.time(),
        "host": host_info(),
        "trajectories": len(benchmarks),
        "benchmarks": benchmarks,
    }


def main() -> int:
    if not RESULTS_DIR.exists():
        print(f"no results directory at {RESULTS_DIR}; nothing to consolidate")
        return 0
    summary = consolidate()
    SUMMARY.write_text(json.dumps(summary, indent=2) + "\n")
    names = ", ".join(sorted(summary["benchmarks"])) or "none"
    print(
        f"BENCH_summary.json: {summary['trajectories']} trajectories ({names})"
    )
    entry = append_trajectory(summary)
    runs = len(json.loads(TRAJECTORY.read_text()))
    sha = (entry["git_sha"] or "no-git")[:12]
    if entry["dirty"]:
        sha += " (dirty)"
    print(f"BENCH_trajectory.json: {runs} runs recorded (this run: {sha})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
