"""Host qualifiers and memory readings for one benchmark process.

Peak memory of a phase is the kernel's VmHWM after the phase reset it
by writing ``5`` to ``/proc/self/clear_refs``; where that interface is
missing or read-only the reading falls back to ``ru_maxrss`` (the
process-lifetime peak) and says so, so a record never mixes the two
silently.  CPU steal comes from ``/proc/stat``.
"""

from __future__ import annotations

import hashlib
import os
import resource
import subprocess
from pathlib import Path

CLEAR_REFS = "/proc/self/clear_refs"
STATUS = "/proc/self/status"
STAT = "/proc/stat"


def maxrss_mb() -> float:
    """Process-lifetime resident high-water mark (``ru_maxrss``), in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reset_peak_rss() -> str:
    """Reset VmHWM to the current RSS; return how peaks will be read."""
    try:
        with open(CLEAR_REFS, "w") as fh:
            fh.write("5")
    except OSError:
        return "ru_maxrss"
    return "VmHWM"


def peak_rss_mb(source: str) -> float:
    """Resident high-water mark since :func:`reset_peak_rss`, in MB."""
    if source == "VmHWM":
        with open(STATUS) as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    return maxrss_mb()


def cpu_ticks() -> tuple[int, int] | None:
    """``(steal, total)`` jiffies summed over every CPU, or ``None``."""
    try:
        with open(STAT) as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu" or len(fields) < 9:
        return None
    ticks = [int(x) for x in fields[1:9]]  # user .. steal
    return ticks[7], sum(ticks)


def steal_share(before, after) -> float:
    """Share of all CPU time the hypervisor stole between two readings."""
    if before is None or after is None or after[1] <= before[1]:
        return 0.0
    return (after[0] - before[0]) / (after[1] - before[1])


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def commit_sha(root: Path) -> str:
    """The checkout's git commit, or ``"unknown"`` outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.resolve().parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest(src: Path) -> str:
    """SHA-256 over every ``.py`` file under ``src`` (path and bytes)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()
