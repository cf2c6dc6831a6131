"""In-memory span tracer that wraps public calls of the ``repro`` layers.

The traced run installs thin wrappers around the public functions and
methods each layer exposes (the table in :data:`LAYER_CALLS`); every
call records one span — name, start, end, parent span and the id of the
pump or churn epoch it ran in — into plain Python lists.  Nothing under
``src/`` changes: the wrappers are attribute patches made by this
process alone and removed by :meth:`Tracer.uninstall`.  Spans are
written out only when the run ends (:meth:`Tracer.export_chrome_trace`).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

#: (module, attribute path, span name).  A dotted attribute path names a
#: method patched on its class, so calls made inside the library (the
#: engine's own cache probes, ``route_many``'s frontier rounds) are
#: traced too.  ``StreamFrontier.step`` spans are renamed per round
#: after the kernel that served it (``frontier.step_padded`` / ``_ragged``).
LAYER_CALLS = (
    ("repro.core.builder", "build_skewed_model", "build"),
    ("repro.core.builder", "bulk_links", "build.bulk_links"),
    ("repro.core.builder", "symmetrize_flat", "build.symmetrize"),
    ("repro.store", "save_graph", "store.save"),
    ("repro.store", "load_graph", "store.load"),
    ("repro.serving.engine", "ServingEngine.submit", "engine.submit"),
    ("repro.serving.engine", "ServingEngine.pump", "engine.pump"),
    ("repro.serving.cache", "RouteCache.lookup", "cache.lookup"),
    ("repro.serving.cache", "RouteCache.insert", "cache.insert"),
    ("repro.core.metric_routing", "GreedyValueMetric.prepare", "routing.prepare"),
    ("repro.core.metric_routing", "StreamFrontier.admit", "frontier.admit"),
    ("repro.core.metric_routing", "StreamFrontier.release", "frontier.release"),
    ("repro.core.metric_routing", "StreamFrontier.step", "frontier.step"),
    ("repro.core.batch_routing", "route_many", "routing.route_many"),
    ("repro.overlay.network", "Network.from_graph", "overlay.from_graph"),
    ("repro.overlay.network", "Network.snapshot", "overlay.snapshot"),
    ("repro.overlay.bulk_dynamics", "bulk_leave", "overlay.leave"),
    ("repro.overlay.bulk_dynamics", "sample_cohort_ids", "overlay.join"),
    ("repro.overlay.bulk_dynamics", "bulk_join", "overlay.join"),
    ("repro.overlay.bulk_dynamics", "bulk_repair", "overlay.repair"),
)

#: Span names the benchmark itself opens (phases, not library layers);
#: they are excluded from coverage and from the layer table.
BENCH_SPANS = ("build.root", "setup", "setup.warmup", "timed", "epoch")


class Tracer:
    """Record nested spans around library calls, single-threaded.

    Spans live in parallel lists (``names``, ``starts``, ``ends``,
    ``parents``, ``groups``) indexed by span id; ``parents[i]`` is the
    enclosing span's id or ``-1``.  ``group`` is the pump or epoch the
    benchmark is in when the span opens.  Frontier rounds additionally
    accumulate walk and candidate counts read off the public attributes
    of :class:`repro.core.metric_routing.StreamFrontier`.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.groups: list[int] = []
        self.group = -1
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.starts.append(self.clock())
        self.ends.append(0.0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.groups.append(self.group)
        self._stack.append(sid)
        return sid

    def close(self, sid: int, name: str | None = None) -> None:
        self.ends[sid] = self.clock()
        if name is not None:
            self.names[sid] = name
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Open a benchmark-side phase span for the ``with`` body; yield its id."""
        sid = self.open(name)
        try:
            yield sid
        finally:
            self.close(sid)

    @contextlib.contextmanager
    def installed(self, calls=LAYER_CALLS):
        """Install the wrappers for the ``with`` body, then remove them."""
        self.install(calls)
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------
    # installing the wrappers
    # ------------------------------------------------------------------
    def install(self, calls=LAYER_CALLS) -> None:
        """Patch every ``(module, attribute, span)`` in ``calls``."""
        for module_name, attr, name in calls:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            self._patches.append((owner, leaf, raw))
            setattr(owner, leaf, self._wrap(raw, name))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, leaf, raw = self._patches.pop()
            setattr(owner, leaf, raw)

    def _wrap(self, raw, name: str):
        if isinstance(raw, classmethod):
            inner = self._wrap(raw.__func__, name)
            return classmethod(inner)
        if name == "frontier.step":
            return self._wrap_step(raw)
        tracer = self

        @functools.wraps(raw)
        def traced(*args, **kwargs):
            sid = tracer.open(name)
            try:
                return raw(*args, **kwargs)
            finally:
                tracer.close(sid)

        return traced

    def _wrap_step(self, raw):
        tracer = self
        counts = self.counts

        @functools.wraps(raw)
        def traced_step(frontier):
            walks = frontier.active_count
            sid = tracer.open("frontier.step")
            try:
                return raw(frontier)
            finally:
                kernel = frontier.last_round_kernel
                tracer.close(sid, "frontier.step_" + kernel)
                counts[f"rounds_{kernel}"] += 1
                counts["walks"] += walks
                counts["candidates"] += frontier.last_round_candidates
                counts["padded_slots"] += frontier.last_round_padded_slots

        return traced_step

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[sid] - self.starts[sid]
        return own

    def within(self, root: int) -> list[int]:
        """Ids of every span nested (at any depth) inside span ``root``."""
        inside = {root}
        out = []
        for sid in range(root + 1, len(self.names)):
            if self.parents[sid] in inside:
                inside.add(sid)
                out.append(sid)
        return out

    def layer_table(self, root: int) -> tuple[list[tuple[str, int, float, float]], float]:
        """Per-span-name ``(name, calls, self seconds, share)`` rows under ``root``.

        Benchmark phase spans are folded into one "outside any span" row
        together with the root's own untraced time, so the rows add up
        to the root's wall time.  Returns the rows and that wall time.
        """
        wall = self.ends[root] - self.starts[root]
        own = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        secs: dict[str, float] = defaultdict(float)
        outside = own[root]
        for sid in self.within(root):
            name = self.names[sid]
            if name in BENCH_SPANS:
                outside += own[sid]
                continue
            calls[name] += 1
            secs[name] += own[sid]
        rows = sorted(
            ((name, calls[name], secs[name], secs[name] / wall) for name in secs),
            key=lambda row: -row[2],
        )
        rows.append(("(outside any span)", 0, outside, outside / wall))
        return rows, wall

    def export_chrome_trace(self, path) -> int:
        """Write every span as a Chrome trace "X" event (Perfetto-loadable).

        Returns the event count.
        """
        t0 = min(self.starts, default=0.0)
        events = [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": (start - t0) * 1e6,
                "dur": max((end - start) * 1e6, 0.001),
                "pid": 1,
                "tid": 1,
                "args": {"span": sid, "parent": parent, "group": group},
            }
            for sid, (name, start, end, parent, group) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents, self.groups)
            )
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
        return len(events)
