"""Exports: JSONL event sink, Prometheus-style exposition, summary table.

Three consumers, three formats:

* **Dashboards / log pipelines** — :class:`JsonlSink` streams every
  trace event as one JSON line while attached and ends the file with a
  ``metrics_snapshot`` line (the full registry state);
* **Scrapers** — :func:`render_text` emits the registry in the
  Prometheus text exposition format (``repro_``-prefixed, dots
  mangled to underscores, timers as ``_count``/``_sum`` pairs, each
  histogram as a summary of its exact quantiles);
* **Humans** — :func:`summary_table` renders the aligned ASCII table
  the CLI's ``--telemetry`` flag prints after a run.
"""

from __future__ import annotations

import json
import os
import re

from repro.telemetry.registry import Registry

__all__ = ["JsonlSink", "render_text", "summary_table"]

_INVALID_METRIC_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_INVALID_LABEL_CHARS = re.compile(r"[^a-zA-Z0-9_]")


class JsonlSink:
    """Streams trace events to a file, one JSON object per line.

    Attach via :func:`repro.telemetry.enable`'s ``jsonl`` argument; the
    sink owns the file handle and flushes on :meth:`close`, which also
    appends the final registry snapshot line.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)
        self._fh = open(self.path, "w", encoding="utf-8")

    def emit(self, event) -> None:
        self._fh.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")

    def close(self, registry: Registry | None = None) -> None:
        """Flush and close, appending ``registry``'s snapshot if given."""
        if self._fh.closed:
            return
        if registry is not None:
            self._fh.write(
                json.dumps(
                    {"event": "metrics_snapshot", **registry.snapshot()},
                    sort_keys=True,
                )
                + "\n"
            )
        self._fh.close()


def _mangle(name: str) -> str:
    """Dotted instrument name → Prometheus metric name.

    Dots and dashes become underscores; any remaining character outside
    ``[a-zA-Z0-9_:]`` is likewise replaced so the exposition stays
    scrapeable whatever the caller named the instrument.
    """
    return "repro_" + _INVALID_METRIC_CHARS.sub("_", name.replace(".", "_"))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition rules."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label(name: str, value) -> str:
    """Render one ``name="value"`` label pair with a sanitized name."""
    safe_name = _INVALID_LABEL_CHARS.sub("_", name)
    return f'{safe_name}="{_escape_label_value(str(value))}"'


def render_text(registry: Registry) -> str:
    """Render the registry in the Prometheus text exposition format."""
    out: list[str] = []
    for name, counter in sorted(registry.counters.items()):
        metric = _mangle(name) + "_total"
        out.append(f"# TYPE {metric} counter")
        out.append(f"{metric} {counter.value}")
    for name, gauge in sorted(registry.gauges.items()):
        metric = _mangle(name)
        out.append(f"# TYPE {metric} gauge")
        out.append(f"{metric} {gauge.value}")
    for name, timer in sorted(registry.timers.items()):
        metric = _mangle(name) + "_seconds"
        out.append(f"# TYPE {metric} summary")
        out.append(f"{metric}_count {timer.count}")
        out.append(f"{metric}_sum {timer.total}")
        if timer.count:
            out.append(f'{metric}{{{_label("stat", "min")}}} {timer.min}')
            out.append(f'{metric}{{{_label("stat", "max")}}} {timer.max}')
    for name, histogram in sorted(registry.histograms.items()):
        count = histogram.count
        if not count:
            continue
        metric = _mangle(name)
        out.append(f"# TYPE {metric} summary")
        out.append(f"{metric}_count {count}")
        for p, value in histogram.quantiles().items():
            out.append(f'{metric}{{{_label("quantile", f"{p:g}")}}} {value}')
    return "\n".join(out) + "\n"


def summary_table(registry: Registry) -> str:
    """Render the registry as the aligned ASCII summary the CLI prints."""
    rows: list[tuple[str, str, str]] = []
    for name, counter in sorted(registry.counters.items()):
        rows.append((name, "counter", f"{counter.value:g}"))
    for name, gauge in sorted(registry.gauges.items()):
        rows.append((name, "gauge", f"{gauge.value:g}"))
    for name, timer in sorted(registry.timers.items()):
        if not timer.count:
            continue
        rows.append(
            (
                name,
                "timer",
                f"n={timer.count} total={timer.total:.4f}s "
                f"mean={timer.mean * 1e3:.3f}ms "
                f"min={timer.min * 1e3:.3f}ms max={timer.max * 1e3:.3f}ms",
            )
        )
    for name, histogram in sorted(registry.histograms.items()):
        count = histogram.count
        if not count:
            continue
        quantiles = " ".join(
            f"p{p * 100:g}={value:.2f}" for p, value in histogram.quantiles().items()
        )
        rows.append((name, "histogram", f"n={count} {quantiles}"))
    if not rows:
        return "telemetry: no metrics recorded\n"
    name_width = max(len(name) for name, _, _ in rows)
    kind_width = max(len(kind) for _, kind, _ in rows)
    lines = [
        f"{'metric':<{name_width}}  {'type':<{kind_width}}  value",
        f"{'-' * name_width}  {'-' * kind_width}  {'-' * 5}",
    ]
    lines.extend(
        f"{name:<{name_width}}  {kind:<{kind_width}}  {value}"
        for name, kind, value in rows
    )
    dropped_counter = registry.counters.get("telemetry.events.dropped")
    dropped = dropped_counter.value if dropped_counter is not None else 0
    suffix = f", dropped: {dropped}" if dropped else ""
    lines.append(f"(trace events buffered: {len(registry.events)}{suffix})")
    return "\n".join(lines) + "\n"
