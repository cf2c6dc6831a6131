"""ASCII live dashboard: sparklines, alert states, health verdicts.

Pure rendering over a :class:`repro.monitor.Monitor` — no terminal
control beyond an optional ANSI home+clear prefix, so frames work in a
pipe, a log file, or a live TTY alike.  Driven by the CLI's
``python -m repro monitor`` / ``serve --monitor`` loops.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["sparkline", "render_dashboard"]

_SPARK = "▁▂▃▄▅▆▇█"


def sparkline(values, width: int = 32) -> str:
    """Render a numeric sequence as a unicode sparkline.

    The last ``width`` values are scaled into eight glyph levels;
    constant series render flat at the lowest level, empty series as
    ``width`` dots.
    """
    values = np.asarray(list(values), dtype=float)
    values = values[np.isfinite(values)]
    if len(values) == 0:
        return "·" * width
    values = values[-width:]
    lo = float(values.min())
    hi = float(values.max())
    if hi - lo <= 0:
        levels = np.zeros(len(values), dtype=np.intp)
    else:
        levels = np.minimum(
            ((values - lo) / (hi - lo) * len(_SPARK)).astype(np.intp),
            len(_SPARK) - 1,
        )
    line = "".join(_SPARK[i] for i in levels)
    return line.rjust(width, "·")


def _fmt(value: float) -> str:
    if value is None or not math.isfinite(value):
        return "-"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 10:
        return f"{value:.1f}"
    return f"{value:.3f}"


_STATUS_TAG = {"ok": "[ OK ]", "degraded": "[WARN]", "critical": "[CRIT]"}


def render_dashboard(monitor, width: int = 32, clear: bool = False) -> str:
    """Render one dashboard frame for ``monitor``.

    Args:
        monitor: a :class:`repro.monitor.Monitor`.
        width: sparkline width (samples shown).
        clear: prefix the ANSI home+clear sequence for live refresh.
    """
    health = monitor.health()
    tag = _STATUS_TAG.get(health["status"], f"[{health['status']}]")
    lines = [
        f"{tag} repro monitor — windows {health['windows_emitted']}"
        f"  completed {health['completed']:,}"
        f"  in-flight {health['in_flight']:,}"
        f"  pending {health['pending']:,}",
        "",
    ]

    def bank_rows(bank, title):
        names = bank.names()
        if not names:
            return
        lines.append(title)
        label_width = max(len(n) for n in names)
        for name in names:
            series = bank.series(name)
            lines.append(
                f"  {name:<{label_width}}  {sparkline(series.values(), width)}"
                f"  {_fmt(series.last)}"
            )
        lines.append("")

    bank_rows(monitor.bank, "per-window series (deterministic)")
    bank_rows(monitor.wall_bank, "wall-clock series")

    slo = health["slo"]
    if slo:
        lines.append("slo burn rates")
        obj_width = max(len(v["objective"]) for v in slo)
        for v in slo:
            mark = "BREACH" if v["breached"] else "ok"
            lines.append(
                f"  {v['objective']:<{obj_width}}  "
                f"burn {_fmt(v['burn_rate'])}  "
                f"(observed {_fmt(v['observed'])} / budget {_fmt(v['budget'])})"
                f"  {mark}"
            )
        lines.append("")

    alerts = health["alerts"]
    if alerts:
        lines.append(f"alerts (recent {len(alerts)}, total {health['n_alerts_total']})")
        for a in alerts[-8:]:
            lines.append(
                f"  window {a['window']}: {a['series']} = {_fmt(a['value'])} "
                f"(z = {a['z']:+.1f})"
            )
        lines.append("")

    probe = health["probe"]
    lines.append(
        "probe  "
        f"reachability {_fmt(probe['reachability'])}  "
        f"hop-inflation {_fmt(probe['hop_inflation'])}  "
        f"degree-drift {_fmt(probe['degree_drift'])}  "
        f"partition-suspicion {_fmt(probe['partition_suspicion'])}"
    )
    frame = "\n".join(lines).rstrip() + "\n"
    if clear:
        frame = "\x1b[H\x1b[2J" + frame
    return frame
