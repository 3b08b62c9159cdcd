"""Stdlib-rendered ``/dashboard`` HTML page for ``python -m repro.obs serve``.

One self-contained document — inline CSS, inline SVG, zero scripts,
zero external assets — so it renders from ``curl`` output, a file://
open, or an air-gapped scrape archive:

* a stat-tile row (elements seen, queries answered, audits, drift
  alerts — the alert tile pairs an icon with the label so state never
  rides on color alone);
* three sparkline cards from the flight-recorder timeseries:
  ingest throughput (elements/s), realized estimate error, and audit CI
  coverage.  Each card is a single series, so the card title is the
  legend; per-point hover uses native SVG ``<title>`` tooltips;
* the hottest profiled frames (``top``-style, from the ``/profile``
  snapshot) and a recent-windows table — the accessible, copy-pastable
  view of the same data the sparklines draw.

Light and dark palettes follow the repo-wide viz tokens: series color
only on marks, text always in ink tokens, dark mode selected via both
the OS media query and an explicit ``data-theme`` override.
"""

from __future__ import annotations

import html
from typing import Any, Sequence

from ..profile import aggregate_samples

#: Sparkline geometry (viewBox units; the SVG scales to its card).
_SPARK_W = 280.0
_SPARK_H = 64.0
_SPARK_PAD = 7.0

#: Most-recent telemetry windows shown in the table view.
_TABLE_ROWS = 12

#: Hottest frames shown from the profile snapshot.
_TOP_FRAMES = 10

_CSS = """
:root {
  color-scheme: light;
  --page:           #f9f9f7;
  --surface-1:      #fcfcfb;
  --text-primary:   #0b0b0b;
  --text-secondary: #52514e;
  --text-muted:     #898781;
  --gridline:       #e1e0d9;
  --baseline:       #c3c2b7;
  --border:         rgba(11,11,11,0.10);
  --series-1:       #2a78d6;
  --status-good:    #0ca30c;
  --status-critical:#d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) {
    color-scheme: dark;
    --page:           #0d0d0d;
    --surface-1:      #1a1a19;
    --text-primary:   #ffffff;
    --text-secondary: #c3c2b7;
    --text-muted:     #898781;
    --gridline:       #2c2c2a;
    --baseline:       #383835;
    --border:         rgba(255,255,255,0.10);
    --series-1:       #3987e5;
  }
}
:root[data-theme="dark"] {
  color-scheme: dark;
  --page:           #0d0d0d;
  --surface-1:      #1a1a19;
  --text-primary:   #ffffff;
  --text-secondary: #c3c2b7;
  --text-muted:     #898781;
  --gridline:       #2c2c2a;
  --baseline:       #383835;
  --border:         rgba(255,255,255,0.10);
  --series-1:       #3987e5;
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px;
  background: var(--page); color: var(--text-primary);
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  font-size: 14px; line-height: 1.45;
}
h1 { font-size: 18px; margin: 0 0 2px; }
.sub { color: var(--text-muted); margin: 0 0 20px; }
.row { display: flex; flex-wrap: wrap; gap: 12px; margin-bottom: 20px; }
.tile, .card {
  background: var(--surface-1);
  border: 1px solid var(--border); border-radius: 8px;
}
.tile { padding: 10px 16px; min-width: 132px; }
.tile .v { font-size: 24px; font-weight: 600; }
.tile .l { color: var(--text-secondary); font-size: 12px; }
.tile .l .ic { margin-right: 4px; }
.tile.alerting .v { color: var(--status-critical); }
.card { padding: 12px 16px; width: 320px; }
.card h2 { font-size: 13px; font-weight: 600; margin: 0; }
.card .now { color: var(--text-secondary); font-size: 12px; margin: 0 0 6px; }
.card svg { display: block; width: 100%; height: auto; }
.card .empty { color: var(--text-muted); padding: 18px 0; }
table { border-collapse: collapse; background: var(--surface-1);
        border: 1px solid var(--border); border-radius: 8px; }
caption { text-align: left; font-weight: 600; font-size: 13px;
          padding: 8px 2px; color: var(--text-primary); }
th, td { padding: 5px 12px; text-align: right;
         font-variant-numeric: tabular-nums; }
th { color: var(--text-secondary); font-weight: 500; font-size: 12px;
     border-bottom: 1px solid var(--gridline); }
td:first-child, th:first-child { text-align: left;
     font-variant-numeric: normal; }
tbody tr + tr td { border-top: 1px solid var(--gridline); }
td.frame { font-family: ui-monospace, SFMono-Regular, Menlo, monospace;
           font-size: 12px; color: var(--text-secondary); }
.section { margin-bottom: 20px; }
footer { color: var(--text-muted); font-size: 12px; margin-top: 8px; }
"""


def _fmt(value: float) -> str:
    """Compact human number: thousands separators, sensible precision."""
    if value != value:  # NaN
        return "-"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 1:
        return f"{value:,.2f}".rstrip("0").rstrip(".")
    if value == 0:
        return "0"
    return f"{value:.4g}"


def _sparkline(points: Sequence[tuple[float, float]], unit: str) -> str:
    """Inline-SVG sparkline: 2px series line on a hairline baseline,
    a filled dot + native ``<title>`` tooltip per point, no axes.

    ``points`` are ``(seconds, value)`` pairs, chronological.
    """
    if len(points) < 2:
        return '<div class="empty">no data yet</div>'
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    inner_w = _SPARK_W - 2 * _SPARK_PAD
    inner_h = _SPARK_H - 2 * _SPARK_PAD

    def sx(x: float) -> float:
        return _SPARK_PAD + (x - x_lo) / x_span * inner_w

    def sy(y: float) -> float:
        return _SPARK_PAD + (1.0 - (y - y_lo) / y_span) * inner_h

    coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in points)
    dots = []
    for x, y in points:
        title = html.escape(f"t={x:.1f}s: {_fmt(y)}{unit}")
        dots.append(
            f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="7" fill="transparent">'
            f"<title>{title}</title></circle>"
        )
    last_x, last_y = points[-1]
    baseline_y = sy(y_lo)
    return (
        f'<svg viewBox="0 0 {_SPARK_W:.0f} {_SPARK_H:.0f}" role="img" '
        f'aria-label="{html.escape(_fmt(last_y) + unit)} latest">'
        f'<line x1="{_SPARK_PAD:.1f}" y1="{baseline_y:.1f}" '
        f'x2="{_SPARK_W - _SPARK_PAD:.1f}" y2="{baseline_y:.1f}" '
        f'stroke="var(--baseline)" stroke-width="1"/>'
        f'<polyline points="{coords}" fill="none" stroke="var(--series-1)" '
        f'stroke-width="2" stroke-linejoin="round" stroke-linecap="round"/>'
        f'<circle cx="{sx(last_x):.1f}" cy="{sy(last_y):.1f}" r="3" '
        f'fill="var(--series-1)"/>'
        f"{''.join(dots)}"
        "</svg>"
    )


def _frame_value(
    frame: dict[str, Any], section: str, key: str, as_rate: bool
) -> float | None:
    """One series value in a telemetry frame, or ``None`` when absent.

    ``section`` is ``"counts"`` or ``"gauges"``; ``as_rate`` divides a
    counter delta by the window length.
    """
    value = frame.get(section, {}).get(key)
    if value is None:
        return None
    if not as_rate:
        return float(value)
    dt = float(frame.get("t1", 0.0)) - float(frame.get("t0", 0.0))
    return float(value) / dt if dt > 0 else None


#: The three dashboard series: (title, unit, frame section, key, rate?).
_SERIES: list[tuple[str, str, str, str, bool]] = [
    ("Ingest throughput", " el/s", "counts", "engine.elements.seen", True),
    ("Realized estimate error", "", "gauges", "monitor.audit.realized_error", False),
    ("Audit CI coverage", "", "gauges", "audit.coverage", False),
]


def _series_points(
    frames: Sequence[dict[str, Any]], section: str, key: str, as_rate: bool
) -> list[tuple[float, float]]:
    points = []
    for frame in frames:
        value = _frame_value(frame, section, key, as_rate)
        if value is not None:
            points.append((float(frame.get("t1", 0.0)), value))
    return points


def _aggregate_profile(profile: dict[str, Any]) -> dict[str, Any] | None:
    try:
        return aggregate_samples(profile)
    except ValueError:
        return None  # malformed snapshot: render the rest of the page


def _origin_rows(federation: Any) -> str:
    """Per-origin fleet table from a ``FederatedSource`` topology.

    One row per configured origin — reachable or not (a dead site is
    exactly what an operator needs to see) — with last-report age,
    rounds, report bytes, and the telemetry piggyback bytes.
    """
    topology = federation.topology()
    parts = [
        "<table><caption>Federated origins</caption>",
        "<thead><tr><th>origin</th><th>source</th><th>status</th>"
        "<th>age s</th><th>rounds</th><th>reports</th><th>bytes</th>"
        "<th>telemetry bytes</th></tr></thead><tbody>",
    ]
    for origin, row in sorted(topology.get("origins", {}).items()):
        if row.get("ok"):
            status = "&#9679; up"
        else:
            error = html.escape(str(row.get("error") or "unreachable"))
            status = f'&#9888; <span title="{error}">down</span>'
        age = row.get("age_seconds")
        parts.append(
            f'<tr><td class="frame">{html.escape(origin)}</td>'
            f'<td class="frame">{html.escape(str(row.get("target", "")))}</td>'
            f"<td>{status}</td>"
            f"<td>{'-' if age is None else _fmt(float(age))}</td>"
            f"<td>{_fmt(float(row.get('rounds', 0)))}</td>"
            f"<td>{_fmt(float(row.get('reports', 0)))}</td>"
            f"<td>{_fmt(float(row.get('bytes', 0)))}</td>"
            f"<td>{_fmt(float(row.get('telemetry_bytes', 0)))}</td></tr>"
        )
    parts.append("</tbody></table>")
    return "".join(parts)


def render_dashboard(source: Any, federation: Any = None) -> str:
    """Render the full dashboard HTML for a ``MonitorSource``.

    ``federation`` (a :class:`repro.federate.FederatedSource`, optional)
    adds a per-origin fleet table above the telemetry sections.
    """
    metrics = source.metrics_snapshot()
    profile = source.profile_snapshot()
    timeseries = source.timeseries_snapshot()

    counters = metrics.get("counters", {})
    alert_count = len(source.audits.alerts)
    frames = timeseries.get("frames", [])

    parts: list[str] = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        '<meta name="viewport" content="width=device-width, initial-scale=1">',
        "<title>repro monitor</title>",
        f"<style>{_CSS}</style></head><body>",
        "<h1>repro monitor</h1>",
        '<p class="sub">skimmed-sketch join pipeline &middot; live telemetry, '
        "estimate audits, continuous profile</p>",
    ]

    # Stat tiles.  The alert tile pairs icon + label (never color alone).
    tiles = [
        ("elements seen", _fmt(counters.get("engine.elements.seen", 0.0)), "", ""),
        ("queries answered", _fmt(counters.get("engine.queries", 0.0)), "", ""),
        ("audits recorded", _fmt(float(source.audits.recorded)), "", ""),
        (
            "drift alerts",
            _fmt(float(alert_count)),
            "alerting" if alert_count else "",
            "&#9888; " if alert_count else "&#9679; ",
        ),
    ]
    parts.append('<div class="row">')
    for label, value, extra_class, icon in tiles:
        parts.append(
            f'<div class="tile {extra_class}"><div class="v">{value}</div>'
            f'<div class="l"><span class="ic">{icon}</span>{label}</div></div>'
        )
    parts.append("</div>")

    # Sparkline cards (one series each: the title is the legend).
    parts.append('<div class="row">')
    for title, unit, section, key, as_rate in _SERIES:
        points = _series_points(frames, section, key, as_rate)
        now = f"{_fmt(points[-1][1])}{unit}" if points else "&mdash;"
        parts.append(
            f'<div class="card"><h2>{html.escape(title)}</h2>'
            f'<p class="now">{now}</p>{_sparkline(points, unit)}</div>'
        )
    parts.append("</div>")

    # Fleet view (only when serving with --federate).
    if federation is not None:
        parts.append('<div class="section">')
        parts.append(_origin_rows(federation))
        parts.append("</div>")

    # Hottest frames (profile top).
    aggregate = _aggregate_profile(profile)
    parts.append('<div class="section">')
    if aggregate and aggregate["frames"]:
        parts.append("<table><caption>Hottest frames "
                     f"({aggregate['samples']} samples, "
                     f"{_fmt(aggregate['seconds'])}s sampled)</caption>")
        parts.append(
            "<thead><tr><th>frame</th><th>self s</th><th>self %</th>"
            "<th>total s</th></tr></thead><tbody>"
        )
        total = aggregate["seconds"] or 1.0
        for row in aggregate["frames"][:_TOP_FRAMES]:
            parts.append(
                f'<tr><td class="frame">{html.escape(row["frame"])}</td>'
                f"<td>{row['self']:.3f}</td>"
                f"<td>{100.0 * row['self'] / total:.1f}</td>"
                f"<td>{row['total']:.3f}</td></tr>"
            )
        parts.append("</tbody></table>")
    else:
        parts.append(
            '<p class="sub">No profile samples &mdash; run with '
            "<code>--profile-out</code> or start PROFILER.</p>"
        )
    parts.append("</div>")

    # Table view of the sparkline data (the accessibility channel).
    parts.append('<div class="section">')
    if frames:
        recent = frames[-_TABLE_ROWS:]
        parts.append(
            "<table><caption>Recent telemetry windows</caption>"
            "<thead><tr><th>window</th><th>len s</th><th>res</th>"
            "<th>el/s</th><th>error</th><th>coverage</th></tr></thead><tbody>"
        )
        for frame in recent:
            t0, t1 = float(frame.get("t0", 0.0)), float(frame.get("t1", 0.0))
            cells = []
            for _, _, section, key, as_rate in _SERIES:
                value = _frame_value(frame, section, key, as_rate)
                cells.append("-" if value is None else _fmt(value))
            parts.append(
                f"<tr><td>{t0:.1f}&ndash;{t1:.1f}s</td><td>{t1 - t0:.1f}</td>"
                f"<td>{frame.get('res', 0)}</td>"
                + "".join(f"<td>{cell}</td>" for cell in cells)
                + "</tr>"
            )
        parts.append("</tbody></table>")
    else:
        parts.append(
            '<p class="sub">No telemetry frames &mdash; run with '
            "<code>--timeseries-out</code> or start RECORDER.</p>"
        )
    parts.append("</div>")

    parts.append(
        f"<footer>{len(frames)} telemetry frames "
        f"({timeseries.get('pushed', 0)} pushed, {timeseries.get('aged', 0)} "
        f"aged) &middot; {len(profile.get('samples', []))} stack samples "
        f"&middot; endpoints: /metrics /health /audits /snapshot /profile "
        f"/timeseries</footer>"
    )
    parts.append("</body></html>")
    return "".join(parts)
