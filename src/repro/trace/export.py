"""Trace schema, Chrome/Perfetto ``trace_event`` export and span summary.

Everything operates on plain span dicts (the tracer's ``snapshot()``
output), so a trace can be captured in one process and converted in
another.  On disk a trace is JSONL through :mod:`repro.obs.jsonl`: a
header ``{"version": 1, "kind": "repro.trace", "dropped": n}``, then one
span record ``{"name", "id", "parent", "start", "end", "attrs"}`` per
line.  The other format is

* **Chrome ``trace_event``** — ``{"traceEvents": [...]}`` with complete
  (``"ph": "X"``) events for spans and instant (``"ph": "i"``) events
  for zero-duration records, timestamps in microseconds.  Loadable
  directly in https://ui.perfetto.dev or ``chrome://tracing``.

``validate_trace`` checks structural invariants (schema version, field
types, ``end >= start``, parent references resolving to known span
ids) and is what ``python -m repro.obs validate`` runs on a trace.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

#: Trace schema version emitted by :meth:`SpanTracer.snapshot`.
TRACE_VERSION = 1

_SPAN_FIELDS = ("name", "id", "parent", "start", "end", "attrs")


def validate_trace(snapshot: Any) -> dict[str, Any]:
    """Check a trace snapshot against the schema; returns it unchanged.

    Raises ``ValueError`` describing the first violation.
    """
    if not isinstance(snapshot, dict):
        raise ValueError(f"trace must be a dict, got {type(snapshot).__name__}")
    if snapshot.get("version") != TRACE_VERSION:
        raise ValueError(
            f"unsupported trace version {snapshot.get('version')!r} "
            f"(expected {TRACE_VERSION})"
        )
    if snapshot.get("kind") != "repro.trace":
        raise ValueError(f"unexpected trace kind {snapshot.get('kind')!r}")
    dropped = snapshot.get("dropped", 0)
    if not isinstance(dropped, int) or dropped < 0:
        raise ValueError(f"'dropped' must be a non-negative int, got {dropped!r}")
    spans = snapshot.get("spans")
    if not isinstance(spans, list):
        raise ValueError("trace section 'spans' missing or not a list")
    seen_ids: set[int] = set()
    for index, span in enumerate(spans):
        if not isinstance(span, dict):
            raise ValueError(f"spans[{index}] is not a dict")
        missing = [f for f in _SPAN_FIELDS if f not in span]
        if missing:
            raise ValueError(f"spans[{index}] missing fields {missing}")
        if not isinstance(span["name"], str) or not span["name"]:
            raise ValueError(f"spans[{index}]['name'] must be a non-empty string")
        if not isinstance(span["id"], int) or span["id"] < 1:
            raise ValueError(f"spans[{index}]['id'] must be a positive int")
        if span["id"] in seen_ids:
            raise ValueError(f"spans[{index}] reuses span id {span['id']}")
        seen_ids.add(span["id"])
        parent = span["parent"]
        if parent is not None and (not isinstance(parent, int) or parent < 1):
            raise ValueError(f"spans[{index}]['parent'] must be null or a positive int")
        for field in ("start", "end"):
            if not isinstance(span[field], (int, float)):
                raise ValueError(f"spans[{index}][{field!r}] is not numeric")
        if span["end"] < span["start"]:
            raise ValueError(f"spans[{index}] ends before it starts")
        if not isinstance(span["attrs"], dict):
            raise ValueError(f"spans[{index}]['attrs'] must be a dict")
    # Parents must reference spans present in the trace.  Children finish
    # (and are recorded) before their parents, so ids may appear later in
    # the list — check after collecting them all.
    for index, span in enumerate(spans):
        parent = span["parent"]
        if parent is not None and parent not in seen_ids:
            raise ValueError(
                f"spans[{index}] references unknown parent id {parent}"
            )
    return snapshot


def trace_origins(snapshot: dict[str, Any]) -> list[str]:
    """Distinct ``origin=`` attribute values present in a trace, sorted.

    Spans without an origin (recorded locally rather than imported via
    :meth:`SpanTracer.import_spans`) are not listed — they belong to the
    local lane.
    """
    origins = {
        span["attrs"]["origin"]
        for span in snapshot.get("spans", [])
        if isinstance(span.get("attrs"), dict) and "origin" in span["attrs"]
    }
    return sorted(str(o) for o in origins)


def trace_to_chrome(snapshot: dict[str, Any]) -> dict[str, Any]:
    """Convert a validated trace to the Chrome/Perfetto ``trace_event`` dict.

    Spans become complete events (``"ph": "X"``) and zero-duration
    records become thread-scoped instants (``"ph": "i"``); timestamps
    are microseconds since the tracer epoch, as the format requires.

    One timeline, one lane per origin: local spans render in pid/tid 1
    and every distinct ``origin=`` attribute (site span trees imported by
    the coordinator, see :mod:`repro.federate`) gets its own pid/tid with
    a ``process_name`` metadata event, so a stitched federation trace
    shows each site's rounds in a separate named track under the
    coordinator's timeline.
    """
    validate_trace(snapshot)
    lanes: dict[str | None, int] = {None: 1}
    for index, origin in enumerate(trace_origins(snapshot), start=2):
        lanes[origin] = index
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "args": {"name": "repro (skimmed sketches)"},
        }
    ]
    for origin, pid in lanes.items():
        if origin is not None:
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "args": {"name": f"repro origin: {origin}"},
                }
            )
    for span in snapshot["spans"]:
        attrs = span["attrs"]
        pid = lanes[attrs["origin"]] if "origin" in attrs else 1
        duration_us = (span["end"] - span["start"]) * 1e6
        event: dict[str, Any] = {
            "name": span["name"],
            "cat": span["name"].split(".")[0],
            "pid": pid,
            "tid": pid,
            "ts": span["start"] * 1e6,
            "args": dict(attrs, span_id=span["id"]),
        }
        if duration_us > 0:
            event["ph"] = "X"
            event["dur"] = duration_us
        else:
            event["ph"] = "i"
            event["s"] = "t"
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def summarize_trace(snapshot: dict[str, Any]) -> list[dict[str, Any]]:
    """Per-span-name aggregate rows (count, total/mean/max seconds).

    The bridge from the trace plane back to the metrics plane: the same
    numbers ``repro.obs`` histograms would hold, derived after the fact
    from one trace file.  Sorted by total time, descending.
    """
    validate_trace(snapshot)
    totals: dict[str, dict[str, Any]] = {}
    for span in snapshot["spans"]:
        duration = span["end"] - span["start"]
        row = totals.setdefault(
            span["name"], {"name": span["name"], "count": 0, "total": 0.0, "max": 0.0}
        )
        row["count"] += 1
        row["total"] += duration
        row["max"] = max(row["max"], duration)
    rows = sorted(totals.values(), key=lambda r: (-r["total"], r["name"]))
    for row in rows:
        row["mean"] = row["total"] / row["count"]
    return rows


def write_trace_chrome(path: str, snapshot: dict[str, Any]) -> None:
    """Write a trace as a Chrome/Perfetto-loadable JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace_to_chrome(snapshot), fh, indent=1)
        fh.write("\n")


def render_summary(rows: Iterable[dict[str, Any]]) -> str:
    """Human-readable table for ``python -m repro.obs summary``."""
    header = f"{'span':<34} {'count':>7} {'total s':>10} {'mean s':>10} {'max s':>10}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['name']:<34} {row['count']:>7} {row['total']:>10.6f} "
            f"{row['mean']:>10.6f} {row['max']:>10.6f}"
        )
    return "\n".join(lines)
