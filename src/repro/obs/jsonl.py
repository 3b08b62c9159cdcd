"""The one JSONL codec for trace, profile and timeseries documents.

Each of those documents is a header plus a list of records, and travels
as JSONL: line 1 is the header (``version``, ``kind``, then the kind's
own fields), every following line is one record.  The ``kind`` names the
layout:

====================  ===========  ======================================
kind                  records      header fields after version/kind
====================  ===========  ======================================
``repro.trace``       ``spans``    ``dropped``
``repro.profile``     ``samples``  ``hz``, ``dropped``
``repro.timeseries``  ``frames``   ``interval``, ``pushed``, ``aged``
====================  ===========  ======================================

The codec only parses and prints; each package keeps its own validator
(``repro.trace.validate_trace``, ``repro.profile.validate_profile`` /
``validate_timeseries``), which the reader of a file applies.  Append
friendly, greppable, diffable.  Standard library only.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from ..errors import ParameterError

#: kind -> (records key, header fields after version/kind with defaults).
JSONL_LAYOUTS: dict[str, tuple[str, tuple[tuple[str, Any], ...]]] = {
    "repro.trace": ("spans", (("dropped", 0),)),
    "repro.profile": ("samples", (("hz", 0.0), ("dropped", 0))),
    "repro.timeseries": (
        "frames",
        (("interval", 1.0), ("pushed", 0), ("aged", 0)),
    ),
}


def _layout(kind: Any) -> tuple[str, tuple[tuple[str, Any], ...]]:
    layout = JSONL_LAYOUTS.get(kind) if isinstance(kind, str) else None
    if layout is None:
        raise ParameterError(
            f"unknown JSONL kind {kind!r} (expected one of {sorted(JSONL_LAYOUTS)})"
        )
    return layout


def to_jsonl(snapshot: Mapping[str, Any]) -> str:
    """Render a document as JSONL: header line, then one record per line."""
    kind = snapshot.get("kind")
    records, fields = _layout(kind)
    header = {"version": snapshot.get("version", 1), "kind": kind}
    header.update((name, snapshot.get(name, default)) for name, default in fields)
    lines = [json.dumps(header)]
    lines.extend(json.dumps(record) for record in snapshot.get(records, []))
    return "\n".join(lines) + "\n"


def from_jsonl(text: str) -> dict[str, Any]:
    """Parse JSONL back into a document (inverse of :func:`to_jsonl`).

    The header's ``kind`` picks the records key.  Raises
    :class:`~repro.errors.ParameterError` on an empty file, a line that
    is not JSON or an unknown kind; validating the records is the
    caller's job.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ParameterError("empty JSONL file (no header line)")
    parsed = []
    for lineno, line in enumerate(lines, start=1):
        try:
            parsed.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ParameterError(f"line {lineno} is not JSON: {exc}") from None
    header = parsed[0]
    if not isinstance(header, dict):
        raise ParameterError("header line is not a JSON object")
    records, _ = _layout(header.get("kind"))
    return dict(header, **{records: parsed[1:]})


def write_jsonl(path: str, snapshot: Mapping[str, Any]) -> None:
    """Write a document to ``path`` as JSONL."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_jsonl(snapshot))


def read_jsonl(path: str) -> dict[str, Any]:
    """Read a JSONL document from ``path`` (unvalidated, see :func:`from_jsonl`)."""
    with open(path, encoding="utf-8") as fh:
        return from_jsonl(fh.read())


__all__ = ["JSONL_LAYOUTS", "from_jsonl", "read_jsonl", "to_jsonl", "write_jsonl"]
