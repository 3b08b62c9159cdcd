"""repro.trace — query-path span tracing for the sketching library.

One process-wide :class:`SpanTracer` (``TRACER``) records **nested
spans** from hooks wired through the query path: sketch maintenance
(``HashSketch.update``/``update_bulk``), SKIMDENSE (flat and dyadic,
including per-level descent spans), the four ESTSKIMJOINSIZE sub-join
terms with their per-table median boosting, ``StreamEngine``
ingest/answer/SQL, and the distributed site/coordinator round-trips.

Recording is **off by default**; every hook opens its span through
``repro.obs.OBS.span`` behind a single ``OBS.enabled`` attribute read —
the same near-zero disabled-cost contract as ``repro.obs`` (see
``tests/test_trace_overhead.py``).

Typical use::

    from repro import trace
    from repro.obs import write_jsonl

    trace.enable()
    engine.answer(query)            # spans accumulate
    write_jsonl("q.trace.jsonl", trace.snapshot())
    trace.disable()

then inspect with the CLI (``python -m repro.obs summary
q.trace.jsonl``) or convert for the Perfetto UI (``python -m
repro.obs convert q.trace.jsonl q.trace.json``).  Scoped capture::

    with trace.capturing() as tracer:
        engine.answer(query)
    spans = tracer.spans()

``import repro.trace`` loads **only the standard library** (no numpy) so
it can ride along in the thinnest collection agent; the test suite
enforces that.  The span catalogue the library emits is documented in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from ..obs.switch import OBS as _OBS
from .export import (
    TRACE_VERSION,
    render_summary,
    summarize_trace,
    trace_origins,
    trace_to_chrome,
    validate_trace,
    write_trace_chrome,
)
from .tracer import DEFAULT_MAX_SPANS, Span, SpanTracer

#: The process-wide tracer every built-in instrumentation hook records to.
TRACER = SpanTracer(enabled=False)

_OBS.register(tracer=TRACER)


def enable() -> None:
    """Turn on span recording into the global tracer."""
    TRACER.enable()


def disable() -> None:
    """Turn off span recording (finished spans are kept)."""
    TRACER.disable()


def is_enabled() -> bool:
    """Whether the global tracer is currently recording."""
    return TRACER.enabled


def snapshot() -> dict[str, Any]:
    """JSON-ready dump of the global tracer's finished spans."""
    return TRACER.snapshot()


def reset() -> None:
    """Drop all finished spans in the global tracer."""
    TRACER.reset()


@contextmanager
def capturing(fresh: bool = True) -> Iterator[SpanTracer]:
    """Enable the global tracer within a ``with`` block.

    ``fresh=True`` (default) resets the tracer on entry so the captured
    spans reflect only the block.  On exit the previous enabled state is
    restored; finished spans are kept for inspection.
    """
    was_enabled = TRACER.enabled
    if fresh:
        TRACER.reset()
    TRACER.enable()
    try:
        yield TRACER
    finally:
        TRACER.enabled = was_enabled


__all__ = [
    "DEFAULT_MAX_SPANS",
    "Span",
    "SpanTracer",
    "TRACER",
    "TRACE_VERSION",
    "capturing",
    "disable",
    "enable",
    "is_enabled",
    "render_summary",
    "reset",
    "snapshot",
    "summarize_trace",
    "trace_origins",
    "trace_to_chrome",
    "validate_trace",
    "write_trace_chrome",
]
