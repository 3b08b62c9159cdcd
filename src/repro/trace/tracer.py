"""Dependency-free query-path span tracer.

Aggregate metrics (``repro.obs``) answer "how many / how long on
average"; they cannot answer *where one join estimate spent its time*.
The paper's cost story is inherently per-query and per-phase — O(depth)
hash-sketch updates vs O(s1*s2) AGMS (Sec. 2-3), the pruned dyadic
descent vs the flat domain scan (Fig. 3), the four ESTSKIMJOINSIZE
sub-join terms (Fig. 4) — so this module records *nested spans*: named
intervals with attributes (stream id, tracked size N, the s1 x s2 shape,
skim threshold T, sub-join term, site id) and explicit parent links.

The design contract is the same as :class:`repro.obs.MetricsRegistry`:

* one process-wide tracer (``repro.trace.TRACER``), **off by default**;
* hook sites open spans through ``repro.obs.OBS.span`` behind a single
  ``OBS.enabled`` attribute read, so a disabled tracer costs one branch
  per call site (``tests/test_trace_overhead.py`` enforces the bound);
* **no third-party imports** — ``import repro.trace`` loads no numpy;
* bounded memory: at most ``max_spans`` finished spans are kept, the
  rest are counted in ``dropped`` instead of silently discarded.

Span nesting uses an explicit stack on the tracer (not thread-locals):
context is propagated by the call structure itself, which is exact for
the single-threaded query path the library implements.  Like the
metrics registry, the tracer is not thread-synchronised.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator

from ..obs.switch import Sink

#: Default cap on retained finished spans (a traced query emits tens of
#: spans; this bounds memory even if tracing is left on during ingest).
DEFAULT_MAX_SPANS = 100_000


class Span:
    """One named, timed interval with attributes and a parent link.

    ``start`` / ``end`` are ``time.perf_counter()`` readings relative to
    the tracer's epoch (the moment of its last ``reset()``), so exported
    timestamps start near zero and survive JSON round-trips exactly.
    """

    __slots__ = ("name", "span_id", "parent_id", "start", "end", "attributes")

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: int | None,
        start: float,
        attributes: dict[str, Any],
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end = start
        self.attributes = attributes

    @property
    def duration(self) -> float:
        """Span length in seconds (0.0 for instants)."""
        return self.end - self.start

    def set(self, **attributes: Any) -> None:
        """Attach attributes discovered mid-span (e.g. a result count)."""
        self.attributes.update(attributes)

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready record (the JSONL wire format of one span)."""
        return {
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "start": self.start,
            "end": self.end,
            "attrs": self.attributes,
        }

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"parent={self.parent_id}, dur={self.duration:.6f}s)"
        )


class SpanTracer(Sink):
    """Process-wide recorder of nested query-path spans.

    Usage::

        with TRACER.span("skim", kind="flat", threshold=t) as sp:
            ...
            if sp is not None:
                sp.set(dense=count)

    (the library's own hook sites go through ``OBS.span``, which opens
    the same span).  A span opened while the tracer is disabled is
    silently not recorded (``span`` yields ``None``), so a call site that
    forgets the enabled check cannot corrupt state — it only pays the
    cost of a no-op context manager.
    """

    __slots__ = (
        "max_spans",
        "dropped",
        "_spans",
        "_stack",
        "_next_id",
        "_epoch",
    )

    def __init__(self, enabled: bool = False, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        super().__init__(enabled)
        self.max_spans = max_spans
        self.dropped = 0
        self._spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 1
        self._epoch = time.perf_counter()

    def reset(self) -> None:
        """Drop all finished spans, restart ids and the timestamp epoch
        (enabled flag kept)."""
        self._spans.clear()
        self._stack.clear()
        self._next_id = 1
        self.dropped = 0
        self._epoch = time.perf_counter()

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span | None]:
        """Open a nested span; yields the :class:`Span` (or ``None`` when
        the tracer is disabled at entry)."""
        if not self.enabled:
            yield None
            return
        span = Span(
            name,
            self._next_id,
            self._stack[-1].span_id if self._stack else None,
            time.perf_counter() - self._epoch,
            attributes,
        )
        self._next_id += 1
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter() - self._epoch
            self._stack.pop()
            self._keep(span)

    def instant(self, name: str, **attributes: Any) -> None:
        """Record a zero-duration event under the current span."""
        if not self.enabled:
            return
        span = Span(
            name,
            self._next_id,
            self._stack[-1].span_id if self._stack else None,
            time.perf_counter() - self._epoch,
            attributes,
        )
        self._next_id += 1
        self._keep(span)

    def _keep(self, span: Span) -> None:
        if len(self._spans) < self.max_spans:
            self._spans.append(span)
        else:
            self.dropped += 1

    def import_spans(
        self,
        spans: list[dict[str, Any]],
        origin: str,
        parent_id: int | None = None,
    ) -> int:
        """Graft foreign finished spans (wire records) into this tracer.

        The cross-process stitching half of trace-context propagation: a
        site ships its span batch inside a telemetry snapshot and the
        coordinator calls this to place the site's span tree on its own
        timeline.  Span ids are **remapped** into this tracer's id space
        (foreign ids are only unique per origin); parent links inside the
        batch are remapped consistently, and batch roots — plus any span
        whose parent is outside the batch — are re-parented under
        ``parent_id`` (typically the coordinator's currently open round
        span).  Every imported span gets an ``origin=`` attribute unless
        it already carries one, which is what the Perfetto exporter keys
        its per-origin lanes on.

        Timestamps stay in the origin's epoch.  ``max_spans`` is
        respected (overflow counts into ``dropped``).  Like every
        recording method it is a no-op while the tracer is disabled.
        Returns the number of spans kept.
        """
        if not self.enabled:
            return 0
        id_map: dict[int, int] = {}
        for record in spans:
            id_map[int(record["id"])] = self._next_id
            self._next_id += 1
        kept = 0
        for record in spans:
            parent = record.get("parent")
            mapped = id_map.get(parent, parent_id) if parent is not None else parent_id
            attributes = dict(record.get("attrs") or {})
            attributes.setdefault("origin", origin)
            span = Span(
                str(record["name"]),
                id_map[int(record["id"])],
                mapped,
                float(record["start"]),
                attributes,
            )
            span.end = float(record["end"])
            before = len(self._spans)
            self._keep(span)
            kept += len(self._spans) - before
        return kept

    # -- reading -----------------------------------------------------------

    def current_span_name(self) -> str | None:
        """Name of the innermost *open* span (``None`` outside any span).

        Unlike every other reader this one is also called from a foreign
        thread — the ``repro.profile`` sampler attributes each stack
        sample to the span active at sampling time.  The read is
        best-effort: the stack may mutate underneath it, so it grabs the
        tail through one indexing op and swallows the race instead of
        locking the hot path.
        """
        try:
            return self._stack[-1].name
        except IndexError:
            return None

    def current_span_id(self) -> int | None:
        """Id of the innermost *open* span (``None`` outside any span).

        The anchor :meth:`import_spans` callers use to stitch foreign
        span trees under the span doing the importing.  Same best-effort
        single-indexing-op read as :meth:`current_span_name`.
        """
        try:
            return self._stack[-1].span_id
        except IndexError:
            return None

    def spans(self) -> list[Span]:
        """Finished spans in completion order (children before parents)."""
        return list(self._spans)

    def span_count(self) -> int:
        """Number of retained finished spans."""
        return len(self._spans)

    def find(self, name: str) -> list[Span]:
        """Finished spans with the given name."""
        return [s for s in self._spans if s.name == name]

    def children_of(self, span: Span) -> list[Span]:
        """Direct children of ``span`` among the finished spans."""
        return [s for s in self._spans if s.parent_id == span.span_id]

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready dump: header fields plus every span record."""
        return {
            "version": 1,
            "kind": "repro.trace",
            "dropped": self.dropped,
            "spans": [s.as_dict() for s in self._spans],
        }

    def __repr__(self) -> str:
        return (
            f"SpanTracer(enabled={self.enabled}, spans={len(self._spans)}, "
            f"dropped={self.dropped})"
        )
