"""The telemetry shipper: a site's singletons as successive delta documents.

The observability plane (``repro.obs`` / ``repro.trace`` /
``repro.profile`` / ``repro.monitor``) is process-local by design — its
singletons see only their own process.  The paper's deployment (§1) is
the opposite: many network sites, one coordinator.  A
:class:`TelemetryShipper` bridges the two: each capture is one telemetry
document (:mod:`repro.obs.telemetry`) holding what the registry, the
tracer and the audit ring gained since the previous capture, riding
piggyback on the distributed protocol's sketch reports (or written as a
standalone file).

Everything shipped is a **delta**, so merging successive documents by
summation is exact for counters; gauges carry write timestamps so
last-write-wins stays well-defined across processes; histograms ship
exact count/sum deltas plus a bounded, evenly-strided reservoir excerpt
(the reservoir itself is lifetime state, so the excerpt is
representative rather than window-exact — the one approximate section,
and it only affects quantile estimates, never counts or sums).

Imports are stdlib-only (the same contract as every other observability
package), with the standalone-layout fallbacks used across
``repro.monitor``.
"""

from __future__ import annotations

import time
from typing import Any

try:  # package layout
    from ..monitor.audit import audit_gauges
    from ..obs.telemetry import (
        DEFAULT_HISTOGRAM_SAMPLES,
        RegistryCursor,
        capture_metrics,
        empty_telemetry,
    )
except ImportError:  # standalone layout: `obs` next to `federate`
    from monitor.audit import audit_gauges  # type: ignore
    from obs.telemetry import (  # type: ignore
        DEFAULT_HISTOGRAM_SAMPLES,
        RegistryCursor,
        capture_metrics,
        empty_telemetry,
    )

#: Default cap on spans shipped per capture (a site round emits a
#: handful; the cap bounds pathological always-on tracing).
DEFAULT_SPAN_BATCH = 512

#: Sentinel distinguishing "use the process singleton" (default) from an
#: explicit ``None`` ("skip this section").
_UNSET: Any = object()


def _default_metrics() -> Any:
    try:  # pragma: no cover - exercised via the standalone import test
        from ..obs import METRICS
    except ImportError:  # standalone layout: `obs` next to `federate`
        from obs import METRICS  # type: ignore
    return METRICS


def _default_tracer() -> Any:
    try:  # pragma: no cover
        from ..trace import TRACER
    except ImportError:
        from trace import TRACER  # type: ignore
    return TRACER


def _default_audit() -> Any:
    try:  # pragma: no cover
        from ..monitor import AUDIT
    except ImportError:
        from monitor import AUDIT  # type: ignore
    return AUDIT


class TelemetryShipper:
    """Stateful capturer turning singleton state into delta documents.

    One shipper per origin per process (a :class:`SketchSite` owns one
    when constructed with ``telemetry=True``).  Each
    :meth:`capture_telemetry` call diffs the registry through its
    :class:`~repro.obs.telemetry.RegistryCursor` and the tracer through
    a span cursor, so successive documents are disjoint deltas and a
    coordinator merging them by summation reconstructs the origin's
    totals exactly.

    The source singletons default to the process-wide ones; tests (and
    the ``selfcheck`` CLI) inject private registries to emulate separate
    processes inside one.  Passing ``audit=None`` explicitly skips the
    audit gauges.

    Call sites must guard on ``OBS.enabled`` — an unguarded
    ``capture_telemetry`` serialised into a protocol message is exactly
    what linter rule R3 rejects.
    """

    def __init__(
        self,
        origin: str,
        registry: Any | None = None,
        tracer: Any | None = None,
        audit: Any = _UNSET,
        max_spans: int = DEFAULT_SPAN_BATCH,
        max_histogram_samples: int = DEFAULT_HISTOGRAM_SAMPLES,
    ) -> None:
        if not origin:
            raise ValueError("origin must be a non-empty string")
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self.origin = origin
        self.registry = registry if registry is not None else _default_metrics()
        self.tracer = tracer if tracer is not None else _default_tracer()
        self.audit = _default_audit() if audit is _UNSET else audit
        self.max_spans = max_spans
        self.max_histogram_samples = max_histogram_samples
        self._seq = 0
        self._cursor = RegistryCursor()
        self._span_cursor = 0
        self._tracer_epoch = getattr(self.tracer, "_epoch", 0.0)

    @property
    def seq(self) -> int:
        """Number of captures taken so far."""
        return self._seq

    def capture_telemetry(self) -> dict[str, Any]:
        """Assemble one delta document and advance the capture cursors."""
        self._seq += 1
        doc = empty_telemetry(self.origin, seq=self._seq)
        capture_metrics(self.registry, doc, self._cursor, self.max_histogram_samples)
        self._capture_spans(doc)
        if self.audit is not None:
            now = time.time()
            audits, alerts = self.audit.audits(), len(self.audit.alerts)
            signals = audit_gauges((a.covered for a in audits), alerts)
            for name, value in signals.items():
                doc["gauges"][name] = [value, now]
        return doc

    def _capture_spans(self, doc: dict[str, Any]) -> None:
        tracer = self.tracer
        # A tracer reset() restarts the epoch (and drops spans) — the
        # epoch comparison catches it even when the span count happens to
        # match the cursor; the length check backstops tracers without one.
        epoch = getattr(tracer, "_epoch", 0.0)
        if epoch != self._tracer_epoch:
            self._tracer_epoch = epoch
            self._span_cursor = 0
        finished = tracer.spans()
        if len(finished) < self._span_cursor:
            self._span_cursor = 0
        fresh = finished[self._span_cursor :]
        self._span_cursor = len(finished)
        batch = fresh[: self.max_spans]
        doc["spans"] = [span.as_dict() for span in batch]
        for record in doc["spans"]:
            attrs = dict(record["attrs"])
            attrs.setdefault("origin", self.origin)
            record["attrs"] = attrs
        doc["spans_dropped"] = len(fresh) - len(batch)


__all__ = ["DEFAULT_SPAN_BATCH", "TelemetryShipper"]
