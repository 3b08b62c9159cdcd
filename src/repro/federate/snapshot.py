"""The ``TelemetrySnapshot`` envelope: capture, wire schema, merge.

The observability plane (``repro.obs`` / ``repro.trace`` /
``repro.profile`` / ``repro.monitor``) is process-local by design — its
singletons see only their own process.  The paper's deployment (§1) is
the opposite: many network sites, one coordinator.  This module is the
bridge: a **versioned JSON envelope** that one process captures and
another merges, riding piggyback on the distributed protocol's sketch
reports (or shipped as a standalone file).

Wire schema (version 2)::

    {
      "version": 2,
      "kind": "repro.telemetry",
      "origin": "site.edge-0",          # who captured this
      "seq": 3,                          # capture sequence at the origin
      "counters": {name: delta},         # since the previous capture
      "gauges": {name: [value, ts]},     # wall-clock write timestamps
      "histograms": {name: {"count", "sum", "min", "max", "samples"}},
      "spans": [span records],           # bounded batch, origin-local ids
      "spans_dropped": 0,
    }

Version 2 dropped version 1's ``pulses`` section: the flight recorder's
frames are windows over the registry's counters, which ``counters``
already carries, so shipping both counted the same events twice.

Everything shipped is a **delta** relative to the shipper's previous
capture, so merging successive snapshots by summation is exact for
counters; gauges carry write timestamps so last-write-wins
stays well-defined across processes; histograms ship exact count/sum
deltas plus a bounded, evenly-strided reservoir excerpt (the reservoir
itself is lifetime state, so the shipped excerpt is representative
rather than window-exact — the one approximate section, and it only
affects quantile estimates, never counts or sums).

Merging lives in three places, all consistent with each other:

* :func:`merge_telemetry` — pure snapshot x snapshot -> snapshot (what
  ``python -m repro.federate merge`` and the coordinator's per-origin
  accumulation use); commutative and associative on counters.
* :meth:`repro.obs.MetricsRegistry.merge_snapshot` — snapshot into a
  live registry.
* :meth:`repro.trace.SpanTracer.import_spans` — the span batch into a
  live tracer, ids remapped, ``origin=`` preserved.

Imports are stdlib-only (the same contract as every other observability
package), with the standalone-layout fallbacks used across
``repro.monitor``.
"""

from __future__ import annotations

import json
import time
from typing import Any, Iterable, Mapping

#: Telemetry envelope schema version.
TELEMETRY_VERSION = 2

#: The envelope ``kind`` discriminator.
TELEMETRY_KIND = "repro.telemetry"

#: Default cap on spans shipped per capture (a site round emits a
#: handful; the cap bounds pathological always-on tracing).
DEFAULT_SPAN_BATCH = 512

#: Default cap on reservoir samples shipped per histogram.
DEFAULT_HISTOGRAM_SAMPLES = 64

_SPAN_FIELDS = ("name", "id", "parent", "start", "end", "attrs")
_HISTOGRAM_FIELDS = ("count", "sum", "min", "max", "samples")

#: Sentinel distinguishing "use the process singleton" (default) from an
#: explicit ``None`` ("skip this section").
_UNSET: Any = object()


def empty_telemetry(origin: str, seq: int = 0) -> dict[str, Any]:
    """A structurally valid snapshot carrying nothing."""
    return {
        "version": TELEMETRY_VERSION,
        "kind": TELEMETRY_KIND,
        "origin": origin,
        "seq": seq,
        "counters": {},
        "gauges": {},
        "histograms": {},
        "spans": [],
        "spans_dropped": 0,
    }


def validate_telemetry(snapshot: Any) -> dict[str, Any]:
    """Check a telemetry snapshot against the wire schema.

    Returns the snapshot unchanged; raises ``ValueError`` describing the
    first violation.  Span parent references may point *outside* the
    batch (a parent still open at capture time ships in a later batch) —
    the importer re-parents those — so unlike ``validate_trace`` only id
    uniqueness is required, not parent resolution.
    """
    if not isinstance(snapshot, dict):
        raise ValueError(
            f"telemetry must be a dict, got {type(snapshot).__name__}"
        )
    if snapshot.get("version") != TELEMETRY_VERSION:
        raise ValueError(
            f"unsupported telemetry version {snapshot.get('version')!r} "
            f"(expected {TELEMETRY_VERSION})"
        )
    if snapshot.get("kind") != TELEMETRY_KIND:
        raise ValueError(f"unexpected telemetry kind {snapshot.get('kind')!r}")
    origin = snapshot.get("origin")
    if not isinstance(origin, str) or not origin:
        raise ValueError(f"'origin' must be a non-empty string, got {origin!r}")
    seq = snapshot.get("seq")
    if not isinstance(seq, int) or seq < 0:
        raise ValueError(f"'seq' must be a non-negative int, got {seq!r}")
    counters = snapshot.get("counters")
    if not isinstance(counters, dict):
        raise ValueError("section 'counters' missing or not a dict")
    for name, value in counters.items():
        if not isinstance(name, str) or not name:
            raise ValueError(f"bad metric name {name!r} in counters")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"counters[{name!r}] is not numeric: {value!r}")
    gauges = snapshot.get("gauges")
    if not isinstance(gauges, dict):
        raise ValueError("section 'gauges' missing or not a dict")
    for name, pair in gauges.items():
        if not isinstance(name, str) or not name:
            raise ValueError(f"bad metric name {name!r} in gauges")
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not all(isinstance(v, (int, float)) for v in pair)
        ):
            raise ValueError(
                f"gauges[{name!r}] must be a [value, timestamp] pair, got {pair!r}"
            )
    histograms = snapshot.get("histograms")
    if not isinstance(histograms, dict):
        raise ValueError("section 'histograms' missing or not a dict")
    for name, state in histograms.items():
        if not isinstance(state, dict):
            raise ValueError(f"histograms[{name!r}] must be a dict")
        missing = [f for f in _HISTOGRAM_FIELDS if f not in state]
        if missing:
            raise ValueError(f"histograms[{name!r}] missing fields {missing}")
        if not isinstance(state["count"], int) or state["count"] < 0:
            raise ValueError(
                f"histograms[{name!r}]['count'] must be a non-negative int"
            )
        for field in ("sum", "min", "max"):
            if not isinstance(state[field], (int, float)):
                raise ValueError(f"histograms[{name!r}][{field!r}] is not numeric")
        samples = state["samples"]
        if not isinstance(samples, list) or not all(
            isinstance(v, (int, float)) for v in samples
        ):
            raise ValueError(
                f"histograms[{name!r}]['samples'] must be a list of numbers"
            )
    spans = snapshot.get("spans")
    if not isinstance(spans, list):
        raise ValueError("section 'spans' missing or not a list")
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
            raise ValueError(
                f"spans[{index}]['parent'] must be null or a positive int"
            )
        for field in ("start", "end"):
            if not isinstance(span[field], (int, float)):
                raise ValueError(f"spans[{index}][{field!r}] is not numeric")
        if span["end"] < span["start"]:
            raise ValueError(f"spans[{index}] ends before it starts")
        if not isinstance(span["attrs"], dict):
            raise ValueError(f"spans[{index}]['attrs'] must be a dict")
    dropped = snapshot.get("spans_dropped")
    if not isinstance(dropped, int) or dropped < 0:
        raise ValueError(
            f"'spans_dropped' must be a non-negative int, got {dropped!r}"
        )
    return snapshot


def telemetry_to_json(snapshot: Mapping[str, Any]) -> str:
    """Serialise a telemetry snapshot compactly (the wire bytes)."""
    return json.dumps(snapshot, sort_keys=True, separators=(",", ":"))


def telemetry_from_json(text: str) -> dict[str, Any]:
    """Parse and validate a snapshot (inverse of :func:`telemetry_to_json`)."""
    return validate_telemetry(json.loads(text))


def telemetry_size_in_bytes(snapshot: Mapping[str, Any]) -> int:
    """Wire size of a snapshot — the federation overhead the
    ``federate.overhead`` bench scenario budgets against report payloads."""
    return len(telemetry_to_json(snapshot).encode("utf-8"))


# -- pure merge -----------------------------------------------------------


def _merge_numeric(
    a: Mapping[str, float], b: Mapping[str, float]
) -> dict[str, float]:
    out = dict(a)
    for name, value in b.items():
        out[name] = out.get(name, 0) + value
    return out


def _merge_gauges(
    a: Mapping[str, Any], b: Mapping[str, Any]
) -> dict[str, list[float]]:
    out = {name: list(pair) for name, pair in a.items()}
    for name, pair in b.items():
        held = out.get(name)
        # Last write by timestamp; ties break on value so the pick stays
        # order-independent.
        if held is None or (pair[1], pair[0]) > (held[1], held[0]):
            out[name] = list(pair)
    return out


def _merge_histograms(
    a: Mapping[str, Any], b: Mapping[str, Any], max_samples: int
) -> dict[str, dict[str, Any]]:
    out: dict[str, dict[str, Any]] = {
        name: dict(state, samples=list(state["samples"])) for name, state in a.items()
    }
    for name, state in b.items():
        held = out.get(name)
        if held is None:
            out[name] = dict(state, samples=list(state["samples"]))
            continue
        if state["count"] == 0:
            continue
        if held["count"] == 0:
            out[name] = dict(state, samples=list(state["samples"]))
            continue
        samples = sorted(held["samples"] + list(state["samples"]))
        if len(samples) > max_samples:
            step = len(samples) / max_samples
            samples = [samples[int(i * step)] for i in range(max_samples)]
        out[name] = {
            "count": held["count"] + state["count"],
            "sum": held["sum"] + state["sum"],
            "min": min(held["min"], state["min"]),
            "max": max(held["max"], state["max"]),
            "samples": samples,
        }
    return out


def _merge_spans(
    a: Mapping[str, Any], b: Mapping[str, Any]
) -> list[dict[str, Any]]:
    """Combine two span batches, remapping ids into one id space.

    Batches are ordered by origin name so the combined list — and the
    id assignment — is independent of argument order.  Parent links are
    remapped within each batch; references outside a batch become null
    (the live importer re-parents those under its own anchor instead).
    """
    batches = sorted(
        [(a["origin"], a["spans"]), (b["origin"], b["spans"])],
        key=lambda pair: pair[0],
    )
    out: list[dict[str, Any]] = []
    next_id = 1
    for batch_origin, spans in batches:
        id_map = {span["id"]: next_id + i for i, span in enumerate(spans)}
        next_id += len(spans)
        for span in spans:
            attrs = dict(span.get("attrs") or {})
            attrs.setdefault("origin", batch_origin)
            record = dict(span)
            record["id"] = id_map[span["id"]]
            parent = span.get("parent")
            record["parent"] = id_map.get(parent) if parent is not None else None
            record["attrs"] = attrs
            out.append(record)
    return out


def merge_telemetry(
    a: Mapping[str, Any],
    b: Mapping[str, Any],
    max_histogram_samples: int = DEFAULT_HISTOGRAM_SAMPLES,
) -> dict[str, Any]:
    """Merge two validated snapshots into one (pure; inputs untouched).

    Counters **sum** — commutative and associative, so a
    coordinator can fold successive or sibling snapshots in any order
    (``python -m repro.federate selfcheck`` proves it, the hypothesis
    suite fuzzes it).  Gauges take the last write by timestamp;
    histograms add count/sum and combine bounded reservoirs; span
    batches concatenate with ids remapped and per-span ``origin=``
    attribution preserved.  The merged ``origin`` joins the two names
    with ``+`` (sorted) when they differ.
    """
    a = validate_telemetry(dict(a))
    b = validate_telemetry(dict(b))
    if a["origin"] == b["origin"]:
        origin = a["origin"]
    else:
        origin = "+".join(sorted({a["origin"], b["origin"]}))
    return {
        "version": TELEMETRY_VERSION,
        "kind": TELEMETRY_KIND,
        "origin": origin,
        "seq": max(a["seq"], b["seq"]),
        "counters": _merge_numeric(a["counters"], b["counters"]),
        "gauges": _merge_gauges(a["gauges"], b["gauges"]),
        "histograms": _merge_histograms(
            a["histograms"], b["histograms"], max_histogram_samples
        ),
        "spans": _merge_spans(a, b),
        "spans_dropped": a["spans_dropped"] + b["spans_dropped"],
    }


def merge_all_telemetry(snapshots: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Left-fold :func:`merge_telemetry` over any number of snapshots."""
    merged: dict[str, Any] | None = None
    for snapshot in snapshots:
        doc = validate_telemetry(dict(snapshot))
        merged = doc if merged is None else merge_telemetry(merged, doc)
    if merged is None:
        raise ValueError("nothing to merge (no snapshots given)")
    return merged


def telemetry_to_metrics(snapshot: Mapping[str, Any]) -> dict[str, Any]:
    """Project a telemetry snapshot onto the version-1 metrics-snapshot
    shape (histogram states become summaries).

    This is what the federated ``/metrics`` exposition renders per
    origin, so a telemetry file is scrapeable exactly like a
    ``--metrics-out`` file.
    """
    snapshot = validate_telemetry(dict(snapshot))
    counters = snapshot["counters"]
    histograms: dict[str, dict[str, float]] = {}
    for name, state in snapshot["histograms"].items():
        count = state["count"]
        samples = sorted(state["samples"])

        def _pct(p: float) -> float:
            if not samples:
                return 0.0
            rank = max(
                0, min(len(samples) - 1, round(p / 100.0 * (len(samples) - 1)))
            )
            return float(samples[rank])

        histograms[name] = {
            "count": count,
            "sum": float(state["sum"]),
            "min": float(state["min"]),
            "max": float(state["max"]),
            "mean": float(state["sum"]) / count if count else 0.0,
            "p50": _pct(50),
            "p95": _pct(95),
            "p99": _pct(99),
        }
    return {
        "version": 1,
        "counters": {n: float(v) for n, v in counters.items()},
        "gauges": {n: float(pair[0]) for n, pair in snapshot["gauges"].items()},
        "histograms": histograms,
    }


# -- capture --------------------------------------------------------------


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
    """Stateful capturer turning singleton state into delta snapshots.

    One shipper per origin per process (a :class:`SketchSite` owns one
    when constructed with ``telemetry=True``).  Each
    :meth:`capture_telemetry` call diffs the registries against the
    previous capture, so successive snapshots are disjoint deltas and a
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
        self._last_counters: dict[str, float] = {}
        self._last_histograms: dict[str, tuple[int, float]] = {}
        self._span_cursor = 0
        self._registry_generation = getattr(self.registry, "generation", 0)
        self._tracer_epoch = getattr(self.tracer, "_epoch", 0.0)

    @property
    def seq(self) -> int:
        """Number of captures taken so far."""
        return self._seq

    def capture_telemetry(self) -> dict[str, Any]:
        """Assemble one delta snapshot and advance the capture cursor."""
        self._seq += 1
        doc = empty_telemetry(self.origin, seq=self._seq)
        self._capture_metrics(doc)
        self._capture_spans(doc)
        self._capture_audit(doc)
        return doc

    def _capture_metrics(self, doc: dict[str, Any]) -> None:
        registry = self.registry
        # A registry reset() since the last capture invalidates every
        # watermark — everything currently held is new.
        generation = getattr(registry, "generation", 0)
        if generation != self._registry_generation:
            self._registry_generation = generation
            self._last_counters = {}
            self._last_histograms = {}
        current = {n: c.value for n, c in registry._counters.items()}
        for name, total in sorted(current.items()):
            delta = total - self._last_counters.get(name, 0.0)
            if delta:
                doc["counters"][name] = delta
        self._last_counters = current
        for name, gauge in sorted(registry._gauges.items()):
            doc["gauges"][name] = [gauge.value, gauge.ts]
        for name, histogram in sorted(registry._histograms.items()):
            seen_count, seen_sum = self._last_histograms.get(name, (0, 0.0))
            delta_count = histogram.count - seen_count
            if delta_count <= 0:
                continue
            state = histogram.state(max_samples=self.max_histogram_samples)
            state["count"] = delta_count
            state["sum"] = histogram.sum - seen_sum
            doc["histograms"][name] = state
            self._last_histograms[name] = (histogram.count, histogram.sum)

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

    def _capture_audit(self, doc: dict[str, Any]) -> None:
        audit = self.audit
        if audit is None:
            return
        now = time.time()
        try:
            audits = audit.audits()
            alerts = len(audit.alerts)
        except (AttributeError, RuntimeError):
            return
        decided = [a.covered for a in audits if a.covered is not None]
        if decided:
            doc["gauges"]["audit.coverage"] = [sum(decided) / len(decided), now]
        doc["gauges"]["audit.alerts"] = [float(alerts), now]


__all__ = [
    "DEFAULT_HISTOGRAM_SAMPLES",
    "DEFAULT_SPAN_BATCH",
    "TELEMETRY_KIND",
    "TELEMETRY_VERSION",
    "TelemetryShipper",
    "empty_telemetry",
    "merge_all_telemetry",
    "merge_telemetry",
    "telemetry_from_json",
    "telemetry_size_in_bytes",
    "telemetry_to_json",
    "telemetry_to_metrics",
    "validate_telemetry",
]
