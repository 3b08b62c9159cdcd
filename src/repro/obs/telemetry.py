"""The telemetry document: the one wire format that carries metrics.

Every metrics capture in the repo is one versioned JSON envelope — a
``--metrics-out`` file, the monitor's ``/snapshot``, ``python -m
repro.federate run``'s ``metrics.json``, and the delta a site piggybacks
on its sketch reports (the paper's deployment, §1, is many sites and one
coordinator).  Schema (version 2)::

    {
      "version": 2,
      "kind": "repro.telemetry",
      "origin": "site.edge-0",          # who captured this
      "seq": 3,                          # capture sequence at the origin
      "counters": {name: value},
      "gauges": {name: [value, ts]},     # wall-clock write timestamps
      "histograms": {name: {"count", "sum", "min", "max", "samples"}},
      "spans": [span records],           # bounded batch, origin-local ids
      "spans_dropped": 0,
    }

A capture is either **cumulative** (:meth:`MetricsRegistry.snapshot`:
every metric, full totals, the whole histogram reservoir, so quantiles
are the registry's own) or a **delta** since a :class:`RegistryCursor`
(the shipper's and the flight recorder's windows).  Both come from
:func:`capture_metrics`, the one capture path (the flight recorder,
whose frames keep no histograms, runs only its counter/gauge half,
:func:`capture_scalars`).

JSON has no NaN or infinity: :func:`telemetry_to_json` writes a
non-finite float as its ``repr`` string (``"nan"``, ``"inf"``,
``"-inf"``) and :func:`telemetry_from_json` turns those strings back into
floats inside the metric sections, so the bytes parse under any strict
JSON reader.

The rest of the module is the document's algebra: validation, merge
(counters sum, gauges take the last write by timestamp, histograms add
count/sum and combine bounded reservoirs, span batches concatenate),
Prometheus text exposition (optionally labelled per origin), and diff.
Standard library only, like the rest of ``repro.obs``.
"""

from __future__ import annotations

import json
import math
from typing import Any, Iterable, Mapping

#: Telemetry envelope schema version.
TELEMETRY_VERSION = 2

#: The envelope ``kind`` discriminator.
TELEMETRY_KIND = "repro.telemetry"

#: Default cap on reservoir samples per histogram in a shipped delta.
DEFAULT_HISTOGRAM_SAMPLES = 64

_SPAN_FIELDS = ("name", "id", "parent", "start", "end", "attrs")
_HISTOGRAM_FIELDS = ("count", "sum", "min", "max", "samples")

#: ``repr`` of the non-finite floats: their spelling on the wire.
_NONFINITE = frozenset({"nan", "inf", "-inf"})


def empty_telemetry(origin: str, seq: int = 0) -> dict[str, Any]:
    """A structurally valid document carrying nothing."""
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


# -- validation -------------------------------------------------------------


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_nonfinite(value: Any) -> bool:
    return isinstance(value, float) and not math.isfinite(value)


def _section(doc: dict[str, Any], name: str) -> dict[str, Any]:
    entries = doc.get(name)
    if not isinstance(entries, dict):
        raise ValueError(f"section {name!r} missing or not a dict")
    for key in entries:
        if not isinstance(key, str) or not key:
            raise ValueError(f"bad metric name {key!r} in {name}")
    return entries


def validate_telemetry(snapshot: Any) -> dict[str, Any]:
    """Check a document against the schema; returns it unchanged.

    Raises ``ValueError`` naming the first violation — and nothing else,
    whatever JSON value it is given.  Booleans are not numbers here.
    Span parent references may point *outside* the batch (a parent
    still open at capture time ships in a later batch; the importer
    re-parents those), so only span id uniqueness is required.
    """
    if not isinstance(snapshot, dict):
        raise ValueError(f"telemetry must be a dict, got {type(snapshot).__name__}")
    version = snapshot.get("version")
    if not _is_int(version) or version != TELEMETRY_VERSION:
        raise ValueError(
            f"unsupported telemetry version {version!r} (expected {TELEMETRY_VERSION})"
        )
    if snapshot.get("kind") != TELEMETRY_KIND:
        raise ValueError(f"unexpected telemetry kind {snapshot.get('kind')!r}")
    origin = snapshot.get("origin")
    if not isinstance(origin, str) or not origin:
        raise ValueError(f"'origin' must be a non-empty string, got {origin!r}")
    for field in ("seq", "spans_dropped"):
        value = snapshot.get(field)
        if not _is_int(value) or value < 0:
            raise ValueError(f"{field!r} must be a non-negative int, got {value!r}")
    for name, value in _section(snapshot, "counters").items():
        if not _is_number(value):
            raise ValueError(f"counters[{name!r}] is not numeric: {value!r}")
    for name, pair in _section(snapshot, "gauges").items():
        if not (
            isinstance(pair, (list, tuple))
            and len(pair) == 2
            and all(map(_is_number, pair))
        ):
            raise ValueError(
                f"gauges[{name!r}] must be a [value, timestamp] pair, got {pair!r}"
            )
    for name, state in _section(snapshot, "histograms").items():
        if not isinstance(state, dict):
            raise ValueError(f"histograms[{name!r}] must be a dict")
        missing = [f for f in _HISTOGRAM_FIELDS if f not in state]
        if missing:
            raise ValueError(f"histograms[{name!r}] missing fields {missing}")
        if not _is_int(state["count"]) or state["count"] < 0:
            raise ValueError(
                f"histograms[{name!r}]['count'] must be a non-negative int"
            )
        for field in ("sum", "min", "max"):
            if not _is_number(state[field]):
                raise ValueError(f"histograms[{name!r}][{field!r}] is not numeric")
        samples = state["samples"]
        if not isinstance(samples, list) or not all(map(_is_number, samples)):
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
        if not _is_int(span["id"]) or span["id"] < 1:
            raise ValueError(f"spans[{index}]['id'] must be a positive int")
        if span["id"] in seen_ids:
            raise ValueError(f"spans[{index}] reuses span id {span['id']}")
        seen_ids.add(span["id"])
        parent = span["parent"]
        if parent is not None and (not _is_int(parent) or parent < 1):
            raise ValueError(f"spans[{index}]['parent'] must be null or a positive int")
        times = (span["start"], span["end"])
        if not all(_is_number(t) and not _is_nonfinite(t) for t in times):
            raise ValueError(f"spans[{index}] start/end must be finite numbers")
        if span["end"] < span["start"]:
            raise ValueError(f"spans[{index}] ends before it starts")
        if not isinstance(span["attrs"], dict):
            raise ValueError(f"spans[{index}]['attrs'] must be a dict")
    return snapshot


# -- JSON -------------------------------------------------------------------


def _jsonable(value: Any) -> Any:
    """``value`` with every non-finite float replaced by its ``repr``."""
    if _is_nonfinite(value):
        return repr(value)
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def _restored(value: Any) -> Any:
    """Undo :func:`_jsonable` inside one metric value."""
    if isinstance(value, str) and value in _NONFINITE:
        return float(value)
    if isinstance(value, list):
        return [_restored(item) for item in value]
    if isinstance(value, dict):
        return {key: _restored(item) for key, item in value.items()}
    return value


def telemetry_to_json(snapshot: Mapping[str, Any]) -> str:
    """Serialise a document compactly (the wire bytes); strict JSON."""
    return json.dumps(
        _jsonable(snapshot), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def telemetry_from_json(text: str) -> dict[str, Any]:
    """Parse and validate a document (inverse of :func:`telemetry_to_json`)."""
    doc = json.loads(text)
    if isinstance(doc, dict):
        for section in ("counters", "gauges", "histograms"):
            if isinstance(doc.get(section), dict):
                doc[section] = _restored(doc[section])
    return validate_telemetry(doc)


def read_telemetry(path: str) -> dict[str, Any]:
    """Load and validate a document file."""
    with open(path, encoding="utf-8") as fh:
        return telemetry_from_json(fh.read())


def write_telemetry(path: str, snapshot: Mapping[str, Any]) -> None:
    """Write a document to ``path`` (the ``--metrics-out`` format)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(telemetry_to_json(snapshot) + "\n")


def telemetry_size_in_bytes(snapshot: Mapping[str, Any]) -> int:
    """Wire size of a document — the federation overhead the
    ``federate.overhead`` bench scenario budgets against report payloads."""
    return len(telemetry_to_json(snapshot).encode("utf-8"))


# -- capture ----------------------------------------------------------------


class RegistryCursor:
    """What one reader has already taken from a registry.

    Counter totals and histogram ``(count, sum)`` at the last capture,
    plus the registry ``generation`` they belong to: a ``reset()`` bumps
    the generation, which restarts the marks instead of turning the next
    capture into negative deltas.
    """

    __slots__ = ("generation", "counters", "histograms")

    def __init__(self) -> None:
        self.generation: int | None = None
        self.counters: dict[str, float] = {}
        self.histograms: dict[str, tuple[int, float]] = {}


def _restart_if_reset(registry: Any, cursor: RegistryCursor | None) -> None:
    if cursor is not None and cursor.generation != registry.generation:
        cursor.generation = registry.generation
        cursor.counters = {}
        cursor.histograms = {}


def capture_scalars(
    registry: Any, doc: dict[str, Any], cursor: RegistryCursor | None = None
) -> dict[str, Any]:
    """Fill ``doc``'s counters and gauges from ``registry``.

    Without a cursor the counters are cumulative totals; with one they
    are the deltas since the cursor's last capture (idle counters are
    left out) and the cursor advances.  The flight recorder's frames
    carry no histograms, so its ticks stop here.  Each section is copied
    with one ``dict()`` call, atomic under the GIL, so a hot path
    inserting a metric mid-capture cannot break the iteration.  Returns
    ``doc``.
    """
    counters = dict(registry._counters)
    gauges = dict(registry._gauges)
    _restart_if_reset(registry, cursor)
    for name, counter in sorted(counters.items()):
        total = counter.value
        if cursor is None:
            doc["counters"][name] = total
            continue
        delta = total - cursor.counters.get(name, 0.0)
        cursor.counters[name] = total
        if delta:
            doc["counters"][name] = delta
    for name, gauge in sorted(gauges.items()):
        doc["gauges"][name] = [gauge.value, gauge.ts]
    return doc


def capture_metrics(
    registry: Any,
    doc: dict[str, Any],
    cursor: RegistryCursor | None = None,
    max_samples: int | None = None,
) -> dict[str, Any]:
    """:func:`capture_scalars` plus the histograms: the whole capture.

    Without a cursor each histogram ships its cumulative state; with one
    only the histograms recorded into since the cursor's last capture
    ship, their ``count``/``sum`` as deltas.  ``max_samples`` bounds each
    shipped reservoir.  Returns ``doc``.
    """
    capture_scalars(registry, doc, cursor)
    histograms = dict(registry._histograms)
    _restart_if_reset(registry, cursor)
    for name, histogram in sorted(histograms.items()):
        if cursor is None:
            doc["histograms"][name] = histogram.state(max_samples)
            continue
        seen_count, seen_sum = cursor.histograms.get(name, (0, 0.0))
        if histogram.count <= seen_count:
            continue
        state = histogram.state(max_samples)
        cursor.histograms[name] = (state["count"], state["sum"])
        state["count"] -= seen_count
        state["sum"] -= seen_sum
        doc["histograms"][name] = state
    return doc


# -- merge ------------------------------------------------------------------


def _merge_gauges(a: Mapping[str, Any], b: Mapping[str, Any]) -> dict[str, list[float]]:
    out = {name: list(pair) for name, pair in a.items()}
    for name, pair in b.items():
        held = out.get(name)
        # Last write by timestamp; ties break on value so the pick stays
        # order-independent.
        if held is None or (pair[1], pair[0]) > (held[1], held[0]):
            out[name] = list(pair)
    return out


def thin_samples(samples: list[float], max_samples: int | None) -> list[float]:
    """An evenly strided excerpt of sorted ``samples`` (spread kept)."""
    if max_samples is None or len(samples) <= max_samples:
        return samples
    step = len(samples) / max_samples
    return [samples[int(i * step)] for i in range(max_samples)]


def _merge_histograms(
    a: Mapping[str, Any], b: Mapping[str, Any], max_samples: int
) -> dict[str, dict[str, Any]]:
    out = {
        name: dict(state, samples=list(state["samples"]))
        for name, state in a.items()
    }
    for name, state in b.items():
        held = out.get(name)
        if not state["count"] and held is not None:
            continue
        if held is None or not held["count"]:
            out[name] = dict(state, samples=list(state["samples"]))
        else:
            out[name] = {
                "count": held["count"] + state["count"],
                "sum": held["sum"] + state["sum"],
                "min": min(held["min"], state["min"]),
                "max": max(held["max"], state["max"]),
                "samples": thin_samples(
                    sorted(held["samples"] + state["samples"]), max_samples
                ),
            }
    return out


def _merge_spans(a: Mapping[str, Any], b: Mapping[str, Any]) -> list[dict[str, Any]]:
    """Combine two span batches, remapping ids into one id space.

    Batches are ordered by origin name so the combined list — and the
    id assignment — is independent of argument order.  Parent links are
    remapped within each batch; references outside a batch become null
    (the live importer re-parents those under its own anchor instead).
    """
    batches = sorted(
        [(a["origin"], a["spans"]), (b["origin"], b["spans"])], key=lambda p: p[0]
    )
    out: list[dict[str, Any]] = []
    next_id = 1
    for batch_origin, spans in batches:
        id_map = {span["id"]: next_id + i for i, span in enumerate(spans)}
        next_id += len(spans)
        for span in spans:
            record = dict(span)
            record["id"] = id_map[span["id"]]
            parent = span["parent"]
            record["parent"] = id_map.get(parent) if parent is not None else None
            record["attrs"] = dict(span["attrs"])
            record["attrs"].setdefault("origin", batch_origin)
            out.append(record)
    return out


def merge_telemetry(
    a: Mapping[str, Any],
    b: Mapping[str, Any],
    max_histogram_samples: int = DEFAULT_HISTOGRAM_SAMPLES,
) -> dict[str, Any]:
    """Merge two documents into one (pure; inputs untouched).

    Counters **sum** — commutative and associative, so a coordinator can
    fold successive or sibling documents in any order (``python -m
    repro.federate selfcheck`` proves it, the hypothesis suite fuzzes
    it).  Gauges take the last write by timestamp; histograms add
    count/sum and combine bounded reservoirs; span batches concatenate
    with ids remapped and per-span ``origin=`` attribution preserved.
    The merged ``origin`` joins the two names with ``+`` (sorted) when
    they differ.
    """
    a = validate_telemetry(dict(a))
    b = validate_telemetry(dict(b))
    origin = "+".join(sorted({a["origin"], b["origin"]}))
    counters = dict(a["counters"])
    for name, value in b["counters"].items():
        counters[name] = counters.get(name, 0) + value
    return {
        "version": TELEMETRY_VERSION,
        "kind": TELEMETRY_KIND,
        "origin": origin,
        "seq": max(a["seq"], b["seq"]),
        "counters": counters,
        "gauges": _merge_gauges(a["gauges"], b["gauges"]),
        "histograms": _merge_histograms(
            a["histograms"], b["histograms"], max_histogram_samples
        ),
        "spans": _merge_spans(a, b),
        "spans_dropped": a["spans_dropped"] + b["spans_dropped"],
    }


def merge_all_telemetry(snapshots: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Left-fold :func:`merge_telemetry` over any number of documents."""
    merged: dict[str, Any] | None = None
    for snapshot in snapshots:
        doc = validate_telemetry(dict(snapshot))
        merged = doc if merged is None else merge_telemetry(merged, doc)
    if merged is None:
        raise ValueError("nothing to merge (no snapshots given)")
    return merged


# -- Prometheus exposition --------------------------------------------------

#: Summary quantiles rendered per histogram.
_QUANTILES = ("0.5", "0.95", "0.99")


def quantile(ordered: list[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 <= q <= 1``) of sorted samples,
    0.0 when there are none: the one quantile rule for histogram
    reservoirs (exposition and diff)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, round(q * (len(ordered) - 1))))
    return float(ordered[rank])


def _prom_name(name: str) -> str:
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


def _prom_value(value: float) -> str:
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


def escape_label(value: str) -> str:
    """A Prometheus label value with ``\\``, ``"`` and newlines escaped."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def prometheus_families(
    labelled: Iterable[tuple[str | None, Mapping[str, Any]]], prefix: str = "repro"
) -> dict[str, tuple[str, str, list[str]]]:
    """Exposition families for ``(origin, document)`` pairs.

    Returns ``family -> (type, metric name, sample lines)`` in first-seen
    order: counters as ``*_total``, gauges verbatim, histograms as
    summaries (quantiles from the shipped samples, ``_sum``, ``_count``).
    A non-``None`` origin labels every sample ``origin="..."``.  The same
    metric seen at several origins shares one family; two metric names
    that sanitise to one family raise ``ValueError`` — a duplicated
    ``# TYPE`` is invalid exposition text.
    """
    families: dict[str, tuple[str, str, list[str]]] = {}

    def emit(family: str, kind: str, name: str, lines: list[str]) -> None:
        held = families.setdefault(family, (kind, name, []))
        if held[:2] != (kind, name):
            raise ValueError(
                f"metric names {held[1]!r} and {name!r} both sanitise "
                f"to exposition family {family!r}"
            )
        held[2].extend(lines)

    for origin, doc in labelled:
        doc = validate_telemetry(doc)
        label = "" if origin is None else f'origin="{escape_label(origin)}"'

        def sample(name: str, value: str, extra: str = "") -> str:
            labels = ",".join(part for part in (label, extra) if part)
            return f"{name}{{{labels}}} {value}" if labels else f"{name} {value}"

        for name, value in doc["counters"].items():
            family = f"{prefix}_{_prom_name(name)}_total"
            emit(family, "counter", name, [sample(family, _prom_value(value))])
        for name, pair in doc["gauges"].items():
            family = f"{prefix}_{_prom_name(name)}"
            emit(family, "gauge", name, [sample(family, _prom_value(pair[0]))])
        for name, state in doc["histograms"].items():
            family = f"{prefix}_{_prom_name(name)}"
            ordered = sorted(state["samples"])
            lines = [
                sample(
                    family,
                    _prom_value(quantile(ordered, float(q))),
                    f'quantile="{q}"',
                )
                for q in _QUANTILES
            ]
            lines.append(sample(f"{family}_sum", _prom_value(state["sum"])))
            lines.append(sample(f"{family}_count", str(state["count"])))
            emit(family, "summary", name, lines)
    return families


def render_families(
    families: Iterable[tuple[str, tuple[str, str, list[str]]]],
) -> list[str]:
    """Exposition lines for ``(family, (type, name, samples))`` items."""
    lines: list[str] = []
    for family, (kind, _name, samples) in families:
        lines.append(f"# TYPE {family} {kind}")
        lines.extend(samples)
    return lines


def snapshot_to_prometheus(snapshot: Mapping[str, Any], prefix: str = "repro") -> str:
    """Render one document in the Prometheus text exposition format,
    families in document order (the federated monitor labels and sorts
    them through :func:`prometheus_families` instead)."""
    families = prometheus_families([(None, snapshot)], prefix)
    return "\n".join(render_families(families.items())) + "\n"


# -- diff -------------------------------------------------------------------


def _distribution(state: Mapping[str, Any]) -> dict[str, float]:
    ordered = sorted(state["samples"])
    count = state["count"]
    return {
        "mean": state["sum"] / count if count else 0.0,
        "p50": quantile(ordered, 0.5),
        "p95": quantile(ordered, 0.95),
        "p99": quantile(ordered, 0.99),
    }


def diff_snapshots(old: Mapping[str, Any], new: Mapping[str, Any]) -> dict[str, Any]:
    """Delta of two documents (``new`` relative to ``old``).

    Counters are *subtracted* (a metric absent from one side counts as
    zero, so freshly appearing counters show their full value and
    vanished ones go negative — both worth seeing in a diff).  Gauges
    report old/new/delta of their level.  Histograms report the event
    ``count`` and ``sum`` deltas plus the distribution (mean/p50/p95/p99)
    side by side — quantiles are not subtractable, so the comparison is
    the honest operation.
    """
    old = validate_telemetry(old)
    new = validate_telemetry(new)
    out: dict[str, Any] = {
        "version": TELEMETRY_VERSION,
        "kind": "repro.obs-diff",
        "counters": {},
        "gauges": {},
        "histograms": {},
    }
    for name in sorted(set(old["counters"]) | set(new["counters"])):
        before = float(old["counters"].get(name, 0.0))
        after = float(new["counters"].get(name, 0.0))
        out["counters"][name] = {"old": before, "new": after, "delta": after - before}
    for name in sorted(set(old["gauges"]) | set(new["gauges"])):
        entry: dict[str, Any] = {}
        if name in old["gauges"]:
            entry["old"] = float(old["gauges"][name][0])
        if name in new["gauges"]:
            entry["new"] = float(new["gauges"][name][0])
        if "old" in entry and "new" in entry:
            entry["delta"] = entry["new"] - entry["old"]
        out["gauges"][name] = entry
    for name in sorted(set(old["histograms"]) | set(new["histograms"])):
        before_h = old["histograms"].get(name)
        after_h = new["histograms"].get(name)
        entry = {}
        if before_h is not None and after_h is not None:
            entry["count_delta"] = after_h["count"] - before_h["count"]
            entry["sum_delta"] = float(after_h["sum"]) - float(before_h["sum"])
        dist_old = _distribution(before_h) if before_h else {}
        dist_new = _distribution(after_h) if after_h else {}
        for field in ("mean", "p50", "p95", "p99"):
            entry[field] = {"old": dist_old.get(field), "new": dist_new.get(field)}
        out["histograms"][name] = entry
    return out


def render_diff(diff: Mapping[str, Any]) -> str:
    """Human-readable rendering of a :func:`diff_snapshots` result."""
    lines: list[str] = []
    if diff["counters"]:
        lines.append("counters:")
        for name, entry in diff["counters"].items():
            lines.append(
                f"  {name}: {entry['old']:g} -> {entry['new']:g} ({entry['delta']:+g})"
            )
    if diff["gauges"]:
        lines.append("gauges:")
        for name, entry in diff["gauges"].items():
            old_s = f"{entry['old']:g}" if "old" in entry else "-"
            new_s = f"{entry['new']:g}" if "new" in entry else "-"
            delta_s = f" ({entry['delta']:+g})" if "delta" in entry else ""
            lines.append(f"  {name}: {old_s} -> {new_s}{delta_s}")
    if diff["histograms"]:
        lines.append("histograms:")
        for name, entry in diff["histograms"].items():
            lines.append(f"  {name}:")
            if "count_delta" in entry:
                lines.append(
                    f"    events: {entry['count_delta']:+d}, "
                    f"sum: {entry['sum_delta']:+g}"
                )
            for field in ("mean", "p50", "p95", "p99"):
                old_v, new_v = entry[field]["old"], entry[field]["new"]
                old_s = f"{old_v:g}" if old_v is not None else "-"
                new_s = f"{new_v:g}" if new_v is not None else "-"
                lines.append(f"    {field}: {old_s} -> {new_s}")
    if not lines:
        lines.append("(both snapshots empty)")
    return "\n".join(lines)
