"""repro.obs — dependency-free observability for the sketching library.

One process-wide :class:`MetricsRegistry` (``METRICS``) collects
counters, gauges and latency histograms from instrumentation hooks wired
through the hot paths — sketch updates, SKIMDENSE passes, join
estimation, the stream engine, and the distributed sketch protocol.
Recording is **off by default**; every hook is guarded by a single
``OBS.enabled`` attribute read (:mod:`repro.obs.switch` — one switch for
the registry, the tracer, the profiler and the flight recorder), so
disabled instrumentation is free for all practical purposes (see
``tests/test_obs_overhead.py``).

Typical use::

    from repro.obs import METRICS, telemetry_to_json

    METRICS.enable()
    ...  # run sketches / engine / coordinator
    print(telemetry_to_json(METRICS.snapshot()))

or scoped::

    from repro.obs import capturing

    with capturing() as registry:
        ...
    snap = registry.snapshot()

This package imports **only the standard library** (no numpy) so it can
ride along in the thinnest collection agent; the test suite enforces
that.  Every capture is a telemetry document (:mod:`repro.obs.telemetry`
— schema, JSON, merge, Prometheus exposition, diff); ``python -m
repro.obs validate|diff|merge`` works on those files.  The metric
catalogue the library emits is documented in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from .registry import Counter, Gauge, Histogram, MetricsRegistry, Timer
from .switch import OBS, Sink, Switch
from .telemetry import (
    DEFAULT_HISTOGRAM_SAMPLES,
    TELEMETRY_KIND,
    TELEMETRY_VERSION,
    RegistryCursor,
    capture_metrics,
    capture_scalars,
    diff_snapshots,
    empty_telemetry,
    merge_all_telemetry,
    merge_telemetry,
    quantile,
    read_telemetry,
    render_diff,
    snapshot_to_prometheus,
    telemetry_from_json,
    telemetry_size_in_bytes,
    telemetry_to_json,
    validate_telemetry,
    write_telemetry,
)

#: The process-wide registry every built-in instrumentation hook records to.
METRICS = MetricsRegistry(enabled=False)
OBS.register(metrics=METRICS)


def enable() -> None:
    """Turn on recording into the global registry."""
    METRICS.enable()


def disable() -> None:
    """Turn off recording into the global registry (values are kept)."""
    METRICS.disable()


def is_enabled() -> bool:
    """Whether the global registry is currently recording."""
    return METRICS.enabled


def snapshot() -> dict:
    """Cumulative telemetry document of the global registry."""
    return METRICS.snapshot()


def reset() -> None:
    """Clear all metrics in the global registry."""
    METRICS.reset()


@contextmanager
def capturing(fresh: bool = True) -> Iterator[MetricsRegistry]:
    """Enable the global registry within a ``with`` block.

    ``fresh=True`` (default) resets the registry on entry so the captured
    snapshot reflects only the block.  On exit the previous enabled state
    is restored; recorded values are kept for inspection.
    """
    was_enabled = METRICS.enabled
    if fresh:
        METRICS.reset()
    METRICS.enable()
    try:
        yield METRICS
    finally:
        METRICS.enabled = was_enabled


__all__ = [
    "Counter",
    "DEFAULT_HISTOGRAM_SAMPLES",
    "Gauge",
    "Histogram",
    "METRICS",
    "MetricsRegistry",
    "OBS",
    "RegistryCursor",
    "Sink",
    "Switch",
    "TELEMETRY_KIND",
    "TELEMETRY_VERSION",
    "Timer",
    "capture_metrics",
    "capture_scalars",
    "capturing",
    "diff_snapshots",
    "disable",
    "empty_telemetry",
    "enable",
    "is_enabled",
    "merge_all_telemetry",
    "merge_telemetry",
    "quantile",
    "read_telemetry",
    "render_diff",
    "reset",
    "snapshot",
    "snapshot_to_prometheus",
    "telemetry_from_json",
    "telemetry_size_in_bytes",
    "telemetry_to_json",
    "validate_telemetry",
    "write_telemetry",
]
