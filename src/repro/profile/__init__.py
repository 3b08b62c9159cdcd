"""repro.profile — continuous profiling + telemetry flight recorder.

Two complementary instruments behind the observability plane's shared
off-by-default contract:

* :data:`PROFILER` (:class:`SamplingProfiler`) — a daemon thread walking
  ``sys._current_frames()`` at a configurable Hz into a bounded sample
  ring, stamping each sample with the innermost active ``repro.trace``
  span and the hot paths' coarse activity marker.  Exporters:
  collapsed stacks (flamegraph input), speedscope JSON and a
  ``top``-style aggregate report.
* :data:`RECORDER` (:class:`FlightRecorder`) — periodic windows of
  ``repro.obs`` counter deltas, captured through the federation
  shipper's capture path (plus the audit ring's coverage/alert gauges)
  into a :class:`TelemetryRing` with Hokusai-style aging: old
  windows merge to coarser resolution so the ring holds hours of
  telemetry in a configured byte budget.  Its frames come only from
  the registry, so :func:`enable` turns ``repro.obs.METRICS`` on too.

Typical use::

    from repro.obs import write_jsonl
    from repro.profile import PROFILER, RECORDER

    PROFILER.start(hz=97)
    RECORDER.start(interval=1.0)
    ...                              # run the workload
    PROFILER.stop(); RECORDER.stop()
    write_jsonl("run.prof.jsonl", PROFILER.snapshot())
    write_jsonl("run.ts.jsonl", RECORDER.snapshot())

or let the CLIs do the wiring: ``python -m repro.eval ... --profile-out
run.prof.jsonl --timeseries-out run.ts.jsonl``, then ``python -m
repro.obs summary run.prof.jsonl`` / ``python -m repro.obs serve
--profile run.prof.jsonl`` (the ``/dashboard`` page renders both).

Neither instrument has a hot-path method: hook sites reach them through
``repro.obs.OBS`` (the span sets the profiler's activity, the registry
feeds the recorder), so both cost the hot paths the one ``OBS.enabled``
read while disabled (``tests/test_obs_overhead.py`` budgets it).
``import repro.profile`` loads **only the standard library** — no numpy
— like obs/trace/monitor.
"""

from __future__ import annotations

from ..obs import METRICS as _METRICS, OBS as _OBS
from .export import (
    PROFILE_VERSION,
    aggregate_samples,
    parse_collapsed,
    profile_to_collapsed,
    profile_to_speedscope,
    render_top,
    validate_profile,
    validate_speedscope,
)
from .recorder import (
    DEFAULT_INTERVAL,
    DEFAULT_MAX_BYTES,
    DEFAULT_TIERS,
    DEFAULT_TIER_CAPACITY,
    FlightRecorder,
    TelemetryFrame,
    TelemetryRing,
    TIMESERIES_VERSION,
    validate_timeseries,
)
from .sampler import (
    DEFAULT_HZ,
    DEFAULT_MAX_SAMPLES,
    MAX_STACK_DEPTH,
    SamplingProfiler,
    StackSample,
)

#: The process-wide sampling profiler; ``OBS.span`` sets its activity.
PROFILER = SamplingProfiler(enabled=False)

#: The process-wide flight recorder, windowing the registry's counters.
RECORDER = FlightRecorder(enabled=False)

_OBS.register(profiler=PROFILER, recorder=RECORDER)


def enable() -> None:
    """Turn on both instruments and the metrics registry the recorder
    reads (sampling threads not started)."""
    _METRICS.enable()
    PROFILER.enable()
    RECORDER.enable()


def disable() -> None:
    """Turn off both instruments (retained data kept)."""
    PROFILER.disable()
    RECORDER.disable()


def is_enabled() -> bool:
    """Whether either instrument is currently recording."""
    return PROFILER.enabled or RECORDER.enabled


def reset() -> None:
    """Drop all samples and frames in both instruments (flags kept)."""
    PROFILER.reset()
    RECORDER.reset()


__all__ = [
    "DEFAULT_HZ",
    "DEFAULT_INTERVAL",
    "DEFAULT_MAX_BYTES",
    "DEFAULT_MAX_SAMPLES",
    "DEFAULT_TIERS",
    "DEFAULT_TIER_CAPACITY",
    "FlightRecorder",
    "MAX_STACK_DEPTH",
    "PROFILER",
    "PROFILE_VERSION",
    "RECORDER",
    "SamplingProfiler",
    "StackSample",
    "TIMESERIES_VERSION",
    "TelemetryFrame",
    "TelemetryRing",
    "aggregate_samples",
    "disable",
    "enable",
    "is_enabled",
    "parse_collapsed",
    "profile_to_collapsed",
    "profile_to_speedscope",
    "render_top",
    "reset",
    "validate_profile",
    "validate_speedscope",
    "validate_timeseries",
]
