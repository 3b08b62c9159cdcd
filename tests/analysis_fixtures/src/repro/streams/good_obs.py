"""R3 fixture (clean): the one-switch guard shapes hook sites use."""

from contextlib import nullcontext

from ..obs import METRICS as _METRICS, OBS as _OBS
from ..profile import PROFILER as _PROFILER
from ..trace import TRACER as _TRACER


def ingest(engine, stream, values):
    if _OBS.enabled:
        _METRICS.count("engine.elements.seen", len(values))
        _TRACER.instant("engine.batch", elements=len(values))
    with _OBS.span("engine.ingest", stream=stream) if _OBS.enabled else nullcontext() as sp:
        engine.update_bulk(values)
        if sp is not None:
            sp.set(kept=len(values))


def close_round(site, shipper):
    reports = site.build_reports()
    if not _OBS.enabled:
        return reports
    _METRICS.count("dist.rounds.closed")
    reports[0].telemetry = shipper.capture_telemetry()
    return reports


def shutdown():
    # Lifecycle calls on the profiler need no guard.
    _PROFILER.stop()
