"""Tests for ``repro.obs.OBS`` — the one switch and the one span.

``OBS.enabled`` must equal "any of METRICS/TRACER/PROFILER/RECORDER is
on" however the flags were set, private sinks must never move it, and
``OBS.span`` must feed the tracer, the ``<name>.seconds`` histogram and
the profiler's activity from one call.
"""

from __future__ import annotations

import itertools

import pytest

from repro import obs, trace
from repro.obs import METRICS, OBS, MetricsRegistry
from repro.profile import PROFILER, RECORDER, FlightRecorder, SamplingProfiler
from repro.trace import TRACER, SpanTracer

SINKS = (METRICS, TRACER, PROFILER, RECORDER)
COMBOS = list(itertools.product((False, True), repeat=len(SINKS)))


def _by_methods(flags) -> None:
    for sink, on in zip(SINKS, flags):
        sink.enable() if on else sink.disable()


def _by_assignment(flags) -> None:
    for sink, on in zip(SINKS, flags):
        sink.enabled = on


@pytest.mark.parametrize("flags", COMBOS, ids=lambda f: "".join("01"[x] for x in f))
@pytest.mark.parametrize("setter", [_by_methods, _by_assignment])
def test_switch_tracks_any_sink(flags, setter):
    # Start from the opposite state so every flag actually flips.
    setter(tuple(not on for on in flags))
    setter(flags)
    assert OBS.enabled == any(flags)
    assert [sink.enabled for sink in SINKS] == list(flags)


@pytest.mark.parametrize("flags", COMBOS, ids=lambda f: "".join("01"[x] for x in f))
def test_nested_capturing_restores_the_switch(flags):
    _by_methods(flags)
    with obs.capturing():
        assert OBS.enabled
        with trace.capturing():
            assert OBS.enabled
        assert OBS.enabled
    assert OBS.enabled == any(flags)
    assert [sink.enabled for sink in SINKS] == list(flags)


def test_private_sinks_never_move_the_switch():
    private = [
        MetricsRegistry(enabled=True),
        SpanTracer(enabled=True),
        SamplingProfiler(enabled=True),
        FlightRecorder(enabled=True),
    ]
    assert not OBS.enabled
    for sink in private:
        sink.disable()
        sink.enable()
        sink.enabled = True
    assert not OBS.enabled


def test_span_feeds_tracer_histogram_and_activity():
    METRICS.enable()
    TRACER.enable()
    with OBS.span("engine.answer", query="q") as outer:
        assert PROFILER.activity == "engine.answer"
        with OBS.span("skim") as inner:
            assert PROFILER.activity == "skim"
        assert PROFILER.activity == "engine.answer"
    assert PROFILER.activity is None
    assert outer is not None and outer.attributes == {"query": "q"}
    assert inner.parent_id == outer.span_id
    histograms = METRICS.snapshot()["histograms"]
    assert histograms["engine.answer.seconds"]["count"] == 1
    assert histograms["skim.seconds"]["count"] == 1


def test_span_without_tracer_yields_none_and_still_times():
    METRICS.enable()
    with OBS.span("engine.ingest") as sp:
        assert sp is None
    assert TRACER.span_count() == 0
    assert METRICS.snapshot()["histograms"]["engine.ingest.seconds"]["count"] == 1


def test_span_restores_activity_on_error():
    PROFILER.enable()
    with pytest.raises(RuntimeError):
        with OBS.span("engine.answer"):
            raise RuntimeError("boom")
    assert PROFILER.activity is None
