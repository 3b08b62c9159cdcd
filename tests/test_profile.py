"""Tests for ``repro.profile`` — sampling profiler + flight recorder.

Covers: the sampler's contract (disabled sampling is free, samples
attribute to the innermost tracer span and the innermost ``OBS.span``
activity), the exporters
(JSONL/collapsed/speedscope round trips, the ``top`` aggregate), the
telemetry ring's Hokusai-style aging invariants (byte bound, tick
conservation, chronology), the flight recorder's tick pipeline
(obs counter deltas + audit gauges), the monitor's
``/profile``/``/timeseries``/``/dashboard`` endpoints, and a
concurrent-scrape stress run against a live ingesting engine.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.config import SketchParameters
from repro.errors import ReproError
from repro.monitor import AUDIT
from repro.monitor.service import MonitorServer, live_source, parse_prometheus
from repro.obs import METRICS, OBS, from_jsonl, to_jsonl
from repro.profile import (
    PROFILER,
    RECORDER,
    FlightRecorder,
    SamplingProfiler,
    TelemetryFrame,
    TelemetryRing,
    aggregate_samples,
    parse_collapsed,
    profile_to_collapsed,
    profile_to_speedscope,
    render_top,
    validate_profile,
    validate_speedscope,
    validate_timeseries,
)
from repro.streams.engine import StreamEngine
from repro.streams.query import JoinCountQuery
from repro.trace import TRACER


def _make_sample(t, frames, span=None, activity=None, weight=0.01, thread=1):
    return {
        "t": t,
        "thread": thread,
        "frames": frames,
        "span": span,
        "activity": activity,
        "weight": weight,
    }


def _make_snapshot(samples):
    return {
        "version": 1,
        "kind": "repro.profile",
        "hz": 100.0,
        "dropped": 0,
        "samples": samples,
    }


SYNTHETIC = _make_snapshot(
    [
        _make_sample(0.00, ["m:main:1", "m:ingest:2"], activity="engine.ingest"),
        _make_sample(0.01, ["m:main:1", "m:ingest:2"], activity="engine.ingest"),
        _make_sample(0.02, ["m:main:1", "m:answer:3"], span="estimate.skim_join"),
        _make_sample(0.03, ["m:main:1", "m:answer:3", "m:skim:4"], span="skim"),
        _make_sample(0.04, ["m:other:9"], thread=2),
    ]
)


class TestSamplingProfiler:
    def test_disabled_sample_is_noop(self):
        profiler = SamplingProfiler(enabled=False)
        assert profiler.activity is None
        assert profiler.sample_once() == 0
        assert profiler.samples() == []

    def test_sample_once_attributes_span_and_activity(self):
        PROFILER.enable()
        with OBS.span("engine.answer"):
            TRACER.enable()
            with TRACER.span("estimate.skim_join"):
                assert PROFILER.sample_once() >= 1
        # The activity is the OBS span's name only while the span is open.
        assert PROFILER.activity is None
        ours = [
            s for s in PROFILER.samples() if s.thread_id == threading.get_ident()
        ]
        assert len(ours) == 1
        sample = ours[0]
        assert sample.span == "estimate.skim_join"
        assert sample.activity == "engine.answer"
        # The caller's own function is on the recorded stack.
        assert any("test_sample_once_attributes" in f for f in sample.frames)

    def test_max_samples_bound_counts_drops(self):
        profiler = SamplingProfiler(enabled=True, max_samples=2)
        for _ in range(4):
            profiler.sample_once()
        assert profiler.sample_count() == 2
        assert profiler.dropped >= 2
        assert profiler.snapshot()["dropped"] == profiler.dropped

    def test_daemon_collects_and_double_start_raises(self):
        profiler = SamplingProfiler(enabled=False)
        profiler.start(hz=250)
        try:
            with pytest.raises(RuntimeError):
                profiler.start()
            deadline = time.monotonic() + 5.0
            while profiler.sample_count() == 0 and time.monotonic() < deadline:
                sum(i * i for i in range(10_000))  # keep a stack alive
        finally:
            profiler.stop()
        assert profiler.sample_count() > 0
        assert not profiler.enabled
        profiler.stop()  # idempotent
        snapshot = validate_profile(profiler.snapshot())
        assert snapshot["kind"] == "repro.profile"

    def test_invalid_hz_rejected(self):
        with pytest.raises(ValueError):
            SamplingProfiler().start(hz=0)


class TestProfileExports:
    def test_jsonl_round_trip(self):
        restored = validate_profile(from_jsonl(to_jsonl(SYNTHETIC)))
        assert restored == SYNTHETIC

    def test_validate_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_profile({"version": 1, "kind": "repro.profile"})
        with pytest.raises(ValueError):
            validate_profile(_make_snapshot([{"t": 0.0}]))
        with pytest.raises(ValueError):
            validate_profile(_make_snapshot([_make_sample(0.0, [])]))
        with pytest.raises(ReproError):
            from_jsonl("")

    def test_collapsed_round_trip(self):
        collapsed = profile_to_collapsed(SYNTHETIC)
        counts = parse_collapsed(collapsed)
        assert sum(counts.values()) == len(SYNTHETIC["samples"])
        assert counts["m:main:1;m:ingest:2"] == 2
        with pytest.raises(ValueError):
            parse_collapsed("nocount\n")

    def test_speedscope_document_validates(self):
        doc = profile_to_speedscope(SYNTHETIC)
        validate_speedscope(doc)
        assert len(doc["profiles"]) == 2  # one per sampled thread
        total_weight = sum(sum(p["weights"]) for p in doc["profiles"])
        assert total_weight == pytest.approx(
            sum(s["weight"] for s in SYNTHETIC["samples"])
        )

    def test_aggregate_and_render_top(self):
        agg = aggregate_samples(SYNTHETIC)
        assert agg["samples"] == 5
        assert agg["seconds"] == pytest.approx(0.05)
        rows = {row["frame"]: row for row in agg["frames"]}
        # m:main:1 is never a leaf but is on 4 of 5 stacks.
        assert rows["m:main:1"]["self"] == 0.0
        assert rows["m:main:1"]["total"] == pytest.approx(0.04)
        assert rows["m:ingest:2"]["self"] == pytest.approx(0.02)
        assert agg["spans"]["estimate.skim_join"] == pytest.approx(0.01)
        assert agg["activities"]["engine.ingest"] == pytest.approx(0.02)
        report = render_top(agg, limit=3)
        assert "m:ingest:2" in report
        assert "span attribution" in report


class TestTelemetryFrame:
    def test_merge_sums_counts_and_weights_gauges_by_duration(self):
        a = TelemetryFrame(0.0, 1.0, {"x": 10.0}, {"g": 1.0})
        b = TelemetryFrame(1.0, 4.0, {"x": 5.0, "y": 2.0}, {"g": 5.0})
        merged = a.merge(b)
        assert merged.counts == {"x": 15.0, "y": 2.0}
        # 1 s at 1.0 and 3 s at 5.0 -> duration-weighted mean 4.0.
        assert merged.gauges["g"] == pytest.approx(4.0)
        assert (merged.t0, merged.t1) == (0.0, 4.0)
        assert merged.res == 1 and merged.merged == 2

    def test_rate_and_inverted_window(self):
        frame = TelemetryFrame(0.0, 2.0, {"x": 10.0}, {})
        assert frame.rate("x") == pytest.approx(5.0)
        assert frame.rate("missing") == 0.0
        with pytest.raises(ValueError):
            TelemetryFrame(2.0, 1.0, {}, {})


class TestTelemetryRing:
    def _push_many(self, ring, n, fat=False):
        counts = {"engine.elements.seen": 100.0}
        if fat:
            counts = {f"counter.{i}": float(i) for i in range(30)}
        for i in range(n):
            ring.push(TelemetryFrame(float(i), float(i + 1), dict(counts), {}))

    def test_aging_preserves_every_tick(self):
        ring = TelemetryRing(tier_capacity=4, tiers=3, max_bytes=1 << 20)
        self._push_many(ring, 100)
        frames = ring.frames()
        assert ring.aged > 0
        assert sum(f.merged for f in frames) == 100  # no window discarded
        assert any(f.res > 0 for f in frames)
        # Chronological, non-overlapping, coarse history first.
        for prev, cur in zip(frames, frames[1:]):
            assert cur.t0 >= prev.t1 - 1e-9

    def test_byte_budget_enforced_on_every_push(self):
        ring = TelemetryRing(tier_capacity=4, tiers=3, max_bytes=8192)
        counts = {f"counter.{i}": float(i) for i in range(30)}
        for i in range(200):
            ring.push(TelemetryFrame(float(i), float(i + 1), dict(counts), {}))
            assert ring.approx_bytes <= 8192
        assert sum(f.merged for f in ring.frames()) == 200

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TelemetryRing(tier_capacity=1)
        with pytest.raises(ValueError):
            TelemetryRing(tiers=0)
        with pytest.raises(ValueError):
            TelemetryRing(max_bytes=0)


class TestFlightRecorder:
    def test_disabled_tick_is_noop(self):
        recorder = FlightRecorder(enabled=False)
        METRICS.enable()
        METRICS.count("engine.elements.seen", 10)
        assert recorder.tick() is None
        assert recorder.frames() == []

    def test_tick_combines_counters_and_audit_state(self):
        recorder = FlightRecorder(enabled=True)
        METRICS.enable()
        METRICS.count("engine.elements.seen", 500)
        frame = recorder.tick()
        assert frame is not None
        assert frame.counts == {"engine.elements.seen": 500.0}
        assert frame.gauges["audit.alerts"] == 0.0
        # Counters are diffed: an unchanged total contributes no delta.
        second = recorder.tick()
        assert "engine.elements.seen" not in second.counts
        METRICS.count("engine.elements.seen", 7)
        third = recorder.tick()
        assert third.counts["engine.elements.seen"] == 7.0

    def test_stop_closes_final_window(self):
        recorder = FlightRecorder(enabled=False, interval=0.05)
        METRICS.enable()
        recorder.start()
        METRICS.count("engine.queries", 3)
        recorder.stop()
        assert not recorder.enabled
        frames = recorder.frames()
        assert sum(f.counts.get("engine.queries", 0.0) for f in frames) == 3.0
        recorder.stop()  # idempotent

    def test_snapshot_round_trips_as_jsonl(self):
        recorder = FlightRecorder(enabled=True)
        METRICS.enable()
        METRICS.count("engine.queries", 2)
        recorder.tick()
        snapshot = recorder.snapshot()
        validate_timeseries(snapshot)
        restored = validate_timeseries(from_jsonl(to_jsonl(snapshot)))
        assert restored["kind"] == "repro.timeseries"
        assert len(restored["frames"]) == len(snapshot["frames"])

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(interval=0.0)
        with pytest.raises(ValueError):
            FlightRecorder().start(interval=-1.0)


class TestProfiledRun:
    """A real engine run under the daemon profiler, the flight recorder
    and the tracer: samples land in the skim/join spans of real answers,
    the frames carry the ingest counter the dashboard plots, and the
    exporters keep every real sample."""

    JOIN_SPANS = ("skim", "estimate", "engine.answer")

    def _attributed(self) -> list:
        return [
            s
            for s in PROFILER.samples()
            if s.span is not None and s.span.startswith(self.JOIN_SPANS)
        ]

    def test_real_answers_are_attributed_and_recorded(self, rng):
        domain = 1 << 12
        engine = StreamEngine(
            domain, SketchParameters(width=128, depth=5), synopsis="skimmed", seed=7
        )
        for name in ("f", "g"):
            engine.register_stream(name)
        values = rng.integers(0, domain, size=20_000)
        weights = np.ones(values.size)
        METRICS.enable()
        TRACER.enable()
        RECORDER.enable()
        PROFILER.start(hz=250)
        deadline = time.monotonic() + 20.0
        try:
            while not self._attributed() and time.monotonic() < deadline:
                for name in ("f", "g"):
                    engine.process_bulk(name, values, weights)
                engine.answer(JoinCountQuery("f", "g"))
                RECORDER.tick()
        finally:
            PROFILER.stop()
        assert self._attributed(), "no sample landed in a skim/join span"
        assert any("engine.elements.seen" in f.counts for f in RECORDER.frames())
        snapshot = PROFILER.snapshot()
        assert validate_profile(from_jsonl(to_jsonl(snapshot))) == snapshot
        stacks = parse_collapsed(profile_to_collapsed(snapshot))
        assert sum(stacks.values()) == len(snapshot["samples"])
        speedscope = validate_speedscope(profile_to_speedscope(snapshot))
        exported = sum(len(p["samples"]) for p in speedscope["profiles"])
        assert exported == len(snapshot["samples"])


class TestEventsCountOnce:
    """One event is one count in every view of it.

    Frames are windows over the registry's counters and the telemetry
    envelope ships those same counters, so with the registry and the
    recorder both on, ``k`` joins read ``k`` in a frame, in the registry
    and in the shipped snapshot — never ``2k``.
    """

    K = 3

    def _joins(self, rng) -> None:
        from repro.core.estimator import SkimmedSketchSchema

        schema = SkimmedSketchSchema(64, 5, 1 << 10, seed=2)
        f, g = schema.create_sketch(), schema.create_sketch()
        f.update_bulk(rng.integers(0, 1 << 10, size=2_000))
        g.update_bulk(rng.integers(0, 1 << 10, size=2_000))
        for _ in range(self.K):
            f.est_join_size(g)

    def test_frame_counts_each_join_once(self, rng):
        from repro.profile import RECORDER

        METRICS.enable()
        RECORDER.enable()
        RECORDER.tick()
        self._joins(rng)
        frame = RECORDER.tick()
        assert METRICS.counter_value("estimate.joins") == self.K
        assert frame.counts["estimate.joins"] == self.K

    def test_shipped_counters_equal_registry_deltas(self, rng):
        from repro.federate import TelemetryShipper
        from repro.profile import RECORDER

        METRICS.enable()
        RECORDER.enable()
        shipper = TelemetryShipper("site.a")
        shipper.capture_telemetry()
        before = dict(METRICS.snapshot()["counters"])
        self._joins(rng)
        after = METRICS.snapshot()["counters"]
        deltas = {
            name: value - before.get(name, 0.0)
            for name, value in after.items()
            if value != before.get(name, 0.0)
        }
        shipped = shipper.capture_telemetry()["counters"]
        assert shipped == deltas
        assert shipped["estimate.joins"] == self.K


def _get(url: str) -> tuple[int, str, dict]:
    try:
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, resp.read().decode("utf-8"), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8"), dict(exc.headers)


def _head(url: str) -> tuple[int, bytes, dict]:
    request = urllib.request.Request(url, method="HEAD")
    with urllib.request.urlopen(request, timeout=10) as resp:
        return resp.status, resp.read(), dict(resp.headers)


class TestMonitorProfileEndpoints:
    def test_profile_timeseries_dashboard_round_trip(self):
        from repro.profile import PROFILER, RECORDER

        PROFILER.enable()
        RECORDER.enable()
        METRICS.enable()
        TRACER.enable()
        with TRACER.span("estimate.skim_join"):
            PROFILER.sample_once()
        METRICS.count("engine.elements.seen", 42)
        RECORDER.tick()
        METRICS.count("engine.elements.seen", 17)
        time.sleep(0.01)  # sparklines need two frames with real width
        RECORDER.tick()
        with MonitorServer(live_source(), port=0) as server:
            status, body, headers = _get(f"{server.url}/profile")
            assert status == 200
            profile = validate_profile(json.loads(body))
            assert profile["samples"]
            assert int(headers["Content-Length"]) == len(body.encode())

            status, body, _ = _get(f"{server.url}/timeseries")
            assert status == 200
            series = json.loads(body)
            assert series["kind"] == "repro.timeseries"
            assert series["frames"][0]["counts"]["engine.elements.seen"] == 42.0

            status, body, _ = _get(f"{server.url}/dashboard")
            assert status == 200
            assert "repro monitor" in body and "<svg" in body

    def test_head_requests_carry_length_but_no_body(self):
        with MonitorServer(live_source(), port=0) as server:
            for endpoint in ("/metrics", "/dashboard", "/profile"):
                status, body, headers = _head(f"{server.url}{endpoint}")
                assert status == 200, endpoint
                assert body == b"", endpoint
                assert int(headers["Content-Length"]) > 0, endpoint

    def test_audits_rejects_unknown_parameters(self):
        with MonitorServer(live_source(), port=0) as server:
            status, body, _ = _get(f"{server.url}/audits?bogus=1")
            assert status == 400
            assert "unknown query parameter" in body
            status, _, _ = _get(f"{server.url}/audits?n=5")
            assert status == 200


class TestConcurrentScrape:
    """N threads hammer the monitor while an engine ingests live.

    The registries are deliberately lock-free; the serving path must
    still never raise, and scraped counters must be monotone.
    """

    N_SCRAPERS = 4
    DURATION = 1.5

    def test_scrape_under_live_ingest(self, rng):
        METRICS.enable()
        AUDIT.enable()
        engine = StreamEngine(
            1 << 10,
            SketchParameters(width=64, depth=5),
            synopsis="skimmed",
            seed=3,
        )
        for name in ("f", "g"):
            engine.register_stream(name)
        # Warm every metric name once so scrapers never race a
        # first-insert resize of the unsynchronised registry dicts.
        for name in ("f", "g"):
            engine.process_bulk(name, rng.integers(0, 1 << 10, size=512))
        engine.answer(JoinCountQuery("f", "g"))

        stop = threading.Event()
        errors: list[str] = []

        def ingest():
            local = rng.integers(0, 1 << 10, size=(64, 256))
            i = 0
            while not stop.is_set():
                engine.process_bulk("f", local[i % 64])
                engine.process_bulk("g", local[(i + 7) % 64])
                engine.answer(JoinCountQuery("f", "g"))
                i += 1

        seen_counters: list[list[float]] = [[] for _ in range(self.N_SCRAPERS)]

        def scrape(slot: int):
            while not stop.is_set():
                try:
                    status, body, _ = _get(f"{server.url}/metrics")
                    if status != 200:
                        errors.append(f"scraper {slot}: /metrics {status}: {body}")
                        return
                    samples = dict(parse_prometheus(body))
                    seen_counters[slot].append(
                        samples["repro_engine_elements_seen_total"]
                    )
                    status, body, _ = _get(f"{server.url}/dashboard")
                    if status != 200 or "repro monitor" not in body:
                        errors.append(f"scraper {slot}: /dashboard {status}: {body}")
                        return
                except Exception as exc:  # noqa: BLE001 - collected for assert
                    errors.append(f"scraper {slot}: {exc!r}")
                    return

        with MonitorServer(live_source(), port=0) as server:
            threads = [threading.Thread(target=ingest, daemon=True)]
            threads += [
                threading.Thread(target=scrape, args=(slot,), daemon=True)
                for slot in range(self.N_SCRAPERS)
            ]
            for thread in threads:
                thread.start()
            time.sleep(self.DURATION)
            stop.set()
            for thread in threads:
                thread.join(timeout=10)

        assert errors == []
        for scraped in seen_counters:
            assert len(scraped) >= 1
            assert scraped == sorted(scraped), "counter went backwards"
