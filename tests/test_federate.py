"""Tests for ``repro.federate`` — the cross-process telemetry plane.

Covers: the telemetry document (``repro.obs.telemetry``: validate / JSON
round-trip, the one ``repro.obs`` CLI), the shipper's
delta capture and reset detection, the merge algebra (hypothesis
property tests on integer counters), registry / tracer import
operations, per-origin Perfetto lanes, the multi-source federation
scraper with its Prometheus exposition and topology document, the
monitor server's federated endpoints, the CLI, and the three-site
end-to-end acceptance run (origin-labelled coordinator metrics, a
single stitched trace, trace-context propagation).
"""

from __future__ import annotations

import json
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimator import SkimmedSketchSchema
from repro.distributed import (
    SketchCoordinator,
    SketchReport,
    SketchSite,
    TraceContext,
)
from repro.federate import (
    FederatedSource,
    TelemetryShipper,
    federation_from_args,
)
from repro.federate.__main__ import main as federate_main
from repro.monitor.service import MonitorServer, parse_prometheus
from repro.obs import (
    METRICS,
    TELEMETRY_KIND,
    TELEMETRY_VERSION,
    empty_telemetry,
    merge_all_telemetry,
    merge_telemetry,
    telemetry_from_json,
    telemetry_size_in_bytes,
    telemetry_to_json,
    validate_telemetry,
)
from repro.obs.__main__ import main as obs_main
from repro.obs.registry import MetricsRegistry
from repro.trace import TRACER
from repro.trace.export import trace_origins, trace_to_chrome
from repro.trace.tracer import SpanTracer

DOMAIN = 1 << 10


def make_schema(seed=0):
    return SkimmedSketchSchema(64, 5, DOMAIN, seed=seed)


def fresh_pair() -> tuple[MetricsRegistry, SpanTracer]:
    """A private, enabled registry + tracer (no global singleton state)."""
    return MetricsRegistry(enabled=True), SpanTracer(enabled=True)


def snapshot_for(origin: str, counters: dict[str, int], seq: int = 0) -> dict:
    doc = empty_telemetry(origin, seq)
    doc["counters"] = {k: float(v) for k, v in counters.items()}
    return doc


# ---------------------------------------------------------------------------
# wire schema
# ---------------------------------------------------------------------------


class TestWireSchema:
    def test_empty_snapshot_validates(self):
        doc = empty_telemetry("site.a")
        assert validate_telemetry(doc) is doc
        assert doc["version"] == TELEMETRY_VERSION
        assert doc["kind"] == TELEMETRY_KIND

    def test_json_round_trip_is_identity(self):
        registry, tracer = fresh_pair()
        registry.count("a.updates", 3)
        registry.gauge("a.level", 7.5)
        registry.observe("a.lat", 0.25)
        with tracer.span("round", site="a"):
            tracer.instant("mark")
        shipper = TelemetryShipper(
            "site.a", registry=registry, tracer=tracer, audit=None
        )
        doc = shipper.capture_telemetry()
        assert telemetry_from_json(telemetry_to_json(doc)) == doc

    def test_size_matches_compact_encoding(self):
        doc = empty_telemetry("site.a")
        assert telemetry_size_in_bytes(doc) == len(
            json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        )

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("version"),
            lambda d: d.__setitem__("version", 99),
            lambda d: d.__setitem__("kind", "bogus"),
            lambda d: d.__setitem__("origin", ""),
            lambda d: d.__setitem__("counters", [1, 2]),
            lambda d: d.__setitem__("gauges", {"g": [1.0]}),
            lambda d: d.__setitem__("spans", [{"id": 1}, {"id": 1}]),
        ],
    )
    def test_malformed_documents_rejected(self, mutate):
        doc = empty_telemetry("site.a")
        mutate(doc)
        with pytest.raises(ValueError):
            validate_telemetry(doc)



# ---------------------------------------------------------------------------
# shipper capture semantics
# ---------------------------------------------------------------------------


class TestShipperCapture:
    def test_counters_ship_as_deltas(self):
        registry, tracer = fresh_pair()
        shipper = TelemetryShipper(
            "o", registry=registry, tracer=tracer, audit=None
        )
        registry.count("updates", 5)
        first = shipper.capture_telemetry()
        registry.count("updates", 2)
        second = shipper.capture_telemetry()
        assert first["counters"]["updates"] == 5.0
        assert second["counters"]["updates"] == 2.0
        assert second["seq"] == first["seq"] + 1

    def test_idle_capture_ships_nothing(self):
        registry, tracer = fresh_pair()
        shipper = TelemetryShipper(
            "o", registry=registry, tracer=tracer, audit=None
        )
        registry.count("updates", 5)
        shipper.capture_telemetry()
        doc = shipper.capture_telemetry()
        assert doc["counters"] == {}
        assert doc["spans"] == []

    def test_registry_reset_detected_even_at_watermark(self):
        """A reset landing exactly at the old totals must still ship.

        This is the process-boundary emulation case: reset + identical
        traffic leaves the counter total equal to the shipper's
        watermark, which naive ``total - watermark`` deltas would read
        as "nothing happened".
        """
        registry, tracer = fresh_pair()
        shipper = TelemetryShipper(
            "o", registry=registry, tracer=tracer, audit=None
        )
        registry.count("updates", 5)
        shipper.capture_telemetry()
        registry.reset()
        registry.count("updates", 5)
        doc = shipper.capture_telemetry()
        assert doc["counters"]["updates"] == 5.0

    def test_tracer_reset_reships_spans_at_cursor(self):
        registry, tracer = fresh_pair()
        shipper = TelemetryShipper(
            "o", registry=registry, tracer=tracer, audit=None
        )
        with tracer.span("round"):
            pass
        assert len(shipper.capture_telemetry()["spans"]) == 1
        tracer.reset()
        with tracer.span("round"):
            pass
        assert len(shipper.capture_telemetry()["spans"]) == 1

    def test_span_batch_is_bounded(self):
        registry, tracer = fresh_pair()
        shipper = TelemetryShipper(
            "o",
            registry=registry,
            tracer=tracer,
            audit=None,
            max_spans=3,
        )
        for _ in range(5):
            with tracer.span("round"):
                pass
        doc = shipper.capture_telemetry()
        assert len(doc["spans"]) == 3
        assert doc["spans_dropped"] == 2


# ---------------------------------------------------------------------------
# merge algebra (property tests)
# ---------------------------------------------------------------------------


counter_maps = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d"]),
    st.integers(min_value=0, max_value=1_000_000),
    max_size=4,
)


class TestMergeAlgebra:
    @settings(max_examples=50, deadline=None)
    @given(counter_maps, counter_maps)
    def test_counter_merge_commutes(self, x, y):
        a = snapshot_for("site.a", x)
        b = snapshot_for("site.b", y)
        ab = merge_telemetry(a, b)
        ba = merge_telemetry(b, a)
        assert ab["counters"] == ba["counters"]
        assert ab["origin"] == ba["origin"] == "site.a+site.b"

    @settings(max_examples=50, deadline=None)
    @given(counter_maps, counter_maps, counter_maps)
    def test_counter_merge_associates(self, x, y, z):
        a = snapshot_for("site.a", x)
        b = snapshot_for("site.b", y)
        c = snapshot_for("site.c", z)
        left = merge_telemetry(merge_telemetry(a, b), c)
        right = merge_telemetry(a, merge_telemetry(b, c))
        assert left["counters"] == right["counters"]
        assert left["origin"] == right["origin"]

    @settings(max_examples=25, deadline=None)
    @given(st.permutations(["site.a", "site.b", "site.c"]), counter_maps)
    def test_registry_merge_is_order_insensitive_for_disjoint_origins(
        self, order, counters
    ):
        docs = {o: snapshot_for(o, counters) for o in order}
        registry = MetricsRegistry(enabled=True)
        for origin in order:
            registry.merge_snapshot(docs[origin], prefix=origin)
        expected = {
            f"{o}.{name}": float(v)
            for o in order
            for name, v in counters.items()
        }
        got = registry.snapshot()["counters"]
        assert got == expected

    def test_gauges_take_last_write_by_timestamp(self):
        a = snapshot_for("site.a", {})
        b = snapshot_for("site.b", {})
        a["gauges"] = {"level": [1.0, 100.0]}
        b["gauges"] = {"level": [2.0, 50.0]}
        assert merge_telemetry(a, b)["gauges"]["level"] == [1.0, 100.0]
        assert merge_telemetry(b, a)["gauges"]["level"] == [1.0, 100.0]

    def test_histograms_merge_count_and_sum(self):
        a = snapshot_for("site.a", {})
        b = snapshot_for("site.b", {})
        a["histograms"] = {
            "lat": {"count": 2, "sum": 3.0, "min": 1.0, "max": 2.0, "samples": [1.0, 2.0]}
        }
        b["histograms"] = {
            "lat": {"count": 1, "sum": 5.0, "min": 5.0, "max": 5.0, "samples": [5.0]}
        }
        merged = merge_telemetry(a, b)["histograms"]["lat"]
        assert merged["count"] == 3
        assert merged["sum"] == 8.0
        assert merged["min"] == 1.0
        assert merged["max"] == 5.0

    def test_merge_all_folds_left(self):
        docs = [snapshot_for(f"site.{i}", {"a": i}) for i in range(1, 4)]
        merged = merge_all_telemetry(docs)
        assert merged["counters"]["a"] == 6.0
        with pytest.raises(ValueError):
            merge_all_telemetry([])


# ---------------------------------------------------------------------------
# span stitching + Perfetto lanes
# ---------------------------------------------------------------------------


class TestSpanStitching:
    def _site_batch(self, origin: str) -> list[dict]:
        registry, tracer = fresh_pair()
        with tracer.span("dist.round", site=origin):
            with tracer.span("dist.ingest"):
                pass
        shipper = TelemetryShipper(
            origin, registry=registry, tracer=tracer, audit=None
        )
        return shipper.capture_telemetry()["spans"]

    def test_import_preserves_nesting_under_anchor(self):
        target = SpanTracer(enabled=True)
        with target.span("dist.merge_round") as anchor:
            kept = target.import_spans(
                self._site_batch("site.a"),
                origin="site.a",
                parent_id=target.current_span_id(),
            )
        assert kept == 2
        rounds = target.find("dist.round")
        ingests = target.find("dist.ingest")
        assert len(rounds) == 1 and len(ingests) == 1
        assert rounds[0].parent_id == anchor.span_id
        assert ingests[0].parent_id == rounds[0].span_id
        assert rounds[0].attributes["origin"] == "site.a"

    def test_chrome_export_gives_each_origin_a_lane(self):
        target = SpanTracer(enabled=True)
        with target.span("dist.merge_round"):
            for origin in ("site.a", "site.b"):
                target.import_spans(
                    self._site_batch(origin),
                    origin=origin,
                    parent_id=target.current_span_id(),
                )
        snapshot = target.snapshot()
        assert trace_origins(snapshot) == ["site.a", "site.b"]
        chrome = trace_to_chrome(snapshot)
        events = chrome["traceEvents"]
        # Local lane is pid 1 and its process_name metadata leads.
        assert events[0]["ph"] == "M" and events[0]["pid"] == 1
        pids = {e["pid"] for e in events}
        assert pids == {1, 2, 3}
        by_origin = {
            e["args"]["name"]: e["pid"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert by_origin["repro origin: site.a"] == 2
        assert by_origin["repro origin: site.b"] == 3
        # The imported round spans sit in their origin's lane.
        for event in events:
            if event["ph"] == "X" and event["name"] == "dist.round":
                assert event["pid"] in (2, 3)


# ---------------------------------------------------------------------------
# federation scraper + monitor endpoints
# ---------------------------------------------------------------------------


def _write_origin_files(tmp_path) -> list[str]:
    specs = []
    for origin, counters in (
        ("site.a", {"dist.rounds.closed": 2, "dist.bytes.sent": 100}),
        ("site.b", {"dist.rounds.closed": 3, "dist.bytes.sent": 250}),
    ):
        doc = snapshot_for(origin, counters)
        path = tmp_path / f"{origin}.json"
        path.write_text(telemetry_to_json(doc))
        specs.append(f"{origin}={path}")
    return specs


class TestFederatedSource:
    def test_prometheus_labels_every_origin(self, tmp_path):
        federation = federation_from_args(_write_origin_files(tmp_path))
        text = federation.prometheus(prefix="repro")
        samples = dict(parse_prometheus(text))
        assert samples['repro_federation_up{origin="site.a"}'] == 1.0
        assert samples['repro_federation_up{origin="site.b"}'] == 1.0
        assert (
            samples['repro_dist_rounds_closed_total{origin="site.a"}'] == 2.0
        )
        assert (
            samples['repro_dist_rounds_closed_total{origin="site.b"}'] == 3.0
        )

    def test_topology_reports_health_and_traffic(self, tmp_path):
        federation = federation_from_args(_write_origin_files(tmp_path))
        topo = federation.topology()
        assert topo["kind"] == "repro.topology"
        row = topo["origins"]["site.b"]
        assert row["ok"] is True
        assert row["rounds"] == 3.0
        assert row["bytes"] == 250.0

    def test_down_origin_is_reported_not_fatal(self, tmp_path):
        specs = _write_origin_files(tmp_path) + [
            f"site.gone={tmp_path}/missing.json"
        ]
        federation = federation_from_args(specs)
        text = federation.prometheus()
        samples = dict(parse_prometheus(text))
        assert samples['repro_federation_up{origin="site.gone"}'] == 0.0
        assert federation.topology()["origins"]["site.gone"]["ok"] is False

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            federation_from_args(["no-equals-sign"])
        with pytest.raises(ValueError):
            federation_from_args(["a=x.json", "a=y.json"])

    def test_monitor_serves_federated_metrics_and_topology(self, tmp_path):
        from repro.monitor.service import file_source

        federation = federation_from_args(_write_origin_files(tmp_path))
        source = file_source(None, None, None, None)
        with MonitorServer(source, port=0, federation=federation) as server:
            with urllib.request.urlopen(f"{server.url}/metrics") as resp:
                body = resp.read().decode()
            assert 'origin="site.a"' in body and 'origin="site.b"' in body
            with urllib.request.urlopen(f"{server.url}/topology") as resp:
                topo = json.loads(resp.read().decode())
            assert set(topo["origins"]) == {"site.a", "site.b"}
            with urllib.request.urlopen(f"{server.url}/dashboard") as resp:
                dashboard = resp.read().decode()
            assert "Federated origins" in dashboard


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCLI:
    def test_selfcheck_passes(self, capsys):
        assert federate_main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_validate_and_merge_round_trip(self, tmp_path, capsys):
        paths = []
        for i, origin in enumerate(("site.a", "site.b")):
            doc = snapshot_for(origin, {"updates": 10 * (i + 1)})
            path = tmp_path / f"{origin}.json"
            path.write_text(telemetry_to_json(doc))
            paths.append(str(path))
        for path in paths:
            assert obs_main(["validate", path]) == 0
        out_path = tmp_path / "merged.json"
        assert obs_main(["merge", *paths, "--out", str(out_path)]) == 0
        merged = validate_telemetry(json.loads(out_path.read_text()))
        assert merged["counters"]["updates"] == 30.0
        assert merged["origin"] == "site.a+site.b"

    def test_validate_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"not": "telemetry"}')
        assert obs_main(["validate", str(bad)]) == 1
        assert obs_main(["merge", str(bad)]) == 1
        with pytest.raises(SystemExit):  # one CLI: repro.obs validate|merge
            federate_main(["validate", str(bad)])


# ---------------------------------------------------------------------------
# end-to-end acceptance: three telemetry-enabled sites, one coordinator
# ---------------------------------------------------------------------------


class TestEndToEnd:
    def _run_fleet(self, rng, rounds=2, sites=3):
        """The demo's process-boundary emulation: the global singletons
        are reset between per-site segments (each site's shipper sees a
        fresh registry/tracer, exactly as separate processes would), then
        once more before the coordinator replays the collected rounds."""
        schema = make_schema()
        fleet = [
            SketchSite(f"edge-{i}", schema, streams=["R", "S"], telemetry=True)
            for i in range(sites)
        ]
        coordinator = SketchCoordinator(schema)
        METRICS.enable()
        TRACER.enable()
        contexts = []
        batches = []
        for _ in range(rounds):
            context = coordinator.mint_trace_context()
            contexts.append(context)
            batch = []
            for site in fleet:
                METRICS.reset()
                TRACER.reset()
                for stream in ("R", "S"):
                    site.observe_bulk(
                        stream,
                        rng.integers(0, DOMAIN, size=200, dtype="int64"),
                    )
                batch.extend(site.close_round(context))
            batches.append(batch)
        METRICS.reset()
        TRACER.reset()
        for batch in batches:
            coordinator.receive_all(batch)
        return fleet, coordinator, contexts

    def test_coordinator_metrics_carry_per_origin_counters(self, rng):
        self._run_fleet(rng)
        snapshot = METRICS.snapshot()
        for i in range(3):
            assert (
                snapshot["counters"][f"site.edge-{i}.dist.rounds.closed"] == 2.0
            )
            assert (
                snapshot["counters"][f"site.edge-{i}.dist.reports.sent"] == 4.0
            )
        # The coordinator's own counters coexist, unprefixed.
        assert snapshot["counters"]["dist.reports.received"] == 12.0
        assert snapshot["counters"]["dist.telemetry.received"] == 6.0
        assert snapshot["counters"]["dist.telemetry.bytes.received"] > 0

    def test_telemetry_bytes_counted_both_ends(self, rng):
        schema = make_schema()
        site = SketchSite("edge-0", schema, streams=["R"], telemetry=True)
        coordinator = SketchCoordinator(schema)
        METRICS.enable()
        site.observe_bulk("R", rng.integers(0, DOMAIN, size=100, dtype="int64"))
        reports = site.close_round()
        wire_bytes = reports[0].telemetry_size_in_bytes()
        assert wire_bytes > 0
        assert METRICS.counter_value("dist.telemetry.sent") == 1.0
        assert METRICS.counter_value("dist.telemetry.bytes.sent") == wire_bytes
        coordinator.receive_all(reports)
        assert METRICS.counter_value("dist.telemetry.received") == 1.0
        assert (
            METRICS.counter_value("dist.telemetry.bytes.received") == wire_bytes
        )

    def test_single_stitched_trace_with_per_site_lanes(self, rng):
        self._run_fleet(rng)
        snapshot = TRACER.snapshot()
        origins = trace_origins(snapshot)
        assert origins == [f"site.edge-{i}" for i in range(3)]
        chrome = trace_to_chrome(snapshot)
        events = chrome["traceEvents"]
        lanes = {
            e["args"]["name"]: e["pid"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert len({lanes[f"repro origin: site.edge-{i}"] for i in range(3)}) == 3
        # Site round spans nest (transitively, via the dist.receive span
        # that imported them) under the coordinator's merge_round span.
        merge_rounds = TRACER.find("dist.merge_round")
        site_rounds = TRACER.find("dist.round")
        assert len(merge_rounds) == 2 and len(site_rounds) == 6
        merge_ids = {s.span_id for s in merge_rounds}
        parents = {s.span_id: s.parent_id for s in TRACER.spans()}
        for span in site_rounds:
            ancestor = span.parent_id
            while ancestor is not None and ancestor not in merge_ids:
                ancestor = parents.get(ancestor)
            assert ancestor in merge_ids

    def test_trace_context_propagates_to_reports_and_spans(self, rng):
        fleet, coordinator, contexts = self._run_fleet(rng, rounds=1)
        assert contexts[0].trace_id == "fleet-round-000001"
        site_rounds = TRACER.find("dist.round")
        assert all(
            s.attributes["trace_id"] == contexts[0].trace_id for s in site_rounds
        )
        merge_round = TRACER.find("dist.merge_round")[0]
        assert merge_round.attributes["trace_id"] == contexts[0].trace_id

    def test_telemetry_accumulates_per_origin(self, rng):
        _, coordinator, _ = self._run_fleet(rng)
        by_origin = coordinator.telemetry_by_origin()
        assert sorted(by_origin) == [f"site.edge-{i}" for i in range(3)]
        for doc in by_origin.values():
            assert doc["counters"]["dist.rounds.closed"] == 2.0
        reports, size = coordinator.telemetry_stats()
        assert reports == 6 and size > 0

    def test_estimates_unaffected_by_telemetry(self, rng):
        _, coordinator, _ = self._run_fleet(rng)
        assert coordinator.est_self_join_size("R") > 0

    def test_disabled_singletons_ship_nothing(self, rng):
        schema = make_schema()
        site = SketchSite("edge-0", schema, streams=["R"], telemetry=True)
        site.observe_bulk("R", rng.integers(0, DOMAIN, size=100, dtype="int64"))
        reports = site.close_round()
        assert all(r.telemetry is None for r in reports)
        assert all(r.telemetry_size_in_bytes() == 0 for r in reports)

    def test_plain_reports_still_interoperate(self, rng):
        """Pre-federation senders (no context, no telemetry) still merge."""
        schema = make_schema()
        site = SketchSite("edge-0", schema, streams=["R"])
        site.observe_bulk("R", rng.integers(0, DOMAIN, size=100, dtype="int64"))
        reports = site.close_round()
        assert all(r.trace_context is None and r.telemetry is None for r in reports)
        coordinator = SketchCoordinator(schema)
        summary = coordinator.receive_all(reports)
        assert summary.telemetry_bytes == 0

    def test_rejected_telemetry_is_counted(self, rng):
        from repro.distributed import ProtocolError

        schema = make_schema()
        site = SketchSite("edge-0", schema, streams=["R"])
        site.observe_bulk("R", rng.integers(0, DOMAIN, size=50, dtype="int64"))
        report = site.close_round()[0]
        from dataclasses import replace

        bad = replace(report, telemetry={"version": 99})
        coordinator = SketchCoordinator(schema)
        METRICS.enable()
        with pytest.raises(ProtocolError):
            coordinator.receive(bad)
        assert METRICS.counter_value("dist.telemetry.rejected") == 1.0
