"""Tests for ``repro.monitor``: CI math, audit records and the audit log,
estimator/engine emission, shadow-exact drift detection, and the HTTP
monitoring service."""

from __future__ import annotations

import json
import math
import pathlib
import subprocess
import sys
import urllib.error
import urllib.request

import numpy as np
import pytest

import repro.monitor
from repro.monitor import (
    AUDIT,
    AuditLog,
    DriftAlert,
    QueryAudit,
    RESIDUAL_BOUND_FACTOR,
    ShadowAuditor,
    audit_from_dict,
    confidence_halfwidth,
    per_table_tail_probability,
    read_audit_jsonl,
)
from repro.monitor.service import (
    EMPTY_SNAPSHOT,
    MonitorServer,
    MonitorSource,
    file_source,
    live_source,
    merged_metrics_snapshot,
    parse_prometheus,
)
from repro.obs import METRICS, MetricsRegistry, telemetry_from_json, write_telemetry


def _make_audit(**overrides) -> QueryAudit:
    """A complete, finite audit record with plausible numbers."""
    fields = dict(
        estimate=1000.0,
        dense_dense=600.0,
        dense_sparse=150.0,
        sparse_dense=150.0,
        sparse_sparse=100.0,
        sj_f_dense=5000.0,
        sj_g_dense=4000.0,
        sj_f_residual=300.0,
        sj_g_residual=200.0,
        width=128,
        depth=7,
        threshold_f=40.0,
        threshold_g=40.0,
        residual_linf_f=40.0,
        residual_linf_g=35.0,
        residual_bound_ok=True,
        delta=0.05,
        ci_halfwidth=250.0,
        ci_low=750.0,
        ci_high=1250.0,
    )
    fields.update(overrides)
    return QueryAudit(**fields)


class TestCIMath:
    @pytest.mark.parametrize("delta", [0.5, 0.1, 0.05, 0.01, 0.001])
    @pytest.mark.parametrize("depth", [1, 3, 7, 11, 101])
    def test_tail_probability_in_range(self, delta, depth):
        p = per_table_tail_probability(delta, depth)
        assert 0.0 < p <= 0.5

    def test_tail_probability_improves_with_depth(self):
        """Deeper sketches tolerate a larger per-table miss rate (the
        median boosts harder), which tightens the CI."""
        shallow = per_table_tail_probability(0.05, 3)
        deep = per_table_tail_probability(0.05, 101)
        assert deep > shallow

    def test_tail_probability_validates_inputs(self):
        with pytest.raises(ValueError):
            per_table_tail_probability(0.0, 5)
        with pytest.raises(ValueError):
            per_table_tail_probability(1.0, 5)
        with pytest.raises(ValueError):
            per_table_tail_probability(0.05, 0)

    def test_zero_residuals_give_zero_halfwidth(self):
        """A fully dense pair is answered exactly: CI collapses."""
        assert confidence_halfwidth(1e6, 1e6, 0.0, 0.0, 256, 7) == 0.0

    @pytest.mark.parametrize("depth", [1, 2, 5])
    def test_halfwidth_is_finite_even_for_shallow_sketches(self, depth):
        hw = confidence_halfwidth(100.0, 100.0, 50.0, 50.0, 64, depth, delta=0.01)
        assert math.isfinite(hw) and hw > 0.0

    def test_halfwidth_shrinks_like_inverse_sqrt_width(self):
        narrow = confidence_halfwidth(100.0, 100.0, 50.0, 50.0, 64, 7)
        wide = confidence_halfwidth(100.0, 100.0, 50.0, 50.0, 256, 7)
        assert wide == pytest.approx(narrow / 2.0)

    def test_halfwidth_rejects_negative_self_joins(self):
        with pytest.raises(ValueError):
            confidence_halfwidth(100.0, 100.0, -1.0, 50.0, 64, 7)
        with pytest.raises(ValueError):
            confidence_halfwidth(100.0, 100.0, 50.0, 50.0, 0, 7)


class TestQueryAudit:
    def test_relative_halfwidth(self):
        audit = _make_audit()
        assert audit.relative_ci_halfwidth() == pytest.approx(0.25)
        assert _make_audit(estimate=0.0).relative_ci_halfwidth() == float("inf")

    def test_json_round_trip(self):
        audit = _make_audit(
            streams=("f", "g"),
            sites=("site-a", "site-b"),
            origin="engine",
            realized_relative_error=float("inf"),
            shadow_exact=990.0,
        )
        audit.extra["note"] = "hello"
        restored = audit_from_dict(json.loads(audit.to_json()))
        assert restored == audit

    def test_as_dict_is_json_safe_with_nonfinite(self):
        audit = _make_audit(realized_relative_error=float("inf"))
        payload = json.dumps(audit.as_dict())  # must not raise
        assert '"inf"' in payload

    def test_record_type_tag(self):
        assert _make_audit().as_dict()["record_type"] == "audit"

    def test_from_dict_rejects_missing_fields(self):
        data = _make_audit().as_dict()
        del data["ci_halfwidth"]
        with pytest.raises(ValueError, match="missing"):
            audit_from_dict(data)
        with pytest.raises(ValueError):
            audit_from_dict(["not", "a", "dict"])

    def test_from_dict_keeps_unknown_keys_in_extra(self):
        data = _make_audit().as_dict()
        data["future_field"] = 42
        assert audit_from_dict(data).extra["future_field"] == 42


class TestAuditLog:
    def test_disabled_log_records_nothing(self):
        log = AuditLog(enabled=False)
        log.record(_make_audit())
        log.annotate_last(streams=("a", "b"))
        log.alert(object())
        assert len(log) == 0 and log.alerts == []

    def test_indices_are_assigned_in_order(self):
        log = AuditLog(enabled=True)
        first = log.record(_make_audit())
        second = log.record(_make_audit())
        assert (first.index, second.index) == (1, 2)
        assert log.last() is second

    def test_ring_is_bounded_and_counts_evictions(self):
        log = AuditLog(enabled=True, max_audits=4)
        for _ in range(10):
            log.record(_make_audit())
        assert len(log) == 4
        assert log.evicted == 6
        assert [a.index for a in log.audits()] == [7, 8, 9, 10]
        assert [a.index for a in log.recent(2)] == [9, 10]
        assert log.recent(0) == []

    def test_annotate_last_known_and_unknown_fields(self):
        log = AuditLog(enabled=True)
        assert log.annotate_last(streams=("a", "b")) is None  # empty: no-op
        log.record(_make_audit())
        log.annotate_last(streams=("f", "g"), custom_tag="x")
        audit = log.last()
        assert audit.streams == ("f", "g")
        assert audit.extra["custom_tag"] == "x"

    def test_reset_clears_but_keeps_switch(self):
        log = AuditLog(enabled=True, max_audits=2)
        for _ in range(3):
            log.record(_make_audit())
        log.reset()
        assert log.enabled and len(log) == 0 and log.evicted == 0
        assert log.record(_make_audit()).index == 1

    def test_validates_construction(self):
        with pytest.raises(ValueError):
            AuditLog(max_audits=0)
        with pytest.raises(ValueError):
            AuditLog(delta=1.5)

    def test_snapshot_shape(self):
        log = AuditLog(enabled=True)
        log.record(_make_audit())
        snap = log.snapshot()
        assert snap["version"] == 1 and snap["kind"] == "repro.monitor"
        assert snap["recorded"] == 1 and snap["evicted"] == 0
        assert snap["audits"][0]["estimate"] == 1000.0
        assert snap["alerts"] == []

    def test_streaming_sink_defers_for_enrichment(self, tmp_path):
        """A record hits the JSONL file only once the *next* record lands
        (or the sink closes), so post-hoc enrichment is in the file."""
        path = tmp_path / "audits.jsonl"
        log = AuditLog(enabled=True)
        log.open_jsonl(str(path))
        log.record(_make_audit())
        assert path.read_text() == ""  # still pending
        log.annotate_last(streams=("f", "g"), origin="engine")
        log.record(_make_audit(estimate=2.0))
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        first = json.loads(lines[0])
        assert first["streams"] == ["f", "g"] and first["origin"] == "engine"
        log.close_jsonl()
        assert len(path.read_text().splitlines()) == 2

    def test_write_jsonl_round_trip_with_alert(self, tmp_path):
        path = tmp_path / "audits.jsonl"
        log = AuditLog(enabled=True)
        log.record(_make_audit())
        log.record(_make_audit(estimate=7.0))
        log.alert(
            DriftAlert(
                window=20,
                covered=10,
                coverage=0.5,
                target=0.9,
                streams=("f", "g"),
                estimate=5.0,
                shadow_exact=50.0,
                realized_error=45.0,
                ci_halfwidth=1.0,
            )
        )
        assert log.write_jsonl(str(path)) == 3
        audits, alerts = read_audit_jsonl(str(path))
        assert [a.estimate for a in audits] == [1000.0, 7.0]
        assert alerts[0]["record_type"] == "drift_alert"
        assert alerts[0]["coverage"] == 0.5

    def test_read_audit_jsonl_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(ValueError, match="invalid JSON"):
            read_audit_jsonl(str(path))


class TestEstimatorEmission:
    def _sketch_pair(self, skewed_pair):
        from repro.core import SkimmedSketchSchema

        f, g = skewed_pair
        schema = SkimmedSketchSchema(128, 7, f.domain_size, seed=3)
        return f, g, schema.sketch_of(f), schema.sketch_of(g)

    def test_disabled_audit_emits_nothing(self, skewed_pair):
        _, _, sf, sg = self._sketch_pair(skewed_pair)
        sf.est_join_size(sg)
        assert len(AUDIT) == 0

    def test_est_join_size_emits_one_complete_audit(self, skewed_pair):
        f, g, sf, sg = self._sketch_pair(skewed_pair)
        AUDIT.enable()
        estimate = sf.est_join_size(sg)
        assert len(AUDIT) == 1
        audit = AUDIT.last()
        assert audit.estimate == pytest.approx(estimate)
        # The four sub-join terms decompose the estimate exactly.
        terms = (
            audit.dense_dense
            + audit.dense_sparse
            + audit.sparse_dense
            + audit.sparse_sparse
        )
        assert terms == pytest.approx(audit.estimate)
        assert audit.width == 128 and audit.depth == 7
        assert math.isfinite(audit.ci_halfwidth) and audit.ci_halfwidth >= 0.0
        assert audit.ci_low == pytest.approx(audit.estimate - audit.ci_halfwidth)
        assert audit.ci_high == pytest.approx(audit.estimate + audit.ci_halfwidth)
        assert audit.sj_f_residual >= 0.0 and audit.sj_g_residual >= 0.0
        # SKIMDENSE's residual contract holds on this benign workload.
        assert audit.residual_bound_ok
        assert audit.residual_linf_f < RESIDUAL_BOUND_FACTOR * audit.threshold_f
        # join_breakdown annotates masses and the skim strategy.
        assert audit.n_f == pytest.approx(f.total_count())
        assert audit.n_g == pytest.approx(g.total_count())
        assert audit.dyadic is not None
        assert audit.origin == "estimator"

    def test_self_join_also_audited(self, skewed_pair):
        _, _, sf, _ = self._sketch_pair(skewed_pair)
        AUDIT.enable()
        sf.est_self_join_size()
        assert len(AUDIT) == 1
        assert AUDIT.last().streams is None  # direct call: never enriched


def _audited_engine(shadow: ShadowAuditor | None = None):
    from repro.core.config import SketchParameters
    from repro.streams.engine import StreamEngine

    engine = StreamEngine(
        1 << 10, SketchParameters(width=128, depth=7), synopsis="skimmed", seed=7
    )
    if shadow is not None:
        engine.attach_shadow(shadow)
    return engine


def _feed_zipf_streams(engine, names, rng):
    from repro.streams.generators import zipf_frequencies

    for offset, name in enumerate(names):
        engine.register_stream(name)
        vec = zipf_frequencies(engine.domain_size, 5_000, 1.0, rng=rng)
        values = vec.support()
        engine.process_bulk(name, values, vec.counts[values])


class TestEngineEnrichment:
    def test_engine_enriches_audits_with_health_and_shadow(self):
        from repro.streams.query import JoinCountQuery, SelfJoinQuery

        shadow = ShadowAuditor(sample_rate=1.0, window=64, coverage_target=0.9)
        engine = _audited_engine(shadow)
        AUDIT.enable()
        _feed_zipf_streams(engine, ("s0", "s1", "s2"), np.random.default_rng(99))
        queries = [
            JoinCountQuery("s0", "s1"),
            JoinCountQuery("s1", "s2"),
            JoinCountQuery("s2", "s0"),
            SelfJoinQuery("s0"),
            SelfJoinQuery("s1"),
        ]
        for query in queries:
            engine.answer(query)
        audits = AUDIT.audits()
        assert len(audits) == len(queries)
        for audit in audits:
            assert audit.origin == "engine"
            assert audit.streams is not None and len(audit.streams) == 2
            assert audit.health is not None
            for health in audit.health.values():
                assert health["health.residual_bound_ok"] == 1.0
            assert audit.shadow_exact is not None
            assert audit.realized_error is not None
            assert audit.covered is not None
        # Realized error sits inside the delta=0.05 theory CI for at
        # least 90% of audited queries (deterministic seeds; in practice
        # all five are covered with wide margin).
        covered = sum(1 for a in audits if a.covered)
        assert covered / len(audits) >= 0.9

    def test_non_skimmed_synopsis_emits_no_audit(self):
        from repro.core.config import SketchParameters
        from repro.streams.engine import StreamEngine
        from repro.streams.query import JoinCountQuery

        engine = StreamEngine(
            1 << 10, SketchParameters(width=64, depth=5), synopsis="hash", seed=7
        )
        AUDIT.enable()
        _feed_zipf_streams(engine, ("a", "b"), np.random.default_rng(5))
        engine.answer(JoinCountQuery("a", "b"))
        assert len(AUDIT) == 0  # no estimator audit, and no stale enrichment

    def test_shadow_only_fed_while_audits_enabled(self):
        shadow = ShadowAuditor()
        engine = _audited_engine(shadow)
        engine.register_stream("s")
        engine.process("s", 3)
        assert shadow.tracked_streams() == []  # AUDIT disabled: not fed
        AUDIT.enable()
        engine.process("s", 3)
        assert shadow.tracked_values("s") == 1


class TestShadowAuditor:
    def test_exact_mirror_join(self):
        shadow = ShadowAuditor(sample_rate=1.0)
        shadow.observe_bulk("f", [1, 1, 2, 3], None)
        shadow.observe_bulk("g", [1, 2, 2], None)
        # join = f(1)*g(1) + f(2)*g(2) = 2*1 + 1*2
        assert shadow.exact_sub_join("f", "g") == 4.0
        assert shadow.estimate_exact_join("f", "g") == 4.0

    def test_weighted_observe(self):
        shadow = ShadowAuditor()
        shadow.observe("f", 5, weight=2.5)
        shadow.observe("f", 5, weight=0.5)
        shadow.observe("g", 5)
        assert shadow.exact_sub_join("f", "g") == 3.0

    def test_subsampling_is_deterministic_and_restricting(self):
        shadow = ShadowAuditor(sample_rate=0.25, seed=11)
        values = list(range(10_000))
        kept = [v for v in values if shadow.sampled(v)]
        # Deterministic: the same values are kept on every call.
        assert kept == [v for v in values if shadow.sampled(v)]
        assert 0.15 < len(kept) / len(values) < 0.35
        shadow.observe_bulk("f", values, None)
        assert shadow.tracked_values("f") == len(kept)
        # Extrapolation scales the sub-domain self-join by 1/rate.
        assert shadow.estimate_exact_join("f", "f") == pytest.approx(
            len(kept) / 0.25
        )

    def test_validates_construction(self):
        for kwargs in (
            {"sample_rate": 0.0},
            {"sample_rate": 1.5},
            {"coverage_target": 0.0},
            {"window": 0},
            {"min_window": 0},
        ):
            with pytest.raises(ValueError):
                ShadowAuditor(**kwargs)

    def test_drift_alert_fires_and_window_resets(self):
        shadow = ShadowAuditor(window=8, coverage_target=0.9, min_window=4)
        shadow.observe_bulk("f", [1, 1], None)
        shadow.observe_bulk("g", [1], None)  # exact join = 2
        alerts = []
        for _ in range(4):
            # estimate 100 vs exact 2 with a tiny CI: never covered.
            *_, alert = shadow.observe_query("f", "g", 100.0, 1.0)
            if alert is not None:
                alerts.append(alert)
        assert len(alerts) == 1  # fires once the window is meaningful
        alert = alerts[0]
        assert alert.coverage == 0.0 and alert.covered == 0 and alert.window == 4
        assert alert.streams == ("f", "g")
        assert alert.shadow_exact == 2.0 and alert.realized_error == 98.0
        assert alert.as_dict()["record_type"] == "drift_alert"
        assert "coverage 0.00" in alert.describe()
        # The window was cleared: no alert storm on the next bad query.
        assert shadow.coverage() == 1.0
        *_, again = shadow.observe_query("f", "g", 100.0, 1.0)
        assert again is None
        assert shadow.queries == 5 and shadow.alert_count == 1

    def test_covered_queries_never_alert(self):
        shadow = ShadowAuditor(window=8, coverage_target=0.9, min_window=2)
        shadow.observe("f", 1)
        shadow.observe("g", 1)
        for _ in range(10):
            exact, realized, covered, alert = shadow.observe_query("f", "g", 1.0, 0.5)
            assert exact == 1.0 and realized == 0.0 and covered and alert is None
        assert shadow.coverage() == 1.0

    def test_reset(self):
        shadow = ShadowAuditor()
        shadow.observe("f", 1)
        shadow.observe_query("f", "f", 10.0, 0.1)
        shadow.reset()
        assert shadow.tracked_streams() == []
        assert shadow.queries == 0 and shadow.coverage() == 1.0


def _populated_source(n_audits: int = 3, with_alert: bool = True) -> MonitorSource:
    reg = MetricsRegistry(enabled=True)
    reg.count("engine.queries", n_audits)
    reg.gauge("skim.threshold", 40.0)
    log = AuditLog(enabled=True)
    for i in range(n_audits):
        log.record(
            _make_audit(
                estimate=1000.0 + i,
                realized_error=10.0 * i,
                covered=i % 2 == 0,
                streams=("f", "g"),
            )
        )
    if with_alert:
        log.alert(
            DriftAlert(
                window=20,
                covered=10,
                coverage=0.5,
                target=0.9,
                streams=("f", "g"),
                estimate=1.0,
                shadow_exact=2.0,
                realized_error=1.0,
                ci_halfwidth=0.1,
            )
        )
    return MonitorSource(reg.snapshot, log)


def _get(url: str) -> tuple[int, str]:
    try:
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, resp.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")


class TestMergedSnapshot:
    def test_monitor_gauges_injected(self):
        merged = merged_metrics_snapshot(_populated_source(n_audits=3))
        gauges = {name: pair[0] for name, pair in merged["gauges"].items()}
        assert gauges["monitor.audits.recorded"] == 3.0
        assert gauges["monitor.audits.retained"] == 3.0
        assert gauges["monitor.audits.evicted"] == 0.0
        assert gauges["audit.alerts"] == 1.0
        assert gauges["monitor.audit.last_estimate"] == 1002.0
        assert gauges["monitor.audit.last_ci_halfwidth"] == 250.0
        assert gauges["monitor.audit.last_realized_error"] == 20.0
        assert gauges["monitor.audit.residual_bound_ok_fraction"] == 1.0
        assert gauges["audit.coverage"] == pytest.approx(2.0 / 3.0)
        # The underlying metrics ride along untouched.
        assert merged["counters"]["engine.queries"] == 3.0

    def test_empty_source_still_renders(self):
        source = MonitorSource(lambda: dict(EMPTY_SNAPSHOT), AuditLog())
        merged = merged_metrics_snapshot(source)
        assert merged["gauges"]["monitor.audits.recorded"][0] == 0.0
        assert "audit.coverage" not in merged["gauges"]


class TestParsePrometheus:
    def test_parses_samples_and_nonfinite(self):
        text = "# HELP x y\n# TYPE a gauge\na 1.5\nb{quantile=\"0.5\"} 2\nc +Inf\n"
        assert parse_prometheus(text) == [
            ("a", 1.5),
            ('b{quantile="0.5"}', 2.0),
            ("c", float("inf")),
        ]

    def test_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            parse_prometheus("just_a_name\n")
        with pytest.raises(ValueError):
            parse_prometheus("a notanumber\n")


class TestMonitorServer:
    def test_endpoints_round_trip(self):
        with MonitorServer(_populated_source(), port=0) as server:
            status, body = _get(f"{server.url}/metrics")
            assert status == 200
            samples = dict(parse_prometheus(body))
            assert samples["repro_monitor_audits_recorded"] == 3.0
            assert samples["repro_engine_queries_total"] == 3.0

            status, body = _get(f"{server.url}/health")
            assert status == 200
            health = json.loads(body)
            assert health["status"] == "ok"
            assert health["audits"] == 3 and health["alerts"] == 1

            status, body = _get(f"{server.url}/audits")
            assert status == 200
            payload = json.loads(body)
            restored = [audit_from_dict(a) for a in payload["audits"]]
            assert [a.estimate for a in restored] == [1000.0, 1001.0, 1002.0]
            assert payload["alerts"][0]["record_type"] == "drift_alert"

            status, body = _get(f"{server.url}/audits?n=1")
            assert [a["estimate"] for a in json.loads(body)["audits"]] == [1002.0]

            status, body = _get(f"{server.url}/audits?n=bogus")
            assert status == 400

            status, body = _get(f"{server.url}/snapshot")
            assert status == 200 and telemetry_from_json(body)["version"] == 2

            status, _ = _get(f"{server.url}/nope")
            assert status == 404

    def test_live_source_serves_process_registries(self):
        AUDIT.enable()
        AUDIT.record(_make_audit())
        with MonitorServer(live_source(), port=0) as server:
            _, body = _get(f"{server.url}/audits")
            assert len(json.loads(body)["audits"]) == 1

    def test_double_start_rejected(self):
        server = MonitorServer(_populated_source(), port=0)
        try:
            server.start()
            with pytest.raises(RuntimeError):
                server.start()
        finally:
            server.stop()
            server.stop()  # idempotent


class TestScrapeCost:
    """A scrape reads the audit ring in place: ``/metrics``, ``/health``
    and ``/dashboard`` serialise no audit, ``/audits?n=k`` exactly ``k``."""

    def test_scrapes_of_a_full_ring_serialise_no_audit(self, monkeypatch):
        log = AuditLog(enabled=True, max_audits=64)
        for i in range(100):
            log.record(_make_audit(estimate=float(i), covered=i % 3 != 0))
        assert log.evicted == 36
        calls = []
        as_dict = QueryAudit.as_dict
        monkeypatch.setattr(
            QueryAudit, "as_dict", lambda self: calls.append(1) or as_dict(self)
        )
        source = MonitorSource(MetricsRegistry(enabled=True).snapshot, log)
        with MonitorServer(source, port=0) as server:
            status, body = _get(f"{server.url}/metrics")
            assert status == 200
            samples = dict(parse_prometheus(body))
            assert samples["repro_monitor_audits_recorded"] == 100.0
            assert samples["repro_monitor_audits_retained"] == 64.0
            assert samples["repro_monitor_audit_last_estimate"] == 99.0
            status, body = _get(f"{server.url}/health")
            assert json.loads(body)["audits"] == 64
            assert _get(f"{server.url}/dashboard")[0] == 200
            assert calls == []
            status, body = _get(f"{server.url}/audits?n=2")
            assert [a["estimate"] for a in json.loads(body)["audits"]] == [98.0, 99.0]
            assert len(calls) == 2


class TestFileSourceAndCLI:
    def _write_inputs(self, tmp_path) -> tuple[str, str]:
        reg = MetricsRegistry(enabled=True)
        reg.count("engine.queries", 2)
        metrics = tmp_path / "metrics.json"
        write_telemetry(str(metrics), reg.snapshot())
        log = AuditLog(enabled=True)
        log.record(_make_audit())
        log.record(_make_audit(estimate=5.0, covered=True))
        audits = tmp_path / "audits.jsonl"
        log.write_jsonl(str(audits))
        return str(metrics), str(audits)

    def test_file_source_reads_both_files(self, tmp_path):
        metrics, audits = self._write_inputs(tmp_path)
        source = file_source(metrics, audits)
        assert source.metrics_snapshot()["counters"]["engine.queries"] == 2.0
        assert len(source.audits) == 2

    def test_file_source_defaults_to_empty(self):
        source = file_source(None, None)
        assert source.metrics_snapshot() == EMPTY_SNAPSHOT
        assert len(source.audits) == 0

    def test_file_source_fails_fast_on_bad_paths(self, tmp_path):
        with pytest.raises(OSError):
            file_source(str(tmp_path / "missing.json"), None)
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        with pytest.raises(ValueError):
            file_source(str(bad), None)

    def test_selfcheck_passes_on_good_inputs(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        metrics, audits = self._write_inputs(tmp_path)
        assert main(["selfcheck", "--metrics", metrics, "--audits", audits]) == 0
        assert "selfcheck ok" in capsys.readouterr().out

    def test_selfcheck_fails_when_audits_missing(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        metrics, _ = self._write_inputs(tmp_path)
        assert main(["selfcheck", "--metrics", metrics, "--min-audits", "1"]) == 1
        assert "selfcheck FAILED" in capsys.readouterr().err

    def test_selfcheck_fails_on_unreadable_inputs(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        missing = str(tmp_path / "missing.jsonl")
        assert main(["selfcheck", "--audits", missing]) == 1
        assert "cannot load inputs" in capsys.readouterr().err


class TestImportCost:
    """``repro.monitor`` must stay importable without numpy — it rides in
    the thinnest serving agent alongside ``repro.obs``."""

    @pytest.mark.parametrize("module", ["monitor", "monitor.service"])
    def test_monitor_does_not_import_numpy(self, module):
        code = (
            "import sys; sys.path.insert(0, {path!r}); import repro.{module}; "
            "assert 'numpy' not in sys.modules, "
            "'repro.monitor must not import numpy'"
        ).format(
            path=str(pathlib.Path(repro.monitor.__file__).parents[2]), module=module
        )
        subprocess.run([sys.executable, "-c", code], check=True)
