"""The telemetry document's contracts, pinned where they broke before.

* one capture path: the flight recorder's window survives a registry
  ``reset()`` between two ticks (it used to read the reset as a negative
  count);
* one non-finite rule: NaN and infinities cross the wire as strict JSON
  and come back as floats, and render as Prometheus literals;
* one validator: any JSON value either validates or raises
  ``ValueError`` — never ``TypeError``/``KeyError``/``AttributeError``,
  and a boolean is never an int;
* one renderer: the ``/metrics`` body for a fixed registry and audit
  state, and the federated body for the same state, match the bytes the
  two separate renderers produced before they were folded into one.
  The only differences are the two audit gauges that now share one
  name with the shipper and the recorder.
"""

from __future__ import annotations

import json
import re
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federate import FederatedSource, TelemetryShipper
from repro.monitor import AuditLog, DriftAlert, QueryAudit
from repro.monitor.service import MonitorServer, MonitorSource
from repro.obs import (
    METRICS,
    TELEMETRY_KIND,
    empty_telemetry,
    snapshot_to_prometheus,
    telemetry_from_json,
    telemetry_to_json,
    validate_telemetry,
)
from repro.obs.registry import MetricsRegistry
from repro.profile import FlightRecorder
from repro.trace.tracer import SpanTracer


# ---------------------------------------------------------------------------
# one capture path
# ---------------------------------------------------------------------------


def test_recorder_window_survives_registry_reset():
    METRICS.enable()
    recorder = FlightRecorder(enabled=True)
    METRICS.count("x", 5)
    recorder.tick()
    METRICS.reset()
    METRICS.count("x", 2)
    frame = recorder.tick()
    assert frame.counts == {"x": 2.0}


# ---------------------------------------------------------------------------
# one non-finite rule
# ---------------------------------------------------------------------------


def _refuse_constant(name):
    raise AssertionError(f"non-strict JSON constant {name} on the wire")


def test_nonfinite_values_cross_the_wire_as_strict_json():
    registry = MetricsRegistry(enabled=True)
    registry.gauge("g", float("nan"))
    registry.observe("h", float("inf"))
    registry.observe("h", float("-inf"))
    doc = registry.snapshot()
    text = telemetry_to_json(doc)
    json.loads(text, parse_constant=_refuse_constant)
    restored = telemetry_from_json(text)
    level = restored["gauges"]["g"][0]
    assert level != level  # NaN
    state = restored["histograms"]["h"]
    assert state["min"] == float("-inf") and state["max"] == float("inf")
    assert sorted(state["samples"]) == [float("-inf"), float("inf")]
    exposition = snapshot_to_prometheus(restored)
    assert "repro_g NaN" in exposition
    assert 'repro_h{quantile="0.5"} -Inf' in exposition
    assert 'repro_h{quantile="0.99"} +Inf' in exposition


# ---------------------------------------------------------------------------
# one validator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "field, value",
    [
        ("seq", True),
        ("spans_dropped", False),
        ("version", True),
        ("counters", {"c": True}),
        ("gauges", {"g": [1.0, True]}),
        ("histograms", {"h": {"count": True, "sum": 0.0, "min": 0.0, "max": 0.0,
                              "samples": []}}),
        ("spans", [{"name": "s", "id": True, "parent": None, "start": 0.0,
                    "end": 1.0, "attrs": {}}]),
    ],
)
def test_booleans_are_not_numbers(field, value):
    doc = empty_telemetry("site.a")
    doc[field] = value
    with pytest.raises(ValueError):
        validate_telemetry(doc)


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=5),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=12,
)
numbers = st.integers(min_value=-5, max_value=5) | st.floats()


def _maybe(valid):
    """Mostly-valid values, with arbitrary JSON mixed in."""
    return st.one_of(valid, json_values)


documents = st.fixed_dictionaries(
    {
        "version": _maybe(st.just(2)),
        "kind": _maybe(st.just(TELEMETRY_KIND)),
        "origin": _maybe(st.just("site.a")),
        "seq": _maybe(st.integers(min_value=0, max_value=3)),
        "counters": _maybe(st.dictionaries(st.text(max_size=3), _maybe(numbers))),
        "gauges": _maybe(
            st.dictionaries(
                st.text(max_size=3), _maybe(st.lists(_maybe(numbers), max_size=3))
            )
        ),
        "histograms": _maybe(
            st.dictionaries(
                st.text(max_size=3),
                _maybe(
                    st.fixed_dictionaries(
                        {
                            "count": _maybe(st.integers(min_value=0, max_value=3)),
                            "sum": _maybe(numbers),
                            "min": _maybe(numbers),
                            "max": _maybe(numbers),
                            "samples": _maybe(st.lists(_maybe(numbers), max_size=3)),
                        }
                    )
                ),
            )
        ),
        "spans": _maybe(
            st.lists(
                _maybe(
                    st.fixed_dictionaries(
                        {
                            "name": _maybe(st.just("s")),
                            "id": _maybe(st.integers(min_value=1, max_value=3)),
                            "parent": _maybe(st.none() | st.integers(1, 3)),
                            "start": _maybe(numbers),
                            "end": _maybe(numbers),
                            "attrs": _maybe(
                                st.dictionaries(st.text(max_size=3), json_values)
                            ),
                        }
                    )
                ),
                max_size=3,
            )
        ),
        "spans_dropped": _maybe(st.integers(min_value=0, max_value=3)),
    }
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(json_values, documents))
def test_validate_returns_a_document_or_raises_value_error(value):
    try:
        doc = validate_telemetry(value)
    except ValueError:
        return
    assert doc is value
    # A valid document survives the wire.
    validate_telemetry(telemetry_from_json(telemetry_to_json(doc)))


# ---------------------------------------------------------------------------
# one renderer: /metrics bytes pinned
# ---------------------------------------------------------------------------


def _audit(i, covered, bound_ok=True):
    return QueryAudit(
        estimate=1000.0 + i, dense_dense=600.0, dense_sparse=150.0,
        sparse_dense=150.0, sparse_sparse=100.0, sj_f_dense=5000.0,
        sj_g_dense=4000.0, sj_f_residual=300.0, sj_g_residual=200.0,
        width=128, depth=7, threshold_f=40.0, threshold_g=40.0,
        residual_linf_f=40.0, residual_linf_g=35.0,
        residual_bound_ok=bound_ok, delta=0.05, ci_halfwidth=250.0 + i,
        ci_low=750.0, ci_high=1250.0, realized_error=10.0 * i,
        covered=covered, streams=("f", "g"),
    )


def _golden_state():
    reg = MetricsRegistry(enabled=True)
    reg.count("engine.queries", 4)
    reg.count("engine.elements.seen", 12345)
    reg.count("dist.bytes.sent", 2048.5)
    reg.count("monitor.drift.alerts", 1)
    reg.counter("engine.idle")
    reg.gauge("skim.threshold", 40.0)
    reg.gauge("dist.round.max", 2)
    for i in range(5):
        reg.observe("engine.answer.seconds", 0.001 * (i + 1))
    for v in (0.25, 0.5, 0.125):
        reg.observe("skim.seconds", v)
    reg.histogram("estimate.skim_join.seconds")
    log = AuditLog(enabled=True)
    for i, (covered, ok) in enumerate(
        [(True, True), (False, True), (True, False), (None, True)]
    ):
        log.record(_audit(i, covered, ok))
    log.alert(DriftAlert(window=20, covered=10, coverage=0.5, target=0.9,
                         streams=("f", "g"), estimate=1.0, shadow_exact=2.0,
                         realized_error=1.0, ci_halfwidth=0.1))
    sites = {}
    for k in range(2):
        site_reg = MetricsRegistry(enabled=True)
        site_reg.count("dist.rounds.closed", 2 + k)
        site_reg.count("dist.bytes.sent", 100.0 * (k + 1))
        site_reg.gauge("dist.round.max", 2 + k)
        for i in range(100):
            site_reg.observe("dist.close.seconds", 0.001 * ((i * 37 + k) % 100))
        shipper = TelemetryShipper(f"site.edge-{k}", registry=site_reg,
                                   tracer=SpanTracer(enabled=True), audit=None)
        sites[f"site.edge-{k}"] = shipper.capture_telemetry()  # repro: noqa[R3] -- private always-enabled registry, not a singleton
    return reg, log, sites


def _gone():
    raise OSError("unreachable")


def _metrics_bodies() -> tuple[str, str]:
    reg, log, sites = _golden_state()
    source = MonitorSource(reg.snapshot, log.snapshot)
    origins = {"coordinator": lambda: (reg.snapshot(), 0.0), "site.gone": _gone}
    for name, doc in sites.items():
        origins[name] = (lambda d=doc: (d, 0.0))
    federation = FederatedSource(origins)
    out = []
    for fed in (None, federation):
        with MonitorServer(source, port=0, federation=fed) as server:
            with urllib.request.urlopen(f"{server.url}/metrics") as resp:
                out.append(resp.read().decode("utf-8"))
    return out


#: The ``/metrics`` body for :func:`_golden_state`, captured from the two
#: separate renderers before they were folded into one.
PLAIN_METRICS = '''\
# TYPE repro_dist_bytes_sent_total counter
repro_dist_bytes_sent_total 2048.5
# TYPE repro_engine_elements_seen_total counter
repro_engine_elements_seen_total 12345.0
# TYPE repro_engine_idle_total counter
repro_engine_idle_total 0.0
# TYPE repro_engine_queries_total counter
repro_engine_queries_total 4.0
# TYPE repro_monitor_drift_alerts_total counter
repro_monitor_drift_alerts_total 1.0
# TYPE repro_dist_round_max gauge
repro_dist_round_max 2.0
# TYPE repro_skim_threshold gauge
repro_skim_threshold 40.0
# TYPE repro_monitor_audits_recorded gauge
repro_monitor_audits_recorded 4.0
# TYPE repro_monitor_audits_retained gauge
repro_monitor_audits_retained 4.0
# TYPE repro_monitor_audits_evicted gauge
repro_monitor_audits_evicted 0.0
# TYPE repro_monitor_drift_alerts gauge
repro_monitor_drift_alerts 1.0
# TYPE repro_monitor_audit_last_estimate gauge
repro_monitor_audit_last_estimate 1003.0
# TYPE repro_monitor_audit_last_ci_halfwidth gauge
repro_monitor_audit_last_ci_halfwidth 253.0
# TYPE repro_monitor_audit_last_realized_error gauge
repro_monitor_audit_last_realized_error 30.0
# TYPE repro_monitor_audit_residual_bound_ok_fraction gauge
repro_monitor_audit_residual_bound_ok_fraction 0.75
# TYPE repro_monitor_audit_ci_coverage gauge
repro_monitor_audit_ci_coverage 0.6666666666666666
# TYPE repro_engine_answer_seconds summary
repro_engine_answer_seconds{quantile="0.5"} 0.003
repro_engine_answer_seconds{quantile="0.95"} 0.005
repro_engine_answer_seconds{quantile="0.99"} 0.005
repro_engine_answer_seconds_sum 0.015
repro_engine_answer_seconds_count 5
# TYPE repro_estimate_skim_join_seconds summary
repro_estimate_skim_join_seconds{quantile="0.5"} 0.0
repro_estimate_skim_join_seconds{quantile="0.95"} 0.0
repro_estimate_skim_join_seconds{quantile="0.99"} 0.0
repro_estimate_skim_join_seconds_sum 0.0
repro_estimate_skim_join_seconds_count 0
# TYPE repro_skim_seconds summary
repro_skim_seconds{quantile="0.5"} 0.25
repro_skim_seconds{quantile="0.95"} 0.5
repro_skim_seconds{quantile="0.99"} 0.5
repro_skim_seconds_sum 0.875
repro_skim_seconds_count 3
'''

#: The federated ``/metrics`` body for the same state, captured likewise.
FEDERATED_METRICS = '''\
# TYPE repro_federation_up gauge
repro_federation_up{origin="coordinator"} 1
repro_federation_up{origin="site.edge-0"} 1
repro_federation_up{origin="site.edge-1"} 1
repro_federation_up{origin="site.gone"} 0
# TYPE repro_dist_bytes_sent_total counter
repro_dist_bytes_sent_total{origin="coordinator"} 2048.5
repro_dist_bytes_sent_total{origin="site.edge-0"} 100.0
repro_dist_bytes_sent_total{origin="site.edge-1"} 200.0
# TYPE repro_dist_close_seconds summary
repro_dist_close_seconds{origin="site.edge-0",quantile="0.5"} 0.05
repro_dist_close_seconds{origin="site.edge-0",quantile="0.95"} 0.093
repro_dist_close_seconds{origin="site.edge-0",quantile="0.99"} 0.096
repro_dist_close_seconds_sum{origin="site.edge-0"} 4.949999999999999
repro_dist_close_seconds_count{origin="site.edge-0"} 100
repro_dist_close_seconds{origin="site.edge-1",quantile="0.5"} 0.05
repro_dist_close_seconds{origin="site.edge-1",quantile="0.95"} 0.093
repro_dist_close_seconds{origin="site.edge-1",quantile="0.99"} 0.096
repro_dist_close_seconds_sum{origin="site.edge-1"} 4.949999999999999
repro_dist_close_seconds_count{origin="site.edge-1"} 100
# TYPE repro_dist_round_max gauge
repro_dist_round_max{origin="coordinator"} 2.0
repro_dist_round_max{origin="site.edge-0"} 2.0
repro_dist_round_max{origin="site.edge-1"} 3.0
# TYPE repro_dist_rounds_closed_total counter
repro_dist_rounds_closed_total{origin="site.edge-0"} 2.0
repro_dist_rounds_closed_total{origin="site.edge-1"} 3.0
# TYPE repro_engine_answer_seconds summary
repro_engine_answer_seconds{origin="coordinator",quantile="0.5"} 0.003
repro_engine_answer_seconds{origin="coordinator",quantile="0.95"} 0.005
repro_engine_answer_seconds{origin="coordinator",quantile="0.99"} 0.005
repro_engine_answer_seconds_sum{origin="coordinator"} 0.015
repro_engine_answer_seconds_count{origin="coordinator"} 5
# TYPE repro_engine_elements_seen_total counter
repro_engine_elements_seen_total{origin="coordinator"} 12345.0
# TYPE repro_engine_idle_total counter
repro_engine_idle_total{origin="coordinator"} 0.0
# TYPE repro_engine_queries_total counter
repro_engine_queries_total{origin="coordinator"} 4.0
# TYPE repro_estimate_skim_join_seconds summary
repro_estimate_skim_join_seconds{origin="coordinator",quantile="0.5"} 0.0
repro_estimate_skim_join_seconds{origin="coordinator",quantile="0.95"} 0.0
repro_estimate_skim_join_seconds{origin="coordinator",quantile="0.99"} 0.0
repro_estimate_skim_join_seconds_sum{origin="coordinator"} 0.0
repro_estimate_skim_join_seconds_count{origin="coordinator"} 0
# TYPE repro_monitor_drift_alerts_total counter
repro_monitor_drift_alerts_total{origin="coordinator"} 1.0
# TYPE repro_skim_seconds summary
repro_skim_seconds{origin="coordinator",quantile="0.5"} 0.25
repro_skim_seconds{origin="coordinator",quantile="0.95"} 0.5
repro_skim_seconds{origin="coordinator",quantile="0.99"} 0.5
repro_skim_seconds_sum{origin="coordinator"} 0.875
repro_skim_seconds_count{origin="coordinator"} 3
# TYPE repro_skim_threshold gauge
repro_skim_threshold{origin="coordinator"} 40.0
'''

#: The audit gauges that now carry the shipper's and recorder's names.
_RENAMED = {
    "repro_monitor_drift_alerts": "repro_audit_alerts",
    "repro_monitor_audit_ci_coverage": "repro_audit_coverage",
}


def _renamed(text: str) -> str:
    pattern = r"\b(" + "|".join(_RENAMED) + r")(?=[ {])"
    return re.sub(pattern, lambda m: _RENAMED[m.group(1)], text)


def test_metrics_bodies_match_the_pinned_bytes():
    plain, federated = _metrics_bodies()
    assert plain == _renamed(PLAIN_METRICS)
    assert federated == FEDERATED_METRICS
