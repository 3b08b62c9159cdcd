"""Live monitoring HTTP surface: metrics, audits, profiles, dashboard.

``python -m repro.obs serve`` turns a (running or finished) audited
experiment into something scrapeable like a production service:

* ``/metrics`` — Prometheus text exposition of the metrics document via
  the telemetry document's renderer, with monitor-level gauges
  (``monitor.audits.recorded``, ``monitor.audits.retained``,
  ``audit.alerts``, ``audit.coverage``,
  ``monitor.audit.last_realized_error``, …) merged in;
* ``/health`` — liveness JSON (status, audit/alert counts);
* ``/audits`` — the most recent :class:`QueryAudit` records as JSON
  (``?n=`` limits the count; any other query parameter is a 400);
* ``/snapshot`` — the metrics telemetry document, for ``repro.obs diff``;
* ``/profile`` — the ``repro.profile`` sample snapshot JSON;
* ``/timeseries`` — the flight-recorder telemetry snapshot JSON;
* ``/dashboard`` — a self-contained HTML page (inline SVG sparklines
  for throughput/error/coverage plus the hottest profiled frames),
  rendered by :mod:`repro.monitor.dashboard` with no external assets.

Every endpoint also answers ``HEAD`` (headers only, correct
``Content-Length``), and every response carries an explicit
``Content-Length`` so curl/Prometheus never wait on a silent EOF.

The server reads through a :class:`MonitorSource`, so the same handler
serves the **live** process registries (``repro.obs.METRICS`` /
``repro.monitor.AUDIT`` / ``repro.profile.PROFILER``/``RECORDER``) or
**files** written by ``--metrics-out`` / ``--audit-out`` /
``--profile-out`` / ``--timeseries-out`` — the latter is what ``make
obs-smoke`` scrapes.  The source holds the :class:`AuditLog` itself, so a
scrape reads the ring's counts and last audit directly and only
``/audits`` serialises audits (just the ones it returns).

Imports are stdlib plus the other observability packages; importing the
module loads no numpy (the test suite enforces it).
"""

from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable
from urllib.parse import parse_qs, urlparse

from ..obs import METRICS
from ..obs.jsonl import read_jsonl
from ..obs.telemetry import (
    empty_telemetry,
    read_telemetry,
    snapshot_to_prometheus,
    telemetry_to_json,
)
from ..profile import PROFILER, RECORDER, validate_profile, validate_timeseries
from . import AUDIT
from .audit import AuditLog, audit_gauges, read_audit_jsonl

#: Empty metrics document (served when no metrics source exists).
EMPTY_SNAPSHOT: dict[str, Any] = empty_telemetry("local")

#: Empty version-1 profile snapshot (served when no profile source exists).
EMPTY_PROFILE: dict[str, Any] = {
    "version": 1,
    "kind": "repro.profile",
    "hz": 0.0,
    "dropped": 0,
    "samples": [],
}

#: Empty version-1 timeseries snapshot (served when no recorder exists).
EMPTY_TIMESERIES: dict[str, Any] = {
    "version": 1,
    "kind": "repro.timeseries",
    "interval": 0.0,
    "pushed": 0,
    "aged": 0,
    "frames": [],
}


class MonitorSource:
    """What the HTTP handlers read: three snapshot thunks and the audit log.

    ``metrics_snapshot`` returns a telemetry document; ``audits`` is the
    :class:`AuditLog` itself (read in place — a scrape never serialises
    the ring); ``profile_snapshot`` / ``timeseries_snapshot`` return the
    ``repro.profile`` sampler/recorder snapshots (both optional — they
    default to empty documents so a metrics-only deployment needs no
    profiler).  The thunks are called per request, so live sources
    always serve fresh state.
    """

    def __init__(
        self,
        metrics_snapshot: Callable[[], dict[str, Any]],
        audits: AuditLog,
        profile_snapshot: Callable[[], dict[str, Any]] | None = None,
        timeseries_snapshot: Callable[[], dict[str, Any]] | None = None,
    ) -> None:
        self.metrics_snapshot = metrics_snapshot
        self.audits = audits
        self.profile_snapshot = profile_snapshot or (lambda: dict(EMPTY_PROFILE))
        self.timeseries_snapshot = timeseries_snapshot or (
            lambda: dict(EMPTY_TIMESERIES)
        )


def live_source() -> MonitorSource:
    """Source backed by the process-wide ``METRICS``, ``AUDIT``,
    ``PROFILER`` and ``RECORDER``."""
    return MonitorSource(
        METRICS.snapshot, AUDIT, PROFILER.snapshot, RECORDER.snapshot
    )


def file_source(
    metrics_path: str | None = None,
    audits_path: str | None = None,
    profile_path: str | None = None,
    timeseries_path: str | None = None,
) -> MonitorSource:
    """Source backed by ``--metrics-out`` / ``--audit-out`` /
    ``--profile-out`` / ``--timeseries-out`` files.

    Files are read once, eagerly, so a bad path fails at startup rather
    than mid-scrape; raises ``ValueError`` / ``OSError`` on bad input.
    """
    if metrics_path is not None:
        snapshot = read_telemetry(metrics_path)
    else:
        snapshot = dict(EMPTY_SNAPSHOT)
    log = AuditLog(enabled=True)
    if audits_path is not None:
        audits, alerts = read_audit_jsonl(audits_path)
        for audit in audits:
            log.record(audit)
        for alert in alerts:
            log.alert(_DictAlert(alert))
    log.disable()
    if profile_path is not None:
        profile_doc = validate_profile(read_jsonl(profile_path))
    else:
        profile_doc = dict(EMPTY_PROFILE)
    if timeseries_path is not None:
        timeseries_doc = validate_timeseries(read_jsonl(timeseries_path))
    else:
        timeseries_doc = dict(EMPTY_TIMESERIES)
    return MonitorSource(
        lambda: snapshot,
        log,
        lambda: profile_doc,
        lambda: timeseries_doc,
    )


class _DictAlert:
    """Re-wraps an alert dict read back from JSONL for ``AuditLog``."""

    def __init__(self, data: dict[str, Any]) -> None:
        self._data = data

    def as_dict(self) -> dict[str, Any]:
        """The original wire dict, unchanged."""
        return self._data


def _read_stable(read: Callable[[], dict[str, Any]]) -> dict[str, Any]:
    """Call a snapshot thunk, retrying the transient ``RuntimeError`` a
    lock-free live registry raises when a hot path inserts a brand-new
    metric mid-iteration.  Retries settle it in practice (the name set
    stabilises after warm-up); the final attempt propagates so a truly
    broken source still surfaces as a 500.
    """
    for _ in range(5):
        try:
            return read()
        except RuntimeError:
            continue
    return read()


def _stable_source(source: MonitorSource) -> MonitorSource:
    """A view of ``source`` whose thunks read through :func:`_read_stable`."""
    return MonitorSource(
        lambda: _read_stable(source.metrics_snapshot),
        source.audits,
        lambda: _read_stable(source.profile_snapshot),
        lambda: _read_stable(source.timeseries_snapshot),
    )


def merged_metrics_snapshot(source: MonitorSource) -> dict[str, Any]:
    """Metrics document with monitor-level gauges merged in.

    The audit ring is summarised as gauges so one ``/metrics`` scrape
    carries both the engine metrics and the estimate-quality state;
    ``audit.alerts`` and ``audit.coverage`` come from
    :func:`~repro.monitor.audit.audit_gauges`, the same function the
    shipper and the flight recorder read.
    """
    snapshot = source.metrics_snapshot()
    log = source.audits
    records = log.audits()  # one list copy; nothing is serialised
    merged = dict(snapshot, gauges=dict(snapshot["gauges"]))
    now = time.time()

    def put(name: str, value: float) -> None:
        merged["gauges"][name] = [float(value), now]

    signals = audit_gauges((a.covered for a in records), len(log.alerts))
    put("monitor.audits.recorded", log.recorded)
    put("monitor.audits.retained", len(records))
    put("monitor.audits.evicted", log.evicted)
    put("audit.alerts", signals["audit.alerts"])
    if records:
        last = records[-1]
        for field, metric in (
            ("estimate", "monitor.audit.last_estimate"),
            ("ci_halfwidth", "monitor.audit.last_ci_halfwidth"),
            ("realized_error", "monitor.audit.last_realized_error"),
        ):
            value = getattr(last, field)
            if isinstance(value, (int, float)) and math.isfinite(value):
                put(metric, value)
        bound_ok = sum(1.0 for a in records if a.residual_bound_ok)
        put("monitor.audit.residual_bound_ok_fraction", bound_ok / len(records))
    # Last: the exposition lists gauges in insertion order, and
    # tests/test_telemetry.py pins that order.
    if "audit.coverage" in signals:
        put("audit.coverage", signals["audit.coverage"])
    return merged


def parse_prometheus(text: str) -> list[tuple[str, float]]:
    """Parse text exposition into ``(sample_name, value)`` pairs.

    A deliberately strict little parser (used by ``python -m repro.obs
    selfcheck`` and the tests): every non-comment, non-blank line must
    be ``name[{labels}] value``; raises ``ValueError`` otherwise.
    """
    samples: list[tuple[str, float]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.rsplit(" ", 1)
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: not 'name value': {line!r}")
        name, raw = parts
        try:
            value = float(raw.replace("+Inf", "inf").replace("-Inf", "-inf"))
        except ValueError:
            raise ValueError(f"line {lineno}: bad sample value {raw!r}") from None
        samples.append((name, value))
    return samples


class _MonitorHandler(BaseHTTPRequestHandler):
    """Request handler for the monitoring endpoints (quiet by default)."""

    server_version = "repro-monitor/1"
    source: MonitorSource  # attached by MonitorServer
    prefix = "repro"
    # Optional repro.federate.FederatedSource (attached by MonitorServer):
    # /metrics becomes the origin-labelled federated exposition and
    # /topology reports the fleet.
    federation: Any = None

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        """Dispatch ``/metrics``, ``/health``, ``/audits``, ``/snapshot``,
        ``/profile``, ``/timeseries``, ``/topology``, ``/dashboard``."""
        url = urlparse(self.path)
        source = _stable_source(self.source)
        try:
            if url.path == "/metrics":
                if self.federation is not None:
                    body = self.federation.prometheus(prefix=self.prefix)
                else:
                    body = snapshot_to_prometheus(
                        merged_metrics_snapshot(source), prefix=self.prefix
                    )
                self._reply(200, body, "text/plain; version=0.0.4; charset=utf-8")
            elif url.path == "/topology":
                if self.federation is not None:
                    payload = self.federation.topology()
                else:
                    payload = {"version": 1, "kind": "repro.topology", "origins": {}}
                self._reply(200, json.dumps(payload), "application/json")
            elif url.path == "/health":
                log = source.audits
                payload = {
                    "status": "ok",
                    "audits": len(log),
                    "recorded": log.recorded,
                    "alerts": len(log.alerts),
                }
                self._reply(200, json.dumps(payload), "application/json")
            elif url.path == "/audits":
                query = parse_qs(url.query, keep_blank_values=True)
                unknown = sorted(set(query) - {"n"})
                if unknown:
                    self._reply(
                        400,
                        f"unknown query parameter(s): {', '.join(unknown)}\n",
                        "text/plain",
                    )
                    return
                limit = None
                if "n" in query:
                    try:
                        limit = max(0, int(query["n"][0]))
                    except ValueError:
                        self._reply(400, "bad ?n= parameter\n", "text/plain")
                        return
                self._reply(
                    200,
                    json.dumps(source.audits.snapshot(limit)),
                    "application/json",
                )
            elif url.path == "/snapshot":
                self._reply(
                    200,
                    telemetry_to_json(source.metrics_snapshot()),
                    "application/json",
                )
            elif url.path == "/profile":
                self._reply(
                    200, json.dumps(source.profile_snapshot()), "application/json"
                )
            elif url.path == "/timeseries":
                self._reply(
                    200,
                    json.dumps(source.timeseries_snapshot()),
                    "application/json",
                )
            elif url.path == "/dashboard":
                from .dashboard import render_dashboard

                self._reply(
                    200,
                    render_dashboard(source, federation=self.federation),
                    "text/html; charset=utf-8",
                )
            else:
                self._reply(404, f"no such endpoint: {url.path}\n", "text/plain")
        except Exception as exc:  # defensive: a scrape must never kill the server
            self._reply(500, f"internal error: {exc}\n", "text/plain")

    def do_HEAD(self) -> None:  # noqa: N802 - http.server API
        """Same dispatch as GET; ``_reply`` omits the body for HEAD."""
        self.do_GET()

    def _reply(self, status: int, body: str, content_type: str) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(data)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Silence per-request stderr logging (scrapes are frequent)."""


class MonitorServer:
    """A threaded HTTP server wrapping :class:`_MonitorHandler`.

    ``port=0`` binds an ephemeral port (the bound port is available as
    ``.port`` after :meth:`start`).  The server runs on a daemon thread;
    call :meth:`stop` to shut it down deterministically.
    """

    def __init__(
        self,
        source: MonitorSource,
        host: str = "127.0.0.1",
        port: int = 0,
        prefix: str = "repro",
        federation: Any = None,
    ) -> None:
        handler = type(
            "_BoundMonitorHandler",
            (_MonitorHandler,),
            {"source": source, "prefix": prefix, "federation": federation},
        )
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        """Bound host address."""
        return str(self._httpd.server_address[0])

    @property
    def port(self) -> int:
        """Bound TCP port (resolved even when constructed with 0)."""
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "MonitorServer":
        """Start serving on a daemon thread; returns ``self``."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-monitor", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down and join its thread (idempotent)."""
        if self._thread is None:
            return
        self._httpd.shutdown()
        self._thread.join(timeout=5.0)
        self._httpd.server_close()
        self._thread = None

    def __enter__(self) -> "MonitorServer":
        """Start on context entry."""
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        """Stop on context exit."""
        self.stop()
