"""Multi-origin federation: scrape many telemetry sources, expose one.

A :class:`FederatedSource` owns a set of named origins, each backed by a
loader (a JSON file on disk or an HTTP endpoint serving JSON).  Every
origin serves one telemetry document (:mod:`repro.obs.telemetry`) — a
site shipper's file, a ``--metrics-out`` file, ``federate run``'s
``metrics.json`` or a monitor's ``/snapshot``.  They render into one
Prometheus text exposition through the document's own renderer, every
sample labelled ``origin="..."`` and each metric family declared once
even when several origins report it.  :meth:`FederatedSource.topology`
summarises the fleet (per origin: reachability, staleness, rounds,
report/telemetry bytes) for the monitor's ``/topology`` endpoint and the
dashboard's per-origin rows.

Stdlib-only, like the rest of the observability plane.
"""

from __future__ import annotations

import os
import time
import urllib.request
from typing import Any, Mapping

try:  # package layout
    from ..obs.telemetry import (
        escape_label,
        prometheus_families,
        render_families,
        telemetry_from_json,
        validate_telemetry,
    )
except ImportError:  # standalone layout: `obs` next to `federate`
    from obs.telemetry import (  # type: ignore
        escape_label,
        prometheus_families,
        render_families,
        telemetry_from_json,
        validate_telemetry,
    )

#: Topology document schema version (the ``/topology`` endpoint payload).
TOPOLOGY_VERSION = 1


class _FileLoader:
    """Reads one telemetry document from disk; age = file mtime."""

    kind = "file"

    def __init__(self, path: str) -> None:
        self.target = path

    def load(self) -> tuple[dict[str, Any], float | None]:
        with open(self.target, encoding="utf-8") as fh:
            doc = telemetry_from_json(fh.read())
        age = max(0.0, time.time() - os.path.getmtime(self.target))
        return doc, age

    def __repr__(self) -> str:
        return f"_FileLoader({self.target!r})"


class _HttpLoader:
    """Fetches one telemetry document over HTTP(S); age 0 (live scrape)."""

    kind = "http"

    def __init__(self, url: str, timeout: float = 5.0) -> None:
        self.target = url
        self.timeout = timeout

    def load(self) -> tuple[dict[str, Any], float | None]:
        with urllib.request.urlopen(self.target, timeout=self.timeout) as resp:
            doc = telemetry_from_json(resp.read().decode("utf-8"))
        return doc, 0.0

    def __repr__(self) -> str:
        return f"_HttpLoader({self.target!r})"


def _make_loader(target: str) -> Any:
    if target.startswith(("http://", "https://")):
        return _HttpLoader(target)
    return _FileLoader(target)


class FederatedSource:
    """Named origins, each scraped into one normalised metrics view.

    ``origins`` maps an origin name (``site.edge-0``) to a target string
    (path or URL) or to an already-built loader / zero-arg callable
    returning ``(document, age_seconds | None)``.
    """

    def __init__(self, origins: Mapping[str, Any]) -> None:
        if not origins:
            raise ValueError("a FederatedSource needs at least one origin")
        self._loaders: dict[str, Any] = {}
        for origin, target in origins.items():
            if not origin:
                raise ValueError("origin names must be non-empty")
            if isinstance(target, str):
                self._loaders[origin] = _make_loader(target)
            else:
                self._loaders[origin] = target

    @property
    def origins(self) -> list[str]:
        """The configured origin names, sorted."""
        return sorted(self._loaders)

    def _scrape(self, origin: str) -> dict[str, Any]:
        """One origin's validated document plus scrape bookkeeping."""
        loader = self._loaders[origin]
        entry: dict[str, Any] = {
            "origin": origin,
            "kind": getattr(loader, "kind", "callable"),
            "target": getattr(loader, "target", repr(loader)),
            "ok": False,
            "error": None,
            "age_seconds": None,
            "doc": None,
        }
        try:
            if callable(loader) and not hasattr(loader, "load"):
                doc, age = loader()
            else:
                doc, age = loader.load()
            entry["doc"] = validate_telemetry(doc)
            entry["age_seconds"] = age
            entry["ok"] = True
        except (OSError, ValueError) as exc:
            entry["error"] = f"{type(exc).__name__}: {exc}"
        return entry

    def prometheus(self, prefix: str = "repro") -> str:
        """One text exposition over all reachable origins.

        Every sample is labelled ``{origin="..."}``; each family gets a
        single ``# TYPE`` declaration even when several origins carry
        it, families sorted by name.  An extra ``<prefix>_federation_up``
        gauge reports per-origin scrape health (1 reachable, 0 not), so
        the exposition itself records partial scrapes — one dead or
        malformed site must not take down the rest.
        """
        scrapes = [self._scrape(origin) for origin in self.origins]
        up_family = f"{prefix}_federation_up"
        lines = [f"# TYPE {up_family} gauge"]
        for entry in scrapes:
            lines.append(
                f'{up_family}{{origin="{escape_label(entry["origin"])}"}} '
                f"{1 if entry['ok'] else 0}"
            )
        families = prometheus_families(
            [(entry["origin"], entry["doc"]) for entry in scrapes if entry["ok"]],
            prefix,
        )
        lines.extend(render_families(sorted(families.items())))
        return "\n".join(lines) + "\n"

    def topology(self) -> dict[str, Any]:
        """Fleet summary for the ``/topology`` endpoint.

        Per origin: loader kind and target, scrape health, last-report
        age, and the distributed-protocol vitals derived from the
        origin's own ``dist.*`` metrics — rounds closed, reports and
        payload bytes sent/received, and the telemetry piggyback bytes
        (the federation's own overhead).
        """
        origins: dict[str, dict[str, Any]] = {}
        for origin in self.origins:
            entry = self._scrape(origin)
            row: dict[str, Any] = {
                "kind": entry["kind"],
                "target": entry["target"],
                "ok": entry["ok"],
                "error": entry["error"],
                "age_seconds": entry["age_seconds"],
                "rounds": 0,
                "reports": 0,
                "bytes": 0,
                "telemetry_bytes": 0,
            }
            if entry["ok"]:
                counters = entry["doc"]["counters"]
                gauges = entry["doc"]["gauges"]

                def _take(*names: str) -> float:
                    return sum(float(counters.get(name, 0.0)) for name in names)

                row["rounds"] = int(
                    _take("dist.rounds.closed", "dist.rounds.merged")
                    or float(gauges.get("dist.round.max", [0.0])[0])
                )
                row["reports"] = int(
                    _take("dist.reports.sent", "dist.reports.received")
                )
                row["bytes"] = int(_take("dist.bytes.sent", "dist.bytes.received"))
                row["telemetry_bytes"] = int(
                    _take(
                        "dist.telemetry.bytes.sent",
                        "dist.telemetry.bytes.received",
                    )
                )
            origins[origin] = row
        return {
            "version": TOPOLOGY_VERSION,
            "kind": "repro.topology",
            "origins": origins,
        }


def federation_from_args(specs: list[str]) -> FederatedSource:
    """Build a :class:`FederatedSource` from ``ORIGIN=PATH_OR_URL`` specs
    (the ``--federate`` CLI flag, repeatable)."""
    origins: dict[str, str] = {}
    for spec in specs:
        origin, sep, target = spec.partition("=")
        if not sep or not origin or not target:
            raise ValueError(
                f"--federate spec {spec!r} must look like ORIGIN=PATH_OR_URL"
            )
        if origin in origins:
            raise ValueError(f"duplicate federation origin {origin!r}")
        origins[origin] = target
    return FederatedSource(origins)


__all__ = [
    "TOPOLOGY_VERSION",
    "FederatedSource",
    "federation_from_args",
]
