"""repro.federate — cross-process telemetry for the distributed fleet.

The observability singletons (``repro.obs.METRICS``,
``repro.trace.TRACER``, ``repro.profile.RECORDER``,
``repro.monitor.AUDIT``) are process-local; the paper's deployment (§1)
is many sites and one coordinator.  This package federates the two on
top of the telemetry document (:mod:`repro.obs.telemetry`, which owns
the schema, JSON, merge algebra and Prometheus exposition):

* :class:`TelemetryShipper` captures a site's singleton state into
  successive delta documents;
* :class:`~repro.distributed.SketchSite` piggybacks those on its sketch
  reports (``telemetry=True``) together with the coordinator-minted
  :class:`~repro.distributed.TraceContext`, and
  :class:`~repro.distributed.SketchCoordinator` folds them back into its
  own registry (counters sum, gauges last-write-by-timestamp, histograms
  merge reservoirs) and tracer (span trees stitched under the receiving
  round span, per-origin Perfetto lanes);
* :class:`FederatedSource` scrapes many documents — live monitor
  endpoints or files — into one origin-labelled Prometheus exposition
  and a fleet ``/topology`` summary for ``python -m repro.monitor serve
  --federate``.

``python -m repro.federate`` hosts ``selfcheck`` (merge algebra + wire
round-trips) and ``run`` (a multi-site demo producing merged metrics, a
stitched trace, and per-origin telemetry files); ``python -m repro.obs
validate|diff|merge`` works on the files.

Everything importable here is standard-library only; the ``run``
demo imports the sketch machinery (numpy) lazily.
"""

from __future__ import annotations

from .federation import TOPOLOGY_VERSION, FederatedSource, federation_from_args
from .shipper import DEFAULT_SPAN_BATCH, TelemetryShipper

__all__ = [
    "DEFAULT_SPAN_BATCH",
    "FederatedSource",
    "TOPOLOGY_VERSION",
    "TelemetryShipper",
    "federation_from_args",
]
