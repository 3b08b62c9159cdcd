"""Estimate-quality monitoring for skimmed-sketch join estimates.

The paper proves ESTSKIMJOINSIZE is accurate w.h.p.; this package makes
that guarantee *observable* at runtime:

* :mod:`repro.monitor.audit` — per-query :class:`QueryAudit` records
  (sub-join terms, residual self-join sizes, skim thresholds, the
  ``‖residual‖∞ < 2T`` contract check, and an a-posteriori confidence
  interval), collected in the process-wide :data:`AUDIT` ring;
* :mod:`repro.monitor.shadow` — :class:`ShadowAuditor` keeps exact joint
  frequencies on a hash-sampled sub-domain and raises
  :class:`DriftAlert` when realized error stops fitting the CIs;
* :mod:`repro.monitor.service` — a stdlib HTTP server exposing
  ``/metrics`` (Prometheus), ``/health``, ``/audits`` and ``/snapshot``
  (imported lazily; ``python -m repro.obs serve``).

Like ``repro.obs`` and ``repro.trace``, auditing is **off by default**:
:data:`AUDIT` starts disabled and every instrumentation hook in the
estimator / engine / coordinator sits behind one ``if _AUDIT.enabled:``
branch (enforced repo-wide by linter rule R3).  ``import repro.monitor``
loads only the standard library.
"""

from .audit import (
    AuditLog,
    DEFAULT_DELTA,
    DEFAULT_MAX_AUDITS,
    QueryAudit,
    RESIDUAL_BOUND_FACTOR,
    audit_from_dict,
    audit_gauges,
    confidence_halfwidth,
    per_table_tail_probability,
    read_audit_jsonl,
)
from .shadow import DriftAlert, ShadowAuditor

#: Process-wide audit log.  Off by default; ``AUDIT.enable()`` (or
#: ``python -m repro.eval ... --audit-out audits.jsonl``) turns it on.
AUDIT = AuditLog(enabled=False)

__all__ = [
    "AUDIT",
    "AuditLog",
    "DEFAULT_DELTA",
    "DEFAULT_MAX_AUDITS",
    "DriftAlert",
    "QueryAudit",
    "RESIDUAL_BOUND_FACTOR",
    "ShadowAuditor",
    "audit_from_dict",
    "audit_gauges",
    "confidence_halfwidth",
    "per_table_tail_probability",
    "read_audit_jsonl",
]
