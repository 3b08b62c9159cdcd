"""Stream query-processing engine (paper Figure 1).

The engine is the architectural shell around the synopses: it owns one
schema (so every registered stream's sketch is join-compatible), applies
per-stream selection predicates *before* synopsis maintenance ("we simply
drop from the streams elements that do not satisfy the predicates"), and
answers the §2.1 query class — COUNT/SUM/AVERAGE over binary joins,
self-joins and point frequencies — from synopses alone, never from the raw
streams (which, per the stream model, can only be seen once).

Synopsis choice is pluggable: ``"skimmed"`` (the paper's algorithm,
default), ``"agms"`` (the basic-sketching baseline) or ``"hash"``
(unskimmed hash sketches, i.e. Fast-AGMS) — useful for side-by-side
comparisons through one interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from contextlib import nullcontext
from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..errors import ParameterError, QueryError
from ..monitor import AUDIT as _AUDIT
from ..monitor.shadow import ShadowAuditor
from ..obs import METRICS as _METRICS, OBS as _OBS
from ..sketches.agms import AGMSSchema, AGMSSketch
from ..sketches.hash_sketch import HashSketch, HashSketchSchema
from ..streams.model import Update
from .multijoin import MultiJoinSchema, RelationSketch, est_multi_join_count
from .query import (
    JoinAverageQuery,
    JoinCountQuery,
    JoinSumQuery,
    MultiJoinCountQuery,
    PointQuery,
    Predicate,
    Query,
    SelfJoinQuery,
    TruePredicate,
)

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from ..core.config import SketchParameters
    from ..core.estimator import SkimmedSketch

#: Synopsis kinds the engine can maintain.
SYNOPSIS_KINDS = ("skimmed", "agms", "hash")


@dataclass
class _RegisteredStream:
    """Book-keeping for one registered stream."""

    name: str
    predicate: Predicate
    synopsis: "SkimmedSketch | AGMSSketch | HashSketch"
    elements_seen: int = 0
    elements_dropped: int = 0


class StreamEngine:
    """One-pass query engine over named update streams.

    Parameters
    ----------
    domain_size:
        Common value domain of all streams.
    parameters:
        Sketch dimensions (width/depth or averaging/median, depending on
        the synopsis kind) — see :class:`~repro.core.config.SketchParameters`.
    synopsis:
        ``"skimmed"`` | ``"agms"`` | ``"hash"``.
    seed:
        Seed shared by all synopses (required for join compatibility).
    """

    def __init__(
        self,
        domain_size: int,
        parameters: "SketchParameters",
        synopsis: str = "skimmed",
        seed: int = 0,
        attribute_domains: dict[str, int] | None = None,
    ):
        # Imported here (not at module top) because repro.core depends on
        # repro.streams.model; a top-level import would close the cycle.
        from ..core.estimator import SkimmedSketchSchema

        if synopsis not in SYNOPSIS_KINDS:
            raise ParameterError(
                f"synopsis must be one of {SYNOPSIS_KINDS}, got {synopsis!r}"
            )
        self.domain_size = domain_size
        self.parameters = parameters
        self.synopsis_kind = synopsis
        self.seed = seed
        self._shadow: ShadowAuditor | None = None
        self._streams: dict[str, _RegisteredStream] = {}
        self._relations: dict[str, RelationSketch] = {}
        # Multi-join relations (§2.1 extension, per Dobra et al. [5]) are
        # opt-in: pass the join attributes' domains to enable them.
        self._multijoin_schema = (
            MultiJoinSchema(
                parameters.width, parameters.depth, attribute_domains, seed=seed
            )
            if attribute_domains
            else None
        )
        if synopsis == "skimmed":
            self._schema = SkimmedSketchSchema(
                parameters.width,
                parameters.depth,
                domain_size,
                seed=seed,
                threshold_multiplier=parameters.threshold_multiplier,
            )
        elif synopsis == "hash":
            self._schema = HashSketchSchema(
                parameters.width, parameters.depth, domain_size, seed=seed
            )
        else:
            averaging, median = parameters.basic_agms_equivalent()
            self._schema = AGMSSchema(averaging, median, domain_size, seed=seed)

    # -- stream registration & maintenance -------------------------------------

    def register_stream(self, name: str, predicate: Predicate | None = None) -> None:
        """Declare a stream; elements failing ``predicate`` are dropped."""
        if name in self._streams:
            raise QueryError(f"stream {name!r} already registered")
        self._streams[name] = _RegisteredStream(
            name=name,
            predicate=predicate if predicate is not None else TruePredicate(),
            synopsis=self._schema.create_sketch(),
        )

    def streams(self) -> list[str]:
        """Names of all registered streams."""
        return list(self._streams)

    def attach_shadow(self, auditor: ShadowAuditor | None) -> None:
        """Attach (or detach, with ``None``) a shadow-exact drift auditor.

        While ``repro.monitor.AUDIT`` is enabled, every ingested element
        is also folded into the auditor's exact sampled frequencies, and
        every audited join query gets a realized-error verdict (plus a
        :class:`~repro.monitor.shadow.DriftAlert` when a rolling window's
        CI coverage drops below the auditor's target).  Attach it before
        elements flow — values ingested earlier are invisible to it.
        """
        self._shadow = auditor

    def register_relation(self, name: str, attributes: tuple[str, ...]) -> None:
        """Declare a multi-attribute relation for multi-join queries.

        Requires the engine to have been constructed with
        ``attribute_domains``; tuples are fed via :meth:`process_tuple`.
        """
        if self._multijoin_schema is None:
            raise QueryError(
                "multi-join support is off: construct the engine with "
                "attribute_domains to enable register_relation"
            )
        if name in self._relations or name in self._streams:
            raise QueryError(f"name {name!r} already registered")
        self._relations[name] = self._multijoin_schema.create_relation(attributes)

    def process_tuple(self, relation: str, values, weight: float = 1.0) -> None:
        """Feed one relation tuple (join-attribute values, in declared order)."""
        self._lookup_relation(relation).update(values, weight)

    def process(self, stream: str, value: int, weight: float = 1.0) -> None:
        """Feed one stream element through predicate filtering into the synopsis."""
        registered = self._lookup(stream)
        registered.elements_seen += 1
        if not registered.predicate.accepts(value):
            registered.elements_dropped += 1
            if _OBS.enabled:
                _METRICS.count("engine.elements.seen")
                _METRICS.count("engine.elements.dropped")
            return
        with _OBS.span(
            "engine.ingest", stream=stream, elements=1
        ) if _OBS.enabled else nullcontext():
            self._ingest_one(registered, value, weight)
        if _AUDIT.enabled and self._shadow is not None:
            self._shadow.observe(stream, value, weight)
        if _OBS.enabled:
            _METRICS.count("engine.elements.seen")
            _METRICS.count(f"engine.stream.{stream}.elements")

    def process_many(
        self, stream: str, updates: Iterable[Update], chunk_size: int = 4096
    ) -> None:
        """Feed a finite update stream, chunked onto the bulk path.

        Updates are buffered into arrays of up to ``chunk_size`` elements
        and ingested via :meth:`process_bulk`, so ``Update``-object
        streams get the vectorised predicate + fused-kernel path instead
        of per-element :meth:`process` calls.  Note the coarser failure
        granularity: an out-of-domain value aborts its whole chunk rather
        than just the elements after it.
        """
        if chunk_size < 1:
            raise ParameterError(f"chunk_size must be >= 1, got {chunk_size}")
        values: list[int] = []
        weights: list[float] = []
        for item in updates:
            values.append(item.value)
            weights.append(item.weight)
            if len(values) >= chunk_size:
                self.process_bulk(
                    stream,
                    np.asarray(values, dtype=np.int64),
                    np.asarray(weights, dtype=np.float64),
                )
                values.clear()
                weights.clear()
        if values:
            self.process_bulk(
                stream,
                np.asarray(values, dtype=np.int64),
                np.asarray(weights, dtype=np.float64),
            )

    def process_bulk(
        self, stream: str, values: np.ndarray, weights: np.ndarray | None = None
    ) -> None:
        """Vectorised batch ingestion (predicate applied per element)."""
        registered = self._lookup(stream)
        values = np.asarray(values, dtype=np.int64)
        registered.elements_seen += int(values.size)
        keep = registered.predicate.accepts_bulk(values)
        kept = int(keep.sum())
        registered.elements_dropped += int(values.size - kept)
        if _OBS.enabled:
            _METRICS.count("engine.elements.seen", int(values.size))
            _METRICS.count("engine.elements.dropped", int(values.size - kept))
            _METRICS.count(f"engine.stream.{stream}.elements", kept)
        if not kept:
            return
        if kept == values.size:
            kept_values = values
            kept_weights = None if weights is None else np.asarray(weights)
        else:
            kept_values = values[keep]
            kept_weights = None if weights is None else np.asarray(weights)[keep]
        with _OBS.span(
            "engine.ingest",
            stream=stream,
            elements=int(values.size),
            kept=kept,
        ) if _OBS.enabled else nullcontext():
            self._ingest_bulk(registered, kept_values, kept_weights)
        if _AUDIT.enabled and self._shadow is not None:
            self._shadow.observe_bulk(
                stream,
                kept_values.tolist(),
                None if kept_weights is None else kept_weights.tolist(),
            )

    # -- ingestion hooks (override points for parallel engines) -----------------

    def _ingest_one(
        self, registered: _RegisteredStream, value: int, weight: float
    ) -> None:
        """Fold one filtered element into the stream's synopsis."""
        registered.synopsis.update(value, weight)

    def _ingest_bulk(
        self,
        registered: _RegisteredStream,
        values: np.ndarray,
        weights: np.ndarray | None,
    ) -> None:
        """Fold a filtered batch into the stream's synopsis.

        :class:`~repro.parallel.ParallelStreamEngine` overrides this (and
        :meth:`_ingest_one`) to route batches through sharded workers;
        everything else — predicates, metrics, tracing, shadow audits,
        query answering — is inherited unchanged.
        """
        registered.synopsis.update_bulk(values, weights)

    def stream_stats(self, stream: str) -> tuple[int, int]:
        """``(elements_seen, elements_dropped_by_predicate)`` for a stream."""
        registered = self._lookup(stream)
        return registered.elements_seen, registered.elements_dropped

    def synopsis_for(self, stream: str):
        """Direct access to a stream's synopsis (for advanced queries)."""
        return self._lookup(stream).synopsis

    def total_space_in_counters(self) -> int:
        """Total synopsis space across all registered streams."""
        return sum(r.synopsis.size_in_counters() for r in self._streams.values())

    # -- SQL front-end -----------------------------------------------------------

    def prepare_sql(self, text: str):
        """Parse a SQL-subset query and register its streams/predicates.

        Streams named by the query that are not yet registered are created,
        carrying the predicates its ``WHERE`` clause implies (selection
        happens at ingestion time, per §2.1, so this must run before
        elements flow).  A ``WHERE`` condition on an *already registered*
        stream is rejected — the elements already ingested cannot be
        retroactively filtered.  Returns the :class:`ParsedQuery`; feed
        data, then ``answer(parsed.query)``.
        """
        from .sql import parse_query

        parsed = parse_query(text)
        for name, predicate in parsed.predicates.items():
            if name in self._streams:
                raise QueryError(
                    f"stream {name!r} is already registered; WHERE predicates "
                    "must be installed before any elements are ingested"
                )
            self.register_stream(name, predicate=predicate)
        for name in self._streams_named_by(parsed.query):
            if name not in self._streams and name not in self._relations:
                self.register_stream(name)
        return parsed

    def answer_sql(self, text: str) -> float:
        """Answer a predicate-free SQL-subset query against live synopses.

        Queries with a ``WHERE`` clause must go through :meth:`prepare_sql`
        before ingestion instead (silently ignoring the predicate would be
        a correctness trap).
        """
        from .sql import parse_query

        with _OBS.span(
            "engine.sql", sql=text.strip()
        ) if _OBS.enabled else nullcontext():
            parsed = parse_query(text)
            if parsed.predicates:
                raise QueryError(
                    "this query has WHERE predicates; set it up with "
                    "prepare_sql() before ingesting elements"
                )
            return self.answer(parsed.query)

    @staticmethod
    def _streams_named_by(query: Query) -> tuple[str, ...]:
        if isinstance(query, (JoinSumQuery, JoinAverageQuery)):
            return (query.left, query.right, query.measure_stream)
        if isinstance(query, JoinCountQuery):
            return (query.left, query.right)
        if isinstance(query, SelfJoinQuery):
            return (query.stream,)
        if isinstance(query, PointQuery):
            return (query.stream,)
        return ()  # multi-join relations need explicit register_relation

    # -- query answering ----------------------------------------------------------

    def answer(self, query: Query) -> float:
        """Approximate answer to a §2.1 query from the maintained synopses."""
        if _OBS.enabled:
            _METRICS.count("engine.queries")
            _METRICS.count(f"engine.queries.{type(query).__name__}")
        with _OBS.span(
            "engine.answer", query=type(query).__name__
        ) if _OBS.enabled else nullcontext() as sp:
            result = self._answer(query)
            if sp is not None:
                sp.set(estimate=result)
        return result

    def _answer(self, query: Query) -> float:
        if isinstance(query, JoinCountQuery):
            return self._join_size(query.left, query.right)
        if isinstance(query, JoinSumQuery):
            return self._join_size(query.measure_stream, query.right)
        if isinstance(query, JoinAverageQuery):
            count = self._join_size(query.left, query.right)
            if count == 0:
                raise QueryError("AVERAGE over an (estimated) empty join")
            return self._join_size(query.measure_stream, query.right) / count
        if isinstance(query, SelfJoinQuery):
            return self._self_join_size(query.stream)
        if isinstance(query, PointQuery):
            return self._point(query.stream, query.value)
        if isinstance(query, MultiJoinCountQuery):
            return est_multi_join_count(
                [self._lookup_relation(name) for name in query.relations]
            )
        raise QueryError(f"unsupported query type {type(query).__name__}")

    # -- internals -------------------------------------------------------------------

    def _lookup(self, stream: str) -> _RegisteredStream:
        try:
            return self._streams[stream]
        except KeyError:
            raise QueryError(f"unknown stream {stream!r}") from None

    def _lookup_relation(self, relation: str) -> RelationSketch:
        try:
            return self._relations[relation]
        except KeyError:
            raise QueryError(f"unknown relation {relation!r}") from None

    def _join_size(self, left: str, right: str) -> float:
        estimate = float(
            self._lookup(left).synopsis.est_join_size(self._lookup(right).synopsis)
        )
        if _AUDIT.enabled:
            self._enrich_audit(estimate, left, right)
        return estimate

    def _self_join_size(self, stream: str) -> float:
        estimate = float(self._lookup(stream).synopsis.est_self_join_size())
        if _AUDIT.enabled:
            self._enrich_audit(estimate, stream, stream)
        return estimate

    def _enrich_audit(self, estimate: float, left: str, right: str) -> None:
        """Enrich the estimator-emitted audit of the query just answered.

        Adds stream names, per-stream sketch health, and — when a shadow
        auditor is attached — the realized error against the shadow-exact
        join size plus CI-coverage drift tracking.  Audit-path only: runs
        one skim + domain scan per stream per audited query.
        """
        if not _AUDIT.enabled:
            return
        audit = _AUDIT.last()
        if audit is None or audit.origin != "estimator":
            return  # non-skimmed synopsis: no audit was emitted for this query
        audit.origin = "engine"
        audit.streams = (left, right)
        if self.synopsis_kind == "skimmed":
            # Imported here: repro.eval pulls in the experiment stack, and
            # repro.streams must stay importable without it at module load.
            from ..eval.diagnostics import sketch_health

            audit.health = {
                name: sketch_health(self._lookup(name).synopsis).as_metrics()
                for name in dict.fromkeys((left, right))
            }
        if self._shadow is not None:
            exact, realized, covered, alert = self._shadow.observe_query(
                left, right, estimate, audit.ci_halfwidth
            )
            audit.shadow_exact = exact
            audit.realized_error = realized
            audit.realized_relative_error = (
                realized / abs(exact) if exact != 0 else float("inf")
            )
            audit.covered = covered
            if _OBS.enabled:
                _METRICS.gauge("monitor.audit.realized_error", realized)
            if alert is not None:
                _AUDIT.alert(alert)
                if _OBS.enabled:
                    _METRICS.count("monitor.drift.alerts")
                    _METRICS.gauge("monitor.drift.last_coverage", alert.coverage)
        if _OBS.enabled:
            _METRICS.count("monitor.audits.enriched")

    def _point(self, stream: str, value: int) -> float:
        synopsis = self._lookup(stream).synopsis
        if isinstance(synopsis, AGMSSketch):
            raise QueryError(
                "point queries need a hash-based synopsis "
                "(engine synopsis='skimmed' or 'hash')"
            )
        return float(synopsis.point_estimate(value))

    def __repr__(self) -> str:
        return (
            f"StreamEngine(domain_size={self.domain_size}, "
            f"synopsis={self.synopsis_kind!r}, streams={list(self._streams)})"
        )
