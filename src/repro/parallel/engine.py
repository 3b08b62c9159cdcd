"""A drop-in parallel variant of :class:`~repro.streams.engine.StreamEngine`.

:class:`ParallelStreamEngine` subclasses the serial engine and overrides
only its two ingestion hooks, routing filtered elements into one
:class:`~repro.parallel.ShardedIngestor` per registered stream.  Every
other behaviour — predicates, SQL front-end, metrics/trace/audit
instrumentation, shadow-exact drift auditing, query answering — is
inherited unchanged; before a query is answered the per-stream shard
synopses are merged (an exact counter sum, by linearity) into the
registered synopsis slot, so answers are computed by exactly the serial
code over exactly the serial counters.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import ParameterError
from ..obs import METRICS as _METRICS, OBS as _OBS
from ..streams.engine import StreamEngine, _RegisteredStream
from ..streams.query import Predicate, Query
from .shards import INGEST_MODES, ShardedIngestor

if TYPE_CHECKING:
    from ..core.config import SketchParameters
    from ..sketches.serialize import AnySketch

__all__ = ["ParallelStreamEngine"]


class ParallelStreamEngine(StreamEngine):
    """Stream engine with sharded (optionally shared-memory) ingestion.

    Parameters
    ----------
    domain_size, parameters, synopsis, seed, attribute_domains:
        As for :class:`~repro.streams.engine.StreamEngine`.
    workers:
        Shards (and executor parallelism) per registered stream.
    mode:
        ``"serial"`` | ``"shm"`` — the
        :class:`~repro.parallel.ShardedIngestor` execution strategy.

    Use as a context manager (or call :meth:`close`) when running
    ``"shm"``, so worker processes and segments shut down
    deterministically.
    """

    def __init__(
        self,
        domain_size: int,
        parameters: "SketchParameters",
        synopsis: str = "skimmed",
        seed: int = 0,
        attribute_domains: dict[str, int] | None = None,
        workers: int = 2,
        mode: str = "serial",
    ) -> None:
        super().__init__(
            domain_size,
            parameters,
            synopsis=synopsis,
            seed=seed,
            attribute_domains=attribute_domains,
        )
        if workers < 1:
            raise ParameterError(f"workers must be >= 1, got {workers}")
        if mode not in INGEST_MODES:
            raise ParameterError(f"mode must be one of {INGEST_MODES}, got {mode!r}")
        self.workers = workers
        self.mode = mode
        self._ingestors: dict[str, ShardedIngestor] = {}

    # -- registration: give every stream its own sharded ingestor ---------------

    def register_stream(self, name: str, predicate: Predicate | None = None) -> None:
        """Declare a stream; its batches will be sharded across workers."""
        super().register_stream(name, predicate)
        self._ingestors[name] = ShardedIngestor(
            self._schema, workers=self.workers, mode=self.mode
        )

    # -- ingestion hooks ---------------------------------------------------------

    def _ingest_one(
        self, registered: _RegisteredStream, value: int, weight: float
    ) -> None:
        """Route one element through the stream's sharded ingestor."""
        self._ingestors[registered.name].ingest(
            np.asarray([value], dtype=np.int64),
            np.asarray([weight], dtype=np.float64),
        )

    def _ingest_bulk(
        self,
        registered: _RegisteredStream,
        values: np.ndarray,
        weights: np.ndarray | None,
    ) -> None:
        """Route a filtered batch through the stream's sharded ingestor."""
        self._ingestors[registered.name].ingest(values, weights)

    # -- query paths: merge shards before answering ------------------------------

    def flush(self) -> None:
        """Install every stream's exact merged synopsis for querying.

        Lazy underneath: streams with no new batches since their last
        merge cost nothing (dirty-flag caching in the ingestor).

        In ``"shm"`` mode the merge also surfaces each worker process's
        ingest vitals — counters its own (process-local, disabled)
        singletons would have discarded — into this process's registry
        as ``parallel.shard.<N>.worker.*``; they ride the flush ack.
        """
        for name, ingestor in self._ingestors.items():
            self._streams[name].synopsis = ingestor.merged()
            telemetry = ingestor.drain_worker_telemetry()
            if _OBS.enabled:
                for shard, stats in telemetry:
                    for key, value in stats.items():
                        _METRICS.count(f"parallel.shard.{shard}.{key}", value)

    def answer(self, query: Query) -> float:
        """Answer a query over the merged (serial-identical) synopses."""
        self.flush()
        return super().answer(query)

    def answer_sql(self, text: str) -> float:
        """Answer a predicate-free SQL-subset query (merging first)."""
        self.flush()
        return super().answer_sql(text)

    def synopsis_for(self, stream: str) -> "AnySketch":
        """Direct access to a stream's merged synopsis."""
        ingestor = self._ingestors.get(stream)
        if ingestor is not None:
            self._streams[stream].synopsis = ingestor.merged()
        return super().synopsis_for(stream)

    def total_space_in_counters(self) -> int:
        """Total *shard* synopsis space across all registered streams.

        Sharding costs ``workers``× the serial synopsis space while
        ingestion is running — that's the space/throughput trade the
        subsystem makes; see docs/PERFORMANCE.md.
        """
        return sum(
            ingestor.workers * self._streams[name].synopsis.size_in_counters()
            for name, ingestor in self._ingestors.items()
        )

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Shut down every stream's executor resources (idempotent)."""
        for ingestor in self._ingestors.values():
            ingestor.close()

    def __enter__(self) -> "ParallelStreamEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ParallelStreamEngine(domain_size={self.domain_size}, "
            f"synopsis={self.synopsis_kind!r}, workers={self.workers}, "
            f"mode={self.mode!r}, streams={list(self._streams)})"
        )
