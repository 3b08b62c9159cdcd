"""Sharded parallel ingestion with exact lazy merge.

A sketch is a *linear* projection of the stream's frequency vector, so
splitting a stream across N shard sketches built from the **same schema**
and summing their counters afterwards reproduces the serial sketch
exactly — shard-and-merge parallelism is exact, not approximate (the
property the paper's distributed setting is built on, applied here to
intra-process parallelism).

:class:`ShardedIngestor` owns N shard synopses plus an execution strategy:

* ``"serial"`` — no executor; apply each sub-batch inline (the
  parallelism-off reference path, overhead-free by construction);
* ``"shm"`` — one persistent worker process per shard, fed by a bounded
  queue (:class:`~repro.parallel.pool.PersistentWorkerPool`).  Workers
  receive the ingestor's schema object once — with its hash/sign lookup
  tables already built when the domain is within budget — and
  scatter-add into a per-shard ``multiprocessing.shared_memory`` segment
  the parent has mapped too, so flush ships no counter state at all
  (zero-copy merge; see :mod:`repro.parallel.shm`).

``"serial"`` ingests synchronously; ``"shm"`` pipelines batches through
bounded queues and surfaces worker failures at the next flush/merge
barrier.

Batches are partitioned by a deterministic multiplicative hash of the
value, so a given value always lands in the same shard regardless of
batch boundaries, worker count stays the only knob, and merge order is
fixed — with integer (or dyadic-rational) weights the merged counters are
bit-identical to serial ingestion.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Protocol, Sequence

import numpy as np

from ..errors import ParameterError
from ..obs import METRICS as _METRICS, OBS as _OBS
from ..sketches.serialize import AnySketch

__all__ = ["INGEST_MODES", "ShardedIngestor", "partition_batch"]

#: Execution strategies :class:`ShardedIngestor` supports.
INGEST_MODES = ("serial", "shm")

# Fibonacci-hash multiplier (2**64 / phi): spreads consecutive values
# uniformly across shards while keeping the value -> shard map pure.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


class _SchemaLike(Protocol):
    """Any sketch schema: all we need is a fresh-synopsis factory."""

    def create_sketch(self) -> AnySketch:
        """A fresh empty synopsis bound to this schema."""
        ...


def partition_batch(
    values: np.ndarray, weights: np.ndarray | None, workers: int
) -> list[tuple[np.ndarray, np.ndarray | None] | None]:
    """Split a batch into per-shard sub-batches by hashing each value.

    Returns one ``(values, weights)`` pair per shard (``None`` for shards
    that receive nothing from this batch).  The map is a pure function of
    the value — independent of batch boundaries and ingestion order — so
    re-chunking a stream never changes which shard accumulates a value.
    """
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    if workers == 1:
        return [(values, weights)]
    mixed = (values.astype(np.uint64) * _GOLDEN) >> np.uint64(33)
    shard_ids = (mixed % np.uint64(workers)).astype(np.int64)
    parts: list[tuple[np.ndarray, np.ndarray | None] | None] = []
    for shard in range(workers):
        mask = shard_ids == shard
        count = int(np.count_nonzero(mask))
        if not count:
            parts.append(None)
        elif count == values.size:
            parts.append((values, weights))
        else:
            parts.append(
                (values[mask], None if weights is None else weights[mask])
            )
    return parts


# -- execution strategies ------------------------------------------------------


class _SerialStrategy:
    """No executor: apply each sub-batch inline (the 1-worker fast path)."""

    def ingest(
        self,
        shards: list[AnySketch],
        parts: Sequence[tuple[np.ndarray, np.ndarray | None] | None],
    ) -> None:
        """Apply each shard's sub-batch directly."""
        for shard, part in zip(shards, parts):
            if part is not None:
                shard.update_bulk(part[0], part[1])

    def flush(self, shards: list[AnySketch]) -> list[AnySketch]:
        """Nothing pending: shards are always current."""
        return shards

    def reset(self, schema: "_SchemaLike", shards: list[AnySketch]) -> list[AnySketch]:
        """Fresh shards; there is no worker-side state to discard."""
        return [schema.create_sketch() for _ in shards]

    def drain_worker_telemetry(self) -> list[tuple[int, dict[str, float]]]:
        """Inline ingestion records into the parent's own singletons —
        there is no foreign-process state to surface."""
        return []

    def close(self, shards: list[AnySketch]) -> list[AnySketch]:
        """Nothing to shut down."""
        return shards


# -- the ingestor --------------------------------------------------------------


class ShardedIngestor:
    """Partition batches across N shard synopses; merge exactly on demand.

    Parameters
    ----------
    schema:
        Any sketch schema (hash / dyadic / AGMS / skimmed); every shard is
        ``schema.create_sketch()``, so shards — and therefore the merge —
        share one set of hash/sign families.
    workers:
        Number of shards (= executor parallelism).  ``workers=1`` always
        uses the serial no-executor path regardless of ``mode``.
    mode:
        ``"serial"`` | ``"shm"`` — see the module docstring for the
        trade-offs.

    The merged synopsis is computed lazily (:meth:`merged`) and cached
    behind a dirty flag, so interleaving ingestion and queries only pays
    the counter sum when new data actually arrived.
    """

    def __init__(
        self, schema: _SchemaLike, workers: int = 1, mode: str = "serial"
    ) -> None:
        if workers < 1:
            raise ParameterError(f"workers must be >= 1, got {workers}")
        if mode not in INGEST_MODES:
            raise ParameterError(
                f"mode must be one of {INGEST_MODES}, got {mode!r}"
            )
        self._schema = schema
        self._workers = workers
        self._mode = "serial" if workers == 1 else mode
        self._shards: list[AnySketch] = [
            schema.create_sketch() for _ in range(workers)
        ]
        self._strategy = self._make_strategy()
        self._merged: AnySketch | None = None
        self._dirty = False
        self._closed = False
        self._batches = 0
        self._elements = 0

    def _make_strategy(self) -> Any:
        if self._mode == "serial":
            return _SerialStrategy()
        from .shm import _SharedMemoryStrategy

        return _SharedMemoryStrategy(self._workers, self._schema, self._shards)

    @property
    def workers(self) -> int:
        """Number of shard synopses (= maximum ingest parallelism)."""
        return self._workers

    @property
    def mode(self) -> str:
        """The execution strategy name this ingestor runs (``"serial"``
        at one worker, whatever mode was requested)."""
        return self._mode

    @property
    def batches_ingested(self) -> int:
        """Number of non-empty batches accepted so far."""
        return self._batches

    @property
    def elements_ingested(self) -> int:
        """Total elements accepted so far."""
        return self._elements

    def ingest(
        self, values: np.ndarray, weights: np.ndarray | None = None
    ) -> None:
        """Partition one batch across the shards and apply it.

        ``"serial"`` applies sub-batches synchronously; ``"shm"``
        pipelines them through bounded queues, so a bad value aborts the
        offending shard's whole sub-batch at the next flush/merge
        barrier rather than here.  Weight validation
        follows ``update_bulk``.
        """
        if self._closed:
            raise RuntimeError("ShardedIngestor is closed")
        values = np.asarray(values, dtype=np.int64)
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != values.shape:
                raise ParameterError("weights must have the same shape as values")
        if values.size == 0:
            return
        parts = partition_batch(values, weights, self._workers)
        with _OBS.span(
            "parallel.ingest",
            elements=int(values.size),
            workers=self._workers,
            mode=self._mode,
        ) if _OBS.enabled else nullcontext():
            self._strategy.ingest(self._shards, parts)
        self._dirty = True
        self._merged = None
        self._batches += 1
        self._elements += int(values.size)
        if _OBS.enabled:
            _METRICS.count("parallel.batches")
            _METRICS.count("parallel.elements", int(values.size))
            _METRICS.gauge("parallel.shards", float(self._workers))
            for shard, part in enumerate(parts):
                depth = 0 if part is None else int(part[0].size)
                _METRICS.gauge(f"parallel.shard.{shard}.queue_depth", float(depth))

    def merged(self) -> AnySketch:
        """The exact merged synopsis of everything ingested so far.

        Lazy and cached: the counter sum (and, in ``"shm"`` mode, the
        worker flush) only happens when new batches arrived since the
        last call.  With ``workers=1`` this is the live shard itself —
        zero merge cost, the parallelism-off reference path.
        """
        if self._merged is not None and not self._dirty:
            return self._merged
        with _OBS.span(
            "parallel.merge", workers=self._workers, mode=self._mode
        ) if _OBS.enabled else nullcontext():
            self._shards = self._strategy.flush(self._shards)
            merged = self._shards[0]
            for shard in self._shards[1:]:
                merged = merged.merged_with(shard)
        if _OBS.enabled:
            _METRICS.count("parallel.merges")
        self._merged = merged
        self._dirty = False
        return merged

    def drain_worker_telemetry(self) -> list[tuple[int, dict[str, float]]]:
        """Per-shard ingest stats collected from worker processes.

        Non-empty only in ``"shm"`` mode after a flush (``merged()`` / ``reset()`` /
        ``close()``): each entry is ``(shard_index, {"worker.batches":
        ..., "worker.elements": ..., "worker.drain_values": ...,
        "worker.drain_seconds": ...})`` — the vitals the worker's
        process-local singletons couldn't publish.  Draining clears the
        pending stats, so each call reports new activity only.
        """
        return self._strategy.drain_worker_telemetry()

    def reset(self) -> None:
        """Drop all accumulated state (fresh shards, empty workers)."""
        self._shards = self._strategy.reset(self._schema, self._shards)
        self._merged = None
        self._dirty = False
        self._batches = 0
        self._elements = 0

    def close(self) -> None:
        """Shut down executor resources (idempotent, exception-safe).

        Pending worker-side state is folded into the parent-side shards
        first, so :meth:`merged` keeps working after close — even if the
        flush itself fails, the strategy is still torn down (workers
        stopped, shared-memory segments unlinked).  Further
        :meth:`ingest` calls are an error.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._shards = self._strategy.flush(self._shards)
        finally:
            self._shards = self._strategy.close(self._shards)

    def __enter__(self) -> "ShardedIngestor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardedIngestor(workers={self._workers}, mode={self._mode!r}, "
            f"batches={self._batches}, elements={self._elements})"
        )
