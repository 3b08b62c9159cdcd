"""Parallel sharded ingestion for sketch synopses.

Because every synopsis in this library is a linear projection of the
stream's frequency vector, a stream can be partitioned across N shard
sketches built from one schema and merged later by summing counters —
**exactly**, not approximately.  This package packages that observation
as infrastructure:

* :class:`ShardedIngestor` — N shard synopses behind one of two
  strategies (inline serial / per-shard shared-memory worker), with
  deterministic value partitioning, lazy dirty-flag-cached exact merge,
  and ``parallel.*`` metrics/span instrumentation;
* :class:`ParallelStreamEngine` — the Figure-1 stream engine with its
  ingestion hooks rerouted through per-stream sharded ingestors; query
  answers are bit-identical (integer-weight regime) to the serial
  :class:`~repro.streams.engine.StreamEngine`;
* ``python -m repro.parallel selfcheck|bench`` — serial-vs-sharded
  equality proof on a seeded stream, and a worker-scaling throughput
  table.

See docs/PERFORMANCE.md for the sharding model, the exact-merge argument
and worker-count guidance.
"""

from .shards import INGEST_MODES, ShardedIngestor, partition_batch
from .engine import ParallelStreamEngine

__all__ = [
    "INGEST_MODES",
    "ParallelStreamEngine",
    "ShardedIngestor",
    "partition_batch",
]
