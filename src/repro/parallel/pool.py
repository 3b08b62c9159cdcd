"""Persistent worker-process pool for the shared-memory ingest strategy.

One long-lived worker process per shard, fed by its own bounded task
queue: batches stream to workers without per-submit ``Future``
bookkeeping, back-pressure falls out of the queue bound, and every
control message (flush / reset / stop) is a queue token answered on a
per-worker reply queue.  Shard
``i`` always maps to worker ``i``, preserving the value -> shard ->
process affinity the exactness argument rests on.

Error model: batch messages are fire-and-forget (pipelined).  A worker
that fails a batch parks the traceback and reports it at the next
barrier (flush / reset), where :class:`WorkerError` re-raises it in the
parent — so a bad value aborts at the flush/merge seam rather than
mid-stream.

Workers are started with the ``fork`` method where available: forked
children share the parent's ``resource_tracker`` process, so shared-
memory segments are registered (and unlinked) exactly once, by the
parent.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_module
import time
from typing import Any, Callable

__all__ = ["PersistentWorkerPool", "WorkerError"]

#: Bounded batch-queue depth per worker: enough to keep the pipeline full,
#: small enough that a slow worker back-pressures the producer instead of
#: buffering the whole stream in pickled batches.
QUEUE_CAPACITY = 8

#: Seconds to wait for one barrier reply before declaring a worker hung.
_REPLY_TIMEOUT = 120.0

#: Seconds to wait for a graceful worker exit before terminating it.
_JOIN_TIMEOUT = 5.0


class WorkerError(RuntimeError):
    """A worker process failed; the message carries its traceback."""


def _pool_context() -> mp.context.BaseContext:
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else methods[0])


class PersistentWorkerPool:
    """``workers`` long-lived processes, one bounded task queue each.

    Each worker runs ``target(tasks, replies, config)`` — a loop reading
    message tuples from its task queue and answering barrier messages on
    its reply queue with ``("ok", payload)`` or ``("error", traceback)``.
    """

    def __init__(
        self,
        workers: int,
        target: Callable[..., None],
        configs: list[dict[str, Any]],
    ) -> None:
        ctx = _pool_context()
        self._tasks = [ctx.Queue(maxsize=QUEUE_CAPACITY) for _ in range(workers)]
        self._replies = [ctx.Queue() for _ in range(workers)]
        self._processes = [
            ctx.Process(
                target=target,
                args=(self._tasks[i], self._replies[i], configs[i]),
                daemon=True,
                name=f"repro-shard-{i}",
            )
            for i in range(workers)
        ]
        self._closed = False
        for process in self._processes:
            process.start()

    @property
    def workers(self) -> int:
        """Number of worker processes (= shards served)."""
        return len(self._processes)

    def submit(self, worker: int, message: tuple) -> None:
        """Enqueue one fire-and-forget message on ``worker``'s task queue.

        Blocks only when the worker is :data:`QUEUE_CAPACITY` batches
        behind (back-pressure); failures surface at the next barrier.
        """
        if self._closed:
            raise RuntimeError("worker pool is closed")
        self._tasks[worker].put(message)

    def barrier(self, message: tuple) -> list[Any]:
        """Send ``message`` to every worker; collect one reply from each.

        Replies come back in worker order.  An ``("error", ...)`` reply —
        or a dead/hung worker — raises :class:`WorkerError` carrying the
        worker-side traceback.
        """
        if self._closed:
            raise RuntimeError("worker pool is closed")
        for tasks in self._tasks:
            tasks.put(message)
        return [self._reply(worker) for worker in range(len(self._processes))]

    def _reply(self, worker: int) -> Any:
        deadline = time.monotonic() + _REPLY_TIMEOUT
        while True:
            try:
                reply = self._replies[worker].get(timeout=0.5)
                break
            except queue_module.Empty:
                process = self._processes[worker]
                if not process.is_alive():
                    raise WorkerError(
                        f"worker {worker} died (exitcode {process.exitcode})"
                    ) from None
                if time.monotonic() >= deadline:
                    raise WorkerError(
                        f"worker {worker} unresponsive after "
                        f"{_REPLY_TIMEOUT:.0f}s"
                    ) from None
        if reply[0] == "error":
            raise WorkerError(f"worker {worker} failed:\n{reply[1]}")
        return reply[1]

    def close(self) -> None:
        """Stop every worker gracefully; idempotent, never raises."""
        if self._closed:
            return
        self._closed = True
        for tasks in self._tasks:
            try:
                tasks.put(("stop",), timeout=_JOIN_TIMEOUT)
            except Exception:
                pass  # full queue on a hung worker; terminate below
        for process in self._processes:
            process.join(timeout=_JOIN_TIMEOUT)
        self.terminate()
        for q in (*self._tasks, *self._replies):
            q.cancel_join_thread()
            q.close()

    def terminate(self) -> None:
        """Kill any still-live workers (crash-path cleanup; idempotent)."""
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
