"""Dependency-free runtime metrics: counters, gauges, histograms, timers.

The registry is the library's metrics sink.  Instrumentation sites in
the hot paths (sketch updates, skims, join estimation, the stream
engine, the distributed protocol) guard every recording with the one
instrumentation switch (:data:`repro.obs.OBS`)::

    if _OBS.enabled:
        _METRICS.count("sketch.update.elements")

so a disabled library costs one attribute load and one branch per
*instrumentation site* (not per metric), which is unmeasurable next to
the numpy work those sites wrap.  ``OBS`` is on when *any* sink is, so
every recording method additionally no-ops while this registry is
disabled.

Design constraints (enforced by the test suite):

* **no third-party imports** — ``repro.obs`` must be importable without
  numpy so embedding it in a collection agent costs nothing;
* histograms keep a bounded deterministic reservoir, so memory is O(1)
  per metric regardless of stream length and snapshots are reproducible
  for a fixed recording sequence;
* ``snapshot()`` returns a cumulative telemetry document
  (:mod:`repro.obs.telemetry`) — plain dicts, JSON-ready.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Iterator, Mapping

from ..errors import ParameterError
from .switch import Sink
from .telemetry import capture_metrics, empty_telemetry, thin_samples

#: Reservoir size for histogram percentile estimation.
DEFAULT_RESERVOIR_SIZE = 2048


class Counter:
    """A monotonically adjusted sum (increments may be any float)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (default 1) to the counter."""
        self.value += amount


class Gauge:
    """A last-written-wins scalar (thresholds, round numbers, sizes).

    Each write stamps ``ts`` with the wall-clock time so last-write-wins
    stays well-defined when gauges from several *processes* are merged
    (:meth:`MetricsRegistry.merge_snapshot`): wall-clock timestamps are
    the only ordering that is comparable across process boundaries.
    """

    __slots__ = ("name", "value", "ts")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.ts = 0.0

    def set(self, value: float, ts: float | None = None) -> None:
        """Overwrite the gauge with ``value`` (stamping the write time)."""
        self.value = float(value)
        self.ts = time.time() if ts is None else float(ts)


class Histogram:
    """Streaming distribution summary with bounded memory.

    Tracks exact ``count`` / ``sum`` / ``min`` / ``max`` and estimates
    percentiles from a reservoir.  Reservoir replacement uses an internal
    xorshift generator (seeded from the metric name) instead of the
    global ``random`` state, so recordings are deterministic and the
    registry never perturbs user-level randomness.
    """

    __slots__ = ("name", "count", "sum", "min", "max", "_samples", "_cap", "_state")

    def __init__(self, name: str, reservoir_size: int = DEFAULT_RESERVOIR_SIZE):
        if reservoir_size < 1:
            raise ParameterError(
                f"reservoir_size must be >= 1, got {reservoir_size}"
            )
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._samples: list[float] = []
        self._cap = reservoir_size
        # Non-zero 64-bit xorshift seed derived from the name.
        self._state = (hash(name) & 0xFFFFFFFFFFFFFFFF) or 0x9E3779B97F4A7C15

    def _next_rand(self) -> int:
        x = self._state
        x ^= (x << 13) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 7
        x ^= (x << 17) & 0xFFFFFFFFFFFFFFFF
        self._state = x
        return x

    def record(self, value: float) -> None:
        """Fold one observation into the summary statistics and reservoir."""
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._samples) < self._cap:
            self._samples.append(value)
        else:
            slot = self._next_rand() % self.count
            if slot < self._cap:
                self._samples[slot] = value

    def state(self, max_samples: int | None = None) -> dict[str, Any]:
        """Reservoir-carrying dump for cross-process merging.

        The state keeps raw reservoir samples, so two histograms built in
        different processes can be folded together with
        :meth:`merge_state`; quantiles are read off the samples with
        :func:`repro.obs.telemetry.quantile`.
        ``max_samples`` bounds the shipped reservoir with an even stride
        across the sorted samples, preserving the spread.
        """
        samples = thin_samples(sorted(self._samples), max_samples)
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "samples": samples,
        }

    def merge_state(self, state: Mapping[str, Any]) -> None:
        """Fold a foreign histogram :meth:`state` into this one.

        Count/sum add exactly; min/max combine; foreign reservoir samples
        are folded through the same deterministic replacement policy as
        :meth:`record`, so the merged reservoir stays bounded at ``_cap``
        and remains an (approximate) sample of the union distribution.
        """
        count = int(state.get("count", 0))
        if count <= 0:
            return
        self.sum += float(state.get("sum", 0.0))
        low, high = float(state.get("min", 0.0)), float(state.get("max", 0.0))
        if low < self.min:
            self.min = low
        if high > self.max:
            self.max = high
        self.count += count
        for value in state.get("samples", ()):
            value = float(value)
            if len(self._samples) < self._cap:
                self._samples.append(value)
            else:
                slot = self._next_rand() % self.count
                if slot < self._cap:
                    self._samples[slot] = value


class Timer:
    """Measure a code block (or decorated function) in seconds.

    The measurement itself always happens — ``elapsed`` is valid even
    with the registry disabled, so callers can print wall-clock figures
    unconditionally — but the duration is *recorded* into the registry's
    histogram only when the registry is enabled at exit time.

    Usable as a context manager::

        with METRICS.timer("skim.seconds") as t:
            ...
        print(t.elapsed)

    or as a decorator::

        @METRICS.timer("engine.answer.seconds")
        def answer(...): ...
    """

    __slots__ = ("name", "elapsed", "_registry", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str):
        self._registry = registry
        self.name = name
        self.elapsed: float | None = None
        self._start: float | None = None

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._start is not None:
            self.elapsed = time.perf_counter() - self._start
            self._start = None
            if self._registry.enabled:
                self._registry.observe(self.name, self.elapsed)

    def __call__(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            with Timer(self._registry, self.name):
                return fn(*args, **kwargs)

        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__doc__ = fn.__doc__
        return wrapper


class MetricsRegistry(Sink):
    """Named counters, gauges and histograms behind one enable switch.

    Metrics are created lazily on first use; names are free-form
    dot-separated strings (see ``docs/OBSERVABILITY.md`` for the
    catalogue the library itself emits).
    """

    __slots__ = (
        "_counters",
        "_gauges",
        "_histograms",
        "reservoir_size",
        "_lock",
        "generation",
    )

    def __init__(self, enabled: bool = False, reservoir_size: int = DEFAULT_RESERVOIR_SIZE):
        super().__init__(enabled)
        self.reservoir_size = reservoir_size
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()
        self.generation = 0

    # -- recording ---------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The named counter, created (at 0) if absent."""
        found = self._counters.get(name)
        if found is None:
            found = self._counters[name] = Counter(name)
        return found

    def count(self, name: str, amount: float = 1.0) -> None:
        """Increment a counter (no-op while disabled)."""
        if self._enabled:
            self.counter(name).inc(amount)

    def gauge(self, name: str, value: float | None = None) -> Gauge:
        """The named gauge; also sets it when ``value`` is given (and enabled)."""
        found = self._gauges.get(name)
        if found is None:
            found = self._gauges[name] = Gauge(name)
        if value is not None and self._enabled:
            found.set(value)
        return found

    def gauge_max(self, name: str, value: float) -> None:
        """Raise a gauge to ``value`` if it is currently below it.

        No-op while disabled.  The read-modify-write runs under the
        registry lock, so concurrent writers (e.g. report receipt racing
        a threaded ``/metrics`` scrape) cannot interleave a lower value
        over a higher one the way an unsynchronised compare-then-set can.
        """
        if not self._enabled:
            return
        with self._lock:
            found = self.gauge(name)
            if float(value) > found.value or found.ts == 0.0:
                found.set(value)

    def histogram(self, name: str) -> Histogram:
        """The named histogram, created empty if absent."""
        found = self._histograms.get(name)
        if found is None:
            found = self._histograms[name] = Histogram(name, self.reservoir_size)
        return found

    def observe(self, name: str, value: float) -> None:
        """Record one histogram observation (no-op while disabled)."""
        if self._enabled:
            self.histogram(name).record(value)

    def timer(self, name: str) -> Timer:
        """A :class:`Timer` feeding the named histogram."""
        return Timer(self, name)

    # -- reading -----------------------------------------------------------

    def counter_value(self, name: str) -> float:
        """Current value of a counter (0.0 if it was never touched)."""
        found = self._counters.get(name)
        return found.value if found is not None else 0.0

    def gauge_value(self, name: str) -> float:
        """Current value of a gauge (0.0 if it was never set)."""
        found = self._gauges.get(name)
        return found.value if found is not None else 0.0

    def metric_names(self) -> Iterator[str]:
        """All metric names currently registered, sorted."""
        yield from sorted(
            set(self._counters) | set(self._gauges) | set(self._histograms)
        )

    def snapshot(self) -> dict:
        """Cumulative telemetry document of every metric, with the full
        histogram reservoirs (readable even while disabled)."""
        return capture_metrics(self, empty_telemetry("local"))

    def merge_snapshot(
        self, snapshot: Mapping[str, Any], prefix: str | None = None
    ) -> None:
        """Fold a foreign process's telemetry document into this registry.

        The inverse operation of shipping a document
        (:mod:`repro.obs.telemetry`): **counters sum** (the foreign values
        are deltas, so repeated merges of successive documents accumulate
        exactly), **gauges take the last write by wall-clock timestamp**
        (each arrives as a ``[value, ts]`` pair), and **histograms merge
        reservoirs** via :meth:`Histogram.merge_state`.

        Like every recording method it is a no-op while the registry is
        disabled, so a coordinator whose registry is off does not fill
        it with foreign metrics.  ``prefix`` is prepended (dot-joined)
        to every merged metric name, which is how a site's telemetry
        lands under ``site.<name>.*`` at the coordinator.
        """
        if not self._enabled:
            return
        qualify = (lambda n: f"{prefix}.{n}") if prefix else (lambda n: n)
        for name, value in snapshot["counters"].items():
            self.counter(qualify(name)).inc(float(value))
        for name, (level, ts) in snapshot["gauges"].items():
            found = self.gauge(qualify(name))
            if ts >= found.ts:
                found.set(level, ts=ts)
        for name, state in snapshot["histograms"].items():
            self.histogram(qualify(name)).merge_state(state)

    def reset(self) -> None:
        """Drop every metric (the enabled flag is left as-is).

        Bumps ``generation`` so delta-tracking readers (every
        :class:`~repro.obs.telemetry.RegistryCursor`) can tell a reset
        from mere inactivity.
        """
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self.generation += 1

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(enabled={self.enabled}, "
            f"counters={len(self._counters)}, gauges={len(self._gauges)}, "
            f"histograms={len(self._histograms)})"
        )
