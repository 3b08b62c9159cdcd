"""``OBS``: the one switch and the one span every hot-path hook goes through.

Four process-wide sinks record what the library does — the metrics
registry (``repro.obs.METRICS``), the span tracer (``repro.trace.TRACER``),
the sampling profiler and the flight recorder (``repro.profile.PROFILER``
/ ``RECORDER``).  A hook site does not ask each of them whether it is
on; it reads one plain attribute::

    if _OBS.enabled:
        _METRICS.count("engine.queries")

    with _OBS.span("engine.answer", query=name) if _OBS.enabled else nullcontext() as sp:
        ...

``OBS.enabled`` is kept equal to "any registered sink is on": every
sink's ``enabled`` is a property whose setter refreshes it, so
``enable()``/``disable()``, direct ``X.enabled = ...`` assignments and
``capturing()`` blocks all keep it exact.  A disabled library therefore
pays one attribute read and one branch per hook site.  Sinks built
privately (a test's ``MetricsRegistry(enabled=True)``, a federation
emulator's tracer) are never registered and never touch the switch.

The sinks register themselves when their package is imported, so this
module imports nothing from them and there is no import cycle.  It
imports only the standard library, like the rest of ``repro.obs``.
``repro.monitor.AUDIT`` is deliberately not a sink here: auditing
computes (residual scans, shadow lookups) rather than records, so it
keeps its own flag and its own guard.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator


class Sink:
    """Mixin for a sink with an ``enabled`` flag the switch can follow.

    Subclasses store the flag in ``_enabled``; ``_switch`` is the
    :class:`Switch` the sink is registered with (``None`` for a private
    instance).
    """

    __slots__ = ("_enabled", "_switch")

    def __init__(self, enabled: bool = False) -> None:
        self._switch: Switch | None = None
        self._enabled = bool(enabled)

    @property
    def enabled(self) -> bool:
        """Whether this sink records; setting it keeps ``OBS`` in step."""
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled = bool(value)
        if self._switch is not None:
            self._switch.refresh()

    def enable(self) -> None:
        """Turn recording on (idempotent)."""
        self.enabled = True

    def disable(self) -> None:
        """Turn recording off; recorded data is kept."""
        self.enabled = False


class Switch:
    """The process-wide instrumentation switch (one instance: :data:`OBS`).

    ``enabled`` is a plain attribute so a hook-site guard costs one
    attribute load.  :meth:`span` is the one way to time a block: it
    opens the tracer span ``name`` (yielding it, or ``None`` while the
    tracer is off), records the histogram ``<name>.seconds`` and sets
    the profiler's activity to ``name`` for the block's duration.
    """

    __slots__ = ("enabled", "metrics", "tracer", "profiler", "_sinks")

    def __init__(self) -> None:
        self.enabled = False
        self.metrics: Any = None
        self.tracer: Any = None
        self.profiler: Any = None
        self._sinks: list[Sink] = []

    def register(self, **sinks: Sink) -> None:
        """Attach global sinks by role (``metrics``, ``tracer``,
        ``profiler``, ``recorder``); :meth:`span` feeds the first three."""
        for role, sink in sinks.items():
            if role in ("metrics", "tracer", "profiler"):
                setattr(self, role, sink)
            sink._switch = self
            self._sinks.append(sink)
        self.refresh()

    def refresh(self) -> None:
        """Recompute ``enabled`` from the registered sinks' flags."""
        self.enabled = any(sink.enabled for sink in self._sinks)

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Any]:
        """Time a block as span ``name``; yields the span or ``None``.

        Needs the ``metrics`` sink registered (``repro.obs`` does that on
        import); the tracer and profiler are optional.
        """
        profiler = self.profiler
        previous = None
        if profiler is not None:
            previous = profiler.activity
            profiler.activity = name
        try:
            with self.metrics.timer(f"{name}.seconds"):
                tracer = self.tracer
                if tracer is not None and tracer.enabled:
                    with tracer.span(name, **attributes) as sp:
                        yield sp
                else:
                    yield None
        finally:
            if profiler is not None:
                profiler.activity = previous

    def __repr__(self) -> str:
        return f"Switch(enabled={self.enabled}, sinks={len(self._sinks)})"


#: The process-wide switch every built-in hook site guards on.
OBS = Switch()
