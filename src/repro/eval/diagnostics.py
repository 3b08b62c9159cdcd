"""Synopsis health diagnostics: what is this sketch seeing, and is it
sized right for it?

Operators of a deployed stream monitor can't inspect the raw stream — the
synopsis is all there is.  Fortunately the synopsis itself supports the
introspection that matters:

* estimated stream size, second moment, and a **skew score** (how far the
  second moment sits above the uniform-stream floor ``N²/D`` — the single
  number that predicts whether basic sketching would have struggled and
  how much skimming will help);
* the current skim threshold and how many values would be extracted at it;
* a width recommendation from the Theorem-5 sizing rule, given a target
  accuracy and the stream's own measured statistics.

The report is a plain dataclass (render with ``describe()``), so it can
feed dashboards as easily as terminals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.estimator import SkimmedSketch
from ..core.skim import (
    RESIDUAL_BOUND_FACTOR,
    default_threshold,
    residual_infinity_norm,
    skim_dense,
)
from ..obs import METRICS, MetricsRegistry
from ..errors import ParameterError


@dataclass(frozen=True)
class SketchHealthReport:
    """Snapshot of one skimmed sketch's state and sizing adequacy."""

    width: int
    depth: int
    domain_size: int
    stream_size: float
    estimated_second_moment: float
    skew_score: float
    skim_threshold: float
    dense_value_count: int
    dense_mass_fraction: float
    recommended_width: int | None
    #: ``‖residual‖∞`` of a skim at the current threshold — SKIMDENSE's
    #: Theorem-4 contract says it stays below
    #: ``RESIDUAL_BOUND_FACTOR * skim_threshold`` w.h.p.  The same check
    #: ``repro.monitor`` audits per query.
    residual_linf: float = 0.0
    residual_bound_ok: bool = True

    def describe(self) -> str:
        """Multi-line human-readable rendering of the report."""
        lines = [
            f"sketch {self.width}x{self.depth} over domain {self.domain_size}",
            f"  stream size (N)        : {self.stream_size:,.0f}",
            f"  est. second moment (F2): {self.estimated_second_moment:,.0f}",
            f"  skew score (F2/(N^2/D)): {self.skew_score:,.1f}"
            + ("  [uniform-like]" if self.skew_score < 10 else "  [skewed]"),
            f"  skim threshold (theta) : {self.skim_threshold:,.1f}",
            f"  dense values at theta  : {self.dense_value_count} "
            f"({self.dense_mass_fraction:.1%} of stream mass)",
            f"  residual |.|inf vs 2*theta: {self.residual_linf:,.1f} "
            + ("[ok]" if self.residual_bound_ok else "[VIOLATED]"),
        ]
        if self.recommended_width is not None:
            verdict = (
                "adequate"
                if self.recommended_width <= self.width
                else f"undersized (recommend width >= {self.recommended_width})"
            )
            lines.append(f"  sizing for target error: {verdict}")
        return "\n".join(lines)

    def as_metrics(self, prefix: str = "health") -> dict[str, float]:
        """The report as a flat ``{metric_name: value}`` gauge mapping.

        This is the diagnostics→metrics bridge: the same numbers
        :meth:`describe` prints, shaped for a metrics snapshot (and hence
        for the JSON / Prometheus exporters).
        """
        gauges = {
            f"{prefix}.width": float(self.width),
            f"{prefix}.depth": float(self.depth),
            f"{prefix}.domain_size": float(self.domain_size),
            f"{prefix}.stream_size": float(self.stream_size),
            f"{prefix}.second_moment": float(self.estimated_second_moment),
            f"{prefix}.skew_score": float(self.skew_score),
            f"{prefix}.skim_threshold": float(self.skim_threshold),
            f"{prefix}.dense_values": float(self.dense_value_count),
            f"{prefix}.dense_mass_fraction": float(self.dense_mass_fraction),
            f"{prefix}.residual_linf": float(self.residual_linf),
            f"{prefix}.residual_bound_ok": 1.0 if self.residual_bound_ok else 0.0,
        }
        if self.recommended_width is not None:
            gauges[f"{prefix}.recommended_width"] = float(self.recommended_width)
        return gauges

    def record(
        self, registry: MetricsRegistry | None = None, prefix: str = "health"
    ) -> None:
        """Publish the report's gauges into a registry (default: the global one).

        A no-op while the registry is disabled, like every other hook.
        """
        registry = registry if registry is not None else METRICS
        for name, value in self.as_metrics(prefix).items():
            registry.gauge(name, value)


def sketch_health(
    sketch: SkimmedSketch,
    target_error: float | None = None,
    target_join_size: float | None = None,
) -> SketchHealthReport:
    """Build a :class:`SketchHealthReport` from a live skimmed sketch.

    Parameters
    ----------
    sketch:
        The synopsis to inspect (flat mode; dyadic sketches are inspected
        through their base level).
    target_error, target_join_size:
        When both are given, the report also checks the Theorem-5 sizing
        rule ``width >= N**2 / (target_error * target_join_size)`` against
        the sketch's actual width.
    """
    inner = sketch._inner.base_sketch if sketch.schema.dyadic else sketch._inner  # noqa: SLF001
    n = inner.absolute_mass
    f2 = max(inner.est_self_join_size(), 0.0)
    uniform_floor = (n * n / inner.domain_size) if n > 0 else 0.0
    skew_score = f2 / uniform_floor if uniform_floor > 0 else 0.0

    threshold = default_threshold(inner, sketch.schema.threshold_multiplier)
    if math.isfinite(threshold):
        # Flat sketches skim through the sketch's memo (same threshold as
        # the join path), so auditing a query just answered re-uses its
        # skim; dyadic ones are skimmed flat at their base level here.
        skim, skimmed = (
            skim_dense(inner, threshold) if sketch.schema.dyadic
            else sketch.skim(threshold)
        )
        dense_count = skim.dense_count
        dense_fraction = skim.dense_mass() / n if n > 0 else 0.0
        residual_linf = residual_infinity_norm(skimmed)
        bound_ok = residual_linf < RESIDUAL_BOUND_FACTOR * threshold
    else:
        dense_count, dense_fraction = 0, 0.0
        residual_linf, bound_ok = 0.0, True

    recommended = None
    if target_error is not None and target_join_size is not None:
        if target_error <= 0 or target_join_size <= 0:
            raise ParameterError("target_error and target_join_size must be positive")
        recommended = max(1, math.ceil(n * n / (target_error * target_join_size)))

    return SketchHealthReport(
        width=inner.width,
        depth=inner.depth,
        domain_size=inner.domain_size,
        stream_size=n,
        estimated_second_moment=f2,
        skew_score=skew_score,
        skim_threshold=threshold,
        dense_value_count=dense_count,
        dense_mass_fraction=min(max(dense_fraction, 0.0), 1.0),
        recommended_width=recommended,
        residual_linf=residual_linf,
        residual_bound_ok=bound_ok,
    )
