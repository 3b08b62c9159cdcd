"""The traced run: spans around the calls into each layer's public functions.

:func:`installed` swaps every callable in :func:`_targets` for a wrapper
that records a span (name, start, end, parent) into a :class:`Recorder`
and restores the originals on exit.  Nothing under ``src/`` changes: a
module-level function is wrapped under the name its caller looks up
(``repro.core.estimator`` binds ``skim_dense`` at import, for example),
a method on the class that defines it.

:func:`check_counts` is the self-test: the workload fixes how often most
layers must be entered, so a wrapper bound to a name no caller looks up
shows up as a count mismatch instead of as a zero.
"""

from __future__ import annotations

import functools
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


#: The span around the benchmark's own repeat-skim bookkeeping.
OWN = "trace.skim_fingerprint"


class Recorder:
    """Spans of one traced replay, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._skimmed = weakref.WeakKeyDictionary()

    def call(self, name, suppress, fn, args, kwargs, count=None):
        """Run ``fn`` inside a span, unless an open span is in ``suppress``."""
        if any(self.spans[i][0] in suppress for i in self._open):
            return fn(*args, **kwargs)
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        span = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(span)
        self._open.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()
        if count is not None:
            count(self.counts, args, result)
        return result

    def note_skim(self, sketch) -> None:
        """Count a skim as a repeat when its sketch is unchanged since its
        last skim (same object, same counters, same tracked mass).

        Runs inside an :data:`OWN` span, so hashing the counters does not
        count towards any layer's time.
        """
        blocks = sketch.counters_view()
        fingerprint = (
            hash(b"".join(block.tobytes() for block in blocks)),
            tuple(sketch.tracked_masses()),
        )
        if self._skimmed.get(sketch) == fingerprint:
            self.counts["core.skim.repeats"] += 1
        self._skimmed[sketch] = fingerprint

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, total seconds ``s`` and ``self_s``.

        :data:`OWN` spans stay out of the result, and their time is taken
        out of every span that encloses them.
        """
        durations = [end - start for _, start, end, _ in self.spans]
        for name, start, end, parent in self.spans:
            if name == OWN:
                while parent >= 0:
                    durations[parent] -= end - start
                    parent = self.spans[parent][3]
        covered = [0.0] * len(self.spans)
        for (name, _, _, parent), duration in zip(self.spans, durations):
            if parent >= 0 and name != OWN:
                covered[parent] += duration
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        for (name, _, _, _), duration, child in zip(self.spans, durations, covered):
            if name == OWN:
                continue
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - child
        return out


# -- what each wrapper counts ---------------------------------------------------


def _count_coalesce(counts, args, result) -> None:
    counts["hashing.coalesce.in"] += np.asarray(args[0]).size
    counts["hashing.coalesce.out"] += result[0].size


def _count_bulk_tables(counts, args, result) -> None:
    n = np.asarray(args[1]).size
    counts["hashing.bulk_tables.values"] += n
    # A table hit returns int32 buckets; the polynomial path int64.
    if result[0].dtype == np.int32:
        counts["hashing.bulk_tables.hits"] += n


def _count_build(counts, args, result) -> None:
    counts["hashing.dyadic_levels.builds"] += 1


def _count_elements(counts, args, result) -> None:
    counts["sketches.update.elements"] += np.asarray(args[1]).size


def _count_estimates(counts, args, result) -> None:
    counts["sketches.point_estimates.values"] += np.asarray(args[1]).size


def _count_skim(counts, args, result) -> None:
    dense = result[0].dense_count
    counts["core.skim.dense_values"] += dense
    counts["core.skim.nonempty"] += dense > 0


def _targets():
    """``(owner, attribute, span name, suppressed under, counter)`` rows."""
    from repro.core import estimator
    from repro.core.estimator import SkimmedSketch
    from repro.hashing import bulk
    from repro.hashing.bulk import BulkHashCache
    from repro.parallel import ParallelStreamEngine, ShardedIngestor
    from repro.sketches import hash_sketch
    from repro.sketches.dyadic import DyadicHashSketch
    from repro.sketches.hash_sketch import HashSketch, HashSketchSchema
    from repro.streams.engine import StreamEngine
    from repro.streams.query import RangePredicate, TruePredicate

    update = ("sketches.update", "sketches.subtract")
    rows = [
        (StreamEngine, "process_bulk", "streams.process_bulk", (), None),
        (RangePredicate, "accepts_bulk", "streams.predicate", (), None),
        (TruePredicate, "accepts_bulk", "streams.predicate", (), None),
        # The sharded engine's answer merges shards and then calls the
        # serial answer; one span covers both.
        (StreamEngine, "answer", "streams.answer", ("streams.answer",), None),
        (ParallelStreamEngine, "answer", "streams.answer", ("streams.answer",), None),
        (hash_sketch, "coalesce_updates", "hashing.coalesce", (), _count_coalesce),
        (bulk, "coalesce_updates", "hashing.coalesce", (), _count_coalesce),
        (HashSketchSchema, "bulk_tables", "hashing.bulk_tables", (), _count_bulk_tables),
        (HashSketchSchema, "precompute", "hashing.precompute", (), None),
        (BulkHashCache, "__init__", "hashing.dyadic_levels", (), _count_build),
        (BulkHashCache, "level", "hashing.dyadic_levels", (), None),
        (HashSketch, "update_bulk", "sketches.update", update, _count_elements),
        (HashSketch, "update_coalesced", "sketches.update", update, _count_elements),
        (DyadicHashSketch, "update_bulk", "sketches.update", update, _count_elements),
        (DyadicHashSketch, "update_coalesced", "sketches.update", update, _count_elements),
        (HashSketch, "point_estimates", "sketches.point_estimates", (), _count_estimates),
        (HashSketch, "copy", "sketches.copy", ("sketches.copy",), None),
        (DyadicHashSketch, "copy", "sketches.copy", ("sketches.copy",), None),
        (HashSketch, "subtract_frequencies", "sketches.subtract",
         ("sketches.subtract",), None),
        (DyadicHashSketch, "subtract_frequencies", "sketches.subtract",
         ("sketches.subtract",), None),
        (HashSketch, "table_join_estimates", "sketches.inner_product", (), None),
        (DyadicHashSketch, "heavy_values", "sketches.heavy_values", (), None),
        (estimator, "skim_dense", "core.skim", (), _count_skim),
        (estimator, "skim_dense_dyadic", "core.skim", (), _count_skim),
        (estimator, "est_skim_join_size_from_parts", "core.subjoins", (), None),
        (SkimmedSketch, "join_breakdown", "core.join", (), None),
        (ShardedIngestor, "ingest", "parallel.ingest", (), None),
        (ShardedIngestor, "merged", "parallel.merged", (), None),
    ]
    return rows


def _wrap(recorder: Recorder, name, suppress, fn, count):
    if name == "core.skim":

        @functools.wraps(fn)
        def skim(*args, **kwargs):
            recorder.call(OWN, (), recorder.note_skim, args[:1], {})
            return recorder.call(name, suppress, fn, args, kwargs, count)

        return skim

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(name, suppress, fn, args, kwargs, count)

    return wrapper


@contextmanager
def installed(recorder: Recorder):
    """Wrap every target callable for the duration of the block."""
    originals = []
    try:
        for owner, attr, name, suppress, count in _targets():
            if attr not in vars(owner):
                raise LookupError(f"{owner.__name__}.{attr} is not defined there")
            original = vars(owner)[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, _wrap(recorder, name, suppress, original, count))
        yield recorder
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


# -- per-layer metrics and the count self-test ----------------------------------


def layer_metrics(recorder: Recorder, offered: int, kept: int) -> dict[str, float]:
    """The per-layer metrics of one traced replay (set-up plus replay)."""
    spans = recorder.summary()
    counts = recorder.counts

    def get(name, key):
        return spans[name][key] if name in spans else 0.0

    def ratio(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    skims = get("core.skim", "calls")
    return {
        "streams.process_bulk.calls": get("streams.process_bulk", "calls"),
        "streams.process_bulk.self_s": get("streams.process_bulk", "self_s"),
        "streams.predicate.s": get("streams.predicate", "s"),
        "streams.predicate.kept_ratio": kept / offered if offered else 0.0,
        "streams.answer.calls": get("streams.answer", "calls"),
        "streams.answer.self_s": get("streams.answer", "self_s"),
        "hashing.coalesce.s": get("hashing.coalesce", "s"),
        "hashing.coalesce.distinct_ratio": ratio(
            "hashing.coalesce.out", "hashing.coalesce.in"
        ),
        "hashing.bulk_tables.s": get("hashing.bulk_tables", "s"),
        "hashing.bulk_tables.values": counts["hashing.bulk_tables.values"],
        "hashing.bulk_tables.table_hit_ratio": ratio(
            "hashing.bulk_tables.hits", "hashing.bulk_tables.values"
        ),
        "hashing.precompute.s": get("hashing.precompute", "s"),
        "hashing.dyadic_levels.s": get("hashing.dyadic_levels", "s"),
        "sketches.update.self_s": get("sketches.update", "self_s"),
        "sketches.update.elements": counts["sketches.update.elements"],
        "sketches.point_estimates.s": get("sketches.point_estimates", "s"),
        "sketches.point_estimates.values": counts["sketches.point_estimates.values"],
        "sketches.copy.s": get("sketches.copy", "s"),
        "sketches.subtract.s": get("sketches.subtract", "s"),
        "sketches.inner_product.s": get("sketches.inner_product", "s"),
        "sketches.heavy_values.s": get("sketches.heavy_values", "s"),
        "core.skim.calls": skims,
        "core.skim.self_s": get("core.skim", "self_s"),
        "core.skim.dense_values": counts["core.skim.dense_values"],
        "core.skim.repeat_ratio": counts["core.skim.repeats"] / skims if skims else 0.0,
        "core.subjoins.self_s": get("core.subjoins", "self_s"),
        "core.join.s": get("core.join", "s"),
        "parallel.ingest.s": get("parallel.ingest", "s"),
        "parallel.merged.calls": get("parallel.merged", "calls"),
        "parallel.merged.s": get("parallel.merged", "s"),
    }


def check_counts(recorder: Recorder, expected: dict) -> list[str]:
    """Compare span counts with the counts the workload fixes.

    ``expected`` carries ``ingests`` (batches offered), ``nonempty``
    (batches with at least one value kept), ``answers``, ``streams``,
    ``sharded``, ``dyadic`` and ``levels`` (hash-sketch levels per
    batch).  Every answer is one skimmed join, hence two skims.  Returns
    one line per mismatch; empty means every wrapper fired as often as
    the workload says it must.
    """
    spans = recorder.summary()

    def calls(name):
        return int(spans[name]["calls"]) if name in spans else 0

    answers = expected["answers"]
    sharded = expected["sharded"]
    dyadic = expected["dyadic"]
    engine = not dyadic
    updates = 0 if sharded else expected["nonempty"]
    subtracts = int(recorder.counts["core.skim.nonempty"])
    rules = {
        "streams.process_bulk": expected["ingests"] if engine else 0,
        "streams.predicate": expected["ingests"] if engine else 0,
        "streams.answer": answers if engine else 0,
        "core.join": answers,
        "core.subjoins": answers,
        "core.skim": 2 * answers,
        "sketches.copy": 2 * answers,
        "sketches.inner_product": answers,
        "sketches.heavy_values": 2 * answers if dyadic else 0,
        "sketches.update": updates,
        "sketches.subtract": subtracts,
        "hashing.coalesce": updates + subtracts,
        "hashing.precompute": 0 if dyadic else 1,
        "hashing.bulk_tables": calls("sketches.point_estimates")
        + expected["levels"] * (updates + subtracts),
        "parallel.ingest": expected["nonempty"] if sharded else 0,
        "parallel.merged": expected["streams"] * answers if sharded else 0,
    }
    problems = [
        f"{name}: {calls(name)} calls, workload fixes {want}"
        for name, want in rules.items()
        if calls(name) != want
    ]
    estimates = calls("sketches.point_estimates")
    if estimates < 2 * answers or (not dyadic and estimates != 2 * answers):
        problems.append(
            f"sketches.point_estimates: {estimates} calls for {answers} answers"
        )
    builds = int(recorder.counts["hashing.dyadic_levels.builds"])
    if builds != (updates + subtracts if dyadic else 0):
        problems.append(f"hashing.dyadic_levels: {builds} cache builds")
    return problems
