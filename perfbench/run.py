"""The repository benchmark: seeded update streams replayed through the public API.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ingest_heavy --seed 1 --seconds 10 --trace 0

One run generates its workload's inputs from ``--seed``, then repeats
*set-up + replay* on a fresh engine until ``--seconds`` have passed (at
least three times).  Every answer is checked against exact ground truth,
and the sharded workload's answers against the serial engine's, bit for
bit.  With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced repetitions and prints
the per-layer metrics.  The last line of standard output is one JSON
object; the exit code is 0 only when every operation succeeded and every
check passed.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import statistics
import struct
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import host  # noqa: E402
import replay  # noqa: E402
import spans  # noqa: E402

#: An answer counts as failed when it is off by more than this share of
#: the exact answer *and* by more than ``ABS_ERROR_SLACK``.  Every
#: workload's sketch has width >= 512, where the skimmed estimator's
#: error on these Zipf(1.1) streams stays below 1% once a stream holds a
#: few batches; the slack covers joins of the warm-up's tiny streams,
#: whose exact size can be a few dozen.
REL_ERROR_BOUND = 0.05
ABS_ERROR_SLACK = 64.0
#: Repetitions of each kind (untraced, traced) a run makes at least.
MIN_REPS = 3
#: Answer latencies needed before the 99th percentile is printed (ten
#: samples beyond it).
P99_MIN_ANSWERS = 1000

END_TO_END = {
    "setup_s": "s",
    "replay_s": "s",
    "ingest_updates_per_s": "1/s",
    "answer_ms_p50": "ms",
    "answer_ms_p90": "ms",
    "synopsis_bytes": "bytes",
    "resident_mb": "MiB",
}

PER_LAYER = {
    "streams.process_bulk.calls": "count",
    "streams.process_bulk.self_s": "s",
    "streams.predicate.s": "s",
    "streams.predicate.kept_ratio": "ratio",
    "streams.answer.calls": "count",
    "streams.answer.self_s": "s",
    "hashing.coalesce.s": "s",
    "hashing.coalesce.distinct_ratio": "ratio",
    "hashing.bulk_tables.s": "s",
    "hashing.bulk_tables.values": "count",
    "hashing.bulk_tables.table_hit_ratio": "ratio",
    "hashing.precompute.s": "s",
    "hashing.dyadic_levels.s": "s",
    "sketches.update.self_s": "s",
    "sketches.update.elements": "count",
    "sketches.point_estimates.s": "s",
    "sketches.point_estimates.values": "count",
    "sketches.copy.s": "s",
    "sketches.subtract.s": "s",
    "sketches.inner_product.s": "s",
    "sketches.heavy_values.s": "s",
    "core.skim.calls": "count",
    "core.skim.self_s": "s",
    "core.skim.dense_values": "count",
    "core.skim.repeat_ratio": "ratio",
    "core.subjoins.self_s": "s",
    "core.join.s": "s",
    "parallel.ingest.s": "s",
    "parallel.merged.calls": "count",
    "parallel.merged.s": "s",
    "parallel.workers_cpu_s": "s",
    "process.cpu_s": "s",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Rep:
    """One set-up + replay on a fresh engine."""

    traced: bool
    setup_s: float = 0.0
    replay_s: float = 0.0
    ingest_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    answers: list = field(default_factory=list)
    failed: int = 0
    attempted: int = 0
    resident_mb: float = 0.0
    synopsis_bytes: int = 0
    layers: dict[str, float] = field(default_factory=dict)
    spans: list = field(default_factory=list)


def _execute(replayer, steps, rep: Rep, timed: bool) -> None:
    """Make each step's call; failures are counted, not raised."""
    for step in steps:
        rep.attempted += 1
        start = time.perf_counter()
        try:
            if step.kind == replay.INGEST:
                replayer.ingest(step.target, step.values, step.weights)
            else:
                rep.answers.append(replayer.answer(step.target))
        except Exception:
            if not rep.failed:
                traceback.print_exc(file=sys.stderr)
            rep.failed += 1
            if step.kind != replay.INGEST:
                rep.answers.append(None)
        elapsed = time.perf_counter() - start
        if timed:
            if step.kind == replay.INGEST:
                rep.ingest_s += elapsed
            else:
                rep.latencies.append(elapsed)


def run_rep(workload, data, traced: bool) -> Rep:
    """Set up a fresh engine, replay every step, tear it down."""
    rep = Rep(traced)
    replayer = workload.make_replayer(data)
    recorder = spans.Recorder() if traced else None
    cpu_before = host.cpu_seconds()
    with spans.installed(recorder) if traced else nullcontext():
        try:
            start = time.perf_counter()
            replayer.setup()
            _execute(replayer, data.setup_steps, rep, timed=False)
            rep.setup_s = time.perf_counter() - start
            start = time.perf_counter()
            _execute(replayer, data.steps, rep, timed=True)
            rep.replay_s = time.perf_counter() - start
            rep.resident_mb = host.resident_mb()
            rep.synopsis_bytes = replayer.synopsis_bytes()
            offered, kept = replayer.kept_counts()
        finally:
            host.note_segments()
            replayer.close()
    cpu_after = host.cpu_seconds()
    if recorder is not None:
        rep.layers = spans.layer_metrics(recorder, offered, kept)
        rep.layers["process.cpu_s"] = cpu_after[0] - cpu_before[0]
        rep.layers["parallel.workers_cpu_s"] = cpu_after[1] - cpu_before[1]
        rep.spans = recorder.spans
        problems = spans.check_counts(recorder, _expected(workload, data, replayer))
        for line in problems:
            print(f"trace self-test: {line}", file=sys.stderr)
        rep.failed += len(problems)
    return rep


def _expected(workload, data, replayer) -> dict:
    steps = data.setup_steps + data.steps
    ingests = [s for s in steps if s.kind == replay.INGEST]
    return {
        "ingests": len(ingests),
        "nonempty": sum(1 for s in ingests if s.kept),
        "answers": len(steps) - len(ingests),
        "streams": len(data.streams),
        "sharded": workload.reference is not None,
        "dyadic": workload.dyadic,
        "levels": replayer.levels,
    }


def check_answers(rep: Rep, data, reference: list | None) -> float:
    """Count wrong answers as failures; return the worst relative error.

    With a ``reference`` (the serial engine's answers on the same input)
    every answer must also equal its reference bit for bit.
    """
    exact = [s.exact for s in data.setup_steps + data.steps if s.kind == replay.ANSWER]
    worst = 0.0
    for i, (estimate, truth) in enumerate(zip(rep.answers, exact)):
        if estimate is None:
            continue  # the raised exception is already counted
        miss = abs(estimate - truth)
        worst = max(worst, miss / truth if truth else miss)
        wrong = not math.isfinite(miss) or (
            miss > REL_ERROR_BOUND * truth and miss > ABS_ERROR_SLACK
        )
        if wrong or (reference is not None and estimate != reference[i]):
            rep.failed += 1
    return worst


def answers_digest(answers: list) -> str:
    """SHA-256 of the answers' float64 bits: equal digests mean
    bit-identical answers."""
    sha = hashlib.sha256()
    for answer in answers:
        sha.update(struct.pack("<d", math.nan if answer is None else answer))
    return sha.hexdigest()


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(reps: list[Rep], offered: int) -> dict[str, float]:
    """Medians over the repetitions; latency percentiles over every
    answer of every repetition."""
    latencies_ms = np.array([x for r in reps for x in r.latencies]) * 1e3
    return {
        "setup_s": _median(r.setup_s for r in reps),
        "replay_s": _median(r.replay_s for r in reps),
        "ingest_updates_per_s": _median(offered / r.ingest_s for r in reps),
        "answer_ms_p50": float(np.percentile(latencies_ms, 50)),
        "answer_ms_p90": float(np.percentile(latencies_ms, 90)),
        "synopsis_bytes": float(reps[0].synopsis_bytes),
        "resident_mb": _median(r.resident_mb for r in reps),
    }


def per_layer(traced: list[Rep], untraced: list[Rep]) -> dict[str, float]:
    out = {
        name: _median(r.layers[name] for r in traced)
        for name in PER_LAYER
        if name != "trace.overhead_ratio"
    }
    out["trace.overhead_ratio"] = _median(r.replay_s for r in traced) / _median(
        r.replay_s for r in untraced
    )
    return out


def _observability_on() -> bool:
    """Report and return whether any observability singleton is on; the
    benchmark measures the program with all of them off."""
    enabled = host.observability_enabled()
    if enabled:
        print(f"observability must stay off, found on: {enabled}", file=sys.stderr)
    return bool(enabled)


def _dump_spans(workload: str, seed: int, traced: list[Rep], facts: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    reps = [
        [[name, round(start, 7), round(end, 7), parent] for name, start, end, parent
         in rep.spans]
        for rep in traced
    ]
    path.write_text(json.dumps({"workload": workload, "seed": seed,
                                "fingerprint": facts, "reps": reps}))
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"cannot import the program from {ROOT / 'src'}: {error}",
              file=sys.stderr)
        return 2
    if args.workload not in replay.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(replay.WORKLOADS)}")
    workload = replay.WORKLOADS[args.workload]
    facts = host.fingerprint(ROOT)

    data = workload.make_input(args.seed)
    reference = None
    if workload.reference is not None:
        # The serial engine's answers on identical input, untimed.
        serial = replay.WORKLOADS[workload.reference]
        reference = run_rep(serial, data, traced=False).answers

    reps: list[Rep] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        if _observability_on():
            return 1
        try:
            rep = run_rep(workload, data, traced)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            rep = Rep(traced, failed=1, attempted=1)
            reps.append(rep)
            break
        reps.append(rep)
        untraced = [r for r in reps if not r.traced]
        enough = len(untraced) >= MIN_REPS and (
            not args.trace or len(reps) - len(untraced) >= MIN_REPS
        )
        # Stop once another repetition would run past the deadline.
        typical = _median(r.setup_s + r.replay_s for r in reps)
        if enough and time.perf_counter() + typical >= deadline:
            break

    if _observability_on():
        return 1
    worst = max(check_answers(r, data, reference) for r in reps)
    # Before the resource tracker stops: stopping it unlinks what is left.
    leaked = host.leaked_segments()
    host.stop_helpers()
    if leaked:
        print(f"shared-memory segments left behind: {leaked}", file=sys.stderr)
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps) + len(leaked)
    correct = failed == 0

    untraced = [r for r in reps if not r.traced]
    traced_reps = [r for r in reps if r.traced]
    print(f"workload: {args.workload}  seed: {args.seed}  "
          f"repetitions: {len(untraced)} untraced, {len(traced_reps)} traced")
    print(f"fingerprint: {json.dumps(facts)}")
    print(f"input_sha256: {data.digest}")
    print(f"answers_sha256: {answers_digest(reps[0].answers)}")
    print(f"max_rel_error = {worst:.6g} ratio")
    if args.trace:
        path = _dump_spans(args.workload, args.seed, traced_reps, facts)
        print(f"spans: {path.relative_to(ROOT)}")
    metrics: dict[str, dict] = {}
    if correct:
        if args.trace:
            values, units = per_layer(traced_reps, untraced), PER_LAYER
        else:
            values = end_to_end(untraced, data.offered)
            units = END_TO_END
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
        if not args.trace:
            answers = sum(len(r.latencies) for r in untraced)
            print(f"answers timed: {answers}")
            if answers >= P99_MIN_ANSWERS:
                p99 = np.percentile([x for r in untraced for x in r.latencies], 99)
                print(f"answer_ms_p99 = {p99 * 1e3:.6g} ms")
    print(f"failed_op_ratio = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted})")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
