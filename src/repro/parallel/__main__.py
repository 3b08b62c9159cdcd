"""CLI for the parallel ingest subsystem.

Prove serial-vs-sharded exactness on a seeded stream (exit 1 on any
counter or query mismatch)::

    python -m repro.parallel selfcheck --workers 4 --modes serial,shm

Measure ingest throughput as the worker count scales::

    python -m repro.parallel bench --workers-list 1,2,4 --mode shm

Enforce the "parallel must win" contract (exit 1 if shared-memory
ingest at >1 worker does not beat serial throughput)::

    python -m repro.parallel scaling-gate --bench-json benchmarks/results/BENCH_pr10.json
    python -m repro.parallel scaling-gate            # live measurement
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import TYPE_CHECKING

from ..errors import ReproError
from .shards import INGEST_MODES

if TYPE_CHECKING:
    import numpy as np

    from ..sketches.serialize import AnySketch

_DEFAULT_MODES = ",".join(INGEST_MODES)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.parallel",
        description="Self-check and benchmark the sharded parallel ingest path.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    selfcheck = sub.add_parser(
        "selfcheck",
        help="serial-vs-sharded equality on a seeded stream (exit 1 on mismatch)",
    )
    selfcheck.add_argument("--workers", type=int, default=4)
    selfcheck.add_argument(
        "--modes",
        default=_DEFAULT_MODES,
        help=f"comma-separated ingest modes to check (default: {_DEFAULT_MODES})",
    )
    selfcheck.add_argument("--domain", type=int, default=1 << 12)
    selfcheck.add_argument("--elements", type=int, default=20_000)
    selfcheck.add_argument("--seed", type=int, default=7)
    selfcheck.add_argument(
        "--synopsis", default="skimmed", choices=("skimmed", "agms", "hash")
    )

    bench = sub.add_parser(
        "bench", help="ingest-throughput table across worker counts"
    )
    bench.add_argument(
        "--workers-list",
        default="1,2,4",
        help="comma-separated worker counts to time (default: 1,2,4)",
    )
    bench.add_argument("--mode", default="shm", choices=INGEST_MODES)
    bench.add_argument("--domain", type=int, default=1 << 14)
    bench.add_argument("--elements", type=int, default=200_000)
    bench.add_argument("--batch", type=int, default=8_192)
    bench.add_argument("--seed", type=int, default=7)
    bench.add_argument(
        "--synopsis", default="hash", choices=("skimmed", "agms", "hash")
    )

    gate = sub.add_parser(
        "scaling-gate",
        help="fail (exit 1) unless shm ingest at >1 worker beats serial",
    )
    gate.add_argument(
        "--bench-json",
        default=None,
        help="gate a committed BENCH document (ingest.parallel.shm records) "
        "instead of measuring live",
    )
    gate.add_argument(
        "--min-batch",
        type=int,
        default=8_192,
        help="only gate records at or above this batch size — the "
        "documented threshold where shm must win (default: 8192)",
    )
    gate.add_argument(
        "--workers-list",
        default="2,4",
        help="worker counts to gate / measure (default: 2,4)",
    )
    gate.add_argument("--domain", type=int, default=1 << 12)
    gate.add_argument("--elements", type=int, default=500_000)
    gate.add_argument("--batch", type=int, default=8_192)
    gate.add_argument("--seed", type=int, default=7)
    gate.add_argument("--repeats", type=int, default=3)
    return parser


def _seeded_stream(
    domain: int, elements: int, seed: int
) -> "tuple[np.ndarray, np.ndarray]":
    """Deterministic values + integer-valued weights (5% deletions)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    values = rng.integers(0, domain, size=elements, dtype=np.int64)
    weights = np.ones(elements, dtype=np.float64)
    weights[rng.random(elements) < 0.05] = -1.0
    return values, weights


def _counters_equal(left: "AnySketch", right: "AnySketch") -> bool:
    """Bit-level equality of two synopses via their serialised states."""
    import numpy as np

    from ..sketches.serialize import sketch_state

    left_state, right_state = sketch_state(left), sketch_state(right)
    if left_state.keys() != right_state.keys():
        return False
    for key, left_value in left_state.items():
        right_value = right_state[key]
        if isinstance(left_value, np.ndarray):
            if not np.array_equal(left_value, right_value):
                return False
        elif left_value != right_value:
            return False
    return True


def _selfcheck(args: argparse.Namespace) -> int:
    import numpy as np

    from ..core.config import SketchParameters
    from ..parallel import ParallelStreamEngine
    from ..streams.engine import StreamEngine
    from ..streams.query import JoinCountQuery, PointQuery, SelfJoinQuery

    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    parameters = SketchParameters(width=128, depth=5)
    values, weights = _seeded_stream(args.domain, args.elements, args.seed)
    batches = np.array_split(np.arange(values.size), 8)

    serial = StreamEngine(
        args.domain, parameters, synopsis=args.synopsis, seed=args.seed
    )
    for name in ("f", "g"):
        serial.register_stream(name)
        for batch in batches:
            serial.process_bulk(name, values[batch], weights[batch])

    queries = [JoinCountQuery("f", "g"), SelfJoinQuery("f")]
    if args.synopsis != "agms":
        queries.append(PointQuery("f", int(values[0])))
    serial_answers = [serial.answer(q) for q in queries]

    failures = 0
    for mode in modes:
        with ParallelStreamEngine(
            args.domain,
            parameters,
            synopsis=args.synopsis,
            seed=args.seed,
            workers=args.workers,
            mode=mode,
        ) as engine:
            for name in ("f", "g"):
                engine.register_stream(name)
                for batch in batches:
                    engine.process_bulk(name, values[batch], weights[batch])
            for stream in ("f", "g"):
                if _counters_equal(
                    serial.synopsis_for(stream), engine.synopsis_for(stream)
                ):
                    print(f"[{mode}] stream {stream!r}: counters identical")
                else:
                    print(f"[{mode}] stream {stream!r}: COUNTER MISMATCH")
                    failures += 1
            for query, expected in zip(queries, serial_answers):
                got = engine.answer(query)
                label = type(query).__name__
                if got == expected:
                    print(f"[{mode}] {label}: {got:g} == serial")
                else:
                    print(f"[{mode}] {label}: {got:g} != serial {expected:g}")
                    failures += 1
    if failures:
        print(f"selfcheck FAILED: {failures} mismatch(es)")
        return 1
    print(f"selfcheck OK: {len(modes)} mode(s) x {args.workers} workers")
    return 0


def _bench(args: argparse.Namespace) -> int:
    import numpy as np

    from ..core.config import SketchParameters
    from ..parallel import ParallelStreamEngine

    worker_counts = [int(w) for w in args.workers_list.split(",") if w.strip()]
    parameters = SketchParameters(width=256, depth=7)
    values, weights = _seeded_stream(args.domain, args.elements, args.seed)
    splits = np.array_split(
        np.arange(values.size), max(1, values.size // args.batch)
    )

    print(f"mode={args.mode} synopsis={args.synopsis} "
          f"elements={args.elements} batch~{args.batch}")
    print(f"{'workers':>8} {'seconds':>10} {'updates/sec':>14}")
    for workers in worker_counts:
        with ParallelStreamEngine(
            args.domain,
            parameters,
            synopsis=args.synopsis,
            seed=args.seed,
            workers=workers,
            mode=args.mode,
        ) as engine:
            engine.register_stream("f")
            start = time.perf_counter()
            for batch in splits:
                engine.process_bulk("f", values[batch], weights[batch])
            engine.flush()
            elapsed = time.perf_counter() - start
        rate = args.elements / elapsed if elapsed else float("inf")
        print(f"{workers:>8} {elapsed:>10.4f} {rate:>14,.0f}")
    return 0


def _gate_from_file(args: argparse.Namespace) -> int:
    """Gate a committed BENCH document's ingest.parallel.shm records.

    Baselines are the series' own ``workers=1`` records (the serial
    no-executor path); a gated record passes when its ``updates_per_sec``
    strictly beats the baseline with matching stream parameters.
    Deterministic — CI can enforce the contract without re-measuring.
    """
    from ..bench.schema import read_bench

    doc = read_bench(args.bench_json)
    shm_records = [
        r for r in doc["records"] if r["scenario"] == "ingest.parallel.shm"
    ]

    def stream_key(record: dict) -> tuple:
        params = record["params"]
        return tuple(
            params.get(k) for k in ("n", "batch", "domain", "width", "depth", "seed")
        )

    baselines = {
        stream_key(r): r for r in shm_records if r["params"]["workers"] == 1
    }
    gated = [
        r
        for r in shm_records
        if r["params"]["workers"] > 1
        and r["params"].get("batch", 0) >= args.min_batch
    ]
    if not gated:
        print(
            f"scaling-gate FAILED: {args.bench_json} has no "
            f"ingest.parallel.shm records with workers>1 and "
            f"batch>={args.min_batch}"
        )
        return 1
    failures = 0
    print(f"{'workers':>8} {'shm upd/s':>14} {'serial upd/s':>14} {'speedup':>8}")
    for record in sorted(gated, key=lambda r: r["params"]["workers"]):
        baseline = baselines.get(stream_key(record))
        if baseline is None:
            print(f"scaling-gate FAILED: no workers=1 baseline for {record['params']}")
            failures += 1
            continue
        shm_rate = record["updates_per_sec"] or 0.0
        serial_rate = baseline["updates_per_sec"] or 0.0
        speedup = shm_rate / serial_rate if serial_rate else float("inf")
        verdict = "ok" if shm_rate > serial_rate else "FAIL"
        print(
            f"{record['params']['workers']:>8} {shm_rate:>14,.0f} "
            f"{serial_rate:>14,.0f} {speedup:>7.2f}x {verdict}"
        )
        if shm_rate <= serial_rate:
            failures += 1
    if failures:
        print(f"scaling-gate FAILED: {failures} record(s) did not beat serial")
        return 1
    print(f"scaling-gate OK: {len(gated)} shm record(s) beat serial")
    return 0


def _gate_live(args: argparse.Namespace) -> int:
    """Measure serial vs shm ingest throughput here and now; gate on it."""
    import numpy as np

    from ..sketches import HashSketchSchema
    from .shards import ShardedIngestor

    worker_counts = [int(w) for w in args.workers_list.split(",") if w.strip()]
    schema = HashSketchSchema(256, 7, args.domain, seed=args.seed)
    values, weights = _seeded_stream(args.domain, args.elements, args.seed)
    splits = np.array_split(
        np.arange(values.size), max(1, values.size // args.batch)
    )

    def best_rate(workers: int, mode: str) -> float:
        best = float("inf")
        for _ in range(args.repeats):
            with ShardedIngestor(schema, workers=workers, mode=mode) as ingestor:
                start = time.perf_counter()
                for batch in splits:
                    ingestor.ingest(values[batch], weights[batch])
                ingestor.merged()
                best = min(best, time.perf_counter() - start)
        return args.elements / best

    serial_rate = best_rate(1, "serial")
    print(f"elements={args.elements} batch={args.batch} domain={args.domain}")
    print(f"{'workers':>8} {'mode':>8} {'updates/sec':>14} {'speedup':>8}")
    print(f"{1:>8} {'serial':>8} {serial_rate:>14,.0f} {'1.00x':>8}")
    failures = 0
    for workers in worker_counts:
        shm_rate = best_rate(workers, "shm")
        verdict = "ok" if shm_rate > serial_rate else "FAIL"
        print(
            f"{workers:>8} {'shm':>8} {shm_rate:>14,.0f} "
            f"{shm_rate / serial_rate:>7.2f}x {verdict}"
        )
        if shm_rate <= serial_rate:
            failures += 1
    if failures:
        print(f"scaling-gate FAILED: {failures} worker count(s) did not beat serial")
        return 1
    print(f"scaling-gate OK: shm beat serial at {worker_counts} worker(s)")
    return 0


def _scaling_gate(args: argparse.Namespace) -> int:
    if args.bench_json:
        return _gate_from_file(args)
    return _gate_live(args)


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro.parallel``."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "selfcheck":
            return _selfcheck(args)
        if args.command == "scaling-gate":
            return _scaling_gate(args)
        return _bench(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
