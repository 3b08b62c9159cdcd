"""Profiling toolbox: record a profiled smoke run, inspect, convert.

Usage::

    python -m repro.profile record --out run.prof.jsonl \\
        --timeseries-out run.ts.jsonl --seconds 2
    python -m repro.profile top run.prof.jsonl
    python -m repro.profile convert run.prof.jsonl run.collapsed
    python -m repro.profile convert run.prof.jsonl run.speedscope.json
    python -m repro.profile selfcheck

``record`` drives the built-in skimmed-join smoke workload (stream
engine ingest + join/self-join answers) under the sampling profiler,
the flight recorder and the span tracer, then writes the JSONL
artifacts.  ``top`` prints the aggregate hottest-frames report.
``convert`` emits collapsed stacks (flamegraph input) or speedscope
JSON, chosen by ``--format`` or inferred from the output extension.
``selfcheck`` proves the whole subsystem end to end (span attribution,
exporter round-trips, ring aging/byte bound, live HTTP endpoints) and
exits non-zero on the first failure — CI runs it via
``make profile-smoke``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Callable

from . import PROFILER, RECORDER
from .export import (
    aggregate_samples,
    parse_collapsed,
    profile_from_jsonl,
    profile_to_collapsed,
    profile_to_jsonl,
    profile_to_speedscope,
    read_profile_jsonl,
    render_top,
    validate_speedscope,
    write_profile_jsonl,
)
from .recorder import (
    TelemetryFrame,
    TelemetryRing,
    validate_timeseries,
    write_timeseries_jsonl,
)
from .sampler import DEFAULT_HZ

#: Span-name prefixes that count as "attributed to a skim/join phase".
JOIN_SPAN_PREFIXES = ("skim", "estimate", "engine.answer")


def _smoke_workload(
    domain: int,
    elements: int,
    seed: int,
    seconds: float,
    until: Callable[[], bool] | None = None,
) -> int:
    """Ingest-and-answer loop on a skimmed-synopsis engine.

    Runs for ``seconds`` of wall-clock (or until ``until()`` goes true),
    alternating bulk ingest with join / self-join answers so samples
    land in the update, SKIMDENSE and ESTSKIMJOINSIZE paths.  Returns
    the number of queries answered.  Imports numpy lazily — the package
    itself must stay importable without it.
    """
    import numpy as np

    from ..core.config import SketchParameters
    from ..streams.engine import StreamEngine
    from ..streams.query import JoinCountQuery, SelfJoinQuery

    rng = np.random.default_rng(seed)
    engine = StreamEngine(
        domain, SketchParameters(width=128, depth=5), synopsis="skimmed", seed=seed
    )
    for name in ("f", "g"):
        engine.register_stream(name)
    values = rng.integers(0, domain, size=elements)
    weights = rng.integers(1, 4, size=elements).astype(float)
    queries = [JoinCountQuery("f", "g"), SelfJoinQuery("f")]

    deadline = time.perf_counter() + seconds
    answered = 0
    while time.perf_counter() < deadline:
        if until is not None and until():
            break
        for name in ("f", "g"):
            engine.process_bulk(name, values, weights)
        for query in queries:
            engine.answer(query)
            answered += 1
    return answered


def _record(args: argparse.Namespace) -> int:
    from ..obs import METRICS
    from ..trace import TRACER

    for flag, path in (("--out", args.out), ("--timeseries-out", args.timeseries_out)):
        if path:
            try:
                with open(path, "a", encoding="utf-8"):
                    pass
            except OSError as exc:
                print(f"cannot write {flag} path: {exc}", file=sys.stderr)
                return 1

    PROFILER.reset()
    RECORDER.reset()
    METRICS.reset()
    METRICS.enable()
    TRACER.reset()
    TRACER.enable()
    PROFILER.start(hz=args.hz)
    RECORDER.start(interval=args.interval)
    try:
        answered = _smoke_workload(args.domain, args.elements, args.seed, args.seconds)
    finally:
        PROFILER.stop()
        RECORDER.stop()
        TRACER.disable()
        METRICS.disable()

    snapshot = PROFILER.snapshot()
    write_profile_jsonl(args.out, snapshot)
    print(
        f"recorded {len(snapshot['samples'])} samples at {snapshot['hz']:g} Hz "
        f"({answered} queries answered) -> {args.out}"
    )
    if args.timeseries_out:
        ts = RECORDER.snapshot()
        write_timeseries_jsonl(args.timeseries_out, ts)
        print(
            f"recorded {len(ts['frames'])} telemetry frames "
            f"({ts['aged']} aged) -> {args.timeseries_out}"
        )
    return 0


def _top(args: argparse.Namespace) -> int:
    try:
        snapshot = read_profile_jsonl(args.profile)
    except (OSError, ValueError) as exc:
        print(f"invalid profile {args.profile}: {exc}", file=sys.stderr)
        return 1
    print(render_top(aggregate_samples(snapshot), limit=args.limit))
    return 0


def _convert(args: argparse.Namespace) -> int:
    try:
        snapshot = read_profile_jsonl(args.profile)
    except (OSError, ValueError) as exc:
        print(f"invalid profile {args.profile}: {exc}", file=sys.stderr)
        return 1
    fmt = args.format
    if fmt is None:
        fmt = "speedscope" if args.out.endswith(".json") else "collapsed"
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            if fmt == "collapsed":
                fh.write(profile_to_collapsed(snapshot))
            else:
                json.dump(profile_to_speedscope(snapshot, name=args.profile), fh)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    where = (
        "feed it to flamegraph.pl / speedscope"
        if fmt == "collapsed"
        else "open it at https://www.speedscope.app"
    )
    print(f"wrote {fmt} output to {args.out}; {where}")
    return 0


def _synthetic_frame(index: int, keys: int) -> TelemetryFrame:
    counts = {f"counter.{k}": float(index + k) for k in range(keys)}
    gauges = {f"gauge.{k}": float(k) / (index + 1) for k in range(keys // 2)}
    return TelemetryFrame(float(index), float(index + 1), counts, gauges)


def _check_ring_aging(fail: Callable[[str], None]) -> None:
    """Long synthetic run: the ring must stay within its byte bound while
    conserving every pushed window through aging."""
    ring = TelemetryRing(tier_capacity=4, tiers=3, max_bytes=8192)
    pushes = 500
    for index in range(pushes):
        ring.push(_synthetic_frame(index, keys=16))
        if ring.approx_bytes > ring.max_bytes:
            fail(
                f"ring byte bound violated after push {index}: "
                f"{ring.approx_bytes} > {ring.max_bytes}"
            )
            return
    frames = ring.frames()
    if ring.aged == 0:
        fail("ring never aged a frame over a 500-push run")
    if sum(f.merged for f in frames) != pushes:
        fail(
            f"aging lost windows: {sum(f.merged for f in frames)} accounted, "
            f"{pushes} pushed"
        )
    for older, newer in zip(frames, frames[1:]):
        if newer.t0 < older.t1 - 1e-9:
            fail(f"ring frames overlap: {older!r} then {newer!r}")
            return
    if max(f.res for f in frames) == 0:
        fail("no frame was coarsened despite aging")
    validate_timeseries(
        {
            "version": 1,
            "kind": "repro.timeseries",
            "interval": 1.0,
            "pushed": ring.pushed,
            "aged": ring.aged,
            "frames": [f.as_dict() for f in frames],
        }
    )


def _check_roundtrip(snapshot: dict[str, Any], fail: Callable[[str], None]) -> None:
    reparsed = profile_from_jsonl(profile_to_jsonl(snapshot))
    if len(reparsed["samples"]) != len(snapshot["samples"]):
        fail("JSONL round-trip changed the sample count")

    collapsed = profile_to_collapsed(snapshot)
    stacks = parse_collapsed(collapsed)
    if sum(stacks.values()) != len(snapshot["samples"]):
        fail(
            f"collapsed round-trip lost samples: {sum(stacks.values())} "
            f"counted, {len(snapshot['samples'])} recorded"
        )

    speedscope = validate_speedscope(profile_to_speedscope(snapshot))
    exported = sum(len(p["samples"]) for p in speedscope["profiles"])
    if exported != len(snapshot["samples"]):
        fail(
            f"speedscope round-trip lost samples: {exported} exported, "
            f"{len(snapshot['samples'])} recorded"
        )
    weight_in = sum(s["weight"] for s in snapshot["samples"])
    weight_out = sum(sum(p["weights"]) for p in speedscope["profiles"])
    if abs(weight_in - weight_out) > 1e-9 * max(1.0, weight_in):
        fail("speedscope round-trip changed total sampled seconds")


def _check_endpoints(fail: Callable[[str], None]) -> None:
    """``/dashboard`` + ``/profile`` + ``/timeseries`` must serve parseable
    bodies (and honour HEAD / reject bad params) while ingest is live."""
    import threading
    import urllib.error
    import urllib.request

    import numpy as np

    from ..core.config import SketchParameters
    from ..monitor.service import MonitorServer, live_source
    from ..obs import METRICS
    from ..streams.engine import StreamEngine

    engine = StreamEngine(
        1 << 10, SketchParameters(width=64, depth=3), synopsis="skimmed", seed=11
    )
    engine.register_stream("f")
    rng = np.random.default_rng(11)
    values = rng.integers(0, 1 << 10, size=2_000)
    weights = np.ones(values.size)

    stop = threading.Event()

    def ingest() -> None:
        while not stop.is_set():
            engine.process_bulk("f", values, weights)

    thread = threading.Thread(target=ingest, name="selfcheck-ingest", daemon=True)
    was_enabled = METRICS.enabled
    METRICS.enable()
    thread.start()
    server = MonitorServer(live_source()).start()
    try:
        for path, check in (
            ("/profile", lambda b: json.loads(b)["kind"] == "repro.profile"),
            ("/timeseries", lambda b: json.loads(b)["kind"] == "repro.timeseries"),
            ("/dashboard", lambda b: "<svg" in b or "repro monitor" in b),
        ):
            with urllib.request.urlopen(server.url + path, timeout=10) as response:
                body = response.read().decode("utf-8")
                if response.status != 200:
                    fail(f"GET {path} returned {response.status}")
                elif not check(body):
                    fail(f"GET {path} body failed its parse check")

        head = urllib.request.Request(server.url + "/dashboard", method="HEAD")
        with urllib.request.urlopen(head, timeout=10) as response:
            if response.status != 200:
                fail(f"HEAD /dashboard returned {response.status}")
            if int(response.headers.get("Content-Length", 0)) <= 0:
                fail("HEAD /dashboard missing Content-Length")
            if response.read():
                fail("HEAD /dashboard returned a body")

        try:
            with urllib.request.urlopen(
                server.url + "/audits?bogus=1", timeout=10
            ) as response:
                fail(f"GET /audits?bogus=1 returned {response.status}, wanted 400")
        except urllib.error.HTTPError as exc:
            if exc.code != 400:
                fail(f"GET /audits?bogus=1 returned {exc.code}, wanted 400")
    finally:
        server.stop()
        stop.set()
        thread.join(timeout=10)
        METRICS.enabled = was_enabled


def _selfcheck(args: argparse.Namespace) -> int:
    from ..obs import METRICS
    from ..trace import TRACER

    failures: list[str] = []

    def fail(message: str) -> None:
        failures.append(message)
        print(f"FAIL: {message}")

    def ok(message: str) -> None:
        print(f"ok: {message}")

    # 1. Profiled smoke run with span attribution.
    PROFILER.reset()
    RECORDER.reset()
    METRICS.reset()
    METRICS.enable()
    TRACER.reset()
    TRACER.enable()

    def attributed() -> list[Any]:
        return [
            s
            for s in PROFILER.samples()
            if s.span is not None and s.span.startswith(JOIN_SPAN_PREFIXES)
        ]

    def done() -> bool:
        return bool(attributed()) and RECORDER.ring.frame_count() >= 3

    PROFILER.start(hz=args.hz)
    RECORDER.start(interval=0.2)
    try:
        answered = _smoke_workload(
            args.domain, args.elements, args.seed, args.seconds, until=done
        )
    finally:
        PROFILER.stop()
        RECORDER.stop()
        TRACER.disable()
        METRICS.disable()

    samples = PROFILER.samples()
    if not samples:
        fail("profiled smoke run produced no samples")
    else:
        ok(f"smoke run: {len(samples)} samples over {answered} answered queries")
    hits = attributed()
    if hits:
        names = sorted({s.span for s in hits})
        ok(f"{len(hits)} samples attributed to skim/join spans ({', '.join(names)})")
    else:
        fail("no sample was attributed to a skim/join span")

    # 2. Exporter round-trips.
    if samples:
        snapshot = PROFILER.snapshot()
        before = len(failures)
        _check_roundtrip(snapshot, fail)
        if len(failures) == before:
            ok("collapsed + speedscope + JSONL exports round-trip")

    # 3. Live recorder frames from the same run.
    ts = RECORDER.snapshot()
    try:
        validate_timeseries(ts)
    except ValueError as exc:
        fail(f"recorder snapshot invalid: {exc}")
    if len(ts["frames"]) < 2:
        fail(f"recorder captured {len(ts['frames'])} frames, wanted >= 2")
    elif not any("engine.elements.seen" in f["counts"] for f in ts["frames"]):
        fail(
            "no recorder frame carries engine.elements.seen (the dashboard's "
            "Ingest throughput series would be empty)"
        )
    else:
        ok(f"flight recorder captured {len(ts['frames'])} valid frames")

    # 4. Ring aging and byte bound under a long synthetic run.
    before = len(failures)
    _check_ring_aging(fail)
    if len(failures) == before:
        ok("telemetry ring ages within its byte bound (500-push synthetic run)")

    # 5. HTTP endpoints while ingest is live.
    before = len(failures)
    _check_endpoints(fail)
    if len(failures) == before:
        ok("/profile, /timeseries, /dashboard live (+ HEAD, /audits 400)")

    if failures:
        print(f"selfcheck: {len(failures)} failure(s)")
        return 1
    print("selfcheck: all checks passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.profile",
        description="Record, inspect and convert repro.profile artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_record = sub.add_parser(
        "record", help="profile the built-in smoke workload and write JSONL"
    )
    p_record.add_argument("--out", required=True, metavar="PATH",
                          help="samples JSONL output path")
    p_record.add_argument("--timeseries-out", metavar="PATH", default=None,
                          help="flight-recorder JSONL output path")
    p_record.add_argument("--hz", type=float, default=DEFAULT_HZ)
    p_record.add_argument("--interval", type=float, default=0.25,
                          help="recorder tick interval in seconds")
    p_record.add_argument("--seconds", type=float, default=2.0,
                          help="workload duration")
    p_record.add_argument("--domain", type=int, default=1 << 12)
    p_record.add_argument("--elements", type=int, default=20_000)
    p_record.add_argument("--seed", type=int, default=7)

    p_top = sub.add_parser("top", help="hottest-frames report of a JSONL profile")
    p_top.add_argument("profile", help="JSONL profile file")
    p_top.add_argument("--limit", type=int, default=20)

    p_convert = sub.add_parser(
        "convert", help="convert a JSONL profile to collapsed stacks or speedscope"
    )
    p_convert.add_argument("profile", help="JSONL profile file")
    p_convert.add_argument("out", help="output path")
    p_convert.add_argument(
        "--format",
        choices=("collapsed", "speedscope"),
        default=None,
        help="output format (default: speedscope for *.json, else collapsed)",
    )

    p_selfcheck = sub.add_parser(
        "selfcheck", help="end-to-end check of profiler, recorder and endpoints"
    )
    p_selfcheck.add_argument("--hz", type=float, default=250.0,
                             help="sampling rate during the smoke run")
    p_selfcheck.add_argument("--seconds", type=float, default=30.0,
                             help="max smoke-run duration (exits early once attributed)")
    p_selfcheck.add_argument("--domain", type=int, default=1 << 12)
    p_selfcheck.add_argument("--elements", type=int, default=20_000)
    p_selfcheck.add_argument("--seed", type=int, default=7)

    args = parser.parse_args(argv)
    if args.command == "record":
        return _record(args)
    if args.command == "top":
        return _top(args)
    if args.command == "convert":
        return _convert(args)
    return _selfcheck(args)


if __name__ == "__main__":
    sys.exit(main())
