"""CLI for the federated telemetry plane.

Subcommands::

    python -m repro.federate selfcheck
        Prove the merge algebra and wire contracts end to end with three
        emulated origins (no numpy needed): capture -> JSON round-trip ->
        validate, merge commutativity and counter associativity, registry
        merge order-insensitivity, span-import nesting, per-origin
        Perfetto lanes.  Exit 0 when every check passes.

    python -m repro.federate run --sites N --rounds R --out-dir DIR
        Multi-site distributed demo (needs numpy): N telemetry-enabled
        sites ingest and report over R coordinator-minted rounds; writes
        DIR/metrics.json (the coordinator's registry, per-origin
        prefixed), DIR/trace.chrome.json (one stitched Perfetto timeline,
        one lane per site), and DIR/telemetry.<origin>.json (per-origin
        accumulated documents).  Every JSON file is a telemetry document:
        ``python -m repro.obs validate|diff|merge`` reads them.
        Process boundaries are emulated by resetting the global
        singletons between per-site segments — the shipper's cursors
        detect the resets, exactly as fresh per-process singletons would
        behave.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any

try:  # package layout
    from ..obs.registry import MetricsRegistry
    from ..obs.telemetry import merge_telemetry, telemetry_from_json, telemetry_to_json
    from ..trace.export import trace_to_chrome
    from ..trace.tracer import SpanTracer
    from .shipper import TelemetryShipper
except ImportError:  # pragma: no cover - standalone layout
    from obs.registry import MetricsRegistry  # type: ignore
    from obs.telemetry import (  # type: ignore
        merge_telemetry,
        telemetry_from_json,
        telemetry_to_json,
    )
    from trace.export import trace_to_chrome  # type: ignore
    from trace.tracer import SpanTracer  # type: ignore
    from federate.shipper import TelemetryShipper  # type: ignore


def _emulated_origin(name: str, seed: int) -> tuple[dict[str, Any], TelemetryShipper]:
    """One in-process "site": private registry + tracer, one capture."""
    registry = MetricsRegistry(enabled=True)
    tracer = SpanTracer(enabled=True)
    for i in range(1 + seed):
        registry.count("demo.updates", 10 + i)
    registry.gauge("demo.round", seed + 1)
    for i in range(5):
        registry.observe("demo.latency", 0.01 * (seed + 1) * (i + 1))
    with tracer.span("demo.round", site=name):
        with tracer.span("demo.ingest"):
            tracer.instant("demo.mark", step=seed)
    shipper = TelemetryShipper(
        name, registry=registry, tracer=tracer, audit=None
    )
    return shipper.capture_telemetry(), shipper  # repro: noqa[R3] -- private always-enabled registry, not a singleton


def _cmd_selfcheck(_args: argparse.Namespace) -> int:
    failures = 0

    def check(ok: bool, label: str) -> None:
        nonlocal failures
        print(f"{'ok' if ok else 'FAIL'} - {label}")
        if not ok:
            failures += 1

    docs = {}
    for seed, name in enumerate(["site.alpha", "site.beta", "site.gamma"]):
        doc, _ = _emulated_origin(name, seed)
        docs[name] = doc
    a, b, c = docs["site.alpha"], docs["site.beta"], docs["site.gamma"]

    # 1. Wire round-trip.
    try:
        round_tripped = all(
            telemetry_from_json(telemetry_to_json(doc)) == doc
            for doc in docs.values()
        )
    except ValueError as exc:
        round_tripped = False
        print(f"     round-trip raised: {exc}")
    check(round_tripped, "wire schema validates and JSON round-trips exactly")

    # 2. Merge commutativity (whole document).
    check(
        merge_telemetry(a, b) == merge_telemetry(b, a),
        "merge_telemetry(a, b) == merge_telemetry(b, a)",
    )

    # 3. Counter associativity (integer-valued counters are exact).
    left = merge_telemetry(merge_telemetry(a, b), c)["counters"]
    right = merge_telemetry(a, merge_telemetry(b, c))["counters"]
    check(left == right, "counter merge is associative across three origins")

    # 4. Registry merge is order-insensitive for disjoint origins.
    forward, backward = MetricsRegistry(enabled=True), MetricsRegistry(enabled=True)
    for name in sorted(docs):
        forward.merge_snapshot(docs[name], prefix=name)
    for name in sorted(docs, reverse=True):
        backward.merge_snapshot(docs[name], prefix=name)
    check(
        {n: k.value for n, k in forward._counters.items()}
        == {n: k.value for n, k in backward._counters.items()},
        "MetricsRegistry.merge_snapshot is order-insensitive (disjoint origins)",
    )

    # 5. Span import preserves nesting under the anchor span.
    sink = SpanTracer(enabled=True)
    with sink.span("coordinator.round") as anchor:
        for name, doc in sorted(docs.items()):
            sink.import_spans(doc["spans"], origin=name, parent_id=anchor.span_id)
    imported = [s for s in sink.spans() if "origin" in s.attributes]
    roots = [s for s in imported if s.name == "demo.round"]
    nested_ok = (
        len(roots) == 3
        and all(r.parent_id == anchor.span_id for r in roots)
        and all(
            any(
                child.parent_id == root.span_id and child.name == "demo.ingest"
                for child in imported
            )
            for root in roots
        )
    )
    check(nested_ok, "import_spans keeps nesting and anchors under the round span")

    # 6. Perfetto export gives every origin its own lane.
    chrome = trace_to_chrome(sink.snapshot())
    pids = {
        event["pid"]
        for event in chrome["traceEvents"]
        if event.get("ph") in ("X", "i")
    }
    check(len(pids) == 4, "chrome export has one lane per origin plus local")

    print(f"selfcheck: {6 - failures}/6 checks passed")
    return 1 if failures else 0


def _cmd_run(args: argparse.Namespace) -> int:
    import os

    import numpy as np

    from .. import obs, trace
    from ..core.estimator import SkimmedSketchSchema
    from ..distributed import SketchCoordinator, SketchSite
    from ..obs import METRICS, write_telemetry
    from ..trace import TRACER, write_trace_chrome

    os.makedirs(args.out_dir, exist_ok=True)
    schema = SkimmedSketchSchema(
        width=128, depth=7, domain_size=1 << 12, seed=args.seed
    )
    coordinator = SketchCoordinator(schema)
    sites = [
        SketchSite(f"edge-{i}", schema, streams=["R", "S"], telemetry=True)
        for i in range(args.sites)
    ]
    obs.enable()
    trace.enable()
    METRICS.reset()
    TRACER.reset()
    try:
        batches = []
        for round_index in range(args.rounds):
            context = coordinator.mint_trace_context()
            batch = []
            for site_index, site in enumerate(sites):
                # Emulate the process boundary between sites sharing this
                # interpreter: each site's segment starts from clean
                # singletons, as a real per-site process would.
                METRICS.reset()
                TRACER.reset()
                rng = np.random.default_rng(
                    args.seed + round_index * args.sites + site_index
                )
                for stream in ("R", "S"):
                    values = rng.integers(0, schema.domain_size, args.updates)
                    site.observe_bulk(stream, values.astype(np.int64))
                batch.extend(site.close_round(context))
            batches.append((context, batch))
        # The coordinator's own "process".
        METRICS.reset()
        TRACER.reset()
        summaries = [coordinator.receive_all(batch) for _, batch in batches]
        estimate = coordinator.est_join_size("R", "S")
    finally:
        obs.disable()
        trace.disable()

    metrics_path = os.path.join(args.out_dir, "metrics.json")
    write_telemetry(metrics_path, METRICS.snapshot())
    chrome_path = os.path.join(args.out_dir, "trace.chrome.json")
    write_trace_chrome(chrome_path, TRACER.snapshot())
    telemetry_paths = {}
    for origin, doc in sorted(coordinator.telemetry_by_origin().items()):
        path = os.path.join(args.out_dir, f"telemetry.{origin}.json")
        write_telemetry(path, doc)
        telemetry_paths[origin] = path

    reports, payload_bytes = coordinator.communication_stats()
    telemetry_reports, telemetry_bytes = coordinator.telemetry_stats()
    last = summaries[-1]
    print(
        f"rounds={len(summaries)} sites={len(sites)} "
        f"reports={reports} payload_bytes={payload_bytes} "
        f"telemetry_snapshots={telemetry_reports} "
        f"telemetry_bytes={telemetry_bytes}"
    )
    print(
        f"last round: number={last.round_number} "
        f"sites={','.join(last.sites_reporting)} "
        f"telemetry_bytes={last.telemetry_bytes}"
    )
    print(f"est |R join S| = {estimate:.1f}")
    print(f"wrote {metrics_path}")
    print(f"wrote {chrome_path}")
    for origin, path in telemetry_paths.items():
        print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.federate",
        description="Federated cross-process telemetry tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("selfcheck", help="prove merge algebra and wire contracts")

    p_run = sub.add_parser("run", help="multi-site federated demo (needs numpy)")
    p_run.add_argument("--sites", type=int, default=3)
    p_run.add_argument("--rounds", type=int, default=2)
    p_run.add_argument("--updates", type=int, default=2000, help="per stream per round")
    p_run.add_argument("--seed", type=int, default=7)
    p_run.add_argument("--out-dir", required=True)

    args = parser.parse_args(argv)
    handler = {
        "selfcheck": _cmd_selfcheck,
        "run": _cmd_run,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
