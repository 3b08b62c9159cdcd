"""The one observability CLI: ``python -m repro.obs <subcommand>``.

Every artifact the repo writes names its own ``kind``, so one CLI reads
them all: telemetry documents (``--metrics-out``, ``fleet``'s
``metrics.json`` and ``telemetry.<origin>.json``, the monitor's
``/snapshot``), JSONL traces, profiles and timeseries (``--trace-out``,
``--profile-out``, ``--timeseries-out``) and audit JSONL
(``--audit-out``)::

    python -m repro.obs validate FILE [metric ...]
        Validate any artifact.  Listed metric names must be present
        (telemetry: counters, gauges, histograms; timeseries: any
        frame's counts or gauges).

    python -m repro.obs diff before.json after.json [--json]
    python -m repro.obs merge FILE... [--out OUT]
        Diff two telemetry documents, or merge several into one.

    python -m repro.obs convert IN OUT
        A trace becomes Chrome/Perfetto ``trace_event`` JSON; a profile
        becomes speedscope JSON when OUT ends in ``.json``, collapsed
        stacks (flamegraph input) otherwise.

    python -m repro.obs summary FILE [--limit N]
        A trace's per-span-name timings, or a profile's hottest frames.

    python -m repro.obs serve [--metrics M] [--audits A] [--profile P]
        [--timeseries T] [--federate ORIGIN=PATH_OR_URL ...] [--port N]
        Serve /metrics /health /audits /snapshot /profile /timeseries
        /topology /dashboard over those files (or empty registries).

    python -m repro.obs selfcheck [same inputs] [--min-audits N]
        Serve on an ephemeral port, scrape every endpoint, exit 0/1.

    python -m repro.obs fleet --out-dir DIR [--sites N] [--rounds R]
        Multi-site distributed demo (needs numpy): writes DIR/metrics.json,
        DIR/trace.chrome.json (one stitched Perfetto timeline, one lane
        per site) and DIR/telemetry.<origin>.json.

Exit codes: 0 ok, 1 invalid input or failed check, 2 usage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import urllib.request
from typing import Any

from ..errors import ParameterError
from ..federate import FederatedSource, federation_from_args
from ..monitor.audit import audit_from_dict, read_audit_jsonl
from ..monitor.service import (
    MonitorServer,
    MonitorSource,
    file_source,
    parse_prometheus,
)
from ..profile import (
    aggregate_samples,
    profile_to_collapsed,
    profile_to_speedscope,
    render_top,
    validate_profile,
    validate_timeseries,
)
from ..trace import (
    TRACER,
    render_summary,
    summarize_trace,
    validate_trace,
    write_trace_chrome,
)
from . import METRICS
from .jsonl import JSONL_LAYOUTS, from_jsonl
from .telemetry import (
    TELEMETRY_KIND,
    diff_snapshots,
    merge_all_telemetry,
    read_telemetry,
    render_diff,
    telemetry_from_json,
    telemetry_to_json,
    write_telemetry,
)

#: The validator of each JSONL kind.
_VALIDATORS = {
    "repro.trace": validate_trace,
    "repro.profile": validate_profile,
    "repro.timeseries": validate_timeseries,
}

#: The pseudo-kind of an audit JSONL file (its lines carry ``record_type``).
_AUDITS = "repro.audits"


def _head(text: str) -> Any:
    """The first line parsed: a telemetry document is one line, a JSONL
    artifact's first line is its header (or, for audits, a record)."""
    try:
        return json.loads(text.lstrip().split("\n", 1)[0])
    except json.JSONDecodeError:
        return None


def _load(path: str) -> tuple[str, Any]:
    """Read and validate any artifact; returns ``(kind, document)``.

    Audit files come back as ``(_AUDITS, (audits, alert_dicts))``.
    Errors name the file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        head = _head(text)
        kind = head.get("kind") if isinstance(head, dict) else None
        if kind == TELEMETRY_KIND:
            return kind, telemetry_from_json(text)
        if kind in _VALIDATORS:
            return kind, _VALIDATORS[kind](from_jsonl(text))
        if isinstance(head, dict) and "record_type" in head:
            return _AUDITS, read_audit_jsonl(path)
        raise ParameterError(f"not a repro artifact (kind {kind!r})")
    except ValueError as exc:
        raise ParameterError(f"{path}: {exc}") from None


def _read_telemetry(path: str) -> dict[str, Any]:
    try:
        return read_telemetry(path)
    except ValueError as exc:
        raise ParameterError(f"{path}: {exc}") from None


def _metric_names(kind: str, doc: Any) -> set[str]:
    if kind == TELEMETRY_KIND:
        return set(doc["counters"]) | set(doc["gauges"]) | set(doc["histograms"])
    if kind == "repro.timeseries":
        return {
            name
            for frame in doc["frames"]
            for name in [*frame["counts"], *frame["gauges"]]
        }
    return set()


def _validate(args: argparse.Namespace) -> int:
    kind, doc = _load(args.file)
    missing = [m for m in args.required if m not in _metric_names(kind, doc)]
    if missing:
        print(f"{args.file}: missing required metrics {missing}", file=sys.stderr)
        return 1
    if kind == TELEMETRY_KIND:
        size = f"{len(_metric_names(kind, doc))} metrics"
    elif kind == _AUDITS:
        size = f"{len(doc[0])} audits, {len(doc[1])} alerts"
    else:
        records = JSONL_LAYOUTS[kind][0]
        size = f"{len(doc[records])} {records}"
    print(f"ok: {args.file} ({kind}, {size})")
    return 0


def _diff(args: argparse.Namespace) -> int:
    diff = diff_snapshots(_read_telemetry(args.before), _read_telemetry(args.after))
    if args.json:
        print(telemetry_to_json(diff))
    else:
        print(f"diff: {args.before} -> {args.after}")
        print(render_diff(diff))
    return 0


def _merge(args: argparse.Namespace) -> int:
    merged = merge_all_telemetry(_read_telemetry(path) for path in args.files)
    if args.out:
        write_telemetry(args.out, merged)
        print(
            f"merged {len(args.files)} documents -> {args.out} "
            f"(origin {merged['origin']!r})"
        )
    else:
        print(telemetry_to_json(merged))
    return 0


def _load_kind(path: str, kinds: tuple[str, ...]) -> tuple[str, Any]:
    kind, doc = _load(path)
    if kind not in kinds:
        raise ParameterError(f"{path}: a {kind} file (expected {' or '.join(kinds)})")
    return kind, doc


def _convert(args: argparse.Namespace) -> int:
    kind, doc = _load_kind(args.input, ("repro.trace", "repro.profile"))
    if kind == "repro.trace":
        write_trace_chrome(args.out, doc)
        print(
            f"wrote {args.out} ({len(doc['spans'])} events); "
            "load it at https://ui.perfetto.dev"
        )
        return 0
    with open(args.out, "w", encoding="utf-8") as fh:
        if args.out.endswith(".json"):
            json.dump(profile_to_speedscope(doc, name=args.input), fh)
            where = "speedscope output; open it at https://www.speedscope.app"
        else:
            fh.write(profile_to_collapsed(doc))
            where = "collapsed stacks; feed them to flamegraph.pl / speedscope"
    print(f"wrote {args.out} ({where})")
    return 0


def _summary(args: argparse.Namespace) -> int:
    kind, doc = _load_kind(args.file, ("repro.trace", "repro.profile"))
    if kind == "repro.trace":
        print(render_summary(summarize_trace(doc)[: args.limit]))
    else:
        print(render_top(aggregate_samples(doc), limit=args.limit))
    return 0


# -- monitor: serve and selfcheck ---------------------------------------------


def _source_and_federation(
    args: argparse.Namespace,
) -> tuple[MonitorSource, FederatedSource | None]:
    try:
        source = file_source(
            args.metrics, args.audits, args.profile, args.timeseries
        )
        federation = federation_from_args(args.federate) if args.federate else None
    except (OSError, ValueError) as exc:
        raise ParameterError(f"cannot load inputs: {exc}") from None
    return source, federation


def _serve(args: argparse.Namespace) -> int:
    source, federation = _source_and_federation(args)
    server = MonitorServer(
        source,
        host=args.host,
        port=args.port,
        prefix=args.prefix,
        federation=federation,
    )
    server.start()
    federated = (
        f", federating {len(federation.origins)} origins" if federation else ""
    )
    print(
        f"serving on {server.url} (endpoints: /metrics /health /audits "
        f"/snapshot /profile /timeseries /topology /dashboard{federated})"
    )
    try:
        while True:
            server._thread.join(1.0)  # noqa: SLF001 - interruptible wait
    except KeyboardInterrupt:
        print("shutting down")
        server.stop()
    return 0


def _get(url: str) -> tuple[int, str]:
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, resp.read().decode("utf-8")


def _selfcheck(args: argparse.Namespace) -> int:
    source, federation = _source_and_federation(args)
    failures: list[str] = []
    with MonitorServer(source, port=0, federation=federation) as server:
        status, body = _get(f"{server.url}/metrics")
        samples = []
        if status != 200:
            failures.append(f"/metrics returned {status}")
        else:
            try:
                samples = parse_prometheus(body)
            except ValueError as exc:
                failures.append(f"/metrics exposition invalid: {exc}")
        if not samples and not failures:
            failures.append("/metrics served no samples")
        if federation is not None and not failures:
            for origin in federation.origins:
                label = f'origin="{origin}"'
                if not any(label in name for name, _ in samples):
                    failures.append(f"/metrics has no samples labelled {label}")

        status, body = _get(f"{server.url}/topology")
        if status != 200 or json.loads(body).get("kind") != "repro.topology":
            failures.append(f"/topology not a topology document (status {status})")
        elif federation is not None:
            origins = json.loads(body).get("origins", {})
            for origin in federation.origins:
                row = origins.get(origin)
                if row is None:
                    failures.append(f"/topology is missing origin {origin!r}")
                elif not row.get("ok"):
                    failures.append(
                        f"/topology reports origin {origin!r} down: {row.get('error')}"
                    )

        status, body = _get(f"{server.url}/health")
        if status != 200 or json.loads(body).get("status") != "ok":
            failures.append(f"/health not ok (status {status}: {body.strip()})")

        status, body = _get(f"{server.url}/audits")
        audits = []
        if status != 200:
            failures.append(f"/audits returned {status}")
        else:
            try:
                payload = json.loads(body).get("audits", [])
                audits = [audit_from_dict(a) for a in payload]
            except ValueError as exc:
                failures.append(f"/audits schema invalid: {exc}")
        if len(audits) < args.min_audits and not failures:
            failures.append(
                f"/audits served {len(audits)} audits (need >= {args.min_audits})"
            )

        status, body = _get(f"{server.url}/snapshot")
        try:
            telemetry_from_json(body)
        except ValueError as exc:
            failures.append(f"/snapshot not a telemetry document ({status}): {exc}")

        for endpoint, validate in (
            ("/profile", validate_profile),
            ("/timeseries", validate_timeseries),
        ):
            status, body = _get(f"{server.url}{endpoint}")
            try:
                validate(json.loads(body))
            except ValueError as exc:
                failures.append(f"{endpoint} invalid (status {status}): {exc}")

        status, body = _get(f"{server.url}/dashboard")
        if status != 200 or "repro monitor" not in body:
            failures.append(f"/dashboard did not render (status {status})")

    if failures:
        for failure in failures:
            print(f"selfcheck FAILED: {failure}", file=sys.stderr)
        return 1
    bound_ok = sum(1 for a in audits if a.residual_bound_ok)
    covered = [a for a in audits if a.covered is not None]
    print(
        f"selfcheck ok: {len(samples)} metric samples, {len(audits)} audits "
        f"({bound_ok} residual-bound ok, "
        f"{sum(1 for a in covered if a.covered)}/{len(covered)} shadow-covered)"
    )
    return 0


# -- fleet ------------------------------------------------------------------


def _fleet(args: argparse.Namespace) -> int:
    """N telemetry-enabled sites ingest and report over R coordinator-minted
    rounds.  Process boundaries are emulated by resetting the global
    singletons between per-site segments — the shipper's cursors detect
    the resets, exactly as fresh per-process singletons would behave."""
    import numpy as np

    from ..core.estimator import SkimmedSketchSchema
    from ..distributed import SketchCoordinator, SketchSite

    os.makedirs(args.out_dir, exist_ok=True)
    schema = SkimmedSketchSchema(
        width=128, depth=7, domain_size=1 << 12, seed=args.seed
    )
    coordinator = SketchCoordinator(schema)
    sites = [
        SketchSite(f"edge-{i}", schema, streams=["R", "S"], telemetry=True)
        for i in range(args.sites)
    ]
    METRICS.enable()
    TRACER.enable()
    METRICS.reset()
    TRACER.reset()
    try:
        batches = []
        for round_index in range(args.rounds):
            context = coordinator.mint_trace_context()
            batch = []
            for site_index, site in enumerate(sites):
                METRICS.reset()
                TRACER.reset()
                rng = np.random.default_rng(
                    args.seed + round_index * args.sites + site_index
                )
                for stream in ("R", "S"):
                    values = rng.integers(0, schema.domain_size, args.updates)
                    site.observe_bulk(stream, values.astype(np.int64))
                batch.extend(site.close_round(context))
            batches.append(batch)
        # The coordinator's own "process".
        METRICS.reset()
        TRACER.reset()
        summaries = [coordinator.receive_all(batch) for batch in batches]
        estimate = coordinator.est_join_size("R", "S")
    finally:
        METRICS.disable()
        TRACER.disable()

    paths = [os.path.join(args.out_dir, "metrics.json")]
    write_telemetry(paths[0], METRICS.snapshot())
    paths.append(os.path.join(args.out_dir, "trace.chrome.json"))
    write_trace_chrome(paths[1], TRACER.snapshot())
    for origin, doc in sorted(coordinator.telemetry_by_origin().items()):
        paths.append(os.path.join(args.out_dir, f"telemetry.{origin}.json"))
        write_telemetry(paths[-1], doc)

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
    for path in paths:
        print(f"wrote {path}")
    return 0


def _add_monitor_inputs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metrics", metavar="PATH", help="telemetry document")
    parser.add_argument("--audits", metavar="PATH", help="audit JSONL")
    parser.add_argument("--profile", metavar="PATH", help="profile JSONL")
    parser.add_argument("--timeseries", metavar="PATH", help="timeseries JSONL")
    parser.add_argument(
        "--federate",
        metavar="ORIGIN=PATH_OR_URL",
        action="append",
        default=None,
        help="federate a telemetry document source under this origin "
        "(repeatable); /metrics becomes an origin-labelled exposition and "
        "/topology reports the fleet",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Validate, inspect, serve and produce observability artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate any artifact")
    p_validate.add_argument("file")
    p_validate.add_argument(
        "required", nargs="*", help="metric names that must be present"
    )

    p_diff = sub.add_parser("diff", help="diff two telemetry documents")
    p_diff.add_argument("before")
    p_diff.add_argument("after")
    p_diff.add_argument("--json", action="store_true", help="print the diff as JSON")

    p_merge = sub.add_parser("merge", help="merge telemetry documents into one")
    p_merge.add_argument("files", nargs="+")
    p_merge.add_argument("--out", help="write the merged document here")

    p_convert = sub.add_parser(
        "convert",
        help="trace -> Chrome/Perfetto JSON; profile -> speedscope (*.json) "
        "or collapsed stacks",
    )
    p_convert.add_argument("input")
    p_convert.add_argument("out")

    p_summary = sub.add_parser(
        "summary", help="trace span timings or profile hottest frames"
    )
    p_summary.add_argument("file")
    p_summary.add_argument("--limit", type=int, default=20, help="rows to print")

    p_serve = sub.add_parser("serve", help="serve the monitoring endpoints")
    _add_monitor_inputs(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument("--port", type=int, default=8000, help="TCP port (0 = ephemeral)")
    p_serve.add_argument(
        "--prefix", default="repro", help="Prometheus name prefix (default: repro)"
    )

    p_selfcheck = sub.add_parser(
        "selfcheck", help="serve on an ephemeral port, scrape every endpoint"
    )
    _add_monitor_inputs(p_selfcheck)
    p_selfcheck.add_argument(
        "--min-audits",
        type=int,
        default=1,
        help="require at least this many served audits (default: 1)",
    )

    p_fleet = sub.add_parser("fleet", help="multi-site federated demo (needs numpy)")
    p_fleet.add_argument("--sites", type=int, default=3)
    p_fleet.add_argument("--rounds", type=int, default=2)
    p_fleet.add_argument("--updates", type=int, default=2000, help="per stream per round")
    p_fleet.add_argument("--seed", type=int, default=7)
    p_fleet.add_argument("--out-dir", required=True)
    return parser


_HANDLERS = {
    "validate": _validate,
    "diff": _diff,
    "merge": _merge,
    "convert": _convert,
    "summary": _summary,
    "serve": _serve,
    "selfcheck": _selfcheck,
    "fleet": _fleet,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    try:
        args = _build_parser().parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:  # usage errors exit 2, --help exits 0
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
