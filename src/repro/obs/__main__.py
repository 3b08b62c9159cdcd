"""Validate, diff or merge telemetry documents.

Every metrics file the repo writes is one telemetry document (a
``--metrics-out`` file, ``federate run``'s ``metrics.json`` and
``telemetry.<origin>.json``, the monitor's ``/snapshot``)::

    python -m repro.obs validate FILE [required-metric ...]
        Exit non-zero if FILE is not a valid document or if any listed
        metric name is absent (counters, gauges and histograms are all
        searched).  What ``make metrics-smoke`` runs.

    python -m repro.obs diff before.json after.json [--json]
        Counters subtracted, gauges before/after, histogram activity
        deltas plus side-by-side distributions.

    python -m repro.obs merge FILE... [--out OUT]
        Merge documents into one (printed, or written to OUT).

Exit codes: 0 ok, 1 invalid input, 2 usage.
"""

from __future__ import annotations

import argparse
import sys

from .telemetry import (
    diff_snapshots,
    merge_all_telemetry,
    read_telemetry,
    render_diff,
    telemetry_to_json,
    write_telemetry,
)


def _read(path: str) -> dict:
    try:
        return read_telemetry(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _validate(args: argparse.Namespace) -> int:
    doc = _read(args.file)
    names = set(doc["counters"]) | set(doc["gauges"]) | set(doc["histograms"])
    missing = [metric for metric in args.required if metric not in names]
    if missing:
        print(f"{args.file}: missing required metrics {missing}", file=sys.stderr)
        return 1
    print(f"ok: {args.file} ({len(names)} metrics)")
    return 0


def _diff(args: argparse.Namespace) -> int:
    diff = diff_snapshots(_read(args.before), _read(args.after))
    if args.json:
        print(telemetry_to_json(diff))
    else:
        print(f"diff: {args.before} -> {args.after}")
        print(render_diff(diff))
    return 0


def _merge(args: argparse.Namespace) -> int:
    merged = merge_all_telemetry(_read(path) for path in args.files)
    if args.out:
        write_telemetry(args.out, merged)
        print(
            f"merged {len(args.files)} documents -> {args.out} "
            f"(origin {merged['origin']!r})"
        )
    else:
        print(telemetry_to_json(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs", description="Telemetry document tools."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_validate = sub.add_parser("validate", help="validate one document")
    p_validate.add_argument("file")
    p_validate.add_argument(
        "required", nargs="*", help="metric names that must be present"
    )
    p_diff = sub.add_parser("diff", help="diff two documents")
    p_diff.add_argument("before")
    p_diff.add_argument("after")
    p_diff.add_argument("--json", action="store_true", help="print the diff as JSON")
    p_merge = sub.add_parser("merge", help="merge documents into one")
    p_merge.add_argument("files", nargs="+")
    p_merge.add_argument("--out", help="write the merged document here")
    try:
        args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:  # usage errors exit 2, --help exits 0
        return int(exc.code or 0)
    handler = {"validate": _validate, "diff": _diff, "merge": _merge}[args.command]
    try:
        return handler(args)
    except (OSError, ValueError) as exc:
        print(f"invalid telemetry: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
