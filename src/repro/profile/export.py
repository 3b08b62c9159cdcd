"""Profile schema and exports: collapsed stacks, speedscope JSON, ``top``.

Everything operates on plain sample dicts (the profiler's ``snapshot()``
output), so a profile captured in one process can be converted and
inspected in another.  On disk a profile is JSONL through
:mod:`repro.obs.jsonl`: a header ``{"version": 1, "kind":
"repro.profile", "hz": h, "dropped": n}``, then one sample ``{"t",
"thread", "frames", "span", "activity", "weight"}`` per line, frames
outermost-first.  The export formats are

* **Collapsed stacks** (Brendan Gregg) — one line per distinct stack,
  ``frame;frame;frame count``, the input format of every flamegraph
  tool.  :func:`parse_collapsed` inverts it (to aggregate counts), which
  is how the tests prove the round trip.
* **speedscope** — the https://www.speedscope.app sampled-profile JSON,
  one profile per sampled thread, weights in seconds.

``aggregate_samples`` is the shared ``top``-style reducer: per-frame
self/total seconds plus per-span and per-activity attribution tables.
"""

from __future__ import annotations

from typing import Any

#: Profile schema version emitted by :meth:`SamplingProfiler.snapshot`.
PROFILE_VERSION = 1

_SAMPLE_FIELDS = ("t", "thread", "frames", "span", "activity", "weight")


def validate_profile(snapshot: Any) -> dict[str, Any]:
    """Check a profile snapshot against the schema; returns it unchanged.

    Raises ``ValueError`` describing the first violation.
    """
    if not isinstance(snapshot, dict):
        raise ValueError(f"profile must be a dict, got {type(snapshot).__name__}")
    if snapshot.get("version") != PROFILE_VERSION:
        raise ValueError(
            f"unsupported profile version {snapshot.get('version')!r} "
            f"(expected {PROFILE_VERSION})"
        )
    if snapshot.get("kind") != "repro.profile":
        raise ValueError(f"unexpected profile kind {snapshot.get('kind')!r}")
    hz = snapshot.get("hz", 0.0)
    if not isinstance(hz, (int, float)) or hz < 0:
        raise ValueError(f"'hz' must be a non-negative number, got {hz!r}")
    dropped = snapshot.get("dropped", 0)
    if not isinstance(dropped, int) or dropped < 0:
        raise ValueError(f"'dropped' must be a non-negative int, got {dropped!r}")
    samples = snapshot.get("samples")
    if not isinstance(samples, list):
        raise ValueError("profile section 'samples' missing or not a list")
    for index, sample in enumerate(samples):
        if not isinstance(sample, dict):
            raise ValueError(f"samples[{index}] is not a dict")
        missing = [f for f in _SAMPLE_FIELDS if f not in sample]
        if missing:
            raise ValueError(f"samples[{index}] missing fields {missing}")
        if not isinstance(sample["t"], (int, float)):
            raise ValueError(f"samples[{index}]['t'] is not numeric")
        if not isinstance(sample["thread"], int):
            raise ValueError(f"samples[{index}]['thread'] is not an int")
        frames = sample["frames"]
        if (
            not isinstance(frames, list)
            or not frames
            or not all(isinstance(f, str) and f for f in frames)
        ):
            raise ValueError(
                f"samples[{index}]['frames'] must be a non-empty list of strings"
            )
        for field in ("span", "activity"):
            if sample[field] is not None and not isinstance(sample[field], str):
                raise ValueError(f"samples[{index}][{field!r}] must be null or str")
        weight = sample["weight"]
        if not isinstance(weight, (int, float)) or weight < 0:
            raise ValueError(f"samples[{index}]['weight'] must be non-negative")
    return snapshot


# -- collapsed stacks ------------------------------------------------------


def profile_to_collapsed(snapshot: dict[str, Any]) -> str:
    """Render a validated profile as collapsed stacks (Gregg format).

    One line per distinct stack, semicolon-joined outermost-first, then a
    space and the *sample count* — exactly what ``flamegraph.pl`` and
    speedscope's importer consume.  Lines are sorted for determinism.
    """
    validate_profile(snapshot)
    counts: dict[str, int] = {}
    for sample in snapshot["samples"]:
        key = ";".join(sample["frames"])
        counts[key] = counts.get(key, 0) + 1
    return "".join(f"{key} {count}\n" for key, count in sorted(counts.items()))


def parse_collapsed(text: str) -> dict[str, int]:
    """Parse collapsed stacks back into ``{stack: count}``.

    Raises ``ValueError`` on malformed lines; the tests use it to prove
    the export round-trips.
    """
    counts: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        stack, sep, raw = line.rpartition(" ")
        if not sep or not stack:
            raise ValueError(f"line {lineno}: not 'stack count': {line!r}")
        try:
            count = int(raw)
        except ValueError:
            raise ValueError(f"line {lineno}: bad count {raw!r}") from None
        if count < 1:
            raise ValueError(f"line {lineno}: count must be >= 1, got {count}")
        counts[stack] = counts.get(stack, 0) + count
    return counts


# -- speedscope ------------------------------------------------------------

SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"


def profile_to_speedscope(
    snapshot: dict[str, Any], name: str = "repro.profile"
) -> dict[str, Any]:
    """Convert a validated profile to speedscope's sampled-profile JSON.

    One ``"sampled"`` profile per sampled thread, frames shared across
    profiles through the ``shared.frames`` table, weights in seconds.
    Open the result directly at https://www.speedscope.app.
    """
    validate_profile(snapshot)
    frame_index: dict[str, int] = {}
    frames: list[dict[str, str]] = []
    by_thread: dict[int, list[dict[str, Any]]] = {}
    for sample in snapshot["samples"]:
        by_thread.setdefault(sample["thread"], []).append(sample)

    profiles = []
    for thread_id in sorted(by_thread):
        samples_out: list[list[int]] = []
        weights: list[float] = []
        end_value = 0.0
        for sample in by_thread[thread_id]:
            stack = []
            for frame in sample["frames"]:
                if frame not in frame_index:
                    frame_index[frame] = len(frames)
                    frames.append({"name": frame})
                stack.append(frame_index[frame])
            samples_out.append(stack)
            weights.append(float(sample["weight"]))
            end_value += float(sample["weight"])
        profiles.append(
            {
                "type": "sampled",
                "name": f"thread {thread_id}",
                "unit": "seconds",
                "startValue": 0.0,
                "endValue": end_value,
                "samples": samples_out,
                "weights": weights,
            }
        )
    return {
        "$schema": SPEEDSCOPE_SCHEMA,
        "name": name,
        "activeProfileIndex": 0,
        "exporter": "repro.profile",
        "shared": {"frames": frames},
        "profiles": profiles,
    }


def validate_speedscope(document: Any) -> dict[str, Any]:
    """Structural check of a speedscope document; returns it unchanged.

    Every frame index must resolve, every profile must have aligned
    ``samples`` / ``weights``.  Raises ``ValueError`` on the first gap.
    """
    if not isinstance(document, dict):
        raise ValueError("speedscope document must be a dict")
    if document.get("$schema") != SPEEDSCOPE_SCHEMA:
        raise ValueError(f"unexpected $schema {document.get('$schema')!r}")
    shared = document.get("shared")
    if not isinstance(shared, dict) or not isinstance(shared.get("frames"), list):
        raise ValueError("speedscope 'shared.frames' missing or not a list")
    n_frames = len(shared["frames"])
    for frame in shared["frames"]:
        if not isinstance(frame, dict) or not frame.get("name"):
            raise ValueError("every shared frame needs a non-empty 'name'")
    profiles = document.get("profiles")
    if not isinstance(profiles, list) or not profiles:
        raise ValueError("speedscope 'profiles' missing or empty")
    for p_index, profile in enumerate(profiles):
        if not isinstance(profile, dict) or profile.get("type") != "sampled":
            raise ValueError(f"profiles[{p_index}] is not a sampled profile")
        samples = profile.get("samples")
        weights = profile.get("weights")
        if not isinstance(samples, list) or not isinstance(weights, list):
            raise ValueError(f"profiles[{p_index}] samples/weights not lists")
        if len(samples) != len(weights):
            raise ValueError(
                f"profiles[{p_index}] has {len(samples)} samples but "
                f"{len(weights)} weights"
            )
        for s_index, stack in enumerate(samples):
            if not isinstance(stack, list) or not stack:
                raise ValueError(
                    f"profiles[{p_index}].samples[{s_index}] must be a "
                    "non-empty index list"
                )
            for idx in stack:
                if not isinstance(idx, int) or not 0 <= idx < n_frames:
                    raise ValueError(
                        f"profiles[{p_index}].samples[{s_index}] references "
                        f"unknown frame index {idx!r}"
                    )
    return document


# -- top-style aggregation -------------------------------------------------


def aggregate_samples(snapshot: dict[str, Any]) -> dict[str, Any]:
    """``top``-style reduction of a validated profile snapshot.

    Returns ``{"seconds", "samples", "frames", "spans", "activities"}``:
    per-frame rows carry ``self`` (leaf) and ``total`` (anywhere on
    stack) seconds; span/activity tables attribute sample time to the
    innermost tracer span / coarse activity marker active at sample
    time (``None`` keys rendered as ``"-"``).
    """
    validate_profile(snapshot)
    self_seconds: dict[str, float] = {}
    total_seconds: dict[str, float] = {}
    spans: dict[str, float] = {}
    activities: dict[str, float] = {}
    grand_total = 0.0
    for sample in snapshot["samples"]:
        weight = float(sample["weight"])
        grand_total += weight
        frames = sample["frames"]
        leaf = frames[-1]
        self_seconds[leaf] = self_seconds.get(leaf, 0.0) + weight
        for frame in dict.fromkeys(frames):  # dedupe recursion, keep order
            total_seconds[frame] = total_seconds.get(frame, 0.0) + weight
        span = sample["span"] or "-"
        spans[span] = spans.get(span, 0.0) + weight
        activity = sample["activity"] or "-"
        activities[activity] = activities.get(activity, 0.0) + weight
    frames_out = [
        {
            "frame": frame,
            "self": self_seconds.get(frame, 0.0),
            "total": total,
        }
        for frame, total in total_seconds.items()
    ]
    frames_out.sort(key=lambda row: (-row["self"], -row["total"], row["frame"]))
    return {
        "seconds": grand_total,
        "samples": len(snapshot["samples"]),
        "frames": frames_out,
        "spans": dict(sorted(spans.items(), key=lambda kv: -kv[1])),
        "activities": dict(sorted(activities.items(), key=lambda kv: -kv[1])),
    }


def render_top(aggregate: dict[str, Any], limit: int = 20) -> str:
    """Human-readable ``top`` table from :func:`aggregate_samples` output."""
    total = aggregate["seconds"] or 1.0
    header = f"{'self s':>9} {'self %':>7} {'total s':>9}  frame"
    lines = [
        f"{aggregate['samples']} samples, {aggregate['seconds']:.3f}s sampled time",
        header,
        "-" * len(header),
    ]
    for row in aggregate["frames"][:limit]:
        lines.append(
            f"{row['self']:>9.3f} {100.0 * row['self'] / total:>6.1f}% "
            f"{row['total']:>9.3f}  {row['frame']}"
        )
    attributed = {k: v for k, v in aggregate["spans"].items() if k != "-"}
    if attributed:
        lines.append("")
        lines.append("span attribution:")
        for span, seconds in attributed.items():
            lines.append(f"  {span:<34} {seconds:>9.3f}s")
    return "\n".join(lines)
