"""The one JSONL codec (``repro.obs.jsonl``) for traces, profiles and
timeseries.

The pinned texts below were written by the three per-package writers
this codec replaced, so a file written before the fold reads back equal
and the same snapshot still writes the same bytes.
"""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.obs import from_jsonl, read_jsonl, to_jsonl, write_jsonl
from repro.obs.__main__ import main as obs_main
from repro.profile import validate_profile, validate_timeseries
from repro.trace import validate_trace

TRACE = {
    "version": 1,
    "kind": "repro.trace",
    "dropped": 2,
    "spans": [
        {"name": "skim", "id": 2, "parent": 1, "start": 0.75, "end": 1.0,
         "attrs": {"kind": "flat", "threshold": 3.5}},
        {"name": "engine.answer", "id": 1, "parent": None, "start": 0.5,
         "end": 1.25, "attrs": {"query": "JoinCountQuery"}},
    ],
}
TRACE_TEXT = (
    '{"version": 1, "kind": "repro.trace", "dropped": 2}\n'
    '{"name": "skim", "id": 2, "parent": 1, "start": 0.75, "end": 1.0, '
    '"attrs": {"kind": "flat", "threshold": 3.5}}\n'
    '{"name": "engine.answer", "id": 1, "parent": null, "start": 0.5, '
    '"end": 1.25, "attrs": {"query": "JoinCountQuery"}}\n'
)

PROFILE = {
    "version": 1,
    "kind": "repro.profile",
    "hz": 97.0,
    "dropped": 1,
    "samples": [
        {"t": 0.01, "thread": 7, "frames": ["m:main:1", "m:skim:4"],
         "span": "skim", "activity": "engine.answer", "weight": 0.0103},
        {"t": 0.02, "thread": 7, "frames": ["m:main:1"], "span": None,
         "activity": None, "weight": 0.0103},
    ],
}
PROFILE_TEXT = (
    '{"version": 1, "kind": "repro.profile", "hz": 97.0, "dropped": 1}\n'
    '{"t": 0.01, "thread": 7, "frames": ["m:main:1", "m:skim:4"], '
    '"span": "skim", "activity": "engine.answer", "weight": 0.0103}\n'
    '{"t": 0.02, "thread": 7, "frames": ["m:main:1"], "span": null, '
    '"activity": null, "weight": 0.0103}\n'
)

TIMESERIES = {
    "version": 1,
    "kind": "repro.timeseries",
    "interval": 0.5,
    "pushed": 3,
    "aged": 1,
    "frames": [
        {"t0": 0.0, "t1": 1.0, "res": 1, "merged": 2,
         "counts": {"engine.elements.seen": 42.0},
         "gauges": {"audit.alerts": 0.0}},
        {"t0": 1.0, "t1": 1.5, "res": 0, "merged": 1, "counts": {},
         "gauges": {"audit.coverage": 0.75}},
    ],
}
TIMESERIES_TEXT = (
    '{"version": 1, "kind": "repro.timeseries", "interval": 0.5, '
    '"pushed": 3, "aged": 1}\n'
    '{"t0": 0.0, "t1": 1.0, "res": 1, "merged": 2, '
    '"counts": {"engine.elements.seen": 42.0}, "gauges": {"audit.alerts": 0.0}}\n'
    '{"t0": 1.0, "t1": 1.5, "res": 0, "merged": 1, "counts": {}, '
    '"gauges": {"audit.coverage": 0.75}}\n'
)

CASES = [
    (TRACE, TRACE_TEXT, validate_trace),
    (PROFILE, PROFILE_TEXT, validate_profile),
    (TIMESERIES, TIMESERIES_TEXT, validate_timeseries),
]
IDS = ["trace", "profile", "timeseries"]


@pytest.mark.parametrize("doc, text, validate", CASES, ids=IDS)
def test_writes_the_pinned_bytes(doc, text, validate):
    assert to_jsonl(doc) == text


@pytest.mark.parametrize("doc, text, validate", CASES, ids=IDS)
def test_pinned_files_read_back_equal(doc, text, validate, tmp_path):
    path = tmp_path / "doc.jsonl"
    path.write_text(text)
    assert validate(read_jsonl(str(path))) == doc
    write_jsonl(str(tmp_path / "again.jsonl"), doc)
    assert (tmp_path / "again.jsonl").read_text() == text


def test_missing_header_fields_take_their_defaults():
    text = to_jsonl({"kind": "repro.timeseries", "frames": []})
    assert from_jsonl(text) == {
        "version": 1,
        "kind": "repro.timeseries",
        "interval": 1.0,
        "pushed": 0,
        "aged": 0,
        "frames": [],
    }


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\n\n",
        "not json\n",
        '{"version": 1}\n',
        '{"version": 1, "kind": "repro.telemetry"}\n',
        "[1, 2]\n",
        '{"version": 1, "kind": "repro.trace", "dropped": 0}\n{broken\n',
    ],
)
def test_malformed_text_raises_repro_error(text):
    with pytest.raises(ReproError):
        from_jsonl(text)


def test_unknown_kind_cannot_be_written():
    with pytest.raises(ReproError):
        to_jsonl({"kind": "repro.telemetry"})


@pytest.mark.parametrize("doc, text, validate", CASES, ids=IDS)
def test_cli_validates_each_kind(doc, text, validate, tmp_path, capsys):
    path = tmp_path / "doc.jsonl"
    path.write_text(text)
    assert obs_main(["validate", str(path)]) == 0
    assert f"({doc['kind']}, 2 " in capsys.readouterr().out


def test_cli_checks_timeseries_metric_names(tmp_path, capsys):
    path = tmp_path / "ts.jsonl"
    path.write_text(TIMESERIES_TEXT)
    names = ["engine.elements.seen", "audit.coverage"]
    assert obs_main(["validate", str(path), *names]) == 0
    assert obs_main(["validate", str(path), "no.such.metric"]) == 1
    assert "missing required metrics ['no.such.metric']" in capsys.readouterr().err
