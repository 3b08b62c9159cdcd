"""Unit, CLI and end-to-end tests for the ``repro.trace`` span tracer."""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro.trace
from repro.obs import from_jsonl, read_jsonl, to_jsonl, write_jsonl
from repro.obs.__main__ import main as obs_main
from repro.trace import (
    TRACER,
    Span,
    SpanTracer,
    capturing,
    render_summary,
    summarize_trace,
    trace_to_chrome,
    validate_trace,
    write_trace_chrome,
)


class TestSpanTracer:
    def test_disabled_records_nothing_and_yields_none(self):
        tracer = SpanTracer(enabled=False)
        with tracer.span("skim", kind="flat") as sp:
            assert sp is None
        tracer.instant("sketch.update")
        assert tracer.spans() == []

    def test_nesting_and_parent_links(self):
        tracer = SpanTracer(enabled=True)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                tracer.instant("tick")
        spans = {s.name: s for s in tracer.spans()}
        assert spans["outer"].parent_id is None
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["tick"].parent_id == spans["inner"].span_id
        assert tracer.children_of(outer) == [spans["inner"]]
        assert inner.duration >= 0
        # Completion order: children recorded before parents.
        assert [s.name for s in tracer.spans()] == ["tick", "inner", "outer"]

    def test_attributes_and_set(self):
        tracer = SpanTracer(enabled=True)
        with tracer.span("skim", kind="flat", threshold=12.5) as sp:
            sp.set(dense=3)
        (span,) = tracer.find("skim")
        assert span.attributes == {"kind": "flat", "threshold": 12.5, "dense": 3}

    def test_max_spans_bounds_memory(self):
        tracer = SpanTracer(enabled=True, max_spans=2)
        for _ in range(5):
            tracer.instant("e")
        assert tracer.span_count() == 2
        assert tracer.dropped == 3
        assert tracer.snapshot()["dropped"] == 3

    def test_reset_restarts_ids_and_epoch(self):
        tracer = SpanTracer(enabled=True)
        tracer.instant("a")
        tracer.reset()
        tracer.instant("b")
        (span,) = tracer.spans()
        assert span.span_id == 1
        assert span.start < 1.0  # epoch restarted at reset

    def test_exception_still_closes_span(self):
        tracer = SpanTracer(enabled=True)
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        (span,) = tracer.find("boom")
        assert span.end >= span.start
        # The stack unwound: a new span is a root again.
        with tracer.span("after"):
            pass
        assert tracer.find("after")[0].parent_id is None

    def test_capturing_scopes_enablement(self):
        assert not TRACER.enabled
        with capturing() as tracer:
            tracer.instant("inside")
        assert not TRACER.enabled
        assert [s.name for s in TRACER.spans()] == ["inside"]

    def test_bad_max_spans_rejected(self):
        with pytest.raises(ValueError):
            SpanTracer(max_spans=0)


class TestWireFormats:
    def _sample(self) -> dict:
        tracer = SpanTracer(enabled=True)
        with tracer.span("estimate.skim_join", s1=128, s2=5):
            with tracer.span("skim", kind="flat"):
                pass
            tracer.instant("estimate.term", term="dense_dense")
        return tracer.snapshot()

    def test_jsonl_round_trip(self):
        snap = self._sample()
        assert validate_trace(from_jsonl(to_jsonl(snap))) == snap

    def test_jsonl_file_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        snap = self._sample()
        write_jsonl(str(path), snap)
        assert validate_trace(read_jsonl(str(path))) == snap
        # Header is the first line; spans follow one per line.
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["kind"] == "repro.trace"
        assert len(lines) == 1 + len(snap["spans"])

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda s: s.pop("version"),
            lambda s: s.update(kind="wrong"),
            lambda s: s.update(dropped=-1),
            lambda s: s.pop("spans"),
            lambda s: s["spans"][0].pop("name"),
            lambda s: s["spans"][0].update(id=0),
            lambda s: s["spans"][1].update(id=s["spans"][0]["id"]),
            lambda s: s["spans"][0].update(parent=999),
            lambda s: s["spans"][0].update(end=s["spans"][0]["start"] - 1),
            lambda s: s["spans"][0].update(attrs=[]),
        ],
    )
    def test_validate_rejects_malformed(self, mutate):
        snap = json.loads(to_jsonl(self._sample()).splitlines()[0])
        snap["spans"] = self._sample()["spans"]
        mutate(snap)
        with pytest.raises(ValueError):
            validate_trace(snap)

    def test_forward_parent_reference_is_valid(self):
        # Children are recorded before parents, so a parent id later in
        # the list is the normal case, not an error.
        snap = self._sample()
        child_indices = [
            i for i, s in enumerate(snap["spans"]) if s["parent"] is not None
        ]
        assert child_indices, "sample must contain nested spans"
        assert validate_trace(snap) is snap

    def test_chrome_conversion_shape(self):
        chrome = trace_to_chrome(self._sample())
        events = chrome["traceEvents"]
        assert events[0]["ph"] == "M"  # process_name metadata
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert {e["name"] for e in complete} == {"estimate.skim_join", "skim"}
        assert instants[0]["name"] == "estimate.term"
        assert instants[0]["s"] == "t"
        for event in complete:
            assert event["dur"] > 0
            assert event["ts"] >= 0
            assert event["cat"] == event["name"].split(".")[0]
            assert "span_id" in event["args"]
        assert json.dumps(chrome)  # fully serialisable

    def test_summary_aggregates(self):
        tracer = SpanTracer(enabled=True)
        for _ in range(3):
            with tracer.span("skim"):
                pass
        rows = summarize_trace(tracer.snapshot())
        (row,) = rows
        assert row["count"] == 3
        assert row["mean"] == pytest.approx(row["total"] / 3)
        text = render_summary(rows)
        assert "skim" in text and "count" in text


class TestTraceCLI:
    def _write_sample(self, path: pathlib.Path) -> None:
        tracer = SpanTracer(enabled=True)
        with tracer.span("engine.answer", query="JoinSizeQuery"):
            with tracer.span("skim", kind="dyadic"):
                pass
        write_jsonl(str(path), tracer.snapshot())

    def test_validate_ok(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        self._write_sample(path)
        assert obs_main(["validate", str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"version": 99}\n')
        assert obs_main(["validate", str(bad)]) == 1
        bad.write_text('{"version": 99, "kind": "repro.trace"}\n')
        assert obs_main(["validate", str(bad)]) == 1
        assert "unsupported trace version 99" in capsys.readouterr().err
        assert obs_main(["validate", str(tmp_path / "missing.jsonl")]) == 1

    def test_convert_produces_loadable_chrome_json(self, tmp_path):
        src = tmp_path / "t.jsonl"
        dst = tmp_path / "t.chrome.json"
        self._write_sample(src)
        assert obs_main(["convert", str(src), str(dst)]) == 0
        chrome = json.loads(dst.read_text())
        assert {e["name"] for e in chrome["traceEvents"]} >= {
            "engine.answer",
            "skim",
        }

    def test_summarize(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        self._write_sample(path)
        assert obs_main(["summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "engine.answer" in out and "skim" in out
        assert obs_main(["summary", str(path), "--limit", "1"]) == 0
        out = capsys.readouterr().out
        assert "engine.answer" in out and "skim" not in out


class TestEndToEnd:
    """ISSUE acceptance: one traced ``StreamEngine.answer()`` produces the
    full nested span tree and converts to a loadable Perfetto trace."""

    def _traced_answer(self):
        from repro.core.config import SketchParameters
        from repro.streams.engine import StreamEngine
        from repro.streams.query import JoinCountQuery

        engine = StreamEngine(
            domain_size=1 << 10,
            parameters=SketchParameters(width=64, depth=5),
            synopsis="skimmed",
            seed=3,
        )
        engine.register_stream("f")
        engine.register_stream("g")
        rng = np.random.default_rng(7)
        # Skewed streams: three values with frequency 1000 sit well above
        # the skim threshold N/sqrt(width) = 5000/8, so both skims extract
        # dense values and the sparse terms run their median boosting.
        heavy = np.repeat(np.array([3, 5, 9]), 1000)
        for stream in ("f", "g"):
            tail = rng.integers(0, 1 << 10, 2_000)
            engine.process_bulk(stream, np.concatenate([heavy, tail]))
        with capturing() as tracer:
            engine.answer(JoinCountQuery("f", "g"))
        return tracer.snapshot()

    def test_answer_emits_nested_query_path_spans(self):
        snap = self._traced_answer()
        validate_trace(snap)
        by_name: dict[str, list[dict]] = {}
        for span in snap["spans"]:
            by_name.setdefault(span["name"], []).append(span)

        (answer,) = by_name["engine.answer"]
        assert answer["parent"] is None
        assert answer["attrs"]["query"] == "JoinCountQuery"
        assert "estimate" in answer["attrs"]

        (skim_join,) = by_name["estimate.skim_join"]
        assert skim_join["parent"] == answer["id"]
        assert skim_join["attrs"]["s1"] == 64
        assert skim_join["attrs"]["s2"] == 5

        # Both streams' sketches get skimmed under the join estimate.
        assert len(by_name["skim"]) == 2
        for skim in by_name["skim"]:
            assert skim["parent"] == skim_join["id"]
            assert skim["attrs"]["kind"] == "flat"
            assert skim["attrs"]["threshold"] > 0

        # All four ESTSKIMJOINSIZE sub-join terms, in the paper's order.
        terms = [s for s in by_name["estimate.term"] if s["parent"] == skim_join["id"]]
        assert [t["attrs"]["term"] for t in terms] == [
            "dense_dense",
            "dense_sparse",
            "sparse_dense",
            "sparse_sparse",
        ]

        # Per-table median boosting happens under the sparse terms.
        term_ids = {t["id"] for t in terms}
        boosts = by_name["estimate.median_boost"]
        assert boosts
        for boost in boosts:
            assert boost["parent"] in term_ids
            assert boost["attrs"]["tables"] == 5
            assert "median" in boost["attrs"]

    def test_traced_answer_converts_to_perfetto(self, tmp_path):
        snap = self._traced_answer()
        path = tmp_path / "answer.chrome.json"
        write_trace_chrome(str(path), snap)
        chrome = json.loads(path.read_text())
        assert chrome["traceEvents"], "trace must contain events"
        names = {e["name"] for e in chrome["traceEvents"]}
        assert {"engine.answer", "estimate.skim_join", "skim", "estimate.term"} <= names

    def test_ingest_and_sql_spans(self):
        from repro.core.config import SketchParameters
        from repro.streams.engine import StreamEngine

        engine = StreamEngine(
            domain_size=256,
            parameters=SketchParameters(width=32, depth=3),
            synopsis="skimmed",
            seed=1,
        )
        engine.register_stream("f")
        engine.register_stream("g")
        with capturing() as tracer:
            engine.process("f", 7)
            engine.process_bulk("g", np.arange(10))
            engine.answer_sql("SELECT COUNT(*) FROM f JOIN g")
        names = [s.name for s in tracer.spans()]
        assert names.count("engine.ingest") == 2
        assert "engine.sql" in names
        (sql,) = tracer.find("engine.sql")
        assert "JOIN" in sql.attributes["sql"]

    def test_distributed_round_trip_spans(self):
        from repro.core import SkimmedSketchSchema
        from repro.distributed.coordinator import SketchCoordinator
        from repro.distributed.site import SketchSite

        schema = SkimmedSketchSchema(32, 3, 256, seed=2)
        site = SketchSite("site-a", schema, ["f"])
        coordinator = SketchCoordinator(schema)
        site.observe_bulk("f", np.arange(50))
        with capturing() as tracer:
            reports = site.close_round()
            coordinator.receive_all(reports)
        names = [s.name for s in tracer.spans()]
        assert "dist.round" in names
        assert "dist.merge_round" in names
        assert "dist.receive" in names
        (round_span,) = tracer.find("dist.round")
        assert round_span.attributes["site"] == "site-a"
        assert round_span.attributes["bytes"] > 0
        (receive,) = tracer.find("dist.receive")
        assert receive.attributes["bytes"] > 0


class TestImportCost:
    """`repro.trace` must stay importable without heavy dependencies."""

    def _package_parent_dir(self) -> str:
        return str(pathlib.Path(repro.trace.__file__).parent.parent)

    def test_trace_does_not_import_numpy(self):
        code = (
            "import sys; sys.path.insert(0, {path!r}); import repro.trace; "
            "assert 'numpy' not in sys.modules, 'repro.trace must not import numpy'"
        ).format(path=str(pathlib.Path(repro.trace.__file__).parents[2]))
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_bench_does_not_import_numpy(self):
        code = (
            "import sys; sys.path.insert(0, {path!r}); import bench; "
            "assert 'numpy' not in sys.modules, "
            "'repro.bench must not import numpy'"
        ).format(path=self._package_parent_dir())
        subprocess.run([sys.executable, "-c", code], check=True)
