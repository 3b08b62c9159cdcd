"""Unit and property tests for the ``repro.obs`` metrics subsystem."""

from __future__ import annotations

import json
import math
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs
from repro.obs import (
    METRICS,
    MetricsRegistry,
    capturing,
    diff_snapshots,
    quantile,
    read_telemetry,
    render_diff,
    snapshot_to_prometheus,
    telemetry_from_json,
    telemetry_to_json,
    validate_telemetry,
    write_telemetry,
)
from repro.obs.registry import Counter, Gauge, Histogram


#: An empty telemetry document (what every malformed case mutates).
_ENVELOPE = repro.obs.empty_telemetry("local")

bounded_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestCounterGauge:
    def test_counter_starts_at_zero_and_accumulates(self):
        c = Counter("x")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_gauge_last_write_wins(self):
        g = Gauge("x")
        assert g.value == 0.0
        g.set(7)
        g.set(-1.5)
        assert g.value == -1.5

    @given(st.lists(bounded_floats))
    def test_counter_matches_running_sum(self, increments):
        c = Counter("x")
        for amount in increments:
            c.inc(amount)
        assert c.value == pytest.approx(sum(increments), abs=1e-6)


class TestHistogram:
    @given(st.lists(bounded_floats, min_size=1))
    @settings(max_examples=50)
    def test_summary_invariants(self, values):
        h = Histogram("h")
        for v in values:
            h.record(v)
        s = h.state()
        assert s["count"] == len(values)
        assert s["sum"] == pytest.approx(math.fsum(values), abs=1e-5)
        assert s["min"] == min(values)
        assert s["max"] == max(values)
        p50, p95, p99 = (quantile(s["samples"], q) for q in (0.5, 0.95, 0.99))
        assert s["min"] <= p50 <= p95 <= p99 <= s["max"]

    def test_empty_summary_is_all_zero(self):
        s = Histogram("h").state()
        assert s == {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "samples": []}
        assert [quantile(s["samples"], q) for q in (0.5, 0.95, 0.99)] == [0.0] * 3

    def test_reservoir_is_bounded(self):
        h = Histogram("h", reservoir_size=16)
        for i in range(10_000):
            h.record(float(i))
        assert len(h._samples) == 16  # noqa: SLF001
        assert h.count == 10_000
        assert h.min == 0.0 and h.max == 9999.0

    @given(st.lists(bounded_floats, min_size=1, max_size=200))
    def test_recording_is_deterministic(self, values):
        a, b = Histogram("same", reservoir_size=32), Histogram("same", reservoir_size=32)
        for v in values:
            a.record(v)
            b.record(v)
        assert a.state() == b.state()

    def test_percentile_validates_range(self):
        with pytest.raises(ValueError):
            quantile([1.0], 1.01)
        with pytest.raises(ValueError):
            quantile([1.0], -0.01)

    def test_exact_percentiles_on_small_sample(self):
        h = Histogram("h")
        for v in (1.0, 2.0, 3.0):
            h.record(v)
        samples = h.state()["samples"]
        assert quantile(samples, 0.0) == 1.0
        assert quantile(samples, 0.5) == 2.0
        assert quantile(samples, 1.0) == 3.0


class TestRegistry:
    def test_disabled_registry_records_nothing(self):
        reg = MetricsRegistry(enabled=False)
        reg.count("a")
        reg.gauge("b", 3.0)
        reg.observe("c", 1.0)
        snap = reg.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"].get("b", [0.0, 0.0])[0] == 0.0
        assert snap["histograms"].get("c", {"count": 0})["count"] == 0

    def test_enable_disable_toggle(self):
        reg = MetricsRegistry()
        assert not reg.enabled
        reg.enable()
        reg.count("a", 2)
        reg.disable()
        reg.count("a", 100)
        assert reg.counter_value("a") == 2.0

    def test_reset_clears_values_but_keeps_switch(self):
        reg = MetricsRegistry(enabled=True)
        reg.count("a")
        reg.gauge("g", 5)
        reg.observe("h", 1.0)
        reg.reset()
        assert reg.enabled
        assert list(reg.metric_names()) == []
        assert reg.counter_value("a") == 0.0
        assert reg.gauge_value("g") == 0.0

    def test_unknown_metrics_read_as_zero(self):
        reg = MetricsRegistry()
        assert reg.counter_value("nope") == 0.0
        assert reg.gauge_value("nope") == 0.0

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["count", "gauge", "observe"]),
                st.sampled_from(["m1", "m2", "m3"]),
                bounded_floats,
            ),
            max_size=200,
        )
    )
    @settings(max_examples=50)
    def test_snapshot_matches_model(self, ops):
        reg = MetricsRegistry(enabled=True)
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        observations: dict[str, list[float]] = {}
        for kind, name, value in ops:
            if kind == "count":
                reg.count(name, value)
                counters[name] = counters.get(name, 0.0) + value
            elif kind == "gauge":
                reg.gauge(name, value)
                gauges[name] = value
            else:
                reg.observe(name, value)
                observations.setdefault(name, []).append(value)
        snap = reg.snapshot()
        assert set(snap["counters"]) == set(counters)
        for name, total in counters.items():
            assert snap["counters"][name] == pytest.approx(total, abs=1e-6)
        levels = {n: pair[0] for n, pair in snap["gauges"].items()}
        assert levels == {n: pytest.approx(v) for n, v in gauges.items()}
        for name, values in observations.items():
            assert snap["histograms"][name]["count"] == len(values)

    def test_snapshot_readable_while_disabled(self):
        reg = MetricsRegistry(enabled=True)
        reg.count("a", 4)
        reg.disable()
        assert reg.snapshot()["counters"] == {"a": 4.0}


class TestTimer:
    def test_records_into_histogram_when_enabled(self):
        reg = MetricsRegistry(enabled=True)
        with reg.timer("t.seconds") as t:
            pass
        assert t.elapsed is not None and t.elapsed >= 0.0
        assert reg.snapshot()["histograms"]["t.seconds"]["count"] == 1

    def test_elapsed_available_while_disabled_but_not_recorded(self):
        reg = MetricsRegistry(enabled=False)
        with reg.timer("t.seconds") as t:
            pass
        assert t.elapsed is not None
        assert "t.seconds" not in reg.snapshot()["histograms"]

    def test_decorator_times_each_call(self):
        reg = MetricsRegistry(enabled=True)

        @reg.timer("fn.seconds")
        def fn(x):
            return x * 2

        assert fn(21) == 42
        assert fn(1) == 2
        assert reg.snapshot()["histograms"]["fn.seconds"]["count"] == 2

    def test_records_even_when_block_raises(self):
        reg = MetricsRegistry(enabled=True)
        with pytest.raises(RuntimeError):
            with reg.timer("t.seconds"):
                raise RuntimeError("boom")
        assert reg.snapshot()["histograms"]["t.seconds"]["count"] == 1


class TestGlobalHelpers:
    def test_capturing_restores_previous_state(self):
        METRICS.disable()
        with capturing() as reg:
            assert reg is METRICS
            assert METRICS.enabled
            METRICS.count("inside")
        assert not METRICS.enabled
        assert METRICS.counter_value("inside") == 1.0

    def test_capturing_fresh_resets(self):
        METRICS.enable()
        METRICS.count("stale")
        with capturing(fresh=True):
            assert METRICS.counter_value("stale") == 0.0
        assert METRICS.enabled  # previous state restored

    def test_module_level_switch(self):
        repro.obs.enable()
        assert repro.obs.is_enabled()
        repro.obs.disable()
        assert not repro.obs.is_enabled()
        repro.obs.reset()
        assert repro.obs.snapshot()["counters"] == {}


class TestExporters:
    def _populated(self) -> MetricsRegistry:
        reg = MetricsRegistry(enabled=True)
        reg.count("sketch.update.elements", 100)
        reg.count("skim.passes", 2)
        reg.gauge("skim.threshold", 12.5)
        for v in (0.001, 0.002, 0.004):
            reg.observe("skim.seconds", v)
        return reg

    def test_json_round_trip(self):
        snap = self._populated().snapshot()
        assert telemetry_from_json(telemetry_to_json(snap)) == snap

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["count", "gauge", "observe"]),
                st.sampled_from(["a.b", "c-d", "e f", "g"]),
                bounded_floats,
            ),
            max_size=100,
        )
    )
    @settings(max_examples=50)
    def test_json_round_trip_property(self, ops):
        reg = MetricsRegistry(enabled=True)
        for kind, name, value in ops:
            getattr(reg, kind)(name, value)
        snap = reg.snapshot()
        assert telemetry_from_json(telemetry_to_json(snap)) == snap

    def test_json_round_trip_with_nonfinite_gauge(self):
        reg = MetricsRegistry(enabled=True)
        reg.gauge("skim.threshold", float("inf"))
        snap = reg.snapshot()
        restored = telemetry_from_json(telemetry_to_json(snap))
        assert restored["gauges"]["skim.threshold"][0] == float("inf")

    def test_write_snapshot_is_valid_json_file(self, tmp_path):
        path = tmp_path / "m.json"
        write_telemetry(str(path), self._populated().snapshot())
        assert read_telemetry(str(path))["counters"]["skim.passes"] == 2.0

    def test_prometheus_rendering(self):
        text = snapshot_to_prometheus(self._populated().snapshot())
        assert "# TYPE repro_sketch_update_elements_total counter" in text
        assert "repro_sketch_update_elements_total 100.0" in text
        assert "# TYPE repro_skim_threshold gauge" in text
        assert "# TYPE repro_skim_seconds summary" in text
        assert 'repro_skim_seconds{quantile="0.5"}' in text
        assert "repro_skim_seconds_count 3" in text
        # exposition names must be [a-zA-Z0-9_:]
        for line in text.splitlines():
            metric = line.split()[1 if line.startswith("#") else 0]
            name = metric.split("{")[0]
            assert all(c.isalnum() or c == "_" for c in name), line

    @pytest.mark.parametrize(
        "bad",
        [
            42,
            {},
            # A version-1 metrics snapshot is no longer a telemetry document.
            {"version": 1, "counters": {}, "gauges": {}, "histograms": {}},
            dict(_ENVELOPE, counters=[]),
            dict(_ENVELOPE, counters={"a": "x"}),
            dict(_ENVELOPE, histograms={"h": {}}),
            dict(
                _ENVELOPE,
                histograms={"h": {f: -1.5 for f in
                                  ("count", "sum", "min", "max", "samples")}},
            ),
        ],
    )
    def test_validate_rejects_malformed_snapshots(self, bad):
        with pytest.raises(ValueError):
            validate_telemetry(bad)

    def test_validate_accepts_registry_snapshots(self):
        snap = self._populated().snapshot()
        assert validate_telemetry(snap) is snap


#: ``name value`` or ``name{label="x",...} value`` — the sample-line shape
#: of the Prometheus text exposition format.
_PROM_SAMPLE_RE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?:[a-zA-Z_][a-zA-Z0-9_]*="[^"]*",?)+\})?'
    r" (?P<value>[^ ]+)$"
)


class TestPrometheusExposition:
    """Format correctness of the text exposition output."""

    def _registry_with_awkward_names(self) -> MetricsRegistry:
        reg = MetricsRegistry(enabled=True)
        reg.count("engine.queries.PointQuery", 3)
        reg.count("dist.bytes-received", 1024)
        reg.gauge("skim threshold", 42.0)
        for v in (0.5, 1.5):
            reg.observe("estimate.term.dense_dense.seconds", v)
        return reg

    def test_names_are_sanitised(self):
        text = snapshot_to_prometheus(self._registry_with_awkward_names().snapshot())
        assert "repro_engine_queries_PointQuery_total" in text
        assert "repro_dist_bytes_received_total" in text
        assert "repro_skim_threshold" in text
        for line in text.splitlines():
            name = line.split()[1 if line.startswith("#") else 0].split("{")[0]
            assert all(c.isalnum() or c == "_" for c in name), line

    def test_exactly_one_type_line_per_family(self):
        text = snapshot_to_prometheus(self._registry_with_awkward_names().snapshot())
        families = [
            line.split()[2] for line in text.splitlines() if line.startswith("# TYPE")
        ]
        assert len(families) == len(set(families))
        # One family per metric: 2 counters + 1 gauge + 1 summary.
        assert len(families) == 4

    def test_family_collision_is_an_error(self):
        reg = MetricsRegistry(enabled=True)
        reg.count("a.b", 1)
        reg.count("a_b", 2)  # sanitises to the same family
        with pytest.raises(ValueError, match="sanitise"):
            snapshot_to_prometheus(reg.snapshot())

    def test_sample_lines_parse_and_round_trip(self):
        snap = self._registry_with_awkward_names().snapshot()
        text = snapshot_to_prometheus(snap)
        samples: dict[str, float] = {}
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            match = _PROM_SAMPLE_RE.match(line)
            assert match, f"unparseable sample line: {line!r}"
            key = line.rsplit(" ", 1)[0]
            samples[key] = float(match.group("value"))
        # Values survive the render: counters, gauges, summary components.
        assert samples["repro_engine_queries_PointQuery_total"] == 3.0
        assert samples["repro_skim_threshold"] == 42.0
        assert samples["repro_estimate_term_dense_dense_seconds_count"] == 2.0
        assert samples["repro_estimate_term_dense_dense_seconds_sum"] == 2.0
        assert (
            samples['repro_estimate_term_dense_dense_seconds{quantile="0.5"}'] == 0.5
        )

    def test_nonfinite_values_use_prometheus_literals(self):
        reg = MetricsRegistry(enabled=True)
        reg.gauge("g", float("inf"))
        text = snapshot_to_prometheus(reg.snapshot())
        assert "repro_g +Inf" in text


class TestDiffSnapshots:
    def _snap(self, n: int) -> dict:
        reg = MetricsRegistry(enabled=True)
        reg.count("engine.queries", n)
        reg.gauge("skim.threshold", 10.0 * n)
        for v in range(n):
            reg.observe("engine.answer.seconds", 0.001 * (v + 1))
        return reg.snapshot()

    def test_counters_subtracted(self):
        diff = diff_snapshots(self._snap(2), self._snap(5))
        entry = diff["counters"]["engine.queries"]
        assert entry == {"old": 2.0, "new": 5.0, "delta": 3.0}

    def test_missing_counter_treated_as_zero(self):
        old = self._snap(1)
        new = self._snap(1)
        new["counters"]["skim.passes"] = 4.0
        diff = diff_snapshots(old, new)
        assert diff["counters"]["skim.passes"]["delta"] == 4.0
        reverse = diff_snapshots(new, old)
        assert reverse["counters"]["skim.passes"]["delta"] == -4.0

    def test_gauges_report_levels_and_delta(self):
        diff = diff_snapshots(self._snap(1), self._snap(3))
        assert diff["gauges"]["skim.threshold"] == {
            "old": 10.0,
            "new": 30.0,
            "delta": 20.0,
        }

    def test_histograms_merged_compared(self):
        diff = diff_snapshots(self._snap(2), self._snap(4))
        entry = diff["histograms"]["engine.answer.seconds"]
        assert entry["count_delta"] == 2
        assert entry["sum_delta"] == pytest.approx(0.01 - 0.003)
        assert entry["p50"]["old"] == pytest.approx(0.001)
        assert entry["p50"]["new"] == pytest.approx(0.003)

    def test_histogram_only_on_one_side(self):
        old = self._snap(1)
        new = self._snap(1)
        del old["histograms"]["engine.answer.seconds"]
        diff = diff_snapshots(old, new)
        entry = diff["histograms"]["engine.answer.seconds"]
        assert "count_delta" not in entry
        assert entry["mean"]["old"] is None
        assert entry["mean"]["new"] is not None

    def test_render_diff_is_readable(self):
        text = render_diff(diff_snapshots(self._snap(1), self._snap(2)))
        assert "engine.queries: 1 -> 2 (+1)" in text
        assert "histograms:" in text

    def test_diff_validates_inputs(self):
        with pytest.raises(ValueError):
            diff_snapshots({}, self._snap(1))


class TestDiffCLISchemaVersion:
    """``repro.obs diff`` must refuse to compare mismatched schemas."""

    def _write_raw(self, path, version) -> None:
        path.write_text(json.dumps(dict(_ENVELOPE, version=version)))

    def test_version_mismatch_exits_nonzero(self, tmp_path, capsys):
        """A version-1 file is refused by name, whichever side it is on."""
        from repro.obs.__main__ import main as obs_main

        before, after = tmp_path / "v1.json", tmp_path / "v2.json"
        self._write_raw(before, 1)
        self._write_raw(after, 2)
        assert obs_main(["diff", str(before), str(after)]) == 1
        err = capsys.readouterr().err
        assert "unsupported telemetry version 1" in err and str(before) in err
        assert obs_main(["diff", str(after), str(before)]) == 1
        assert "unsupported telemetry version 1" in capsys.readouterr().err

    def test_mismatch_detected_before_validation(self, tmp_path, capsys):
        """An unknown version is refused naming the file and the version,
        not half-compared."""
        from repro.obs.__main__ import main as obs_main

        before, after = tmp_path / "v2.json", tmp_path / "v3.json"
        self._write_raw(before, 2)
        self._write_raw(after, 3)
        assert obs_main(["diff", str(before), str(after)]) == 1
        err = capsys.readouterr().err
        assert "unsupported telemetry version 3" in err and str(after) in err
        assert obs_main(["validate", str(after)]) == 1

    def test_matching_versions_still_diff(self, tmp_path, capsys):
        from repro.obs.__main__ import main as obs_main

        before, after = tmp_path / "a.json", tmp_path / "b.json"
        self._write_raw(before, 2)
        self._write_raw(after, 2)
        assert obs_main(["diff", str(before), str(after)]) == 0


class TestImportCost:
    """The observability packages load no numpy through the real package
    path, starting with the lazy ``repro`` root itself."""

    def _run(self, code: str) -> str:
        src = str(pathlib.Path(repro.obs.__file__).parents[2])
        out = subprocess.run(
            [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); {code}"],
            check=True,
            capture_output=True,
            text=True,
        )
        return out.stdout

    def test_obs_does_not_import_numpy(self):
        self._run(
            "import repro.obs; "
            "assert 'numpy' not in sys.modules, 'repro.obs must not import numpy'"
        )

    def test_obs_import_time_stays_small(self):
        elapsed = float(
            self._run(
                "import time; t = time.perf_counter(); import repro.obs; "
                "print(time.perf_counter() - t)"
            ).strip()
        )
        assert elapsed < 0.5, f"repro.obs import took {elapsed:.3f}s"

    def test_repro_root_is_lazy(self):
        self._run(
            "import repro; "
            "assert 'numpy' not in sys.modules, 'import repro loaded numpy'; "
            "from repro import StreamEngine, ReproError, __version__; "
            "assert 'numpy' in sys.modules and StreamEngine.__name__ == 'StreamEngine'"
        )

    def test_obs_cli_validates_without_numpy(self, tmp_path):
        path = str(tmp_path / "m.json")
        repro.obs.write_telemetry(path, repro.obs.empty_telemetry("site.a"))
        # What ``python -m repro.obs validate`` runs, numpy check after.
        out = self._run(
            "import runpy; "
            f"sys.argv = ['repro.obs', 'validate', {path!r}]\n"
            "try:\n"
            "    runpy.run_module('repro.obs', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exit:\n"
            "    assert exit.code == 0, exit.code\n"
            "assert 'numpy' not in sys.modules, 'the CLI loaded numpy'"
        )
        assert out.startswith("ok:")

