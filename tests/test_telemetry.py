"""Tests for the telemetry subsystem: spans, metrics, determinism, CLI."""

import json

import pytest

from repro import telemetry
from repro.cli import main
from repro.core.pipeline import Staub
from repro.smtlib import parse_script
from repro.solver import solve_script
from repro.telemetry.metrics import MetricsRegistry, format_metric
from repro.telemetry.profile import FIG3_STAGES, aggregate, load_trace, render_profile
from repro.telemetry.spans import NULL_SPAN, Tracer
from repro.telemetry.stats import STAT_KEYS, merge_stats, unified_stats


@pytest.fixture(autouse=True)
def telemetry_off():
    """Every test starts and ends with telemetry disabled."""
    telemetry.disable()
    telemetry.get_registry().reset()
    yield
    telemetry.disable()
    telemetry.get_registry().reset()


CUBES = (
    "(set-logic QF_NIA)\n"
    "(declare-fun x () Int)(declare-fun y () Int)\n"
    "(assert (= (* x y) 77))(assert (> x 1))(assert (< x y))\n"
    "(check-sat)\n"
)


@pytest.fixture()
def nia_file(tmp_path):
    path = tmp_path / "cubes.smt2"
    path.write_text(CUBES)
    return str(path)


class TestSpans:
    def test_nesting_and_depths(self):
        tracer = Tracer()
        closed = []
        tracer.sink = closed.append
        with tracer.span("outer") as outer:
            outer.add_work(5)
            with tracer.span("inner") as inner:
                inner.add_work(7)
            outer.add_work(1)
        assert [s["name"] for s in closed] == ["inner", "outer"]
        assert closed[0]["depth"] == 1
        assert closed[1]["depth"] == 0
        assert closed[0]["work"] == 7
        # Outer includes its own work plus the child's.
        assert closed[1]["work"] == 13

    def test_span_closes_on_exception(self):
        tracer = Tracer()
        closed = []
        tracer.sink = closed.append
        with pytest.raises(ValueError):
            with tracer.span("doomed") as span:
                span.add_work(3)
                raise ValueError("boom")
        assert len(closed) == 1
        assert closed[0]["name"] == "doomed"
        assert closed[0]["work"] == 3
        assert closed[0]["attrs"]["error"] is True
        assert tracer.depth == 0

    def test_forgotten_children_are_closed_with_parent(self):
        tracer = Tracer()
        closed = []
        tracer.sink = closed.append
        outer = tracer.span("outer")
        tracer.span("leaked")
        tracer.close(outer)
        assert [s["name"] for s in closed] == ["leaked", "outer"]
        assert tracer.depth == 0

    def test_settle_tops_up_without_double_counting(self):
        tracer = Tracer()
        with tracer.span("stage") as stage:
            with tracer.span("child") as child:
                child.add_work(30)
            stage.settle(100)
        assert stage.work == 100

    def test_virtual_timestamps_are_deterministic(self):
        def run():
            tracer = Tracer()
            out = []
            tracer.sink = out.append
            with tracer.span("a") as a:
                a.add_work(2)
                with tracer.span("b") as b:
                    b.add_work(3)
            return out

        assert run() == run()

    def test_disabled_span_is_noop_singleton(self):
        assert telemetry.span("anything") is NULL_SPAN
        with telemetry.span("x") as span:
            span.add_work(5)
            span.settle(10)
        assert span.work == 0


class TestMetrics:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("c", engine="sat").inc(3)
        registry.counter("c", engine="sat").inc()
        registry.gauge("g").set(17)
        registry.histogram("h").observe(5)
        registry.histogram("h").observe(1)
        snap = registry.snapshot()
        assert snap["c{engine=sat}"] == 4
        assert snap["g"] == 17
        assert snap["h"] == {"count": 2, "sum": 6, "min": 1, "max": 5}

    def test_label_order_is_canonical(self):
        assert format_metric("m", {"b": 1, "a": 2}) == "m{a=2,b=1}"
        registry = MetricsRegistry()
        registry.counter("m", b=1, a=2).inc()
        registry.counter("m", a=2, b=1).inc()
        assert registry.snapshot() == {"m{a=2,b=1}": 2}

    def test_type_confusion_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(TypeError):
            registry.gauge("m")

    def test_disabled_helpers_record_nothing(self):
        telemetry.counter_add("x")
        telemetry.gauge_set("y", 1)
        telemetry.observe("z", 2)
        telemetry.record_counters({"k": 5})
        assert telemetry.snapshot() == {}


class TestUnifiedStats:
    def test_every_canonical_key_present(self):
        stats = unified_stats(propagations=10)
        for key in STAT_KEYS:
            assert key in stats
        assert stats["propagations"] == 10
        assert stats["pivots"] == 0

    def test_merge_adds_numbers_and_overwrites_labels(self):
        target = unified_stats(pivots=2)
        merge_stats(target, {"pivots": 3, "case": "verified-sat"})
        assert target["pivots"] == 5
        assert target["case"] == "verified-sat"

    def test_solve_result_stats_uniform_across_engines(self):
        bounded = parse_script(
            "(declare-fun v () (_ BitVec 6))(assert (= (bvmul v v) (_ bv36 6)))"
        )
        unbounded = parse_script(
            "(declare-fun x () Int)(assert (= (* x x) 49))"
        )
        bv = solve_script(bounded, budget=1_000_000)
        nia = solve_script(unbounded, budget=1_000_000)
        for key in STAT_KEYS:
            assert key in bv.stats, key
            assert key in nia.stats, key
        assert bv.stats["cnf_clauses"] > 0
        assert nia.stats["contractions"] > 0

    def test_arbitrage_report_stats(self):
        report = Staub().run(parse_script(CUBES), budget=1_200_000)
        assert report.case == "verified-sat"
        assert report.stats["case"] == "verified-sat"
        assert report.stats["width"] == report.width
        assert report.stats["propagations"] > 0


class TestDeterminism:
    def _run_cell(self):
        """One small seeded suite cell with a fresh registry."""
        from repro.evaluation.runner import ExperimentCache
        from repro.telemetry import set_registry

        registry = MetricsRegistry()
        previous = set_registry(registry)
        telemetry.enable()
        try:
            cache = ExperimentCache(seed=7, scale=0.05)
            cache.rows("QF_NIA", "zorro", "staub")
        finally:
            telemetry.disable()
            set_registry(previous)
        return json.dumps(registry.snapshot(), sort_keys=True)

    def test_counters_byte_identical_across_runs(self):
        first = self._run_cell()
        assert first != "{}"  # the cell actually recorded counters
        assert first == self._run_cell()

    def test_telemetry_summary_deterministic(self):
        from repro.evaluation.runner import ExperimentCache

        def summarize():
            cache = ExperimentCache(seed=7, scale=0.05)
            cache.rows("QF_LIA", "zorro", "staub")
            return json.dumps(cache.telemetry_summary(), sort_keys=True)

        assert summarize() == summarize()

    def test_disabled_run_produces_no_counters_or_trace(self, tmp_path):
        solve_script(parse_script(CUBES), budget=1_000_000)
        Staub().run(parse_script(CUBES), budget=1_000_000)
        assert telemetry.snapshot() == {}
        assert list(tmp_path.iterdir()) == []

    def test_results_identical_with_and_without_telemetry(self, tmp_path):
        script = parse_script(CUBES)
        plain = solve_script(script, budget=1_000_000)
        telemetry.enable(trace_path=str(tmp_path / "t.jsonl"))
        traced = solve_script(script, budget=1_000_000)
        telemetry.disable()
        assert plain.status == traced.status
        assert plain.work == traced.work
        assert plain.model == traced.model
        assert plain.stats == traced.stats


class TestTraceFile:
    def test_arbitrage_trace_has_all_stages_summing_to_total(self, nia_file, tmp_path):
        trace = str(tmp_path / "run.jsonl")
        assert main(["arbitrage", "--trace", trace, nia_file]) == 0
        spans = load_trace(trace)
        by_name = aggregate(spans)
        for stage in FIG3_STAGES:
            assert stage in by_name, stage
        report = Staub().run(parse_script(CUBES), budget=1_200_000)
        stage_total = sum(by_name[s]["work"] for s in FIG3_STAGES)
        assert stage_total == report.total_work

    def test_trace_lines_are_json_with_schema(self, nia_file, tmp_path):
        trace = str(tmp_path / "run.jsonl")
        assert main(["solve", "--trace", trace, nia_file]) == 0
        spans = load_trace(trace)
        assert spans
        for span in spans:
            assert {"name", "depth", "t_start", "t_end", "work"} <= set(span)
            assert span["t_end"] - span["t_start"] == span["work"]


class TestCli:
    def test_version_flag(self, capsys):
        from repro.version import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_no_subcommand_exits_2_with_usage(self, capsys):
        assert main([]) == 2
        err = capsys.readouterr().err
        assert "usage:" in err

    def test_stats_flag_prints_counters(self, nia_file, capsys):
        assert main(["arbitrage", "--stats", nia_file]) == 0
        out = capsys.readouterr().out
        assert "stats:" in out
        assert "propagations" in out
        assert "cnf_clauses" in out

    def test_profile_includes_every_fig3_stage(self, nia_file, tmp_path, capsys):
        trace = str(tmp_path / "run.jsonl")
        assert main(["arbitrage", "--trace", trace, nia_file]) == 0
        capsys.readouterr()
        assert main(["profile", trace]) == 0
        out = capsys.readouterr().out
        for stage in FIG3_STAGES:
            assert stage in out, stage
        assert "total (pipeline)" in out

    def test_profile_missing_file_errors(self, capsys):
        assert main(["profile", "/nonexistent.jsonl"]) == 1
        assert "error" in capsys.readouterr().err

    def test_profile_non_json_file_errors(self, tmp_path, capsys):
        bad = tmp_path / "garbage.jsonl"
        bad.write_text("not json\n")
        assert main(["profile", str(bad)]) == 1
        assert "not a JSONL trace" in capsys.readouterr().err

    def test_trace_to_unwritable_path_errors(self, nia_file, capsys):
        assert main(["solve", "--trace", "/nonexistent-dir/t.jsonl", nia_file]) == 1
        assert "error" in capsys.readouterr().err

    def test_render_profile_empty_stage_shows_zero(self):
        out = render_profile(
            [{"name": "infer", "work": 4, "depth": 0, "t_start": 0, "t_end": 4}]
        )
        assert "verify" in out


class TestRunAllArtifact:
    def test_run_all_writes_telemetry_artifact(self, tmp_path, capsys):
        from repro.evaluation import run_all

        artifact = str(tmp_path / "results_telemetry.json")
        traces = []
        for attempt in (1, 2):
            trace = tmp_path / f"run{attempt}.jsonl"
            code = run_all.main(
                [
                    "--experiment",
                    "table1",
                    "--scale",
                    "0.05",
                    "--telemetry",
                    artifact,
                    "--trace",
                    str(trace),
                ]
            )
            assert code == 0
            captured = capsys.readouterr()
            assert "took" in captured.err  # progress line moved to stderr
            assert "took" not in captured.out
            traces.append(trace.read_bytes())
        # No span carries a wall clock, so two traces agree byte for byte.
        assert traces[0] and traces[0] == traces[1]
        with open(artifact, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert {"experiments", "cells", "metrics"} <= set(payload)
        assert payload["experiments"][0]["experiment"] == "table1"


class TestProfileTop:
    def _spans(self):
        # Pipeline stages plus three extra stages with tie-broken works.
        spans = []
        clock = 0
        stages = [("infer", 5), ("transform", 5), ("bounded-solve", 50),
                  ("verify", 5), ("blast", 9), ("alpha", 4), ("beta", 4)]
        for name, work in stages:
            spans.append({"name": name, "depth": 0, "t_start": clock,
                          "t_end": clock + work, "work": work})
            clock += work
        return spans

    def test_top_caps_extras_but_keeps_pipeline_stages(self):
        out = render_profile(self._spans(), top=1)
        for stage in FIG3_STAGES:
            assert stage in out, stage
        assert "blast" in out
        assert "alpha" not in out
        assert "beta" not in out

    def test_extras_sorted_by_work_then_name(self):
        out = render_profile(self._spans())
        lines = [line.split()[0] for line in out.splitlines()[1:] if line.strip()]
        extras = [name for name in lines if name not in FIG3_STAGES][:3]
        # blast is heaviest; alpha and beta tie on work, alphabetical after.
        assert extras == ["blast", "alpha", "beta"]

    def test_profile_cli_top_flag(self, nia_file, tmp_path, capsys):
        trace = str(tmp_path / "run.jsonl")
        assert main(["arbitrage", "--trace", trace, nia_file]) == 0
        capsys.readouterr()
        assert main(["profile", trace, "--top", "0"]) == 0
        out = capsys.readouterr().out
        for stage in FIG3_STAGES:
            assert stage in out, stage
        assert "blast" not in out
