"""Tests for the bench harness: determinism, compare gating, CLI, analysis."""

import json
import os
import subprocess
import sys

import pytest

from repro import telemetry
from repro.bench import available_suites, compare_payloads, get_suite, run_suite
from repro.bench.harness import deterministic_bytes, load_artifact, write_artifact
from repro.cli import main
from repro.telemetry.analyze import (
    build_tree,
    collapse_stacks,
    critical_path,
    render_flamegraph,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(REPO_ROOT, "benchmarks", "baselines", "BENCH_smoke.json")
TERMINATION_BASELINE = os.path.join(
    REPO_ROOT, "benchmarks", "baselines", "BENCH_termination.json"
)


@pytest.fixture(autouse=True)
def telemetry_off():
    telemetry.disable()
    telemetry.get_registry().reset()
    yield
    telemetry.disable()
    telemetry.get_registry().reset()


@pytest.fixture(scope="module")
def smoke_payload():
    """One shared smoke run."""
    return run_suite("smoke")


def _payload(suite="smoke", work=100):
    """Small synthetic artifact for compare tests."""
    return {
        "format": 1,
        "suite": suite,
        "deterministic": {
            "cases": {"a": {"cold": {"verdict": "sat", "work": work}}},
            "totals": {"cases": 1, "work": work},
            "counters": {"solver.propagations": work * 10},
        },
    }


class TestSuites:
    def test_available_suites(self):
        names = available_suites()
        assert "smoke" in names
        assert names == sorted(names)

    def test_unknown_suite_raises_with_listing(self):
        with pytest.raises(KeyError, match="smoke"):
            get_suite("nope")

    def test_smoke_covers_engine_families(self):
        kinds = {case.kind for case in get_suite("smoke")}
        assert {"solve", "arbitrage", "refine"} <= kinds


class TestDeterminism:
    def test_smoke_deterministic_section_byte_identical(self, smoke_payload):
        again = run_suite("smoke")
        assert deterministic_bytes(smoke_payload) == deterministic_bytes(again)
        # The artifact records no wall time: nothing outside this section.
        assert set(smoke_payload) == {"format", "suite", "deterministic"}

    def test_smoke_matches_checked_in_baseline(self, smoke_payload):
        baseline = load_artifact(BASELINE)
        regressions = compare_payloads(smoke_payload, baseline)
        assert regressions == [], (
            "deterministic drift vs benchmarks/baselines/BENCH_smoke.json -- "
            "if the cost change is intentional, regenerate the baseline with "
            "`staub bench --suite smoke --out "
            "benchmarks/baselines/BENCH_smoke.json`"
        )

    def test_deterministic_section_is_json_safe(self, smoke_payload):
        def check(value, path):
            if isinstance(value, dict):
                for key, child in value.items():
                    check(child, f"{path}.{key}")
            elif isinstance(value, list):
                for index, child in enumerate(value):
                    check(child, f"{path}[{index}]")
            else:
                assert isinstance(value, (int, str, bool)) or value is None, (
                    f"non-deterministic type at {path}: {value!r}"
                )

        check(smoke_payload["deterministic"], "deterministic")

    def test_warm_runs_hit_the_cache(self, smoke_payload):
        cases = smoke_payload["deterministic"]["cases"]
        hits = sum(record["warm"]["cache_hits"] for record in cases.values())
        assert hits > 0

    def test_deep_counters_present(self, smoke_payload):
        counters = smoke_payload["deterministic"]["counters"]
        for name in (
            "solver.propagations",
            "solver.conflicts",
            "solver.decisions",
            "blast.cnf_clauses",
            "blast.and_gates",
            "refine.rounds",
        ):
            assert counters.get(name, 0) > 0, name

    def test_bench_leaves_telemetry_disabled(self, smoke_payload):
        assert not telemetry.enabled


@pytest.fixture(scope="module")
def termination_payload():
    """One shared termination-suite run (classic + session lanes)."""
    return run_suite("termination")


def _session_pairs(payload):
    """{program: (classic record, session record)} from a termination run."""
    cases = payload["deterministic"]["cases"]
    pairs = {}
    for name, record in cases.items():
        if name.startswith("term-session/"):
            program = name.split("/", 1)[1]
            pairs[program] = (cases[f"term/{program}"], record)
    return pairs


class TestTerminationSessions:
    """The session-mode gate: the scoped STAUB lane must do strictly less
    deterministic work than the classic per-query pipeline and must never
    downgrade a verdict the classic mode reached."""

    def test_every_program_has_both_lanes(self, termination_payload):
        pairs = _session_pairs(termination_payload)
        assert pairs, "no term-session/ cases in the termination suite"
        classic_only = {
            name.split("/", 1)[1]
            for name in termination_payload["deterministic"]["cases"]
            if name.startswith("term/")
        }
        assert set(pairs) == classic_only

    def test_matches_checked_in_baseline(self, termination_payload):
        baseline = load_artifact(TERMINATION_BASELINE)
        regressions = compare_payloads(termination_payload, baseline)
        assert regressions == [], (
            "deterministic drift vs benchmarks/baselines/BENCH_termination.json"
            " -- if the cost change is intentional, regenerate with `staub"
            " bench --suite termination --out"
            " benchmarks/baselines/BENCH_termination.json`"
        )

    def test_verdicts_never_downgraded(self, termination_payload):
        for program, (classic, session) in _session_pairs(
            termination_payload
        ).items():
            classic_verdict = classic["cold"]["verdict"]
            session_verdict = session["cold"]["verdict"]
            assert (
                session_verdict == classic_verdict
                or classic_verdict == "unknown"
            ), (
                f"{program}: session downgraded {classic_verdict!r} to "
                f"{session_verdict!r} -- sessions may only upgrade unknowns "
                "(via verified models), never lose a classic verdict"
            )

    def test_baseline_lane_unaffected_by_sessions(self, termination_payload):
        # The baseline lane solves identical flat scripts in both modes,
        # so whenever the two modes ran the same query stream (equal
        # verdicts) its cost must match exactly.
        for program, (classic, session) in _session_pairs(
            termination_payload
        ).items():
            if classic["cold"]["verdict"] == session["cold"]["verdict"]:
                assert (
                    session["cold"]["baseline_work"]
                    == classic["cold"]["baseline_work"]
                ), program
                assert session["cold"]["queries"] == classic["cold"]["queries"]
            else:
                # An upgrade decides earlier: never more queries.
                assert session["cold"]["queries"] <= classic["cold"]["queries"]

    def test_session_staub_work_strictly_lower(self, termination_payload):
        for program, (classic, session) in _session_pairs(
            termination_payload
        ).items():
            assert (
                session["cold"]["staub_work"] < classic["cold"]["staub_work"]
            ), (
                f"{program}: session STAUB lane did not beat the classic "
                f"per-query pipeline ({session['cold']['staub_work']} >= "
                f"{classic['cold']['staub_work']})"
            )
            assert session["cold"]["work"] <= classic["cold"]["work"], program

    def test_session_fewer_blast_and_transform_spans(self, termination_payload):
        def spans(record, stage):
            return record.get("stages", {}).get(stage, {}).get("spans", 0)

        for program, (classic, session) in _session_pairs(
            termination_payload
        ).items():
            assert spans(session, "blast") < spans(classic, "blast"), program
            assert spans(session, "transform") <= spans(classic, "transform"), (
                program
            )
            combined_session = spans(session, "blast") + spans(
                session, "transform"
            )
            combined_classic = spans(classic, "blast") + spans(
                classic, "transform"
            )
            assert combined_session < combined_classic, program


class TestCompare:
    def test_identical_payloads_pass(self):
        assert compare_payloads(_payload(), _payload()) == []

    def test_deterministic_change_is_regression(self):
        regressions = compare_payloads(_payload(work=101), _payload(work=100))
        assert regressions
        assert any("deterministic" in entry for entry in regressions)

    def test_added_and_removed_keys_are_regressions(self):
        current = _payload()
        del current["deterministic"]["counters"]["solver.propagations"]
        current["deterministic"]["counters"]["solver.pivots"] = 5
        kinds = "\n".join(compare_payloads(current, _payload()))
        assert "removed" in kinds
        assert "added" in kinds

    def test_suite_mismatch_short_circuits(self):
        regressions = compare_payloads(_payload(suite="qf_nia"), _payload())
        assert regressions == ["suite mismatch: baseline 'smoke', current 'qf_nia'"]


class TestBenchCli:
    def test_list_suites(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "smoke" in out

    def test_bench_without_suite_is_usage_error(self, capsys):
        assert main(["bench"]) == 2
        assert "--suite" in capsys.readouterr().err

    def test_unknown_suite_is_usage_error(self, capsys):
        assert main(["bench", "--suite", "nope"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_replay_compare_exit_codes(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        write_artifact(_payload(), str(base))
        same = tmp_path / "same.json"
        write_artifact(_payload(), str(same))
        perturbed = tmp_path / "bad.json"
        write_artifact(_payload(work=101), str(perturbed))

        assert main(["bench", "--replay", str(same), "--compare", str(base)]) == 0
        assert "identical" in capsys.readouterr().out
        assert main(["bench", "--replay", str(perturbed), "--compare", str(base)]) == 1
        assert "REGRESSIONS" in capsys.readouterr().out

    def test_non_artifact_is_one_error_line(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        write_artifact(_payload(), str(base))
        not_json = tmp_path / "not.json"
        not_json.write_text("not json\n", encoding="utf-8")
        no_section = tmp_path / "x.json"
        no_section.write_text('{"x": 1}\n', encoding="utf-8")
        for bad in (not_json, no_section):
            for argv in (
                ["bench", "--replay", str(bad)],
                ["bench", "--replay", str(base), "--compare", str(bad)],
            ):
                assert main(argv) == 1, argv
                captured = capsys.readouterr()
                assert captured.out == ""
                lines = captured.err.splitlines()
                assert len(lines) == 1, lines
                assert lines[0].startswith(
                    f"error: {bad} is not a bench artifact ("
                ), lines

    def test_python_dash_m_repro_matches_staub(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 2
        assert "a subcommand is required" in proc.stderr


def _spans():
    """A small close-ordered trace: root(20) -> a(12) -> b(5), root -> c(3)."""
    return [
        {"name": "b", "depth": 2, "t_start": 2, "t_end": 7, "work": 5},
        {"name": "a", "depth": 1, "t_start": 1, "t_end": 13, "work": 12},
        {"name": "c", "depth": 1, "t_start": 13, "t_end": 16, "work": 3},
        {"name": "root", "depth": 0, "t_start": 0, "t_end": 20, "work": 20},
    ]


class TestAnalyze:
    def test_build_tree_reconstructs_nesting(self):
        roots = build_tree(_spans())
        assert [node.name for node in roots] == ["root"]
        root = roots[0]
        assert [child.name for child in root.children] == ["a", "c"]
        assert root.children[0].children[0].name == "b"
        assert root.self_work == 5  # 20 - 12 - 3

    def test_critical_path_follows_heaviest_child(self):
        path = critical_path(_spans())
        assert [entry["name"] for entry in path] == ["root", "a", "b"]
        assert path[0]["share"] == 1.0

    def test_collapse_stacks_self_work_sums_to_total(self):
        stacks = collapse_stacks(_spans())
        assert stacks == {"root": 5, "root;a": 7, "root;a;b": 5, "root;c": 3}
        assert sum(stacks.values()) == 20

    def test_flamegraph_format_is_collapsed_stacks(self):
        folded = render_flamegraph(_spans())
        total = 0
        for line in folded.splitlines():
            stack, _, count = line.rpartition(" ")
            assert stack, line
            assert count.isdigit(), line
            for frame in stack.split(";"):
                assert frame and ";" not in frame and " " not in frame
            total += int(count)
        assert total == 20

    def test_flamegraph_cli_roundtrip(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        with open(trace, "w", encoding="utf-8") as handle:
            for span in _spans():
                handle.write(json.dumps(span) + "\n")
        out = tmp_path / "out.folded"
        code = main(
            ["profile", str(trace), "--flamegraph", str(out), "--critical-path"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "critical path" in printed
        content = out.read_text()
        assert "root;a;b 5" in content
