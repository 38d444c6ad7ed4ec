"""Portfolio scheduler tests: determinism, winner semantics, --jobs parity."""

import json
import os

import pytest

from repro import telemetry
from repro.benchgen import suite_for
from repro.core.pipeline import (
    CASE_BOUNDED_UNSAT,
    CASE_VERIFIED_SAT,
    ArbitrageReport,
    Staub,
    portfolio_time,
)
from repro.errors import SolverError
from repro.guard.chaos import ChaosCrash
from repro.portfolio.scheduler import (
    DEFAULT_GROWTH,
    DEFAULT_SLICE,
    Attempt,
    InterleavingScheduler,
    PrecomputedAttempt,
    parallel_race,
    race_precomputed,
)
from repro.portfolio.tasks import ArbitrageTask, BaselineTask, default_tasks
from repro.smtlib import parse_script
from repro.telemetry.metrics import MetricsRegistry


@pytest.fixture(autouse=True)
def telemetry_off():
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

UNSAT_LIA = (
    "(set-logic QF_LIA)\n"
    "(declare-fun x () Int)\n"
    "(assert (> x 5))(assert (< x 3))\n"
    "(check-sat)\n"
)


def _outcome_fingerprint(outcome):
    """Everything that must be byte-identical across deterministic runs."""
    return json.dumps(
        {
            "status": outcome.status,
            "winner": outcome.winner.lane if outcome.winner else None,
            "observed": outcome.observed_work,
            "total": outcome.total_work,
            "rounds": outcome.rounds,
            "history": [
                [(a.lane, a.status, a.conclusive, a.work) for a in round_attempts]
                for round_attempts in outcome.history
            ],
        },
        sort_keys=True,
    )


class TestRacePrecomputed:
    def test_fastest_conclusive_lane_wins(self):
        outcome = race_precomputed(
            [
                PrecomputedAttempt("a", conclusive=True, work=50),
                PrecomputedAttempt("b", conclusive=True, work=20),
                PrecomputedAttempt("c", conclusive=False, work=5),
            ]
        )
        assert outcome.winner.lane == "b"
        assert outcome.observed_work == 20
        assert outcome.total_work == 75

    def test_tie_breaks_toward_earlier_lane(self):
        outcome = race_precomputed(
            [
                PrecomputedAttempt("a", conclusive=True, work=20),
                PrecomputedAttempt("b", conclusive=True, work=20),
            ]
        )
        assert outcome.winner.lane == "a"

    def test_no_winner_costs_the_longest_lane(self):
        outcome = race_precomputed(
            [
                PrecomputedAttempt("a", conclusive=False, work=30),
                PrecomputedAttempt("b", conclusive=False, work=70),
            ]
        )
        assert outcome.winner is None
        assert outcome.status == "unknown"
        assert outcome.observed_work == 70

    def test_empty_portfolio_rejected(self):
        with pytest.raises(ValueError):
            race_precomputed([])


class TestPortfolioTime:
    """portfolio_time keeps its Section 5.1 semantics on the scheduler."""

    def _report(self, usable, total):
        case = CASE_VERIFIED_SAT if usable else CASE_BOUNDED_UNSAT
        return ArbitrageReport(case, model={} if usable else None, t_post=total)

    def test_usable_takes_min(self):
        assert portfolio_time(100, self._report(True, 40)) == 40
        assert portfolio_time(30, self._report(True, 40)) == 30

    def test_unusable_reverts_to_baseline(self):
        assert portfolio_time(100, self._report(False, 5)) == 100


class TestDeterministicScheduler:
    def test_byte_identical_across_runs(self):
        script = parse_script(CUBES)
        fingerprints = []
        snapshots = []
        for _ in range(2):
            registry = MetricsRegistry()
            telemetry.enable(registry=registry)
            scheduler = InterleavingScheduler(default_tasks(), budget=200_000)
            outcome = scheduler.run(script)
            telemetry.disable()
            fingerprints.append(_outcome_fingerprint(outcome))
            snapshots.append(json.dumps(registry.snapshot(), sort_keys=True))
        assert fingerprints[0] == fingerprints[1]
        assert snapshots[0] == snapshots[1]

    def test_sat_script_finds_model(self):
        outcome = InterleavingScheduler(default_tasks(), budget=200_000).run(
            parse_script(CUBES)
        )
        assert outcome.status == "sat"
        assert outcome.model is not None
        assert outcome.model["x"] * outcome.model["y"] == 77

    def test_unsat_script_concludes(self):
        outcome = InterleavingScheduler(default_tasks(), budget=200_000).run(
            parse_script(UNSAT_LIA)
        )
        assert outcome.status == "unsat"
        assert outcome.winner.lane.startswith("original/")

    def test_losers_are_cancelled_after_a_win(self):
        # Once a round produces a winner no later (larger-budget) round runs:
        # every recorded attempt sits at or below the winning round's slice.
        scheduler = InterleavingScheduler(
            default_tasks(), budget=200_000, initial_slice=1024
        )
        outcome = scheduler.run(parse_script(CUBES))
        assert outcome.rounds == len(outcome.history)
        final_round = outcome.history[-1]
        assert any(attempt.conclusive for attempt in final_round)

    def test_observed_work_never_exceeds_total(self):
        outcome = InterleavingScheduler(default_tasks(), budget=200_000).run(
            parse_script(CUBES)
        )
        assert 0 < outcome.observed_work <= outcome.total_work

    def test_unlimited_budget_is_single_round(self):
        outcome = InterleavingScheduler(default_tasks(), budget=None).run(
            parse_script(UNSAT_LIA)
        )
        assert outcome.rounds == 1
        assert outcome.status == "unsat"

    def test_rejects_empty_or_bad_config(self):
        with pytest.raises(ValueError):
            InterleavingScheduler([])
        with pytest.raises(ValueError):
            InterleavingScheduler(default_tasks(), growth=1)

    def test_telemetry_counters(self):
        registry = MetricsRegistry()
        telemetry.enable(registry=registry)
        InterleavingScheduler(default_tasks(), budget=200_000).run(parse_script(CUBES))
        telemetry.disable()
        snap = registry.snapshot()
        assert snap["portfolio.races"] == 1
        assert any(key.startswith("portfolio.winner") for key in snap)


class TestLanes:
    def test_baseline_lane_statuses(self):
        lane = BaselineTask("zorro")
        sat = lane.attempt(parse_script(CUBES), 200_000)
        assert sat.conclusive and sat.status == "sat"
        tiny = lane.attempt(parse_script(CUBES), 10)
        assert not tiny.conclusive and tiny.status == "unknown"

    def test_arbitrage_lane_is_inconclusive_on_bounded_unsat(self):
        # Bounded-side unsat does not answer the original question.
        lane = ArbitrageTask("fixed8")
        attempt = lane.attempt(parse_script(UNSAT_LIA), 200_000)
        assert not attempt.conclusive
        assert attempt.status == "unknown"

    def test_default_grid(self):
        lanes = default_tasks()
        names = [lane.name for lane in lanes]
        assert names == ["original/zorro", "original/corvus", "staub/staub"]

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            ArbitrageTask("nope").attempt(parse_script(CUBES), 1000)


class TestParallelRace:
    def test_jobs_2_matches_deterministic_status_sat(self):
        script = parse_script(CUBES)
        deterministic = InterleavingScheduler(default_tasks(), budget=200_000).run(
            script
        )
        raced = parallel_race(default_tasks(), script, budget=200_000, jobs=2)
        assert raced.status == deterministic.status == "sat"
        assert raced.winner is not None
        if raced.model is not None:
            assert raced.model["x"] * raced.model["y"] == 77

    def test_jobs_2_matches_deterministic_status_unsat(self):
        script = parse_script(UNSAT_LIA)
        deterministic = InterleavingScheduler(default_tasks(), budget=200_000).run(
            script
        )
        raced = parallel_race(default_tasks(), script, budget=200_000, jobs=2)
        assert raced.status == deterministic.status == "unsat"

    def test_empty_portfolio_rejected(self):
        with pytest.raises(ValueError):
            parallel_race([], parse_script(CUBES))


MOTIVATING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "examples",
    "motivating.smt2",
)


def _report_fingerprint(report):
    return (
        report.case,
        report.total_work,
        report.width,
        report.bounded_status,
        report.model,
    )


class TestResumedLanes:
    """A lane keeps one run per race; every round still reports exactly
    what the restart model's fresh attempt at that slice reports."""

    def _scripts(self):
        scripts = [b.script for b in suite_for("QF_NIA", seed=2024, scale=0.15)]
        with open(MOTIVATING, "r", encoding="utf-8") as handle:
            scripts.append(parse_script(handle.read()))
        return scripts

    def test_each_round_of_the_bounded_lane_equals_a_fresh_run(self):
        budget = 200_000
        resumed = 0
        for script in self._scripts():
            outcome = InterleavingScheduler(default_tasks(), budget=budget).run(script)
            for index, attempts in enumerate(outcome.history):
                slice_budget = min(DEFAULT_SLICE * DEFAULT_GROWTH**index, budget)
                (attempt,) = [a for a in attempts if a.lane == "staub/staub"]
                fresh = Staub().run(script, budget=slice_budget)
                assert _report_fingerprint(attempt.payload) == _report_fingerprint(
                    fresh
                ), (index, slice_budget)
                assert attempt.work == fresh.total_work
                resumed += index > 0
        assert resumed  # some race continued its bounded lane past round 1

    def test_a_resumed_search_traces_only_the_work_it_adds(self):
        # Each bounded-solve span of a race charges what that round added,
        # so together they come to the bounded lane's last t_post, not
        # the restart model's sum over rounds.
        spans = []
        telemetry.enable(sink=spans.append)
        outcome = InterleavingScheduler(default_tasks(), budget=200_000).run(
            self._scripts()[-1]
        )
        telemetry.disable()
        reports = [
            a.payload for attempts in outcome.history for a in attempts
            if a.lane == "staub/staub"
        ]
        traced = [s["work"] for s in spans if s["name"] == "bounded-solve"]
        assert len(traced) == len(reports) > 1
        assert sum(traced) == reports[-1].t_post

    @pytest.mark.parametrize(
        "error", [ChaosCrash("injected"), SolverError("injected")], ids=repr
    )
    def test_a_failed_run_is_discarded_and_the_retry_starts_fresh(self, error):
        lane = _FailOnceLane(error)
        outcome = InterleavingScheduler(
            [lane], budget=4 * 4 * 1024, initial_slice=1024
        ).run(parse_script(CUBES))
        failed = "crashed" if isinstance(error, ChaosCrash) else "error"
        statuses = [a.status for round_attempts in outcome.history for a in round_attempts]
        assert statuses == [failed, "unknown", "unknown"]
        # Run 1 failed on its first slice; run 2 starts on the next slice
        # and is advanced from then on.
        assert lane.calls == [(1, 1024), (2, 4096), (2, 16384)]


class _FailOnceLane:
    """A stub lane whose first run fails on its first slice."""

    def __init__(self, error):
        self.name = "stub"
        self.error = error
        self.calls = []  # (run number, budget) per slice
        self.runs = 0

    def start(self, script):
        self.runs += 1
        number = self.runs

        def run(budget):
            self.calls.append((number, budget))
            if number == 1:
                raise self.error
            return Attempt(self.name, "unknown", False, budget)

        return run


class TestLaneConfiguration:
    @pytest.mark.parametrize("strategy", ["nope", "fixedx", "fixed0", 0])
    def test_bad_width_strategy_raises_when_the_lane_is_built(self, strategy):
        # Before any race starts: a race never raises, so a bad
        # configuration must fail here rather than after a first slice.
        with pytest.raises(ValueError):
            InterleavingScheduler([BaselineTask("zorro"), ArbitrageTask(strategy)])

    def test_fixed_width_strategies_build(self):
        assert ArbitrageTask("fixed8").name == "staub/fixed8"
        assert ArbitrageTask(8).name == "staub/8"
