"""Tests for the iterative bound-refinement extension (Section 6.2)."""

import pytest

from repro import telemetry
from repro.cache import SolveCache, activated
from repro.cache.keys import refine_round_key
from repro.core.pipeline import (
    CASE_BOUNDED_UNKNOWN,
    CASE_BOUNDED_UNSAT,
    CASE_TRANSFORM_FAILED,
    CASE_VERIFIED_SAT,
)
from repro.core.refinement import RefinementStaub
from repro.smtlib import parse_script
from repro.smtlib.evaluator import evaluate_assertions
from repro.telemetry.profile import aggregate, load_trace


class TestRefinement:
    def test_first_round_success_stops_immediately(self):
        script = parse_script(
            "(declare-fun x () Int)(assert (= (* x x) 49))"
        )
        report = RefinementStaub().run(script, budget=1_200_000)
        assert report.case == CASE_VERIFIED_SAT
        assert len(report.rounds) == 1

    def test_widening_rescues_insufficient_inference(self):
        # The witness (b >= 16) needs one more bit than the largest
        # constant suggests; a deliberately poor first width forces a
        # refinement round.
        script = parse_script(
            "(declare-fun a () Int)(declare-fun b () Int)"
            "(assert (>= a 3))(assert (< (- a b) 0))"
            "(assert (> (+ a b) 62))"
        )
        refiner = RefinementStaub(max_rounds=4)
        report = refiner.run(script, budget=1_200_000)
        assert report.case == CASE_VERIFIED_SAT
        assert evaluate_assertions(script.assertions, report.model)

    def test_genuinely_unsat_stays_unsat_after_rounds(self):
        script = parse_script(
            "(declare-fun x () Int)(assert (> x 5))(assert (< x 3))"
        )
        report = RefinementStaub(max_rounds=3).run(script, budget=1_200_000)
        assert report.case == CASE_BOUNDED_UNSAT
        assert len(report.rounds) >= 2  # it did retry before giving up
        widths = [width for width, _ in report.rounds]
        assert widths == sorted(widths)  # monotone widening

    def test_total_work_accumulates(self):
        script = parse_script(
            "(declare-fun x () Int)(assert (> x 5))(assert (< x 3))"
        )
        report = RefinementStaub(max_rounds=3).run(script, budget=1_200_000)
        assert report.total_work >= report.final.total_work
        assert report.total_work > 0

    def test_width_cap_respected(self):
        script = parse_script(
            "(declare-fun x () Int)(assert (> x 5))(assert (< x 3))"
        )
        refiner = RefinementStaub(max_rounds=10, max_width=12)
        report = refiner.run(script, budget=1_200_000)
        assert all(width <= 12 for width, _ in report.rounds)

    def test_budget_shared_across_rounds(self):
        script = parse_script(
            "(declare-fun x () Int)(declare-fun y () Int)(declare-fun z () Int)"
            "(assert (= (+ (* x x x) (* y y y) (* z z z)) 855))"
        )
        report = RefinementStaub(max_rounds=3).run(script, budget=2_000)
        # The bounded side runs out of budget immediately (the blasting
        # cost alone may overshoot slightly) and refinement must not keep
        # retrying after an unknown.
        assert report.case == "bounded-unknown"
        assert len(report.rounds) == 1


class TestConstruction:
    @pytest.mark.parametrize("width", [0, -1, 2.5, "8"])
    def test_rejects_bad_initial_width(self, width):
        # Width 0 in particular: it is falsy, so letting it through would
        # silently flip every `width or inferred` check back to inference.
        with pytest.raises(ValueError):
            RefinementStaub(initial_width=width)

    @pytest.mark.parametrize("kwargs", [
        dict(growth_factor=1),
        dict(growth_factor=0.5),
        dict(max_rounds=0),
        dict(max_width=0),
        dict(max_rounds=2.5),
        dict(max_width="8"),
    ])
    def test_rejects_bad_loop_parameters(self, kwargs):
        with pytest.raises(ValueError):
            RefinementStaub(**kwargs)

    def test_rounds_record_actual_width(self):
        # A pinned first round that fails to transform must still record
        # the width it attempted, not fall back through a falsy check.
        script = parse_script("(declare-fun x () Int)(assert (= x 100))")
        report = RefinementStaub(initial_width=3, max_rounds=1).run(
            script, budget=1_200_000
        )
        assert report.rounds == [(3, "transform-failed")]


class TestBudgetRegression:
    """A budget at or below the first round's cost stops after exactly
    one round, with the structured bounded-unknown (the overrun bug)."""

    UNSAT = "(declare-fun x () Int)(assert (> x 5))(assert (< x 3))"

    def test_tiny_budget_runs_exactly_one_round(self):
        script = parse_script(self.UNSAT)
        budget = 10  # at most one round's transform cost
        report = RefinementStaub(initial_width=3, max_rounds=5).run(
            script, budget=budget
        )
        assert len(report.rounds) == 1
        assert report.budget_exhausted
        assert report.case == CASE_BOUNDED_UNKNOWN
        assert report.final.stats["gave_up"] == "refinement"
        # total_work may overrun only by the last round's own work.
        last_round_work = 2 * script.size() + report.final.total_work
        assert report.total_work <= budget + last_round_work

    def test_exhaustion_between_rounds_sets_flag(self):
        # Warm cache, then a budget the cached first round alone fills:
        # the loop must stop before round two with the structured
        # unknown, not spin the remaining schedule on a floor-clamped
        # budget.
        script = parse_script(self.UNSAT)
        loop = RefinementStaub(initial_width=4, max_rounds=4)
        with activated(SolveCache()):
            cold = loop.run(script, budget=1_200_000)
            assert len(cold.rounds) >= 2
            first_round_work = cold.total_work  # upper bound on round one
            warm = loop.run(
                script, budget=max(1, first_round_work // len(cold.rounds))
            )
        assert warm.budget_exhausted
        assert warm.case == CASE_BOUNDED_UNKNOWN
        assert warm.final.stats["gave_up"] == "refinement"
        assert len(warm.rounds) < len(cold.rounds)

    def test_budget_never_overrun_after_clamping(self):
        script = parse_script(
            "(declare-fun x () Int)(declare-fun y () Int)(declare-fun z () Int)"
            "(assert (= (+ (* x x x) (* y y y) (* z z z)) 5))"
        )
        report = RefinementStaub(initial_width=4, max_rounds=3).run(
            script, budget=40_000
        )
        assert report.total_work <= 40_000 + script.size()


class TestRoundCache:
    #: The smoke suite's multi-round bounded-unsat script.
    UNSAT_SQUARE = (
        "(set-logic QF_NIA)\n"
        "(declare-fun x () Int)\n"
        "(assert (> x 3))(assert (= (* x x) 4))\n"
        "(check-sat)\n"
    )

    def test_warm_cache_replays_identically(self):
        script = parse_script(
            "(declare-fun x () Int)(assert (= (* x x) 49))"
        )
        loop = RefinementStaub(initial_width=3, max_rounds=5)
        with activated(SolveCache()):
            cold = loop.run(script, budget=1_200_000)
            warm = loop.run(script, budget=1_200_000)
        assert len(cold.rounds) >= 2
        assert warm.case == cold.case
        assert warm.rounds == cold.rounds
        assert warm.total_work == cold.total_work
        assert warm.cache_hits > 0
        if warm.case == CASE_VERIFIED_SAT:
            assert evaluate_assertions(script.assertions, warm.model)

    def test_round_keys_keep_their_bytes(self):
        # Digests of the two-argument key, pinned to what the key
        # computed when it still took a mode and a width ceiling
        # (``mode="scratch"``, ``max_width=None``): round caches written
        # then must keep replaying.
        script = parse_script(self.UNSAT_SQUARE)
        assert refine_round_key(script, "absint") == (
            "07a30f00fc20001a39434acc2f0967f25714256248587b302189bfa3ee98018b"
        )
        assert refine_round_key(script, 8) == (
            "2762649ef313e7fa128e49fce06cfe2c1cb3909649228dc7eef4ce3477cd5b40"
        )


class TestTrace:
    def test_round_spans_account_for_total_work(self, tmp_path):
        # A multi-round run no budget clamps: every unit the loop bills
        # is inside a refinement.round span.
        trace = str(tmp_path / "refine.jsonl")
        script = parse_script(TestRoundCache.UNSAT_SQUARE)
        telemetry.enable(trace_path=trace)
        try:
            report = RefinementStaub().run(script, budget=200_000)
        finally:
            telemetry.disable()
        assert len(report.rounds) == 3
        assert not report.budget_exhausted
        stages = aggregate(load_trace(trace))
        assert stages["refinement.round"]["spans"] == len(report.rounds)
        assert stages["refinement.round"]["work"] == report.total_work

    def test_transform_failed_rounds_are_on_the_trace(self, tmp_path):
        # A round whose constants do not fit bills its analysis and
        # translation; the trace must carry the same work.
        trace = str(tmp_path / "refine.jsonl")
        script = parse_script(
            "(declare-fun x () Int)(assert (= x 100))(assert (> (* x x) 5))"
        )
        telemetry.enable(trace_path=trace)
        try:
            report = RefinementStaub(initial_width=3).run(script, budget=200_000)
        finally:
            telemetry.disable()
        assert report.rounds == [
            (3, CASE_TRANSFORM_FAILED),
            (6, CASE_TRANSFORM_FAILED),
            (12, CASE_BOUNDED_UNSAT),
        ]
        stages = aggregate(load_trace(trace))
        assert stages["refinement.round"]["work"] == report.total_work
        assert stages["transform"]["work"] == 3 * script.size()


class TestAblationAcceptance:
    """The refinement ablation on a small slice of the NIA suite (the
    full run lives in `run_all refinement`)."""

    @staticmethod
    def _experiment():
        from repro.evaluation.runner import ExperimentCache

        return ExperimentCache(
            seed=13, scale=0.08, timeout=200_000, solve_cache=SolveCache()
        )

    def test_render_emits_diffable_lines(self):
        from repro.evaluation import ablation

        lines = ablation.render_refinement(self._experiment()).splitlines()
        verdicts = [l.split()[1] for l in lines if l.startswith("verdict ")]
        work = [l.split()[1] for l in lines if l.startswith("work ")]
        assert verdicts  # the slice is non-empty
        assert work == verdicts  # one work line per instance, same order
        assert sum(l.startswith("summary ") for l in lines) == 1

    def test_warm_rerun_replays_identically(self):
        from repro.evaluation import ablation

        experiment = self._experiment()
        cold = ablation.refinement_rows(experiment)
        warm = ablation.refinement_rows(experiment)
        assert len(warm) == len(cold)
        for before, after in zip(cold, warm):
            assert before.pop("cache_hits") == 0
            hits = after.pop("cache_hits")
            assert after == before
            # Every round but a budget-bound unknown was stored and replays.
            stored = [case for _, case in after["rounds"] if case != CASE_BOUNDED_UNKNOWN]
            assert hits == len(stored), after["name"]
        assert any(len(row["rounds"]) > 1 for row in warm)
