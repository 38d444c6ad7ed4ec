"""End-to-end tests for the STAUB pipeline (Fig. 3 / Fig. 6)."""

import pytest

from repro.core.pipeline import (
    CASE_BOUNDED_UNKNOWN,
    CASE_BOUNDED_UNSAT,
    CASE_SEMANTIC_DIFFERENCE,
    CASE_TRANSFORM_FAILED,
    CASE_VERIFIED_SAT,
    MAX_INT_WIDTH,
    Staub,
    portfolio_time,
)
from repro.smtlib import parse_script
from repro.smtlib.evaluator import evaluate_assertions


class TestVerifiedSat:
    def test_motivating_example_small(self):
        script = parse_script(
            "(declare-fun x () Int)(declare-fun y () Int)(declare-fun z () Int)"
            "(assert (= (+ (* x x x) (* y y y) (* z z z)) 92))"
        )
        report = Staub().run(script, budget=2_000_000)
        assert report.case == CASE_VERIFIED_SAT
        assert evaluate_assertions(script.assertions, report.model)
        assert report.t_post > 0 and report.t_trans > 0 and report.t_check > 0

    def test_product_instance(self):
        script = parse_script(
            "(declare-fun x () Int)(declare-fun y () Int)"
            "(assert (= (* x y) 77))(assert (> x 1))(assert (< x y))"
        )
        report = Staub().run(script, budget=2_000_000)
        assert report.case == CASE_VERIFIED_SAT
        assert report.model["x"] == 7 and report.model["y"] == 11

    def test_real_dyadic_instance(self):
        script = parse_script(
            "(declare-fun x () Real)"
            "(assert (= (* x x) 2.25))(assert (> x 0.0))"
        )
        report = Staub().run(script, budget=2_000_000)
        assert report.case == CASE_VERIFIED_SAT
        from fractions import Fraction

        assert report.model["x"] == Fraction(3, 2)


class TestRevertCases:
    def test_unsat_original_reverts(self):
        script = parse_script(
            "(declare-fun x () Int)(assert (> x 5))(assert (< x 3))"
        )
        report = Staub().run(script, budget=500_000)
        assert report.case == CASE_BOUNDED_UNSAT
        assert report.model is None

    def test_insufficient_width_reverts_as_unsat(self):
        # Satisfiable, but the witness does not fit the fixed tiny width.
        script = parse_script(
            "(declare-fun a () Int)(declare-fun b () Int)"
            "(assert (>= a 15))(assert (< (- a b) 0))"
        )
        report = Staub(width_strategy=4).run(script, budget=500_000)
        assert report.case in (CASE_BOUNDED_UNSAT, CASE_TRANSFORM_FAILED)

    def test_width_from_inference_covers_figure4(self):
        script = parse_script(
            "(declare-fun a () Int)(declare-fun b () Int)"
            "(assert (>= a 15))(assert (< (- a b) 0))"
        )
        report = Staub().run(script, budget=500_000)
        assert report.case == CASE_VERIFIED_SAT
        assert report.model["b"] > report.model["a"] >= 15

    def test_budget_exhaustion(self):
        script = parse_script(
            "(declare-fun x () Int)(declare-fun y () Int)(declare-fun z () Int)"
            "(assert (= (+ (* x x x) (* y y y) (* z z z)) 855))"
        )
        report = Staub().run(script, budget=500)
        assert report.case == CASE_BOUNDED_UNKNOWN

    def test_unsupported_script_is_transform_failed(self):
        script = parse_script(
            "(declare-fun x () Int)(declare-fun y () Real)"
            "(assert (> x 0))(assert (> y 0.0))"
        )
        report = Staub().run(script, budget=500_000)
        assert report.case == CASE_TRANSFORM_FAILED


class TestWidthStrategies:
    def test_fixed_width_strategy(self):
        script = parse_script("(declare-fun x () Int)(assert (= (* x x) 49))")
        report = Staub(width_strategy=16).run(script, budget=2_000_000)
        assert report.width == 16
        assert report.case == CASE_VERIFIED_SAT

    def test_absint_beats_fixed_4_on_figure4(self):
        script = parse_script(
            "(declare-fun a () Int)(declare-fun b () Int)"
            "(assert (>= a 15))(assert (< (- a b) 0))"
        )
        fixed = Staub(width_strategy=4).run(script, budget=500_000)
        inferred = Staub().run(script, budget=500_000)
        assert fixed.case != CASE_VERIFIED_SAT
        assert inferred.case == CASE_VERIFIED_SAT

    def test_width_cap_falls_back_to_assumption(self):
        script = parse_script(
            "(declare-fun x () Int)(declare-fun y () Int)(declare-fun z () Int)"
            "(assert (= (+ (* x x x) (* y y y) (* z z z)) 855))"
        )
        transformed, inference, _ = Staub().transform(script)
        assert inference.root > MAX_INT_WIDTH
        assert transformed.width == inference.assumption  # Fig. 1b's 12


class TestPortfolioSemantics:
    def test_usable_takes_min(self):
        script = parse_script(
            "(declare-fun x () Int)(assert (= (* x x) 49))"
        )
        report = Staub().run(script, budget=2_000_000)
        assert report.usable
        assert portfolio_time(10**9, report) == report.total_work
        assert portfolio_time(1, report) == 1

    def test_unusable_keeps_t_pre(self):
        script = parse_script(
            "(declare-fun x () Int)(assert (> x 5))(assert (< x 3))"
        )
        report = Staub().run(script, budget=500_000)
        assert not report.usable
        assert portfolio_time(12345, report) == 12345


class TestSlotHook:
    def test_optimizer_is_applied(self):
        from repro.slot import optimize_script

        calls = []

        def optimizer(script):
            optimized, _ = optimize_script(script)
            calls.append(True)
            return optimized

        script = parse_script(
            "(declare-fun x () Int)(assert (= (* x 4) 20))"
        )
        report = Staub(optimizer=optimizer).run(script, budget=2_000_000)
        assert calls
        assert report.case == CASE_VERIFIED_SAT
        assert report.model["x"] == 5
