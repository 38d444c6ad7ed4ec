"""Tests for the NRA ICP engine and the simplest-rational search."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.arith.contractor import split_conjunction
from repro.arith.interval import Interval
from repro.arith.nra import NraSolver, simplest_rational_between, solve_nra_conjunction
from repro.smtlib import parse_script
from repro.smtlib.evaluator import evaluate_assertions


def prepared(text):
    script = parse_script(text)
    return split_conjunction(script.conjunction()), script


class TestCandidatePoints:
    @pytest.mark.parametrize("interval", [Interval(None, 4), Interval(0, 4)])
    def test_candidates_are_fractions_for_int_endpoints(self, interval):
        # Real model values are Fractions even when the box's endpoints
        # (hi - 1, hi) are ints.
        literals, script = prepared("(declare-fun x () Real)(assert (> x 0))")
        assert type(interval.hi) is int
        points = NraSolver(literals, script.declarations)._candidate_points(interval)
        assert Fraction(4) in points
        assert all(type(point) is Fraction for point in points), points


class TestSimplestRational:
    def test_includes_integers(self):
        assert simplest_rational_between(Fraction(5, 2), Fraction(7, 2)) == 3

    def test_zero_when_straddling(self):
        assert simplest_rational_between(Fraction(-1, 3), Fraction(1, 7)) == 0

    def test_half(self):
        assert simplest_rational_between(Fraction(2, 5), Fraction(3, 5)) == Fraction(1, 2)

    def test_classic_stern_brocot(self):
        assert simplest_rational_between(Fraction(2, 7), Fraction(1, 3)) == Fraction(1, 3)

    def test_negative_range(self):
        assert simplest_rational_between(Fraction(-5, 3), Fraction(-3, 2)) == Fraction(-3, 2)

    def test_point_interval(self):
        assert simplest_rational_between(Fraction(7, 13), Fraction(7, 13)) == Fraction(7, 13)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            simplest_rational_between(Fraction(2), Fraction(1))

    @given(
        st.fractions(min_value=-100, max_value=100, max_denominator=50),
        st.fractions(min_value=0, max_value=10, max_denominator=50).filter(
            lambda f: f > 0
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_result_in_interval_with_minimal_denominator(self, lo, width):
        hi = lo + width
        result = simplest_rational_between(lo, hi)
        assert lo <= result <= hi
        # No rational with a smaller denominator lies in the interval.
        for denominator in range(1, result.denominator):
            low_num = -((-lo.numerator * denominator) // lo.denominator)  # ceil
            if Fraction(low_num, denominator) <= hi:
                pytest.fail(
                    f"{Fraction(low_num, denominator)} is simpler than {result}"
                )


class TestSolver:
    def test_dyadic_square_root(self):
        literals, script = prepared(
            "(declare-fun x () Real)"
            "(assert (= (* x x) (/ 9.0 4.0)))(assert (> x 0.0))"
        )
        result = solve_nra_conjunction(literals, script.declarations, budget=2_000_000)
        assert result.status == "sat"
        assert result.model["x"] == Fraction(3, 2)

    def test_linear_real_system(self):
        literals, script = prepared(
            "(declare-fun x () Real)(declare-fun y () Real)"
            "(assert (< (+ (* x y) x) 3.0))(assert (> x 1.0))(assert (> y 1.0))"
        )
        result = solve_nra_conjunction(literals, script.declarations, budget=2_000_000)
        assert result.status == "sat"
        assert evaluate_assertions(script.assertions, result.model)

    def test_irrational_root_is_unknown(self):
        literals, script = prepared(
            "(declare-fun x () Real)(assert (= (* x x) 2.0))"
        )
        result = solve_nra_conjunction(literals, script.declarations, budget=500_000)
        assert result.status == "unknown"

    def test_negative_square_unsat(self):
        literals, script = prepared(
            "(declare-fun x () Real)(assert (< (* x x) 0.0))"
        )
        result = solve_nra_conjunction(literals, script.declarations, budget=100_000)
        assert result.status == "unsat"

    def test_empty_linear_band_unsat(self):
        literals, script = prepared(
            "(declare-fun x () Real)"
            "(assert (> x 1.0))(assert (< x 1.0))"
        )
        result = solve_nra_conjunction(literals, script.declarations, budget=100_000)
        assert result.status == "unsat"

    def test_coupled_product_sum(self):
        literals, script = prepared(
            "(declare-fun x () Real)(declare-fun y () Real)"
            "(assert (= (* x y) 8.75))(assert (= (+ x y) 6.75))"
            "(assert (>= x 0.0))(assert (>= y 0.0))"
        )
        result = solve_nra_conjunction(literals, script.declarations, budget=5_000_000)
        assert result.status == "sat"
        assert evaluate_assertions(script.assertions, result.model)

    def test_budget_respected(self):
        literals, script = prepared(
            "(declare-fun x () Real)(declare-fun y () Real)"
            "(assert (= (+ (* x x) (* y y)) 10.0))(assert (> (* x y) 2.0))"
        )
        result = solve_nra_conjunction(literals, script.declarations, budget=100)
        assert result.status in ("unknown", "sat")
        assert result.work <= 100 * 20  # budget respected within one round

    def test_ground(self):
        literals, script = prepared("(assert (< 1.0 2.0))")
        result = solve_nra_conjunction(literals, script.declarations)
        assert result.status == "sat"
