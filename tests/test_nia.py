"""Tests for the branch-and-prune NIA engine (and its enum twin)."""

import itertools

import pytest

from repro.arith.contractor import split_conjunction
from repro.arith.nia import NiaSolver, solve_nia_conjunction
from repro.arith.nia_enum import NiaEnumSolver, solve_nia_enum_conjunction
from repro.errors import UnsupportedLogicError
from repro.smtlib import parse_script
from repro.smtlib.evaluator import evaluate_assertions
from repro.smtlib.sorts import INT


def prepared(text):
    script = parse_script(text)
    return split_conjunction(script.conjunction()), script


class TestBranchAndPrune:
    def test_motivating_cubes(self):
        literals, script = prepared(
            "(declare-fun x () Int)(declare-fun y () Int)(declare-fun z () Int)"
            "(assert (= (+ (* x x x) (* y y y) (* z z z)) 855))"
        )
        result = solve_nia_conjunction(literals, script.declarations, budget=5_000_000)
        assert result.status == "sat"
        assert evaluate_assertions(script.assertions, result.model)

    def test_square_negative_unsat(self):
        literals, script = prepared(
            "(declare-fun x () Int)(assert (= (* x x) (- 1)))"
        )
        result = solve_nia_conjunction(literals, script.declarations, budget=100_000)
        assert result.status == "unsat"

    def test_prime_factorization_unsat(self):
        literals, script = prepared(
            "(declare-fun x () Int)(declare-fun y () Int)"
            "(assert (= (* x y) 13))(assert (> x 1))(assert (> y 1))"
        )
        result = solve_nia_conjunction(literals, script.declarations, budget=1_000_000)
        assert result.status == "unsat"

    def test_factorization_sat(self):
        literals, script = prepared(
            "(declare-fun x () Int)(declare-fun y () Int)"
            "(assert (= (* x y) 91))(assert (> x 1))(assert (< x y))"
        )
        result = solve_nia_conjunction(literals, script.declarations, budget=2_000_000)
        assert result.status == "sat"
        assert result.model["x"] * result.model["y"] == 91

    def test_parity_unsat_is_unknown(self):
        # 2xy + 2z = odd is unsat, but only by a parity argument interval
        # reasoning cannot see: the honest answer is unknown (timeout).
        literals, script = prepared(
            "(declare-fun x () Int)(declare-fun y () Int)(declare-fun z () Int)"
            "(assert (= (+ (* 2 (* x y)) (* 2 z)) 41))"
        )
        result = solve_nia_conjunction(literals, script.declarations, budget=50_000)
        assert result.status == "unknown"

    def test_bounded_domain_unsat_is_sound(self):
        literals, script = prepared(
            "(declare-fun x () Int)"
            "(assert (>= x 2))(assert (<= x 5))(assert (= (* x x) 7))"
        )
        result = solve_nia_conjunction(literals, script.declarations, budget=500_000)
        assert result.status == "unsat"

    def test_budget_exhaustion_unknown(self):
        literals, script = prepared(
            "(declare-fun x () Int)(declare-fun y () Int)(declare-fun z () Int)"
            "(assert (= (+ (* x x x) (* y y y) (* z z z)) 855))"
        )
        result = solve_nia_conjunction(literals, script.declarations, budget=10)
        assert result.status == "unknown"

    def test_ground_conjunction(self):
        literals, script = prepared("(assert (= (* 3 3) 9))")
        result = solve_nia_conjunction(literals, script.declarations)
        assert result.status == "sat"

    def test_rejects_boolean_residual(self):
        script = parse_script("(declare-fun p () Bool)(declare-fun x () Int)(assert p)")
        with pytest.raises(UnsupportedLogicError):
            NiaSolver(script.assertions, script.declarations)


class TestShellEnumeration:
    def test_finds_small_witness(self):
        literals, script = prepared(
            "(declare-fun x () Int)(declare-fun y () Int)"
            "(assert (= (* x y) 6))(assert (> x 0))(assert (> y x))"
        )
        result = solve_nia_enum_conjunction(literals, script.declarations, budget=500_000)
        assert result.status == "sat"
        assert evaluate_assertions(script.assertions, result.model)

    def test_cost_grows_with_witness_magnitude(self):
        small_literals, small_script = prepared(
            "(declare-fun x () Int)(declare-fun y () Int)"
            "(assert (= (* x y) 9))(assert (> x 1))(assert (>= y x))"
        )
        large_literals, large_script = prepared(
            "(declare-fun x () Int)(declare-fun y () Int)"
            "(assert (= (* x y) 841))(assert (> x 17))(assert (>= y x))"
        )
        small = solve_nia_enum_conjunction(
            small_literals, small_script.declarations, budget=10_000_000
        )
        large = solve_nia_enum_conjunction(
            large_literals, large_script.declarations, budget=10_000_000
        )
        assert small.status == "sat" and large.status == "sat"
        assert large.work > 10 * small.work

    def test_contraction_catches_structural_unsat(self):
        literals, script = prepared(
            "(declare-fun x () Int)(assert (< (* x x) 0))"
        )
        result = solve_nia_enum_conjunction(literals, script.declarations, budget=10_000)
        assert result.status == "unsat"

    def test_budget_timeout(self):
        literals, script = prepared(
            "(declare-fun x () Int)(declare-fun y () Int)(declare-fun z () Int)"
            "(assert (= (+ (* x y) (* y z) (* x z)) 3001))"
            "(assert (> x 10))(assert (> y 10))(assert (> z 10))"
        )
        result = solve_nia_enum_conjunction(literals, script.declarations, budget=20_000)
        assert result.status == "unknown"

    def test_bounded_box_exhaustion_is_unsat(self):
        literals, script = prepared(
            "(declare-fun x () Int)"
            "(assert (>= x 1))(assert (<= x 4))(assert (= (* x x) 10))"
        )
        result = solve_nia_enum_conjunction(literals, script.declarations, budget=1_000_000)
        assert result.status == "unsat"

    @pytest.mark.parametrize("dimension", [1, 2, 3, 4])
    def test_shells_are_the_filtered_cube_in_order(self, dimension):
        names = [f"x{index}" for index in range(dimension)]
        solver = NiaEnumSolver([], {name: INT for name in names})
        for radius in range(6):
            span = range(-radius, radius + 1)
            cube = itertools.product(span, repeat=dimension)
            expected = [
                dict(zip(names, values))
                for values in cube
                if max(abs(value) for value in values) == radius
            ]
            assert list(solver._shell_points(radius)) == expected, radius


class TestProfileAsymmetry:
    """The corvus-vs-zorro asymmetry the evaluation relies on."""

    def test_enum_much_slower_on_moderate_witnesses(self):
        literals, script = prepared(
            "(declare-fun x () Int)(declare-fun y () Int)(declare-fun z () Int)"
            "(assert (= (+ (* x y) (* y z) (* x z)) 347))"
            "(assert (> x 0))(assert (> y x))(assert (> z y))"
        )
        prune = solve_nia_conjunction(literals, script.declarations, budget=5_000_000)
        enum = solve_nia_enum_conjunction(literals, script.declarations, budget=100_000)
        assert prune.status == "sat"
        assert enum.status == "unknown"  # times out at the same virtual budget
