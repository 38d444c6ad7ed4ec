"""Interval arithmetic soundness properties."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.arith.interval import (
    EMPTY,
    Interval,
    integer_nth_root,
    nth_root_lower,
    nth_root_upper,
)


def finite_endpoints():
    """An endpoint in either representation: an int or a Fraction."""
    return st.one_of(
        st.integers(min_value=-50, max_value=50),
        st.fractions(min_value=-50, max_value=50),
    )


def bounded_intervals():
    return st.tuples(finite_endpoints(), finite_endpoints()).map(
        lambda p: Interval(min(p), max(p))
    )


def maybe_unbounded_intervals():
    endpoint = st.one_of(st.none(), finite_endpoints())
    return st.tuples(endpoint, endpoint).map(
        lambda p: Interval(
            p[0] if p[0] is not None and (p[1] is None or p[0] <= p[1]) else p[0],
            p[1],
        )
        if not (p[0] is not None and p[1] is not None and p[0] > p[1])
        else Interval(p[1], p[0])
    )


def sample_points(interval, candidates=(-60, -5, -1, 0, 1, 5, 60)):
    """Exact reference points of an interval, as Fractions."""
    points = [Fraction(c) for c in candidates if interval.contains(Fraction(c))]
    if interval.lo is not None:
        points.append(Fraction(interval.lo))
    if interval.hi is not None:
        points.append(Fraction(interval.hi))
    if not interval.is_empty:
        points.append(Fraction(interval.midpoint()))
    return points


class TestBasics:
    def test_empty_detection(self):
        assert Interval(1, 0).is_empty
        assert not Interval(0, 1).is_empty
        assert EMPTY.is_empty

    def test_point(self):
        p = Interval.point(3)
        assert p.is_point and p.contains(Fraction(3)) and not p.contains(Fraction(4))

    def test_top_contains_everything(self):
        top = Interval.top()
        assert top.contains(Fraction(10**100)) and top.contains(Fraction(-(10**100)))

    def test_width(self):
        assert Interval(1, 4).width() == 3
        assert Interval(None, 4).width() is None
        assert EMPTY.width() == 0

    def test_intersect_and_hull(self):
        a = Interval(0, 5)
        b = Interval(3, 10)
        assert a.intersect(b) == Interval(3, 5)
        assert a.hull(b) == Interval(0, 10)
        assert a.intersect(Interval(6, 7)).is_empty

    def test_intersect_with_unbounded(self):
        assert Interval.top().intersect(Interval(1, 2)) == Interval(1, 2)
        assert Interval(None, 5).intersect(Interval(3, None)) == Interval(3, 5)


class TestArithmeticSoundness:
    """Forall x in A, y in B: x op y in (A op B)."""

    @given(maybe_unbounded_intervals(), maybe_unbounded_intervals())
    @settings(max_examples=200, deadline=None)
    def test_add_sound(self, a, b):
        assume(not a.is_empty and not b.is_empty)
        result = a + b
        for x in sample_points(a):
            for y in sample_points(b):
                assert result.contains(x + y)

    @given(maybe_unbounded_intervals(), maybe_unbounded_intervals())
    @settings(max_examples=200, deadline=None)
    def test_mul_sound(self, a, b):
        assume(not a.is_empty and not b.is_empty)
        result = a * b
        for x in sample_points(a):
            for y in sample_points(b):
                assert result.contains(x * y), (a, b, x, y, result)

    @given(maybe_unbounded_intervals())
    @settings(max_examples=100, deadline=None)
    def test_neg_abs_sound(self, a):
        assume(not a.is_empty)
        negated = -a
        magnitude = a.abs()
        for x in sample_points(a):
            assert negated.contains(-x)
            assert magnitude.contains(abs(x))

    @given(maybe_unbounded_intervals(), maybe_unbounded_intervals())
    @settings(max_examples=200, deadline=None)
    def test_divide_sound(self, a, b):
        assume(not a.is_empty and not b.is_empty)
        result = a.divide(b)
        for x in sample_points(a):
            for y in sample_points(b):
                value = Fraction(0) if y == 0 else x / y
                if y == 0 and not b.is_zero_point():
                    continue  # total-division convention covered below
                assert result.contains(value)

    def test_divide_by_exact_zero_is_total(self):
        assert Interval(1, 2).divide(Interval.point(0)) == Interval.point(0)

    @given(bounded_intervals(), st.integers(2, 5))
    @settings(max_examples=150, deadline=None)
    def test_power_sound_and_precise_for_squares(self, a, n):
        assume(not a.is_empty)
        result = a.power(n)
        for x in sample_points(a):
            assert result.contains(x**n)
        if n % 2 == 0:
            assert result.lo >= 0

    def test_square_is_precise(self):
        assert Interval(-2, 3).power(2) == Interval(0, 9)

    @given(bounded_intervals(), st.integers(2, 4))
    @settings(max_examples=150, deadline=None)
    def test_root_is_preimage_sound(self, target, n):
        assume(not target.is_empty)
        preimage = target.root(n)
        for x in [Fraction(v, 2) for v in range(-12, 13)]:
            if target.contains(x**n):
                assert preimage.contains(x), (target, n, x)


def twin(interval, kind):
    """The same interval with every integral endpoint made a ``kind``
    (``int`` or ``Fraction``)."""
    if interval.is_empty:
        return EMPTY

    def convert(endpoint):
        if endpoint is None or endpoint.denominator != 1:
            return endpoint
        return kind(endpoint)

    return Interval(convert(interval.lo), convert(interval.hi))


def exact(value):
    """``value`` after checking that no endpoint or number in it is a
    float or a bool (a relation's bool result passes as it is)."""
    if isinstance(value, tuple):
        return tuple(exact(item) for item in value)
    if isinstance(value, Interval):
        for endpoint in (value.lo, value.hi):
            assert endpoint is None or type(endpoint) in (int, Fraction), value
        return value
    assert value is None or type(value) in (bool, int, Fraction), repr(value)
    return value


class TestRepresentationIndependence:
    """An integral endpoint gives the same values as an int or a Fraction."""

    @given(
        maybe_unbounded_intervals(),
        maybe_unbounded_intervals(),
        st.integers(1, 5),
        st.integers(-60, 60),
    )
    @settings(max_examples=300, deadline=None)
    def test_every_operation_agrees(self, a, b, exponent, point):
        operations = [
            lambda x, y, p: x + y,
            lambda x, y, p: x - y,
            lambda x, y, p: -x,
            lambda x, y, p: x * y,
            lambda x, y, p: x.divide(y),
            lambda x, y, p: x.power(exponent),
            lambda x, y, p: x.root(exponent),
            lambda x, y, p: x.abs(),
            lambda x, y, p: x.intersect(y),
            lambda x, y, p: x.hull(y),
            lambda x, y, p: x.round_to_integer(),
            lambda x, y, p: x.integer_count(),
            lambda x, y, p: x.contains(p),
            lambda x, y, p: x.certainly_le(y),
            lambda x, y, p: x.certainly_lt(y),
            lambda x, y, p: x.certainly_eq(y),
            lambda x, y, p: x.possibly_le(y),
            lambda x, y, p: x.possibly_lt(y),
            lambda x, y, p: x.possibly_eq(y),
        ]
        if not a.is_empty:
            operations += [
                lambda x, y, p: x.split(),
                lambda x, y, p: x.split_integer(),
                lambda x, y, p: x.midpoint(),
            ]
        as_ints = twin(a, int), twin(b, int), point
        as_fractions = twin(a, Fraction), twin(b, Fraction), Fraction(point)
        for index, operation in enumerate(operations):
            assert exact(operation(*as_ints)) == exact(operation(*as_fractions)), index

    @given(st.integers(-(10**9), 10**9), st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_nth_roots_of_ints_are_ints(self, value, degree):
        if value < 0 and degree % 2 == 0:
            return
        for root in (nth_root_upper, nth_root_lower):
            bound = root(value, degree)
            assert type(bound) is int
            assert bound == root(Fraction(value), degree)

    def test_integer_arithmetic_stays_integer(self):
        box = Interval(-3, 4)
        for result in (box + box, box - box, box * box, box.power(3), box.abs()):
            assert type(result.lo) is int and type(result.hi) is int, result
        assert box.round_to_integer() is box
        assert Interval(6, 12).divide(Interval(2, 3)) == Interval(2, 6)
        assert type(Interval(6, 12).divide(Interval(2, 3)).lo) is int
        assert Interval(1, 2).midpoint() == Fraction(3, 2)

    def test_floats_and_bools_are_converted(self):
        interval = Interval(True, 2.5)
        assert type(interval.lo) is Fraction and interval.lo == 1
        assert type(interval.hi) is Fraction and interval.hi == Fraction(5, 2)


class TestIntegerRefinement:
    def test_round_to_integer(self):
        assert Interval(Fraction(1, 2), Fraction(7, 2)).round_to_integer() == Interval(1, 3)
        assert Interval(Fraction(-7, 2), Fraction(-1, 2)).round_to_integer() == Interval(-3, -1)

    def test_rounding_can_empty(self):
        assert Interval(Fraction(1, 3), Fraction(2, 3)).round_to_integer().is_empty

    def test_integer_count(self):
        assert Interval(1, 3).integer_count() == 3
        assert Interval(None, 3).integer_count() is None
        assert EMPTY.integer_count() == 0

    def test_split_integer_is_partition(self):
        left, right = Interval(0, 10).split_integer()
        assert left.hi + 1 == right.lo
        assert left.lo == 0 and right.hi == 10


class TestComparisons:
    def test_certainly_le(self):
        assert Interval(0, 1).certainly_le(Interval(1, 2))
        assert not Interval(0, 2).certainly_le(Interval(1, 3))

    def test_possibly_relations(self):
        assert Interval(0, 5).possibly_lt(Interval(1, 2))
        assert not Interval(5, 6).possibly_lt(Interval(1, 2))
        assert Interval(5, 6).possibly_eq(Interval(6, 7))
        assert not Interval(5, 6).possibly_eq(Interval(7, 8))


class TestNthRoots:
    @given(st.integers(0, 10**12), st.integers(2, 6))
    @settings(max_examples=200)
    def test_integer_nth_root_exact_floor(self, value, degree):
        root = integer_nth_root(value, degree)
        assert root**degree <= value < (root + 1) ** degree

    @given(st.fractions(min_value=0, max_value=10**6), st.integers(2, 5))
    @settings(max_examples=200)
    def test_rational_root_bounds_bracket(self, value, degree):
        upper = nth_root_upper(value, degree)
        lower = nth_root_lower(value, degree)
        assert lower**degree <= value <= upper**degree

    def test_negative_odd_roots(self):
        assert nth_root_upper(Fraction(-8), 3) == -2
        assert nth_root_lower(Fraction(-8), 3) == -2
