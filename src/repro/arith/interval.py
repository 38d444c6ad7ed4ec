"""Exact interval arithmetic over rationals with infinite endpoints.

An endpoint is ``None`` (meaning -oo for lower, +oo for upper), an
``int`` or a :class:`~fractions.Fraction`, stored exactly as given; a
bool or a float is converted to a ``Fraction``. Both representations of
one value behave the same in every operation, so integer arithmetic on
the integer boxes of a QF_NIA search never builds a ``Fraction``: the
only operations that leave the integers are the ones that divide
(``midpoint``, ``divide`` and the rational n-th root bounds), and they
build their quotients as ``Fraction``s.

All operations are *conservative*: the result interval contains every
possible value of the operation over the operand intervals, which is the
soundness requirement for the ICP solvers built on top (a contraction
may fail to narrow, but must never drop a solution).
"""

from fractions import Fraction


class Interval:
    """A closed interval ``[lo, hi]``; ``None`` endpoints are infinite.

    The empty interval is represented by the singleton :data:`EMPTY`
    (``is_empty`` true); operations on it propagate emptiness.
    """

    __slots__ = ("lo", "hi", "_empty")

    def __init__(self, lo=None, hi=None, _empty=False):
        if lo is not None and type(lo) is not int and type(lo) is not Fraction:
            lo = Fraction(lo)
        if hi is not None and type(hi) is not int and type(hi) is not Fraction:
            hi = Fraction(hi)
        self.lo = lo
        self.hi = hi
        self._empty = _empty or (lo is not None and hi is not None and lo > hi)

    # -- constructors ---------------------------------------------------

    @classmethod
    def point(cls, value):
        return cls(value, value)

    @classmethod
    def top(cls):
        return TOP

    @property
    def is_empty(self):
        return self._empty

    @property
    def is_point(self):
        return not self._empty and self.lo is not None and self.lo == self.hi

    @property
    def is_bounded(self):
        return self._empty or (self.lo is not None and self.hi is not None)

    def width(self):
        """hi - lo; None when unbounded, 0 for points and empty."""
        if self._empty:
            return 0
        if self.lo is None or self.hi is None:
            return None
        return self.hi - self.lo

    def contains(self, value):
        if self._empty:
            return False
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True

    def midpoint(self):
        """A finite sample point, preferring the middle."""
        if self._empty:
            raise ValueError("empty interval has no midpoint")
        if self.lo is not None and self.hi is not None:
            return Fraction(self.lo + self.hi, 2)
        if self.lo is not None:
            return self.lo + 1
        if self.hi is not None:
            return self.hi - 1
        return 0

    # -- lattice --------------------------------------------------------

    def intersect(self, other):
        if self._empty or other._empty:
            return EMPTY
        lo = self.lo if other.lo is None else (other.lo if self.lo is None else max(self.lo, other.lo))
        hi = self.hi if other.hi is None else (other.hi if self.hi is None else min(self.hi, other.hi))
        if lo is not None and hi is not None and lo > hi:
            return EMPTY
        return Interval(lo, hi)

    def hull(self, other):
        if self._empty:
            return other
        if other._empty:
            return self
        lo = None if self.lo is None or other.lo is None else min(self.lo, other.lo)
        hi = None if self.hi is None or other.hi is None else max(self.hi, other.hi)
        return Interval(lo, hi)

    # -- arithmetic -------------------------------------------------------

    def __neg__(self):
        if self._empty:
            return EMPTY
        return Interval(
            -self.hi if self.hi is not None else None,
            -self.lo if self.lo is not None else None,
        )

    def __add__(self, other):
        if self._empty or other._empty:
            return EMPTY
        lo = None if self.lo is None or other.lo is None else self.lo + other.lo
        hi = None if self.hi is None or other.hi is None else self.hi + other.hi
        return Interval(lo, hi)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self._empty or other._empty:
            return EMPTY
        if self.is_zero_point() or other.is_zero_point():
            return Interval.point(0)
        candidates = []
        unbounded_lo = False
        unbounded_hi = False
        for a, a_inf in ((self.lo, -1), (self.hi, 1)):
            for b, b_inf in ((other.lo, -1), (other.hi, 1)):
                if a is None or b is None:
                    # Sign analysis for infinite products.
                    sign = _product_sign(self, a, a_inf, other, b, b_inf)
                    if sign is None:
                        continue
                    if sign > 0:
                        unbounded_hi = True
                    elif sign < 0:
                        unbounded_lo = True
                else:
                    candidates.append(a * b)
        lo = None if unbounded_lo else (min(candidates) if candidates else None)
        hi = None if unbounded_hi else (max(candidates) if candidates else None)
        if not candidates and not (unbounded_lo or unbounded_hi):
            return Interval.top()
        return Interval(lo, hi)

    def is_zero_point(self):
        return self.is_point and self.lo == 0

    def divide(self, other):
        """Conservative interval division (0 in divisor widens to top)."""
        if self._empty or other._empty:
            return EMPTY
        if other.contains(0):
            if other.is_zero_point():
                # Division by exactly zero: total semantics give 0.
                return Interval.point(0)
            return Interval.top()
        if self.is_bounded and other.is_bounded:
            # The divisor has one sign, so the extremes are corner quotients.
            quotients = [
                _quotient(a, b) for a in (self.lo, self.hi) for b in (other.lo, other.hi)
            ]
            return Interval(min(quotients), max(quotients))
        reciprocal_lo = None if other.hi is None else Fraction(1) / other.hi
        reciprocal_hi = None if other.lo is None else Fraction(1) / other.lo
        return self * Interval(reciprocal_lo, reciprocal_hi)

    def power(self, exponent):
        """``self ** exponent`` for a positive integer exponent.

        Unlike repeated interval multiplication, this is exact for even
        exponents of sign-straddling intervals (e.g. ``[-2, 3]**2`` is
        ``[0, 9]``, not ``[-6, 9]``).
        """
        if self._empty:
            return EMPTY
        if exponent == 1:
            return self
        if exponent % 2 == 1:
            lo = None if self.lo is None else self.lo**exponent
            hi = None if self.hi is None else self.hi**exponent
            return Interval(lo, hi)
        magnitude = self.abs()
        lo = magnitude.lo**exponent
        hi = None if magnitude.hi is None else magnitude.hi**exponent
        return Interval(lo, hi)

    def root(self, degree):
        """Conservative interval n-th root preimage.

        Returns an interval containing every x with ``x**degree`` in self.
        For even degrees the preimage is symmetric (the gap around zero is
        conservatively kept); an even root of a strictly negative interval
        is empty.
        """
        if self._empty:
            return EMPTY
        if degree == 1:
            return self
        if degree % 2 == 1:
            lo = None if self.lo is None else nth_root_lower(self.lo, degree)
            hi = None if self.hi is None else nth_root_upper(self.hi, degree)
            return Interval(lo, hi)
        if self.hi is not None and self.hi < 0:
            return EMPTY
        if self.hi is None:
            return Interval.top()
        bound = nth_root_upper(self.hi, degree)
        return Interval(-bound, bound)

    def abs(self):
        if self._empty:
            return EMPTY
        if self.lo is not None and self.lo >= 0:
            return self
        if self.hi is not None and self.hi <= 0:
            return -self
        # Straddles zero.
        if self.lo is None or self.hi is None:
            return Interval(0, None)
        return Interval(0, max(-self.lo, self.hi))

    # -- integer refinement -----------------------------------------------

    def round_to_integer(self):
        """Shrink to the integer sub-lattice (ceil lower, floor upper)."""
        if self._empty:
            return EMPTY
        lo = self.lo
        hi = self.hi
        if lo is not None and type(lo) is not int:
            lo = -((-lo.numerator) // lo.denominator)  # ceil
        if hi is not None and type(hi) is not int:
            hi = hi.numerator // hi.denominator  # floor
        if lo is self.lo and hi is self.hi:
            return self
        if lo is not None and hi is not None and lo > hi:
            return EMPTY
        return Interval(lo, hi)

    def integer_count(self):
        """Number of integers inside, or None when unbounded."""
        rounded = self.round_to_integer()
        if rounded.is_empty:
            return 0
        if rounded.lo is None or rounded.hi is None:
            return None
        return int(rounded.hi - rounded.lo) + 1

    def split(self):
        """Bisect at the midpoint; returns (left, right)."""
        middle = self.midpoint()
        return Interval(self.lo, middle), Interval(middle, self.hi)

    def split_integer(self):
        """Bisect an integer interval into two disjoint halves."""
        middle = self.midpoint()
        floor = middle.numerator // middle.denominator
        return Interval(self.lo, floor), Interval(floor + 1, self.hi)

    # -- comparisons against another interval -------------------------------

    def certainly_le(self, other):
        return (
            not self._empty
            and not other._empty
            and self.hi is not None
            and other.lo is not None
            and self.hi <= other.lo
        )

    def certainly_lt(self, other):
        return (
            not self._empty
            and not other._empty
            and self.hi is not None
            and other.lo is not None
            and self.hi < other.lo
        )

    def possibly_le(self, other):
        """Can some a <= b hold? i.e. not (a always > b)."""
        return not other.certainly_lt(self)

    def possibly_lt(self, other):
        return not other.certainly_le(self)

    def possibly_eq(self, other):
        return not self.intersect(other).is_empty

    def certainly_eq(self, other):
        return self.is_point and other.is_point and self.lo == other.lo

    def __eq__(self, other):
        if not isinstance(other, Interval):
            return NotImplemented
        if self._empty or other._empty:
            return self._empty and other._empty
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self._empty, self.lo, self.hi))

    def __repr__(self):
        if self._empty:
            return "Interval(empty)"
        lo = "-oo" if self.lo is None else str(self.lo)
        hi = "+oo" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"


def _quotient(a, b):
    """``a / b`` exactly: an ``int`` when both are ints and ``b`` divides ``a``."""
    if type(a) is int and type(b) is int and a % b == 0:
        return a // b
    return Fraction(a, b)


def _product_sign(left, a, a_inf, right, b, b_inf):
    """Sign of the product corner a*b when at least one factor is infinite.

    Returns +1, -1, 0, or None when the corner is degenerate (0 * oo).
    """

    def endpoint_sign(interval, endpoint, which):
        if endpoint is not None:
            return (endpoint > 0) - (endpoint < 0)
        # Infinite endpoint: lower is -oo (sign -1), upper +oo (sign +1).
        return which

    sa = endpoint_sign(left, a, a_inf)
    sb = endpoint_sign(right, b, b_inf)
    if sa == 0 or sb == 0:
        return None  # 0 * oo corner contributes nothing beyond 0
    return sa * sb


def integer_nth_root(value, degree):
    """Floor of the n-th root of a non-negative integer (exact)."""
    if value < 0:
        raise ValueError("integer_nth_root needs a non-negative value")
    if value == 0:
        return 0
    guess = 1 << ((value.bit_length() + degree - 1) // degree)
    while True:
        candidate = ((degree - 1) * guess + value // guess ** (degree - 1)) // degree
        if candidate >= guess:
            break
        guess = candidate
    while guess**degree > value:
        guess -= 1
    while (guess + 1) ** degree <= value:
        guess += 1
    return guess


def nth_root_upper(value, degree):
    """A rational upper bound on ``value ** (1/degree)`` (conservative).

    An ``int`` when ``value`` is integral.
    """
    if type(value) is not int:
        value = Fraction(value)
    if value < 0:
        if degree % 2 == 0:
            raise ValueError("even root of a negative value")
        return -nth_root_lower(-value, degree)
    scaled = value.numerator * value.denominator ** (degree - 1)
    root = integer_nth_root(scaled, degree)
    if root**degree < scaled:
        root += 1
    return _quotient(root, value.denominator)


def nth_root_lower(value, degree):
    """A rational lower bound on ``value ** (1/degree)`` (conservative).

    An ``int`` when ``value`` is integral.
    """
    if type(value) is not int:
        value = Fraction(value)
    if value < 0:
        if degree % 2 == 0:
            raise ValueError("even root of a negative value")
        return -nth_root_upper(-value, degree)
    scaled = value.numerator * value.denominator ** (degree - 1)
    root = integer_nth_root(scaled, degree)
    return _quotient(root, value.denominator)


#: The canonical empty interval.
EMPTY = Interval(0, 0, _empty=True)

#: The unbounded interval; intervals are never mutated, so one serves all.
TOP = Interval(None, None)
