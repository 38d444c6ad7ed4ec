"""Concrete machine values for the bounded sorts.

:class:`BVValue` models a two's-complement bitvector, and :class:`FPValue`
models an IEEE-754 floating-point datum of arbitrary exponent/significand
width. Both are immutable and hashable so they can serve as term payloads.

Arithmetic *semantics* for these values live elsewhere: bitvector
operations in :mod:`repro.smtlib.evaluator` and softfloat arithmetic in
:mod:`repro.fp.softfloat`.
"""

from fractions import Fraction

from repro.errors import SortError


class BVValue:
    """A fixed-width bitvector value.

    The payload is stored as an unsigned integer in ``[0, 2**width)``.
    Signed views use two's complement.
    """

    __slots__ = ("unsigned", "width")

    def __init__(self, value, width):
        if width < 1:
            raise SortError(f"bitvector width must be positive, got {width}")
        self.unsigned = value & ((1 << width) - 1)
        self.width = width

    @property
    def signed(self):
        """The two's-complement signed view of the value."""
        if self.unsigned >= 1 << (self.width - 1):
            return self.unsigned - (1 << self.width)
        return self.unsigned

    def bit(self, index):
        """The bit at ``index`` (0 = least significant), as 0 or 1."""
        return (self.unsigned >> index) & 1

    def fits_signed(self, value):
        """Whether a Python integer is representable signed at this width."""
        half = 1 << (self.width - 1)
        return -half <= value < half

    def __eq__(self, other):
        return (
            isinstance(other, BVValue)
            and self.width == other.width
            and self.unsigned == other.unsigned
        )

    def __hash__(self):
        return hash(("bv", self.unsigned, self.width))

    def __repr__(self):
        return f"BVValue({self.unsigned}, width={self.width})"

    def smtlib(self):
        """SMT-LIB spelling, e.g. ``(_ bv855 12)``."""
        return f"(_ bv{self.unsigned} {self.width})"


#: Classification tags for floating-point values.
FP_FINITE = "finite"
FP_INF = "inf"
FP_NAN = "nan"


class FPValue:
    """An IEEE-754 floating-point value of shape ``(eb, sb)``.

    Finite values are stored exactly as ``sign`` (0 or 1) plus a
    non-negative integer ``significand`` scaled by ``2**exponent``, i.e.
    the real value is ``(-1)**sign * significand * 2**exponent``. The
    significand of a normalized non-zero finite value uses exactly ``sb``
    bits; zero has significand 0. Infinities and NaN are tagged with
    ``kind``.
    """

    __slots__ = ("eb", "sb", "kind", "sign", "significand", "exponent")

    def __init__(self, eb, sb, kind, sign, significand=0, exponent=0):
        self.eb = eb
        self.sb = sb
        self.kind = kind
        self.sign = sign
        self.significand = significand
        self.exponent = exponent

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, eb, sb, sign=0):
        return cls(eb, sb, FP_FINITE, sign, 0, 0)

    @classmethod
    def inf(cls, eb, sb, sign=0):
        return cls(eb, sb, FP_INF, sign)

    @classmethod
    def nan(cls, eb, sb):
        return cls(eb, sb, FP_NAN, 0)

    # -- queries -------------------------------------------------------

    @property
    def is_nan(self):
        return self.kind == FP_NAN

    @property
    def is_inf(self):
        return self.kind == FP_INF

    @property
    def is_finite(self):
        return self.kind == FP_FINITE

    @property
    def is_zero(self):
        return self.kind == FP_FINITE and self.significand == 0

    @property
    def is_pathological(self):
        """NaN or an infinity -- a semantic difference per the paper."""
        return self.kind != FP_FINITE

    def to_fraction(self):
        """Exact rational value of a finite datum."""
        if not self.is_finite:
            raise SortError(f"cannot convert {self.kind} to a rational")
        magnitude = Fraction(self.significand) * Fraction(2) ** self.exponent
        return -magnitude if self.sign else magnitude

    def __eq__(self, other):
        """Structural equality (distinguishes +0 from -0; NaN == NaN).

        This is object identity for hashing purposes, *not* IEEE ``fp.eq``;
        use :func:`repro.fp.softfloat.fp_eq` for IEEE comparison semantics.
        """
        if not isinstance(other, FPValue):
            return NotImplemented
        return (
            self.eb == other.eb
            and self.sb == other.sb
            and self.kind == other.kind
            and self.sign == other.sign
            and self.significand == other.significand
            and self.exponent == other.exponent
        )

    def __hash__(self):
        return hash(
            ("fp", self.eb, self.sb, self.kind, self.sign, self.significand, self.exponent)
        )

    def __repr__(self):
        if self.is_nan:
            return f"FPValue(NaN, {self.eb}, {self.sb})"
        if self.is_inf:
            return f"FPValue({'-' if self.sign else '+'}oo, {self.eb}, {self.sb})"
        return (
            f"FPValue({'-' if self.sign else '+'}{self.significand}"
            f"*2^{self.exponent}, {self.eb}, {self.sb})"
        )
