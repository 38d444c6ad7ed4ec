"""Constraint transformation: unbounded -> bounded (Section 4.3).

Integer constraints become bitvector constraints of an inferred width with
overflow-guard assertions (``(assert (not (bvsmulo x x)))`` and friends)
that pin the bounded semantics to the unbounded ones.

Real constraints become *fixed-point* bitvector constraints: a real value
``v`` is represented by the signed ``(M+P)``-bit vector of ``v * 2**P``,
where ``(M, P)`` comes straight from the magnitude/precision abstract
domain. Addition is exact; multiplication and division truncate like
floating-point rounding would, which reproduces the paper's
semantic-difference behaviour for real arithmetic (DESIGN.md discusses
this substitution).

The result carries a ``back_map`` that converts bounded models into
candidate assignments for the original constraint -- the inverse phi of
the sort correspondence -- consumed by the verification step.
"""

from fractions import Fraction

from repro.core.correspondence import (
    INT_OVERFLOW_GUARDS,
    INT_TO_BITVECTOR,
    REAL_TO_FIXEDPOINT,
    FixedPointShape,
)
from repro.errors import TransformError
from repro.smtlib import build
from repro.smtlib.script import Script
from repro.smtlib.sorts import BOOL, INT, REAL
from repro.smtlib.terms import Op
from repro.smtlib.values import BVValue


class TransformResult:
    """A bounded script plus the metadata needed to interpret its models.

    Attributes:
        script: the bounded :class:`Script` (QF_BV).
        theory: ``"int"`` or ``"real"``.
        width: total bitvector width used for variables.
        shape: the :class:`FixedPointShape` (real case only, else None).
        guards: number of overflow/semantics guard assertions added.
        inexact_constants: True when some real constant had to be rounded
            to the fixed-point grid (a semantic difference risk).
        correspondence: the :class:`SortCorrespondence` used.
    """

    def __init__(
        self,
        script,
        theory,
        width,
        shape,
        guards,
        inexact_constants,
        correspondence,
    ):
        self.script = script
        self.theory = theory
        self.width = width
        self.shape = shape
        self.guards = guards
        self.inexact_constants = inexact_constants
        self.correspondence = correspondence

    def back_map(self, bounded_model):
        """Convert a bounded model into an unbounded candidate assignment."""
        assignment = {}
        for name, value in bounded_model.items():
            if isinstance(value, BVValue):
                if self.theory == "int":
                    assignment[name] = self.correspondence.phi_inverse(value, self.width)
                else:
                    assignment[name] = self.correspondence.phi_inverse(value, self.shape)
            else:
                assignment[name] = value
        return assignment

    def __repr__(self):
        return (
            f"TransformResult({self.theory}, width={self.width}, "
            f"guards={self.guards})"
        )


class _IntTransformer:
    """Int -> BitVec translation with overflow guards."""

    def __init__(self, width):
        self.width = width
        self.sort_width = width
        self.guards = []
        self._guarded = set()

    def _guard(self, op, operands):
        guard_pred = INT_OVERFLOW_GUARDS.get(op)
        if guard_pred is None:
            return
        if guard_pred is Op.BVNEGO:
            guard = build.BVNegO(operands[0])
        else:
            guard = build.bv_overflow(guard_pred, operands[0], operands[1])
        negated = build.Not(guard)
        if negated.tid not in self._guarded:
            self._guarded.add(negated.tid)
            self.guards.append(negated)

    def _fold(self, op, mapped_args):
        result = mapped_args[0]
        for arg in mapped_args[1:]:
            self._guard(op, (result, arg))
            result = build.bv_binary(op, result, arg)
        return result

    def transform_node(self, term, new_args):
        op = term.op
        if op is Op.CONST:
            if term.sort is INT:
                image = INT_TO_BITVECTOR.phi(term.value, self.width)
                if image is None:
                    raise TransformError(
                        f"constant {term.value} does not fit in width {self.width}"
                    )
                return build.BitVecConst(image, self.width)
            return term
        if op is Op.VAR:
            if term.sort is INT:
                return build.BitVecVar(term.name, self.width)
            return term
        if term.sort is BOOL and op in (Op.LE, Op.LT, Op.GE, Op.GT):
            mapped = INT_TO_BITVECTOR.map_operator(op)
            return build.bv_compare(mapped, new_args[0], new_args[1])
        if op in (Op.ADD, Op.SUB, Op.MUL):
            mapped = INT_TO_BITVECTOR.map_operator(op)
            return self._fold(mapped, new_args)
        if op is Op.NEG:
            self._guard(Op.BVNEG, (new_args[0],))
            return build.BVNeg(new_args[0])
        if op is Op.ABS:
            self._guard(Op.BVABS, (new_args[0],))
            return build.BVAbs(new_args[0])
        if op is Op.IDIV or op is Op.MOD:
            dividend, divisor = new_args
            # Euclidean div/mod agree with bvsdiv/bvsmod exactly on the
            # region dividend >= 0 and divisor > 0; restrict to it (a
            # further underapproximation, checked at verification).
            zero = build.BitVecConst(0, self.width)
            self.guards.append(build.bv_compare(Op.BVSGE, dividend, zero))
            self.guards.append(build.bv_compare(Op.BVSGT, divisor, zero))
            if op is Op.IDIV:
                self._guard(Op.BVSDIV, (dividend, divisor))
                return build.bv_binary(Op.BVSDIV, dividend, divisor)
            return build.bv_binary(Op.BVSMOD, dividend, divisor)
        if op is Op.EQ:
            return build.Eq(new_args[0], new_args[1])
        if op is Op.DISTINCT:
            return build.Distinct(*new_args)
        if op is Op.ITE:
            return build.Ite(new_args[0], new_args[1], new_args[2])
        if op in (Op.NOT, Op.AND, Op.OR, Op.XOR, Op.IMPLIES):
            rebuilt = {
                Op.NOT: lambda a: build.Not(a[0]),
                Op.AND: lambda a: build.And(*a),
                Op.OR: lambda a: build.Or(*a),
                Op.XOR: lambda a: build.Xor(*a),
                Op.IMPLIES: lambda a: build.Implies(a[0], a[1]),
            }[op]
            return rebuilt(new_args)
        raise TransformError(f"integer transformation cannot handle {op}")


class _RealTransformer:
    """Real -> fixed-point bitvector translation."""

    def __init__(self, shape):
        self.shape = shape
        self.guards = []
        self.inexact_constants = False
        self._guarded = set()

    @property
    def width(self):
        return self.shape.width

    def _add_guard(self, guard):
        if guard.tid not in self._guarded:
            self._guarded.add(guard.tid)
            self.guards.append(guard)

    def _overflow_guard(self, pred, left, right):
        self._add_guard(build.Not(build.bv_overflow(pred, left, right)))

    def _const(self, value):
        scaled = Fraction(value) * self.shape.scale
        if scaled.denominator != 1:
            # Round to the fixed-point grid: a semantic difference.
            self.inexact_constants = True
            scaled = Fraction(round(scaled))
        scaled = int(scaled)
        half = 1 << (self.width - 1)
        if not (-half <= scaled < half):
            raise TransformError(
                f"constant {value} does not fit fixed-point shape {self.shape}"
            )
        return build.BitVecConst(BVValue(scaled, self.width), self.width)

    def _mul(self, left, right):
        """Fixed-point multiply: widen, multiply, guard, rescale."""
        precision = self.shape.precision_bits
        wide = self.width + precision + 1
        extend = wide - self.width
        left_wide = build.SignExtend(extend, left)
        right_wide = build.SignExtend(extend, right)
        self._overflow_guard(Op.BVSMULO, left_wide, right_wide)
        product = build.bv_binary(Op.BVMUL, left_wide, right_wide)
        # Rescale: drop P fractional bits (truncation toward -oo, the
        # fixed-point analogue of floating-point rounding).
        shifted = build.bv_binary(
            Op.BVASHR, product, build.BitVecConst(precision, wide)
        )
        # The rescaled value must fit back into the working width.
        kept = build.Extract(self.width - 1, 0, shifted)
        self._add_guard(build.Eq(build.SignExtend(extend, kept), shifted))
        return kept

    def _div(self, left, right):
        """Fixed-point divide: prescale the dividend, divide, narrow."""
        precision = self.shape.precision_bits
        wide = self.width + precision + 1
        extend = wide - self.width
        left_wide = build.bv_binary(
            Op.BVSHL,
            build.SignExtend(extend, left),
            build.BitVecConst(precision, wide),
        )
        right_wide = build.SignExtend(extend, right)
        zero = build.BitVecConst(0, wide)
        self._add_guard(build.Not(build.Eq(right_wide, zero)))
        self._overflow_guard(Op.BVSDIVO, left_wide, right_wide)
        quotient = build.bv_binary(Op.BVSDIV, left_wide, right_wide)
        kept = build.Extract(self.width - 1, 0, quotient)
        self._add_guard(build.Eq(build.SignExtend(extend, kept), quotient))
        return kept

    def transform_node(self, term, new_args):
        op = term.op
        if op is Op.CONST:
            if term.sort is REAL:
                return self._const(term.value)
            return term
        if op is Op.VAR:
            if term.sort is REAL:
                return build.BitVecVar(term.name, self.width)
            return term
        if term.sort is BOOL and op in (Op.LE, Op.LT, Op.GE, Op.GT):
            mapped = REAL_TO_FIXEDPOINT.map_operator(op)
            return build.bv_compare(mapped, new_args[0], new_args[1])
        if op is Op.ADD:
            result = new_args[0]
            for arg in new_args[1:]:
                self._overflow_guard(Op.BVSADDO, result, arg)
                result = build.bv_binary(Op.BVADD, result, arg)
            return result
        if op is Op.SUB:
            result = new_args[0]
            for arg in new_args[1:]:
                self._overflow_guard(Op.BVSSUBO, result, arg)
                result = build.bv_binary(Op.BVSUB, result, arg)
            return result
        if op is Op.MUL:
            result = new_args[0]
            for arg in new_args[1:]:
                result = self._mul(result, arg)
            return result
        if op is Op.RDIV:
            return self._div(new_args[0], new_args[1])
        if op is Op.NEG:
            self._add_guard(build.Not(build.BVNegO(new_args[0])))
            return build.BVNeg(new_args[0])
        if op is Op.EQ:
            return build.Eq(new_args[0], new_args[1])
        if op is Op.DISTINCT:
            return build.Distinct(*new_args)
        if op is Op.ITE:
            return build.Ite(new_args[0], new_args[1], new_args[2])
        if op in (Op.NOT, Op.AND, Op.OR, Op.XOR, Op.IMPLIES):
            rebuilt = {
                Op.NOT: lambda a: build.Not(a[0]),
                Op.AND: lambda a: build.And(*a),
                Op.OR: lambda a: build.Or(*a),
                Op.XOR: lambda a: build.Xor(*a),
                Op.IMPLIES: lambda a: build.Implies(a[0], a[1]),
            }[op]
            return rebuilt(new_args)
        raise TransformError(f"real transformation cannot handle {op}")


def _transform_assertions(script, transformer):
    from repro.smtlib.terms import map_terms

    return map_terms(script.assertions, transformer.transform_node)


def transform_script(script, theory, width=None, shape=None):
    """Translate an unbounded script to a bounded one.

    Args:
        script: the original unbounded script.
        theory: ``"int"`` or ``"real"``.
        width: bitvector width (int case; required).
        shape: :class:`FixedPointShape` (real case; required).

    Returns:
        A :class:`TransformResult`.

    Raises:
        TransformError: a constant does not fit the chosen bounds, or an
            operator is outside the supported fragment.
    """
    if theory == "int":
        if width is None:
            raise TransformError("integer transformation needs a width")
        transformer = _IntTransformer(width)
        correspondence = INT_TO_BITVECTOR
        result_shape = None
    else:
        if shape is None:
            raise TransformError("real transformation needs a fixed-point shape")
        transformer = _RealTransformer(shape)
        correspondence = REAL_TO_FIXEDPOINT
        width = shape.width
        result_shape = shape

    new_assertions = _transform_assertions(script, transformer)
    bounded = Script(logic="QF_BV")
    for assertion in new_assertions:
        bounded.add_assertion(assertion)
    for guard in transformer.guards:
        bounded.add_assertion(guard)
    return TransformResult(
        bounded,
        theory,
        width,
        result_shape,
        len(transformer.guards),
        getattr(transformer, "inexact_constants", False),
        correspondence,
    )
