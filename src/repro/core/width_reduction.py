"""Bitvector width reduction (Section 6.4's proposed extension).

The paper suggests applying the bound-inference idea to constraints that
are *already* bounded: shrink a wide bitvector constraint to a narrower
width, solve the cheap narrow version, and verify the model against the
original semantics -- the same underapproximate-then-check contract, with
sign-extension as phi inverse. (Cf. Jonas & Strejcek's width reduction,
which the paper cites as evidence the idea helps.)

Only uniform-width scripts over the arithmetic/comparison fragment are
reduced; any structural operator tied to the width (extract, concat,
extensions, shifts) makes the reduction unsound-to-attempt, and the
reducer reports failure instead.
"""

from repro.bv.solver import solve_bounded_script
from repro.errors import TransformError
from repro.smtlib import build
from repro.smtlib.evaluator import evaluate_assertions
from repro.smtlib.script import Script
from repro.smtlib.sorts import BOOL, bv_sort
from repro.smtlib.terms import Op, Term, map_terms
from repro.smtlib.values import BVValue
from repro.solver import costs

#: Operators safe to re-width (width-polymorphic, value-semantics ones).
_REDUCIBLE_OPS = {
    Op.CONST, Op.VAR, Op.NOT, Op.AND, Op.OR, Op.XOR, Op.IMPLIES, Op.ITE,
    Op.EQ, Op.DISTINCT,
    Op.BVNOT, Op.BVAND, Op.BVOR, Op.BVXOR, Op.BVNEG, Op.BVADD, Op.BVSUB,
    Op.BVMUL, Op.BVSDIV, Op.BVSREM, Op.BVSMOD, Op.BVABS,
    Op.BVULT, Op.BVULE, Op.BVUGT, Op.BVUGE,
    Op.BVSLT, Op.BVSLE, Op.BVSGT, Op.BVSGE,
    Op.BVSADDO, Op.BVUADDO, Op.BVSSUBO, Op.BVUSUBO, Op.BVSMULO,
    Op.BVUMULO, Op.BVSDIVO, Op.BVNEGO,
}


class WidthReductionResult:
    """Outcome of a reduce-solve-verify run.

    Attributes:
        case: "verified-sat" / "reduced-unsat" / "reduction-failed" /
            "unknown".
        model: a model of the ORIGINAL script when verified.
        original_width / reduced_width: the widths involved.
        work: unified work spent on the reduced solve + verification.
    """

    def __init__(self, case, model, original_width, reduced_width, work):
        self.case = case
        self.model = model
        self.original_width = original_width
        self.reduced_width = reduced_width
        self.work = work

    @property
    def usable(self):
        return self.case == "verified-sat"

    def __repr__(self):
        return (
            f"WidthReductionResult({self.case}, "
            f"{self.original_width}->{self.reduced_width})"
        )


def _uniform_width(script):
    widths = {
        sort.width for sort in script.declarations.values() if sort.is_bv
    }
    if len(widths) != 1:
        raise TransformError(
            "width reduction needs a uniform-width bitvector script"
        )
    return widths.pop()


def reduce_script(script, new_width):
    """Rebuild a QF_BV script at a narrower width.

    Constants must fit the narrow width *signed* (otherwise the reduction
    is refused -- a constant that cannot be represented makes the whole
    attempt pointless).

    Raises:
        TransformError: non-uniform widths, width-dependent operators, or
            unrepresentable constants.
    """
    original_width = _uniform_width(script)
    if new_width >= original_width:
        raise TransformError("new width must be strictly narrower")

    def rebuild(term, new_args):
        if term.op not in _REDUCIBLE_OPS:
            raise TransformError(
                f"operator {term.op} blocks width reduction"
            )
        if term.op is Op.CONST:
            if isinstance(term.value, BVValue):
                signed = term.value.signed
                half = 1 << (new_width - 1)
                if not -half <= signed < half:
                    raise TransformError(
                        f"constant {signed} does not fit width {new_width}"
                    )
                return build.BitVecConst(signed, new_width)
            return term
        if term.op is Op.VAR:
            if term.sort.is_bv:
                return build.BitVecVar(term.name, new_width)
            return term
        new_sort = term.sort if term.sort is BOOL else bv_sort(new_width)
        return Term(term.op, tuple(new_args), term.payload, new_sort)

    reduced_assertions = map_terms(script.assertions, rebuild)
    reduced = Script(logic="QF_BV")
    for assertion in reduced_assertions:
        reduced.add_assertion(assertion)
    return reduced, original_width


def reduce_and_solve(script, new_width, budget=None):
    """The full reduce-solve-verify pipeline for bounded constraints.

    Returns:
        A :class:`WidthReductionResult`. A ``reduced-unsat`` outcome says
        nothing about the original (underapproximation); callers revert.
    """
    try:
        reduced, original_width = reduce_script(script, new_width)
    except TransformError:
        return WidthReductionResult("reduction-failed", None, None, new_width, 0)

    outcome = solve_bounded_script(reduced, max_work=budget)
    work = costs.from_sat(outcome.work)
    if outcome.status == "unknown":
        return WidthReductionResult("unknown", None, original_width, new_width, work)
    if outcome.status == "unsat":
        return WidthReductionResult(
            "reduced-unsat", None, original_width, new_width, work
        )

    # Sign-extend the narrow model back to the original width (phi
    # inverse) and verify under the original semantics.
    model = {}
    for name, value in outcome.model.items():
        if isinstance(value, BVValue):
            model[name] = BVValue(value.signed, original_width)
        else:
            model[name] = value
    work += costs.from_interval(sum(a.size() for a in script.assertions))
    if evaluate_assertions(script.assertions, model):
        return WidthReductionResult(
            "verified-sat", model, original_width, new_width, work
        )
    return WidthReductionResult(
        "semantic-difference", None, original_width, new_width, work
    )

