"""Nonlinear real arithmetic via interval constraint propagation.

A dReal-style branch-and-prune loop over rational boxes: contract with
HC4, split the widest interval, and at small widths try to promote the
numeric box to an *exact* rational model (midpoint, endpoints, and the
simplest rational in the interval via Stern--Brocot search). NRA is
decidable in theory (CAD), but practical engines behave just like this:
strong on robust instances, prone to giving up on degenerate ones --
which is the behaviour the paper's QF_NRA rows reflect.
"""

from fractions import Fraction

from repro import guard
from repro.arith.contractor import Box, Contractor, literals_to_atoms
from repro.arith.interval import Interval
from repro.arith.nia import ArithResult
from repro.errors import UnsupportedLogicError
from repro.smtlib.evaluator import evaluate
from repro.smtlib.sorts import REAL

#: Stop splitting an interval once it is this narrow.
DEFAULT_EPSILON = Fraction(1, 1 << 12)

#: Magnitude deepening schedule for unbounded directions.
DEEPENING_SCHEDULE = (4, 64, 4096, 1 << 20)


def simplest_rational_between(lo, hi):
    """The rational with the smallest denominator in ``[lo, hi]``.

    Stern--Brocot / continued-fraction construction; both endpoints are
    inclusive. This is how the ICP loop recovers exact witnesses like
    ``1/3`` from a numeric enclosure.
    """
    lo = Fraction(lo)
    hi = Fraction(hi)
    if lo > hi:
        raise ValueError("empty interval")
    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:
        return -simplest_rational_between(-hi, -lo)
    # 0 < lo <= hi: walk the continued fraction expansion.
    floor_lo = lo.numerator // lo.denominator
    if floor_lo + 1 <= hi:
        return Fraction(floor_lo if floor_lo >= lo else floor_lo + 1)
    if lo.denominator == 1:
        return lo
    fractional = simplest_rational_between(
        Fraction(1) / (hi - floor_lo), Fraction(1) / (lo - floor_lo)
    )
    return floor_lo + Fraction(1) / fractional


class NraSolver:
    """Branch-and-prune NRA solver for conjunctions of literals."""

    def __init__(self, literals, declarations, epsilon=DEFAULT_EPSILON):
        self.literals = list(literals)
        self.declarations = dict(declarations)
        self.epsilon = Fraction(epsilon)
        atoms, residual = literals_to_atoms(self.literals)
        if residual:
            raise UnsupportedLogicError(
                f"NRA conjunction solver got non-arithmetic literals: {residual[:3]}"
            )
        self.atoms = atoms
        self.work = 0
        self._names = sorted(
            name for name, sort in self.declarations.items() if sort is REAL
        )
        self._literal_cost = sum(literal.size() for literal in self.literals)
        self._contractors = []

    def _new_contractor(self):
        contractor = Contractor(self.atoms)
        self._contractors.append(contractor)
        return contractor

    def stats(self):
        """Uniform engine counters (see :mod:`repro.telemetry.stats`)."""
        return {
            "contractions": sum(c.contractions for c in self._contractors),
            "interval_evals": sum(c.work for c in self._contractors),
        }

    def _check_point(self, assignment):
        self.work += self._literal_cost
        return all(evaluate(literal, assignment) for literal in self.literals)

    def _candidate_points(self, interval):
        """Exact rational candidates inside an interval, as ``Fraction``s
        (a Real model value is a ``Fraction`` even when it is integral)."""
        candidates = []
        if interval.lo is not None and interval.hi is not None:
            candidates.append(simplest_rational_between(interval.lo, interval.hi))
        candidates.append(interval.midpoint())
        if interval.lo is not None:
            candidates.append(interval.lo)
        if interval.hi is not None:
            candidates.append(interval.hi)
        unique = []
        for value in candidates:
            value = Fraction(value)
            if value not in unique and interval.contains(value):
                unique.append(value)
        return unique

    def _try_box(self, box):
        """Attempt to promote a narrow box to an exact model."""
        per_variable = [self._candidate_points(box.get(name)) for name in self._names]
        # Cap the cartesian product to keep point testing cheap.
        total = 1
        for candidates in per_variable:
            total *= len(candidates)
        if total > 64:
            per_variable = [candidates[:2] for candidates in per_variable]

        assignment = {}

        def recurse(index):
            if index == len(self._names):
                return self._check_point(dict(assignment))
            for value in per_variable[index]:
                assignment[self._names[index]] = value
                if recurse(index + 1):
                    return True
            return False

        if recurse(0):
            return dict(assignment)
        return None

    def _narrow_enough(self, box):
        for name in self._names:
            width = box.get(name).width()
            if width is None or width > self.epsilon:
                return False
        return True

    def _search_box(self, initial_box, budget):
        contractor = self._new_contractor()
        governor = guard.active()
        stack = [initial_box]
        gave_up = False
        while stack:
            if budget is not None and self.work + contractor.work > budget:
                self.work += contractor.work
                return "unknown", None
            if governor.interrupted("nra") or not governor.memory_ok(len(stack), "nra"):
                self.work += contractor.work
                return "unknown", None
            box = stack.pop()
            contracted = contractor.contract(box)
            if contracted is None:
                continue
            model = self._try_box(contracted)
            if model is not None:
                self.work += contractor.work
                return "sat", model
            if self._narrow_enough(contracted):
                # Numerically satisfiable but no exact witness surfaced:
                # a delta-sat box. We cannot conclude either way.
                gave_up = True
                continue
            name = contracted.widest_variable()
            if name is None:
                gave_up = True
                continue
            left, right = contracted.get(name).split()
            for half in (right, left):
                child = contracted.copy()
                child.set(name, half)
                stack.append(child)
        self.work += contractor.work
        return ("unknown" if gave_up else "unsat"), None

    def solve(self, budget=None):
        """Decide the conjunction; returns an :class:`ArithResult`."""
        if not self._names:
            if self._check_point({}):
                return ArithResult("sat", {}, self.work)
            return ArithResult("unsat", None, self.work)

        top = Box({name: Interval.top() for name in self._names})
        contractor = self._new_contractor()
        contracted = contractor.contract(top)
        self.work += contractor.work
        if contracted is None:
            return ArithResult("unsat", None, self.work)

        fully_bounded = all(contracted.get(name).is_bounded for name in self._names)
        if fully_bounded:
            status, model = self._search_box(contracted, budget)
            return ArithResult(status, model, self.work)

        for bound in DEEPENING_SCHEDULE:
            box = contracted.copy()
            for name in self._names:
                clipped = box.get(name).intersect(Interval(-bound, bound))
                if not clipped.is_empty:
                    box.set(name, clipped)
            if any(not box.get(name).is_bounded for name in self._names):
                continue
            status, model = self._search_box(box, budget)
            if status == "sat":
                return ArithResult("sat", model, self.work)
            if status == "unknown" and budget is not None and self.work > budget:
                return ArithResult("unknown", None, self.work)
        return ArithResult("unknown", None, self.work)


def solve_nra_conjunction(literals, declarations, budget=None):
    """Convenience wrapper around :class:`NraSolver`."""
    return NraSolver(literals, declarations).solve(budget)
