"""Nonlinear integer arithmetic solving (the expensive baseline).

Satisfiability of QF_NIA is undecidable, so like every real solver this
engine is incomplete: it combines

- HC4 interval contraction (:mod:`repro.arith.contractor`),
- branch-and-prune search over integer boxes, and
- *magnitude deepening* for variables the contraction leaves unbounded:
  the box ``[-B, B]^n`` is searched for an escalating schedule of B.

``unsat`` is reported only when it is sound: the initial contraction
already bounded every variable, so the finite search was exhaustive, or
contraction proved emptiness outright. Otherwise an exhausted search
yields ``unknown`` -- exactly the behaviour the paper ascribes to
unbounded-theory solvers, and the reason theory arbitrage has room to win.
"""

from repro import guard, telemetry
from repro.arith.contractor import Box, Contractor, literals_to_atoms
from repro.arith.interval import Interval
from repro.errors import ReproError, SolverError, UnsupportedLogicError
from repro.smtlib.evaluator import evaluate
from repro.smtlib.sorts import INT


class ArithResult:
    """Outcome of a theory-solver query.

    Attributes:
        status: "sat" / "unsat" / "unknown".
        model: name -> int/Fraction when sat.
        work: deterministic work units spent.
    """

    __slots__ = ("status", "model", "work")

    def __init__(self, status, model=None, work=0):
        self.status = status
        self.model = model
        self.work = work

    def __repr__(self):
        return f"ArithResult({self.status}, work={self.work})"


#: Magnitude-deepening schedule: successive |x| <= B boxes.
DEEPENING_SCHEDULE = (8, 64, 1024, 1 << 16, 1 << 24, 1 << 40, 1 << 64)

#: Enumerate a box exhaustively once it has at most this many points.
ENUMERATION_LIMIT = 32


class NiaSolver:
    """Branch-and-prune NIA solver for conjunctions of literals."""

    def __init__(self, literals, declarations, enumeration_limit=ENUMERATION_LIMIT):
        self.literals = list(literals)
        self.declarations = dict(declarations)
        self.enumeration_limit = enumeration_limit
        atoms, residual = literals_to_atoms(self.literals)
        if residual:
            raise UnsupportedLogicError(
                f"NIA conjunction solver got non-arithmetic literals: {residual[:3]}"
            )
        self.atoms = atoms
        self.work = 0
        self._names = sorted(
            name for name, sort in self.declarations.items() if sort is INT
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

    # -- exact point checking ----------------------------------------------

    def _check_point(self, assignment):
        self.work += self._literal_cost
        try:
            return all(evaluate(literal, assignment) for literal in self.literals)
        except ReproError as error:
            # Taxonomy errors (e.g. an unevaluable operator) become a
            # structured solver failure; genuine bugs propagate raw.
            telemetry.counter_add("solver.internal_error", engine="nia")
            raise SolverError(f"point evaluation failed: {error}") from error

    def _enumerate(self, box):
        """Try every integer point of a small box."""
        names = self._names
        rounded = [box.get(name).round_to_integer() for name in names]
        if any(interval.is_empty for interval in rounded):
            return None
        ranges = [
            range(int(interval.lo), int(interval.hi) + 1) for interval in rounded
        ]
        assignment = {}

        def recurse(index):
            if index == len(names):
                return self._check_point(dict(assignment))
            for value in ranges[index]:
                assignment[names[index]] = value
                if recurse(index + 1):
                    return True
            return False

        if recurse(0):
            return dict(assignment)
        return None

    # -- search -------------------------------------------------------------

    def _search_box(self, initial_box, budget):
        """Exhaustive branch-and-prune within a bounded box.

        Returns ("sat", model), ("unsat", None), or ("unknown", None) when
        the budget ran out.
        """
        contractor = self._new_contractor()
        governor = guard.active()
        stack = [initial_box]
        while stack:
            if budget is not None and self.work + contractor.work > budget:
                self.work += contractor.work
                return "unknown", None
            if governor.interrupted("nia") or not governor.memory_ok(len(stack), "nia"):
                self.work += contractor.work
                return "unknown", None
            box = stack.pop()
            contracted = contractor.contract(box)
            if contracted is None:
                continue
            count = contracted.volume_bound(self.enumeration_limit)
            if count is not None:
                model = self._enumerate(contracted)
                if model is not None:
                    self.work += contractor.work
                    return "sat", model
                continue
            name = contracted.widest_variable()
            if name is None:
                # All points (should have been enumerable); fall back.
                model = self._enumerate(contracted)
                self.work += contractor.work
                if model is not None:
                    return "sat", model
                return "unsat", None
            left, right = contracted.get(name).round_to_integer().split_integer()
            for half in (right, left):
                if not half.is_empty:
                    child = contracted.copy()
                    child.set(name, half)
                    stack.append(child)
        self.work += contractor.work
        return "unsat", None

    def solve(self, budget=None):
        """Decide the conjunction. Returns an :class:`ArithResult`."""
        if not self._names:
            # Ground conjunction: just evaluate.
            if self._check_point({}):
                return ArithResult("sat", {}, self.work)
            return ArithResult("unsat", None, self.work)

        top = Box({name: Interval.top() for name in self._names})
        contractor = self._new_contractor()
        contracted = contractor.contract(top)
        self.work += contractor.work
        if contracted is None:
            return ArithResult("unsat", None, self.work)

        fully_bounded = all(
            contracted.get(name).is_bounded for name in self._names
        )
        if fully_bounded:
            status, model = self._search_box(contracted, budget)
            return ArithResult(status, model, self.work)

        # Magnitude deepening over the unbounded directions.
        for bound in DEEPENING_SCHEDULE:
            box = contracted.copy()
            for name in self._names:
                clipped = box.get(name).intersect(Interval(-bound, bound))
                if clipped.is_empty:
                    # The contracted interval lies entirely outside
                    # [-B, B]; keep the original and let the next
                    # deepening level reach it.
                    continue
                box.set(name, clipped)
            if any(not box.get(name).is_bounded for name in self._names):
                continue
            status, model = self._search_box(box, budget)
            if status == "sat":
                return ArithResult("sat", model, self.work)
            if status == "unknown":
                return ArithResult("unknown", None, self.work)
            if budget is not None and self.work > budget:
                return ArithResult("unknown", None, self.work)
        # Search exhausted the schedule without finding a model; since the
        # domain is genuinely unbounded this proves nothing.
        return ArithResult("unknown", None, self.work)


def solve_nia_conjunction(literals, declarations, budget=None):
    """Convenience wrapper around :class:`NiaSolver`."""
    return NiaSolver(literals, declarations).solve(budget)
