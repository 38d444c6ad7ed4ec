"""Shell-enumeration NIA engine (the ``corvus`` profile's baseline).

A deliberately simpler decision strategy than the branch-and-prune engine:
after one interval-contraction pass (for cheap unsat detection), it
enumerates integer assignments in expanding max-norm shells
``max(|x_i|) = 0, 1, 2, ...`` and tests each point exactly.

This models a solver whose nonlinear engine relies on model search rather
than propagation: complete-in-the-limit for satisfiable instances but with
cost exponential in the magnitude of the smallest solution -- which is the
behaviour the paper observes for CVC5 on QF_NIA (thousands of timeouts
that theory arbitrage then renders tractable).
"""

import itertools

from repro import guard
from repro.arith.contractor import Box, Contractor, literals_to_atoms
from repro.arith.interval import Interval
from repro.arith.nia import ArithResult
from repro.errors import UnsupportedLogicError
from repro.smtlib.evaluator import evaluate
from repro.smtlib.sorts import INT


class NiaEnumSolver:
    """Magnitude-shell enumeration for conjunctions of NIA literals."""

    def __init__(self, literals, declarations):
        self.literals = list(literals)
        self.declarations = dict(declarations)
        atoms, residual = literals_to_atoms(self.literals)
        if residual:
            raise UnsupportedLogicError(
                f"NIA enumeration solver got non-arithmetic literals: {residual[:3]}"
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

    def _check_point(self, assignment):
        self.work += self._literal_cost
        return all(evaluate(literal, assignment) for literal in self.literals)

    def _shell_points(self, radius):
        """All integer points with max-norm exactly ``radius``."""
        names = self._names
        if radius == 0:
            yield {name: 0 for name in names}
            return
        for values in _shell(len(names), radius):
            yield dict(zip(names, values))

    def solve(self, budget=None):
        """Enumerate shells until a model is found or the budget dies."""
        if not self._names:
            if self._check_point({}):
                return ArithResult("sat", {}, self.work)
            return ArithResult("unsat", None, self.work)

        # One contraction pass on the unbounded box: catches structurally
        # unsatisfiable input (x*x < 0) the way a real solver's
        # preprocessing would.
        contractor = self._new_contractor()
        top = Box({name: Interval.top() for name in self._names})
        contracted = contractor.contract(top)
        self.work += contractor.work
        if contracted is None:
            return ArithResult("unsat", None, self.work)

        bounded = all(contracted.get(name).is_bounded for name in self._names)
        governor = guard.active()
        radius = 0
        while True:
            in_range = False
            for point in self._shell_points(radius):
                # Skip points outside the contracted box cheaply.
                self.work += len(self._names)
                if any(
                    not contracted.get(name).contains(value)
                    for name, value in point.items()
                ):
                    continue
                in_range = True
                if self._check_point(point):
                    return ArithResult("sat", point, self.work)
                if budget is not None and self.work > budget:
                    return ArithResult("unknown", None, self.work)
                if governor.interrupted("nia-enum"):
                    return ArithResult("unknown", None, self.work)
            if budget is not None and self.work > budget:
                return ArithResult("unknown", None, self.work)
            if governor.interrupted("nia-enum"):
                return ArithResult("unknown", None, self.work)
            if bounded and not in_range and radius > self._max_radius(contracted):
                # The whole contracted box has been enumerated.
                return ArithResult("unsat", None, self.work)
            radius += 1

    def _max_radius(self, box):
        radius = 0
        for name in self._names:
            interval = box.get(name)
            radius = max(radius, abs(int(interval.lo)), abs(int(interval.hi)))
        return radius


def _shell(dimension, radius):
    """The ``dimension``-tuples over ``[-radius, radius]`` (radius > 0)
    with some entry of magnitude ``radius``, in ``itertools.product``
    order: a tuple whose first entry is inside the shell needs the rest
    of it on the shell, one whose first entry is on it takes any rest."""
    if dimension == 0:
        return
    span = range(-radius, radius + 1)
    for first in span:
        if first in (-radius, radius):
            rests = itertools.product(span, repeat=dimension - 1)
        else:
            rests = _shell(dimension - 1, radius)
        for rest in rests:
            yield (first,) + rest


def solve_nia_enum_conjunction(literals, declarations, budget=None):
    """Convenience wrapper around :class:`NiaEnumSolver`."""
    return NiaEnumSolver(literals, declarations).solve(budget)
