"""Exact general simplex for linear real arithmetic.

Implements the Dutertre--de Moura "general simplex" used inside DPLL(T)
solvers: variables carry lower/upper bounds, linear combinations get slack
variables, and a Bland's-rule pivot loop restores feasibility. All
arithmetic is exact (:class:`~fractions.Fraction`); strict inequalities
are handled with delta-rationals (``c + k*delta`` for an infinitesimal
positive delta), so QF_LRA is decided exactly.

Work accounting: every pivot counts toward the deterministic work budget
used by the evaluation harness as its virtual clock.
"""

from fractions import Fraction

from repro import guard, telemetry
from repro.errors import BudgetExceeded


class DeltaRational:
    """A rational plus an infinitesimal: ``value + delta_coefficient * d``.

    Ordering is lexicographic, which models an arbitrarily small positive
    ``d`` exactly.
    """

    __slots__ = ("value", "delta")

    def __init__(self, value, delta=0):
        self.value = Fraction(value)
        self.delta = Fraction(delta)

    def __add__(self, other):
        return DeltaRational(self.value + other.value, self.delta + other.delta)

    def __sub__(self, other):
        return DeltaRational(self.value - other.value, self.delta - other.delta)

    def scale(self, factor):
        factor = Fraction(factor)
        return DeltaRational(self.value * factor, self.delta * factor)

    def _key(self):
        return (self.value, self.delta)

    def __eq__(self, other):
        return isinstance(other, DeltaRational) and self._key() == other._key()

    def __lt__(self, other):
        return self._key() < other._key()

    def __le__(self, other):
        return self._key() <= other._key()

    def __gt__(self, other):
        return self._key() > other._key()

    def __ge__(self, other):
        return self._key() >= other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        if self.delta == 0:
            return str(self.value)
        return f"{self.value}{'+' if self.delta > 0 else ''}{self.delta}d"


class SimplexConflict(Exception):
    """Internal signal: the asserted bounds are infeasible.

    Attributes:
        explanation: indices of the bound assertions involved, when known.
    """

    def __init__(self, explanation=None):
        super().__init__("infeasible bounds")
        self.explanation = explanation or []


class Simplex:
    """A general simplex instance over named variables.

    Typical use::

        simplex = Simplex()
        simplex.assert_constraint({"x": 1, "y": 2}, ">=", Fraction(3))
        simplex.assert_constraint({"x": 1}, "<", Fraction(1))
        if simplex.check():
            model = simplex.model()     # {"x": Fraction, "y": Fraction}
    """

    def __init__(self, work_budget=None):
        self._num_vars = 0
        self._names = {}  # external name -> index
        self._index_names = {}  # index -> external name (structural vars)
        self._rows = {}  # basic index -> {nonbasic index: Fraction}
        self._basic = set()
        self._lower = {}
        self._upper = {}
        self._assignment = {}
        self._slack_forms = {}  # frozen linear form -> slack index
        self._infeasible = False
        self.pivots = 0
        self.work_budget = work_budget
        self._bound_tags = {}  # index -> {('lo'|'hi'): tag}
        # Deep-profile counters, tracked only while telemetry is enabled
        # and flushed as deltas by check(); they never affect solving.
        self.bound_asserts = 0
        self.bound_updates = 0
        self._recorded = (0, 0)

    # -- variables --------------------------------------------------------

    def _new_index(self):
        index = self._num_vars
        self._num_vars += 1
        self._assignment[index] = DeltaRational(0)
        return index

    def variable(self, name):
        """Index of the structural variable ``name`` (created on demand)."""
        index = self._names.get(name)
        if index is None:
            index = self._new_index()
            self._names[name] = index
            self._index_names[index] = name
        return index

    def _slack_for(self, coefficients):
        """Slack variable for a linear combination (shared per form)."""
        form = tuple(sorted(coefficients.items()))
        slack = self._slack_forms.get(form)
        if slack is not None:
            return slack
        slack = self._new_index()
        row = {}
        value = DeltaRational(0)
        for name, coefficient in coefficients.items():
            index = self.variable(name)
            if index in self._basic:
                for other, factor in self._rows[index].items():
                    updated = row.get(other, Fraction(0)) + coefficient * factor
                    if updated:
                        row[other] = updated
                    else:
                        row.pop(other, None)
            else:
                updated = row.get(index, Fraction(0)) + Fraction(coefficient)
                if updated:
                    row[index] = updated
                else:
                    row.pop(index, None)
        for other, factor in row.items():
            value = value + self._assignment[other].scale(factor)
        self._rows[slack] = row
        self._basic.add(slack)
        self._assignment[slack] = value
        self._slack_forms[form] = slack
        return slack

    # -- bound assertion ----------------------------------------------------

    def assert_constraint(self, coefficients, relation, constant, tag=None):
        """Assert ``sum coefficients . vars  <relation>  constant``.

        relation is one of ``<=``, ``<``, ``>=``, ``>``, ``=``.
        ``tag`` labels the assertion for conflict explanations.

        Raises:
            SimplexConflict: the new bound contradicts an existing one
                directly (full conflicts can also surface later in check()).
        """
        if telemetry.enabled:
            self.bound_asserts += 1
        if len(coefficients) == 1:
            ((name, coefficient),) = coefficients.items()
            index = self.variable(name)
            constant = Fraction(constant) / Fraction(coefficient)
            if Fraction(coefficient) < 0:
                relation = {"<=": ">=", "<": ">", ">=": "<=", ">": "<", "=": "="}[relation]
        else:
            index = self._slack_for(coefficients)
            constant = Fraction(constant)
        if relation in ("<=", "<"):
            bound = DeltaRational(constant, -1 if relation == "<" else 0)
            self._assert_upper(index, bound, tag)
        elif relation in (">=", ">"):
            bound = DeltaRational(constant, 1 if relation == ">" else 0)
            self._assert_lower(index, bound, tag)
        else:
            self._assert_upper(index, DeltaRational(constant), tag)
            self._assert_lower(index, DeltaRational(constant), tag)

    def _tags_for(self, index):
        return self._bound_tags.setdefault(index, {})

    def _assert_upper(self, index, bound, tag):
        current = self._upper.get(index)
        if current is not None and current <= bound:
            return
        lower = self._lower.get(index)
        if lower is not None and bound < lower:
            self._infeasible = True
            raise SimplexConflict(
                [t for t in (self._tags_for(index).get("lo"), tag) if t is not None]
            )
        self._upper[index] = bound
        if tag is not None:
            self._tags_for(index)["hi"] = tag
        if index not in self._basic and self._assignment[index] > bound:
            self._update(index, bound)

    def _assert_lower(self, index, bound, tag):
        current = self._lower.get(index)
        if current is not None and current >= bound:
            return
        upper = self._upper.get(index)
        if upper is not None and bound > upper:
            self._infeasible = True
            raise SimplexConflict(
                [t for t in (self._tags_for(index).get("hi"), tag) if t is not None]
            )
        self._lower[index] = bound
        if tag is not None:
            self._tags_for(index)["lo"] = tag
        if index not in self._basic and self._assignment[index] < bound:
            self._update(index, bound)

    def _update(self, index, value):
        if telemetry.enabled:
            self.bound_updates += 1
        delta = value - self._assignment[index]
        for basic in self._basic:
            coefficient = self._rows[basic].get(index)
            if coefficient:
                self._assignment[basic] = self._assignment[basic] + delta.scale(coefficient)
        self._assignment[index] = value

    # -- pivoting ------------------------------------------------------------

    def _pivot(self, leaving, entering):
        """Make ``entering`` basic in place of ``leaving``."""
        row = self._rows.pop(leaving)
        self._basic.discard(leaving)
        pivot_coefficient = row.pop(entering)
        # leaving = sum(row) + pivot_coefficient * entering
        # => entering = (leaving - sum(row)) / pivot_coefficient
        new_row = {leaving: Fraction(1) / pivot_coefficient}
        for other, factor in row.items():
            new_row[other] = -factor / pivot_coefficient
        self._rows[entering] = new_row
        self._basic.add(entering)
        for basic in list(self._basic):
            if basic is entering:
                continue
            factor = self._rows[basic].pop(entering, None)
            if factor is None:
                continue
            target = self._rows[basic]
            for other, inner in new_row.items():
                updated = target.get(other, Fraction(0)) + factor * inner
                if updated:
                    target[other] = updated
                else:
                    target.pop(other, None)

    def _pivot_and_update(self, leaving, entering, value):
        coefficient = self._rows[leaving][entering]
        theta = (value - self._assignment[leaving]).scale(Fraction(1) / coefficient)
        self._assignment[leaving] = value
        self._assignment[entering] = self._assignment[entering] + theta
        for basic in self._basic:
            if basic == leaving:
                continue
            factor = self._rows[basic].get(entering)
            if factor:
                self._assignment[basic] = self._assignment[basic] + theta.scale(factor)
        self._pivot(leaving, entering)
        self.pivots += 1
        if self.work_budget is not None and self.pivots > self.work_budget:
            raise BudgetExceeded(self.pivots, self.work_budget, layer="simplex")
        if guard.active().interrupted("simplex"):
            raise BudgetExceeded(self.pivots, self.work_budget, layer="simplex")

    def check(self):
        """Restore feasibility. True if a model exists, False otherwise.

        Raises:
            BudgetExceeded: the pivot budget ran out (virtual timeout).
        """
        if not telemetry.enabled:
            return self._check()
        before = self.pivots
        try:
            return self._check()
        finally:
            asserts_done, updates_done = self._recorded
            telemetry.record_counters(
                {
                    "pivots": self.pivots - before,
                    "checks": 1,
                    "bound_asserts": self.bound_asserts - asserts_done,
                    "bound_updates": self.bound_updates - updates_done,
                },
                engine="simplex",
            )
            self._recorded = (self.bound_asserts, self.bound_updates)

    def _check(self):
        """The Bland's-rule pivot loop behind :meth:`check`."""
        if self._infeasible:
            return False
        while True:
            violated = None
            need_increase = False
            for basic in sorted(self._basic):  # Bland's rule: smallest index
                value = self._assignment[basic]
                lower = self._lower.get(basic)
                upper = self._upper.get(basic)
                if lower is not None and value < lower:
                    violated, need_increase, target = basic, True, lower
                    break
                if upper is not None and value > upper:
                    violated, need_increase, target = basic, False, upper
                    break
            if violated is None:
                return True
            row = self._rows[violated]
            entering = None
            for nonbasic in sorted(row):
                coefficient = row[nonbasic]
                value = self._assignment[nonbasic]
                upper = self._upper.get(nonbasic)
                lower = self._lower.get(nonbasic)
                if need_increase:
                    can_help = (coefficient > 0 and (upper is None or value < upper)) or (
                        coefficient < 0 and (lower is None or value > lower)
                    )
                else:
                    can_help = (coefficient > 0 and (lower is None or value > lower)) or (
                        coefficient < 0 and (upper is None or value < upper)
                    )
                if can_help:
                    entering = nonbasic
                    break
            if entering is None:
                self._infeasible = True
                return False
            self._pivot_and_update(violated, entering, target)

    # -- models ----------------------------------------------------------------

    def _delta_upper_bound(self):
        """A concrete positive value for the infinitesimal ``d``.

        For every bound ``a + b*d  <=  c + e*d`` that currently holds in
        delta-rational arithmetic, choose d small enough that it also holds
        over plain rationals.
        """
        candidates = []
        for index in range(self._num_vars):
            value = self._assignment[index]
            for bound, is_lower in ((self._lower.get(index), True), (self._upper.get(index), False)):
                if bound is None:
                    continue
                difference = (value - bound) if is_lower else (bound - value)
                # difference = p + q*d >= 0 in delta arithmetic; if q < 0 we
                # need d <= p / (-q).
                if difference.delta < 0 and difference.value > 0:
                    candidates.append(Fraction(difference.value, -difference.delta))
        if not candidates:
            return Fraction(1)
        return min(min(candidates) / 2, Fraction(1))

    def model(self):
        """Concrete rational values for every structural variable."""
        delta = self._delta_upper_bound()
        result = {}
        for name, index in self._names.items():
            value = self._assignment[index]
            result[name] = value.value + value.delta * delta
        return result

