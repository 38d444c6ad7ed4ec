"""HC4-style constraint propagation over term DAGs.

Given a conjunction of arithmetic literals and a box (variable name ->
:class:`~repro.arith.interval.Interval`), the contractor runs the classic
forward-backward sweep:

- *forward*: evaluate an interval for every node bottom-up;
- *backward*: starting from the constraint's truth requirement, narrow the
  intervals of subterms top-down, intersecting variable boxes.

All rules are conservative, so a contracted box never loses a solution --
that soundness is what the ICP solvers rely on and what the property
tests assert.
"""

from repro import guard, telemetry
from repro.arith.interval import EMPTY, Interval
from repro.errors import SolverError
from repro.smtlib.sorts import INT
from repro.smtlib.terms import Op

#: Atom relations after negation elimination.
LE, LT, GE, GT, EQ, NE = "le", "lt", "ge", "gt", "eq", "ne"

_FLIP = {LE: GE, LT: GT, GE: LE, GT: LT, EQ: EQ, NE: NE}
_NEGATE = {LE: GT, LT: GE, GE: LT, GT: LE, EQ: NE, NE: EQ}


class Atom:
    """A normalized arithmetic literal: ``left <relation> right``."""

    __slots__ = ("relation", "left", "right")

    def __init__(self, relation, left, right):
        self.relation = relation
        self.left = left
        self.right = right

    def negated(self):
        return Atom(_NEGATE[self.relation], self.left, self.right)

    def __repr__(self):
        return f"Atom({self.left!r} {self.relation} {self.right!r})"


_OP_TO_RELATION = {Op.LE: LE, Op.LT: LT, Op.GE: GE, Op.GT: GT, Op.EQ: EQ}

#: Revision passes over every atom before :meth:`Contractor.contract`
#: stops short of a fixpoint.
CONTRACT_PASSES = 8


def atom_from_term(term, polarity=True):
    """Build an :class:`Atom` from a comparison/equality term.

    Returns None if the term is not an arithmetic atom (e.g. a boolean
    variable or a bitvector comparison).
    """
    relation = _OP_TO_RELATION.get(term.op)
    if relation is None:
        return None
    left, right = term.args
    if not (left.sort.is_int or left.sort.is_real):
        return None
    atom = Atom(relation, left, right)
    return atom if polarity else atom.negated()


class Box:
    """An immutable-ish mapping from variable name to interval."""

    __slots__ = ("intervals",)

    def __init__(self, intervals):
        self.intervals = dict(intervals)

    def copy(self):
        return Box(self.intervals)

    def get(self, name):
        return self.intervals.get(name, Interval.top())

    def set(self, name, interval):
        self.intervals[name] = interval

    @property
    def is_empty(self):
        return any(interval.is_empty for interval in self.intervals.values())

    def widest_variable(self):
        """Variable with the largest width; unbounded beats bounded.

        Point intervals are excluded. Returns None when every interval is
        a point (the box is fully decided).
        """
        best_name = None
        best_width = -1
        for name in sorted(self.intervals):
            interval = self.intervals[name]
            if interval.is_point or interval.is_empty:
                continue
            width = interval.width()
            if width is None:
                return name
            if width > best_width:
                best_width = width
                best_name = name
        return best_name

    def volume_bound(self, limit):
        """Integer-point count if below ``limit``, else None.

        Only meaningful for all-integer boxes.
        """
        total = 1
        for interval in self.intervals.values():
            count = interval.integer_count()
            if count is None:
                return None
            total *= max(count, 1)
            if total > limit:
                return None
        return total

    def __repr__(self):
        inner = ", ".join(f"{k}: {v}" for k, v in sorted(self.intervals.items()))
        return f"Box({inner})"


class Contractor:
    """Forward-backward contraction for a fixed set of atoms.

    Attributes:
        work: interval-node evaluations performed (virtual cost).
        contractions: forward-backward sweeps run (calls to
            :meth:`contract`).
    """

    def __init__(self, atoms):
        self.atoms = list(atoms)
        self.work = 0
        self.contractions = 0
        self._post_orders = {}  # term id -> the term's subterms, post-order

    def _is_int(self, term):
        return term.sort is INT

    # -- forward ---------------------------------------------------------

    def _forward(self, term, box, memo):
        order = self._post_orders.get(term.tid)
        if order is None:
            order = self._post_orders[term.tid] = list(term.subterms())
        for sub in order:
            if sub.tid in memo:
                continue
            self.work += 1
            memo[sub.tid] = self._forward_node(sub, box, memo)
        return memo[term.tid]

    def _forward_node(self, term, box, memo):
        op = term.op
        if op is Op.CONST:
            if isinstance(term.value, bool):
                return Interval.top()
            return Interval.point(term.value)
        if op is Op.VAR:
            if term.sort.is_int or term.sort.is_real:
                interval = box.get(term.name)
                if term.sort is INT:
                    interval = interval.round_to_integer()
                return interval
            return Interval.top()
        args = [memo[a.tid] for a in term.args]
        if op is Op.ADD:
            result = args[0]
            for arg in args[1:]:
                result = result + arg
            return result
        if op is Op.SUB:
            result = args[0]
            for arg in args[1:]:
                result = result - arg
            return result
        if op is Op.MUL:
            # Group identical factors so that x*x is evaluated as a square
            # ([0, hi]) rather than a generic product ([-lo*hi, ...]).
            result = Interval.point(1)
            for tid, count in _factor_groups(term.args).items():
                result = result * memo[tid].power(count)
            return result
        if op is Op.NEG:
            return -args[0]
        if op is Op.ABS:
            return args[0].abs()
        if op is Op.RDIV:
            return args[0].divide(args[1])
        if op is Op.IDIV:
            quotient = args[0].divide(args[1])
            if quotient.is_empty:
                return EMPTY
            # Euclidean division differs from exact division by at most 1.
            widened = quotient + Interval(-1, 1)
            return widened.round_to_integer()
        if op is Op.MOD:
            divisor = args[1].abs()
            if divisor.hi is None:
                upper = None
            else:
                upper = max(divisor.hi - 1, 0)
            result = Interval(0, upper)
            # Total semantics: mod by zero returns the dividend.
            if args[1].contains(0):
                result = result.hull(args[0])
            return result
        if op is Op.ITE:
            return args[1].hull(args[2])
        if op is Op.TO_REAL:
            return args[0]
        if op is Op.TO_INT:
            lo = None
            hi = None
            if args[0].lo is not None:
                lo = args[0].lo.numerator // args[0].lo.denominator
            if args[0].hi is not None:
                hi = args[0].hi.numerator // args[0].hi.denominator
            if args[0].is_empty:
                return EMPTY
            return Interval(lo, hi)
        # Boolean-sorted operators inside ite conditions etc.
        return Interval.top()

    # -- backward -----------------------------------------------------------

    def _narrow(self, term, interval, box, memo, queue):
        if term.sort is INT:
            interval = interval.round_to_integer()
        current = memo.get(term.tid, Interval.top())
        narrowed = current.intersect(interval)
        if narrowed.is_empty:
            memo[term.tid] = EMPTY
            raise _EmptyBox
        if narrowed == current:
            return
        memo[term.tid] = narrowed
        if term.is_var:
            box.set(term.name, narrowed)
        else:
            queue.append(term)

    def _backward_node(self, term, box, memo, queue):
        """Push the node's (already narrowed) interval down to its args."""
        op = term.op
        target = memo[term.tid]
        args = term.args
        self.work += 1
        if op is Op.ADD:
            self._backward_sum(args, [memo[a.tid] for a in args], target, box, memo, queue, signs=None)
            return
        if op is Op.SUB:
            signs = [1] + [-1] * (len(args) - 1)
            self._backward_sum(args, [memo[a.tid] for a in args], target, box, memo, queue, signs=signs)
            return
        if op is Op.NEG:
            self._narrow(args[0], -target, box, memo, queue)
            return
        if op is Op.MUL:
            groups = _factor_groups(args)
            representatives = {a.tid: a for a in args}
            for tid, count in groups.items():
                others = Interval.point(1)
                for other_tid, other_count in groups.items():
                    if other_tid != tid:
                        others = others * memo[other_tid].power(other_count)
                # base**count must lie in target/others; take the count-th
                # root preimage (exact for x*x-style squares). This is the
                # relational inverse of multiplication, not SMT-LIB total
                # division: when the other factors admit zero and the
                # target admits zero, this factor is unconstrained
                # (0 * anything = 0), so do not narrow it.
                if others.contains(0) and target.contains(0):
                    continue
                power_target = target.divide(others)
                self._narrow(
                    representatives[tid], power_target.root(count), box, memo, queue
                )
            return
        if op is Op.ABS:
            value = memo[args[0].tid]
            hi = target.hi
            candidate = Interval(None if hi is None else -hi, hi)
            # Refine using the sign of the argument when it is known.
            if value.lo is not None and value.lo >= 0:
                candidate = target
            elif value.hi is not None and value.hi <= 0:
                candidate = -target
            self._narrow(args[0], candidate, box, memo, queue)
            return
        if op is Op.RDIV:
            numerator, denominator = args
            denominator_value = memo[denominator.tid]
            # target = n / d  =>  n = target * d (valid when d avoids 0).
            if not denominator_value.contains(0):
                self._narrow(numerator, target * denominator_value, box, memo, queue)
            return
        if op is Op.TO_REAL:
            self._narrow(args[0], target, box, memo, queue)
            return
        # IDIV / MOD / ITE / TO_INT: no (or unsound-to-attempt) narrowing.

    def _backward_sum(self, args, values, target, box, memo, queue, signs):
        count = len(args)
        if signs is None:
            signs = [1] * count
        # prefix[i] = signed sum of values[:i], suffix[i] = of values[i+1:].
        prefix = [Interval.point(0)]
        for value, sign in zip(values, signs):
            term_value = value if sign > 0 else -value
            prefix.append(prefix[-1] + term_value)
        suffix = [Interval.point(0)] * (count + 1)
        for index in range(count - 1, -1, -1):
            term_value = values[index] if signs[index] > 0 else -values[index]
            suffix[index] = suffix[index + 1] + term_value
        for index, arg in enumerate(args):
            rest = prefix[index] + suffix[index + 1]
            wanted = target - rest
            if signs[index] < 0:
                wanted = -wanted
            self._narrow(arg, wanted, box, memo, queue)

    # -- atom revision --------------------------------------------------------

    def _revise(self, atom, box):
        """One forward-backward sweep for a single atom.

        Returns False if the atom is certainly violated on the box.
        """
        memo = {}
        left = self._forward(atom.left, box, memo)
        right = self._forward(atom.right, box, memo)
        if left.is_empty or right.is_empty:
            return False
        relation = atom.relation
        integer = self._is_int(atom.left)

        if relation == NE:
            if left.certainly_eq(right):
                return False
            if integer:
                # Narrow when one side is a point at the other's endpoint.
                self._revise_ne_integer(atom, left, right, box, memo)
            return True

        if relation in (GE, GT):
            atom = Atom(_FLIP[relation], atom.right, atom.left)
            left, right = right, left
            relation = atom.relation

        if relation == EQ:
            meet = left.intersect(right)
            if meet.is_empty:
                return False
            try:
                queue = []
                self._narrow(atom.left, meet, box, memo, queue)
                self._narrow(atom.right, meet, box, memo, queue)
                self._drain(queue, box, memo)
            except _EmptyBox:
                return False
            return True

        # relation is LE or LT: left <= right (strict handled for ints).
        if relation == LT and left.certainly_eq(right):
            return False
        if not (left.possibly_lt(right) if relation == LT else left.possibly_le(right)):
            return False
        offset = 1 if (relation == LT and integer) else 0
        left_cap = Interval(None, right.hi - offset if right.hi is not None else None)
        right_floor = Interval(left.lo + offset if left.lo is not None else None, None)
        try:
            queue = []
            self._narrow(atom.left, left_cap, box, memo, queue)
            self._narrow(atom.right, right_floor, box, memo, queue)
            self._drain(queue, box, memo)
        except _EmptyBox:
            return False
        return True

    def _revise_ne_integer(self, atom, left, right, box, memo):
        """Integer disequality: peel a point endpoint off the other side."""
        for side, value, other in (
            (atom.left, left, right),
            (atom.right, right, left),
        ):
            if other.is_point and value.lo is not None and value.lo == other.lo:
                try:
                    self._narrow(
                        side, Interval(value.lo + 1, value.hi), box, memo, []
                    )
                except _EmptyBox:
                    pass
            if other.is_point and value.hi is not None and value.hi == other.lo:
                try:
                    self._narrow(
                        side, Interval(value.lo, value.hi - 1), box, memo, []
                    )
                except _EmptyBox:
                    pass

    def _drain(self, queue, box, memo):
        while queue:
            term = queue.pop()
            self._backward_node(term, box, memo, queue)

    def contract(self, box):
        """Run atom revision to a (bounded) fixpoint.

        Returns the contracted box, or None when some atom is certainly
        violated (the box contains no solution).
        """
        self.contractions += 1
        if telemetry.enabled:
            telemetry.counter_add("solver.contractions", engine="icp")
        box = box.copy()
        governor = guard.active()
        for _ in range(CONTRACT_PASSES):
            if governor.interrupted("contractor"):
                # Best-effort: the passes already run keep the box sound
                # (contraction only narrows), so returning early is safe.
                break
            before = dict(box.intervals)
            for atom in self.atoms:
                if not self._revise(atom, box):
                    return None
                if box.is_empty:
                    return None
            if box.intervals == before:
                break
        return box


def _factor_groups(args):
    """Multiset of factor term ids: tid -> multiplicity."""
    groups = {}
    for arg in args:
        groups[arg.tid] = groups.get(arg.tid, 0) + 1
    return groups


class _EmptyBox(Exception):
    """Internal: contraction emptied an interval."""


def split_conjunction(term):
    """Flatten nested conjunctions into a literal list."""
    literals = []
    stack = [term]
    while stack:
        current = stack.pop()
        if current.op is Op.AND:
            stack.extend(current.args)
        else:
            literals.append(current)
    return literals


def literals_to_atoms(literals):
    """Convert theory literals to atoms.

    Handles one level of negation. Returns (atoms, residual) where
    residual contains literals that are not arithmetic atoms (boolean
    structure the caller must deal with).
    """
    atoms = []
    residual = []
    for literal in literals:
        polarity = True
        core = literal
        while core.op is Op.NOT:
            polarity = not polarity
            core = core.args[0]
        if core.op is Op.DISTINCT and (
            core.args[0].sort.is_int or core.args[0].sort.is_real
        ):
            if polarity:
                for i in range(len(core.args)):
                    for j in range(i + 1, len(core.args)):
                        atoms.append(Atom(NE, core.args[i], core.args[j]))
                continue
            if len(core.args) == 2:
                atoms.append(Atom(EQ, core.args[0], core.args[1]))
                continue
            # not (distinct a b c ...) is a disjunction of equalities;
            # leave it to the boolean layer.
            residual.append(literal)
            continue
        atom = atom_from_term(core, polarity)
        if atom is None:
            if core.is_const and bool(core.value) == polarity:
                continue  # literally true
            residual.append(literal)
        else:
            atoms.append(atom)
    return atoms, residual
