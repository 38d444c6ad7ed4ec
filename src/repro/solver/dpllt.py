"""DPLL(T): CDCL over the boolean skeleton + theory conjunction checks.

The classic lazy-SMT architecture: theory atoms are abstracted to fresh
SAT variables, the boolean structure is Tseitin-encoded, and each boolean
model's implied set of theory literals is checked by a conjunction-level
theory solver. Theory-inconsistent assignments are blocked with a clause
and the loop continues.

Most benchmark constraints are conjunctions, in which case the loop
degenerates to a single theory call -- but full boolean structure
(disjunctions of atoms, ``ite``, ``xor``) is supported, which the
generated "industrial" workloads exercise.
"""

from repro import guard, telemetry
from repro.errors import SolverError
from repro.sat.solver import SAT as SAT_RESULT
from repro.sat.solver import UNKNOWN as SAT_UNKNOWN
from repro.sat.solver import SatSolver
from repro.smtlib import build
from repro.smtlib.sorts import BOOL
from repro.smtlib.terms import Op
from repro.solver.result import SAT, UNKNOWN, UNSAT, SolveResult
from repro.telemetry.stats import merge_stats, unified_stats

#: Safety cap on skeleton/theory iterations of one DPLL(T) solve.
MAX_THEORY_ROUNDS = 2000


class TheoryOutcome(tuple):
    """The DPLL(T) result: unpacks like the historical 4-tuple.

    ``status, model, theory_work, sat_work = solve_with_theory(...)``
    keeps working; the extra :attr:`stats` attribute carries the uniform
    counter dict (skeleton CDCL counters + theory-engine counters +
    ``theory_rounds``).
    """

    def __new__(cls, status, model, theory_work, sat_work, stats=None):
        outcome = super().__new__(cls, (status, model, theory_work, sat_work))
        outcome.stats = stats if stats is not None else unified_stats()
        return outcome

    @property
    def status(self):
        return self[0]

    @property
    def model(self):
        return self[1]

    @property
    def theory_work(self):
        return self[2]

    @property
    def sat_work(self):
        return self[3]

#: Boolean-structure operators: everything below these is a theory atom.
_STRUCTURE_OPS = {Op.NOT, Op.AND, Op.OR, Op.XOR, Op.IMPLIES}


def _is_structure(term):
    if term.op in _STRUCTURE_OPS:
        return True
    if term.op is Op.ITE and term.sort is BOOL:
        return True
    if term.op is Op.EQ and term.args[0].sort is BOOL:
        return True
    return False


class _Skeleton:
    """Tseitin encoding of the boolean structure over theory atoms."""

    def __init__(self):
        self.solver = SatSolver()
        self.atom_vars = {}  # atom term tid -> SAT var
        self.atoms = {}  # SAT var -> atom term
        self._cache = {}  # term tid -> SAT literal

    def _fresh(self):
        return self.solver.new_var()

    def atom_literal(self, term):
        var = self.atom_vars.get(term.tid)
        if var is None:
            var = self._fresh()
            self.atom_vars[term.tid] = var
            self.atoms[var] = term
        return var

    def encode(self, term):
        """Return a SAT literal equivalent to the boolean term."""
        cached = self._cache.get(term.tid)
        if cached is not None:
            return cached
        literal = self._encode_uncached(term)
        self._cache[term.tid] = literal
        return literal

    def _encode_uncached(self, term):
        if term.op is Op.CONST:
            # Encode constants with a forced fresh variable.
            var = self._fresh()
            self.solver.add_clause([var if term.value else -var])
            return var if term.value else -var
        if not _is_structure(term):
            return self.atom_literal(term)
        op = term.op
        if op is Op.NOT:
            return -self.encode(term.args[0])
        if op is Op.AND or op is Op.OR:
            literals = [self.encode(arg) for arg in term.args]
            out = self._fresh()
            if op is Op.AND:
                for literal in literals:
                    self.solver.add_clause([-out, literal])
                self.solver.add_clause([out] + [-l for l in literals])
            else:
                for literal in literals:
                    self.solver.add_clause([out, -literal])
                self.solver.add_clause([-out] + literals)
            return out
        if op is Op.IMPLIES:
            antecedent = self.encode(term.args[0])
            consequent = self.encode(term.args[1])
            out = self._fresh()
            self.solver.add_clause([-out, -antecedent, consequent])
            self.solver.add_clause([out, antecedent])
            self.solver.add_clause([out, -consequent])
            return out
        if op is Op.XOR:
            literal = self.encode(term.args[0])
            for arg in term.args[1:]:
                other = self.encode(arg)
                out = self._fresh()
                self.solver.add_clause([-out, literal, other])
                self.solver.add_clause([-out, -literal, -other])
                self.solver.add_clause([out, -literal, other])
                self.solver.add_clause([out, literal, -other])
                literal = out
            return literal
        if op is Op.EQ:  # boolean iff
            left = self.encode(term.args[0])
            right = self.encode(term.args[1])
            out = self._fresh()
            self.solver.add_clause([-out, -left, right])
            self.solver.add_clause([-out, left, -right])
            self.solver.add_clause([out, left, right])
            self.solver.add_clause([out, -left, -right])
            return out
        if op is Op.ITE:
            condition = self.encode(term.args[0])
            then_lit = self.encode(term.args[1])
            else_lit = self.encode(term.args[2])
            out = self._fresh()
            self.solver.add_clause([-out, -condition, then_lit])
            self.solver.add_clause([-out, condition, else_lit])
            self.solver.add_clause([out, -condition, -then_lit])
            self.solver.add_clause([out, condition, -else_lit])
            return out
        raise SolverError(f"unexpected structural operator {op}")


def solve_with_theory(script, theory_factory, budget=None):
    """Lazy DPLL(T) loop.

    Args:
        script: the input :class:`~repro.smtlib.script.Script`.
        theory_factory: ``(literals, declarations) -> engine`` where engine
            has ``solve(budget) -> ArithResult`` and a raw-unit work field;
            the caller is responsible for unit conversion.
        budget: raw-unit budget passed through to the theory engine and
            (scaled) to the SAT skeleton.

    Returns:
        A :class:`TheoryOutcome` -- unpacks as ``(status, model,
        theory_work, sat_work)`` where theory_work is in the theory
        engine's raw units and sat_work in SAT steps; also carries a
        uniform ``stats`` dict.
    """
    skeleton = _Skeleton()
    for assertion in script.assertions:
        literal = skeleton.encode(assertion)
        skeleton.solver.add_clause([literal])

    theory_work = 0
    rounds = 0
    theory_stats = {}

    def finish(status, model):
        stats = unified_stats(**skeleton.solver.stats.as_dict())
        merge_stats(stats, theory_stats)
        stats["theory_rounds"] = rounds
        if telemetry.enabled:
            telemetry.counter_add("dpllt.rounds", rounds)
            telemetry.counter_add("dpllt.queries", 1)
        return TheoryOutcome(
            status, model, theory_work, skeleton.solver.work(), stats=stats
        )

    governor = guard.active()
    while True:
        rounds += 1
        if rounds > MAX_THEORY_ROUNDS:
            return finish(UNKNOWN, None)
        if governor.interrupted("dpllt"):
            return finish(UNKNOWN, None)
        sat_status = skeleton.solver.solve(max_work=budget)
        if sat_status == SAT_UNKNOWN:
            return finish(UNKNOWN, None)
        if sat_status != SAT_RESULT:
            return finish(UNSAT, None)
        sat_model = skeleton.solver.model()

        literals = []
        blocking = []
        bool_assignment = {}
        for var, atom in skeleton.atoms.items():
            value = sat_model.get(var, False)
            blocking.append(-var if value else var)
            if atom.is_var:
                bool_assignment[atom.name] = value
            else:
                literals.append(atom if value else build.Not(atom))

        remaining = None if budget is None else max(1, budget - theory_work)
        engine = theory_factory(literals, script.declarations)
        outcome = engine.solve(remaining)
        theory_work += outcome.work
        engine_stats = getattr(engine, "stats", None)
        if callable(engine_stats):
            merge_stats(theory_stats, engine_stats())

        if outcome.status == "sat":
            model = dict(outcome.model or {})
            model.update(bool_assignment)
            _complete_model(model, script)
            return finish(SAT, model)
        if outcome.status == "unknown":
            return finish(UNKNOWN, None)
        # Theory-unsat: block this boolean assignment and continue.
        if not blocking:
            return finish(UNSAT, None)
        if not skeleton.solver.add_clause(blocking):
            return finish(UNSAT, None)
        if budget is not None and theory_work >= budget:
            return finish(UNKNOWN, None)


def _complete_model(model, script):
    """Default values for variables the engines never had to mention."""
    from fractions import Fraction

    from repro.smtlib.sorts import INT, REAL
    from repro.smtlib.values import BVValue

    for name, sort in script.declarations.items():
        if name in model:
            continue
        if sort is BOOL:
            model[name] = False
        elif sort is INT:
            model[name] = 0
        elif sort is REAL:
            model[name] = Fraction(0)
        elif sort.is_bv:
            model[name] = BVValue(0, sort.width)
