"""End-to-end bounded-constraint solving: blast, solve, reconstruct.

This is the "cheap side" of the theory arbitrage: a bounded script (Bool
and bitvector variables) is bit-blasted into CNF and handed to the CDCL
core. Statistics and the deterministic work counter flow back out so the
evaluation harness can measure T_post reproducibly.

Every bounded solve runs on a :class:`BoundedEngine`: blast once, then
solve under a list of assumption literals. A one-shot solve checks once:
with a solve cache attached it searches under one literal per assertion,
so an unsat answer carries the core the cache stores (the core falls out
of the one search, as in Cache-a-lot); uncached, it asserts hard clauses.
A budget-bound verdict or a sat model may differ between the two.
Sessions keep one engine alive and check it under whatever literals are
live.
"""

from collections import namedtuple

from repro import guard, telemetry
from repro.bv.bitblast import BitBlaster
from repro.errors import UnsupportedLogicError
from repro.sat.solver import SAT, UNSAT, SatSolver
from repro.telemetry.stats import unified_stats


class BoundedResult:
    """Outcome of solving a bounded script.

    Attributes:
        status: ``"sat"``, ``"unsat"``, or ``"unknown"``.
        model: name -> value dict (BVValue / bool) when sat, else None.
        work: deterministic work units spent (SAT search + blast size).
        stats: raw :class:`~repro.sat.solver.SatStats`.
        cnf_vars / cnf_clauses: size of the blasted CNF.
        core: sorted indices of the assertions in the final conflict of
            an unsat search under per-assertion literals, else None.
    """

    def __init__(self, status, model, work, stats, cnf_vars, cnf_clauses, core=None):
        self.status = status
        self.model = model
        self.work = work
        self.stats = stats
        self.cnf_vars = cnf_vars
        self.cnf_clauses = cnf_clauses
        self.core = core

    def stats_dict(self):
        """The uniform counter dict for this solve (telemetry shape)."""
        return unified_stats(
            cnf_vars=self.cnf_vars,
            cnf_clauses=self.cnf_clauses,
            **self.stats.as_dict(),
        )

    def __repr__(self):
        return f"BoundedResult({self.status}, work={self.work})"


#: Work units charged per CNF clause produced by bit-blasting; encoding
#: cost is part of T_post just as it is inside a real solver.
BLAST_WORK_PER_CLAUSE = 1


#: What one :meth:`BoundedEngine.check` found.
#:
#: - ``status``: ``"sat"``, ``"unsat"``, or ``"unknown"``;
#: - ``model``: name -> value over the engine's declarations when sat;
#: - ``core``: after unsat, the owners of the assumption literals in the
#:   final conflict; None when no assumption took part (a root conflict)
#:   and after sat or unknown;
#: - ``root``: True when the hard clauses were already contradictory, so
#:   the check answered unsat without a search;
#: - ``work``: solver work this check did (attaching its new clauses,
#:   then the search);
#: - ``reused``: learned clauses retained when the search started;
#: - ``search``: the solver's counters over the search alone.
BoundedCheck = namedtuple(
    "BoundedCheck",
    "status model core root work reused search",
)


class BoundedEngine:
    """A bit-blaster and the SAT solver attached to its arena.

    The CNF only grows. A term blasted hard (see :meth:`blast`) is a
    hard clause; a term's literal passed to :meth:`check` (see
    :meth:`owners`) is a retractable assumption: leaving it out of the
    next check leaves its clauses inert, so learned clauses
    (consequences of the clause database alone) survive every check.

    Args:
        declarations: name -> sort of the variables a model covers, kept
            by reference (see :attr:`declarations`).

    Raises:
        UnsupportedLogicError: a variable is not Bool or bitvector
            sorted (FP solving goes through the fixed-point encoding).
    """

    def __init__(self, declarations):
        self.declarations = declarations
        self.blaster = BitBlaster()
        # Structure sharing: the solver watches the blaster's arena
        # blocks in place; _sync attaches new blocks without copying.
        self.solver = SatSolver(cnf=self.blaster.cnf)
        self._synced = 0
        self.checks = 0

    @property
    def declarations(self):
        """name -> sort of the variables a model covers.

        Assigning checks every sort, so a caller whose declarations grow
        re-assigns them before each check.
        """
        return self._declarations

    @declarations.setter
    def declarations(self, declarations):
        for name, sort in declarations.items():
            if not (sort.is_bool or sort.is_bv):
                raise UnsupportedLogicError(
                    f"bounded solver cannot handle variable {name} of sort {sort}"
                )
        self._declarations = declarations

    @property
    def cnf_vars(self):
        return self.blaster.cnf.num_vars

    @property
    def cnf_clauses(self):
        return len(self.blaster.cnf)

    @property
    def pending_clauses(self):
        """Clauses blasted since the last attach; the next check attaches
        them."""
        return len(self.blaster.cnf) - self._synced

    @property
    def permanently_unsat(self):
        """True once the hard (assumption-free) clauses are contradictory.

        No assumption set can help then; every later check answers unsat
        without a search (see :meth:`repro.sat.solver.SatSolver.okay`).
        """
        return not self.solver.okay()

    def owners(self, pairs):
        """Group ``(term, owner)`` pairs by the term's Tseitin output
        literal, in order.

        The result is what :meth:`check` takes: assumption literal ->
        every owner standing for it (terms that blast to one literal
        share one assumption and are all named in a core). Each term is
        blasted once: the blaster memoizes every term it has seen.
        """
        owners = {}
        for term, owner in pairs:
            owners.setdefault(self.blaster.blast_bool(term), []).append(owner)
        return owners

    def blast(self, assertions, label, assume=False, **attrs):
        """Blast terms into a fresh engine, billed to a ``blast`` span.

        Each term becomes hard clauses, or with ``assume`` an assumption
        literal owned by its index (see :meth:`owners`), so a check under
        the returned owners reports an assertion-index core. The span and
        the returned blast work cover every clause in the CNF. ``label``
        tags the ``blast.*`` counters; ``attrs`` are the span's attributes.

        Returns:
            ``(blast_work, owners)``; ``owners`` is empty for hard clauses.
        """
        owners = {}
        with telemetry.span("blast", **attrs) as span:
            if assume:
                owners = self.owners(
                    (term, index) for index, term in enumerate(assertions)
                )
            else:
                for assertion in assertions:
                    self.blaster.assert_term(assertion)
            blast_work = BLAST_WORK_PER_CLAUSE * self.cnf_clauses
            span.add_work(blast_work)
        if telemetry.enabled:
            telemetry.record_counters(
                {
                    "cnf_vars": self.cnf_vars,
                    "cnf_clauses": self.cnf_clauses,
                    **self.blaster.stats.as_dict(),
                },
                prefix="blast",
                engine=label,
            )
        return blast_work, owners

    def _sync(self):
        """Attach the pending clauses in place."""
        cnf = self.blaster.cnf
        if self.pending_clauses:
            self.solver.attach(start=self._synced)
            self._synced = len(cnf)
        if self.solver.num_vars < cnf.num_vars:
            self.solver.grow_to(cnf.num_vars)

    def check(self, owners, max_work=None):
        """Solve under the assumption literals that key ``owners``.

        Args:
            owners: assumption literal -> list of its owners, in
                assumption order (see :meth:`owners`); empty for a solve
                of the hard clauses alone.
            max_work: search budget. Work spent attaching clauses inside
                this check is deducted from it first; a caller that
                attaches with :meth:`_sync` beforehand keeps attaching
                outside its budget.

        Returns:
            A :data:`BoundedCheck`.
        """
        self.checks += 1
        solver = self.solver
        base_work = solver.work()
        self._sync()
        reused = solver.learned_count()
        before = solver.stats.as_dict()
        status, core, root = UNSAT, None, self.permanently_unsat
        if not root:
            sat_budget = None
            if max_work is not None:
                sat_budget = max(0, max_work - (solver.work() - base_work))
            status = solver.solve(assumptions=list(owners), max_work=sat_budget)
            if status == UNSAT:
                # final_conflict() holds the negations of the failing
                # assumption literals; it is empty when the search hit a
                # root conflict, which has no assumption core.
                failed = set(solver.final_conflict())
                core = [
                    owner
                    for literal, owned in owners.items()
                    if -literal in failed
                    for owner in owned
                ] or None
        after = solver.stats.as_dict()
        model = None
        if status == SAT:
            sat_model = solver.model()
            model = {
                name: self.blaster.extract_value(name, sort, sat_model)
                for name, sort in self.declarations.items()
            }
        return BoundedCheck(
            status,
            model,
            core,
            root,
            solver.work() - base_work,
            reused,
            {key: after[key] - before[key] for key in after},
        )


def solve_bounded_script(script, max_work=None, core=False):
    """Solve a script whose variables are all Bool or bitvector sorted.

    Args:
        script: a :class:`~repro.smtlib.script.Script`.
        max_work: deterministic work budget; exhaustion gives ``unknown``.
        core: search under one assumption literal per assertion instead
            of hard clauses, so an unsat answer carries its core
            (``BoundedResult.core``); callers with a solve cache pass True.

    Returns:
        A :class:`BoundedResult`.

    Raises:
        UnsupportedLogicError: the script has unbounded or FP variables
            (FP solving goes through the fixed-point encoding instead).
    """
    engine = BoundedEngine(script.declarations)
    if guard.active().interrupted("bv"):
        # The envelope is already exhausted (deadline/cancellation):
        # don't even pay for blasting.
        return BoundedResult("unknown", None, 0, engine.solver.stats, 0, 0)

    blast_work, owners = engine.blast(script.assertions, "bv", assume=core)
    # A one-shot solve attaches outside its search budget.
    engine._sync()
    check = engine.check(
        owners, max_work=None if max_work is None else max_work - blast_work
    )
    return BoundedResult(
        check.status,
        check.model,
        blast_work + engine.solver.work(),
        engine.solver.stats,
        engine.cnf_vars,
        engine.cnf_clauses,
        None if check.core is None else tuple(sorted(check.core)),
    )


def assertion_core_digests(script, indices):
    """Canonical digest set of the script's assertions at ``indices``."""
    from repro.cache.keys import assertion_digest

    return frozenset(assertion_digest(script.assertions[i]) for i in indices)
