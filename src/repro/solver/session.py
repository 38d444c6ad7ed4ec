"""Incremental solving sessions: push/pop scopes over one persistent engine.

A :class:`Session` is the native counterpart of SMT-LIB's assertion
stack: ``push``/``pop``/``reset-assertions`` manipulate scopes, and every
``check-sat`` answers for the conjunction of the *live* assertions.

The point of a session -- and the reason clients like the termination
driver stream fifty queries through one -- is that bounded scopes are
*retractable assumption slices* over one long-lived
:class:`~repro.bv.solver.BoundedEngine` (:func:`check_scopes`):

- Each asserted term is bit-blasted exactly once
  (:meth:`~repro.bv.bitblast.BitBlaster.blast_bool` yields a Tseitin
  output literal; passing that literal as a SAT *assumption* is
  equivalent to asserting the term as a unit clause).
- Popping a scope simply drops its literals from the next check's
  assumption set; the CNF stays, so re-pushing the same formula later
  costs nothing to encode.
- Learned clauses are consequences of the clause database alone (never
  of the assumptions), so they soundly survive every pop.
- A conflict at decision level 0 is permanent: once the hard clauses
  are contradictory, every later check answers ``unsat`` without a
  search (see :meth:`repro.sat.solver.SatSolver.okay`).

Sessions over unbounded theories fall back to a scratch
:func:`~repro.solver.facade.solve_script` of the flattened scope stack
-- byte-identical to the non-incremental path (this is also the
differential-fuzzing oracle in ``tests/test_session.py``). The
scope-aware STAUB lane lives in :mod:`repro.core.session`.

Caching uses :class:`~repro.cache.keys.ScopeKeyChain` prefix digests, so
two sessions reaching the same scope stack through any interleaving of
push/pop share entries. Resource exhaustion and injected chaos faults
degrade to structured ``unknown`` results that never poison the cache
and never wedge the session.
"""

from repro import cache as solve_cache
from repro import guard, telemetry
from repro.bv.solver import BLAST_WORK_PER_CLAUSE, BoundedEngine
from repro.cache.keys import ScopeKeyChain, assertion_digest
from repro.cache.store import entry_from_result, result_from_entry
from repro.errors import BudgetExceeded, SessionError, SmtLibError
from repro.guard import chaos
from repro.guard.chaos import ChaosCrash
from repro.smtlib.script import Script
from repro.smtlib.sorts import BOOL
from repro.solver import costs
from repro.solver.facade import solve_script
from repro.solver.result import SAT, UNKNOWN, UNSAT, SolveResult
from repro.telemetry.stats import unified_stats


def check_scopes(engine, scopes, declarations, budget):
    """Solve a live scope stack on a long-lived :class:`BoundedEngine`.

    Every live term's Tseitin output literal is one assumption of the
    check; a popped term's literal is simply left out, so its CNF stays
    (inert) and re-pushing it later costs nothing to encode.

    Returns:
        ``(result, core)``: a :class:`~repro.solver.result.SolveResult`
        and, after an assumption-driven unsat, the live terms whose
        literals are in the final conflict (the assertion-level unsat
        core); None after any other outcome -- in particular after a
        root conflict, whose empty conflict has no attributable subset.
    """
    engine.declarations = declarations
    if guard.active().interrupted("session"):
        return SolveResult(
            UNKNOWN, None, 0, engine="bv-session", stats=unified_stats()
        ), None
    clauses_before = engine.cnf_clauses
    owners = engine.owners((term, term) for scope in scopes for term in scope)
    new_clauses = engine.cnf_clauses - clauses_before
    blast_work = BLAST_WORK_PER_CLAUSE * new_clauses
    if new_clauses:
        with telemetry.span("blast", incremental=True) as span:
            span.add_work(blast_work)
    check = engine.check(
        owners, max_work=None if budget is None else budget - blast_work
    )
    if check.root:
        # Permanent root UNSAT: no amount of popping can retract a hard
        # contradiction, so every check from here on is answered without
        # a search.
        telemetry.counter_add("session.root_unsat")
    result = SolveResult(
        check.status,
        check.model,
        costs.from_sat(blast_work + check.work),
        engine="bv-session",
        stats=unified_stats(
            cnf_vars=engine.cnf_vars,
            cnf_clauses=engine.cnf_clauses,
            assumed=len(owners),
            reused_clauses=check.reused,
            new_clauses=new_clauses,
            root_conflict=check.root,
            **check.search,
        ),
    )
    return result, check.core


class Session:
    """An SMT-LIB assertion-stack session over the native solver stack.

    Args:
        profile: solver profile for unbounded checks.
        budget: default unified work budget per ``check-sat``.
        cache: a :class:`~repro.cache.SolveCache` overriding the active
            process-wide cache.

    Declarations are *global* (they survive ``pop`` and
    ``reset-assertions``), matching SMT-LIB's
    ``:global-declarations true`` -- the only declaration semantics this
    fragment supports, documented in the parser.
    """

    def __init__(self, profile="zorro", budget=None, cache=None):
        self.profile = profile
        self.budget = budget
        self.cache = cache
        self.declarations = {}
        self._scopes = [[]]
        self._chain = ScopeKeyChain()
        self._engine = None  # the BoundedEngine every bounded check reuses
        self._digest_memo = {}  # term tid -> canonical assertion digest
        #: After a check the engine answered unsat: the live terms whose
        #: assumption literals appear in the final conflict (the
        #: assertion-level unsat core). None after any other check -- in
        #: particular after a root conflict, which has no attributable
        #: assertion subset.
        self.last_core_terms = None
        self.counters = {
            "push": 0,
            "pop": 0,
            "reset": 0,
            "check_sat": 0,
            "cache_hits": 0,
            "core_hits": 0,
            "backend_checks": 0,
            "fallback_checks": 0,
            "work": 0,
        }

    # -- scope stack -------------------------------------------------------

    @property
    def depth(self):
        """Number of pushed scopes (the root scope is depth 0)."""
        return len(self._scopes) - 1

    def push(self, count=1):
        if count < 0:
            raise SessionError(f"push takes a non-negative count, got {count}")
        for _ in range(count):
            self._scopes.append([])
        self._chain.push(count)
        self.counters["push"] += count
        telemetry.counter_add("session.push", count)

    def pop(self, count=1):
        if count < 0:
            raise SessionError(f"pop takes a non-negative count, got {count}")
        if count > self.depth:
            raise SessionError(
                f"pop {count} below assertion-stack depth {self.depth}"
            )
        if count:
            del self._scopes[len(self._scopes) - count:]
            self._chain.pop(count)
        self.counters["pop"] += count
        telemetry.counter_add("session.pop", count)

    def reset_assertions(self):
        """Drop every scope and every assertion; keep declarations and
        the engine (its term cache makes re-assertion free)."""
        self._scopes = [[]]
        self._chain.reset()
        self.counters["reset"] += 1
        telemetry.counter_add("session.reset")

    def declare(self, name, sort):
        existing = self.declarations.get(name)
        if existing is None:
            self.declarations[name] = sort
        elif existing is not sort:
            raise SmtLibError(
                f"variable {name} redeclared with sort {sort}, was {existing}"
            )

    def assert_term(self, term):
        """Assert a boolean term in the current (top) scope."""
        if term.sort is not BOOL:
            raise SmtLibError(
                f"asserted term has sort {term.sort}, expected Bool"
            )
        for name, var in term.variables().items():
            self.declare(name, var.sort)
        self._scopes[-1].append(term)
        self._chain.add_assertion(term)

    def assertions(self):
        """The live assertions, outermost scope first."""
        return [term for scope in self._scopes for term in scope]

    def flattened_script(self):
        """The current stack as one flat script (the scratch-equivalent
        question; also what the differential fuzzer re-solves)."""
        script = Script(declarations=self.declarations, assertions=self.assertions())
        script.logic = script.infer_logic()
        return script

    # -- solving -----------------------------------------------------------

    @property
    def _bounded(self):
        return all(sort.is_bounded for sort in self.declarations.values())

    def check_sat(self, budget=None):
        """Answer sat/unsat/unknown for the live assertion stack.

        Bounded stacks run on the long-lived engine (see :func:`check_scopes`);
        unbounded ones fall back to a scratch solve of the flattened
        script (identical to the non-incremental path, cached under its
        canonical key by the facade itself).
        """
        budget = self.budget if budget is None else budget
        self.counters["check_sat"] += 1
        self.last_core_terms = None
        telemetry.counter_add("session.check_sat")
        if not self._bounded:
            self.counters["fallback_checks"] += 1
            result = solve_script(
                self.flattened_script(),
                budget=budget,
                profile=self.profile,
                cache=self.cache,
            )
            self.counters["work"] += result.work
            return result

        store = self.cache if self.cache is not None else solve_cache.get_cache()
        key = None
        if store is not None:
            key = self._chain.key(
                self.declarations, profile=self.profile, budget=budget
            )
            entry = store.get(key)
            if entry is not None:
                self.counters["cache_hits"] += 1
                telemetry.counter_add("session.cache_hit")
                return result_from_entry(entry)
            if store.has_cores():
                # Scope-prefix miss: subsumption works on the *flattened*
                # digest set, so a core learned under any scope chain (or
                # from a flat script) can still answer this stack.
                digests = self._live_digests()
                if digests and store.find_core(digests, kind="session") is not None:
                    self.counters["core_hits"] += 1
                    telemetry.counter_add("session.core_hit")
                    return SolveResult(
                        UNSAT,
                        None,
                        0,
                        engine="core-reuse",
                        stats=unified_stats(core_reuse=True),
                        cached=True,
                    )

        result, tainted = self._check_bounded(budget)
        self.counters["backend_checks"] += 1
        self.counters["work"] += result.work
        if store is not None and result.status != UNKNOWN and not tainted:
            try:
                store.put(key, entry_from_result(result), kind="session")
            except TypeError:
                pass  # model value with no JSON encoding: don't cache it
            if result.status == UNSAT and self.last_core_terms:
                store.add_core(
                    frozenset(self._digest(term) for term in self.last_core_terms),
                    kind="session",
                )
        return result

    def _digest(self, term):
        digest = self._digest_memo.get(term.tid)
        if digest is None:
            digest = self._digest_memo[term.tid] = assertion_digest(term)
        return digest

    def _live_digests(self):
        """Canonical digest set of the flattened live assertion stack."""
        return frozenset(
            self._digest(term) for scope in self._scopes for term in scope
        )

    def _check_bounded(self, budget):
        """One check on the long-lived engine, inside a fresh governor.

        Returns ``(result, tainted)`` where ``tainted`` marks results
        shaped by wall-clock exhaustion or injected faults -- those must
        never be cached (they would poison every warm rerun).
        """
        outer = guard.active()
        governor = guard.ResourceBudget(
            work=budget, parent=outer if outer is not guard.NULL_GOVERNOR else None
        )
        plan = chaos.active()
        injected_before = plan.total_injected if plan is not None else 0
        with telemetry.span("session.check", depth=self.depth) as span:
            with guard.activate(governor):
                try:
                    chaos.inject(
                        "session.check_sat", salt=str(self.depth), governor=governor
                    )
                    if self._engine is None:
                        self._engine = BoundedEngine(self.declarations)
                    result, self.last_core_terms = check_scopes(
                        self._engine, self._scopes, self.declarations, budget
                    )
                except ChaosCrash:
                    telemetry.counter_add("session.chaos_crash")
                    result = SolveResult(
                        UNKNOWN,
                        None,
                        0,
                        engine="bv-session",
                        stats=unified_stats(
                            gave_up="session", gave_up_reason="chaos-crash"
                        ),
                    )
                except BudgetExceeded as error:
                    # Safety net, mirroring the facade: exhaustion is a
                    # structured unknown, and the session stays usable.
                    layer = getattr(error, "layer", None) or "session"
                    governor.note_give_up(layer, "work")
                    result = SolveResult(
                        UNKNOWN,
                        None,
                        getattr(error, "spent", 0) or 0,
                        engine="bv-session",
                        stats=unified_stats(
                            gave_up=layer, gave_up_reason=governor.reason
                        ),
                    )
            span.set_attr("status", result.status)
            span.settle(result.work)
        if governor.work_limit is not None:
            governor.spent += result.work
        if governor.gave_up_layer is not None:
            result.stats.setdefault("gave_up", governor.gave_up_layer)
            result.stats.setdefault("gave_up_reason", governor.reason)
        injected = plan is not None and plan.total_injected != injected_before
        # "parent" covers an enclosing governor's deadline or cancellation
        # tripping the per-check budget from outside.
        tainted = injected or governor.reason in ("deadline", "cancelled", "parent")
        return result, tainted


def open_session(profile="zorro", budget=None, cache=None):
    """Convenience constructor mirroring :func:`solve_script`'s surface."""
    return Session(profile=profile, budget=budget, cache=cache)


def run_script_session(script, profile="zorro", budget=None, cache=None,
                       session=None):
    """Replay an incremental script's command stream on one session.

    Args:
        script: a parsed :class:`~repro.smtlib.script.Script` whose
            :attr:`~repro.smtlib.script.Script.commands` drive the
            session (push/pop/reset-assertions/assert/check-sat).
        session: an existing :class:`Session` to continue, or None for a
            fresh one.

    Returns:
        ``(results, session)`` -- one
        :class:`~repro.solver.result.SolveResult` per ``check-sat``, in
        script order.
    """
    if session is None:
        session = Session(profile=profile, budget=budget, cache=cache)
    results = []
    for command in script.commands:
        name = command.name
        if name in ("declare-fun", "declare-const"):
            session.declare(command.args[0], command.args[1])
        elif name == "assert":
            session.assert_term(command.args[0])
        elif name == "push":
            session.push(command.args[0])
        elif name == "pop":
            session.pop(command.args[0])
        elif name == "reset-assertions":
            session.reset_assertions()
        elif name == "check-sat":
            results.append(session.check_sat())
        # set-logic / set-info / get-model / exit: no session effect.
    return results, session
