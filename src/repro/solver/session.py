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

Both session kinds keep their assertions on one :class:`ScopeStack`,
which also builds the scope-prefix cache key, so two sessions reaching
the same scope stack through any interleaving of push/pop share entries.
What a check may store is decided by the one admission rule
(:mod:`repro.cache.admission`): resource exhaustion and injected chaos
faults degrade to structured ``unknown`` results that never poison the
cache and never wedge the session.
"""

import hashlib

from repro import cache as solve_cache
from repro import guard, telemetry
from repro.bv.solver import BLAST_WORK_PER_CLAUSE, BoundedEngine
from repro.cache.admission import CORE_REUSE, Watch, lookup, record
from repro.cache.keys import assertion_digest, canonical_term_text
from repro.cache.store import entry_from_result
from repro.errors import BudgetExceeded, SessionError, SmtLibError
from repro.guard import chaos
from repro.guard.chaos import ChaosCrash
from repro.smtlib.script import Script
from repro.smtlib.sorts import BOOL
from repro.solver import costs
from repro.solver.facade import solve_script
from repro.solver.result import UNKNOWN, SolveResult
from repro.telemetry.stats import unified_stats

#: Root of the scope-prefix key chain. Part of every stored session key:
#: changing it orphans every session entry already on disk.
_KEY_ROOT = "staub-session-v1"


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


class ScopeStack:
    """SMT-LIB's assertion stack: push/pop scopes of live assertions.

    Both session kinds are scope stacks -- :class:`Session` over the
    native solver and :class:`~repro.core.session.ArbitrageSession` over
    theory arbitrage -- so the scopes, their validation, and what the live
    stack means (its terms, flattened script, digest set and cache key)
    are defined here once.

    Declarations are *global* (they survive ``pop`` and
    ``reset-assertions``), matching SMT-LIB's
    ``:global-declarations true`` -- the only declaration semantics this
    fragment supports, documented in the parser.
    """

    def __init__(self):
        self.declarations = {}
        #: The live assertions per scope, outermost first.
        self.scopes = [[]]
        self._chain = [None]  # per scope: its key-chain digest, once computed

    @property
    def depth(self):
        """Number of pushed scopes (the root scope is depth 0)."""
        return len(self.scopes) - 1

    def push(self, count=1):
        if count < 0:
            raise SessionError(f"push takes a non-negative count, got {count}")
        for _ in range(count):
            self.scopes.append([])
            self._chain.append(None)

    def pop(self, count=1):
        if count < 0:
            raise SessionError(f"pop takes a non-negative count, got {count}")
        if count > self.depth:
            raise SessionError(
                f"pop {count} below assertion-stack depth {self.depth}"
            )
        del self.scopes[len(self.scopes) - count:]
        del self._chain[len(self._chain) - count:]

    def reset_assertions(self):
        """Drop every scope and every assertion; keep declarations."""
        self.scopes = [[]]
        self._chain = [None]

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
        self.scopes[-1].append(term)
        self._chain[-1] = None

    def assertions(self):
        """The live assertions, outermost scope first."""
        return [term for scope in self.scopes for term in scope]

    def flattened_script(self):
        """The live stack as one flat script (the scratch-equivalent
        question: what the differential fuzzer re-solves and what
        arbitrage verifies sat answers against)."""
        script = Script(declarations=self.declarations, assertions=self.assertions())
        script.logic = script.infer_logic()
        return script

    def digests(self):
        """Canonical digest set of the flattened live stack."""
        return frozenset(assertion_digest(term) for term in self.assertions())

    def key(self, profile, budget):
        """The scope-prefix cache key for a ``check-sat`` of the live stack.

        Each scope's link is ``H(previous link || sorted set of the
        scope's canonically printed assertions)``, computed lazily and
        kept until the scope changes, so a key after an assertion costs
        only the top scope, and two stacks that reach the same scopes
        through any interleaving of push/pop share it. Scope *boundaries*
        are part of the identity: ``[A B]`` and ``[A | B]`` flatten to the
        same conjunction but key differently -- conservative (never
        wrong, occasionally a duplicate entry), and what makes the prefix
        reuse sound. Declarations and the solve parameters are mixed in
        last, as :func:`~repro.cache.keys.cache_key` mixes them for whole
        scripts.
        """
        digest = hashlib.sha256()
        digest.update(self._link(self.depth).encode("utf-8"))
        for name in sorted(self.declarations):
            digest.update(f"|{name}:{self.declarations[name].name}".encode("utf-8"))
        digest.update(
            f"|kind=session|profile={profile}|budget={budget}".encode("utf-8")
        )
        return digest.hexdigest()

    def _link(self, index):
        if self._chain[index] is None:
            parent = _KEY_ROOT if index == 0 else self._link(index - 1)
            digest = hashlib.sha256()
            digest.update(parent.encode("utf-8"))
            lines = {canonical_term_text(term) for term in self.scopes[index]}
            for line in sorted(lines):
                digest.update(b"\x00")
                digest.update(line.encode("utf-8"))
            self._chain[index] = digest.hexdigest()
        return self._chain[index]


class Session(ScopeStack):
    """An SMT-LIB assertion-stack session over the native solver stack.

    Args:
        profile: solver profile for unbounded checks.
        budget: default unified work budget per ``check-sat``.
        cache: a :class:`~repro.cache.SolveCache` overriding the active
            process-wide cache.
    """

    def __init__(self, profile="zorro", budget=None, cache=None):
        super().__init__()
        self.profile = profile
        self.budget = budget
        self.cache = cache
        self._engine = None  # the BoundedEngine every bounded check reuses
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

    # -- scope stack (counted) ---------------------------------------------

    def push(self, count=1):
        super().push(count)
        self.counters["push"] += count
        telemetry.counter_add("session.push", count)

    def pop(self, count=1):
        super().pop(count)
        self.counters["pop"] += count
        telemetry.counter_add("session.pop", count)

    def reset_assertions(self):
        """Drop every scope and every assertion; keep declarations and
        the engine (its term cache makes re-assertion free)."""
        super().reset_assertions()
        self.counters["reset"] += 1
        telemetry.counter_add("session.reset")

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
            key = self.key(self.profile, budget)
            # A scope-prefix miss can still be answered by a core: core
            # subsumption works on the *flattened* digest set, so a core
            # learned under any scope chain (or from a flat script) can
            # answer this stack.
            hit = lookup(store, key, self.digests, core_kind="session")
            if hit is not None:
                if hit.engine == CORE_REUSE:
                    self.counters["core_hits"] += 1
                    telemetry.counter_add("session.core_hit")
                else:
                    self.counters["cache_hits"] += 1
                    telemetry.counter_add("session.cache_hit")
                return hit

        result, watch = self._check_bounded(budget)
        self.counters["backend_checks"] += 1
        self.counters["work"] += result.work
        core_terms = self.last_core_terms or ()
        record(
            store, watch, result.status, key, lambda: entry_from_result(result),
            core=lambda: frozenset(assertion_digest(term) for term in core_terms),
            kind="session",
        )
        return result

    def _check_bounded(self, budget):
        """One check on the long-lived engine, inside a fresh governor.

        Returns ``(result, watch)``: the
        :class:`~repro.cache.admission.Watch` the admission rule reads to
        refuse results shaped by wall-clock exhaustion or injected faults.
        """
        outer = guard.active()
        governor = guard.ResourceBudget(
            work=budget, parent=outer if outer is not guard.NULL_GOVERNOR else None
        )
        watch = Watch(governor)
        with telemetry.span("session.check", depth=self.depth) as span:
            with guard.activate(governor):
                try:
                    chaos.inject(
                        "session.check_sat", salt=str(self.depth), governor=governor
                    )
                    if self._engine is None:
                        self._engine = BoundedEngine(self.declarations)
                    result, self.last_core_terms = check_scopes(
                        self._engine, self.scopes, self.declarations, budget
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
        return result, watch


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
