"""Scope-aware theory arbitrage: STAUB under a push/pop assertion stack.

The classic pipeline (:class:`repro.core.pipeline.Staub`) re-infers,
re-translates, and re-blasts the whole constraint for every query. A
client that streams many closely-related queries -- the termination
driver pushes a candidate layer onto a fixed Farkas core fifty times --
pays that cost over and over for the unchanged part.

:class:`ArbitrageSession` keeps the pipeline's stages *scoped*:

- **Inference** is piecewise: the variable assumption is the max over
  live per-assertion constant widths, and the root ``[S]`` is the domain
  join of per-assertion roots. Per-assertion analyses are cached by
  ``(term, assumption)``, so a pop that does not move the assumption
  re-analyzes nothing, and one that does (it retracted the widest
  constant) lazily re-analyzes only the live assertions
  (``counters["reinferred"]`` measures that).
- **Translation** caches each assertion's bounded slice (translated
  term + overflow guards) per ``(term, width)``.
- **Solving** shares one long-lived
  :class:`~repro.bv.solver.BoundedEngine`: slices blast once and
  retract by scope as assumption literals
  (:func:`~repro.solver.session.check_scopes`), so learned clauses
  survive every pop.

The chosen width never shrinks within a session: pops can loosen the
inferred bounds, but narrowing would forfeit the encoding and the
learned clauses, and a wider-than-necessary width stays sound -- the
verify stage guards every sat answer, and unsat remains the usual
indistinguishable bounded-unsat. Width *growth* re-encodes into a fresh
engine (``counters["rewiden"]``).

Each :meth:`ArbitrageSession.check` returns the same
:class:`~repro.core.pipeline.ArbitrageReport` the scratch pipeline
produces, with ``t_trans`` covering only the *fresh* analysis and
translation work this check actually did.
"""

from repro import telemetry
from repro import cache as solve_cache
from repro.bv.solver import BoundedEngine
from repro.cache.keys import assertion_digest
from repro.core.absint import IntWidthDomain, int_width
from repro.guard import chaos
from repro.telemetry.stats import unified_stats
from repro.core.correspondence import INT_TO_BITVECTOR
from repro.core.inference import BoundInference, _analyze_term
from repro.core.pipeline import (
    CASE_BOUNDED_UNKNOWN,
    CASE_BOUNDED_UNSAT,
    CASE_SEMANTIC_DIFFERENCE,
    CASE_TRANSFORM_FAILED,
    CASE_VERIFIED_SAT,
    MAX_INT_WIDTH,
    TRANSLATE_COST_PER_NODE,
    ArbitrageReport,
    choose_int_width,
)
from repro.core.transform import transform_script
from repro.core.verify import verify_model
from repro.errors import SessionError, SmtLibError, TransformError
from repro.smtlib.script import Script
from repro.smtlib.sorts import BOOL, INT, bv_sort
from repro.smtlib.values import BVValue
from repro.solver.result import SAT, UNSAT
from repro.solver.session import check_scopes


class _ScopedInference:
    """Incremental integer bound inference over a scope stack.

    Mirrors :func:`repro.core.inference.infer_bounds` piecewise: the
    assumption and the root are both joins over per-assertion
    contributions, so scopes compose and retract exactly.
    """

    def __init__(self):
        self._scopes = [[]]  # per scope: (term, const_width, size) triples
        self._roots = {}  # (tid, assumption) -> abstract root width
        self.reinferred = 0

    def push(self, count=1):
        for _ in range(count):
            self._scopes.append([])

    def pop(self, count=1):
        del self._scopes[len(self._scopes) - count:]

    def reset(self):
        self._scopes = [[]]

    def add(self, term):
        widest = 2
        for sub in term.subterms():
            if sub.is_const and sub.sort is INT:
                width = int_width(sub.value)
                if width > widest:
                    widest = width
        self._scopes[-1].append((term, widest, term.size()))

    @property
    def assumption(self):
        """x = width of the largest live constant, plus one bit."""
        widest = 2
        for scope in self._scopes:
            for _, width, _ in scope:
                if width > widest:
                    widest = width
        return widest + 1

    def infer(self):
        """Bounds for the live stack, re-analyzing only cache misses.

        Returns:
            ``(BoundInference, fresh_work)`` where ``fresh_work`` counts
            the DAG nodes actually traversed this call (zero when every
            live assertion was already analyzed at this assumption).
        """
        assumption = self.assumption
        domain = IntWidthDomain(assumption)
        roots = []
        fresh = 0
        for scope in self._scopes:
            for term, _, size in scope:
                key = (term.tid, assumption)
                root = self._roots.get(key)
                if root is None:
                    root = self._roots[key] = _analyze_term(
                        term, domain, {}, False
                    )
                    fresh += size
                    self.reinferred += 1
                roots.append(root)
        root = domain.join(roots) if roots else domain.join([])
        return BoundInference("int", assumption, root, {}, None), fresh


class ArbitrageSession:
    """A push/pop session of *unbounded* integer constraints, solved by
    scoped theory arbitrage over one long-lived bounded engine.

    Args:
        width_strategy: ``"absint"`` or a fixed int (as for
            :class:`~repro.core.pipeline.Staub`).
        max_int_width: practical width cap.
        width_hint: pre-size the first encoding (e.g. the width the
            widest expected query needs) so later checks never rewiden.
        budget: default unified work budget per check.
    """

    def __init__(self, width_strategy="absint", max_int_width=MAX_INT_WIDTH,
                 width_hint=None, budget=None):
        self.width_strategy = width_strategy
        self.max_int_width = max_int_width
        self.budget = budget
        self.declarations = {}
        self._scopes = [[]]
        self._inference = _ScopedInference()
        self._width = width_hint or 0
        self._engine = None
        self._slices = {}  # (tid, width) -> tuple of bounded terms
        self._digest_memo = {}  # bounded-term tid -> canonical digest
        self._last_live = None  # tids live at the previous check
        self.counters = {
            "checks": 0,
            "rewiden": 0,
            "reinferred": 0,
            "rescued": 0,
            "core_hits": 0,
        }

    # -- scope stack -------------------------------------------------------

    @property
    def depth(self):
        return len(self._scopes) - 1

    @property
    def width(self):
        """The current encoding width (0 before the first check)."""
        return self._width if self._engine is not None else 0

    def push(self, count=1):
        for _ in range(count):
            self._scopes.append([])
        self._inference.push(count)

    def pop(self, count=1):
        if count > self.depth:
            raise SessionError(
                f"pop {count} below assertion-stack depth {self.depth}"
            )
        del self._scopes[len(self._scopes) - count:]
        self._inference.pop(count)

    def reset_assertions(self):
        self._scopes = [[]]
        self._inference.reset()

    def declare(self, name, sort):
        existing = self.declarations.get(name)
        if existing is None:
            self.declarations[name] = sort
        elif existing is not sort:
            raise SmtLibError(
                f"variable {name} redeclared with sort {sort}, was {existing}"
            )

    def assert_term(self, term):
        if term.sort is not BOOL:
            raise SmtLibError(
                f"asserted term has sort {term.sort}, expected Bool"
            )
        for name, var in term.variables().items():
            self.declare(name, var.sort)
        self._scopes[-1].append(term)
        self._inference.add(term)

    def assertions(self):
        return [term for scope in self._scopes for term in scope]

    def flattened_script(self):
        """The live stack as one flat unbounded script (what sat answers
        are verified against)."""
        script = Script(declarations=self.declarations, assertions=self.assertions())
        script.logic = script.infer_logic()
        return script

    # -- the scoped pipeline ----------------------------------------------

    def _digest(self, term):
        digest = self._digest_memo.get(term.tid)
        if digest is None:
            digest = self._digest_memo[term.tid] = assertion_digest(term)
        return digest

    def check(self, budget=None):
        """Run the arbitrage pipeline on the live stack.

        Returns:
            An :class:`~repro.core.pipeline.ArbitrageReport`; exactly the
            scratch pipeline's contract, but ``t_trans`` only charges
            analysis/translation work this check actually performed.
        """
        budget = self.budget if budget is None else budget
        self.counters["checks"] += 1
        before = self._inference.reinferred
        try:
            report = self._check(budget)
        except TransformError:
            report = ArbitrageReport(
                CASE_TRANSFORM_FAILED,
                t_trans=TRANSLATE_COST_PER_NODE * self.flattened_script().size(),
            )
        self.counters["reinferred"] += self._inference.reinferred - before
        report.stats["case"] = report.case
        if telemetry.enabled:
            telemetry.counter_add("session.arbitrage_case", case=report.case)
            if report.width is not None:
                telemetry.observe("arbitrage.width", int(report.width))
        return report

    def _check(self, budget):
        for name, sort in self.declarations.items():
            if not (sort.is_bool or sort.is_int):
                raise TransformError(
                    f"arbitrage sessions cover the integer theory; variable "
                    f"{name} has sort {sort}"
                )
        t_trans = 0
        inference, fresh = self._inference.infer()
        if fresh:
            with telemetry.span("infer", incremental=True) as span:
                span.set_attr("theory", "int")
                span.add_work(fresh)
            t_trans += fresh

        needed = choose_int_width(
            inference, self.width_strategy, self.max_int_width
        )
        width = max(self._width, needed)
        bounded_decls = {
            name: (BOOL if sort.is_bool else bv_sort(width))
            for name, sort in self.declarations.items()
        }
        if self._engine is None or width > self._width:
            if self._engine is not None:
                self.counters["rewiden"] += 1
                telemetry.counter_add("session.rewiden")
            self._engine = BoundedEngine(bounded_decls)
            self._width = width

        scope_slices = []
        fresh_nodes = 0
        for scope in self._scopes:
            bounded_scope = []
            for term in scope:
                key = (term.tid, width)
                bounded = self._slices.get(key)
                if bounded is None:
                    result = transform_script(
                        Script.from_assertions([term]), "int", width=width
                    )
                    bounded = self._slices[key] = tuple(result.script.assertions)
                    fresh_nodes += term.size()
                bounded_scope.extend(bounded)
            scope_slices.append(bounded_scope)
        if fresh_nodes:
            with telemetry.span("transform", incremental=True) as span:
                span.set_attr("width", width)
                span.add_work(fresh_nodes)
            t_trans += fresh_nodes

        remaining = None if budget is None else max(1, budget - t_trans)

        store = solve_cache.get_cache()
        slice_digests = None
        if store is not None and store.has_cores():
            slice_digests = frozenset(
                self._digest(term)
                for bounded_scope in scope_slices
                for term in bounded_scope
            )
            if slice_digests and store.find_core(
                slice_digests, kind="arbitrage-session"
            ) is not None:
                # Subsumption over the *flattened* slice digests: a core
                # learned under any scope chain (or by the scratch
                # pipeline at this width) answers this stack unsat with
                # zero solver work -- the bounded-solve span never opens
                # and the warm engine is left untouched.
                self.counters["core_hits"] += 1
                telemetry.counter_add("session.core_hit")
                stats = unified_stats(core_reuse=True)
                stats["width"] = width
                return ArbitrageReport(
                    CASE_BOUNDED_UNSAT,
                    t_trans=t_trans,
                    t_post=0,
                    width=width,
                    inference=inference,
                    bounded_status=UNSAT,
                    stats=stats,
                )

        # Retraction-only checks (the live stack is a strict subset of
        # the previous check's -- e.g. pop the compact-argument box and
        # re-check unbounded) are where a warm engine can *hurt*: saved
        # phases and activities were tuned under the retracted slices and
        # can point the search away from the newly opened region. Split
        # the budget: the warm engine gets half, and if it comes back
        # unknown a fresh encoding gets the rest.
        plan = chaos.active()
        injected_before = plan.total_injected if plan is not None else 0
        live = frozenset(
            term.tid for scope in self._scopes for term in scope
        )
        stale = (
            self._engine.checks > 0
            and self._last_live is not None
            and live < self._last_live
        )
        rescue_eligible = stale and remaining is not None
        first_budget = max(1, remaining // 2) if rescue_eligible else remaining
        t_post = 0
        with telemetry.span("bounded-solve", width=width, incremental=True) as span:
            bounded, core_terms = check_scopes(
                self._engine, scope_slices, bounded_decls, first_budget
            )
            t_post += bounded.work
            if rescue_eligible and bounded.status not in (SAT, UNSAT):
                self.counters["rescued"] += 1
                telemetry.counter_add("session.rescue")
                self._engine = BoundedEngine(bounded_decls)
                retry, core_terms = check_scopes(
                    self._engine,
                    scope_slices,
                    bounded_decls,
                    max(1, remaining - bounded.work),
                )
                t_post += retry.work
                bounded = retry
            span.set_attr("status", bounded.status)
            span.settle(t_post)
        self._last_live = live
        stats = dict(bounded.stats)
        stats["width"] = width
        common = dict(
            t_trans=t_trans,
            t_post=t_post,
            width=width,
            inference=inference,
            bounded_status=bounded.status,
            stats=stats,
        )

        if bounded.status == UNSAT:
            if (
                store is not None
                and store.core_reuse
                and (plan is None or plan.total_injected == injected_before)
                and core_terms
            ):
                store.add_core(
                    frozenset(self._digest(term) for term in core_terms),
                    kind="arbitrage-session",
                )
            return ArbitrageReport(CASE_BOUNDED_UNSAT, **common)
        if bounded.status != SAT:
            return ArbitrageReport(CASE_BOUNDED_UNKNOWN, **common)

        candidate = {}
        for name, value in bounded.model.items():
            if isinstance(value, BVValue):
                candidate[name] = INT_TO_BITVECTOR.phi_inverse(value, width)
            else:
                candidate[name] = value
        with telemetry.span("verify") as span:
            outcome = verify_model(self.flattened_script(), candidate)
            span.set_attr("ok", outcome.ok)
            span.settle(outcome.work)
        common["t_check"] = outcome.work
        if outcome.ok:
            return ArbitrageReport(CASE_VERIFIED_SAT, model=candidate, **common)
        return ArbitrageReport(CASE_SEMANTIC_DIFFERENCE, **common)
