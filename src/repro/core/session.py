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

from repro import guard, telemetry
from repro import cache as solve_cache
from repro.bv.solver import BoundedEngine
from repro.cache.admission import Watch, lookup, record
from repro.cache.keys import assertion_digest
from repro.core.absint import IntWidthDomain, int_width
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
from repro.errors import TransformError
from repro.smtlib.script import Script
from repro.smtlib.sorts import BOOL, INT, bv_sort
from repro.smtlib.values import BVValue
from repro.solver.result import SAT, UNSAT
from repro.solver.session import ScopeStack, check_scopes


class ArbitrageSession(ScopeStack):
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
        super().__init__()
        self.width_strategy = width_strategy
        self.max_int_width = max_int_width
        self.budget = budget
        self._width = width_hint or 0
        self._engine = None
        self._slices = {}  # (tid, width) -> tuple of bounded terms
        self._const_widths = {}  # tid -> width of the term's widest Int constant
        self._roots = {}  # (tid, assumption) -> abstract root width
        self._last_live = None  # tids live at the previous check
        self.counters = {
            "checks": 0,
            "rewiden": 0,
            "reinferred": 0,
            "rescued": 0,
            "core_hits": 0,
        }

    @property
    def width(self):
        """The current encoding width (0 before the first check)."""
        return self._width if self._engine is not None else 0

    # -- the scoped pipeline ----------------------------------------------

    def _infer(self, live):
        """Incremental integer bound inference over the live terms.

        Mirrors :func:`repro.core.inference.infer_bounds` piecewise: the
        assumption ``x`` is the width of the widest live constant plus
        one bit, and the root is the domain join of per-assertion roots,
        so scopes compose and retract exactly. Per-assertion analyses are
        memoized per ``(term, assumption)``.

        Returns:
            ``(BoundInference, fresh_work)`` where ``fresh_work`` counts
            the DAG nodes actually traversed this call (zero when every
            live assertion was already analyzed at this assumption).
        """
        widest = 2
        for term in live:
            width = self._const_widths.get(term.tid)
            if width is None:
                width = 2
                for sub in term.subterms():
                    if sub.is_const and sub.sort is INT:
                        width = max(width, int_width(sub.value))
                self._const_widths[term.tid] = width
            widest = max(widest, width)
        assumption = widest + 1
        domain = IntWidthDomain(assumption)
        roots = []
        fresh = 0
        for term in live:
            key = (term.tid, assumption)
            root = self._roots.get(key)
            if root is None:
                root = self._roots[key] = _analyze_term(term, domain, {}, False)
                fresh += term.size()
                self.counters["reinferred"] += 1
            roots.append(root)
        return BoundInference("int", assumption, domain.join(roots), {}, None), fresh

    def check(self, budget=None):
        """Run the arbitrage pipeline on the live stack.

        Returns:
            An :class:`~repro.core.pipeline.ArbitrageReport`; exactly the
            scratch pipeline's contract, but ``t_trans`` only charges
            analysis/translation work this check actually performed.
        """
        budget = self.budget if budget is None else budget
        self.counters["checks"] += 1
        try:
            report = self._check(budget)
        except TransformError:
            report = ArbitrageReport(
                CASE_TRANSFORM_FAILED,
                t_trans=TRANSLATE_COST_PER_NODE * self.flattened_script().size(),
            )
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
        live = self.assertions()
        inference, fresh = self._infer(live)
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
        for scope in self.scopes:
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
        # Subsumption over the *flattened* slice digests: a core learned
        # under any scope chain (or by the scratch pipeline at this width)
        # answers this stack unsat with zero solver work -- the
        # bounded-solve span never opens and the warm engine is left
        # untouched.
        hit = lookup(
            store,
            digests=lambda: frozenset(
                assertion_digest(term)
                for bounded_scope in scope_slices
                for term in bounded_scope
            ),
            kind="arbitrage-session",
        )
        if hit is not None:
            self.counters["core_hits"] += 1
            telemetry.counter_add("session.core_hit")
            stats = hit.stats
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
        live_tids = frozenset(term.tid for term in live)
        stale = (
            self._engine.checks > 0
            and self._last_live is not None
            and live_tids < self._last_live
        )
        rescue_eligible = stale and remaining is not None
        first_budget = max(1, remaining // 2) if rescue_eligible else remaining
        t_post = 0
        watch = Watch(guard.active())
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
        self._last_live = live_tids
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
            record(
                store, watch, UNSAT,
                core=lambda: frozenset(
                    assertion_digest(term) for term in core_terms or ()
                ),
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
