"""Top-level solving entry point: route a script to the right engine.

``solve_script`` detects the script's logic, dispatches bounded scripts to
the bit-blasting back end and unbounded ones to DPLL(T) over the profile's
theory engine, and reports results on the unified virtual clock
(:mod:`repro.solver.costs`).

Both paths populate the same uniform ``stats`` dict on the result (see
:mod:`repro.telemetry.stats`).

When a :class:`~repro.cache.SolveCache` is active (installed via
:func:`repro.cache.set_cache` or passed explicitly), solves are keyed by
the canonical form of the normalized script plus the (profile, budget)
parameters, and repeated identical questions are answered from the cache
with ``result.cached`` set.
"""

from repro import cache as solve_cache
from repro import guard, telemetry
from repro.bv.solver import assertion_core_digests, solve_bounded_script
from repro.cache.admission import CORE_REUSE, Watch, lookup, record
from repro.cache.keys import cache_key, script_digests
from repro.cache.store import entry_from_result
from repro.errors import BudgetExceeded, UnsupportedLogicError
from repro.guard import chaos
from repro.solver import costs
from repro.solver.dpllt import solve_with_theory
from repro.solver.profiles import get_profile
from repro.solver.result import UNKNOWN, SolveResult
from repro.telemetry.stats import unified_stats


def _bounded_logic(script):
    return all(sort.is_bounded for sort in script.declarations.values())


def solve_script(script, budget=None, profile="zorro", cache=None, governor=None):
    """Solve a script under a profile with a unified resource envelope.

    Args:
        script: a :class:`~repro.smtlib.script.Script` in one of the
            supported quantifier-free logics.
        budget: unified work budget (None = unlimited). Exhaustion yields
            status ``"unknown"`` -- the reproduction's timeout.
        profile: profile name or :class:`SolverProfile`.
        cache: a :class:`~repro.cache.SolveCache` overriding the
            process-wide active cache (None = use the active one, if any).
            With a cache, a bounded script is searched under one literal
            per assertion and an unsat answer stores that search's core;
            without, as hard clauses. A budget-bound verdict or a sat
            model may differ between the two.
        governor: a :class:`~repro.guard.ResourceBudget` governing this
            solve (deadline, cancellation, depth/memory ceilings). Built
            from ``budget`` when omitted; an already-active outer
            governor (e.g. a portfolio race deadline) becomes its parent.

    Returns:
        A :class:`~repro.solver.result.SolveResult` whose ``work`` is in
        unified units regardless of engine. Resource exhaustion in *any*
        layer comes back as a structured ``"unknown"`` (with the layer
        that gave up in ``stats["gave_up"]``), never as a raised
        :class:`~repro.errors.BudgetExceeded`.
    """
    if isinstance(profile, str):
        profile = get_profile(profile)

    outer = guard.active()
    if governor is None:
        governor = guard.ResourceBudget(
            work=budget, parent=outer if outer is not guard.NULL_GOVERNOR else None
        )
    elif budget is None:
        budget = governor.work_limit

    store = cache if cache is not None else solve_cache.get_cache()
    key = None
    if store is not None:
        key = cache_key(script, profile=profile.name, budget=budget)
        with telemetry.span("cache-lookup", profile=profile.name) as span:
            # A whole-key miss can still be answered by a cached unsat
            # core that is a subset of this script's assertion set: it
            # proves the script unsat with zero solving (Cache-a-lot).
            hit = lookup(store, key, lambda: script_digests(script))
            span.set_attr("hit", hit is not None and hit.engine != CORE_REUSE)
            span.set_attr("core_hit", hit is not None and hit.engine == CORE_REUSE)
        if hit is not None:
            return hit

    watch = Watch(governor)
    with guard.activate(governor):
        chaos.inject("solver.pre_solve", salt=profile.name, governor=governor)
        try:
            result, core = _solve_uncached(
                script, budget, profile, core=store is not None
            )
        except BudgetExceeded as error:
            # Safety net: no engine should leak this, but if one does the
            # caller still gets a structured best-effort unknown.
            result, core = _gave_up_result(governor, error, profile), None
    if governor.work_limit is not None:
        # Cumulative accounting: a governor reused across solves (e.g. a
        # portfolio race) trips its work ceiling on the next check.
        governor.spent += result.work
    if governor.gave_up_layer is not None:
        result.stats.setdefault("gave_up", governor.gave_up_layer)
        result.stats.setdefault("gave_up_reason", governor.reason)
    # Every untainted result is stored, an own-budget unknown included:
    # the key carries the budget, so that unknown is a fact about it.
    record(
        store, watch, result.status, key, lambda: entry_from_result(result),
        determined=True,
        core=lambda: core and assertion_core_digests(script, core),
    )
    return result


def refine_script(
    script,
    budget=None,
    incremental=False,
    growth_factor=2,
    max_rounds=3,
    max_width=24,
    initial_width=None,
    headroom=0,
    cache=None,
):
    """Solve with width refinement: widen and retry on bounded-unsat.

    A thin façade over :class:`repro.core.refinement.RefinementStaub`,
    matching :func:`solve_script`'s cache conventions (per-round entries
    land in the active process-wide cache unless ``cache`` overrides it).

    Returns:
        A :class:`repro.core.refinement.RefinementReport`.
    """
    # Local import: repro.core imports this package for cost accounting,
    # so a top-level import would be circular.
    from repro.core.refinement import RefinementStaub

    loop = RefinementStaub(
        growth_factor=growth_factor,
        max_rounds=max_rounds,
        max_width=max_width,
        initial_width=initial_width,
        incremental=incremental,
        headroom=headroom,
        cache=cache,
    )
    return loop.run(script, budget=budget)


def open_session(profile="zorro", budget=None, cache=None):
    """Start an incremental session sharing this facade's conventions.

    A :class:`~repro.solver.session.Session` answers a *stream* of
    ``check-sat`` questions over a push/pop assertion stack, paying
    bit-blasting once for bounded stacks. Unbounded stacks fall back to
    :func:`solve_script` of the flattened scopes, so a session is never
    worse than scratch solving.
    """
    # Local import: the session module builds on this facade.
    from repro.solver.session import Session

    return Session(profile=profile, budget=budget, cache=cache)


def _gave_up_result(governor, error, profile):
    """A structured unknown for a budget error that escaped an engine."""
    layer = getattr(error, "layer", None) or "solver"
    governor.note_give_up(layer, "work")
    telemetry.counter_add("solve.budget_exceeded", profile=profile.name, layer=layer)
    stats = unified_stats(gave_up=layer, gave_up_reason=governor.reason)
    result = SolveResult(
        UNKNOWN, None, getattr(error, "spent", 0) or 0, engine="guard", stats=stats
    )
    _record_solve(result, profile.name)
    return result


def _solve_uncached(script, budget, profile, core):
    """The engine-dispatch core of :func:`solve_script` (cache miss path).

    Returns ``(result, core)``: the bounded solve's assertion-index core
    when ``core`` is set (see :func:`solve_bounded_script`), else None.
    """
    if _bounded_logic(script):
        if any(sort.is_fp for sort in script.declarations.values()):
            raise UnsupportedLogicError(
                "floating-point scripts are solved through the fixed-point "
                "encoding (see repro.fp.fixedpoint), not directly"
            )
        with telemetry.span("solve", engine="bv", profile=profile.name) as span:
            bounded = solve_bounded_script(script, max_work=budget, core=core)
            work = costs.from_sat(bounded.work)
            span.settle(work)
        result = SolveResult(
            bounded.status,
            bounded.model,
            work,
            engine="bv",
            stats=bounded.stats_dict(),
        )
        _record_solve(result, profile.name)
        return result, bounded.core

    logic = script.logic or script.infer_logic()
    if logic not in ("QF_LIA", "QF_LRA", "QF_NIA", "QF_NRA"):
        # Scripts that mix or mis-declare logics still route by inference.
        logic = script.infer_logic()
    if logic not in ("QF_LIA", "QF_LRA", "QF_NIA", "QF_NRA"):
        raise UnsupportedLogicError(f"unsupported logic {logic}")

    engine_factory = profile.engine_for(logic)
    if logic in ("QF_LIA", "QF_LRA"):
        raw_budget = costs.budget_for_simplex(budget)
        to_unified = costs.from_simplex
        engine_name = "simplex-bb" if logic == "QF_LIA" else "simplex"
    else:
        raw_budget = costs.budget_for_interval(budget)
        to_unified = costs.from_interval
        engine_name = "nia" if logic == "QF_NIA" else "nra"
        if logic == "QF_NIA":
            engine_name = f"nia-{profile.name}"

    with telemetry.span("solve", engine=engine_name, profile=profile.name) as span:
        outcome = solve_with_theory(script, engine_factory, budget=raw_budget)
        status, model, theory_work, sat_work = outcome
        work = to_unified(theory_work) + costs.from_sat(sat_work)
        span.settle(work)
    result = SolveResult(
        status, model, work, engine=engine_name, stats=outcome.stats
    )
    _record_solve(result, profile.name)
    return result, None


def _record_solve(result, profile_name):
    """Metrics hook: one bulk counter update per top-level solve."""
    if not telemetry.enabled:
        return
    telemetry.counter_add(
        "solve.requests", engine=result.engine, profile=profile_name
    )
    telemetry.counter_add(
        "solve.status", engine=result.engine, status=result.status
    )
    telemetry.observe(
        "solve.work", result.work, engine=result.engine, profile=profile_name
    )
