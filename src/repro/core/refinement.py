"""Iterative bound refinement (Section 6.2's proposed extension).

The base pipeline picks one width and gives up (reverts) when the bounded
constraint is unsatisfiable -- insufficient bounds and genuine unsat are
indistinguishable. The refinement loop instead *widens and retries*:

    width_0 = inferred width
    width_{k+1} = growth_factor * width_k      (until a cap or budget)

Every retry costs bounded-solver time, which is exactly the tradeoff the
paper's discussion predicts ("checking whether the bounds are too large
or too small likely requires solving a constraint"); the ablation
benchmark quantifies it on the NIA suite.

Each round runs the full pipeline (:meth:`Staub.run`) at the round's
width: re-infer, re-transform, re-blast, re-solve from nothing. With a
solve cache active (:func:`repro.cache.activated`), conclusive rounds
are cached per (script, width) via
:func:`repro.cache.keys.refine_round_key`, so a warm refinement replays
round by round without touching the SAT solver; and each round's
:meth:`Staub.run` searches in that same store and stores its unsat
cores there, like any cached :meth:`Staub.run`.

A verified model at any round is still checked against the original under
exact semantics, so the refinement loop preserves the pipeline's
correctness contract unchanged.
"""

from repro import cache as solve_cache
from repro import guard, telemetry
from repro.cache.admission import Watch, record
from repro.cache.keys import refine_round_key
from repro.cache.store import entry_from_report, report_from_entry
from repro.core.pipeline import (
    CASE_BOUNDED_UNKNOWN,
    CASE_BOUNDED_UNSAT,
    CASE_TRANSFORM_FAILED,
    ArbitrageReport,
    Staub,
)
from repro.telemetry.stats import unified_stats


def _bill(work, remaining):
    """Work billed to the loop for one round: never above the remaining
    budget. An exhausted round's raw work overshoots the budget by
    whatever the solver's last check-granule was -- a nondeterministic-
    looking artifact of where the check fell, not a fact about the
    instance. Billing ``min(work, remaining)`` makes a budget-bound loop
    total exactly the budget (the evaluation's timeout convention).
    """
    if remaining is None:
        return work
    return min(work, max(0, remaining))


class RefinementReport:
    """Outcome of the refinement loop.

    Attributes:
        final: the last :class:`ArbitrageReport`.
        rounds: list of (width, case) pairs, in execution order. The
            width is the one the round actually solved at (None when the
            inferred round never chose one, e.g. inference itself failed).
        total_work: cumulative work across every round.
        budget_exhausted: True when the loop stopped because
            ``total_work`` reached the budget with rounds still pending;
            ``final`` is then a structured bounded-unknown whose stats
            carry ``gave_up = "refinement"``.
        cache_hits: rounds answered from the solve cache.
    """

    def __init__(self, final, rounds, total_work, budget_exhausted=False, cache_hits=0):
        self.final = final
        self.rounds = rounds
        self.total_work = total_work
        self.budget_exhausted = budget_exhausted
        self.cache_hits = cache_hits

    @property
    def case(self):
        return self.final.case

    @property
    def model(self):
        return self.final.model

    @property
    def usable(self):
        return self.final.usable

    def __repr__(self):
        return f"RefinementReport({self.case}, rounds={self.rounds})"


class RefinementStaub:
    """STAUB with iterative width refinement on bounded-unsat.

    Args:
        growth_factor: multiplicative width growth per round (> 1).
        max_rounds: retry cap (including the initial round).
        max_width: hard width ceiling; refinement stops there.
        initial_width: pin the first round's width instead of inferring
            it. Must be a positive int: an explicit 0 would silently
            shadow the "inferred" sentinel in every falsy-width check, so
            it is rejected here rather than misbehaving later.

    Rounds are looked up and recorded in the cache active when
    :meth:`run` starts (:func:`repro.cache.activated`), if any.
    """

    def __init__(
        self, growth_factor=2, max_rounds=3, max_width=24, initial_width=None
    ):
        if growth_factor <= 1:
            raise ValueError("growth_factor must be greater than 1")
        if not isinstance(max_rounds, int) or max_rounds < 1:
            raise ValueError("max_rounds must be a positive integer")
        if not isinstance(max_width, int) or max_width < 1:
            raise ValueError("max_width must be a positive integer")
        if initial_width is not None and (
            not isinstance(initial_width, int) or initial_width < 1
        ):
            raise ValueError(
                "initial_width must be a positive integer, or None to infer"
            )
        self.growth_factor = growth_factor
        self.max_rounds = max_rounds
        self.max_width = max_width
        self.initial_width = initial_width

    def run(self, script, budget=None):
        """Run the refinement loop; returns a :class:`RefinementReport`."""
        store = solve_cache.get_cache()
        rounds = []
        total_work = 0
        cache_hits = 0
        budget_exhausted = False
        pinned = self.initial_width is not None
        # Round 0 uses the abstract-interpretation width unless the user
        # pinned a starting width (the paper's user-specified-width knob).
        spec = self.initial_width if pinned else "absint"
        report, hit = self._round(script, spec, budget, store)
        cache_hits += hit
        width = report.width if report.width is not None else self.initial_width
        rounds.append((width, report.case))
        total_work += _bill(report.total_work, budget)

        # transform-failed with a user-pinned width means "constants did
        # not fit" -- widening fixes that too. With the inferred width the
        # failure is structural (unsupported operators) and final.
        while (
            (
                report.case == CASE_BOUNDED_UNSAT
                or (report.case == CASE_TRANSFORM_FAILED and pinned)
            )
            and len(rounds) < self.max_rounds
            and width is not None
            and width < self.max_width
        ):
            if budget is not None and total_work >= budget:
                # Spent out with rounds still pending: stop here instead
                # of spinning further rounds on a floor-clamped budget.
                budget_exhausted = True
                report = self._exhausted_report(width, report.inference)
                break
            width = min(
                self.max_width, max(width + 1, int(width * self.growth_factor))
            )
            remaining = None if budget is None else budget - total_work
            report, hit = self._round(script, width, remaining, store)
            cache_hits += hit
            recorded = report.width if report.width is not None else width
            rounds.append((recorded, report.case))
            total_work += _bill(report.total_work, remaining)
            if report.case == CASE_BOUNDED_UNKNOWN:
                break
        telemetry.counter_add("refine.rounds", amount=len(rounds))
        return RefinementReport(
            report,
            rounds,
            total_work,
            budget_exhausted=budget_exhausted,
            cache_hits=cache_hits,
        )

    @staticmethod
    def _exhausted_report(width, inference):
        """The structured bounded-unknown surfaced on budget exhaustion."""
        stats = unified_stats(case=CASE_BOUNDED_UNKNOWN)
        stats["gave_up"] = "refinement"
        return ArbitrageReport(
            CASE_BOUNDED_UNKNOWN,
            width=width,
            inference=inference,
            bounded_status="unknown",
            stats=stats,
        )

    @staticmethod
    def _round(script, spec, remaining, store):
        """One full-pipeline round, consulted against / stored in the cache.

        ``spec`` is the width to pin, or ``"absint"`` for the inferred
        round. Returns ``(report, hit)``.
        """
        key = None
        if store is not None:
            # A round is a self-contained solve: the loop's width ceiling
            # does not change its outcome, so it is not keyed.
            key = refine_round_key(script, spec)
            entry = store.get(key, kind="refine")
            if entry is not None:
                telemetry.counter_add("refine.cache_hit")
                return report_from_entry(entry), 1
        staub = Staub() if spec == "absint" else Staub(width_strategy=spec)
        watch = Watch(guard.active())
        with telemetry.span("refinement.round") as span:
            report = staub.run(script, budget=remaining)
            span.set_attr("width", report.width)
            span.set_attr("case", report.case)
        # A bounded-unknown round is a budget artifact, not a fact about
        # the script (its budget is not keyed), so it is never stored; a
        # transform failure (no bounded status) is.
        record(
            store, watch, report.bounded_status, key,
            lambda: entry_from_report(report), kind="refine",
        )
        return report, 0
