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

Two engines implement the loop:

**Scratch** (the baseline): every round runs the full pipeline again --
re-transform, re-blast, re-solve from nothing.

**Incremental** (``incremental=True``, int theory): bound inference runs
once, and each scheduled round transforms and bit-blasts into a
long-lived :class:`~repro.bv.solver.BoundedEngine` whose
encoding width is exactly the round width -- byte-for-byte the scratch
encoding, so the two engines agree on every round's verdict by
construction. The reuse happens *inside* a round: every variable carries
the effective width the previous rounds proved sufficient for it, and
enters the new round as an *assumption literal* saying "this variable is
the sign-extension of its low ``v`` bits" (a width-``v`` slice of the
round's encoding). A bounded-UNSAT then yields the failing assumptions
as an unsat core:

- core names variables below the round width -> widen *only those*
  (core-guided widening), retract just their assumptions, and re-solve
  on the warm solver -- learned clauses survive, nothing is re-encoded;
- core names no retractable variable -> the round width itself is the
  problem: escalate the global schedule (all carried widths ride along);
- core is empty (a root conflict) -> the encoding is contradictory
  without any assumption, i.e. UNSAT at this width outright.

With ``headroom > 0`` the encoding is built ``headroom`` growth steps
*wider* than the round, each tracked arithmetic result is additionally
assumed to fit the round width (reproducing the scratch overflow-guard
semantics at the narrower slice), and consecutive scheduled rounds
share one encoding with retraction in between. That buys width-
independent UNSAT detection -- a root conflict at a ceiling that already
reaches ``max_width`` proves every remaining round useless, and they
are skipped -- at the price of searching a wider circuit, which on
multiplication-heavy constraints costs more than it saves; hence the
default is ``headroom=0``.

Conclusive rounds are cached per (script, width state) via
:func:`repro.cache.keys.refine_round_key`, so a warm refinement replays
round by round without touching the SAT solver.

A verified model at any round is still checked against the original under
exact semantics, so the refinement loop preserves the pipeline's
correctness contract unchanged.
"""

from repro import cache as solve_cache
from repro import guard, telemetry
from repro.bv.solver import BLAST_WORK_PER_CLAUSE, BoundedEngine
from repro.cache.admission import Watch, record
from repro.cache.keys import refine_round_key
from repro.cache.store import (
    entry_from_refine_round,
    entry_from_report,
    refine_round_from_entry,
    report_from_entry,
)
from repro.core.inference import infer_bounds
from repro.core.pipeline import (
    CASE_BOUNDED_UNKNOWN,
    CASE_BOUNDED_UNSAT,
    CASE_TRANSFORM_FAILED,
    ArbitrageReport,
    Staub,
    check_candidate,
)
from repro.core.transform import transform_script
from repro.errors import TransformError
from repro.solver import costs
from repro.telemetry.stats import unified_stats

#: Conflict cap for the phase-advancing solves inside an incremental
#: round (the capped full-width attempt and the narrow-slice probes).
#: Deliberately small: a capped attempt exists to harvest cheap verdicts
#: and learned clauses, not to search -- anything hard falls through to
#: the uncapped full-width phase.
PROBE_CONFLICTS = 8


def _bill(work, remaining):
    """Work billed to the loop for one round: never above the remaining
    budget. An exhausted round's raw work overshoots the budget by
    whatever the solver's last check-granule was -- a nondeterministic-
    looking artifact of where the check fell, not a fact about the
    instance. Billing ``min(work, remaining)`` makes a budget-bound loop
    total exactly the budget (the evaluation's timeout convention), in
    both engines identically.
    """
    if remaining is None:
        return work
    return min(work, max(0, remaining))


class RefinementRound:
    """Outcome of one incremental solve-at-width round.

    Attributes:
        status: ``"sat"``, ``"unsat"``, or ``"unknown"``.
        model: name -> value dict when sat, else None.
        work: raw bounded work spent *this round* (new clauses + search
            delta) -- the same unit as :attr:`BoundedResult.work`.
        core: names of variables whose truncation assumptions appear in
            the final conflict; empty on a width-independent UNSAT.
        guard_core: True when a width-``w`` overflow-guard assumption (a
            tracked-term slice) appears in the final conflict -- widening
            variables alone cannot fix that round; the global width must
            grow.
        root_conflict: True when the UNSAT did not involve any assumption
            at all (the hard clauses are contradictory): no widening can
            ever help.
        assumed: number of assumption literals this round solved under.
        reused_clauses: learned clauses retained from earlier rounds at
            the moment this round's search started.
        new_clauses: CNF clauses added for this round's assumption ladder.
    """

    __slots__ = (
        "status",
        "model",
        "work",
        "core",
        "guard_core",
        "root_conflict",
        "assumed",
        "reused_clauses",
        "new_clauses",
    )

    def __init__(
        self,
        status,
        model,
        work,
        core,
        guard_core,
        root_conflict,
        assumed,
        reused_clauses,
        new_clauses,
    ):
        self.status = status
        self.model = model
        self.work = work
        self.core = core
        self.guard_core = guard_core
        self.root_conflict = root_conflict
        self.assumed = assumed
        self.reused_clauses = reused_clauses
        self.new_clauses = new_clauses

    def __repr__(self):
        return f"RefinementRound({self.status}, work={self.work}, core={self.core})"


class RefinementReport:
    """Outcome of the refinement loop.

    Attributes:
        final: the last :class:`ArbitrageReport`.
        rounds: list of (width, case) pairs, in execution order. The
            width is the one the round actually solved at (None when the
            inferred round never chose one, e.g. inference itself failed).
        total_work: cumulative work across every round.
        mode: ``"scratch"`` or ``"incremental"``.
        budget_exhausted: True when the loop stopped because
            ``total_work`` reached the budget with rounds still pending;
            ``final`` is then a structured bounded-unknown whose stats
            carry ``gave_up = "refinement"``.
        cache_hits: rounds answered from the solve cache.
        clauses_reused: learned clauses carried into round starts
            (incremental mode; summed over all solver calls).
        core_widened: variable-widening events driven by unsat cores.
        subrounds: individual solver calls (incremental mode counts the
            core-guided re-solves inside a scheduled round).
    """

    def __init__(
        self,
        final,
        rounds,
        total_work,
        mode="scratch",
        budget_exhausted=False,
        cache_hits=0,
        clauses_reused=0,
        core_widened=0,
        subrounds=0,
    ):
        self.final = final
        self.rounds = rounds
        self.total_work = total_work
        self.mode = mode
        self.budget_exhausted = budget_exhausted
        self.cache_hits = cache_hits
        self.clauses_reused = clauses_reused
        self.core_widened = core_widened
        self.subrounds = subrounds

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
        return f"RefinementReport({self.case}, mode={self.mode}, rounds={self.rounds})"


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
        incremental: reuse one persistent SAT session across rounds with
            core-guided widening (int theory; real constraints fall back
            to the scratch engine).
        headroom: growth steps of *encoding* headroom in incremental
            mode. 0 (default) encodes each round at exactly its width;
            ``k > 0`` encodes ``k`` growth steps wider so consecutive
            rounds share one encoding and a root conflict at the ceiling
            can prove the remaining rounds useless (see the module
            docstring for the tradeoff).
        cache: a :class:`~repro.cache.store.SolveCache` for per-round
            results; defaults to the process-wide cache
            (:func:`repro.cache.get_cache`) at run time.
    """

    def __init__(
        self,
        growth_factor=2,
        max_rounds=3,
        max_width=24,
        initial_width=None,
        incremental=False,
        headroom=0,
        cache=None,
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
        if not isinstance(headroom, int) or headroom < 0:
            raise ValueError("headroom must be a non-negative integer")
        self.growth_factor = growth_factor
        self.max_rounds = max_rounds
        self.max_width = max_width
        self.initial_width = initial_width
        self.incremental = incremental
        self.headroom = headroom
        self.cache = cache

    def run(self, script, budget=None):
        """Run the refinement loop; returns a :class:`RefinementReport`."""
        store = self.cache if self.cache is not None else solve_cache.get_cache()
        if self.incremental:
            return self._run_incremental(script, budget, store)
        return self._run_scratch(script, budget, store)

    # -- shared helpers ----------------------------------------------------

    def _grow(self, width, cap=None):
        cap = self.max_width if cap is None else cap
        return min(cap, max(width + 1, int(width * self.growth_factor)))

    def _ceiling(self, width):
        """Encoding width for a round: ``headroom`` growth steps above."""
        ceiling = width
        for _ in range(self.headroom):
            if ceiling >= self.max_width:
                break
            ceiling = self._grow(ceiling)
        return ceiling

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

    # -- scratch engine ----------------------------------------------------

    def _run_scratch(self, script, budget, store):
        rounds = []
        total_work = 0
        cache_hits = 0
        budget_exhausted = False
        pinned = self.initial_width is not None
        # Round 0 uses the abstract-interpretation width unless the user
        # pinned a starting width (the paper's user-specified-width knob).
        spec = self.initial_width if pinned else "absint"
        report, hit = self._scratch_round(script, spec, budget, store)
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
            width = self._grow(width)
            remaining = None if budget is None else budget - total_work
            report, hit = self._scratch_round(script, width, remaining, store)
            cache_hits += hit
            recorded = report.width if report.width is not None else width
            rounds.append((recorded, report.case))
            total_work += _bill(report.total_work, remaining)
            if report.case == CASE_BOUNDED_UNKNOWN:
                break
        telemetry.counter_add("refine.rounds", amount=len(rounds), mode="scratch")
        return RefinementReport(
            report,
            rounds,
            total_work,
            mode="scratch",
            budget_exhausted=budget_exhausted,
            cache_hits=cache_hits,
        )

    def _scratch_round(self, script, spec, remaining, store):
        """One full-pipeline round, consulted against / stored in the cache.

        ``spec`` is the width to pin, or ``"absint"`` for the inferred
        round. Returns ``(report, hit)``.
        """
        key = None
        if store is not None:
            # Scratch rounds are self-contained solves: the loop's width
            # ceiling does not change their outcome, so it is not keyed.
            key = refine_round_key(script, spec, "scratch", None)
            entry = store.get(key, kind="refine")
            if entry is not None and entry.get("mode") == "scratch":
                telemetry.counter_add("refine.cache_hit", mode="scratch")
                return report_from_entry(entry), 1
        staub = Staub() if spec == "absint" else Staub(width_strategy=spec)
        watch = Watch(guard.active())
        with telemetry.span("refinement.round", mode="scratch") as span:
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

    # -- incremental engine ------------------------------------------------

    def _run_incremental(self, script, budget, store):
        try:
            inference = infer_bounds(script)
        except TransformError:
            inference = None
        if inference is None or inference.theory != "int":
            # Real constraints keep the scratch loop: the fixed-point
            # encoding re-chooses magnitude/precision per round, so there
            # is no slice-of-a-wider-encoding structure to reuse. A
            # failed inference falls back too, reproducing the scratch
            # loop's transform-failed behavior exactly.
            return self._run_scratch(script, budget, store)

        pinned = self.initial_width is not None
        if pinned:
            width = self.initial_width
        else:
            width = Staub()._choose_int_width(inference)

        # Bound inference runs once for the whole loop (scratch re-infers
        # every round); its half of the per-round analyze+translate cost
        # is therefore charged once, and each stage pays translation only.
        size = script.size()

        rounds = []
        total_work = size
        t_trans = 0
        budget_exhausted = False
        transformed = None
        ceiling = 0
        var_widths = {}
        # Effective widths the earlier rounds settled on per variable; a
        # variable absent from a round's unsat cores keeps its narrow
        # width into the next round (as an assumption slice). Variables
        # without an entry default to the previous scheduled width, so
        # every widened round starts from the slice the last round
        # explored and lets the unsat core decide what actually grows.
        carry = {}
        prev_width = None
        ctx = {
            "engine": None,
            "cache_hits": 0,
            "clauses_reused": 0,
            "core_widened": 0,
            "subrounds": 0,
        }
        final = None

        while True:
            with telemetry.span(
                "refinement.round", mode="incremental", width=width
            ) as span:
                if transformed is None or width > ceiling:
                    new_ceiling = self._ceiling(width)
                    fits = True
                    if transformed is None and new_ceiling > width:
                        # Parity probe: a scratch round at this width
                        # fails (and charges nothing) when a constant
                        # does not fit it, even though the wider ceiling
                        # encoding would; fit is monotone in width, so
                        # once a probe passes, wider rounds pass too.
                        fits = self._int_transform_fits(script, width)
                    if fits:
                        try:
                            with telemetry.span(
                                "transform", incremental=True
                            ) as tspan:
                                transformed = transform_script(
                                    script, "int", width=new_ceiling
                                )
                                t_trans = size
                                tspan.set_attr("width", transformed.width)
                                tspan.add_work(t_trans)
                        except TransformError:
                            transformed = None
                            fits = False
                    if not fits:
                        # The probe is a translation attempt; inference
                        # was already paid for once, so only the
                        # translate half of the round cost is charged.
                        total_work += _bill(
                            size, None if budget is None else budget - total_work
                        )
                        span.set_attr("case", CASE_TRANSFORM_FAILED)
                        rounds.append((width, CASE_TRANSFORM_FAILED))
                        final = Staub._finish(
                            ArbitrageReport(
                                CASE_TRANSFORM_FAILED,
                                t_trans=size,
                                inference=inference,
                            )
                        )
                        if (
                            pinned
                            and len(rounds) < self.max_rounds
                            and width < self.max_width
                        ):
                            if budget is not None and total_work >= budget:
                                budget_exhausted = True
                                final = self._exhausted_report(width, inference)
                                break
                            # A failed transform says nothing about which
                            # widths suffice -- carrying slices out of it
                            # would be pure speculation, and a wrong
                            # guess costs whole solver calls against an
                            # accounting margin of one script-size unit.
                            # The next round enters at full width.
                            prev_width = None
                            width = self._grow(width)
                            continue
                        break
                    ceiling = new_ceiling
                    total_work += _bill(
                        t_trans, None if budget is None else budget - total_work
                    )
                    ctx["engine"] = None
                    # Variables enter at the carried width when one was
                    # learned, defaulting to the previous scheduled
                    # width, clamped to this round's. The first round
                    # has neither, so it is exactly a scratch solve (no
                    # assumptions to churn on a cold solver).
                    entry = width if prev_width is None else prev_width
                    var_widths = {
                        name: min(width, carry.get(name, entry))
                        for name, sort in transformed.script.declarations.items()
                        if sort.is_bv
                    }

                kind, payload, round_work = self._incremental_round(
                    script, transformed, ctx, width, ceiling, var_widths,
                    budget, total_work, store,
                )
                round_work = _bill(
                    round_work,
                    None if budget is None else budget - total_work,
                )
                total_work += round_work
                span.set_attr("subrounds", ctx["subrounds"])

                if kind == "exhausted":
                    span.set_attr("case", CASE_BOUNDED_UNKNOWN)
                    budget_exhausted = True
                    final = self._exhausted_report(width, inference)
                    break
                if kind == "unknown":
                    span.set_attr("case", CASE_BOUNDED_UNKNOWN)
                    rounds.append((width, CASE_BOUNDED_UNKNOWN))
                    final = Staub._finish(
                        ArbitrageReport(
                            CASE_BOUNDED_UNKNOWN,
                            t_trans=t_trans,
                            t_post=round_work,
                            width=width,
                            inference=inference,
                            bounded_status="unknown",
                        )
                    )
                    break
                if kind == "sat":
                    case, candidate, t_check = payload
                    span.set_attr("case", case)
                    rounds.append((width, case))
                    final = Staub._finish(
                        ArbitrageReport(
                            case,
                            model=candidate,
                            t_trans=t_trans,
                            t_post=round_work - t_check,
                            t_check=t_check,
                            width=width,
                            inference=inference,
                            bounded_status="sat",
                        )
                    )
                    break

                # unsat at this width
                span.set_attr("case", CASE_BOUNDED_UNSAT)
                rounds.append((width, CASE_BOUNDED_UNSAT))
                if kind == "unsat-escalate" and (
                    len(rounds) < self.max_rounds and width < self.max_width
                ):
                    if budget is not None and total_work >= budget:
                        budget_exhausted = True
                        final = self._exhausted_report(width, inference)
                        break
                    # Whatever widths this round settled on ride into
                    # the next one as its entry assumptions (clamped to
                    # the old round width, so the next round starts one
                    # schedule step behind and its unsat core decides
                    # what actually widens). Only a real solve round
                    # earns this: the slices say "these widths were
                    # enough for everything the last conflict did not
                    # complain about".
                    carry = dict(var_widths)
                    prev_width = width
                    width = self._grow(width)
                    continue
                if kind == "unsat-stop":
                    # Width-independent conflict: every wider round would
                    # return the same answer, so they are skipped.
                    telemetry.counter_add("refine.rounds_skipped", mode="incremental")
                final = Staub._finish(
                    ArbitrageReport(
                        CASE_BOUNDED_UNSAT,
                        t_trans=t_trans,
                        t_post=round_work,
                        width=width,
                        inference=inference,
                        bounded_status="unsat",
                    )
                )
                break

        telemetry.counter_add("refine.rounds", amount=len(rounds), mode="incremental")
        telemetry.counter_add(
            "refine.subrounds", amount=ctx["subrounds"], mode="incremental"
        )
        return RefinementReport(
            final,
            rounds,
            total_work,
            mode="incremental",
            budget_exhausted=budget_exhausted,
            cache_hits=ctx["cache_hits"],
            clauses_reused=ctx["clauses_reused"],
            core_widened=ctx["core_widened"],
            subrounds=ctx["subrounds"],
        )

    @staticmethod
    def _int_transform_fits(script, width):
        """Whether a width-``width`` int transform is representable."""
        try:
            transform_script(script, "int", width=width)
        except TransformError:
            return False
        return True

    def _incremental_round(
        self, script, transformed, ctx, width, ceiling, var_widths,
        budget, spent, store,
    ):
        """One scheduled round at global width ``width``.

        A round whose entry slices are all at the round width (the first
        solve round, and every round after a transform-failed one) is a
        single solve -- no assumptions, no caps: exactly the scratch
        round. A round entered with narrow slices (carried out of a
        previous unsat round) runs in phases on one warm solver:

        1. a conflict-capped solve at the full round width -- no
           assumption ladders built at all, so a round the scratch
           engine finishes quickly concludes here at exactly scratch
           cost (a capped solve that concludes took the identical
           search);
        2. on cap-out, the narrow entry slices as assumptions, iterating
           core-guided widening: an UNSAT whose core names variables
           still below ``width`` widens just those and re-solves warm --
           learned clauses survive, nothing is re-encoded;
        3. a final uncapped full-width solve if the slices keep stalling.

        Every conclusive answer comes from the same encoding a scratch
        round at ``width`` uses (a model under extra assumptions is a
        model, and a conclusive UNSAT is assumption-free), so the
        round's verdict is identical to scratch regardless of which
        phase concluded.

        Returns ``(kind, payload, work)`` with kind one of ``"sat"``
        (payload ``(case, model, t_check)``), ``"unsat-stop"``
        (width-independent), ``"unsat-escalate"``, ``"unknown"``, or
        ``"exhausted"``.
        """
        work = 0
        full = {name: width for name in var_widths}
        lazy = any(value < width for value in var_widths.values())
        phase = "full-capped" if lazy else "full"
        # Each probe pass widens at least one variable and each cap-out
        # advances the phase, so the loop is bounded by total available
        # widening; the cap is a defensive backstop.
        cap = 6 + 4 * len(var_widths)
        for _ in range(cap):
            if budget is not None and spent + work >= budget:
                return "exhausted", None, work
            remaining = None if budget is None else budget - spent - work
            capped = phase != "full"
            result, hit = self._solve_sub_round(
                script, transformed, ctx, width, ceiling,
                var_widths if phase == "probe" else full,
                remaining, PROBE_CONFLICTS if capped else None, store,
            )
            ctx["subrounds"] += 1
            ctx["cache_hits"] += hit
            ctx["clauses_reused"] += result.reused_clauses
            telemetry.counter_add(
                "refine.clauses_reused", amount=result.reused_clauses
            )
            work += costs.from_sat(result.work)
            if result.status == "unknown":
                if capped and (remaining is None or result.work < remaining):
                    # The conflict cap bit, not the budget: advance to
                    # the next phase on the (now warm) solver.
                    phase = "probe" if phase == "full-capped" else "full"
                    continue
                return "unknown", result, work
            if result.status == "sat":
                case, candidate, t_check = check_candidate(
                    script, transformed, result.model
                )
                work += t_check
                return "sat", (case, candidate, t_check), work
            # unsat: read the assumption core
            if result.root_conflict or not result.assumed:
                # Nothing retractable was involved: the *ceiling* encoding
                # is unsatisfiable, which covers every width up to it
                # (the underapproximation grows with width). Only when the
                # ceiling already reaches the loop's cap is that a
                # width-independent verdict; otherwise a wider stage may
                # still answer differently.
                if ceiling >= self.max_width:
                    return "unsat-stop", result, work
                return "unsat-escalate", result, work
            widenable = [
                name for name in result.core if var_widths.get(name, width) < width
            ]
            if not widenable:
                # Either the round-width guards bind or every core
                # variable is already at the round width (possible under
                # an encoding ceiling above the round): the fix is global
                # growth, not more per-variable widening.
                return "unsat-escalate", result, work
            for name in widenable:
                var_widths[name] = self._grow(var_widths[name], cap=width)
            ctx["core_widened"] += len(widenable)
            telemetry.counter_add("refine.core_vars", amount=len(widenable))
            phase = "probe"
        return "unsat-escalate", None, work

    def _solve_sub_round(
        self, script, transformed, ctx, width, ceiling, widths,
        remaining, max_conflicts, store,
    ):
        """One solver call (or cache replay) at an exact width state."""
        key = None
        if store is not None:
            # The key pins the solver-state position (sub-round ordinal)
            # and conflict cap alongside the width state: a sub-round's
            # work depends on the learned clauses accumulated before it,
            # so only the exact same point in the exact same schedule may
            # replay it. ``/v2``: the cap counts per call; a sub-round
            # stored while it counted the solver's lifetime conflicts
            # must not replay.
            key = refine_round_key(
                script,
                dict(widths),
                f"incremental/g{width}/s{ctx['subrounds']}"
                f"/c{max_conflicts or 0}/v2",
                ceiling,
            )
            entry = store.get(key, kind="refine")
            if entry is not None and entry.get("mode") == "incremental":
                telemetry.counter_add("refine.cache_hit", mode="incremental")
                return refine_round_from_entry(entry), 1
        if ctx["engine"] is None:
            # Lazy: a fully warm replay never pays for blasting at all.
            # The whole ceiling encoding is blasted once, hard.
            ctx["engine"] = BoundedEngine(transformed.script.declarations)
            ctx["engine"].blast(
                transformed.script.assertions, "bv-incremental", incremental=True
            )
        watch = Watch(guard.active())
        result = _solve_round(
            ctx["engine"], transformed.tracked, widths, guard_width=width,
            max_work=remaining, max_conflicts=max_conflicts,
        )
        # Conclusive answers are facts about the width state; a *capped*
        # unknown (the conflict cap bit before the budget did) is a
        # deterministic phase step that its key determines and replays
        # too. A budget unknown is an artifact of this run's remaining
        # budget and is never stored.
        capped_out = max_conflicts is not None and (
            remaining is None or result.work < remaining
        )
        record(
            store, watch, result.status, key,
            lambda: entry_from_refine_round(result),
            determined=capped_out, kind="refine",
        )
        return result, 0


def _solve_round(engine, tracked, widths, guard_width, max_work, max_conflicts):
    """Solve with every variable truncated to its entry in ``widths``.

    A round at a narrower width than the encoding is a check under
    per-variable truncation assumptions ("the high bits are
    sign-extension", see
    :meth:`~repro.bv.bitblast.BitBlaster.truncation_assumption`);
    widening a variable just drops its assumption at the next call, so
    learned clauses survive every round. On a bounded-UNSAT round the
    failing truncation assumptions are the unsat core that drives
    core-guided widening.

    Args:
        engine: the :class:`~repro.bv.solver.BoundedEngine` holding the
            encoding, hard.
        tracked: the transform's tracked arithmetic result terms.
        widths: name -> width mapping; variables missing from it (or
            mapped at/above their declared width) are unconstrained.
        guard_width: additionally assume every tracked result fits
            ``guard_width`` bits signed -- the overflow-guard semantics
            of a scratch transform at that width. At the full width this
            is a no-op (the hard guards already apply).
        max_work: deterministic budget for this round (raw bounded
            units, covering the round's ladder clauses and search).

    Returns:
        A :class:`RefinementRound`.
    """
    if guard.active().interrupted("bv"):
        return RefinementRound(
            "unknown", None, 0, (), False, False, 0,
            engine.solver.learned_count(), 0,
        )
    blaster = engine.blaster
    owners = {}  # assumption literal -> [variable name], [None] for a guard
    for name in sorted(widths):
        literal = blaster.truncation_assumption(name, widths[name])
        if literal is not None:
            owners[literal] = [name]
    for term in tracked:
        # Tracked terms are subterms of the assertions: cache hits.
        literal = blaster.slice_assumption(blaster.blast_bits(term), guard_width)
        if literal is not None and literal not in owners:
            owners[literal] = [None]
    # The round pays for the clauses it attaches: its new ladders, and
    # on the engine's first round the whole encoding.
    new_clauses = engine.pending_clauses
    blast_work = BLAST_WORK_PER_CLAUSE * new_clauses
    check = engine.check(
        owners,
        max_work=None if max_work is None else max_work - blast_work,
        max_conflicts=max_conflicts,
    )
    core = check.core or ()
    return RefinementRound(
        check.status,
        check.model,
        blast_work + check.work,
        tuple(sorted(name for name in core if name is not None)),
        None in core,
        check.status == "unsat" and check.core is None,
        len(owners),
        check.reused,
        new_clauses,
    )
