"""The end-to-end STAUB pipeline (Fig. 3) with portfolio semantics (4.4).

:class:`Staub` wires the stages together: bound inference, width
selection, transformation, bounded solving, verification. Its
:meth:`Staub.run` returns an :class:`ArbitrageReport` with the
paper's cost decomposition (T_trans, T_post, T_check) on the unified
virtual clock, plus the Fig. 6 case that applied. An
:class:`ArbitrageRun` carries one constraint through the pipeline across
growing budgets (the portfolio's bounded lane); a one-shot
:meth:`Staub.run` is a run advanced once.

Portfolio accounting against a baseline run (T_pre) lives in
:func:`portfolio_time`: the user-observed cost is
``min(T_pre, T_trans + T_post + T_check)`` when STAUB's answer is usable,
and ``T_pre`` otherwise -- two cores racing, never slower than the
original (Section 5.1).
"""

from repro import guard, telemetry
from repro import cache as solve_cache
from repro.bv.solver import BoundedRun, assertion_core_digests
from repro.cache.admission import Watch, lookup, record
from repro.cache.keys import script_digests
from repro.core.correspondence import FixedPointShape
from repro.portfolio.scheduler import PrecomputedAttempt, race_precomputed
from repro.core.inference import infer_bounds
from repro.core.transform import transform_script
from repro.core.verify import verify_model
from repro.errors import TransformError
from repro.solver import costs
from repro.telemetry.stats import unified_stats

#: Fig. 6 cases (plus failure modes before solving).
CASE_VERIFIED_SAT = "verified-sat"  # speedup: return the model
CASE_SEMANTIC_DIFFERENCE = "semantic-difference"  # revert
CASE_BOUNDED_UNSAT = "bounded-unsat"  # revert
CASE_BOUNDED_UNKNOWN = "bounded-unknown"  # bounded side timed out
CASE_TRANSFORM_FAILED = "transform-failed"  # constants too wide, etc.

#: Work units charged per original-term DAG node during analysis+translation.
TRANSLATE_COST_PER_NODE = 2

#: Width caps: the analysis can produce huge widths for deep nonlinear
#: terms; beyond these, bounded solving is hopeless anyway and the
#: underapproximation handles correctness.
MAX_INT_WIDTH = 16
MIN_INT_WIDTH = 4
MAX_MAGNITUDE_BITS = 12
MAX_PRECISION_BITS = 8


class ArbitrageReport:
    """Everything STAUB did for one constraint.

    Attributes:
        case: one of the CASE_* constants.
        model: verified satisfying assignment (only for verified-sat).
        t_trans / t_post / t_check: unified work per stage.
        width: chosen bitvector width (int) or total fixed-point width.
        shape: the fixed-point shape for real constraints.
        inference: the :class:`BoundInference` (None if analysis failed).
        bounded_status: raw status from the bounded solver.
        stats: uniform counter dict (see :mod:`repro.telemetry.stats`)
            with the bounded solver's counters plus ``width`` and
            ``case`` labels.
    """

    def __init__(
        self,
        case,
        model=None,
        t_trans=0,
        t_post=0,
        t_check=0,
        width=None,
        shape=None,
        inference=None,
        bounded_status=None,
        stats=None,
    ):
        self.case = case
        self.model = model
        self.t_trans = t_trans
        self.t_post = t_post
        self.t_check = t_check
        self.width = width
        self.shape = shape
        self.inference = inference
        self.bounded_status = bounded_status
        self.stats = stats if stats is not None else unified_stats(case=case)

    @property
    def total_work(self):
        return self.t_trans + self.t_post + self.t_check

    @property
    def usable(self):
        """True when STAUB produced an answer the user can take."""
        return self.case == CASE_VERIFIED_SAT

    def __repr__(self):
        return f"ArbitrageReport({self.case}, total={self.total_work})"


def choose_int_width(inference, width_strategy="absint", max_int_width=MAX_INT_WIDTH):
    """Width selection for integer constraints (Fig. 4 practicalities).

    Module-level so the scope-aware session lane
    (:mod:`repro.core.session`) applies the exact same rule as
    :meth:`Staub._choose_int_width`: the root inference when it fits the
    practical cap, else the variable assumption ``x`` with overflow
    guards enforcing intermediate soundness.
    """
    if isinstance(width_strategy, int):
        return width_strategy
    if inference.root <= max_int_width:
        return max(MIN_INT_WIDTH, inference.root)
    return max(MIN_INT_WIDTH, min(inference.assumption, max_int_width))


def check_candidate(script, transformed, bounded_model):
    """Stage 5: back-map a bounded model and verify it exactly.

    Every sat answer of :meth:`Staub.run` -- each refinement round's
    included -- goes through this one underapproximation contract.

    Returns:
        ``(case, model, t_check)`` -- :data:`CASE_VERIFIED_SAT` with the
        unbounded candidate when it satisfies the original script,
        :data:`CASE_SEMANTIC_DIFFERENCE` with ``None`` otherwise.
    """
    candidate = transformed.back_map(bounded_model)
    with telemetry.span("verify") as span:
        outcome = verify_model(script, candidate)
        span.set_attr("ok", outcome.ok)
        span.settle(outcome.work)
    if outcome.ok:
        return CASE_VERIFIED_SAT, candidate, outcome.work
    return CASE_SEMANTIC_DIFFERENCE, None, outcome.work


class ArbitrageRun:
    """One constraint's pass through :meth:`Staub.run`, continued across
    growing budgets.

    ``Staub.run(script, budget, resume=run)`` picks the run up where its
    previous budget left it. The translation, the solve cache the bounded
    side looks up and records into (the one active when it starts, which
    also fixes the search mode), and the blasted engine with its paused
    search are kept, so a larger budget only searches further. An answer
    no larger budget changes (verified-sat, semantic-difference,
    bounded-unsat, transform-failed) is handed back as it is. The bounded
    search is budget-prefix deterministic, so every budget's report is
    exactly a fresh run's at that budget. A one-shot :meth:`Staub.run` is
    a run advanced once.
    """

    __slots__ = ("script", "translation", "store", "watch", "bounded", "t_post", "report")

    def __init__(self, script):
        self.script = script
        self.translation = None  # (transformed, inference, t_trans, bounded script)
        self.store = None
        self.watch = None
        self.bounded = None  # the BoundedRun, once the bounded side starts
        self.t_post = 0  # what the bounded side has spent so far
        self.report = None  # the answer no larger budget changes


class Staub:
    """Configurable theory-arbitrage pre-processor.

    Args:
        width_strategy: ``"absint"`` (the paper's inference), or an int
            for a fixed width (the ablation baselines).
        max_int_width / max_magnitude_bits / max_precision_bits: caps.
    """

    def __init__(
        self,
        width_strategy="absint",
        max_int_width=MAX_INT_WIDTH,
        max_magnitude_bits=MAX_MAGNITUDE_BITS,
        max_precision_bits=MAX_PRECISION_BITS,
        optimizer=None,
    ):
        self.width_strategy = width_strategy
        self.max_int_width = max_int_width
        self.max_magnitude_bits = max_magnitude_bits
        self.max_precision_bits = max_precision_bits
        self.optimizer = optimizer

    # -- width selection ---------------------------------------------------

    def _choose_int_width(self, inference):
        """Width selection for integer constraints.

        When the root inference ``[S]`` is within the practical cap, use
        it directly (Fig. 4 of the paper: the root width covers every
        intermediate). Deeply nonlinear constraints push ``[S]`` far past
        any solvable width; there we fall back to the variable assumption
        ``x`` and let the overflow guards enforce intermediate soundness
        (exactly the shape of the paper's Fig. 1b, where the sum-of-cubes
        constraint is translated at the assumption width 12 rather than
        the 38-bit root width).
        """
        return choose_int_width(inference, self.width_strategy, self.max_int_width)

    def _choose_shape(self, inference):
        if isinstance(self.width_strategy, int):
            magnitude = max(2, self.width_strategy - self.width_strategy // 3)
            precision = max(1, self.width_strategy // 3)
            return FixedPointShape(magnitude, precision)
        root = inference.root
        magnitude = max(3, min(root.magnitude, self.max_magnitude_bits))
        precision = root.precision
        if precision is None:
            precision = self.max_precision_bits
        precision = max(1, min(precision, self.max_precision_bits))
        return FixedPointShape(magnitude, precision)

    # -- pipeline stages ------------------------------------------------------

    def transform(self, script):
        """Stages 1-3: infer bounds and translate.

        Returns:
            ``(TransformResult, BoundInference, t_trans)``.

        Raises:
            TransformError: unsupported constraint or unrepresentable
                constants at the chosen width.
        """
        # t_trans covers analysis + translation; on the trace it splits
        # evenly between the two stages (TRANSLATE_COST_PER_NODE == 2:
        # one unit per node to analyze, one to translate).
        size = script.size()
        t_trans = TRANSLATE_COST_PER_NODE * size
        with telemetry.span("infer") as span:
            inference = infer_bounds(script)
            span.set_attr("theory", inference.theory)
            span.add_work(size)
        with telemetry.span("transform") as span:
            try:
                if inference.theory == "int":
                    width = self._choose_int_width(inference)
                    result = transform_script(script, "int", width=width)
                else:
                    shape = self._choose_shape(inference)
                    result = transform_script(script, "real", shape=shape)
            finally:
                # A failed translation did its work too: settle before
                # the error leaves the span.
                span.settle(t_trans - size)
            span.set_attr("width", result.width)
        return result, inference, t_trans

    def run(self, script, budget=None, resume=None):
        """Run the full pipeline on one unbounded script.

        Args:
            script: the original constraint.
            budget: unified work budget for the bounded solve.
            resume: an :class:`ArbitrageRun` of ``script`` to continue at
                this budget, which must not be smaller than the one it
                last ran at; None runs once.

        Returns:
            An :class:`ArbitrageReport`.
        """
        run = resume if resume is not None else ArbitrageRun(script)
        if run.script is not script:
            raise ValueError("an ArbitrageRun continues only its own script")
        if run.report is not None:
            return self._finish(run.report)
        report = self._advance(run, budget)
        if report.case != CASE_BOUNDED_UNKNOWN:
            # No larger budget changes this answer: keep it, and let the
            # engine go.
            run.report, run.bounded = report, None
        return self._finish(report)

    def _advance(self, run, budget):
        """One budget's worth of :meth:`run`: whatever ``run`` still needs."""
        script = run.script
        if run.translation is None:
            try:
                transformed, inference, t_trans = self.transform(script)
            except TransformError:
                # The failed attempt still analyzed and translated the
                # script; charging zero would undercount every retry loop
                # that probes widths (the telemetry spans already record
                # this work -- the report must agree with them).
                return ArbitrageReport(
                    CASE_TRANSFORM_FAILED,
                    t_trans=TRANSLATE_COST_PER_NODE * script.size(),
                )
            bounded_script = transformed.script
            if self.optimizer is not None:
                # RQ2: chain a bounded-constraint optimizer (SLOT) after the
                # arbitrage; its cost is part of T_trans.
                with telemetry.span("transform", phase="slot") as span:
                    bounded_script = self.optimizer(bounded_script)
                    extra = TRANSLATE_COST_PER_NODE * transformed.script.size()
                    t_trans += extra
                    span.add_work(extra)
            run.translation = (transformed, inference, t_trans, bounded_script)
        transformed, inference, t_trans, bounded_script = run.translation
        common = dict(
            t_trans=t_trans,
            width=transformed.width,
            shape=transformed.shape,
            inference=inference,
        )

        if guard.active().interrupted("pipeline"):
            # The envelope died during transformation: degrade without
            # starting the bounded solve.
            return ArbitrageReport(
                CASE_BOUNDED_UNKNOWN, bounded_status="unknown", **common
            )

        if run.bounded is None:
            store = solve_cache.get_cache()
            hit = lookup(
                store, digests=lambda: script_digests(bounded_script), kind="arbitrage"
            )
            if hit is not None:
                # A cached unsat core subsumes the transformed script: the
                # bounded side is unsat with zero solver work, so the
                # bounded-solve span never opens.
                stats = hit.stats
                stats["width"] = transformed.width
                return ArbitrageReport(
                    CASE_BOUNDED_UNSAT, bounded_status="unsat", stats=stats, **common
                )
            run.store, run.watch = store, Watch(guard.active())
            run.bounded = BoundedRun(bounded_script, core=store is not None)

        remaining = None if budget is None else max(1, budget - t_trans)
        with telemetry.span("bounded-solve", width=transformed.width) as span:
            bounded = run.bounded.solve(max_work=remaining)
            t_post = costs.from_sat(bounded.work)
            span.set_attr("status", bounded.status)
            # A continued search charges the trace only what it added.
            span.settle(t_post - run.t_post)
        run.t_post = t_post
        stats = bounded.stats_dict()
        stats["width"] = transformed.width
        common.update(t_post=t_post, bounded_status=bounded.status, stats=stats)

        if bounded.status == "unknown":
            return ArbitrageReport(CASE_BOUNDED_UNKNOWN, **common)
        if bounded.status == "unsat":
            # Original-unsat and bounds-insufficient are indistinguishable
            # (Fig. 6 case 1): revert.
            record(
                run.store, run.watch, "unsat",
                core=lambda: (
                    bounded.core and assertion_core_digests(bounded_script, bounded.core)
                ),
                kind="arbitrage",
            )
            return ArbitrageReport(CASE_BOUNDED_UNSAT, **common)

        case, candidate, t_check = check_candidate(script, transformed, bounded.model)
        return ArbitrageReport(case, model=candidate, t_check=t_check, **common)

    @staticmethod
    def _finish(report):
        """Telemetry hook: label the report and bump the Fig. 6 counters."""
        report.stats["case"] = report.case
        if telemetry.enabled:
            telemetry.counter_add("arbitrage.case", case=report.case)
            if report.width is not None:
                telemetry.observe("arbitrage.width", int(report.width))
            telemetry.observe("arbitrage.total_work", report.total_work)
        return report


def portfolio_time(t_pre, report):
    """User-observed cost under the two-core portfolio (Section 5.1).

    Args:
        t_pre: unified work of solving the original constraint (with
            timeouts clamped to the budget).
        report: the :class:`ArbitrageReport` for the same constraint.

    Returns:
        ``min(t_pre, report.total_work)`` when STAUB's run produced a
        usable answer, else ``t_pre``.

    Implemented on the portfolio scheduler's accounting
    (:func:`repro.portfolio.scheduler.race_precomputed`): the original
    lane is always conclusive (its timeout *is* the fallback answer the
    user waits for), the STAUB lane only when the model verified.
    """
    lanes = [
        PrecomputedAttempt("original", conclusive=True, work=t_pre),
        PrecomputedAttempt("staub", conclusive=report.usable, work=report.total_work),
    ]
    return race_precomputed(lanes).observed_work
