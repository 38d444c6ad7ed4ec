"""The named benchmark suites ``staub bench`` can run.

Every case is deterministic end to end: seeded generators, fixed work
budgets, no wall-clock dependence anywhere in the measured path. A case
is a callable returning a small dict of deterministic outcomes
(``verdict`` plus ``work`` in unified units, at minimum); the harness
wraps it with telemetry and runs it cold and warm with the case's
:class:`~repro.cache.SolveCache` active.

Suites:

- ``smoke``: a handful of fast cases covering every engine family
  (bounded BV, LIA simplex, NIA interval/bit-blast, width refinement).
  Small enough for CI to run twice per push.
- ``qf_nia``: the QF_NIA refinement set -- seeded NIA instances run
  through the width-refinement loop (the workload the ROADMAP's
  SAT-core overhaul is measured on).
- ``benchgen``: a seeded slice of all four generator logics through the
  solve facade, both unbounded profiles on NIA.
- ``termination``: termination-prover programs through the Automizer
  client (the RQ3 query stream: many similar, mostly-unsat queries),
  each program both in the classic per-query mode (``term/``) and with
  the STAUB lane scoped through push/pop sessions (``term-session/``).
"""

from repro.benchgen import suite_for
from repro.smtlib import parse_script

#: Budget used by bench cases (small: suites must stay CI-fast).
BENCH_BUDGET = 200_000


class BenchCase:
    """One named, deterministic benchmark case.

    Attributes:
        name: unique within the suite; keys the artifact sections.
        kind: coarse grouping label (``solve`` / ``refine`` / ...).
        run: ``run() -> dict`` with at least ``verdict`` and ``work``.
            The harness runs it with a fresh or warmed
            :class:`~repro.cache.SolveCache` active
            (:func:`repro.cache.activated`), which every cached layer
            below reads.
    """

    __slots__ = ("name", "kind", "run")

    def __init__(self, name, kind, run):
        self.name = name
        self.kind = kind
        self.run = run

    def __repr__(self):
        return f"BenchCase({self.name!r}, kind={self.kind!r})"


def _solve_case(name, script, profile="zorro", budget=BENCH_BUDGET):
    from repro.solver import solve_script

    def run():
        result = solve_script(script, budget=budget, profile=profile)
        return {
            "verdict": result.status,
            "work": result.work,
            "engine": result.engine,
            "cached": bool(result.cached),
        }

    return BenchCase(name, "solve", run)


def _refine_case(name, script, budget=BENCH_BUDGET):
    from repro.core.refinement import RefinementStaub

    def run():
        report = RefinementStaub().run(script, budget=budget)
        return {
            "verdict": report.case,
            "work": report.total_work,
            "rounds": len(report.rounds),
            "cache_hits": report.cache_hits,
        }

    return BenchCase(name, "refine", run)


def _arbitrage_case(name, script, budget=BENCH_BUDGET):
    from repro.core.pipeline import Staub

    def run():
        report = Staub().run(script, budget=budget)
        return {
            "verdict": report.case,
            "work": report.total_work,
            "width": report.width if report.width is None else int(report.width),
        }

    return BenchCase(name, "arbitrage", run)


def _termination_case(name, program, budget=BENCH_BUDGET, use_sessions=False):
    from repro.termination.automizer import Automizer

    def run():
        analysis = Automizer(budget=budget, use_sessions=use_sessions).analyze(
            program
        )
        return {
            "verdict": analysis.verdict,
            "work": analysis.final_work,
            "queries": len(analysis.queries),
            "staub_work": sum(query.staub_work for query in analysis.queries),
            "baseline_work": analysis.baseline_work,
        }

    return BenchCase(name, "termination", run)


_MOTIVATING = (
    "(set-logic QF_NIA)\n"
    "(declare-fun x () Int)(declare-fun y () Int)\n"
    "(assert (= (* x y) 77))(assert (> x 1))(assert (< x y))\n"
    "(check-sat)\n"
)

_BOUNDED = (
    "(declare-fun v () (_ BitVec 8))(declare-fun w () (_ BitVec 8))\n"
    "(assert (= (bvmul v w) (_ bv77 8)))(assert (bvult (_ bv1 8) v))\n"
    "(assert (bvult v w))\n"
    "(check-sat)\n"
)

_UNSAT_NIA = (
    "(set-logic QF_NIA)\n"
    "(declare-fun x () Int)\n"
    "(assert (> x 3))(assert (= (* x x) 4))\n"
    "(check-sat)\n"
)


def _smoke():
    nia = suite_for("QF_NIA", seed=2024, scale=0.04)
    lia = suite_for("QF_LIA", seed=2024, scale=0.03)
    cases = [
        _solve_case("bv/planted-product", parse_script(_BOUNDED)),
        _arbitrage_case("pipeline/motivating", parse_script(_MOTIVATING)),
        _refine_case("refine/unsat-square", parse_script(_UNSAT_NIA)),
    ]
    for benchmark in list(nia)[:2]:
        cases.append(_solve_case(f"nia/{benchmark.name}", benchmark.script))
    for benchmark in list(lia)[:2]:
        cases.append(_solve_case(f"lia/{benchmark.name}", benchmark.script))
    return cases


def _qf_nia():
    cases = []
    for benchmark in suite_for("QF_NIA", seed=2024, scale=0.15):
        cases.append(_refine_case(f"refine/{benchmark.name}", benchmark.script))
    return cases


def _benchgen():
    cases = []
    for logic, scale in (
        ("QF_NIA", 0.1),
        ("QF_LIA", 0.1),
        ("QF_NRA", 0.1),
        ("QF_LRA", 0.1),
    ):
        prefix = logic.split("_", 1)[1].lower()
        for benchmark in suite_for(logic, seed=2024, scale=scale):
            cases.append(_solve_case(f"{prefix}/{benchmark.name}", benchmark.script))
            if logic == "QF_NIA":
                cases.append(
                    _solve_case(
                        f"{prefix}/{benchmark.name}/corvus",
                        benchmark.script,
                        profile="corvus",
                    )
                )
    return cases


def _termination():
    from repro.termination.programs import termination_benchmark_suite

    cases = []
    for program, _expected in termination_benchmark_suite(seed=2024, count=4):
        cases.append(_termination_case(f"term/{program.name}", program))
        # The same query stream with the STAUB lane scoped: a shared
        # push/pop session per constraint family, so the iterative
        # candidates pay inference/translation/bit-blasting once. The
        # session-vs-classic comparison (strictly less deterministic
        # STAUB work, verdicts never downgraded) is asserted by
        # tests/test_bench.py over this artifact.
        cases.append(
            _termination_case(
                f"term-session/{program.name}", program, use_sessions=True
            )
        )
    return cases


_SUITES = {
    "smoke": _smoke,
    "qf_nia": _qf_nia,
    "benchgen": _benchgen,
    "termination": _termination,
}


def available_suites():
    """Suite names, sorted."""
    return sorted(_SUITES)


def get_suite(name):
    """Build the cases of a named suite.

    Raises:
        KeyError: unknown suite name.
    """
    try:
        factory = _SUITES[name]
    except KeyError:
        raise KeyError(
            f"unknown suite {name!r}; available: {', '.join(available_suites())}"
        ) from None
    return factory()
