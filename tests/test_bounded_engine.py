"""The bounded engine and the soundness of the cores it reports.

One :class:`~repro.bv.solver.BoundedEngine` serves one-shot solving
(hard clauses, or per-assertion literals whose unsat answer carries the
assertion-level core a solve cache stores), sessions and width
refinement. The oracle here is the uncached one-shot solve: whatever
assertion subset a core path reports must be unsat on its own. Sources
are bounded translations of seeded benchgen instances, termination
ranking queries, and seeded BV session traces.
"""

import functools
import random

import pytest

from repro.benchgen import suite_for
from repro.bv.solver import BoundedEngine, solve_bounded_script
from repro.cache import SolveCache, activated
from repro.core.pipeline import CASE_BOUNDED_UNSAT, Staub
from repro.errors import TransformError, UnsupportedLogicError
from repro.sat.solver import SatSolver
from repro.smtlib import build, parse_term
from repro.smtlib.script import Script
from repro.smtlib.sorts import INT, bv_sort
from repro.solver import solve_script
from repro.solver.session import Session
from repro.termination.programs import termination_benchmark_suite
from repro.termination.ranking import ranking_constraints

BUDGET = 400_000


def _bounded(script):
    """The pipeline's bounded translation of an unbounded script, or None."""
    try:
        transformed, _, _ = Staub().transform(script)
    except TransformError:
        return None
    return transformed.script


def _assert_core_is_unsat(script, indices):
    """The oracle: the reported assertions alone must be unsat."""
    subset = Script(
        declarations=script.declarations,
        assertions=[script.assertions[i] for i in indices],
    )
    assert solve_bounded_script(subset, max_work=BUDGET).status == "unsat", (
        f"core {indices} of {len(script.assertions)} assertions is satisfiable"
    )


def _unsat_bounded(scripts):
    """Bounded translations that the one-shot solve finds unsat."""
    found = []
    for script in scripts:
        bounded = _bounded(script)
        if bounded is None:
            continue
        if solve_bounded_script(bounded, max_work=BUDGET).status == "unsat":
            found.append(bounded)
    return found


@functools.lru_cache(maxsize=None)
def _benchgen_unsat():
    """Bounded-unsat translations of a seeded QF_NIA slice."""
    return _unsat_bounded(b.script for b in suite_for("QF_NIA", seed=2024, scale=0.08))


def _ranking_scripts():
    programs = [p for p, _ in termination_benchmark_suite(seed=2024, count=6)]
    return [
        ranking_constraints(program, coefficient_bound=bound, decrease=decrease)
        for program in programs
        for bound, decrease in ((2, 1), (4, 3))
    ]


def _spy_searches(monkeypatch):
    """Record ``(max_work, solver work so far)`` for every SAT search."""
    searches = []
    solve = SatSolver.solve

    def spy(solver, assumptions=(), max_conflicts=None, max_work=None, **options):
        searches.append((max_work, solver.work()))
        return solve(solver, assumptions, max_conflicts, max_work, **options)

    monkeypatch.setattr(SatSolver, "solve", spy)
    return searches


def _core(script, max_work=BUDGET):
    """The core of the one-shot solve under per-assertion literals."""
    result = solve_bounded_script(script, max_work=max_work, core=True)
    assert result.core is None or result.status == "unsat"
    return result.core


class TestCoreSoundness:
    def test_benchgen_cores_are_unsat(self):
        scripts = _benchgen_unsat()
        assert scripts, "the seeded slice has no bounded-unsat instance"
        for script in scripts:
            indices = _core(script)
            assert indices is not None
            assert list(indices) == sorted(set(indices))
            _assert_core_is_unsat(script, indices)

    def test_ranking_query_cores_are_unsat(self):
        scripts = _unsat_bounded(_ranking_scripts())
        assert scripts, "no ranking query is bounded-unsat"
        proper = 0
        for script in scripts:
            indices = _core(script)
            assert indices is not None
            _assert_core_is_unsat(script, indices)
            proper += len(indices) < len(script.assertions)
        # Cores are worth storing only if they drop assertions.
        assert proper > 0

    def test_assertions_sharing_a_literal_are_all_listed(self):
        decls = {"x": bv_sort(8)}
        low = parse_term("(bvult x #x05)", decls)
        high = parse_term("(bvult #x0a x)", decls)
        free = parse_term("(bvule x #xff)", decls)
        # A repeated term and a double negation both blast to low's
        # literal: one assumption, three owners.
        script = Script(
            declarations=decls,
            assertions=[low, free, high, low, build.Not(build.Not(low))],
        )
        indices = _core(script, max_work=None)
        assert indices == (0, 2, 3, 4)
        _assert_core_is_unsat(script, indices)
        # Hard clauses carry no assertion literals, hence no core.
        hard = solve_bounded_script(script)
        assert hard.status == "unsat" and hard.core is None

    def test_sat_and_unbounded_scripts_have_no_core(self):
        decls = {"x": bv_sort(8)}
        sat = Script(declarations=decls, assertions=[parse_term("(bvult x #x05)", decls)])
        assert _core(sat) is None
        assert _core(Script(declarations={}, assertions=[])) is None
        # An unbounded unsat answer comes from DPLL(T), which reports no
        # core, so a cached solve stores none.
        unbounded = Script(
            declarations={"n": INT},
            assertions=[
                build.Lt(build.IntVar("n"), build.IntConst(0)),
                build.Gt(build.IntVar("n"), build.IntConst(0)),
            ],
        )
        with activated(SolveCache()) as store:
            assert solve_script(unbounded, budget=BUDGET).status == "unsat"
        assert store.stats()["cores"] == 0

    def test_session_last_core_terms_are_unsat(self):
        cores = sum(self._session_trace(seed) for seed in range(12))
        assert cores > 0, "no unsat session check produced a core"

    @staticmethod
    def _session_trace(seed):
        """One seeded push/pop trace; returns how many cores it checked."""
        rng = random.Random(seed)
        decls = {"v": bv_sort(8), "w": bv_sort(8)}
        atoms = [
            parse_term(
                rng.choice(
                    (
                        "(bvult {a} (_ bv{k} 8))",
                        "(bvugt {a} (_ bv{k} 8))",
                        "(= (bvadd v w) (_ bv{k} 8))",
                        "(bvule (bvsub {a} {b}) (_ bv{k} 8))",
                    )
                ).format(a=rng.choice("vw"), b=rng.choice("vw"), k=rng.randrange(256)),
                decls,
            )
            for _ in range(8)
        ]
        session = Session()
        cores = 0
        for _ in range(14):
            if session.depth and rng.random() < 0.3:
                session.pop()
            else:
                session.push()
                session.assert_term(rng.choice(atoms))
            result = session.check_sat()
            core = session.last_core_terms
            if result.status != "unsat":
                assert core is None
                continue
            if core is None:
                continue
            cores += 1
            live = session.assertions()
            assert all(term in live for term in core)
            subset = Script(declarations=session.declarations, assertions=list(core))
            assert solve_bounded_script(subset).status == "unsat"
        return cores


class TestEngine:
    def test_rejects_unbounded_declarations(self):
        with pytest.raises(UnsupportedLogicError):
            BoundedEngine({"n": INT})
        engine = BoundedEngine({})
        with pytest.raises(UnsupportedLogicError):
            engine.declarations = {"n": INT}

    def test_per_assertion_literals_reproduce_a_one_shot_unsat(self):
        scripts = _benchgen_unsat()
        assert scripts
        for script in scripts:
            engine = BoundedEngine(script.declarations)
            owners = engine.owners(
                (assertion, index) for index, assertion in enumerate(script.assertions)
            )
            check = engine.check(owners, max_work=BUDGET)
            assert check.status == "unsat" and not check.root
            assert check.core

    def test_retracted_assumption_answers_sat_with_full_model(self):
        decls = {"x": bv_sort(8), "y": bv_sort(8)}
        low = parse_term("(bvult x #x05)", decls)
        high = parse_term("(bvult #x0a x)", decls)
        engine = BoundedEngine(decls)
        both = engine.check(engine.owners([(low, "low"), (high, "high")]))
        assert both.status == "unsat" and sorted(both.core) == ["high", "low"]
        alone = engine.check(engine.owners([(high, "high")]))
        assert alone.status == "sat" and alone.core is None
        assert set(alone.model) == {"x", "y"}
        assert alone.model["x"].unsigned > 10
        assert engine.checks == 2

    def test_dead_hard_clauses_answer_unsat_without_search(self):
        decls = {"p": build.BOOL}
        engine = BoundedEngine(decls)
        engine.blaster.assert_term(build.FALSE)
        p = parse_term("p", decls)
        check = engine.check(engine.owners([(p, p)]))
        assert check.status == "unsat"
        assert check.root and check.core is None
        assert engine.permanently_unsat
        assert not any(check.search.values())
        again = engine.check({})
        assert again.root and again.work == 0

    _SQUARE = "(= (bvmul x x) #x31)"

    def test_budget_rules_hard_clauses(self, monkeypatch):
        # Both paths bill attach propagation to their work; only a check
        # that attaches deducts it from its search budget. The one-shot
        # solve attaches first, so its search keeps the whole budget.
        searches = _spy_searches(monkeypatch)
        decls = {"x": bv_sort(8)}
        script = Script(declarations=decls, assertions=[parse_term(self._SQUARE, decls)])
        result = solve_bounded_script(script, max_work=10_000)
        [(budget, attached)] = searches
        assert attached > 0
        assert budget == 10_000 - result.cnf_clauses
        assert result.work == result.cnf_clauses + result.stats.work()

        searches.clear()
        engine = BoundedEngine(decls)
        blast, owners = engine.blast(script.assertions, "bv")
        assert owners == {}
        assert engine.pending_clauses == blast == result.cnf_clauses
        check = engine.check({}, max_work=10_000 - blast)
        [(budget, attached)] = searches
        assert budget == 10_000 - blast - attached
        assert engine.pending_clauses == 0
        assert check.status == result.status
        assert check.work == engine.solver.work()
        assert check.search["propagations"] == (
            engine.solver.stats.propagations - attached
        )

    def test_budget_rules_per_assertion_literals(self, monkeypatch):
        # The same two rules when every assertion is an assumption
        # literal: the one-shot solve (core=True) attaches outside its
        # search budget, a check that attaches deducts it.
        searches = _spy_searches(monkeypatch)
        decls = {"x": bv_sort(8)}
        script = Script(
            declarations=decls,
            assertions=[parse_term(self._SQUARE, decls), parse_term("(bvult x #x05)", decls)],
        )
        result = solve_bounded_script(script, max_work=10_000, core=True)
        [(budget, attached)] = searches
        assert attached > 0
        assert budget == 10_000 - result.cnf_clauses
        assert result.work == result.cnf_clauses + result.stats.work()
        assert result.status == "unsat" and result.core == (0, 1)

        searches.clear()
        engine = BoundedEngine(decls)
        blast, owners = engine.blast(script.assertions, "bv", assume=True)
        assert owners and engine.pending_clauses == blast == result.cnf_clauses
        check = engine.check(owners, max_work=10_000 - blast)
        [(budget, attached)] = searches
        assert budget == 10_000 - blast - attached
        assert check.status == result.status
        assert sorted(check.core) == list(result.core)
        assert check.work == engine.solver.work()

    def test_uncached_one_shot_is_a_hard_clause_check(self):
        # Without a cache the one-shot solve is exactly a hard-clause
        # blast + check({}): same status, model and work.
        decls = {"x": bv_sort(8)}
        sat = Script(declarations=decls, assertions=[parse_term(self._SQUARE, decls)])
        scripts = [sat] + _benchgen_unsat()
        for script in scripts:
            result = solve_bounded_script(script)
            engine = BoundedEngine(script.declarations)
            blast, _ = engine.blast(script.assertions, "bv")
            check = engine.check({})
            assert (result.status, result.model) == (check.status, check.model)
            assert result.work == blast + check.work
            assert result.core is None
        assert solve_bounded_script(sat).status == "sat"


class TestOneSearch:
    """A cached bounded-unsat solve runs one search and stores its core."""

    def test_cached_solve_script(self, monkeypatch):
        script = _bounded(_ranking_scripts()[0])
        searches = _spy_searches(monkeypatch)
        with activated(SolveCache()) as store:
            result = solve_script(script, budget=BUDGET)
        assert result.status == "unsat"
        assert len(searches) == 1
        assert store.stats()["cores"] == 1

    def test_cached_staub_run(self, monkeypatch):
        script = _ranking_scripts()[0]
        searches = _spy_searches(monkeypatch)
        store = SolveCache()
        with activated(store):
            report = Staub().run(script, budget=BUDGET)
        assert report.case == CASE_BOUNDED_UNSAT
        assert len(searches) == 1
        assert store.stats()["cores"] == 1
