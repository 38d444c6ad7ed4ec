"""Incremental-use contract of the CDCL core.

Incremental sessions (:mod:`repro.solver.session`) lean on three
SatSolver behaviors that the one-shot tests never exercise: interleaving
``solve(assumptions)`` with ``add_clause``, the final-conflict
(assumption core) staying correct across re-solves, and the permanent
root-UNSAT state. The portfolio's bounded lane leans on a fourth: a
search paused at its work cap continues exactly as one search with the
larger cap. These tests pin them down directly at the SAT layer.
"""

import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.sat.cnf import CNF
from repro.sat.solver import SAT, UNKNOWN, UNSAT, SatSolver


def _exactly_one(solver, literals):
    solver.add_clause(list(literals))
    for i, a in enumerate(literals):
        for b in literals[i + 1 :]:
            solver.add_clause([-a, -b])


class TestInterleavedSolving:
    def test_add_clause_between_assumption_solves(self):
        solver = SatSolver(3)
        solver.add_clause([1, 2])
        assert solver.solve(assumptions=[-1]) == SAT
        assert solver.model()[2] is True
        # Tighten the problem mid-stream: clauses added after a solve
        # take effect on the next call.
        solver.add_clause([-2, 3])
        solver.add_clause([-3])
        assert solver.solve(assumptions=[-1]) == UNSAT
        # Without the blocking assumption the other branch still works.
        assert solver.solve() == SAT
        assert solver.model()[1] is True

    def test_assumptions_do_not_persist(self):
        solver = SatSolver(2)
        solver.add_clause([1, 2])
        assert solver.solve(assumptions=[-1, -2]) == UNSAT
        # The failed assumptions were temporary: the solver is not dead.
        assert solver.okay()
        assert solver.solve() == SAT

    def test_clause_added_while_assignment_in_progress(self):
        # add_clause after a SAT call must cope with the leftover trail
        # (it backtracks to level 0 internally).
        solver = SatSolver(2)
        solver.add_clause([1, 2])
        assert solver.solve() == SAT
        first = solver.model()
        blocking = [(-v if first[v] else v) for v in (1, 2)]
        solver.add_clause(blocking)
        assert solver.solve() == SAT
        second = solver.model()
        assert second != first


class TestFinalConflict:
    def test_core_is_subset_of_assumptions(self):
        solver = SatSolver(4)
        solver.add_clause([-1, 2])
        solver.add_clause([-2, -3])
        # 1 forces 2 forces not-3; assuming 3 too is contradictory, while
        # assumption 4 is irrelevant and must stay out of the core.
        assert solver.solve(assumptions=[1, 3, 4]) == UNSAT
        core = solver.final_conflict()
        assert set(core) <= {-1, -3, -4}
        assert -4 not in core
        assert -3 in core

    def test_core_resets_between_solves(self):
        solver = SatSolver(3)
        solver.add_clause([-1, -2])
        assert solver.solve(assumptions=[1, 2]) == UNSAT
        assert solver.final_conflict()
        # A later satisfiable call must not leave the stale core behind.
        assert solver.solve(assumptions=[1]) == SAT
        # And a later *different* conflict reports its own assumptions.
        solver.add_clause([-3])
        assert solver.solve(assumptions=[3]) == UNSAT
        assert solver.final_conflict() == [-3]

    def test_negated_core_is_refutable(self):
        # The contract: the conjunction of the failing assumptions is
        # inconsistent with the clauses, i.e. asserting them as units
        # kills the solver at the root.
        solver = SatSolver(3)
        solver.add_clause([-1, 2])
        solver.add_clause([-2, 3])
        solver.add_clause([-3, -1])
        assert solver.solve(assumptions=[1]) == UNSAT
        failed = [-lit for lit in solver.final_conflict()]
        assert failed  # non-root conflict
        replay = SatSolver(3)
        replay.add_clause([-1, 2])
        replay.add_clause([-2, 3])
        replay.add_clause([-3, -1])
        alive = all(replay.add_clause([lit]) for lit in failed)
        assert not (alive and replay.solve() == SAT)


class TestPermanentUnsat:
    def test_root_conflict_is_permanent(self):
        solver = SatSolver(1)
        solver.add_clause([1])
        assert not solver.add_clause([-1])
        assert not solver.okay()
        # Every later solve is UNSAT regardless of assumptions, with an
        # empty final conflict: no assumption subset is to blame.
        assert solver.solve() == UNSAT
        assert solver.final_conflict() == []
        assert solver.solve(assumptions=[1]) == UNSAT
        assert solver.final_conflict() == []

    def test_root_conflict_found_by_search_is_permanent(self):
        solver = SatSolver(2)
        _exactly_one(solver, [1, 2])
        solver.add_clause([-1, 2])
        solver.add_clause([-2, 1])
        assert solver.solve() == UNSAT
        assert not solver.okay()
        assert solver.final_conflict() == []
        assert solver.solve(assumptions=[1]) == UNSAT

    def test_add_clause_after_death_refuses(self):
        solver = SatSolver(1)
        solver.add_clause([1])
        solver.add_clause([-1])
        assert not solver.add_clause([1])

    def test_dead_solver_answers_without_search_work(self):
        # Regression: a permanently root-UNSAT solver used to re-enter
        # the search loop on every call. Post-death solves must be pure
        # lookups -- deterministic UNSAT, empty core, zero new counters --
        # so a session whose hard clauses died keeps answering its
        # remaining checks for free.
        solver = SatSolver(2)
        solver.add_clause([1])
        solver.add_clause([-1])
        assert not solver.okay()
        before = solver.stats.as_dict()
        for assumptions in ((), [2], [-2], [2, -2]):
            assert solver.solve(assumptions=assumptions) == UNSAT
            assert solver.final_conflict() == []
        assert solver.stats.as_dict() == before


def _pigeonhole(holes):
    """PHP(holes+1, holes): small, UNSAT, conflict-rich."""
    solver = SatSolver(0)
    pigeons = holes + 1
    var = lambda p, h: 1 + p * holes + h
    solver.grow_to(pigeons * holes)
    for p in range(pigeons):
        solver.add_clause([var(p, h) for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, holes + 1):
                solver.add_clause([-var(p1, h), -var(p2, h)])
    return solver, var


class TestLearnedClauseRetention:
    def test_learned_clauses_survive_solve_calls(self):
        solver, var = _pigeonhole(4)
        # Assume one placement away from triviality so the conflict is
        # assumption-level, not root-level, and the solver stays alive.
        assert solver.solve(assumptions=[var(0, 0)]) == UNSAT
        assert solver.okay()
        learned = solver.learned_count()
        assert learned > 0
        before = solver.stats.work()
        assert solver.solve(assumptions=[var(0, 1)]) == UNSAT
        # The database was retained across the calls (reduction may trim,
        # but this instance is far below the reduction threshold).
        assert solver.learned_count() >= learned
        assert solver.stats.work() > before  # stats accumulate, not reset

    def test_conflict_cap_counts_per_call(self):
        # Regression: the cap was compared with the solver's lifetime
        # conflict count, so once one capped call had spent it every
        # later capped call stopped at its first conflict.
        solver, _ = _pigeonhole(6)
        spent = []
        for _ in range(4):
            before = solver.stats.conflicts
            assert solver.solve(max_conflicts=8) == UNKNOWN
            spent.append(solver.stats.conflicts - before)
        assert spent == [8, 8, 8, 8]


NUM_VARS = 14

_literal = st.integers(1, NUM_VARS).flatmap(lambda var: st.sampled_from([var, -var]))
# Random 3-SAT near the threshold: about half the searches are still
# running at a cap of 60 work units, so about half the examples pause.
_clauses = st.lists(st.lists(_literal, min_size=3, max_size=3), min_size=40, max_size=65)
_assumptions = st.lists(_literal, max_size=3)


def _attached(clauses):
    """A solver attached in place to a CNF of ``clauses``."""
    cnf = CNF()
    for clause in clauses:
        cnf.add_clause(clause)
    solver = SatSolver(cnf=cnf)
    solver.attach()
    return solver, cnf


def _outcome(solver, status):
    """Everything a continued search must reproduce."""
    return (
        status,
        solver.model() if status == SAT else None,
        solver.stats.as_dict(),
        solver.learned_count(),
        solver.final_conflict(),
    )


def _between(op, solver, cnf, extra):
    """One call that must discard a paused search."""
    if op == "add_clause":
        solver.add_clause(extra)
    elif op == "attach":
        cnf.add_clause(extra)
        solver.attach()
    elif op == "grow_to":
        solver.grow_to(solver.num_vars + 2)
    else:
        solver.solve(max_work=40)


class TestContinuedSearch:
    """``solve(resume=True)`` against the oracle of one fresh search."""

    @settings(max_examples=100, deadline=None)
    @given(
        clauses=_clauses,
        assumptions=_assumptions,
        first=st.integers(0, 60),
        more=st.integers(0, 400),
    )
    def test_continuation_equals_one_search_with_the_larger_cap(
        self, clauses, assumptions, first, more
    ):
        paused, _ = _attached(clauses)
        status = paused.solve(assumptions, max_work=first, resume=True)
        if status == UNKNOWN:
            status = paused.solve(assumptions, max_work=first + more, resume=True)
        fresh, _ = _attached(clauses)
        expected = fresh.solve(assumptions, max_work=first + more)
        assert _outcome(paused, status) == _outcome(fresh, expected)

    @pytest.mark.parametrize("op", ["add_clause", "attach", "grow_to", "solve"])
    @settings(max_examples=60, deadline=None)
    @given(
        clauses=_clauses,
        assumptions=_assumptions,
        first=st.integers(0, 60),
        more=st.integers(0, 400),
        extra=st.lists(_literal, min_size=2, max_size=3),
    )
    def test_a_call_in_between_discards_the_paused_search(
        self, op, clauses, assumptions, first, more, extra
    ):
        # The paused solver's next continuation starts fresh, exactly as
        # on a solver whose capped search was abandoned at level 0.
        outcomes = []
        for resume in (True, False):
            solver, cnf = _attached(clauses)
            solver.solve(assumptions, max_work=first, resume=resume)
            _between(op, solver, cnf, extra)
            status = solver.solve(assumptions, max_work=first + more, resume=resume)
            outcomes.append(_outcome(solver, status))
        assert outcomes[0] == outcomes[1]

    def test_other_assumptions_start_a_fresh_search(self):
        solver, _ = _pigeonhole(5)
        assert solver.solve([1], max_work=200, resume=True) == UNKNOWN
        abandoned, _ = _pigeonhole(5)
        assert abandoned.solve([1], max_work=200) == UNKNOWN
        assert solver.solve([2], max_work=400, resume=True) == abandoned.solve(
            [2], max_work=400
        )
        assert solver.stats.as_dict() == abandoned.stats.as_dict()

    def test_a_paused_search_does_not_keep_its_solver_alive(self):
        # The solver holds its paused search; the search must not hold
        # the solver back, or a dropped solver would wait for the cycle
        # collector.
        solver, _ = _pigeonhole(5)
        assert solver.solve(max_work=200, resume=True) == UNKNOWN
        alive = weakref.ref(solver)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del solver
            assert alive() is None
        finally:
            if enabled:
                gc.enable()
