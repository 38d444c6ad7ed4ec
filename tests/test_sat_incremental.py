"""Incremental-use contract of the CDCL core.

Incremental sessions (:mod:`repro.solver.session`) lean on three
SatSolver behaviors that the one-shot tests never exercise: interleaving
``solve(assumptions)`` with ``add_clause``, the final-conflict
(assumption core) staying correct across re-solves, and the permanent
root-UNSAT state. These tests pin them down directly at the SAT layer.
"""

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


class TestLearnedClauseRetention:
    def _pigeonhole(self, holes):
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

    def test_learned_clauses_survive_solve_calls(self):
        solver, var = self._pigeonhole(4)
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
        solver, _ = self._pigeonhole(6)
        spent = []
        for _ in range(4):
            before = solver.stats.conflicts
            assert solver.solve(max_conflicts=8) == UNKNOWN
            spent.append(solver.stats.conflicts - before)
        assert spent == [8, 8, 8, 8]
