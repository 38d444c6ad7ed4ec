"""Differential fuzzing and unit tests for push/pop solving sessions.

The oracle is the non-incremental path itself: after every ``check-sat``
the fuzzer re-solves the *flattened* live stack from scratch through
:func:`repro.solver.solve_script`. The session's verdict must be
byte-identical, and when both sides produce models, both models must
bind exactly the declared variables and satisfy every live assertion.

Two trace families run >= 200 seeded traces in total:

- bounded BV traces exercise the persistent assumption-slice backend
  (the interesting lane: retraction, clause reuse, root conflicts);
- benchgen LIA/NIA traces exercise the unbounded fallback lane.
"""

import random

import pytest

from repro.cache import SolveCache, activated
from repro.core.session import ArbitrageSession
from repro.errors import SessionError, SmtLibError
from repro.smtlib import parse_script, parse_term
from repro.smtlib.evaluator import evaluate_assertions
from repro.smtlib.sorts import BOOL, INT, bv_sort
from repro.solver import open_session, solve_script
from repro.solver.session import Session, run_script_session

# -- trace generation ---------------------------------------------------------

_BV_DECLS = {"v": bv_sort(8), "w": bv_sort(8), "u": bv_sort(8)}
_BV_SHAPES = (
    "(bvult {a} {b})",
    "(bvule {a} (_ bv{k} 8))",
    "(= (bvadd {a} {b}) (_ bv{k} 8))",
    "(= (bvmul {a} {b}) (_ bv{k} 8))",
    "(bvugt (bvor {a} {b}) (_ bv{k} 8))",
    "(= (bvxor {a} {b}) (_ bv{k} 8))",
    "(bvule (bvsub {a} {b}) (_ bv{k} 8))",
)


def _bv_pool(rng):
    """A seeded pool of BV atoms over three shared variables."""
    atoms = []
    for _ in range(10):
        shape = rng.choice(_BV_SHAPES)
        text = shape.format(
            a=rng.choice("vwu"), b=rng.choice("vwu"), k=rng.randrange(256)
        )
        atoms.append(parse_term(text, _BV_DECLS))
    return atoms


def _check_against_oracle(session, budget, profile):
    """One session check, differentially validated against a scratch solve."""
    result = session.check_sat(budget=budget)
    flattened = session.flattened_script()
    oracle = solve_script(flattened, budget=budget, profile=profile)
    assert result.status == oracle.status, (
        f"verdict drift at depth {session.depth} over "
        f"{len(session.assertions())} live assertions: session said "
        f"{result.status!r}, scratch re-solve said {oracle.status!r}"
    )
    if result.status == "sat":
        live = session.assertions()
        assert set(result.model) == set(session.declarations)
        assert set(oracle.model) == set(session.declarations)
        assert evaluate_assertions(live, result.model), (
            "session model does not satisfy the live assertions"
        )
        assert evaluate_assertions(live, oracle.model), (
            "scratch model does not satisfy the live assertions"
        )


def _drive(session, pool, rng, steps=12, budget=None, profile="zorro"):
    """One random push/assert/check/pop/reset trace with oracle checks."""
    session.assert_term(rng.choice(pool))
    for _ in range(steps):
        op = rng.choices(
            ("push", "pop", "assert", "check", "reset"),
            weights=(20, 15, 35, 25, 3),
        )[0]
        if op == "push":
            session.push(rng.choice((1, 1, 1, 2)))
        elif op == "pop":
            if session.depth:
                session.pop(rng.randrange(1, session.depth + 1))
        elif op == "assert":
            session.assert_term(rng.choice(pool))
        elif op == "reset":
            session.reset_assertions()
        else:
            _check_against_oracle(session, budget, profile)
    # Every trace ends on a check so it always exercises the oracle.
    _check_against_oracle(session, budget, profile)


class TestBoundedFuzz:
    """140 seeded traces on the persistent assumption-slice backend."""

    @pytest.mark.parametrize("seed", range(140))
    def test_trace_matches_scratch_resolve(self, seed):
        rng = random.Random(100_000 + seed)
        session = Session()
        _drive(session, _bv_pool(rng), rng)
        assert session.counters["check_sat"] >= 1
        assert session.counters["backend_checks"] == session.counters["check_sat"]
        assert session.counters["fallback_checks"] == 0


@pytest.fixture(scope="module")
def benchgen_pools():
    from repro.benchgen import suite_for

    pools = []
    for logic, scale in (("QF_LIA", 0.05), ("QF_NIA", 0.04)):
        for benchmark in suite_for(logic, seed=7, scale=scale):
            if benchmark.script.assertions:
                pools.append(list(benchmark.script.assertions))
    assert pools
    return pools


class TestUnboundedFuzz:
    """60 seeded traces through the unbounded fallback lane."""

    @pytest.mark.parametrize("seed", range(60))
    def test_trace_matches_scratch_resolve(self, seed, benchgen_pools):
        rng = random.Random(200_000 + seed)
        pool = benchgen_pools[seed % len(benchgen_pools)]
        session = Session()
        _drive(session, pool, rng, steps=8, budget=150_000)
        assert session.counters["fallback_checks"] == session.counters["check_sat"]
        assert session.counters["backend_checks"] == 0


# -- session API --------------------------------------------------------------


#: Both session kinds share one scope stack, so its contract is checked
#: on each.
both_sessions = pytest.mark.parametrize(
    "session_class", [Session, ArbitrageSession], ids=lambda cls: cls.__name__
)


class TestSessionApi:
    @both_sessions
    def test_pop_below_depth_raises(self, session_class):
        session = session_class()
        session.push(2)
        with pytest.raises(SessionError, match="below assertion-stack depth"):
            session.pop(3)
        # The failed pop must not have moved the stack.
        assert session.depth == 2

    @both_sessions
    def test_negative_counts_rejected(self, session_class):
        session = session_class()
        with pytest.raises(SessionError):
            session.push(-1)
        with pytest.raises(SessionError):
            session.pop(-1)

    @both_sessions
    def test_redeclaration_with_new_sort_rejected(self, session_class):
        session = session_class()
        session.declare("x", INT)
        with pytest.raises(SmtLibError, match="redeclared"):
            session.declare("x", BOOL)

    @both_sessions
    def test_non_bool_assertion_rejected(self, session_class):
        session = session_class()
        with pytest.raises(SmtLibError, match="expected Bool"):
            session.assert_term(parse_term("(+ x 1)", {"x": INT}))

    @both_sessions
    def test_declarations_are_global(self, session_class):
        session = session_class()
        session.push()
        session.assert_term(parse_term("(bvult v (_ bv9 8))", _BV_DECLS))
        session.pop()
        session.reset_assertions()
        assert "v" in session.declarations
        assert session.assertions() == []

    def test_pop_retracts_assertions(self):
        session = Session()
        session.assert_term(parse_term("(bvult v (_ bv9 8))", _BV_DECLS))
        session.push()
        session.assert_term(parse_term("(bvugt v (_ bv200 8))", _BV_DECLS))
        assert session.check_sat().status == "unsat"
        session.pop()
        result = session.check_sat()
        assert result.status == "sat"
        assert evaluate_assertions(session.assertions(), result.model)

    def test_contradiction_is_retractable_not_poisoning(self):
        # Assertions enter the backend as assumption slices, so even a
        # plainly false assertion never hardens into a root conflict:
        # dropping it (reset) must bring the session back to sat. The
        # genuinely permanent root-UNSAT fast path lives at the SAT layer
        # and is covered in tests/test_sat_incremental.py.
        session = Session()
        session.assert_term(parse_term("(bvult v v)", _BV_DECLS))
        assert session.check_sat().status == "unsat"
        assert session.check_sat().status == "unsat"
        session.reset_assertions()
        session.assert_term(parse_term("(bvult v w)", _BV_DECLS))
        result = session.check_sat()
        assert result.status == "sat"
        assert evaluate_assertions(session.assertions(), result.model)

    def test_equal_stacks_share_cache_entries(self):
        # Two sessions reach the same live stack through different
        # push/pop interleavings: the scope-prefix keys must collide.
        a = parse_term("(bvult v w)", _BV_DECLS)
        b = parse_term("(bvule w (_ bv50 8))", _BV_DECLS)
        store = SolveCache()
        one = Session(cache=store)
        one.assert_term(a)
        one.push()
        one.assert_term(b)
        first = one.check_sat()
        two = Session(cache=store)
        two.assert_term(a)
        two.push()
        two.assert_term(parse_term("(bvugt w (_ bv250 8))", _BV_DECLS))
        two.pop()
        two.push()
        two.assert_term(b)
        second = two.check_sat()
        assert two.counters["cache_hits"] == 1
        assert second.status == first.status

    def test_different_scopes_do_not_share_entries(self):
        # Same live conjunction, different scope structure: the prefix
        # chain distinguishes them (a pop must not resurrect the wrong
        # cached answer later).
        a = parse_term("(bvult v w)", _BV_DECLS)
        store = SolveCache()
        one = Session(cache=store)
        one.assert_term(a)
        one.check_sat()
        two = Session(cache=store)
        two.push()
        two.assert_term(a)
        two.check_sat()
        assert two.counters["cache_hits"] == 0

    def test_open_session_facade(self):
        from repro.solver import open_session as facade_open

        session = facade_open(budget=1_000_000)
        assert isinstance(session, Session)
        assert session.budget == 1_000_000
        assert open_session().profile == "zorro"

    def test_run_script_session_replays_commands(self):
        script = parse_script(
            "(declare-fun v () (_ BitVec 8))\n"
            "(assert (bvult v (_ bv10 8)))\n"
            "(check-sat)\n"
            "(push 1)\n"
            "(assert (bvugt v (_ bv200 8)))\n"
            "(check-sat)\n"
            "(pop 1)\n"
            "(check-sat)\n"
            "(reset-assertions)\n"
            "(check-sat)\n"
        )
        results, session = run_script_session(script)
        assert [r.status for r in results] == ["sat", "unsat", "sat", "sat"]
        assert session.depth == 0
        assert session.counters["check_sat"] == 4

    def test_unbounded_fallback_matches_facade(self):
        session = Session()
        session.assert_term(parse_term("(> x 3)", {"x": INT}))
        session.push()
        session.assert_term(parse_term("(< x 2)", {"x": INT}))
        assert session.check_sat().status == "unsat"
        session.pop()
        result = session.check_sat()
        oracle = solve_script(session.flattened_script())
        assert result.status == oracle.status == "sat"
        assert session.counters["fallback_checks"] == 2

    def test_process_wide_cache_is_honoured(self):
        store = SolveCache()
        with activated(store):
            session = Session()
            session.assert_term(parse_term("(bvult v w)", _BV_DECLS))
            session.check_sat()
            again = Session()
            again.assert_term(parse_term("(bvult v w)", _BV_DECLS))
            again.check_sat()
        assert again.counters["cache_hits"] == 1
