"""Resource governor tests: limits, degradation, and process hygiene."""

import multiprocessing

import pytest

from repro import guard, telemetry
from repro.errors import BudgetExceeded
from repro.guard import Deadline, NullGovernor, ResourceBudget
from repro.smtlib import parse_script
from repro.solver import solve_script


@pytest.fixture(autouse=True)
def telemetry_off():
    telemetry.disable()
    telemetry.get_registry().reset()
    yield
    telemetry.disable()
    telemetry.get_registry().reset()


# -- unit: the governor itself ----------------------------------------------


class TestResourceBudget:
    def test_work_ceiling(self):
        governor = ResourceBudget(work=10)
        assert governor.charge(5, "test")
        assert not governor.charge(6, "test")
        assert governor.reason == "work"
        assert governor.gave_up_layer == "test"
        assert governor.remaining_work() == 0

    def test_unlimited_never_interrupts(self):
        governor = ResourceBudget()
        assert governor.charge(10**9)
        assert not governor.interrupted("test")
        assert governor.remaining_work() is None

    def test_deadline(self):
        governor = ResourceBudget(deadline=Deadline(0))
        assert governor.interrupted("test")
        assert governor.reason == "deadline"

    def test_deadline_from_seconds(self):
        governor = ResourceBudget(deadline=3600)
        assert isinstance(governor.deadline, Deadline)
        assert not governor.interrupted("test")

    def test_cancel(self):
        governor = ResourceBudget(work=10**9)
        governor.cancel()
        assert governor.interrupted("test")
        assert governor.reason == "cancelled"

    def test_parent_propagates(self):
        parent = ResourceBudget()
        child = ResourceBudget(parent=parent)
        assert not child.interrupted("test")
        parent.cancel()
        assert child.interrupted("test")
        assert child.reason == "parent"
        assert parent.gave_up_layer == "test"

    def test_memory_ceiling(self):
        governor = ResourceBudget(max_memory=10)
        assert governor.memory_ok(10, "test")
        assert not governor.memory_ok(11, "test")
        assert governor.reason == "memory"

    def test_first_give_up_wins(self):
        governor = ResourceBudget()
        governor.note_give_up("sat", "work")
        governor.note_give_up("lia", "deadline")
        assert governor.gave_up_layer == "sat"
        assert governor.reason == "work"

    def test_give_up_counter(self):
        telemetry.enable()
        governor = ResourceBudget(work=1)
        governor.spent = 2
        governor.interrupted("sat")
        assert telemetry.snapshot().get("guard.gave_up{layer=sat,reason=work}") == 1

    def test_null_governor_is_inert(self):
        governor = NullGovernor()
        assert not governor.interrupted("test")
        assert governor.charge(10**12)
        assert governor.memory_ok(10**12)
        governor.cancel()  # still a no-op
        assert not governor.interrupted("test")

    def test_activate_nests_and_restores(self):
        assert guard.active() is guard.NULL_GOVERNOR
        outer = ResourceBudget(work=10)
        inner = ResourceBudget(work=5)
        with guard.activate(outer):
            assert guard.active() is outer
            with guard.activate(inner):
                assert guard.active() is inner
            assert guard.active() is outer
        assert guard.active() is guard.NULL_GOVERNOR

    def test_budget_exceeded_formatting(self):
        error = BudgetExceeded(150, 100, layer="simplex")
        assert error.layer == "simplex"
        assert "150" in str(error)
        unlimited = BudgetExceeded(150, None)
        assert "unlimited" in str(unlimited)


# -- the governor hierarchy: the service's tenant-eviction primitive --------


class TestGovernorHierarchy:
    """`cancel()` on a parent must interrupt every live descendant.

    The solve service parents one child budget per tenant under a global
    governor and one grandchild per request; evicting a tenant cancels
    the child and relies on every grandchild tripping cooperatively with
    a reason that propagates into the result stats.
    """

    def _family(self):
        root = ResourceBudget()
        tenant = root.child(work=1000)
        request = tenant.child(work=100)
        return root, tenant, request

    def test_cancel_root_interrupts_children_and_grandchildren(self):
        root, tenant, request = self._family()
        sibling = root.child()
        root.cancel()
        for descendant in (tenant, request, sibling):
            assert descendant.interrupted("sat")
            assert descendant.reason == "parent"
        # The root records its own reason (it was cancelled, not its parent).
        assert root.reason == "cancelled"

    def test_cancel_middle_interrupts_grandchild_not_parent(self):
        root, tenant, request = self._family()
        tenant.cancel()
        assert request.interrupted("sat")
        assert request.reason == "parent"
        assert tenant.reason in ("cancelled", "parent")
        # Cancellation flows downward only: the root keeps running.
        assert not root.interrupted("sat")
        assert root.reason is None

    def test_child_exhaustion_leaves_parent_untouched(self):
        root, tenant, request = self._family()
        request.spent = request.work_limit
        assert request.interrupted("sat")
        assert request.reason == "work"
        assert not tenant.interrupted("sat")
        assert not root.interrupted("sat")

    def test_parent_exhaustion_latches_on_every_layer(self):
        root = ResourceBudget(work=10)
        tenant = root.child()
        request = tenant.child()
        root.spent = 10
        assert request.interrupted("simplex")
        # Each budget latched the first give-up it observed.
        assert request.reason == "parent"
        assert tenant.reason == "parent"
        assert root.reason == "work"
        assert root.gave_up_layer == "simplex"

    def test_give_up_reason_reaches_result_stats(self):
        # The eviction path end-to-end: a cancelled tenant budget turns a
        # live solve into a structured unknown whose stats name the cause.
        root, tenant, request = self._family()
        tenant.cancel()
        result = solve_script(parse_script(NIA_HARD), governor=request)
        assert result.status == "unknown"
        assert result.stats.get("gave_up_reason") == "parent"
        assert result.stats.get("gave_up")

    def test_give_up_counter_fires_once_per_budget(self):
        telemetry.enable()
        root, tenant, request = self._family()
        root.cancel()
        request.interrupted("sat")
        request.interrupted("lia")  # latched: no second count
        snapshot = telemetry.snapshot()
        assert snapshot.get("guard.gave_up{layer=sat,reason=parent}") == 2
        assert snapshot.get("guard.gave_up{layer=sat,reason=cancelled}") == 1
        assert not any("layer=lia" in key for key in snapshot)

    def test_child_inherits_no_spend_and_keeps_own_ledger(self):
        root = ResourceBudget(work=100)
        root.spent = 40
        child = root.child(work=30)
        assert child.spent == 0
        assert child.remaining_work() == 30
        child.spent += 10
        assert root.remaining_work() == 60  # child spend is not parent spend


# -- integration: every engine degrades to a structured unknown -------------


BV_HARD = (
    "(set-logic QF_BV)\n"
    "(declare-fun x () (_ BitVec 16))\n"
    "(declare-fun y () (_ BitVec 16))\n"
    "(assert (= (bvmul x y) (_ bv28541 16)))\n"
    "(assert (bvult (_ bv1 16) x))\n"
    "(assert (bvult x y))\n"
    "(check-sat)\n"
)

LIA_HARD = (
    "(set-logic QF_LIA)\n"
    "(declare-fun a () Int)(declare-fun b () Int)(declare-fun c () Int)\n"
    "(assert (= (+ a (+ b c)) 10))(assert (<= a b))(assert (<= b c))\n"
    "(assert (>= (- c a) 2))\n"
    "(check-sat)\n"
)

LRA_HARD = (
    "(set-logic QF_LRA)\n"
    "(declare-fun p () Real)(declare-fun q () Real)\n"
    "(assert (= (+ p q) 10.0))(assert (< p q))(assert (> p 1.0))\n"
    "(check-sat)\n"
)

NIA_HARD = (
    "(set-logic QF_NIA)\n"
    "(declare-fun x () Int)(declare-fun y () Int)\n"
    "(assert (= (* x y) 77))(assert (> x 1))(assert (< x y))\n"
    "(check-sat)\n"
)

NRA_HARD = (
    "(set-logic QF_NRA)\n"
    "(declare-fun x () Real)(declare-fun y () Real)\n"
    "(assert (= (+ (* x x) (* y y)) 25.0))(assert (> x 0.0))(assert (< x y))\n"
    "(check-sat)\n"
)

EXHAUSTION_CASES = [
    pytest.param(BV_HARD, "zorro", id="sat-bv"),
    pytest.param(LIA_HARD, "zorro", id="simplex-lia"),
    pytest.param(LRA_HARD, "zorro", id="simplex-lra"),
    pytest.param(NIA_HARD, "zorro", id="nia-branch-prune"),
    pytest.param(NIA_HARD, "corvus", id="nia-enum"),
    pytest.param(NRA_HARD, "zorro", id="nra-icp"),
]


class TestFacadeDegradation:
    @pytest.mark.parametrize("text, profile", EXHAUSTION_CASES)
    def test_tiny_budget_returns_structured_unknown(self, text, profile):
        """BudgetExceeded never leaks through the facade; no hang."""
        script = parse_script(text)
        result = solve_script(script, budget=1, profile=profile)
        assert result.status == "unknown"
        assert isinstance(result.stats, dict)

    @pytest.mark.parametrize("text, profile", EXHAUSTION_CASES)
    def test_expired_deadline_returns_structured_unknown(self, text, profile):
        script = parse_script(text)
        governor = ResourceBudget(deadline=Deadline(0))
        result = solve_script(script, profile=profile, governor=governor)
        assert result.status == "unknown"
        assert governor.reason == "deadline"
        assert result.stats.get("gave_up") == governor.gave_up_layer
        assert result.stats.get("gave_up_reason") == "deadline"

    @pytest.mark.parametrize("text, profile", EXHAUSTION_CASES)
    def test_cancelled_governor_returns_structured_unknown(self, text, profile):
        script = parse_script(text)
        governor = ResourceBudget()
        governor.cancel()
        result = solve_script(script, profile=profile, governor=governor)
        assert result.status == "unknown"
        assert governor.reason == "cancelled"

    def test_verdicts_match_unlimited_run(self):
        """Generous budgets answer; the governor changes nothing then."""
        for text, expected in ((LIA_HARD, "sat"), (NIA_HARD, "sat")):
            script = parse_script(text)
            governor = ResourceBudget(work=10**9, deadline=3600)
            result = solve_script(script, budget=10**9, governor=governor)
            assert result.status == expected
            assert governor.gave_up_layer is None

    def test_depth_ceiling_degrades_lia(self):
        script = parse_script(LIA_HARD)
        governor = ResourceBudget(max_depth=0)
        result = solve_script(script, budget=10**9, governor=governor)
        assert result.status in ("unknown", "sat")  # depth 0: no branching

    def test_memory_ceiling_degrades_nra(self):
        script = parse_script(NRA_HARD)
        governor = ResourceBudget(max_memory=1)
        result = solve_script(script, budget=10**9, governor=governor)
        assert result.status == "unknown"
        assert governor.reason == "memory"


class TestSessionDegradation:
    """Resource exhaustion mid-session: structured unknown, the session
    stays usable, and shaped results never reach the solve cache."""

    @staticmethod
    def _planted_session():
        from repro.smtlib import parse_term
        from repro.smtlib.sorts import bv_sort
        from repro.solver.session import Session

        decls = {"v": bv_sort(8), "w": bv_sort(8)}
        session = Session()
        session.assert_term(parse_term("(= (bvmul v w) (_ bv77 8))", decls))
        session.assert_term(parse_term("(bvult (_ bv1 8) v)", decls))
        session.assert_term(parse_term("(bvult v w)", decls))
        return session

    def test_tiny_budget_is_structured_unknown_then_recovers(self):
        session = self._planted_session()
        result = session.check_sat(budget=1)
        assert result.status == "unknown"
        assert isinstance(result.stats, dict)
        # Not wedged: the very next check with a real budget answers.
        assert session.check_sat(budget=None).status == "sat"

    def test_exhausted_checks_never_cached(self):
        from repro.cache import SolveCache, activated

        store = SolveCache()
        session = self._planted_session()
        with activated(store):
            assert session.check_sat(budget=1).status == "unknown"
            assert len(store) == 0
            assert session.check_sat().status == "sat"
            assert len(store) == 1
            warm = self._planted_session()
            assert warm.check_sat().status == "sat"
        assert warm.counters["cache_hits"] == 1

    def test_expired_outer_deadline_mid_session(self):
        session = self._planted_session()
        governor = ResourceBudget(deadline=Deadline(0))
        with guard.activate(governor):
            result = session.check_sat()
        assert result.status == "unknown"
        assert result.stats.get("gave_up_reason") == "parent"
        assert session.check_sat().status == "sat"

    def test_cancelled_outer_governor_mid_session(self):
        from repro.cache import SolveCache, activated

        store = SolveCache()
        session = self._planted_session()
        governor = ResourceBudget()
        governor.cancel()
        with activated(store):
            with guard.activate(governor):
                assert session.check_sat().status == "unknown"
            assert len(store) == 0
            assert session.check_sat().status == "sat"

    def test_exhaustion_at_depth_preserves_scope_stack(self):
        from repro.smtlib import parse_term
        from repro.smtlib.sorts import bv_sort

        decls = {"v": bv_sort(8), "w": bv_sort(8)}
        session = self._planted_session()
        session.push(2)
        session.assert_term(parse_term("(bvult w (_ bv200 8))", decls))
        assert session.check_sat(budget=1).status == "unknown"
        assert session.depth == 2
        assert session.check_sat().status == "sat"
        session.pop(2)
        assert session.check_sat().status == "sat"


# -- process hygiene: the parallel race never leaks children ----------------


HARD_FACTOR = (
    "(set-logic QF_NIA)\n"
    "(declare-fun x () Int)(declare-fun y () Int)\n"
    "(assert (= (* x y) 1000003))(assert (> x 1))(assert (< x y))\n"
    "(check-sat)\n"
)


class TestParallelRaceHygiene:
    def test_wall_timeout_leaves_no_zombies(self):
        from repro.portfolio.scheduler import parallel_race
        from repro.portfolio.tasks import BaselineTask

        # Shell enumeration on a prime product grinds for hours: both
        # lanes are guaranteed to still be running at the wall timeout.
        script = parse_script(HARD_FACTOR)
        tasks = [BaselineTask("corvus"), BaselineTask("corvus")]
        outcome = parallel_race(tasks, script, budget=None, wall_timeout=0.5)
        assert outcome.status == "unknown"
        # Every worker must be terminated *and* joined on the timeout path.
        assert multiprocessing.active_children() == []

    def test_governor_deadline_bounds_the_race(self):
        from repro.portfolio.scheduler import parallel_race
        from repro.portfolio.tasks import BaselineTask

        script = parse_script(HARD_FACTOR)
        tasks = [BaselineTask("corvus")]
        governor = ResourceBudget(deadline=Deadline(0.2))
        with guard.activate(governor):
            outcome = parallel_race(tasks, script, budget=None, wall_timeout=600.0)
        assert outcome.status == "unknown"
        assert multiprocessing.active_children() == []
