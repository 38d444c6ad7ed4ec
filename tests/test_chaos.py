"""Fault-injection tests: determinism, quarantine, crash recovery."""

import builtins
import multiprocessing
import os

import pytest

from repro import telemetry
from repro.cache import activated
from repro.cache.store import SolveCache, _entry_checksum
from repro.guard import chaos
from repro.guard.chaos import ChaosCrash, ChaosPlan
from repro.smtlib import parse_script
from repro.solver import solve_script


@pytest.fixture(autouse=True)
def clean_slate(monkeypatch):
    monkeypatch.delenv(chaos.ENV_VAR, raising=False)
    chaos.uninstall()
    telemetry.disable()
    telemetry.get_registry().reset()
    yield
    chaos.uninstall()
    telemetry.disable()
    telemetry.get_registry().reset()


NIA_SAT = (
    "(set-logic QF_NIA)\n"
    "(declare-fun x () Int)(declare-fun y () Int)\n"
    "(assert (= (* x y) 77))(assert (> x 1))(assert (< x y))\n"
    "(check-sat)\n"
)

UNSAT_LIA = (
    "(set-logic QF_LIA)\n"
    "(declare-fun x () Int)\n"
    "(assert (> x 5))(assert (< x 3))\n"
    "(check-sat)\n"
)


# -- the plan ----------------------------------------------------------------


class TestChaosPlan:
    def test_parse_spec(self):
        plan = chaos.parse_spec("1234:0.1")
        assert plan.seed == 1234
        assert plan.rate == 0.1

    @pytest.mark.parametrize("bad", ["", "1234", "x:0.1", "1:y", "1:2.0"])
    def test_parse_spec_rejects(self, bad):
        with pytest.raises(ValueError):
            chaos.parse_spec(bad)

    def test_draws_are_deterministic(self):
        def schedule(plan):
            fired = []
            for point in chaos.POINTS:
                for salt in ("", "a", "b"):
                    for _ in range(20):
                        fault = plan.draw(point, salt=salt)
                        fired.append(None if fault is None else fault.kind)
            return fired

        first = schedule(ChaosPlan(99, 0.3))
        second = schedule(ChaosPlan(99, 0.3))
        assert first == second
        assert any(kind is not None for kind in first)
        # A different seed gives a different schedule.
        assert schedule(ChaosPlan(100, 0.3)) != first

    def test_salt_decorrelates_forked_workers(self):
        plan = ChaosPlan(7, 0.5)
        per_salt = [
            [plan.draw("portfolio.worker_spawn", salt=str(i)) is not None
             for _ in range(16)]
            for i in range(4)
        ]
        assert len({tuple(row) for row in per_salt}) > 1

    def test_injected_deltas(self):
        plan = ChaosPlan(1, 1.0)
        plan.draw("cache.load")
        baseline = dict(plan.injected)
        plan.draw("cache.load")
        assert plan.injected_deltas(baseline) == {"cache.load|corrupt": 1}

    def test_env_activation(self, monkeypatch):
        monkeypatch.setenv(chaos.ENV_VAR, "55:0.25")
        chaos.uninstall()  # force a re-read
        plan = chaos.active()
        assert plan is not None and plan.seed == 55
        assert chaos.active() is plan  # parsed once

    def test_inject_crash_and_budget(self):
        from repro.guard import ResourceBudget

        chaos.install(ChaosPlan(3, 1.0, kinds={"solver.pre_solve": ("crash",)}))
        with pytest.raises(ChaosCrash):
            chaos.inject("solver.pre_solve")
        chaos.install(ChaosPlan(3, 1.0, kinds={"solver.pre_solve": ("budget",)}))
        governor = ResourceBudget()
        assert chaos.inject("solver.pre_solve", governor=governor) is None
        assert governor.cancelled

    def test_crash_is_not_a_repro_error(self):
        from repro.errors import ReproError

        assert not issubclass(ChaosCrash, ReproError)


# -- cache hardening ---------------------------------------------------------


def _entry(status="sat"):
    return {"status": status, "work": 7, "engine": "test", "model": None, "stats": {}}


class TestCacheHardening:
    def test_atomic_save_no_temp_leftovers(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = SolveCache(path=path)
        cache.put("k1", _entry())
        cache.save()
        assert not [p for p in os.listdir(tmp_path) if ".tmp" in p]
        warm = SolveCache(path=path)
        assert warm.get("k1")["status"] == "sat"

    def test_failed_write_preserves_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.json"
        cache = SolveCache(path=path)
        cache.put("k1", _entry())
        cache.save()
        before = path.read_text()
        real_open = builtins.open

        def failing_open(file, *args, **kwargs):
            if ".tmp." in str(file):
                raise OSError("disk full")
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", failing_open)
        with pytest.raises(OSError):
            cache.save()
        monkeypatch.setattr(builtins, "open", real_open)
        assert path.read_text() == before
        assert not [p for p in os.listdir(tmp_path) if ".tmp" in p]

    def test_tampered_entry_is_quarantined_others_survive(self, tmp_path):
        import json

        path = tmp_path / "cache.json"
        cache = SolveCache(path=path)
        cache.put("good", _entry("sat"))
        cache.put("bad", _entry("unsat"))
        cache.save()
        payload = json.loads(path.read_text())
        payload["entries"]["bad"]["status"] = "sat"  # bit-rot flips a verdict
        path.write_text(json.dumps(payload))

        telemetry.enable()
        reloaded = SolveCache(path=path)
        assert "good" in reloaded
        assert "bad" not in reloaded
        assert reloaded.quarantined == 1
        assert reloaded.stats()["quarantined"] == 1
        snap = telemetry.snapshot()
        assert snap.get("cache.quarantined{reason=checksum}") == 1

    def test_unreadable_file_is_moved_aside(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{ not json at all")
        cache = SolveCache(path=path)
        assert len(cache) == 0
        assert cache.quarantined == 1
        assert not path.exists()
        assert (tmp_path / "cache.json.corrupt").exists()

    def test_version_1_files_still_load(self, tmp_path):
        import json

        path = tmp_path / "cache.json"
        payload = {
            "version": 1,
            "stats": {"hits": 3, "misses": 4, "evictions": 0},
            "entries": {"k1": _entry()},
        }
        path.write_text(json.dumps(payload))
        cache = SolveCache(path=path)
        assert cache.get("k1")["status"] == "sat"
        assert cache.stats()["lifetime_hits"] == 4  # 3 stored + this get

    def test_chaos_corrupted_persist_quarantines_on_reload(self, tmp_path):
        """Garbled writes never raise on reload; the file or the entries
        are quarantined and the cache rebuilds from scratch."""
        for seed in range(8):
            path = tmp_path / f"cache{seed}.json"
            cache = SolveCache(path=path)
            cache.put("k1", _entry())
            chaos.install(ChaosPlan(seed, 1.0))
            try:
                cache.save()
            finally:
                chaos.uninstall()
            reloaded = SolveCache(path=path)  # must not raise
            assert reloaded.quarantined >= 1 or "k1" in reloaded

    def test_checksum_is_content_addressed(self):
        assert _entry_checksum(_entry("sat")) != _entry_checksum(_entry("unsat"))
        assert _entry_checksum(_entry()) == _entry_checksum(dict(_entry()))


# -- solver stack under chaos ------------------------------------------------


class TestSessionChaos:
    """Injected faults mid-session: structured unknown, no cache
    poisoning, and the session keeps answering once the storm passes."""

    @staticmethod
    def _session():
        from repro.smtlib import parse_term
        from repro.smtlib.sorts import bv_sort
        from repro.solver.session import Session

        decls = {"v": bv_sort(8), "w": bv_sort(8)}
        session = Session()
        session.assert_term(parse_term("(= (bvmul v w) (_ bv77 8))", decls))
        session.assert_term(parse_term("(bvult v w)", decls))
        return session

    def test_injected_crash_degrades_to_unknown_and_session_survives(self):
        store = SolveCache()
        session = self._session()
        chaos.install(ChaosPlan(17, 1.0, kinds={"session.check_sat": ("crash",)}))
        with activated(store):
            result = session.check_sat()
            assert result.status == "unknown"
            assert result.stats.get("gave_up_reason") == "chaos-crash"
            assert len(store) == 0  # never poisons the solve cache
            chaos.uninstall()
            recovered = session.check_sat()
        assert recovered.status == "sat"
        assert len(store) == 1

    def test_injected_budget_exhaustion_mid_session(self):
        store = SolveCache()
        session = self._session()
        chaos.install(ChaosPlan(17, 1.0, kinds={"session.check_sat": ("budget",)}))
        with activated(store):
            result = session.check_sat()
            assert result.status == "unknown"
            assert len(store) == 0
            chaos.uninstall()
            assert session.check_sat().status == "sat"

    def test_crash_at_depth_preserves_scope_stack(self):
        from repro.smtlib import parse_term
        from repro.smtlib.sorts import bv_sort

        decls = {"v": bv_sort(8), "w": bv_sort(8)}
        session = self._session()
        session.push()
        session.assert_term(parse_term("(bvult w v)", decls))
        chaos.install(ChaosPlan(3, 1.0, kinds={"session.check_sat": ("crash",)}))
        assert session.check_sat().status == "unknown"
        chaos.uninstall()
        assert session.depth == 1
        assert session.check_sat().status == "unsat"
        session.pop()
        assert session.check_sat().status == "sat"

    def test_fault_free_checks_cached_even_with_plan_installed(self):
        # A plan at rate 0 never fires: results are untainted and cached.
        store = SolveCache()
        chaos.install(ChaosPlan(17, 0.0))
        session = self._session()
        with activated(store):
            assert session.check_sat().status == "sat"
        assert len(store) == 1


class TestSolverChaos:
    def test_facade_skips_caching_tainted_results(self):
        chaos.install(ChaosPlan(11, 1.0, kinds={"solver.pre_solve": ("budget",)}))
        store = SolveCache()
        script = parse_script(UNSAT_LIA)
        with activated(store):
            result = solve_script(script, budget=10**6)
        assert result.status == "unknown"  # injected exhaustion
        assert len(store) == 0  # tainted: never persisted

    def test_fault_free_results_still_cached(self):
        store = SolveCache()
        script = parse_script(UNSAT_LIA)
        with activated(store):
            first = solve_script(script, budget=10**6)
            assert first.status == "unsat"
            assert len(store) == 1
            second = solve_script(script, budget=10**6)
        assert second.cached and second.status == "unsat"

    def test_interleaving_lanes_crash_retry_then_written_off(self):
        from repro.portfolio.scheduler import InterleavingScheduler
        from repro.portfolio.tasks import BaselineTask

        chaos.install(ChaosPlan(5, 1.0, kinds={"solver.pre_solve": ("crash",)}))
        telemetry.enable()
        scheduler = InterleavingScheduler(
            [BaselineTask("zorro"), BaselineTask("corvus")], budget=200000
        )
        outcome = scheduler.run(parse_script(NIA_SAT))  # must not raise
        assert outcome.status == "unknown"
        assert outcome.winner is None
        statuses = [a.status for round_ in outcome.history for a in round_]
        assert statuses and set(statuses) == {"crashed"}
        assert outcome.rounds == 2  # one retry round, then written off
        snap = telemetry.snapshot()
        assert snap.get("portfolio.lane_crashed{lane=original/zorro}") == 1
        assert snap.get("portfolio.lane_crashed{lane=original/corvus}") == 1

    def test_interleaving_delay_faults_preserve_verdict(self):
        from repro.portfolio.scheduler import InterleavingScheduler
        from repro.portfolio.tasks import BaselineTask

        tasks = [BaselineTask("zorro"), BaselineTask("corvus")]
        baseline = InterleavingScheduler(tasks, budget=400000).run(
            parse_script(NIA_SAT)
        )
        chaos.install(ChaosPlan(21, 0.5))  # default mix: pre_solve => delay
        chaotic = InterleavingScheduler(tasks, budget=400000).run(
            parse_script(NIA_SAT)
        )
        assert chaotic.status == baseline.status == "sat"

    def test_parallel_race_worker_crashes_recovered(self):
        from repro.portfolio.scheduler import parallel_race
        from repro.portfolio.tasks import BaselineTask

        chaos.install(ChaosPlan(9, 1.0))  # worker_spawn => crash, always
        telemetry.enable()
        tasks = [BaselineTask("zorro"), BaselineTask("corvus")]
        outcome = parallel_race(
            tasks, parse_script(NIA_SAT), budget=400000, wall_timeout=30.0
        )
        # Every worker (and its one retry) crashed: written off cleanly.
        assert outcome.status == "unknown"
        assert {a.status for a in outcome.history[0]} == {"crashed"}
        assert multiprocessing.active_children() == []
        snap = telemetry.snapshot()
        crashed = [k for k in snap if k.startswith("portfolio.lane_crashed")]
        assert len(crashed) == 2

    def test_parallel_race_crash_rate_preserves_verdict(self):
        from repro.portfolio.scheduler import parallel_race
        from repro.portfolio.tasks import BaselineTask

        script = parse_script(NIA_SAT)
        tasks = [BaselineTask("zorro"), BaselineTask("corvus")]
        fault_free = parallel_race(tasks, script, budget=400000, wall_timeout=30.0)
        chaos.install(ChaosPlan(13, 0.5))
        chaotic = parallel_race(tasks, script, budget=400000, wall_timeout=30.0)
        assert fault_free.status == chaotic.status == "sat"
        assert multiprocessing.active_children() == []

    def test_telemetry_writer_drops_instead_of_crashing(self, tmp_path):
        from repro.telemetry.spans import JsonlWriter

        chaos.install(ChaosPlan(17, 1.0))  # telemetry.flush => drop
        writer = JsonlWriter(str(tmp_path / "trace.jsonl"))
        writer({"span": "solve"})
        writer.flush()
        writer.close()
        assert writer.dropped == 1
        assert (tmp_path / "trace.jsonl").read_text() == ""

    def test_solve_verdict_stable_under_default_chaos(self):
        """The acceptance invariant in miniature: same verdicts, chaos on."""
        script = parse_script(NIA_SAT)
        clean = solve_script(script, budget=400000)
        chaos.install(ChaosPlan(29, 0.3))
        chaotic = solve_script(script, budget=400000)
        assert clean.status == chaotic.status == "sat"
        assert chaotic.model == clean.model


# Runs run_all twice: fault-free with --jobs 1, then with --jobs 2 where
# every corvus baseline cell kills its worker process outright (a real
# death mid-cell, not a raised ChaosCrash). Prints both renderings.
_WORKER_DEATH_SCRIPT = """
import contextlib, io, json, os, sys
from repro.evaluation import run_all

argv = ["--experiment", "table2", "--scale", "0.05", "--timeout", "50000",
        "--telemetry", sys.argv[1]]
serial = io.StringIO()
with contextlib.redirect_stdout(serial):
    run_all.main(argv)

parent = os.getpid()
solve_script = run_all.solve_script

def die_in_worker(script, **kwargs):
    if os.getpid() != parent and kwargs["profile"] == "corvus":
        os._exit(9)
    return solve_script(script, **kwargs)

run_all.solve_script = die_in_worker
parallel = io.StringIO()
with contextlib.redirect_stdout(parallel):
    run_all.main(argv + ["--jobs", "2"])
json.dump({"serial": serial.getvalue(), "parallel": parallel.getvalue()}, sys.stdout)
"""


class TestRunAllWorkerDeath:
    def test_cells_whose_worker_died_are_recomputed_serially(self, tmp_path):
        import json
        import subprocess
        import sys

        from repro.evaluation.runner import LOGICS

        telemetry_path = tmp_path / "telemetry.json"
        env = dict(os.environ)
        env.pop(chaos.ENV_VAR, None)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        # A lost cell used to hang the run: the timeout turns that into a
        # failure.
        proc = subprocess.run(
            [sys.executable, "-c", _WORKER_DEATH_SCRIPT, str(telemetry_path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=180,
        )
        assert proc.returncode == 0, proc.stderr
        outputs = json.loads(proc.stdout)
        assert outputs["parallel"] == outputs["serial"]
        metrics = json.loads(telemetry_path.read_text())["metrics"]
        crashed = {k: v for k, v in metrics.items() if k.startswith("eval.cell_crashed")}
        assert sorted(crashed) == sorted(
            f"eval.cell_crashed{{config=corvus,kind=baseline,logic={logic}}}"
            for logic in LOGICS
        )
        assert set(crashed.values()) == {1}
        assert metrics["pool.task_retried"] == len(LOGICS)  # each retried once
