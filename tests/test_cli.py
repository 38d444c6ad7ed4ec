"""Tests for the staub command-line tool."""

import pytest

from repro.cli import main


@pytest.fixture()
def nia_file(tmp_path):
    path = tmp_path / "cubes.smt2"
    path.write_text(
        "(set-logic QF_NIA)\n"
        "(declare-fun x () Int)(declare-fun y () Int)\n"
        "(assert (= (* x y) 77))(assert (> x 1))(assert (< x y))\n"
        "(check-sat)\n"
    )
    return str(path)


@pytest.fixture()
def bv_file(tmp_path):
    path = tmp_path / "bv.smt2"
    path.write_text(
        "(declare-fun v () (_ BitVec 8))\n"
        "(assert (= (bvmul v (_ bv4 8)) (_ bv20 8)))\n"
        "(check-sat)\n"
    )
    return str(path)


class TestTransform:
    def test_transform_prints_bounded_script(self, nia_file, capsys):
        assert main(["transform", nia_file]) == 0
        out = capsys.readouterr().out
        assert "(set-logic QF_BV)" in out
        assert "bvmul" in out
        assert "; theory: int" in out

    def test_transform_fixed_width(self, nia_file, capsys):
        assert main(["transform", nia_file, "--width", "10"]) == 0
        out = capsys.readouterr().out
        assert "(_ BitVec 10)" in out


class TestSolve:
    def test_solve_sat(self, nia_file, capsys):
        assert main(["solve", nia_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("sat")
        assert "x = 7" in out and "y = 11" in out

    def test_solve_profiles(self, nia_file, capsys):
        assert main(["solve", nia_file, "--profile", "corvus"]) == 0
        assert "sat" in capsys.readouterr().out


class TestArbitrage:
    def test_arbitrage_verified(self, nia_file, capsys):
        assert main(["arbitrage", nia_file]) == 0
        out = capsys.readouterr().out
        assert "case: verified-sat" in out
        assert "verified model:" in out

    def test_arbitrage_revert_message(self, tmp_path, capsys):
        path = tmp_path / "unsat.smt2"
        path.write_text(
            "(declare-fun x () Int)(assert (> x 5))(assert (< x 3))(check-sat)"
        )
        assert main(["arbitrage", str(path)]) == 0
        out = capsys.readouterr().out
        assert "case: bounded-unsat" in out
        assert "reverting" in out


class TestAnalyze:
    def test_analyze_report(self, nia_file, capsys):
        assert main(["analyze", nia_file]) == 0
        out = capsys.readouterr().out
        assert "theory: int" in out
        assert "largest constant: 77" in out
        assert "variable assumption x:" in out


class TestOptimize:
    def test_optimize_bounded(self, bv_file, capsys):
        assert main(["optimize", bv_file]) == 0
        out = capsys.readouterr().out
        assert "bvshl" in out  # strength-reduced multiply by 4

    def test_optimize_rejects_unbounded(self, nia_file, capsys):
        assert main(["optimize", nia_file]) == 1
        assert "error" in capsys.readouterr().err


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["solve", "/nonexistent.smt2"]) == 1
        assert "error" in capsys.readouterr().err

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.smt2"
        path.write_text("(assert (=")
        assert main(["solve", str(path)]) == 1


#: x^3 + y^3 = 35 with x > 0: sat (x = 2, y = 3), but not within a
#: zero deadline.
CUBES = (
    "(declare-fun x () Int)(declare-fun y () Int)\n"
    "(assert (= (+ (* x x x) (* y y y)) 35))\n"
    "(assert (> x 0))\n"
)


class TestDeadlineNeverPoisonsCache:
    """An outer deadline or cancellation must not store its ``unknown``:
    the key does not include the outer governor, so a later run without
    it would replay the ``unknown`` as the answer."""

    def test_cancelled_outer_governor_stores_nothing(self):
        from repro import guard
        from repro.cache import SolveCache
        from repro.smtlib import parse_script
        from repro.solver import solve_script

        script = parse_script("(set-logic QF_NIA)\n" + CUBES + "(check-sat)\n")
        cache = SolveCache()
        outer = guard.ResourceBudget()
        outer.cancel()
        with guard.activate(outer):
            degraded = solve_script(script, budget=200_000, cache=cache)
        assert degraded.status == "unknown"
        assert degraded.stats["gave_up_reason"] == "parent"
        assert len(cache) == 0
        again = solve_script(script, budget=200_000, cache=cache)
        assert not again.cached
        assert again.status == "sat"

    def test_session_deadline_run_then_clean_run(self, tmp_path, capsys):
        path = tmp_path / "cubes.smt2"
        path.write_text(
            "(set-logic QF_NIA)\n(push 1)\n" + CUBES + "(check-sat)\n(pop 1)\n"
        )
        cache = str(tmp_path / "dl.json")
        assert main(["solve", str(path), "--cache", cache, "--deadline", "0"]) == 0
        assert capsys.readouterr().out.startswith("unknown")
        assert main(["solve", str(path), "--cache", cache]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "sat"


class TestReduce:
    def test_reduce_verified(self, tmp_path, capsys):
        path = tmp_path / "wide.smt2"
        path.write_text(
            "(declare-fun x () (_ BitVec 24))(declare-fun y () (_ BitVec 24))"
            "(assert (= (bvmul x y) (_ bv77 24)))"
            "(assert (bvsgt x (_ bv1 24)))(assert (bvsgt y x))"
            "(assert (bvslt y (_ bv16 24)))(check-sat)"
        )
        assert main(["reduce", str(path), "--width", "8"]) == 0
        out = capsys.readouterr().out
        assert "case: verified-sat" in out
        assert "24 -> 8 bits" in out


class TestChaosSpecValidation:
    """Malformed chaos specs exit 2 with one structured line, no traceback."""

    @pytest.fixture(autouse=True)
    def no_ambient_chaos(self, monkeypatch):
        from repro.guard import chaos

        monkeypatch.delenv(chaos.ENV_VAR, raising=False)
        chaos.uninstall()
        yield
        chaos.uninstall()

    @pytest.mark.parametrize("bad", ["garbage", "1234", "x:0.1", "1:y", "1234:5.0"])
    def test_bad_chaos_flag_exits_2(self, nia_file, capsys, bad):
        assert main(["solve", nia_file, "--chaos", bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith("staub: error:")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_bad_chaos_env_exits_2(self, nia_file, capsys, monkeypatch):
        # A typo'd REPRO_CHAOS used to surface as a raw ValueError
        # traceback from the first lazy chaos.active() call mid-solve.
        from repro.guard import chaos

        monkeypatch.setenv(chaos.ENV_VAR, "oops")
        assert main(["solve", nia_file]) == 2
        err = capsys.readouterr().err
        assert err.startswith("staub: error:")
        assert chaos.ENV_VAR in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_good_chaos_flag_still_runs(self, nia_file, capsys):
        assert main(["solve", nia_file, "--chaos", "7:0.0"]) == 0
        assert "sat" in capsys.readouterr().out

    def test_good_chaos_env_still_runs(self, nia_file, capsys, monkeypatch):
        from repro.guard import chaos

        monkeypatch.setenv(chaos.ENV_VAR, "7:0.0")
        assert main(["solve", nia_file]) == 0
        assert "sat" in capsys.readouterr().out


class TestServeCLI:
    def test_serve_stdio_smoke(self, monkeypatch, capsys):
        import io
        import json
        import sys as _sys

        lines = "\n".join(
            [
                json.dumps(
                    {
                        "op": "solve",
                        "id": 1,
                        "script": "(set-logic QF_LIA)(declare-fun a () Int)"
                        "(assert (> a 10))(assert (< a 13))(check-sat)",
                    }
                ),
                json.dumps({"op": "shutdown", "id": 2}),
            ]
        )
        monkeypatch.setattr(_sys, "stdin", io.StringIO(lines + "\n"))
        assert main(["serve"]) == 0
        out = capsys.readouterr().out
        payloads = [json.loads(line) for line in out.splitlines()]
        assert payloads[0]["id"] == 1 and payloads[0]["status"] == "sat"
        assert payloads[-1]["shutdown"] is True

    def test_cache_stats_on_sharded_directory(self, tmp_path, capsys):
        from repro.cache import ShardedSolveCache

        target = tmp_path / "shards"
        cache = ShardedSolveCache(str(target), shards=2)
        cache.put("deadbeef" + "0" * 8, {"status": "sat", "work": 1,
                                         "engine": "t", "model": None, "stats": {}})
        cache.save()
        assert main(["cache", "stats", str(target)]) == 0
        out = capsys.readouterr().out
        assert "shards = 2" in out
        assert "entries = 1" in out
