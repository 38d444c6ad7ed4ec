"""Tests for the normalized solve cache: keys, store, facade integration."""

from fractions import Fraction

import pytest

from repro import telemetry
from repro.cache import SolveCache, activated, cache_key, canonical_text, get_cache
from repro.cache.store import (
    decode_model,
    decode_value,
    encode_model,
    encode_value,
    entry_from_result,
    result_from_entry,
)
from repro.smtlib import build, parse_script
from repro.smtlib.script import Script
from repro.smtlib.values import BVValue
from repro.solver import solve_script
from repro.solver.result import SolveResult


@pytest.fixture(autouse=True)
def clean_state():
    telemetry.disable()
    telemetry.get_registry().reset()
    yield
    telemetry.disable()
    telemetry.get_registry().reset()


CUBES = (
    "(set-logic QF_NIA)\n"
    "(declare-fun x () Int)(declare-fun y () Int)\n"
    "(assert (= (* x y) 77))(assert (> x 1))(assert (< x y))\n"
    "(check-sat)\n"
)


def _script(text):
    return parse_script(text)


class TestCanonicalText:
    def test_assertion_order_is_irrelevant(self):
        a = _script(
            "(declare-fun x () Int)(assert (> x 3))(assert (< x 9))(check-sat)"
        )
        b = _script(
            "(declare-fun x () Int)(assert (< x 9))(assert (> x 3))(check-sat)"
        )
        assert canonical_text(a) == canonical_text(b)

    def test_commutative_argument_order_is_irrelevant(self):
        x, y = build.IntVar("x"), build.IntVar("y")
        a = Script.from_assertions([build.Eq(build.Add(x, y), build.IntConst(5))])
        b = Script.from_assertions([build.Eq(build.IntConst(5), build.Add(y, x))])
        assert canonical_text(a) == canonical_text(b)

    def test_duplicate_assertions_collapse(self):
        x = build.IntVar("x")
        once = Script.from_assertions([build.Gt(x, build.IntConst(3))])
        twice = Script.from_assertions(
            [build.Gt(x, build.IntConst(3)), build.Gt(x, build.IntConst(3))]
        )
        assert canonical_text(once) == canonical_text(twice)

    def test_noncommutative_order_is_preserved(self):
        x, y = build.IntVar("x"), build.IntVar("y")
        a = Script.from_assertions([build.Lt(x, y)])
        b = Script.from_assertions([build.Lt(y, x)])
        assert canonical_text(a) != canonical_text(b)

    def test_stable_under_reprinting(self):
        script = _script(CUBES)
        text = canonical_text(script)
        assert canonical_text(parse_script(text)) == text

    def test_key_discriminates_parameters(self):
        script = _script(CUBES)
        base = cache_key(script, profile="zorro", budget=1000)
        assert base == cache_key(script, profile="zorro", budget=1000)
        assert base != cache_key(script, profile="corvus", budget=1000)
        assert base != cache_key(script, profile="zorro", budget=2000)
        assert base != cache_key(script, profile="zorro", budget=1000, kind="arbitrage")
        assert base != cache_key(
            script, profile="zorro", budget=1000, extra={"strategy": "fixed8"}
        )


class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [True, False, 0, -7, 10**30, Fraction(22, 7), BVValue(855, 12)],
    )
    def test_roundtrip(self, value):
        decoded = decode_value(encode_value(value))
        assert decoded == value
        assert type(decoded) is type(value)

    def test_model_roundtrip(self):
        model = {"x": 3, "q": Fraction(-1, 2), "v": BVValue(9, 4), "b": True}
        assert decode_model(encode_model(model)) == model

    def test_none_model(self):
        assert encode_model(None) is None
        assert decode_model(None) is None

    def test_unknown_value_raises(self):
        with pytest.raises(TypeError):
            encode_value(object())

    def test_result_entry_roundtrip(self):
        result = SolveResult("sat", {"x": 7}, 123, engine="nia", stats={"conflicts": 4})
        entry = entry_from_result(result)
        back = result_from_entry(entry)
        assert back.status == "sat"
        assert back.model == {"x": 7}
        assert back.work == 123
        assert back.engine == "nia"
        assert back.stats == {"conflicts": 4}
        assert back.cached is True


class TestStore:
    def test_hit_miss_counters(self):
        cache = SolveCache()
        assert cache.get("k") is None
        cache.put("k", {"status": "sat"})
        assert cache.get("k") == {"status": "sat"}
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_lru_eviction(self):
        cache = SolveCache(max_entries=2)
        cache.put("a", {})
        cache.put("b", {})
        cache.get("a")  # refresh a; b is now LRU
        cache.put("c", {})
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats()["evictions"] == 1

    def test_persistence_roundtrip(self, tmp_path):
        path = tmp_path / "cache.json"
        first = SolveCache(path=path)
        first.put("k", {"status": "unsat", "work": 5})
        first.get("k")
        first.save()
        second = SolveCache(path=path)
        assert second.get("k") == {"status": "unsat", "work": 5}
        assert second.stats()["lifetime_hits"] == 2  # 1 persisted + 1 fresh

    def test_telemetry_counters_flow(self):
        telemetry.enable()
        cache = SolveCache(max_entries=1)
        cache.get("missing")
        cache.put("a", {})
        cache.put("b", {})
        cache.get("b")
        snap = telemetry.snapshot()
        assert snap["cache.miss{kind=solve}"] == 1
        assert snap["cache.hit{kind=solve}"] == 1
        assert snap["cache.eviction{kind=solve}"] == 1


class TestFacadeIntegration:
    def test_second_solve_is_served_from_cache(self):
        script = _script(CUBES)
        with activated(SolveCache()):
            first = solve_script(script, budget=200_000)
            second = solve_script(script, budget=200_000)
        assert not first.cached and second.cached
        assert second.status == first.status
        assert second.model == first.model
        assert second.work == first.work

    def test_permuted_script_hits_same_entry(self):
        cache = SolveCache()
        script = _script(CUBES)
        permuted = _script(
            "(set-logic QF_NIA)\n"
            "(declare-fun x () Int)(declare-fun y () Int)\n"
            "(assert (< x y))(assert (> x 1))(assert (= (* y x) 77))\n"
            "(check-sat)\n"
        )
        with activated(cache):
            solve_script(script, budget=200_000)
            hit = solve_script(permuted, budget=200_000)
        assert hit.cached
        assert hit.status == "sat"

    def test_different_budget_misses(self):
        cache = SolveCache()
        script = _script(CUBES)
        with activated(cache):
            solve_script(script, budget=200_000)
            other = solve_script(script, budget=100_000)
        assert not other.cached

    def test_active_cache_is_used(self):
        script = _script(CUBES)
        with activated(SolveCache()) as cache:
            assert get_cache() is cache
            solve_script(script, budget=200_000)
            assert solve_script(script, budget=200_000).cached
        assert get_cache() is None

    def test_bounded_scripts_cache_bv_models(self):
        cache = SolveCache()
        script = _script(
            "(declare-fun v () (_ BitVec 8))\n"
            "(assert (= (bvmul v (_ bv4 8)) (_ bv20 8)))\n"
            "(check-sat)\n"
        )
        with activated(cache):
            first = solve_script(script)
            second = solve_script(script)
        assert second.cached
        assert second.model == first.model
        assert isinstance(second.model["v"], BVValue)

    def test_cached_result_survives_persistence(self, tmp_path):
        path = tmp_path / "cache.json"
        script = _script(CUBES)
        cache = SolveCache(path=path)
        with activated(cache):
            fresh = solve_script(script, budget=200_000)
        cache.save()
        with activated(SolveCache(path=path)):
            rehydrated = solve_script(script, budget=200_000)
        assert rehydrated.cached
        assert rehydrated.status == fresh.status
        assert rehydrated.model == fresh.model
