"""Unsat-core reuse across the solve cache (Cache-a-lot).

Covers the subsumption index directly (inverted-index unit tests), the
cache-accounting bugfixes that rode along (eviction-kind attribution,
counter-rolling persistent ``clear()``), the root-UNSAT empty-core
guard, and seeded differential replays of benchgen and termination query
streams: cold, then warm with core reuse, against a reuse-disabled
oracle -- verdicts and models must be byte-identical, and adversarial
near-miss queries whose assertion sets are proper *subsets* of a cached
core must never hit.
"""

from collections import OrderedDict

import pytest

from repro import guard, telemetry
from repro.benchgen import suite_for
from repro.bv.solver import BoundedEngine
from repro.cache import SolveCache, activated, script_digests
from repro.cache.admission import Watch, admit, record
from repro.cache.store import entry_from_result
from repro.cli import main as cli_main
from repro.core.pipeline import Staub
from repro.guard import chaos
from repro.smtlib import build, parse_script
from repro.smtlib.script import Script
from repro.solver import SolveResult, solve_script
from repro.solver.session import Session, check_scopes
from repro.termination.automizer import Automizer
from repro.termination.programs import termination_benchmark_suite

BUDGET = 200_000


@pytest.fixture(autouse=True)
def clean_state():
    telemetry.disable()
    telemetry.get_registry().reset()
    yield
    telemetry.disable()
    telemetry.get_registry().reset()


UNSAT_BASE = (
    "(set-logic QF_BV)\n"
    "(declare-fun x () (_ BitVec 8))\n"
    "(assert (bvult x #x05))\n"
    "(assert (bvult #x0a x))\n"
    "(check-sat)\n"
)

SUPERSET = (
    "(set-logic QF_BV)\n"
    "(declare-fun x () (_ BitVec 8))\n"
    "(declare-fun y () (_ BitVec 8))\n"
    "(assert (bvult x #x05))\n"
    "(assert (bvult #x0a x))\n"
    "(assert (bvult y #x07))\n"
    "(check-sat)\n"
)

#: Proper subset of the UNSAT_BASE assertion set: satisfiable, so a core
#: hit here would be an unsound answer, not just a missed optimization.
NEAR_MISS = (
    "(set-logic QF_BV)\n"
    "(declare-fun x () (_ BitVec 8))\n"
    "(assert (bvult x #x05))\n"
    "(check-sat)\n"
)


class _CountingCores(OrderedDict):
    """An OrderedDict that counts core materializations (``__getitem__``)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


class TestCoreIndex:
    def test_subset_core_answers_superset_query(self):
        cache = SolveCache()
        assert cache.add_core({"a", "b"})
        assert cache.has_cores()
        assert cache.find_core({"a", "b", "c"}) == frozenset({"a", "b"})
        assert cache.core_hits == 1

    def test_proper_subset_query_never_hits(self):
        cache = SolveCache()
        cache.add_core({"a", "b"})
        assert cache.find_core({"a"}) is None
        assert cache.find_core({"b"}) is None
        assert cache.find_core({"b", "c"}) is None
        assert cache.core_hits == 0

    def test_empty_core_is_rejected(self):
        telemetry.enable()
        cache = SolveCache()
        assert not cache.add_core(frozenset())
        assert not cache.has_cores()
        assert cache.find_core({"a"}) is None
        snap = telemetry.snapshot()
        assert snap["cache.core_rejected{reason=empty}"] == 1

    def test_duplicate_core_stored_once(self):
        cache = SolveCache()
        assert cache.add_core({"a", "b"})
        assert not cache.add_core({"b", "a"})
        assert cache.stats()["cores"] == 1

    def test_weaker_core_is_redundant(self):
        cache = SolveCache()
        assert cache.add_core({"a"})
        # {a, b} answers strictly fewer queries than {a}: skip it.
        assert not cache.add_core({"a", "b"})
        assert cache.stats()["cores"] == 1
        # The reverse order keeps both: {a} is strictly stronger.
        other = SolveCache()
        assert other.add_core({"a", "b"})
        assert other.add_core({"a"})
        assert other.stats()["cores"] == 2

    def test_inverted_index_files_cores_under_min_digest(self):
        cache = SolveCache()
        cache.add_core({"b", "d"})
        cache.add_core({"a", "c"})
        assert set(cache._core_index) == {"a", "b"}

    def test_lookup_is_indexed_not_a_linear_scan(self):
        cache = SolveCache()
        cache.add_core({"b", "d"})
        cache.add_core({"a", "c"})
        counting = _CountingCores(cache._cores)
        cache._cores = counting
        # No query digest matches any core's representative (minimum)
        # digest: the lookup must answer without touching a single core.
        assert cache.find_core({"c", "d", "e"}) is None
        assert counting.reads == 0
        # A query containing a representative examines only that bucket.
        assert cache.find_core({"a", "c"}) == frozenset({"a", "c"})
        assert counting.reads == 1

    def test_core_eviction_keeps_index_consistent(self):
        cache = SolveCache(max_cores=2)
        cache.add_core({"a", "x"})
        cache.add_core({"b", "y"})
        cache.add_core({"c", "z"})
        assert cache.stats()["cores"] == 2
        assert cache.find_core({"a", "x"}) is None  # evicted (oldest)
        assert cache.find_core({"b", "y"}) is not None
        assert cache.find_core({"c", "z"}) is not None
        assert "a" not in cache._core_index
        assert all(bucket for bucket in cache._core_index.values())

    def test_core_reuse_disabled_is_inert(self):
        cache = SolveCache(core_reuse=False)
        assert not cache.add_core({"a"})
        assert not cache.has_cores()
        assert cache.find_core({"a", "b"}) is None

    def test_cores_persist_with_checksum(self, tmp_path):
        path = tmp_path / "cache.json"
        first = SolveCache(path=path)
        first.add_core({"a", "b"})
        first.save()
        second = SolveCache(path=path)
        assert second.has_cores()
        assert second.find_core({"a", "b", "c"}) == frozenset({"a", "b"})

    def test_garbled_cores_section_is_dropped_not_trusted(self, tmp_path):
        import json

        path = tmp_path / "cache.json"
        first = SolveCache(path=path)
        first.put("k", {"status": "sat"})
        first.add_core({"a"})
        first.save()
        payload = json.loads(path.read_text())
        payload["cores"] = [["a", "evil"]]  # checksum now stale
        path.write_text(json.dumps(payload))
        second = SolveCache(path=path)
        # Entries survive; the tampered core section does not.
        assert "k" in second
        assert not second.has_cores()
        assert second.quarantined == 1


def _solve_entry(status, model=None, **stats):
    result = SolveResult(status, model, 10, engine="test", stats=stats)
    return lambda: entry_from_result(result)


_CORE = frozenset({"d1", "d2"})

#: (row, status, determined, taint, entry, core, (entry stored, core stored))
ADMISSION_ROWS = [
    ("conclusive", "unsat", False, None, _solve_entry("unsat"), _CORE,
     (True, True)),
    ("facade-budget-unknown", "unknown", True, None,
     _solve_entry("unknown", gave_up="solver", gave_up_reason="work"), None,
     (True, False)),
    ("session-check-unknown", "unknown", False, None, _solve_entry("unknown"),
     None, (False, False)),
    ("chaos-fault", "unsat", False, "chaos", _solve_entry("unsat"), _CORE,
     (False, False)),
    ("deadline", "unsat", False, "deadline", _solve_entry("unsat"), _CORE,
     (False, False)),
    ("cancelled", "unsat", False, "cancelled", _solve_entry("unsat"), _CORE,
     (False, False)),
    ("parent", "unsat", False, "parent", _solve_entry("unsat"), _CORE,
     (False, False)),
    ("unencodable-model", "sat", False, None,
     _solve_entry("sat", model={"x": object()}), None, (False, False)),
    ("empty-core", "unsat", False, None, _solve_entry("unsat"), frozenset(),
     (True, False)),
    ("root-conflict-core", "unsat", False, None, _solve_entry("unsat"), None,
     (True, False)),
]


class TestAdmissionRule:
    """The one rule every cache writer applies, one row per reason."""

    @pytest.mark.parametrize(
        "status, determined, taint, entry, core, stored",
        [row[1:] for row in ADMISSION_ROWS],
        ids=[row[0] for row in ADMISSION_ROWS],
    )
    def test_row(self, status, determined, taint, entry, core, stored):
        cache = SolveCache()
        governor = guard.ResourceBudget()
        plan = chaos.install(chaos.ChaosPlan(7, 1.0)) if taint == "chaos" else None
        try:
            watch = Watch(governor)
            if plan is not None:
                plan.draw("solver.pre_solve")
            elif taint is not None:
                governor.note_give_up("solver", taint)
            record(
                cache, watch, status, "key", entry,
                determined=determined, core=lambda: core,
            )
            admitted = admit(watch, status, entry, determined=determined)
        finally:
            if plan is not None:
                chaos.uninstall()
        assert ("key" in cache, cache.has_cores()) == stored
        # The service's workers apply the same rule to their entries.
        assert (admitted is not None) == stored[0]


class TestEvictionKindAttribution:
    def test_eviction_counts_the_victim_kind(self):
        telemetry.enable()
        cache = SolveCache(max_entries=1)
        cache.put("old", {}, kind="arbitrage")
        cache.put("new", {}, kind="solve")
        snap = telemetry.snapshot()
        # The *arbitrage* entry was dropped; before the fix this counted
        # as an eviction of the inserted "solve" kind.
        assert snap["cache.eviction{kind=arbitrage}"] == 1
        assert "cache.eviction{kind=solve}" not in snap

    def test_victim_kind_survives_reload(self, tmp_path):
        telemetry.enable()
        path = tmp_path / "cache.json"
        first = SolveCache(path=path)
        first.put("old", {"kind": "refine-round"}, kind="refine-round")
        first.save()
        second = SolveCache(path=path, max_entries=1)
        second.put("new", {}, kind="solve")
        snap = telemetry.snapshot()
        assert snap["cache.eviction{kind=refine-round}"] == 1


class TestClearRollsAndPersists:
    def test_clear_rolls_session_counters_into_lifetime(self):
        cache = SolveCache()
        cache.put("k", {})
        cache.get("k")
        cache.get("missing")
        cache.add_core({"a"})
        cache.find_core({"a", "b"})
        cache.clear()
        stats = cache.stats()
        assert stats["entries"] == 0 and stats["cores"] == 0
        assert stats["hits"] == 0 and stats["misses"] == 0
        assert stats["core_hits"] == 0
        assert stats["lifetime_hits"] == 1
        assert stats["lifetime_misses"] == 1
        assert stats["lifetime_core_hits"] == 1

    def test_clear_persists_so_save_cannot_resurrect(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = SolveCache(path=path)
        cache.put("k", {"status": "sat"})
        cache.get("k")
        cache.add_core({"a"})
        cache.save()
        cache.clear()
        # Even a reload straight from disk sees the cleared store with
        # the rolled-up lifetime counters.
        reloaded = SolveCache(path=path)
        assert len(reloaded) == 0
        assert not reloaded.has_cores()
        assert reloaded.stats()["lifetime_hits"] == 1
        # An explicit save() after clear() must not bring entries back.
        cache.save()
        assert len(SolveCache(path=path)) == 0

    def test_cli_clear_then_stats_sequence(self, tmp_path, capsys):
        path = str(tmp_path / "cache.json")
        cache = SolveCache(path=path)
        cache.put("k", {"status": "sat"})
        cache.get("k")
        cache.add_core({"a"})
        cache.save()
        assert cli_main(["cache", "clear", path]) == 0
        assert cli_main(["cache", "stats", path]) == 0
        out = capsys.readouterr().out
        assert "cleared 1 entries and 1 cores" in out
        assert "entries = 0" in out
        assert "cores = 0" in out
        assert "lifetime hits = 1" in out


class TestRootUnsatGuard:
    def test_root_unsat_backend_reports_no_core(self):
        declarations = {"p": build.BOOL}
        engine = BoundedEngine(declarations)
        # A contradictory hard clause: the root-UNSAT fast path.
        engine.blaster.assert_term(build.FALSE)
        term = parse_script(
            "(declare-fun p () Bool)(assert p)(check-sat)"
        ).assertions[0]
        result, core_terms = check_scopes(engine, [[term]], declarations, None)
        assert result.status == "unsat"
        assert result.stats["root_conflict"] is True
        assert core_terms is None

    def test_root_unsat_session_never_poisons_core_index(self):
        cache = SolveCache()
        with activated(cache):
            session = Session()
            session.assert_term(
                parse_script("(declare-fun p () Bool)(assert p)(check-sat)").assertions[0]
            )
            assert session.check_sat().status == "sat"
            # Force the permanent root-UNSAT fast path (hard clauses dead),
            # and grow the stack so the check misses the whole-key cache.
            session._engine.blaster.assert_term(build.FALSE)
            session.assert_term(
                parse_script("(declare-fun r () Bool)(assert r)(check-sat)").assertions[0]
            )
            assert session.check_sat().status == "unsat"
            assert session.last_core_terms is None
            assert not cache.has_cores()
            # A fresh, satisfiable session question on the same cache must
            # not be answered unsat by a poisoned (empty) core.
            probe = Session()
            probe.assert_term(
                parse_script("(declare-fun q () Bool)(assert q)(check-sat)").assertions[0]
            )
            assert probe.check_sat().status == "sat"


class TestFacadeCoreReuse:
    def test_superset_query_is_answered_by_subsumption(self):
        cache = SolveCache()
        with activated(cache):
            first = solve_script(parse_script(UNSAT_BASE))
            hit = solve_script(parse_script(SUPERSET))
        assert first.status == "unsat" and not first.cached
        assert hit.status == "unsat"
        assert hit.engine == "core-reuse"
        assert hit.cached and hit.work == 0
        assert cache.core_hits == 1

    def test_near_miss_subset_query_solves_fresh(self):
        cache = SolveCache()
        with activated(cache):
            solve_script(parse_script(UNSAT_BASE))
            near = solve_script(parse_script(NEAR_MISS))
        assert near.status == "sat"  # a core hit here would be unsound
        assert near.engine != "core-reuse"
        assert cache.core_hits == 0

    def test_core_hit_matches_reuse_disabled_oracle(self):
        queries = [UNSAT_BASE, SUPERSET, NEAR_MISS]
        with activated(SolveCache()) as cache:
            reused = [solve_script(parse_script(q)) for q in queries]
        with activated(SolveCache(core_reuse=False)):
            oracle = [solve_script(parse_script(q)) for q in queries]
        assert cache.core_hits == 1
        for got, want in zip(reused, oracle):
            assert got.status == want.status
            assert got.model == want.model


def _benchgen_stream():
    """A deterministic slice of generated NIA scripts (unsat-heavy)."""
    return [b.script for b in suite_for("QF_NIA", seed=2024, scale=0.08)]


class TestBenchgenDifferential:
    def test_cold_and_warm_match_reuse_disabled_run(self):
        scripts = _benchgen_stream()

        def replay(cache):
            with activated(cache):
                cold = [
                    solve_script(s, budget=BUDGET, profile="zorro") for s in scripts
                ]
                warm = [
                    solve_script(s, budget=BUDGET, profile="zorro") for s in scripts
                ]
            return cold, warm

        cold, warm = replay(SolveCache(max_entries=None))
        oracle_cold, oracle_warm = replay(
            SolveCache(max_entries=None, core_reuse=False)
        )
        for got, want in zip(cold + warm, oracle_cold + oracle_warm):
            assert got.status == want.status
            assert got.model == want.model

    def test_arbitrage_stream_parity_with_reuse_disabled(self):
        scripts = _benchgen_stream()
        staub = Staub()

        def replay(cache):
            with activated(cache):
                return [
                    (staub.run(s, budget=BUDGET).case, staub.run(s, budget=BUDGET).case)
                    for s in scripts
                ]

        reused = replay(SolveCache(max_entries=None))
        oracle = replay(SolveCache(max_entries=None, core_reuse=False))
        assert reused == oracle


class TestTerminationDifferential:
    @pytest.mark.parametrize("use_sessions", [False, True])
    def test_warm_replay_hits_cores_at_identical_verdicts(self, use_sessions):
        programs = [
            program
            for program, _expected in termination_benchmark_suite(seed=2024, count=2)
        ]

        def verdicts(cache):
            rounds = []
            with activated(cache):
                for _ in range(2):  # cold, then warm
                    rounds.append(
                        [
                            Automizer(budget=BUDGET, use_sessions=use_sessions)
                            .analyze(program)
                            .verdict
                            for program in programs
                        ]
                    )
            return rounds

        cache = SolveCache(max_entries=None)
        cold, warm = verdicts(cache)
        oracle_cold, oracle_warm = verdicts(
            SolveCache(max_entries=None, core_reuse=False)
        )
        assert cold == oracle_cold
        assert warm == oracle_warm
        assert cold == warm
        # The termination stream is the acceptance workload: the warm
        # replay must answer part of it by subsumption, deterministically.
        assert cache.cores_stored > 0
        assert cache.core_hits > 0
        rerun = SolveCache(max_entries=None)
        verdicts(rerun)
        assert rerun.core_hits == cache.core_hits
