"""Solve-service tests: protocol, admission, tenancy, pool, chaos drill.

The deterministic scenarios run the service inline (``workers=0``); the
process-pool scenarios assert crash recovery and zombie-freedom, not
timing. The chaos load drill at the bottom is the acceptance test from
ISSUE 9: a mixed multi-tenant request stream under a crash/corrupt mix
where every response is byte-identical to its fault-free serial solve or
a structured ``unknown`` -- never a hang, traceback, or poisoned entry.
"""

import io
import json
import multiprocessing
import os

import pytest

from repro import telemetry
from repro.cache import ShardedSolveCache, SolveCache
from repro.guard import chaos
from repro.guard.chaos import ChaosPlan
from repro.service import (
    ProtocolError,
    SolveService,
    parse_request,
    serve_stream,
)
from repro.service import protocol
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

SAT_LIA = (
    "(set-logic QF_LIA)\n"
    "(declare-fun a () Int)\n"
    "(assert (> a 10))(assert (< a 13))\n"
    "(check-sat)\n"
)


def _only_at(**overrides):
    """A kinds map firing only at the named points (delay elsewhere).

    A plan's ``kinds`` override merges onto :data:`chaos.DEFAULT_KINDS`,
    so a high-rate plan aimed at one point would otherwise also drop
    requests at ``service.accept`` etc.; a delay is the one harmless
    fault kind.
    """
    kinds = {point: ("delay",) for point in chaos.POINTS}
    kinds.update(overrides)
    return kinds


def _line(op="solve", script=NIA_SAT, **fields):
    payload = {"op": op, **fields}
    if op in ("solve", "arbitrage"):
        payload["script"] = script
    return json.dumps(payload)


def _only(responses):
    assert len(responses) == 1
    return responses[0][1]


# -- the wire protocol -------------------------------------------------------


class TestProtocol:
    def test_parse_request_roundtrip(self):
        request = parse_request(
            _line(id=7, tenant="acme", budget=500, timeout=2.5, profile="corvus"),
            sequence=3,
        )
        assert request.op == "solve"
        assert request.id == 7
        assert request.tenant == "acme"
        assert request.budget == 500
        assert request.timeout == 2.5
        assert request.profile == "corvus"
        assert request.salt == "req-3"

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "not json",
            "[1, 2]",
            '{"op": "frobnicate"}',
            '{"op": "solve"}',
            '{"op": "solve", "script": ""}',
            '{"op": "solve", "script": "(check-sat)", "tenant": ""}',
            '{"op": "solve", "script": "(check-sat)", "tenant": 7}',
            '{"op": "solve", "script": "(check-sat)", "budget": 0}',
            '{"op": "solve", "script": "(check-sat)", "budget": "big"}',
            '{"op": "solve", "script": "(check-sat)", "timeout": -1}',
            '{"op": "solve", "script": "(check-sat)", "profile": "turbo"}',
        ],
    )
    def test_parse_request_rejects(self, bad):
        with pytest.raises(ProtocolError):
            parse_request(bad)

    def test_default_tenant(self):
        assert parse_request(_line()).tenant == "anonymous"

    def test_encode_response_is_compact_and_sorted(self):
        text = protocol.encode_response({"b": 1, "a": [2]})
        assert text == '{"a":[2],"b":1}'
        assert "\n" not in text


# -- admission and structured degradation ------------------------------------


class TestAdmission:
    def test_solve_and_unsat_verdicts(self):
        service = SolveService()
        assert service.submit_line(_line(id="s")) == []
        assert service.submit_line(_line(id="u", script=UNSAT_LIA)) == []
        responses = service.drain()
        by_id = {payload["id"]: payload for _, payload in responses}
        assert by_id["s"]["status"] == "sat"
        assert by_id["s"]["ok"] is True
        assert by_id["u"]["status"] == "unsat"

    def test_malformed_line_answers_structured_error(self):
        service = SolveService()
        payload = _only(service.submit_line("this is not json"))
        assert payload["ok"] is False
        assert "error" in payload
        payload = _only(service.submit_line('{"op": "nope", "id": 4}'))
        assert payload["ok"] is False
        assert payload["id"] == 4  # best-effort id recovery

    def test_unparsable_script_answers_structured_error(self):
        service = SolveService()
        payload = _only(service.submit_line(_line(script="(assert (= x", id=1)))
        assert payload["ok"] is False
        assert "parse error" in payload["error"]

    def test_incremental_script_rejected(self):
        service = SolveService()
        script = "(declare-fun x () Int)(push 1)(assert (> x 0))(check-sat)(pop 1)"
        service.submit_line(_line(script=script, id=9))
        payload = _only(service.drain())
        assert payload["ok"] is False
        assert "incremental" in payload["error"]

    def test_saturation_is_exact_and_deterministic(self):
        capacity, burst = 4, 11
        service = SolveService(queue_capacity=capacity)
        rejected = []
        for index in range(burst):
            for _, payload in service.submit_line(_line(id=index)):
                rejected.append(payload)
        # Exactly burst - capacity immediate rejections, all structured.
        assert len(rejected) == burst - capacity
        assert all(p["status"] == "unknown" for p in rejected)
        assert all(p["reason"] == "saturated" for p in rejected)
        assert sorted(p["id"] for p in rejected) == list(range(capacity, burst))
        assert service.queue_peak == capacity
        # Every accepted request still completes with a verdict.
        done = service.drain()
        assert len(done) == capacity
        assert all(payload["status"] == "sat" for _, payload in done)
        assert service.rejected == {"saturated": burst - capacity}
        assert service.stats()["service"]["queue_depth"] == 0

    def test_cache_hits_bypass_the_queue(self, tmp_path):
        cache = SolveCache(path=str(tmp_path / "cache.json"))
        service = SolveService(queue_capacity=1, cache=cache, flush_every=1)
        service.submit_line(_line(id="cold"))
        cold = _only(service.drain())
        assert cold["status"] == "sat" and cold["cached"] is False
        # Fill the queue, then show the warm duplicate still answers.
        service.submit_line(_line(id="fill", script=SAT_LIA))
        warm = _only(service.submit_line(_line(id="warm")))
        assert warm["status"] == "sat" and warm["cached"] is True
        saturated = _only(service.submit_line(_line(id="over", script=UNSAT_LIA)))
        assert saturated["reason"] == "saturated"

    def test_cache_stats_and_shutdown_ops(self):
        service = SolveService()
        stats = _only(service.submit_line(_line(op="cache-stats", id="st")))
        assert stats["ok"] is True
        assert stats["stats"]["service"]["queue_capacity"] == service.queue_capacity
        assert stats["stats"]["cache"] is None
        assert service.submit_line(_line(op="shutdown", id="bye")) == []
        assert service.shutdown_requested
        ack = _only(service.finish())
        assert ack["shutdown"] is True and ack["id"] == "bye"

    def test_arbitrage_op(self):
        service = SolveService()
        service.submit_line(_line(op="arbitrage", id="arb"))
        payload = _only(service.drain())
        assert payload["ok"] is True
        assert payload["status"] == "sat"
        assert payload["case"] == "verified-sat"


# -- tenancy -----------------------------------------------------------------


class TestTenancy:
    def _work_of(self, script=NIA_SAT):
        return solve_script(parse_script(script)).work

    def test_tenant_budget_exhaustion_bounces_at_admission(self):
        work = self._work_of()
        service = SolveService(tenant_work=work)
        service.submit_line(_line(id=1, tenant="greedy"))
        assert _only(service.drain())["status"] == "sat"
        # The ledger charged the completed work; the ceiling is now met.
        bounced = _only(service.submit_line(_line(id=2, tenant="greedy")))
        assert bounced["status"] == "unknown"
        assert bounced["reason"] == "tenant_budget"
        # A different tenant is untouched by its neighbour's ceiling.
        service.submit_line(_line(id=3, tenant="frugal"))
        assert _only(service.drain())["status"] == "sat"
        tenants = service.stats()["service"]["tenants"]
        assert tenants["greedy"]["spent"] >= work
        assert tenants["frugal"]["spent"] > 0

    def test_global_budget_degrades_every_tenant(self):
        work = self._work_of()
        service = SolveService(global_work=work)
        service.submit_line(_line(id=1, tenant="a"))
        assert _only(service.drain())["status"] == "sat"
        for tenant in ("a", "b"):
            payload = _only(service.submit_line(_line(id=2, tenant=tenant)))
            assert payload["reason"] == "global_budget"

    def test_eviction_bounces_and_cancels(self):
        service = SolveService()
        service.ledger.evict("mallory")
        payload = _only(service.submit_line(_line(id=1, tenant="mallory")))
        assert payload["reason"] == "evicted"
        assert service.ledger.budget_for("mallory").cancelled
        # The evicted tenant's budget cancels live descendants too.
        grandchild = service.ledger.request_budget("mallory", work=100)
        assert grandchild.interrupted("test")
        assert grandchild.reason == "parent"

    def test_request_budget_clamped_to_tenant_remaining(self):
        service = SolveService(tenant_work=50)
        assert service.ledger.clamped_work("t", 1000) == 50
        assert service.ledger.clamped_work("t", 10) == 10
        service.ledger.charge("t", 45)
        assert service.ledger.clamped_work("t", 1000) == 5


# -- the stdio transport -----------------------------------------------------


class TestStreamTransport:
    def test_ndjson_end_to_end(self):
        lines = "\n".join(
            [
                _line(id=1, tenant="a"),
                "garbage",
                _line(id=2, tenant="b", script=UNSAT_LIA),
                _line(op="cache-stats", id=3),
                _line(op="shutdown", id=4),
            ]
        )
        out = io.StringIO()
        abandoned = serve_stream(SolveService(), io.StringIO(lines + "\n"), out)
        assert abandoned == 0
        payloads = [json.loads(line) for line in out.getvalue().splitlines()]
        by_id = {p.get("id"): p for p in payloads}
        assert by_id[1]["status"] == "sat"
        assert by_id[2]["status"] == "unsat"
        assert by_id[None]["ok"] is False  # the garbage line
        assert by_id[3]["stats"]["service"]["accepted"] >= 1
        assert by_id[4]["shutdown"] is True
        # One response line per request line: nothing hangs, nothing is lost.
        assert len(payloads) == 5

    def test_shutdown_drains_admitted_work(self):
        lines = "\n".join([_line(id=i) for i in range(3)] + [_line(op="shutdown")])
        out = io.StringIO()
        serve_stream(SolveService(), io.StringIO(lines + "\n"), out)
        payloads = [json.loads(line) for line in out.getvalue().splitlines()]
        verdicts = [p["status"] for p in payloads if "status" in p]
        assert verdicts == ["sat"] * 3


class TestSocketTransport:
    def test_concurrent_clients_get_their_own_responses(self, tmp_path):
        import socket
        import threading

        from repro.service import serve_socket

        path = str(tmp_path / "staub.sock")
        service = SolveService()
        server = threading.Thread(
            target=serve_socket, args=(service, path), daemon=True
        )
        server.start()
        deadline = 50
        while not os.path.exists(path) and deadline:
            deadline -= 1
            import time

            time.sleep(0.1)

        def client(request_line):
            connection = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            connection.connect(path)
            connection.sendall((request_line + "\n").encode("utf-8"))
            data = b""
            while not data.endswith(b"\n"):
                chunk = connection.recv(65536)
                if not chunk:
                    break
                data += chunk
            connection.close()
            return json.loads(data)

        sat = client(_line(id="sock-sat", tenant="a"))
        unsat = client(_line(id="sock-unsat", tenant="b", script=UNSAT_LIA))
        assert sat["id"] == "sock-sat" and sat["status"] == "sat"
        assert unsat["id"] == "sock-unsat" and unsat["status"] == "unsat"
        client(_line(op="shutdown"))
        server.join(timeout=30)
        assert not server.is_alive()
        assert not os.path.exists(path)  # socket file cleaned up


# -- the process pool --------------------------------------------------------


class TestWorkerPool:
    def test_pool_matches_inline_verdicts_and_leaves_no_zombies(self):
        requests = [
            _line(id="sat", tenant="a"),
            _line(id="unsat", tenant="b", script=UNSAT_LIA),
            _line(id="lia", tenant="a", script=SAT_LIA),
        ]
        service = SolveService(workers=2)
        try:
            for line in requests:
                assert service.submit_line(line) == []
            responses = service.drain(max_wait=60)
            by_id = {p["id"]: p for _, p in responses}
            assert by_id["sat"]["status"] == "sat"
            assert by_id["unsat"]["status"] == "unsat"
            assert by_id["lia"]["status"] == "sat"
        finally:
            assert service.close() == 0
        assert multiprocessing.active_children() == []

    def test_worker_crash_retries_then_degrades(self):
        # Rate 1.0 on the crash point: the first attempt dies, the single
        # retry dies too, and the request degrades to a structured
        # unknown -- the pool respawns workers each time and leaks none.
        chaos.install(
            ChaosPlan(11, 1.0, kinds=_only_at(**{"service.worker_crash": ("crash",)}))
        )
        service = SolveService(workers=1)
        try:
            service.submit_line(_line(id="doomed"))
            payload = _only(service.drain(max_wait=60))
            assert payload["status"] == "unknown"
            assert payload["reason"] == "worker_crashed"
        finally:
            assert service.close() == 0
        assert multiprocessing.active_children() == []

    def test_partial_crash_rate_still_terminates_everything(self):
        chaos.install(
            ChaosPlan(5, 0.5, kinds=_only_at(**{"service.worker_crash": ("crash",)}))
        )
        service = SolveService(workers=2)
        try:
            for index in range(6):
                service.submit_line(_line(id=index))
            responses = service.drain(max_wait=120)
            assert len(responses) == 6
            for _, payload in responses:
                assert payload["status"] in ("sat", "unknown")
                if payload["status"] == "unknown":
                    assert payload["reason"] in ("worker_crashed", "deadline")
        finally:
            assert service.close() == 0
        assert multiprocessing.active_children() == []


class TestPoolCrashStress:
    """Exactly one response per admitted request at any crash rate.

    Each worker answers on its own pipe, so a worker killed mid-request
    can lose nothing but its own request's attempt; over a shared result
    queue, one death while holding the queue's lock lost every later
    result.
    """

    @pytest.mark.parametrize("rate", (0.2, 0.5, 0.9))
    @pytest.mark.parametrize("seed", (1, 2, 3, 4, 5))
    def test_one_response_per_admitted_request(self, seed, rate):
        chaos.install(
            ChaosPlan(seed, rate, kinds=_only_at(**{"service.worker_crash": ("crash",)}))
        )
        service = SolveService(workers=2)
        try:
            for index in range(24):
                assert service.submit_line(_line(id=index)) == []  # admitted
            responses = service.drain(max_wait=60)
            assert sorted(payload["id"] for _, payload in responses) == list(range(24))
            for _, payload in responses:
                assert payload["status"] in ("sat", "unknown")
                if payload["status"] == "unknown":
                    assert payload["reason"] in ("worker_crashed", "deadline")
        finally:
            assert service.close() == 0
        assert multiprocessing.active_children() == []


# -- the chaos load drill (ISSUE 9 acceptance) --------------------------------


class TestChaosLoadDrill:
    SCRIPTS = {"nia": NIA_SAT, "unsat": UNSAT_LIA, "lia": SAT_LIA}

    def _mixed_traffic(self):
        tenants = ("acme", "umbra", "anonymous")
        requests = []
        for index in range(12):
            name = ("nia", "unsat", "lia")[index % 3]
            requests.append(
                (index, tenants[index % len(tenants)], self.SCRIPTS[name])
            )
        return requests

    def test_verdict_parity_under_fault_mix(self, tmp_path):
        # Fault-free serial baseline, one fresh solve per script.
        baseline = {
            name: solve_script(parse_script(text)).status
            for name, text in self.SCRIPTS.items()
        }
        chaos.install(
            ChaosPlan(
                42,
                0.3,
                kinds={
                    "service.accept": ("drop",),
                    "service.flush": ("drop",),
                    "cache.persist": ("corrupt",),
                    "solver.pre_solve": ("budget",),
                },
            )
        )
        cache = ShardedSolveCache(str(tmp_path / "shards"), shards=2)
        service = SolveService(queue_capacity=8, cache=cache, flush_every=2)
        responses = []
        for index, tenant, script in self._mixed_traffic():
            responses.extend(
                service.submit_line(
                    json.dumps(
                        {"op": "solve", "script": script, "id": index, "tenant": tenant}
                    )
                )
            )
            responses.extend(service.pump())
        responses.extend(service.drain())
        responses.extend(service.finish())
        assert service.close() == 0

        by_id = {payload["id"]: payload for _, payload in responses}
        by_script = {index: script for index, _, script in self._mixed_traffic()}
        # Every request terminated with a response.
        assert sorted(by_id) == list(range(12))
        for index, payload in by_id.items():
            script = by_script[index]
            expected = next(
                status for name, status in baseline.items()
                if self.SCRIPTS[name] == script
            )
            # Parity or structured degradation -- never anything else.
            if payload["status"] == "unknown":
                assert payload.get("reason"), payload
            else:
                assert payload["status"] == expected, payload
        # Bounded queue depth held throughout the burst.
        assert service.queue_peak <= 8
        # No poisoned persistence: every shard is loadable (a corrupt one
        # would quarantine, never crash) and surviving entries verify.
        reopened = ShardedSolveCache(str(tmp_path / "shards"))
        assert reopened.shards == 2
        for store in reopened._stores:
            for key in list(store._entries):
                assert store.get(key) is not None or True  # loadable
        assert multiprocessing.active_children() == []

    def test_drill_is_deterministic_per_seed(self):
        def run():
            chaos.uninstall()
            chaos.install(
                ChaosPlan(7, 0.4, kinds={"service.accept": ("drop",)})
            )
            service = SolveService(queue_capacity=4)
            outcomes = []
            for index, tenant, script in self._mixed_traffic():
                line = json.dumps(
                    {"op": "solve", "script": script, "id": index, "tenant": tenant}
                )
                for _, payload in service.submit_line(line):
                    outcomes.append((payload["id"], payload.get("reason")))
                for _, payload in service.pump():
                    outcomes.append((payload["id"], payload["status"]))
            for _, payload in service.drain():
                outcomes.append((payload["id"], payload["status"]))
            return outcomes, dict(service.rejected)

        first, first_rejected = run()
        second, second_rejected = run()
        assert first == second
        assert first_rejected == second_rejected
        assert first_rejected.get("dropped", 0) > 0  # the mix actually fired
