"""``staub serve``: the long-running multi-tenant solve server.

Robustness is the organizing principle:

- **admission control**: a bounded queue fronts the pool; when it is
  full a request is rejected *immediately* with a structured ``unknown
  (reason=saturated)`` instead of queueing unboundedly. Queue depth is
  tracked and its peak reported, so "bounded" is checkable.
- **per-tenant fairness**: every request runs under a grandchild of the
  global governor (:mod:`repro.service.tenancy`); a tenant at its work
  ceiling bounces at admission (``reason=tenant_budget``) and an evicted
  tenant's live in-process solves trip cooperatively.
- **degradation over failure**: worker crashes retry once then answer
  ``unknown (reason=worker_crashed)``; injected accept-faults answer
  ``unknown (reason=dropped)``; malformed lines answer ``{"ok": false,
  "error": ...}``. Every request line terminates with a response.
- **batched, sharded persistence**: completed conclusive solves land in
  the shared cache; every ``flush_every`` completions the dirty shards
  are flushed (a ``service.flush`` chaos drop skips one batch, never
  loses the store -- the next flush or shutdown picks the entries up).

Two transports share the service core: :func:`serve_stream` (NDJSON on
stdio -- one client) and :func:`serve_socket` (a Unix socket
multiplexing concurrent clients). Responses carry the request ``id``, so
pipelined clients may see them out of submission order in pool mode.
"""

import os
from collections import deque

from repro import telemetry
from repro.cache.admission import lookup
from repro.cache.keys import cache_key, script_digests
from repro.errors import ReproError
from repro.guard import chaos
from repro.service import protocol
from repro.service.tenancy import TenantLedger
from repro.service.workers import WorkerPool, run_request

__all__ = ["SolveService", "serve_socket", "serve_stream"]

#: Default per-request unified work budget (the evaluation's timeout).
DEFAULT_BUDGET = 1_200_000

#: Default admission-queue capacity.
DEFAULT_QUEUE_CAPACITY = 64

#: Flush the cache's dirty shards every this many completions.
DEFAULT_FLUSH_EVERY = 16


class _Ticket:
    """One admitted request awaiting execution."""

    __slots__ = ("request", "script", "key", "client")

    def __init__(self, request, script, key, client):
        self.request = request
        self.script = script
        self.key = key
        self.client = client


class SolveService:
    """The transport-independent service core.

    Args:
        workers: 0 runs requests inline (deterministic); N > 0 runs a
            crash-tolerant process pool.
        queue_capacity: admission bound; excess requests are rejected
            with ``reason=saturated``.
        profile / budget / timeout: per-request defaults (a request may
            narrow but the budget is always clamped to the tenant's and
            the global governor's remaining work).
        global_work / global_deadline: the root governor's ceilings.
        tenant_work: per-tenant work ceiling.
        cache: a :class:`~repro.cache.SolveCache` or
            :class:`~repro.cache.ShardedSolveCache` shared by all
            tenants (lookups and stores happen in the server process;
            workers never touch it).
        flush_every: completions between batched cache flushes.
    """

    def __init__(
        self,
        workers=0,
        queue_capacity=DEFAULT_QUEUE_CAPACITY,
        profile="zorro",
        budget=DEFAULT_BUDGET,
        timeout=None,
        global_work=None,
        global_deadline=None,
        tenant_work=None,
        cache=None,
        flush_every=DEFAULT_FLUSH_EVERY,
    ):
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be at least 1")
        self.workers = workers
        self.queue_capacity = queue_capacity
        self.profile = profile
        self.budget = budget
        self.timeout = timeout
        self.cache = cache
        self.flush_every = flush_every
        self.ledger = TenantLedger(
            global_work=global_work,
            global_deadline=global_deadline,
            tenant_work=tenant_work,
        )
        self.pool = WorkerPool(workers) if workers else None
        self._pending = deque()
        self._tickets = {}  # request salt -> _Ticket (pool mode)
        self._sequence = 0
        self._completions_since_flush = 0
        self._shutdown = None  # (request, client) once requested
        self.accepted = 0
        self.completed = 0
        self.queue_peak = 0
        self.rejected = {}  # reason -> count

    # -- admission ---------------------------------------------------------

    @property
    def shutdown_requested(self):
        return self._shutdown is not None

    def _reject(self, request, reason, client):
        self.rejected[reason] = self.rejected.get(reason, 0) + 1
        telemetry.counter_add("service.rejected", reason=reason)
        return [(client, protocol.rejection_response(request, reason))]

    def submit_line(self, line, client=None):
        """Admit one request line; returns immediately-ready responses.

        Protocol errors, rejections (saturated / tenant_budget /
        evicted / dropped), cache hits, and ``cache-stats`` answer right
        here; an admitted solve/arbitrage produces its response later
        via :meth:`pump` / :meth:`drain`.
        """
        self._sequence += 1
        try:
            request = protocol.parse_request(line, sequence=self._sequence)
        except protocol.ProtocolError as error:
            telemetry.counter_add("service.protocol_error")
            return [(client, protocol.error_response(error, id=_best_effort_id(line)))]
        telemetry.counter_add("service.requests", op=request.op, tenant=request.tenant)
        if request.op == "shutdown":
            self._shutdown = (request, client)
            return []
        if request.op == "cache-stats":
            return [(client, protocol.stats_response(request, self.stats()))]

        fault = chaos.inject("service.accept", salt=request.salt)
        if fault is not None and fault.kind == "drop":
            return self._reject(request, "dropped", client)
        reason = self.ledger.admission_reason(request.tenant)
        if reason is not None:
            return self._reject(request, reason, client)

        # Resolve defaults before the request crosses a process boundary.
        request.profile = request.profile or self.profile
        if request.timeout is None:
            request.timeout = self.timeout
        request.budget = self.ledger.clamped_work(
            request.tenant, request.budget if request.budget is not None else self.budget
        )

        try:
            from repro.smtlib import parse_script

            script = parse_script(request.script)
        except ReproError as error:
            telemetry.counter_add("service.protocol_error")
            return [
                (client, protocol.error_response(f"parse error: {error}", id=request.id))
            ]

        key = None
        if self.cache is not None and request.op == "solve":
            key = cache_key(script, profile=request.profile, budget=request.budget)
            hit = lookup(
                self.cache, key, lambda: script_digests(script), kind="service"
            )
            if hit is not None:
                return [(client, protocol.result_response(request, hit))]

        if len(self._pending) >= self.queue_capacity:
            return self._reject(request, "saturated", client)
        ticket = _Ticket(request, script, key, client)
        self._pending.append(ticket)
        self._tickets[request.salt] = ticket
        self.accepted += 1
        self.queue_peak = max(self.queue_peak, len(self._pending))
        telemetry.gauge_set("service.queue_depth", len(self._pending))
        return []

    # -- execution ---------------------------------------------------------

    def pump(self, block=False):
        """Advance execution; returns newly completed responses."""
        if self.pool is None:
            return self._pump_inline()
        return self._pump_pool(block)

    def _pump_inline(self):
        if not self._pending:
            return []
        ticket = self._pending.popleft()
        self._tickets.pop(ticket.request.salt, None)
        request = ticket.request
        governor = self.ledger.request_budget(
            request.tenant, work=request.budget, deadline=request.timeout
        )
        with telemetry.span("service.request", op=request.op, tenant=request.tenant):
            payload, entry = run_request(request, governor=governor, script=ticket.script)
        return [self._complete(ticket, payload, entry)]

    def _pump_pool(self, block):
        responses = []
        while self._pending and self.pool.idle_count:
            ticket = self._pending.popleft()
            self.pool.dispatch(ticket.request)
        for kind, request, result, reason in self.pool.poll(
            timeout=0.05 if block else 0.0
        ):
            ticket = self._tickets.pop(request.salt)
            if kind == "done":
                responses.append(self._complete(ticket, *result))
                continue
            self.rejected[reason] = self.rejected.get(reason, 0) + 1
            telemetry.counter_add("service.rejected", reason=reason)
            responses.append(
                (ticket.client, protocol.rejection_response(request, reason))
            )
            self.completed += 1
        return responses

    def _complete(self, ticket, payload, entry):
        self.completed += 1
        work = payload.get("work") or 0
        if isinstance(work, int):
            self.ledger.charge(ticket.request.tenant, work)
        telemetry.counter_add(
            "service.completed",
            status=str(payload.get("status", "error")),
            tenant=ticket.request.tenant,
        )
        if entry is not None and ticket.key is not None and self.cache is not None:
            self.cache.put(ticket.key, entry, kind="service")
            self._completions_since_flush += 1
            self._maybe_flush()
        return (ticket.client, payload)

    def _maybe_flush(self):
        if self.cache is None or self._completions_since_flush < self.flush_every:
            return
        self._completions_since_flush = 0
        fault = chaos.inject("service.flush")
        if fault is not None and fault.kind == "drop":
            # Skipping one batched flush loses nothing: the entries stay
            # dirty in memory and ride the next flush (or shutdown).
            telemetry.counter_add("service.flush_skipped")
            return
        self._flush()

    def _flush(self):
        try:
            self.cache.save()
            telemetry.counter_add("service.flush")
        except (OSError, ValueError):
            # A failed flush degrades persistence, never the service.
            telemetry.counter_add("service.flush_failed")

    def drain(self, max_wait=None):
        """Run everything admitted to completion; returns the responses."""
        import time

        deadline = None if max_wait is None else time.monotonic() + max_wait
        responses = []
        while self._pending or (self.pool is not None and self.pool.in_flight_count):
            responses.extend(self.pump(block=True))
            if deadline is not None and time.monotonic() >= deadline:
                break
        return responses

    # -- teardown ----------------------------------------------------------

    def finish(self):
        """Final flush plus the shutdown acknowledgement, if requested."""
        if self.cache is not None:
            self._flush()
        if self._shutdown is None:
            return []
        request, client = self._shutdown
        return [(client, protocol.shutdown_response(request))]

    def close(self):
        """Stop the pool (zombie-free); returns abandoned in-flight count."""
        if self.pool is None:
            return 0
        abandoned = self.pool.shutdown()
        self.pool = None
        return abandoned

    # -- introspection -----------------------------------------------------

    def stats(self):
        """Deterministic service + cache counters (the cache-stats op)."""
        return {
            "service": {
                "workers": self.workers,
                "queue_capacity": self.queue_capacity,
                "queue_depth": len(self._pending),
                "queue_peak": self.queue_peak,
                "accepted": self.accepted,
                "completed": self.completed,
                "rejected": dict(sorted(self.rejected.items())),
                "tenants": self.ledger.stats(),
            },
            "cache": self.cache.stats() if self.cache is not None else None,
        }


def _best_effort_id(line):
    """Recover the request id from a line that failed validation."""
    import json

    try:
        payload = json.loads(line)
    except ValueError:
        return None
    if isinstance(payload, dict):
        return payload.get("id")
    return None


# -- transports --------------------------------------------------------------


def _emit_stream(outstream, responses):
    for _, payload in responses:
        outstream.write(protocol.encode_response(payload) + "\n")
    if responses:
        outstream.flush()


def serve_stream(service, instream, outstream):
    """Serve NDJSON requests from one stream (the stdio transport).

    Returns the number of worker processes abandoned at close (0 in a
    clean shutdown -- the CI drill asserts on it via the exit code).
    """
    try:
        for line in instream:
            if not line.strip():
                continue
            _emit_stream(outstream, service.submit_line(line))
            _emit_stream(outstream, service.pump())
            if service.shutdown_requested:
                break
        _emit_stream(outstream, service.drain())
        _emit_stream(outstream, service.finish())
    finally:
        abandoned = service.close()
    return abandoned


def serve_socket(service, path, poll_interval=0.05):
    """Serve concurrent NDJSON clients on a Unix domain socket.

    One selector loop multiplexes every connection; responses go back to
    the connection that submitted the request. A ``shutdown`` request
    from any client drains in-flight work and stops the server.
    """
    import selectors
    import socket

    server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    if os.path.exists(path):
        os.remove(path)
    server.bind(path)
    server.listen()
    server.setblocking(False)
    selector = selectors.DefaultSelector()
    selector.register(server, selectors.EVENT_READ, data=None)
    buffers = {}

    def send(responses):
        for client, payload in responses:
            if client is None or client.fileno() < 0:
                continue
            try:
                client.setblocking(True)
                client.sendall(
                    (protocol.encode_response(payload) + "\n").encode("utf-8")
                )
                client.setblocking(False)
            except OSError:
                pass  # client went away; its response is undeliverable

    def hangup(connection):
        try:
            selector.unregister(connection)
        except (KeyError, ValueError):
            pass
        buffers.pop(connection, None)
        connection.close()

    try:
        while not service.shutdown_requested:
            for key, _ in selector.select(timeout=poll_interval):
                if key.data is None:
                    connection, _ = server.accept()
                    connection.setblocking(False)
                    selector.register(connection, selectors.EVENT_READ, data="client")
                    buffers[connection] = bytearray()
                    continue
                connection = key.fileobj
                try:
                    chunk = connection.recv(65536)
                except (BlockingIOError, InterruptedError):
                    continue
                except OSError:
                    chunk = b""
                if not chunk:
                    hangup(connection)
                    continue
                buffers[connection] += chunk
                while b"\n" in buffers[connection]:
                    raw, _, rest = bytes(buffers[connection]).partition(b"\n")
                    buffers[connection] = bytearray(rest)
                    if not raw.strip():
                        continue
                    send(service.submit_line(raw.decode("utf-8"), client=connection))
                    if service.shutdown_requested:
                        break
            send(service.pump())
        send(service.drain())
        send(service.finish())
    finally:
        abandoned = service.close()
        for connection in list(buffers):
            hangup(connection)
        selector.close()
        server.close()
        if os.path.exists(path):
            os.remove(path)
    return abandoned
