"""The solve service's execution layer: inline or a process worker pool.

Two modes share one request-execution function (:func:`run_request`):

- **inline** (``workers=0``): requests run in the server process under a
  grandchild :class:`~repro.guard.ResourceBudget` of the tenant's
  budget. Fully deterministic -- the mode the differential tests and the
  saturation-semantics tests use.
- **process pool** (``workers=N``): N persistent worker processes on a
  :class:`~repro.guard.pool.Pool`, each with a private pipe, so the
  parent always knows which request a dead worker was holding and reads
  any result it sent before dying. A worker that dies without reporting
  is replaced, and its request is retried once after a short backoff
  before degrading to a structured ``unknown (reason=worker_crashed)``.

A request whose wall ``timeout`` expires is first cancelled
*cooperatively* (the worker's own governor deadline trips in the solve
hot loops); only when a worker overstays the grace window on top of that
is it terminated, and the request degrades with ``reason=deadline``.
"""

from repro import guard, telemetry
from repro.errors import ReproError
from repro.guard import chaos
from repro.guard.pool import Pool
from repro.service import protocol

__all__ = ["WorkerPool", "run_request"]


def run_request(request, governor=None, script=None, cache=None):
    """Execute one solve/arbitrage request.

    Args:
        request: a validated :class:`~repro.service.protocol.Request`
            whose ``profile`` / ``budget`` / ``timeout`` defaults were
            already resolved by the server.
        governor: the request's governor (inline mode passes the
            tenant-parented grandchild; workers build their own).
        script: the already-parsed script, when the caller has it.
        cache: a solve cache for the facade to consult (inline mode
            only; worker processes never touch the shared store).

    Returns:
        ``(response_payload, cache_entry)`` -- the JSON-safe response
        and, when the outcome is conclusive, untainted, and within
        budget, a persistable cache entry dict (else None).
    """
    from repro.cache.store import entry_from_result
    from repro.smtlib import parse_script
    from repro.solver import solve_script

    if script is None:
        try:
            script = parse_script(request.script)
        except ReproError as error:
            return protocol.error_response(f"parse error: {error}", id=request.id), None
    if script.is_incremental:
        return (
            protocol.error_response(
                "incremental scripts are not supported over the service protocol",
                id=request.id,
            ),
            None,
        )
    if governor is None:
        governor = guard.ResourceBudget(work=request.budget, deadline=request.timeout)
    plan = chaos.active()
    injected_before = plan.total_injected if plan is not None else 0
    try:
        if request.op == "solve":
            result = solve_script(
                script,
                budget=request.budget,
                profile=request.profile,
                governor=governor,
                cache=cache,
            )
            payload = protocol.result_response(request, result)
        else:  # arbitrage
            from repro.core.pipeline import Staub

            with guard.activate(governor):
                report = Staub().run(script, budget=request.budget)
            result = None
            payload = protocol.report_response(request, report)
    except ReproError as error:
        telemetry.counter_add("solver.internal_error", site="service", op=request.op)
        return protocol.error_response(f"solver error: {error}", id=request.id), None
    entry = None
    if (
        result is not None
        and result.status in ("sat", "unsat")
        and not result.cached
        and governor.reason not in ("deadline", "cancelled")
        and (plan is None or plan.total_injected == injected_before)
    ):
        try:
            entry = entry_from_result(result)
        except TypeError:
            entry = None  # model value with no JSON encoding
    return payload, entry


def _serve_request(request):
    """Pool task: one request in a worker process.

    An injected :class:`~repro.guard.chaos.ChaosCrash` kills the worker
    like a real segfault (see :mod:`repro.guard.pool`), so the crash path
    is genuinely exercised.
    """
    chaos.inject("service.worker_crash", salt=request.salt)
    return run_request(request)


class WorkerPool:
    """The service's persistent worker processes.

    A :class:`~repro.guard.pool.Pool` running :func:`run_request`, where
    each request's wall ``timeout`` bounds how long its worker may hold
    it. Events from :meth:`poll` are ``("done", request, (payload,
    entry), None)`` and ``("crashed", request, None, reason)`` with
    ``reason`` ``worker_crashed`` (its worker died twice) or
    ``deadline`` (it overstayed its timeout).
    """

    def __init__(self, workers):
        self._pool = Pool(_serve_request, workers)

    @property
    def idle_count(self):
        return self._pool.idle_count

    @property
    def in_flight_count(self):
        return self._pool.in_flight_count

    def dispatch(self, request):
        """Hand a request to an idle worker."""
        self._pool.dispatch(request, timeout=request.timeout)

    def poll(self, timeout=0.0):
        """Collect this round's completions and write-offs."""
        return self._pool.poll(timeout)

    def shutdown(self):
        """Stop every worker; returns the number abandoned in flight."""
        return self._pool.close()
