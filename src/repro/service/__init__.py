"""``staub serve``: a fault-tolerant multi-tenant solve service.

The package splits along failure domains:

- :mod:`repro.service.protocol` -- the NDJSON wire format; every request
  line terminates with a structured response, malformed input included.
- :mod:`repro.service.tenancy` -- per-tenant fairness as child budgets
  of one global :class:`~repro.guard.ResourceBudget`.
- :mod:`repro.service.workers` -- inline execution, or a
  :class:`~repro.guard.pool.Pool` of worker processes with bounded
  crash retry.
- :mod:`repro.service.server` -- admission control, the bounded queue,
  batched sharded-cache flushes, and the stdio/socket transports.
"""

from repro.service.protocol import (
    OPS,
    ProtocolError,
    encode_response,
    error_response,
    parse_request,
)
from repro.service.server import (
    DEFAULT_BUDGET,
    DEFAULT_FLUSH_EVERY,
    DEFAULT_QUEUE_CAPACITY,
    SolveService,
    serve_socket,
    serve_stream,
)
from repro.service.tenancy import TenantLedger
from repro.service.workers import WorkerPool, run_request

__all__ = [
    "DEFAULT_BUDGET",
    "DEFAULT_FLUSH_EVERY",
    "DEFAULT_QUEUE_CAPACITY",
    "OPS",
    "ProtocolError",
    "SolveService",
    "TenantLedger",
    "WorkerPool",
    "encode_response",
    "error_response",
    "parse_request",
    "run_request",
    "serve_socket",
    "serve_stream",
]
