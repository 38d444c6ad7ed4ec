"""Observability for the STAUB stack: spans, metrics, profiling.

Design constraints, in priority order:

1. **Determinism.** Spans run on the same virtual clock as every
   experiment (unified work units); metrics record deterministic
   counters. Two runs of the same seeded workload produce byte-identical
   telemetry. Nothing here reads a wall clock; ``perfbench/`` measures
   wall time.
2. **Near-zero overhead when off.** Telemetry is disabled by default.
   Every hook checks the module-level :data:`enabled` flag before doing
   any work; ``span()`` returns a shared no-op object, counter helpers
   return immediately. Disabled runs are byte-identical to the pre-
   telemetry behaviour.
3. **One vocabulary.** All engines funnel their counters through
   :func:`repro.telemetry.stats.unified_stats`, so every result carries
   the same stats shape.

Typical use::

    from repro import telemetry

    telemetry.enable(trace_path="out.jsonl")
    with telemetry.span("bounded-solve", engine="bv") as sp:
        result = solve(...)
        sp.add_work(result.work)
    telemetry.disable()
"""

from repro.telemetry.metrics import (
    MetricsRegistry,
    format_metric,
    get_registry,
    set_registry,
)
from repro.telemetry.spans import NULL_SPAN, JsonlWriter, Span, Tracer
from repro.telemetry.stats import STAT_KEYS, merge_stats, unified_stats

__all__ = [
    "MetricsRegistry",
    "Tracer",
    "Span",
    "JsonlWriter",
    "STAT_KEYS",
    "enabled",
    "enable",
    "disable",
    "is_enabled",
    "span",
    "add_work",
    "counter_add",
    "gauge_set",
    "observe",
    "record_counters",
    "get_registry",
    "set_registry",
    "get_tracer",
    "format_metric",
    "merge_stats",
    "unified_stats",
    "snapshot",
]

#: Module-level fast-path flag: hooks check this before any other work.
enabled = False

_tracer = None
_writer = None


def is_enabled():
    """True while telemetry collection is on."""
    return enabled


def enable(trace_path=None, registry=None, sink=None):
    """Turn telemetry on.

    Args:
        trace_path: write closed spans to this JSONL file.
        registry: replace the process-global metrics registry.
        sink: callable receiving each closed span's dict; used by
            in-process consumers (the bench harness) instead of a trace
            file. Ignored when ``trace_path`` is given.

    Returns:
        The active :class:`~repro.telemetry.spans.Tracer`.
    """
    global enabled, _tracer, _writer
    if _writer is not None:
        _writer.close()
    _writer = JsonlWriter(trace_path) if trace_path else None
    _tracer = Tracer(sink=_writer if _writer is not None else sink)
    if registry is not None:
        set_registry(registry)
    enabled = True
    return _tracer


def disable():
    """Turn telemetry off and close any trace file."""
    global enabled, _tracer, _writer
    enabled = False
    if _writer is not None:
        _writer.close()
        _writer = None
    _tracer = None


def get_tracer():
    """The active tracer (None while disabled)."""
    return _tracer


def span(name, **attrs):
    """Open a span on the active tracer; no-op while disabled."""
    if not enabled or _tracer is None:
        return NULL_SPAN
    return _tracer.span(name, **attrs)


def add_work(units):
    """Charge virtual work to the currently open span, if any."""
    if enabled and _tracer is not None:
        _tracer.advance(units)


def counter_add(name, amount=1, **labels):
    """Bump a counter in the default registry; no-op while disabled."""
    if not enabled:
        return
    get_registry().counter(name, **labels).inc(amount)


def gauge_set(name, value, **labels):
    """Set a gauge in the default registry; no-op while disabled."""
    if not enabled:
        return
    get_registry().gauge(name, **labels).set(value)


def observe(name, value, **labels):
    """Record a histogram observation; no-op while disabled."""
    if not enabled:
        return
    get_registry().histogram(name, **labels).observe(value)


def record_counters(counts, prefix="solver", **labels):
    """Bulk-record a ``{key: int}`` dict as ``prefix.key`` counters.

    The engines call this once per solve with their stats delta, so the
    hot loops themselves stay untouched.
    """
    if not enabled:
        return
    registry = get_registry()
    for key, value in counts.items():
        if value:
            registry.counter(f"{prefix}.{key}", **labels).inc(value)


def snapshot():
    """Deterministic snapshot of the default registry."""
    return get_registry().snapshot()
