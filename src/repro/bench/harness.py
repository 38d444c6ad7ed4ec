"""Run a bench suite and build the ``BENCH_<suite>.json`` payload.

Each case runs twice:

1. **cold**: fresh metrics registry, in-memory span sink, fresh solve
   cache. Produces the case's deterministic record: verdict, unified
   work, per-stage span aggregates, and the registry's counter totals
   (propagations, conflicts, decisions, pivots, gates blasted,
   refinement rounds, ...).
2. **warm**: the same case again on the now-warm cache, recording the
   cache-served work and hit counts -- the per-query hit/latency
   accounting that makes cache/reuse claims credible.

The deterministic section contains only ints, strings, and bools -- no
floats, no timestamps, no paths -- and serializes byte-identically under
``json.dumps(..., sort_keys=True)`` on every machine. Nothing here reads
a wall clock: wall time is measured by ``perfbench/``.
"""

import json

from repro import telemetry
from repro.bench.suites import get_suite
from repro.cache import SolveCache, activated
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.profile import aggregate
from repro.telemetry.spans import Tracer

#: Version stamp of the artifact layout; bump on incompatible changes.
BENCH_FORMAT = 1


def default_artifact_name(suite):
    return f"BENCH_{suite}.json"


def _counter_totals(snapshot):
    """Collapse a registry snapshot to ``{base_name: total}`` ints.

    Labels are summed away (``solver.propagations{engine=sat}`` and any
    other labelling of the same base name pool together); histogram
    snapshots (dicts) and other non-int values are skipped -- totals are
    the deterministic, diffable core.
    """
    totals = {}
    for name, value in snapshot.items():
        base = name.split("{", 1)[0]
        if isinstance(value, bool) or not isinstance(value, int):
            continue
        totals[base] = totals.get(base, 0) + value
    return totals


def _run_instrumented(case, cache):
    """Run ``case`` with ``cache`` active, under a fresh registry + span
    sink; returns ``(outcome, counter_totals, stage_aggregates)``."""
    spans = []
    registry = MetricsRegistry()
    previous = telemetry.set_registry(registry)
    was_enabled = telemetry.enabled
    telemetry.enable(sink=spans.append)
    try:
        with activated(cache):
            outcome = case.run()
    finally:
        telemetry.disable()
        telemetry.set_registry(previous)
        if was_enabled:
            # The caller had telemetry on (e.g. nested under a traced
            # run); re-arm it without a sink rather than leaving it dead.
            telemetry.enable()
    stages = {
        name: {"spans": entry["spans"], "work": entry["work"]}
        for name, entry in sorted(aggregate(spans).items())
    }
    return outcome, _counter_totals(registry.snapshot()), stages


def run_suite(suite, progress=None):
    """Run a named suite; returns the full artifact payload dict.

    Args:
        suite: suite name (see :func:`repro.bench.suites.get_suite`).
        progress: optional ``callable(str)`` for per-case progress lines.
    """
    cases = get_suite(suite)
    det_cases = {}
    totals = {"cases": len(cases), "work": 0}
    counter_sums = {}

    for case in cases:
        if progress is not None:
            progress(f"bench: {suite}/{case.name}")
        cache = SolveCache(max_entries=None)
        cold, counters, stages = _run_instrumented(case, cache)
        hits_after_cold = cache.hits
        core_hits_after_cold = cache.core_hits
        cores_after_cold = cache.stats()["cores"]
        warm, warm_counters, warm_stages = _run_instrumented(case, cache)
        record = {
            "kind": case.kind,
            "cold": cold,
            "cores_stored": cores_after_cold,
            "warm": {
                "outcome": warm,
                "cache_hits": cache.hits - hits_after_cold,
                # Unsat queries the warm rerun answered by core
                # subsumption instead of solving (the CI core-reuse job
                # gates that this is nonzero and deterministic on the
                # termination suite).
                "core_hits": cache.core_hits - core_hits_after_cold,
                "bounded_solve_spans": warm_stages.get("bounded-solve", {}).get(
                    "spans", 0
                ),
            },
            "counters": counters,
            "stages": stages,
        }
        det_cases[case.name] = record
        totals["work"] += int(cold.get("work", 0))
        for name, value in counters.items():
            counter_sums[name] = counter_sums.get(name, 0) + value

    return {
        "format": BENCH_FORMAT,
        "suite": suite,
        "deterministic": {
            "cases": det_cases,
            "totals": totals,
            "counters": {name: counter_sums[name] for name in sorted(counter_sums)},
        },
    }


def deterministic_bytes(payload):
    """The canonical serialization of the deterministic section.

    This is the string CI byte-compares: two runs of the same suite on
    any machines must agree on it exactly.
    """
    return json.dumps(payload["deterministic"], sort_keys=True)


def write_artifact(payload, path):
    """Write the artifact (sorted keys, trailing newline); returns path."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")
    return path


def load_artifact(path):
    """Read a ``BENCH_*.json`` artifact back into a payload dict.

    Raises:
        ValueError: naming ``path``, when the file is not a JSON object
            with everything ``staub bench`` reads of it: a ``suite``
            string and a ``deterministic`` object whose ``totals`` object
            holds ``cases`` and ``work``.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except ValueError as error:
            raise ValueError(f"{path} is not a bench artifact ({error})") from None
    deterministic = payload.get("deterministic") if isinstance(payload, dict) else None
    totals = deterministic.get("totals") if isinstance(deterministic, dict) else None
    if not isinstance(deterministic, dict):
        problem = "no 'deterministic' object"
    elif not isinstance(payload.get("suite"), str):
        problem = "no 'suite' string"
    elif not isinstance(totals, dict) or not {"cases", "work"} <= totals.keys():
        problem = "no 'deterministic.totals' with 'cases' and 'work'"
    else:
        return payload
    raise ValueError(f"{path} is not a bench artifact ({problem})")
