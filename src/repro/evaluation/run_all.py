"""CLI entry point: regenerate every table and figure.

Usage::

    python -m repro.evaluation.run_all                    # everything
    python -m repro.evaluation.run_all --experiment table3
    python -m repro.evaluation.run_all --scale 0.25       # quick pass
    python -m repro.evaluation.run_all --jobs 4           # parallel solves
    python -m repro.evaluation.run_all --cache runs.json  # persistent memo

``--jobs N`` precomputes the standard (logic x profile) baseline cells
and (logic x strategy) arbitrage cells in N worker processes before the
(serial, deterministic) rendering pass; results are identical in status,
but worker scheduling is wall-clock-dependent. ``--cache PATH`` persists
every solve, so a second invocation performs zero fresh solves (watch
``eval.cache_hit`` vs ``eval.baseline_runs`` in the telemetry artifact).
"""

import argparse
import json
import os
import sys
import time

from repro import telemetry
from repro.guard import chaos
from repro.guard.pool import Pool
from repro.cache import SolveCache
from repro.cache.keys import cache_key
from repro.cache.store import entry_from_result
from repro.evaluation import (
    ablation,
    bounded_gap,
    families,
    fig2,
    fig7,
    fig8,
    motivating,
    table1,
    table2,
    table3,
)
from repro.evaluation.runner import (
    LOGICS,
    SOLVER_PROFILES,
    STRATEGIES,
    TIMEOUT_WORK,
    ArbitrageRecord,
    BaselineRecord,
    ExperimentCache,
    make_staub,
)
from repro.solver import solve_script
from repro.telemetry.metrics import MetricsRegistry

EXPERIMENTS = (
    "table1",
    "motivating",
    "fig2",
    "table2",
    "table3",
    "fig7",
    "ablation",
    "refinement",
    "bounded_gap",
    "families",
    "fig8",
)


def run(experiment, cache, args):
    if experiment == "table1":
        return table1.render()
    if experiment == "fig2":
        return fig2.render(cache)
    if experiment == "table2":
        return table2.render(cache)
    if experiment == "table3":
        return table3.render(cache)
    if experiment == "fig7":
        return fig7.render(cache)
    if experiment == "ablation":
        return ablation.render(cache)
    if experiment == "refinement":
        return ablation.render_refinement(cache)
    if experiment == "bounded_gap":
        return bounded_gap.render(cache)
    if experiment == "families":
        return families.render(cache)
    if experiment == "motivating":
        return motivating.render()
    if experiment == "fig8":
        return fig8.render(seed=args.seed, count=args.client_programs)
    raise ValueError(f"unknown experiment {experiment!r}")


# -- parallel cell precompute (--jobs N) ------------------------------------


def _solve_cell(payload):
    """Worker: solve one (kind, logic, config) cell from scratch.

    Runs in a separate process; rebuilds the (deterministic) suite from
    the seed and returns plain JSON-safe tuples so nothing exotic needs
    pickling. Persistent-cache entries ride along so the parent can warm
    its store without re-solving.
    """
    kind, logic, config, slot, seed, scale, timeout = payload
    plan = chaos.active()
    chaos_baseline = dict(plan.injected) if plan is not None else {}
    # An injected crash kills this worker like a real death: the pool
    # retries the cell once, then the parent drops it and the serial
    # rendering pass recomputes it on demand.
    chaos.inject("portfolio.worker_spawn", salt=f"{kind}/{logic}/{config}")
    cache = ExperimentCache(seed=seed, scale=scale, timeout=timeout)
    records = {}
    entries = {}
    if kind == "baseline":
        for benchmark in cache.suite(logic):
            result = solve_script(benchmark.script, budget=timeout, profile=config)
            timed_out = result.is_unknown
            work = timeout if timed_out else min(result.work, timeout)
            records[benchmark.name] = (result.status, work, timed_out)
            key = cache_key(benchmark.script, profile=config, budget=timeout)
            try:
                entries[key] = entry_from_result(result)
            except TypeError:
                pass
    else:
        for benchmark in cache.suite(logic):
            staub = make_staub(config, slot=slot)
            report = staub.run(benchmark.script, budget=timeout)
            record = ArbitrageRecord(report, timeout=timeout)
            records[benchmark.name] = record.to_entry()
            key = cache_key(
                benchmark.script,
                budget=timeout,
                kind="arbitrage",
                extra={"strategy": config, "slot": slot},
            )
            entries[key] = record.to_entry()
    deltas = plan.injected_deltas(chaos_baseline) if plan is not None else {}
    return (kind, logic, config, slot, records, entries, deltas)


def _cell_is_warm(cache, store, kind, logic, config, slot):
    """True when the persistent store already holds every key of a cell."""
    if store is None:
        return False
    for benchmark in cache.suite(logic):
        if kind == "baseline":
            key = cache_key(benchmark.script, profile=config, budget=cache.timeout)
        else:
            key = cache_key(
                benchmark.script,
                budget=cache.timeout,
                kind="arbitrage",
                extra={"strategy": config, "slot": slot},
            )
        if key not in store:
            return False
    return True


def _precompute_parallel(cache, jobs, store=None):
    """Fill the experiment cache's standard grid using worker processes.

    Cells fully covered by the persistent store are skipped here; the
    runner serves them lazily from the cache (counted as
    ``eval.cache_hit``, never as fresh runs).
    """
    payloads = []
    for logic in LOGICS:
        for profile in SOLVER_PROFILES:
            if not _cell_is_warm(cache, store, "baseline", logic, profile, False):
                payloads.append(
                    ("baseline", logic, profile, False, cache.seed, cache.scale, cache.timeout)
                )
        for strategy in STRATEGIES:
            if not _cell_is_warm(cache, store, "arbitrage", logic, strategy, False):
                payloads.append(
                    ("arbitrage", logic, strategy, False, cache.seed, cache.scale, cache.timeout)
                )
    if not payloads:
        return
    done = {}
    pool = Pool(_solve_cell, jobs)
    try:
        for payload in payloads:
            pool.dispatch(payload)
        while pool.in_flight_count:
            for kind, payload, result, _ in pool.poll(timeout=None):
                if kind == "done":
                    done[payload] = result
                    continue
                # The cell's worker died on its first try and on the
                # retry: drop the cell (the serial rendering pass
                # recomputes it on demand, so verdicts are unchanged) and
                # make the loss visible in the artifact.
                telemetry.counter_add(
                    "eval.cell_crashed",
                    kind=payload[0],
                    logic=payload[1],
                    config=payload[2],
                )
    finally:
        pool.close()
    results = [done[payload] for payload in payloads if payload in done]
    for kind, logic, config, slot, records, entries, chaos_deltas in results:
        if kind == "baseline":
            for name in sorted(records):
                status, work, timed_out = records[name]
                cache._baselines[(logic, name, config)] = BaselineRecord(
                    status, work, timed_out
                )
                telemetry.counter_add("eval.baseline_runs", logic=logic, profile=config)
                telemetry.counter_add(
                    "eval.baseline_work", work, logic=logic, profile=config
                )
                if timed_out:
                    telemetry.counter_add(
                        "eval.baseline_timeouts", logic=logic, profile=config
                    )
        else:
            for name in sorted(records):
                record = ArbitrageRecord.from_entry(records[name])
                cache._arbitrage[(logic, name, config, slot)] = record
                labels = dict(logic=logic, strategy=config)
                telemetry.counter_add("eval.arbitrage_runs", **labels)
                telemetry.counter_add("eval.arbitrage_work", record.total_work, **labels)
                telemetry.counter_add("eval.arbitrage_case", case=record.case, **labels)
                if record.usable:
                    telemetry.counter_add("eval.arbitrage_verified", **labels)
        for delta_key, count in chaos_deltas.items():
            point, _, fault_kind = delta_key.partition("|")
            telemetry.counter_add("chaos.injected", count, point=point, kind=fault_kind)
        if store is not None:
            for key in sorted(entries):
                if key not in store:
                    store.put(key, entries[key], kind=kind)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--experiment", default="all", help="one of: all, " + ", ".join(EXPERIMENTS))
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--scale", type=float, default=1.0, help="suite size multiplier")
    parser.add_argument(
        "--timeout",
        type=int,
        default=TIMEOUT_WORK,
        help="unified-work budget per solve (the virtual 300 s)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for precomputing the standard cells "
        "(1 = fully deterministic serial run)",
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="FILE.json",
        help="persistent solve cache; a warm cache skips every redundant solve",
    )
    parser.add_argument(
        "--client-programs", type=int, default=97, help="program count for fig8"
    )
    parser.add_argument("--json", default=None, help="also dump raw rows as JSON")
    parser.add_argument("--csv", default=None, help="also dump raw rows as CSV")
    parser.add_argument(
        "--telemetry",
        default="results_telemetry.json",
        help="path for the aggregated telemetry artifact ('' to disable)",
    )
    parser.add_argument(
        "--trace", default=None, help="also write a JSONL span trace"
    )
    parser.add_argument(
        "--chaos",
        default=None,
        metavar="SEED:RATE",
        help="deterministic fault injection (e.g. 1234:0.1); verdicts are "
        "unchanged, only timings / lane winners / cache warmth may differ",
    )
    args = parser.parse_args(argv)

    if args.chaos:
        try:
            chaos.install(chaos.parse_spec(args.chaos))
        except ValueError as error:
            parser.error(str(error))
        # Spawned workers pick the plan up from the environment.
        os.environ[chaos.ENV_VAR] = args.chaos

    # The harness runs with telemetry on: per-experiment spans record
    # virtual work for the artifact. A fresh registry per invocation
    # keeps the artifact byte-identical across repeated in-process runs.
    telemetry.enable(trace_path=args.trace, registry=MetricsRegistry())
    store = SolveCache(path=args.cache) if args.cache else None
    cache = ExperimentCache(
        seed=args.seed, scale=args.scale, timeout=args.timeout, solve_cache=store
    )
    wanted = EXPERIMENTS if args.experiment == "all" else (args.experiment,)
    experiment_spans = []
    try:
        if args.jobs > 1:
            with telemetry.span("precompute", jobs=args.jobs):
                _precompute_parallel(cache, args.jobs, store=store)
            print(f"[precomputed standard cells with {args.jobs} jobs]", file=sys.stderr)
        for experiment in wanted:
            start = time.perf_counter()
            with telemetry.span(f"experiment:{experiment}") as span:
                output = run(experiment, cache, args)
            seconds = time.perf_counter() - start
            print("=" * 78)
            print(output)
            # Progress goes to stderr so stdout stays machine-parseable;
            # scripts/fill_experiments.py splits its input on this line.
            print(f"[{experiment} took {seconds:.1f}s wall]", file=sys.stderr)
            print()
            experiment_spans.append({"experiment": experiment, "work": span.work})
        if args.json or args.csv:
            from repro.evaluation.export import write_results

            written = write_results(cache, json_path=args.json, csv_path=args.csv)
            for path in written:
                print(f"wrote {path}")
        if args.telemetry:
            artifact = {
                "experiments": experiment_spans,
                "cells": cache.telemetry_summary(),
                "metrics": telemetry.snapshot(),
            }
            with open(args.telemetry, "w", encoding="utf-8") as handle:
                json.dump(artifact, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"wrote {args.telemetry}")
        if store is not None:
            store.save()
            stats = store.stats()
            print(
                f"cache: {stats['entries']} entries, "
                f"{stats['hits']} hits / {stats['misses']} misses this run "
                f"-> {args.cache}",
                file=sys.stderr,
            )
    finally:
        telemetry.disable()
    return 0


if __name__ == "__main__":
    sys.exit(main())
