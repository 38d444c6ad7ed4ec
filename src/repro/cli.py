"""The ``staub`` command-line tool.

Mirrors the paper's tool surface:

- ``staub transform FILE``: print the bounded SMT-LIB translation (the
  paper's output flag for use with external solvers), with ``--width``
  overriding the abstract-interpretation choice.
- ``staub solve FILE``: solve the constraint directly with the native
  solver stack (``--profile zorro|corvus``). Incremental scripts
  (push/pop/reset-assertions or several ``check-sat``) run as one
  persistent session and print one verdict line per ``check-sat``.
- ``staub arbitrage FILE``: run the full underapproximate-then-verify
  pipeline and report the Fig. 6 case, stage costs, and the model.
  ``--refine`` widens and retries on bounded-unsat (``--growth``,
  ``--max-width``, ``--max-rounds`` shape the schedule, ``--width`` pins
  the first round, ``--cache`` persists the rounds).
- ``staub analyze FILE``: bound inference only (widths report).
- ``staub optimize FILE``: apply the SLOT-style passes to a bounded
  constraint and print the result.
- ``staub portfolio FILE``: race the unbounded original (both solver
  profiles) against the STAUB translation; deterministic interleaved
  slices by default, real processes with ``--jobs N``.
- ``staub cache stats/clear PATH``: inspect or reset a persistent
  solve cache (built by ``solve --cache`` / ``run_all --cache``); a
  directory path opens a sharded store.
- ``staub serve``: a long-running multi-tenant solve server speaking
  newline-delimited JSON on stdio (or ``--socket PATH``), with bounded
  admission, per-tenant budgets, worker crash retry, and a sharded
  persistent cache (``--cache DIR --cache-shards N``).
- ``staub profile TRACE.jsonl``: per-stage breakdown of a telemetry
  trace recorded with ``--trace``; ``--top N`` caps the table,
  ``--critical-path`` prints the heaviest span chain, and
  ``--flamegraph OUT.folded`` exports collapsed stacks.
- ``staub bench --suite NAME``: run a deterministic benchmark suite
  and write its deterministic ``BENCH_<suite>.json`` artifact;
  ``--compare BASELINE.json`` exits nonzero on any deterministic
  regression.

Observability flags (``solve`` and ``arbitrage``): ``--trace FILE.jsonl``
writes one JSON span per pipeline stage on the deterministic virtual
clock; ``--stats`` prints the uniform solver counters after the result.
"""

import argparse
import os
import sys

from repro import guard, telemetry
from repro.cache import SolveCache, activated
from repro.guard import chaos
from repro.core.inference import infer_bounds
from repro.core.pipeline import Staub
from repro.errors import ReproError
from repro.evaluation.runner import TIMEOUT_WORK, to_virtual_seconds
from repro.slot import optimize_script
from repro.smtlib import parse_script, print_script
from repro.solver import solve_script
from repro.telemetry.profile import load_trace, render_profile
from repro.version import __version__


def _read_script(path):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_script(handle.read())


def _format_model(model):
    if not model:
        return "  (empty model)"
    lines = []
    for name in sorted(model):
        lines.append(f"  {name} = {model[name]}")
    return "\n".join(lines)


def _cmd_transform(args):
    script = _read_script(args.file)
    staub = Staub(width_strategy=args.width if args.width else "absint")
    transformed, inference, _ = staub.transform(script)
    print(f"; theory: {inference.theory}, assumption x = {inference.assumption}, "
          f"[S] = {inference.root}, chosen width = {transformed.width}")
    print(print_script(transformed.script), end="")
    return 0


def _print_stats(stats):
    print("stats:")
    for key in sorted(stats):
        print(f"  {key} = {stats[key]}")


def _run_session_script(script, args, cache):
    """``staub solve`` on an incremental script: one persistent session."""
    from repro.solver.session import run_script_session

    def _replay():
        with activated(cache):
            return run_script_session(
                script, profile=args.profile, budget=args.budget
            )

    if args.deadline is not None:
        governor = guard.ResourceBudget(work=None, deadline=args.deadline)
        with guard.activate(governor):
            results, session = _replay()
    else:
        results, session = _replay()
    for result in results:
        print(result.status)
    counters = session.counters
    print(
        f"; session: {counters['check_sat']} checks "
        f"({counters['backend_checks']} incremental, "
        f"{counters['fallback_checks']} fallback, "
        f"{counters['cache_hits']} cached) "
        f"pushes={counters['push']} pops={counters['pop']} "
        f"work={counters['work']} "
        f"(~{to_virtual_seconds(counters['work']):.2f} virtual seconds)"
    )
    if args.stats and results:
        _print_stats(results[-1].stats)
    if cache is not None:
        cache.save()
    return 0


def _cmd_solve(args):
    script = _read_script(args.file)
    cache = SolveCache(path=args.cache) if args.cache else None
    if script.is_incremental:
        return _run_session_script(script, args, cache)
    governor = None
    if args.deadline is not None:
        governor = guard.ResourceBudget(work=args.budget, deadline=args.deadline)
    with activated(cache):
        result = solve_script(
            script, budget=args.budget, profile=args.profile, governor=governor
        )
    print(result.status)
    print(f"; engine={result.engine} work={result.work} "
          f"(~{to_virtual_seconds(result.work):.2f} virtual seconds)"
          + (" [cached]" if result.cached else ""))
    if result.is_sat:
        print(_format_model(result.model))
    if args.stats:
        _print_stats(result.stats)
    if cache is not None:
        cache.save()
    return 0


def _cmd_portfolio(args):
    from repro.portfolio.scheduler import InterleavingScheduler, parallel_race
    from repro.portfolio.tasks import default_tasks

    script = _read_script(args.file)
    tasks = default_tasks()
    if args.jobs > 1:
        outcome = parallel_race(tasks, script, budget=args.budget, jobs=args.jobs)
        mode = f"parallel x{args.jobs}"
    else:
        scheduler = InterleavingScheduler(
            tasks, budget=args.budget, initial_slice=args.slice_work
        )
        outcome = scheduler.run(script)
        mode = "deterministic interleaving"
    winner = outcome.winner.lane if outcome.winner is not None else "(none)"
    print(outcome.status)
    print(f"; winner={winner} mode={mode} rounds={outcome.rounds}")
    print(f"; observed work={outcome.observed_work} "
          f"(~{to_virtual_seconds(outcome.observed_work):.2f} virtual seconds), "
          f"total across lanes={outcome.total_work}")
    if outcome.status == "sat" and outcome.model is not None:
        print(_format_model(outcome.model))
    return 0


def _cmd_cache_stats(args):
    from repro.cache import open_cache

    cache = open_cache(args.path)
    stats = cache.stats()
    print(f"cache: {args.path}")
    print(f"  entries = {stats['entries']}")
    print(f"  cores = {stats['cores']}")
    if "shards" in stats:
        per_shard = ", ".join(str(count) for count in stats["per_shard_entries"])
        print(f"  shards = {stats['shards']} (entries per shard: {per_shard})")
    for field in ("hits", "misses", "evictions", "core_hits"):
        label = field.replace("_", " ")
        print(f"  lifetime {label} = {stats[f'lifetime_{field}']}")
    misses = stats["lifetime_misses"]
    if misses:
        rate = stats["lifetime_core_hits"] / misses
        print(f"  core-hit rate = {rate:.1%} of misses")
    return 0


def _cmd_cache_clear(args):
    from repro.cache import open_cache

    cache = open_cache(args.path)
    entries = len(cache)
    cores = cache.stats()["cores"]
    # clear() rolls session counters into lifetime and persists the
    # emptied store atomically itself (the store has a path).
    cache.clear()
    print(f"cleared {entries} entries and {cores} cores from {args.path}")
    return 0


def _cmd_serve(args):
    from repro.cache import open_cache
    from repro.service import SolveService, serve_socket, serve_stream

    cache = None
    if args.cache:
        cache = open_cache(args.cache, shards=args.cache_shards)
    service = SolveService(
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        profile=args.profile,
        budget=args.budget,
        timeout=args.timeout,
        global_work=args.global_work,
        global_deadline=args.global_deadline,
        tenant_work=args.tenant_work,
        cache=cache,
        flush_every=args.flush_every,
    )
    mode = f"{args.workers} workers" if args.workers else "inline (deterministic)"
    if args.socket:
        print(f"staub serve: listening on {args.socket} [{mode}]", file=sys.stderr)
        abandoned = serve_socket(service, args.socket)
    else:
        print(f"staub serve: reading NDJSON from stdin [{mode}]", file=sys.stderr)
        abandoned = serve_stream(service, sys.stdin, sys.stdout)
    if abandoned:
        print(f"staub serve: abandoned {abandoned} in-flight requests",
              file=sys.stderr)
        return 1
    return 0


def _cmd_arbitrage(args):
    if args.cache and not args.refine:
        print("staub: error: --cache caches refinement rounds; it needs --refine",
              file=sys.stderr)
        return 2
    script = _read_script(args.file)
    if args.refine:
        return _run_refinement(script, args)
    staub = Staub(width_strategy=args.width if args.width else "absint")
    report = staub.run(script, budget=args.budget)
    print(f"case: {report.case}")
    print(
        f"width: {report.width}  t_trans={report.t_trans} "
        f"t_post={report.t_post} t_check={report.t_check} "
        f"total={report.total_work}"
    )
    if report.model is not None:
        print("verified model:")
        print(_format_model(report.model))
    elif report.case != "verified-sat":
        print("reverting to the original constraint (no speedup)")
    if args.stats:
        _print_stats(report.stats)
    return 0


def _run_refinement(script, args):
    from repro.core.refinement import RefinementStaub

    cache = SolveCache(path=args.cache) if args.cache else None
    loop = RefinementStaub(
        growth_factor=args.growth,
        max_rounds=args.max_rounds,
        max_width=args.max_width,
        initial_width=args.width if args.width else None,
    )
    with activated(cache):
        report = loop.run(script, budget=args.budget)
    print(f"case: {report.case}")
    schedule = ", ".join(f"{width}:{case}" for width, case in report.rounds)
    print(f"rounds: [{schedule}]")
    print(f"total work: {report.total_work}  cache hits: {report.cache_hits}")
    if report.budget_exhausted:
        print("budget exhausted: refinement stopped with rounds pending")
    if report.model is not None:
        print("verified model:")
        print(_format_model(report.model))
    elif report.case != "verified-sat":
        print("reverting to the original constraint (no speedup)")
    if args.stats:
        _print_stats(report.final.stats)
    if cache is not None:
        cache.save()
    return 0


def _cmd_profile(args):
    from repro.telemetry.analyze import render_critical_path, render_flamegraph

    try:
        spans = load_trace(args.file)
    except ValueError as error:
        print(f"error: {args.file} is not a JSONL trace ({error})", file=sys.stderr)
        return 1
    if not spans:
        print(f"error: no spans in {args.file}", file=sys.stderr)
        return 1
    print(render_profile(spans, top=args.top))
    if args.critical_path:
        print()
        print(render_critical_path(spans))
    if args.flamegraph:
        folded = render_flamegraph(spans)
        if args.flamegraph == "-":
            print()
            print(folded)
        else:
            with open(args.flamegraph, "w", encoding="utf-8") as handle:
                handle.write(folded + "\n")
            print(f"wrote {args.flamegraph} (collapsed stacks)")
    return 0


def _cmd_bench(args):
    from repro.bench import (
        available_suites,
        compare_payloads,
        default_artifact_name,
        render_comparison,
        run_suite,
        write_artifact,
    )
    from repro.bench.harness import load_artifact

    if args.list:
        for name in available_suites():
            print(name)
        return 0
    if not (args.replay or args.suite):
        print("staub: error: bench needs --suite, --replay, or --list",
              file=sys.stderr)
        return 2
    try:
        baseline = load_artifact(args.compare) if args.compare else None
        payload = load_artifact(args.replay) if args.replay else None
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if payload is None:
        try:
            payload = run_suite(
                args.suite, progress=lambda line: print(line, file=sys.stderr)
            )
        except KeyError as error:
            print(f"staub: error: {error.args[0]}", file=sys.stderr)
            return 2
        out = args.out or default_artifact_name(args.suite)
        write_artifact(payload, out)
        print(f"wrote {out}", file=sys.stderr)

    deterministic = payload["deterministic"]
    print(f"suite: {payload['suite']}  cases: {deterministic['totals']['cases']}  "
          f"work: {deterministic['totals']['work']}")

    if baseline is not None:
        regressions = compare_payloads(payload, baseline)
        print(render_comparison(regressions))
        if regressions:
            return 1
    return 0


def _cmd_analyze(args):
    script = _read_script(args.file)
    inference = infer_bounds(script)
    print(f"theory: {inference.theory}")
    print(f"largest constant: {inference.largest_constant}")
    print(f"variable assumption x: {inference.assumption}")
    print(f"inferred [S]: {inference.root}")
    return 0


def _cmd_optimize(args):
    script = _read_script(args.file)
    optimized, statistics = optimize_script(script)
    print(f"; pass statistics: {statistics}")
    print(print_script(optimized), end="")
    return 0


def _cmd_reduce(args):
    from repro.core.width_reduction import reduce_and_solve

    script = _read_script(args.file)
    result = reduce_and_solve(script, args.width, budget=args.budget)
    print(f"case: {result.case} "
          f"({result.original_width} -> {result.reduced_width} bits, "
          f"work {result.work})")
    if result.usable:
        print("verified model (original width):")
        print(_format_model(result.model))
    return 0


def _add_chaos_flag(subparser):
    subparser.add_argument(
        "--chaos",
        default=None,
        metavar="SEED:RATE",
        help="deterministic fault injection (e.g. 1234:0.1); verdicts are "
        "unchanged, only timings and lane winners may differ",
    )


def _add_telemetry_flags(subparser):
    subparser.add_argument(
        "--trace",
        default=None,
        metavar="FILE.jsonl",
        help="write a JSONL span trace (deterministic virtual clock)",
    )
    subparser.add_argument(
        "--stats",
        action="store_true",
        help="print the uniform solver counters after the result",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="staub",
        description="SMT theory arbitrage: unbounded -> bounded constraint transformation",
    )
    parser.add_argument(
        "--version", action="version", version=f"staub {__version__}"
    )
    sub = parser.add_subparsers(dest="command")

    transform = sub.add_parser("transform", help="print the bounded translation")
    transform.add_argument("file")
    transform.add_argument("--width", type=int, default=None)
    transform.set_defaults(func=_cmd_transform)

    solve = sub.add_parser("solve", help="solve with the native solver")
    solve.add_argument("file")
    solve.add_argument("--profile", default="zorro", choices=("zorro", "corvus"))
    solve.add_argument("--budget", type=int, default=TIMEOUT_WORK)
    solve.add_argument(
        "--cache",
        default=None,
        metavar="FILE.json",
        help="persistent solve cache; repeated solves of equivalent "
        "scripts are answered without running an engine",
    )
    solve.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock deadline; exhaustion degrades to a structured "
        "unknown (deadline runs trade determinism for punctuality)",
    )
    _add_chaos_flag(solve)
    _add_telemetry_flags(solve)
    solve.set_defaults(func=_cmd_solve)

    portfolio = sub.add_parser(
        "portfolio",
        help="race original + STAUB-translated configurations, first answer wins",
    )
    portfolio.add_argument("file")
    portfolio.add_argument("--budget", type=int, default=TIMEOUT_WORK)
    portfolio.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="1 = deterministic interleaved slices; N>1 = real processes",
    )
    portfolio.add_argument(
        "--slice",
        dest="slice_work",
        type=int,
        default=4096,
        help="first-round work slice for the deterministic scheduler",
    )
    _add_chaos_flag(portfolio)
    _add_telemetry_flags(portfolio)
    portfolio.set_defaults(func=_cmd_portfolio)

    cache = sub.add_parser("cache", help="inspect or reset a persistent solve cache")
    cache_sub = cache.add_subparsers(dest="cache_command")
    cache_stats = cache_sub.add_parser("stats", help="entry and hit/miss totals")
    cache_stats.add_argument("path")
    cache_stats.set_defaults(func=_cmd_cache_stats)
    cache_clear = cache_sub.add_parser("clear", help="drop every entry")
    cache_clear.add_argument("path")
    cache_clear.set_defaults(func=_cmd_cache_clear)

    from repro.service.server import DEFAULT_FLUSH_EVERY, DEFAULT_QUEUE_CAPACITY

    serve = sub.add_parser(
        "serve",
        help="long-running multi-tenant solve server (NDJSON on stdio or a socket)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes; 0 runs requests inline (deterministic)",
    )
    serve.add_argument(
        "--queue-capacity",
        type=int,
        default=DEFAULT_QUEUE_CAPACITY,
        metavar="N",
        help="admission bound; excess requests answer unknown "
        f"(reason=saturated) immediately (default {DEFAULT_QUEUE_CAPACITY})",
    )
    serve.add_argument("--profile", default="zorro", choices=("zorro", "corvus"))
    serve.add_argument(
        "--budget",
        type=int,
        default=TIMEOUT_WORK,
        help="default per-request work budget (requests may narrow it)",
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-request wall deadline: cooperative cancellation "
        "first, hard worker termination after a grace window",
    )
    serve.add_argument(
        "--global-work",
        type=int,
        default=None,
        metavar="UNITS",
        help="work ceiling across all tenants (the root governor)",
    )
    serve.add_argument(
        "--global-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock lifetime for the whole server",
    )
    serve.add_argument(
        "--tenant-work",
        type=int,
        default=None,
        metavar="UNITS",
        help="per-tenant work ceiling; exhausted tenants are rejected at "
        "admission with reason=tenant_budget",
    )
    serve.add_argument(
        "--cache",
        default=None,
        metavar="PATH",
        help="persistent solve cache shared by all tenants; a directory "
        "opens a sharded store",
    )
    serve.add_argument(
        "--cache-shards",
        type=int,
        default=None,
        metavar="N",
        help="shard a new --cache directory N ways (an existing store's "
        "recorded count wins)",
    )
    serve.add_argument(
        "--flush-every",
        type=int,
        default=DEFAULT_FLUSH_EVERY,
        metavar="N",
        help=f"completions between batched cache flushes (default {DEFAULT_FLUSH_EVERY})",
    )
    serve.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="serve a Unix domain socket instead of stdio",
    )
    _add_chaos_flag(serve)
    serve.set_defaults(func=_cmd_serve)

    arbitrage = sub.add_parser("arbitrage", help="run the full STAUB pipeline")
    arbitrage.add_argument("file")
    arbitrage.add_argument("--width", type=int, default=None)
    arbitrage.add_argument("--budget", type=int, default=TIMEOUT_WORK)
    arbitrage.add_argument(
        "--refine",
        action="store_true",
        help="widen and retry on bounded-unsat",
    )
    arbitrage.add_argument(
        "--growth",
        type=int,
        default=2,
        metavar="FACTOR",
        help="width multiplier between refinement rounds (default 2)",
    )
    arbitrage.add_argument(
        "--max-width",
        type=int,
        default=24,
        metavar="BITS",
        help="refinement stops widening past this width (default 24)",
    )
    arbitrage.add_argument(
        "--max-rounds",
        type=int,
        default=3,
        metavar="N",
        help="maximum refinement rounds (default 3)",
    )
    arbitrage.add_argument(
        "--cache",
        default=None,
        metavar="FILE.json",
        help="persistent per-round refinement cache (needs --refine)",
    )
    _add_chaos_flag(arbitrage)
    _add_telemetry_flags(arbitrage)
    arbitrage.set_defaults(func=_cmd_arbitrage)

    profile = sub.add_parser(
        "profile", help="per-stage breakdown of a --trace JSONL file"
    )
    profile.add_argument("file")
    profile.add_argument(
        "--top",
        type=int,
        default=None,
        metavar="N",
        help="show at most N non-pipeline stages (sorted by work desc, "
        "then name; pipeline stages always print)",
    )
    profile.add_argument(
        "--critical-path",
        action="store_true",
        help="print the heaviest root-to-leaf span chain",
    )
    profile.add_argument(
        "--flamegraph",
        default=None,
        metavar="OUT.folded",
        help="write collapsed stacks (flamegraph.pl / speedscope format); "
        "'-' prints to stdout",
    )
    profile.set_defaults(func=_cmd_profile)

    bench = sub.add_parser(
        "bench",
        help="run a deterministic benchmark suite, write BENCH_<suite>.json",
    )
    bench.add_argument(
        "--suite",
        default=None,
        help="suite name (see --list)",
    )
    bench.add_argument(
        "--out",
        default=None,
        metavar="FILE.json",
        help="artifact path (default BENCH_<suite>.json)",
    )
    bench.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE.json",
        help="diff against a baseline artifact; exit 1 on any "
        "deterministic difference",
    )
    bench.add_argument(
        "--replay",
        default=None,
        metavar="FILE.json",
        help="reuse an existing artifact instead of running the suite "
        "(useful with --compare)",
    )
    bench.add_argument(
        "--list",
        action="store_true",
        help="list available suites and exit",
    )
    bench.set_defaults(func=_cmd_bench)

    analyze = sub.add_parser("analyze", help="bound inference report")
    analyze.add_argument("file")
    analyze.set_defaults(func=_cmd_analyze)

    optimize = sub.add_parser("optimize", help="SLOT-style optimization of a bounded constraint")
    optimize.add_argument("file")
    optimize.set_defaults(func=_cmd_optimize)

    reduce = sub.add_parser(
        "reduce", help="width-reduce an already-bounded constraint (Section 6.4)"
    )
    reduce.add_argument("file")
    reduce.add_argument("--width", type=int, required=True)
    reduce.add_argument("--budget", type=int, default=TIMEOUT_WORK)
    reduce.set_defaults(func=_cmd_reduce)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None or not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        print("staub: error: a subcommand is required", file=sys.stderr)
        return 2
    chaos_spec = getattr(args, "chaos", None)
    if not chaos_spec and os.environ.get(chaos.ENV_VAR):
        # Validate the environment spec up front: a typo'd REPRO_CHAOS
        # must fail fast with a structured usage error, not surface as a
        # traceback from the first lazy chaos.active() call mid-solve.
        env_spec = os.environ[chaos.ENV_VAR]
        try:
            chaos.parse_spec(env_spec)
        except ValueError as error:
            print(f"staub: error: {chaos.ENV_VAR}={env_spec!r}: {error}",
                  file=sys.stderr)
            return 2
    if chaos_spec:
        try:
            chaos.install(chaos.parse_spec(chaos_spec))
        except ValueError as error:
            print(f"staub: error: {error}", file=sys.stderr)
            return 2
        # --jobs workers pick the plan up from the environment.
        os.environ[chaos.ENV_VAR] = chaos_spec
    wants_telemetry = getattr(args, "trace", None) or getattr(args, "stats", False)
    try:
        if wants_telemetry:
            telemetry.enable(trace_path=getattr(args, "trace", None))
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        if wants_telemetry:
            telemetry.disable()


if __name__ == "__main__":
    sys.exit(main())
