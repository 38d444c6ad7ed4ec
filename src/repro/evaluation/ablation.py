"""Section 5.2's width-inference ablation.

Reports the distribution of widths STAUB's abstract interpretation picks
(the paper reports an average of 13.1 bits) and compares verified-case
counts and tractability improvements against the fixed 8- and 16-bit
strategies -- the argument that inference beats both a smaller and a
larger constant choice.
"""

from repro.cache import activated
from repro.core.refinement import RefinementStaub
from repro.evaluation.runner import ExperimentCache, LOGICS, SOLVER_PROFILES
from repro.evaluation.stats import geometric_mean

#: Loop parameters for the refinement ablation. The deliberately narrow
#: starting width forces multi-round runs on most of the NIA suite, the
#: regime where every retry's bounded-solver cost shows.
REFINEMENT_CONFIG = dict(
    initial_width=4, growth_factor=2, max_width=16, max_rounds=6
)
REFINEMENT_LOGIC = "QF_NIA"


def width_statistics(cache=None, logics=LOGICS):
    """Distribution of inferred widths across all suites."""
    cache = cache or ExperimentCache()
    widths = []
    for logic in logics:
        for benchmark in cache.suite(logic):
            arb = cache.arbitrage(logic, benchmark.name, "staub")
            if arb.width is not None:
                widths.append(arb.width)
    widths.sort()
    return {
        "count": len(widths),
        "mean": sum(widths) / len(widths) if widths else 0.0,
        "min": widths[0] if widths else None,
        "max": widths[-1] if widths else None,
        "median": widths[len(widths) // 2] if widths else None,
    }


def strategy_comparison(cache=None, logics=LOGICS):
    """Verified cases and tractability improvements per strategy."""
    cache = cache or ExperimentCache()
    comparison = {}
    for strategy in ("fixed8", "fixed16", "staub"):
        verified = 0
        tractability = 0
        speedups = []
        for logic in logics:
            for profile in SOLVER_PROFILES:
                for row in cache.rows(logic, profile, strategy):
                    if row["verified"]:
                        verified += 1
                        speedups.append(max(row["t_pre"], 1) / max(row["final"], 1))
                    if row["tractability"]:
                        tractability += 1
        comparison[strategy] = {
            "verified": verified,
            "tractability": tractability,
            "verified_speedup": geometric_mean(speedups) if speedups else None,
        }
    return comparison


def refinement_rows(cache=None, logic=REFINEMENT_LOGIC):
    """Width refinement over one suite, one row per instance.

    Every instance runs the same widening schedule
    (:data:`REFINEMENT_CONFIG`) on the deterministic virtual clock, so
    the row set is reproducible byte-for-byte across machines. The loop
    runs with ``cache.solve_cache`` active when one is attached: per-round
    results and the rounds' unsat cores land in it, so a warm rerun
    replays without touching a solver.
    """
    cache = cache or ExperimentCache()
    loop = RefinementStaub(**REFINEMENT_CONFIG)
    rows = []
    with activated(cache.solve_cache):
        for benchmark in cache.suite(logic):
            report = loop.run(benchmark.script, budget=cache.timeout)
            rows.append(
                {
                    "name": benchmark.name,
                    "case": report.case,
                    "rounds": [[width, case] for width, case in report.rounds],
                    "total_work": report.total_work,
                    "cache_hits": report.cache_hits,
                }
            )
    return rows


def render_refinement(cache=None, logic=REFINEMENT_LOGIC):
    """Render the refinement ablation.

    ``verdict`` lines carry the final case plus every round's
    (width, case) pair -- the fields that must be stable across cache
    warmth and chaos injection (CI diffs exactly these); ``work`` lines
    carry each instance's billed work.
    """
    rows = refinement_rows(cache, logic)
    config = " ".join(f"{k}={v}" for k, v in sorted(REFINEMENT_CONFIG.items()))
    lines = [f"Refinement ablation ({logic})", f"config: {config}", ""]
    for row in rows:
        rounds = ",".join(f"{width}:{case}" for width, case in row["rounds"])
        lines.append(f"verdict {row['name']} {row['case']} rounds={rounds}")
        lines.append(f"work {row['name']} total={row['total_work']}")
    multi = sum(1 for row in rows if len(row["rounds"]) >= 2)
    total = sum(row["total_work"] for row in rows)
    lines.append("")
    lines.append(
        f"summary instances={len(rows)} multi_round={multi} total_work={total}"
    )
    return "\n".join(lines)


def render(cache=None):
    cache = cache or ExperimentCache()
    stats = width_statistics(cache)
    comparison = strategy_comparison(cache)
    lines = [
        "Width inference ablation (Section 5.2)",
        "",
        f"inferred widths: count={stats['count']} mean={stats['mean']:.1f} "
        f"median={stats['median']} min={stats['min']} max={stats['max']}",
        "",
        f"{'strategy':9s} {'verified':>9s} {'tractability':>13s} {'verified speedup':>17s}",
    ]
    for strategy, data in comparison.items():
        verified_speedup = (
            "-" if data["verified_speedup"] is None else f"{data['verified_speedup']:.3f}"
        )
        lines.append(
            f"{strategy:9s} {data['verified']:9d} {data['tractability']:13d} "
            f"{verified_speedup:>17s}"
        )
    return "\n".join(lines)
