"""Engine golden: every theory engine's trajectory on the benchgen suites.

One line per ``solve_script`` call over ``benchgen.suite_for(logic,
seed=2024, scale=0.3)`` for the four logics, both unbounded profiles and
two budgets: the portfolio's first slice and the benchmark's request
budget. A line records the status, the unified work, the model as sorted
``(name, type name, str(value))`` triples and the sorted engine stats, so
a change that moves any engine's search -- a contraction, a branch, an
enumeration step, a model value or its type -- shows up as a diff.

Regenerate, from the repo root, only when such a move is intended::

    PYTHONPATH=src python -m tests.test_engine_golden > benchmarks/baselines/ENGINES_benchgen.out
"""

import difflib
import os

from repro.benchgen import suite_for
from repro.cache import activated
from repro.portfolio.scheduler import DEFAULT_SLICE
from repro.solver.facade import solve_script

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(REPO_ROOT, "benchmarks", "baselines", "ENGINES_benchgen.out")
REGENERATE = (
    "PYTHONPATH=src python -m tests.test_engine_golden"
    " > benchmarks/baselines/ENGINES_benchgen.out"
)

LOGICS = ("QF_NIA", "QF_LIA", "QF_NRA", "QF_LRA")
PROFILES = ("zorro", "corvus")
#: The portfolio's first slice, and perfbench's per-request budget.
BUDGETS = (DEFAULT_SLICE, 200_000)
SEED = 2024
SCALE = 0.3


def golden_line(logic, name, profile, budget, result):
    model = sorted(
        (key, type(value).__name__, str(value))
        for key, value in (result.model or {}).items()
    )
    stats = sorted(result.stats.items())
    return (
        f"{logic} {name} {profile} {budget} {result.status} work={result.work}"
        f" model={model} stats={stats}"
    )


def golden_lines():
    """The golden's lines, solved fresh: no solve cache is active."""
    lines = []
    with activated(None):
        for logic in LOGICS:
            for benchmark in suite_for(logic, seed=SEED, scale=SCALE):
                for profile in PROFILES:
                    for budget in BUDGETS:
                        result = solve_script(benchmark.script, budget=budget, profile=profile)
                        lines.append(golden_line(logic, benchmark.name, profile, budget, result))
    return lines


def test_engines_match_golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        expected = handle.read().splitlines()
    actual = golden_lines()
    diff = "\n".join(
        difflib.unified_diff(expected, actual, "golden", "now", n=0, lineterm="")
    )
    assert actual == expected, (
        f"engine trajectories drifted from {GOLDEN}:\n{diff}\n"
        f"if the move is intended, regenerate with `{REGENERATE}`"
    )


if __name__ == "__main__":
    print("\n".join(golden_lines()))
