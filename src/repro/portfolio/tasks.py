"""Portfolio lanes: the configurations the scheduler races.

The paper's portfolio (Section 5.1) races the *unbounded original*
constraint against the *STAUB-bounded translation* and takes the first
usable answer. Here that grid is:

- one :class:`BaselineTask` per solver profile (``zorro`` / ``corvus``)
  solving the original constraint, and
- one :class:`ArbitrageTask` per width strategy running the full
  underapproximate-then-verify pipeline.

The bounded lane bit-blasts to SAT, which is identical under both
profiles, so the nominal {bounded, unbounded} x {zorro, corvus} grid
collapses to three distinct lanes by default -- racing the bounded lane
twice would just duplicate work.

Every lane speaks one protocol: ``start(script)`` returns the lane's run
on that script, a callable ``run(budget) -> Attempt`` that the scheduler
calls once per round with a growing budget. A baseline run solves from
scratch at every budget (the DPLL(T) search does not resume yet); an
arbitrage run is one :class:`~repro.core.pipeline.ArbitrageRun`, which
infers, translates and blasts once and continues one CDCL search from
round to round. Either way each round's attempt is exactly a fresh
one-shot attempt at that budget. :meth:`attempt` is that one-shot use.

Lane answers are mapped to the *original* question before the scheduler
sees them: a bounded ``unsat`` or an unverified bounded model is
inconclusive (the sound-approximation cases of Fig. 6), so a portfolio
win is always a sound answer.
"""

from repro.core.pipeline import ArbitrageRun, Staub
from repro.portfolio.scheduler import Attempt
from repro.solver import solve_script

#: Conclusive statuses for the unbounded baseline lane.
_CONCLUSIVE = ("sat", "unsat")


class _Lane:
    """What every lane shares: the one-shot use of its run."""

    __slots__ = ()

    def attempt(self, script, budget):
        """One budget on a fresh run of ``script``."""
        return self.start(script)(budget)


class BaselineTask(_Lane):
    """Solve the original, unbounded constraint under one profile."""

    __slots__ = ("profile", "name")

    def __init__(self, profile="zorro"):
        self.profile = profile
        self.name = f"original/{profile}"

    def start(self, script):
        def run(budget):
            result = solve_script(script, budget=budget, profile=self.profile)
            return Attempt(
                self.name,
                result.status,
                result.status in _CONCLUSIVE,
                result.work,
                payload=result,
            )

        return run

    def __repr__(self):
        return f"BaselineTask({self.profile})"


class ArbitrageTask(_Lane):
    """Run the STAUB pipeline; conclusive only on a *verified* model.

    Raises:
        ValueError: (when built) the width strategy is not ``"staub"``, a
            width ``N >= 1``, or ``"fixedN"``.
    """

    __slots__ = ("strategy", "name", "_staub")

    def __init__(self, strategy="staub"):
        self.strategy = strategy
        self.name = f"staub/{strategy}"
        self._staub = _staub_for(strategy)

    def start(self, script):
        arbitrage = ArbitrageRun(script)

        def run(budget):
            report = self._staub.run(script, budget=budget, resume=arbitrage)
            status = "sat" if report.usable else "unknown"
            return Attempt(
                self.name, status, report.usable, report.total_work, payload=report
            )

        return run

    def __repr__(self):
        return f"ArbitrageTask({self.strategy})"


def _staub_for(strategy):
    """The pipeline a width strategy names: ``"staub"`` (inferred widths),
    or a fixed width ``N >= 1`` given as ``N`` or ``"fixedN"``."""
    if strategy == "staub":
        return Staub()
    width = strategy
    if isinstance(strategy, str) and strategy.startswith("fixed"):
        digits = strategy[len("fixed"):]
        width = int(digits) if digits.isdigit() else None
    if isinstance(width, int) and width >= 1:
        return Staub(width_strategy=width)
    raise ValueError(f"unknown width strategy {strategy!r}")


def default_tasks(profiles=("zorro", "corvus"), strategies=("staub",)):
    """The standard lane set: every profile's baseline plus STAUB lanes."""
    lanes = [BaselineTask(profile) for profile in profiles]
    lanes.extend(ArbitrageTask(strategy) for strategy in strategies)
    return lanes
