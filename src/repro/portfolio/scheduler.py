"""Portfolio schedulers: race solving lanes, first conclusive answer wins.

Two execution models share one outcome shape:

- :class:`InterleavingScheduler` -- the default, *deterministic* model.
  Lanes are restarted round-robin with geometrically growing work-slice
  budgets on the unified virtual clock, exactly the Luby-style restart
  shape portfolio SAT solvers use. No wall clock, no OS scheduling:
  the winner, every per-lane work figure, and all telemetry are
  byte-identical across runs.
- :func:`parallel_race` -- real worker processes (a
  :class:`~repro.guard.pool.Pool`), for ``staub portfolio --jobs N``.
  The first conclusive answer wins and the losing processes are
  terminated. The *status* matches the deterministic model (all
  conclusive lanes agree), but the winning lane and wall-clock are
  scheduling-dependent.

This module deliberately imports nothing from :mod:`repro.core` or
:mod:`repro.solver`; lane behavior lives in task objects (see
:mod:`repro.portfolio.tasks`) so that :mod:`repro.core.pipeline` can
build its portfolio accounting on top of :func:`race_precomputed`
without an import cycle.
"""

from repro import guard, telemetry
from repro.errors import ReproError
from repro.guard import chaos
from repro.guard.pool import CRASH_RETRIES, Pool

#: First-round per-lane budget for the interleaved scheduler.
DEFAULT_SLICE = 4096

#: Budget multiplier between rounds.
DEFAULT_GROWTH = 4

class Attempt:
    """One lane's run at one slice budget.

    Attributes:
        lane: the lane name.
        status: ``"sat"`` / ``"unsat"`` / ``"unknown"`` *for the original
            question* (an inconclusive bounded answer reports unknown).
        conclusive: True when this answer settles the original question.
        work: unified work this attempt spent.
        payload: lane-specific result object (SolveResult, report, ...).
    """

    __slots__ = ("lane", "status", "conclusive", "work", "payload")

    def __init__(self, lane, status, conclusive, work, payload=None):
        self.lane = lane
        self.status = status
        self.conclusive = conclusive
        self.work = work
        self.payload = payload

    def __repr__(self):
        tag = "conclusive" if self.conclusive else "inconclusive"
        return f"Attempt({self.lane}, {self.status}, {tag}, work={self.work})"


class PrecomputedAttempt(Attempt):
    """An attempt whose outcome is already known (no script to run)."""

    def __init__(self, lane, conclusive, work, status=None, payload=None):
        status = status if status is not None else ("sat" if conclusive else "unknown")
        Attempt.__init__(self, lane, status, conclusive, work, payload)


class PortfolioOutcome:
    """The result of racing a set of lanes on one script.

    Attributes:
        winner: the winning :class:`Attempt`, or None (every lane
            exhausted its budget inconclusively).
        status: the winner's status, or ``"unknown"``.
        observed_work: the user-observed virtual cost -- lanes run
            concurrently, so each round contributes its longest slice,
            and the final round only the winner's finishing time.
        total_work: everything actually spent across all lanes and
            restarts (the "cluster cost").
        rounds: number of work-slice rounds executed.
        history: per-round lists of :class:`Attempt`.
    """

    __slots__ = ("winner", "status", "observed_work", "total_work", "rounds", "history")

    def __init__(self, winner, observed_work, total_work, rounds, history):
        self.winner = winner
        self.status = winner.status if winner is not None else "unknown"
        self.observed_work = observed_work
        self.total_work = total_work
        self.rounds = rounds
        self.history = history

    @property
    def model(self):
        payload = self.winner.payload if self.winner is not None else None
        return getattr(payload, "model", None)

    def __repr__(self):
        lane = self.winner.lane if self.winner is not None else None
        return (
            f"PortfolioOutcome({self.status}, winner={lane}, "
            f"observed={self.observed_work}, rounds={self.rounds})"
        )


def _pick_winner(attempts):
    """The conclusive attempt that finishes first on the virtual clock.

    Minimum work wins; ``min`` is stable, so ties break toward the
    earlier lane in configuration order -- deterministic either way.
    """
    conclusive = [attempt for attempt in attempts if attempt.conclusive]
    if not conclusive:
        return None
    return min(conclusive, key=lambda attempt: attempt.work)


def race_precomputed(attempts):
    """Race already-computed attempts (one virtual round, no restarts).

    This is the accounting core shared with
    :func:`repro.core.pipeline.portfolio_time`: the lanes ran
    concurrently, the first conclusive finisher wins, and the observed
    cost is the winner's work -- or, with no winner, the longest lane
    (every core ran to exhaustion).
    """
    attempts = list(attempts)
    if not attempts:
        raise ValueError("cannot race an empty portfolio")
    winner = _pick_winner(attempts)
    total = sum(attempt.work for attempt in attempts)
    if winner is None:
        observed = max(attempt.work for attempt in attempts)
    else:
        observed = winner.work
    return PortfolioOutcome(winner, observed, total, rounds=1, history=[attempts])


class InterleavingScheduler:
    """Deterministic round-robin portfolio over restartable lanes.

    Args:
        tasks: lane objects exposing ``name`` and
            ``attempt(script, budget) -> Attempt``.
        budget: overall per-lane work budget (None = a single unlimited
            round).
        initial_slice: first-round budget per lane.
        growth: slice multiplier between rounds.
    """

    def __init__(
        self,
        tasks,
        budget=None,
        initial_slice=DEFAULT_SLICE,
        growth=DEFAULT_GROWTH,
    ):
        if not tasks:
            raise ValueError("portfolio needs at least one lane")
        if growth < 2:
            raise ValueError("slice growth must be at least 2")
        self.tasks = list(tasks)
        self.budget = budget
        self.initial_slice = initial_slice
        self.growth = growth

    def run(self, script):
        """Race the lanes on one script; returns a :class:`PortfolioOutcome`.

        Degradation semantics: a lane that raises a :class:`ReproError`
        records an inconclusive ``"error"`` attempt; a lane that crashes
        (:class:`~repro.guard.chaos.ChaosCrash`) is retried once on the
        next -- exponentially larger -- slice, then dropped from the race
        with a ``portfolio.lane_crashed`` counter. Surviving lanes keep
        racing; the race itself never raises.
        """
        history = []
        total = 0
        if self.budget is None:
            slice_budget = None  # one unlimited round
        else:
            slice_budget = min(self.initial_slice, self.budget)
        governor = guard.active()
        active_tasks = list(self.tasks)
        crashes = {}
        winner = None
        with telemetry.span("portfolio", lanes=len(self.tasks)) as span:
            while active_tasks and not governor.interrupted("portfolio"):
                attempts = []
                retry_pending = False
                for task in list(active_tasks):
                    attempt = self._attempt_lane(
                        task, script, slice_budget, crashes, active_tasks
                    )
                    if attempt.status == "crashed" and task in active_tasks:
                        retry_pending = True
                    attempts.append(attempt)
                    total += attempt.work
                history.append(attempts)
                winner = _pick_winner(attempts)
                if winner is not None:
                    break
                exhausted = (
                    slice_budget is None or slice_budget >= self.budget
                )
                if exhausted and not retry_pending:
                    break
                if slice_budget is not None:
                    slice_budget = min(slice_budget * self.growth, self.budget)
            observed = sum(
                max(attempt.work for attempt in round_attempts)
                for round_attempts in history[:-1]
            )
            if winner is not None:
                observed += winner.work
            elif history:
                observed += max(attempt.work for attempt in history[-1])
            span.set_attr("rounds", len(history))
            span.set_attr("winner", winner.lane if winner else None)
            span.settle(observed)
        outcome = PortfolioOutcome(winner, observed, total, len(history), history)
        self._record(outcome)
        return outcome

    @staticmethod
    def _attempt_lane(task, script, slice_budget, crashes, active_tasks):
        """One lane, one slice -- errors and crashes degrade to attempts."""
        try:
            return task.attempt(script, slice_budget)
        except chaos.ChaosCrash:
            count = crashes.get(task.name, 0) + 1
            crashes[task.name] = count
            if count > CRASH_RETRIES:
                active_tasks.remove(task)
                telemetry.counter_add("portfolio.lane_crashed", lane=task.name)
            return Attempt(task.name, "crashed", False, 0)
        except ReproError:
            telemetry.counter_add(
                "solver.internal_error", site="portfolio", lane=task.name
            )
            return Attempt(task.name, "error", False, 0)

    @staticmethod
    def _record(outcome):
        if not telemetry.enabled:
            return
        lane = outcome.winner.lane if outcome.winner is not None else "none"
        telemetry.counter_add("portfolio.races")
        telemetry.counter_add("portfolio.winner", lane=lane)
        telemetry.counter_add("portfolio.rounds", outcome.rounds)
        telemetry.observe("portfolio.observed_work", outcome.observed_work)
        telemetry.observe("portfolio.total_work", outcome.total_work)


# -- real parallelism -------------------------------------------------------


def _race_lane(tasks, script_text, budget, index):
    """Pool task: run lane ``index`` and report a picklable summary."""
    from repro.cache.store import encode_model
    from repro.smtlib.parser import parse_script

    chaos.inject("portfolio.worker_spawn", salt=str(index))
    try:
        attempt = tasks[index].attempt(parse_script(script_text), budget)
    except ReproError as error:
        # Known solver failures become inconclusive attempts; anything
        # else kills the worker and is handled as a crash by the pool.
        return ("error", False, 0, repr(error))
    model = getattr(attempt.payload, "model", None)
    try:
        encoded = encode_model(model)
    except TypeError:
        encoded = None
    return (attempt.status, attempt.conclusive, attempt.work, encoded)


def parallel_race(tasks, script, budget=None, jobs=None, wall_timeout=600.0):
    """Race lanes as real OS processes; first conclusive answer wins.

    Args:
        tasks: lane objects (must be picklable).
        script: the script to solve (shipped to workers as SMT-LIB text).
        budget: per-lane unified work budget.
        jobs: max concurrent worker processes (default: one per lane).
        wall_timeout: overall wall-clock deadline in seconds (also bounded
            by the active governor's deadline, if any).

    Returns:
        A :class:`PortfolioOutcome`. ``winner.payload`` is the decoded
        model dict (or None); per-lane work is as reported by the lanes
        that finished before the race was decided.

    The lanes run on a :class:`~repro.guard.pool.Pool`: a lane whose
    worker dies without reporting is retried once, then written off with
    a ``portfolio.lane_crashed`` counter and a ``"crashed"`` attempt.
    Once the race is decided (or the deadline passes), the losing lanes'
    workers are terminated -- the race never leaks a process.
    """
    import functools
    import time

    from repro.cache.store import decode_model
    from repro.smtlib.printer import print_script

    tasks = list(tasks)
    if not tasks:
        raise ValueError("cannot race an empty portfolio")
    governor = guard.active()
    deadline = time.monotonic() + wall_timeout
    if governor.deadline is not None:
        deadline = min(deadline, governor.deadline.at)

    jobs = len(tasks) if jobs is None else max(1, jobs)
    lane = functools.partial(_race_lane, tasks, print_script(script), budget)
    pool = Pool(lane, min(jobs, len(tasks)))
    attempts = []
    winner = None
    try:
        for index in range(len(tasks)):
            pool.dispatch(index)
        while winner is None and pool.in_flight_count:
            now = time.monotonic()
            if now >= deadline or governor.interrupted("portfolio"):
                break
            for kind, index, result, _ in pool.poll(min(0.1, deadline - now)):
                name = tasks[index].name
                if kind == "crashed":
                    telemetry.counter_add("portfolio.lane_crashed", lane=name)
                    attempts.append(Attempt(name, "crashed", False, 0))
                    continue
                status, conclusive, work, model = result
                if status == "error":
                    telemetry.counter_add(
                        "solver.internal_error", site="parallel_race", lane=name
                    )
                    continue
                payload = None
                if conclusive and model is not None:
                    payload = _ModelPayload(decode_model(model))
                attempt = Attempt(name, status, conclusive, work, payload)
                attempts.append(attempt)
                if conclusive and winner is None:
                    winner = attempt
    finally:
        pool.close()

    total = sum(attempt.work for attempt in attempts)
    if winner is not None:
        observed = winner.work
    elif attempts:
        observed = max(attempt.work for attempt in attempts)
    else:
        observed = 0
    outcome = PortfolioOutcome(winner, observed, total, rounds=1, history=[attempts])
    InterleavingScheduler._record(outcome)
    return outcome


class _ModelPayload:
    """Minimal payload wrapper so ``outcome.model`` works for races."""

    __slots__ = ("model",)

    def __init__(self, model):
        self.model = model
