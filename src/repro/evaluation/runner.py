"""Benchmark execution and memoization for all experiments.

Methodology (Section 5.1 of the paper, adapted to the virtual clock):

- Times are deterministic unified work units; :data:`TIMEOUT_WORK` plays
  the role of the paper's 300-second timeout, and
  :func:`to_virtual_seconds` converts for human-readable reports.
- ``T_pre`` is the baseline solver's cost on the original constraint,
  clamped to the timeout (timeouts "count as 300-second contributions").
- The arbitrage side records T_trans + T_post + T_check; under portfolio
  semantics the user-observed final time is ``min`` of the two when
  STAUB's answer is usable, ``T_pre`` otherwise.
- A *tractability improvement* is a constraint where the baseline timed
  out but STAUB produced a verified answer.

Every (suite, profile, strategy) cell is computed once and memoized, so
the table/figure modules can share runs. Passing a
:class:`~repro.cache.SolveCache` additionally persists every baseline
solve and arbitrage record across invocations: a second ``run_all`` with
a warm cache performs zero fresh solves (``eval.cache_hit`` counts them
instead of ``eval.baseline_runs`` / ``eval.arbitrage_runs``).
"""

from repro import telemetry
from repro.benchgen import suite_for
from repro.cache import activated
from repro.cache.keys import cache_key
from repro.core.pipeline import Staub, portfolio_time
from repro.slot import optimize_script
from repro.solver import solve_script

#: The virtual timeout: plays the role of the paper's 300 s budget.
TIMEOUT_WORK = 1_200_000

#: Conversion used when printing work as "virtual seconds".
VIRTUAL_UNITS_PER_SECOND = TIMEOUT_WORK // 300

#: Both solver profiles, in the paper's presentation order.
SOLVER_PROFILES = ("zorro", "corvus")

#: Width strategies compared in Tables 2-3.
STRATEGIES = ("fixed8", "fixed16", "staub")

#: The four evaluated logics.
LOGICS = ("QF_NIA", "QF_LIA", "QF_NRA", "QF_LRA")


def to_virtual_seconds(work):
    """Unified work -> virtual seconds (the paper's time axis)."""
    return work / VIRTUAL_UNITS_PER_SECOND


def _slot_optimizer(script):
    optimized, _stats = optimize_script(script)
    return optimized


def make_staub(strategy, slot=False):
    """Build the Staub configuration for a named width strategy."""
    optimizer = _slot_optimizer if slot else None
    if strategy == "staub":
        return Staub(optimizer=optimizer)
    if strategy == "fixed8":
        return Staub(width_strategy=8, optimizer=optimizer)
    if strategy == "fixed16":
        return Staub(width_strategy=16, optimizer=optimizer)
    if isinstance(strategy, int):
        return Staub(width_strategy=strategy, optimizer=optimizer)
    raise ValueError(f"unknown width strategy {strategy!r}")


class BaselineRecord:
    """Baseline solve of one benchmark under one profile."""

    __slots__ = ("status", "work", "timed_out")

    def __init__(self, status, work, timed_out):
        self.status = status
        self.work = work  # clamped to TIMEOUT_WORK
        self.timed_out = timed_out


class ArbitrageRecord:
    """One STAUB run (profile-independent: the bounded side is shared)."""

    __slots__ = (
        "case",
        "total_work",
        "t_trans",
        "t_post",
        "t_check",
        "width",
        "usable",
        "bounded_status",
    )

    def __init__(self, report, timeout=TIMEOUT_WORK):
        self.case = report.case
        self.total_work = min(report.total_work, timeout)
        self.t_trans = report.t_trans
        self.t_post = report.t_post
        self.t_check = report.t_check
        self.width = report.width
        self.usable = report.usable
        self.bounded_status = report.bounded_status  # raw solver status

    def to_entry(self):
        """JSON-safe dict for the persistent solve cache."""
        return {
            "kind": "arbitrage",
            "case": self.case,
            "total_work": self.total_work,
            "t_trans": self.t_trans,
            "t_post": self.t_post,
            "t_check": self.t_check,
            "width": None if self.width is None else int(self.width),
            "usable": self.usable,
            "bounded_status": self.bounded_status,
        }

    @classmethod
    def from_entry(cls, entry):
        record = cls.__new__(cls)
        record.case = entry["case"]
        record.total_work = entry["total_work"]
        record.t_trans = entry["t_trans"]
        record.t_post = entry["t_post"]
        record.t_check = entry["t_check"]
        record.width = entry["width"]
        record.usable = entry["usable"]
        record.bounded_status = entry["bounded_status"]
        return record


class ExperimentCache:
    """Runs and memoizes every solve the experiments need.

    Args:
        seed: suite generation seed.
        scale: suite size multiplier (use < 1 for quick runs).
        timeout: unified-work timeout (default :data:`TIMEOUT_WORK`).
        solve_cache: optional :class:`~repro.cache.SolveCache`; baseline
            solves (run with it active) and arbitrage records are read
            from and written to it, persisting results across runner
            invocations.
    """

    def __init__(self, seed=2024, scale=1.0, timeout=TIMEOUT_WORK, solve_cache=None):
        self.seed = seed
        self.scale = scale
        self.timeout = timeout
        self.solve_cache = solve_cache
        self._suites = {}
        self._baselines = {}
        self._arbitrage = {}

    # -- suites ------------------------------------------------------------

    def suite(self, logic):
        cached = self._suites.get(logic)
        if cached is None:
            cached = suite_for(logic, seed=self.seed, scale=self.scale)
            self._suites[logic] = cached
        return cached

    # -- baseline runs ---------------------------------------------------------

    def baseline(self, logic, name, profile):
        """Baseline (original-constraint) solve, memoized."""
        key = (logic, name, profile)
        cached = self._baselines.get(key)
        if cached is not None:
            return cached
        benchmark = self._find(logic, name)
        with telemetry.span("baseline", logic=logic, profile=profile):
            with activated(self.solve_cache):
                result = solve_script(
                    benchmark.script, budget=self.timeout, profile=profile
                )
        timed_out = result.is_unknown
        work = self.timeout if timed_out else min(result.work, self.timeout)
        record = BaselineRecord(result.status, work, timed_out)
        self._baselines[key] = record
        if telemetry.enabled:
            if result.cached:
                telemetry.counter_add(
                    "eval.cache_hit", kind="baseline", logic=logic, profile=profile
                )
            else:
                telemetry.counter_add("eval.baseline_runs", logic=logic, profile=profile)
            telemetry.counter_add("eval.baseline_work", work, logic=logic, profile=profile)
            if timed_out:
                telemetry.counter_add("eval.baseline_timeouts", logic=logic, profile=profile)
        return record

    # -- arbitrage runs -----------------------------------------------------------

    def arbitrage(self, logic, name, strategy, slot=False):
        """STAUB run under a width strategy, memoized (profile-free)."""
        if isinstance(strategy, int):
            # Fixed widths share cache entries with their string aliases
            # ("fixed8" == 8), so Fig. 2's sweep reuses Table 2/3 runs.
            canonical = f"fixed{strategy}"
        else:
            canonical = strategy
        key = (logic, name, canonical, slot)
        cached = self._arbitrage.get(key)
        if cached is not None:
            return cached
        benchmark = self._find(logic, name)
        persistent_key = None
        if self.solve_cache is not None:
            persistent_key = cache_key(
                benchmark.script,
                budget=self.timeout,
                kind="arbitrage",
                extra={"strategy": canonical, "slot": slot},
            )
            entry = self.solve_cache.get(persistent_key, kind="arbitrage")
            if entry is not None:
                record = ArbitrageRecord.from_entry(entry)
                self._arbitrage[key] = record
                telemetry.counter_add(
                    "eval.cache_hit", kind="arbitrage", logic=logic, strategy=canonical
                )
                return record
        staub = make_staub(strategy, slot=slot)
        # Staub.run runs without this store active: with it, the bounded
        # side would search under per-assertion literals instead of hard
        # clauses and reuse cores across runs, so every record (and the
        # tables and figures built on them) would depend on --cache. The
        # record is cached whole instead.
        with telemetry.span("arbitrage", logic=logic, strategy=canonical):
            report = staub.run(benchmark.script, budget=self.timeout)
        record = ArbitrageRecord(report, timeout=self.timeout)
        self._arbitrage[key] = record
        if persistent_key is not None:
            self.solve_cache.put(persistent_key, record.to_entry(), kind="arbitrage")
        if telemetry.enabled:
            labels = dict(logic=logic, strategy=canonical)
            telemetry.counter_add("eval.arbitrage_runs", **labels)
            telemetry.counter_add("eval.arbitrage_work", record.total_work, **labels)
            telemetry.counter_add("eval.arbitrage_case", case=record.case, **labels)
            if record.usable:
                telemetry.counter_add("eval.arbitrage_verified", **labels)
        return record

    # -- combined rows ------------------------------------------------------------

    def row(self, logic, name, profile, strategy, slot=False):
        """The full per-constraint row used by Tables 2/3 and Fig 7.

        Returns a dict with t_pre, final (portfolio) time, flags.
        """
        base = self.baseline(logic, name, profile)
        arb = self.arbitrage(logic, name, strategy, slot=slot)
        final = base.work
        if arb.usable:
            final = min(base.work, arb.total_work)
        return {
            "name": name,
            "t_pre": base.work,
            "pre_status": base.status,
            "timed_out": base.timed_out,
            "case": arb.case,
            "verified": arb.usable,
            "t_staub": arb.total_work,
            "final": final,
            "tractability": base.timed_out and arb.usable,
            "width": arb.width,
        }

    def rows(self, logic, profile, strategy, slot=False):
        """All rows for one (logic, profile, strategy) cell."""
        return [
            self.row(logic, benchmark.name, profile, strategy, slot=slot)
            for benchmark in self.suite(logic)
        ]

    # -- telemetry ---------------------------------------------------------

    def telemetry_summary(self):
        """Deterministic per-cell aggregates over every memoized run.

        Baseline cells are keyed ``logic/profile``; arbitrage cells
        ``logic/strategy`` (with a ``+slot`` suffix when the optimizer
        ran). Only runs that actually happened appear, so the summary is
        cheap to build and reflects exactly what an invocation computed.
        """
        baselines = {}
        for (logic, _name, profile) in sorted(self._baselines):
            record = self._baselines[(logic, _name, profile)]
            cell = baselines.setdefault(
                f"{logic}/{profile}",
                {"benchmarks": 0, "timeouts": 0, "total_work": 0, "status": {}},
            )
            cell["benchmarks"] += 1
            cell["total_work"] += record.work
            cell["timeouts"] += 1 if record.timed_out else 0
            cell["status"][record.status] = cell["status"].get(record.status, 0) + 1

        arbitrage = {}
        for (logic, _name, strategy, slot) in sorted(self._arbitrage):
            record = self._arbitrage[(logic, _name, strategy, slot)]
            key = f"{logic}/{strategy}" + ("+slot" if slot else "")
            cell = arbitrage.setdefault(
                key,
                {
                    "benchmarks": 0,
                    "verified": 0,
                    "total_work": 0,
                    "t_trans": 0,
                    "t_post": 0,
                    "t_check": 0,
                    "cases": {},
                },
            )
            cell["benchmarks"] += 1
            cell["verified"] += 1 if record.usable else 0
            cell["total_work"] += record.total_work
            cell["t_trans"] += record.t_trans
            cell["t_post"] += record.t_post
            cell["t_check"] += record.t_check
            cell["cases"][record.case] = cell["cases"].get(record.case, 0) + 1

        return {
            "seed": self.seed,
            "scale": self.scale,
            "timeout": self.timeout,
            "baselines": baselines,
            "arbitrage": arbitrage,
        }

    # -- helpers -----------------------------------------------------------

    def _find(self, logic, name):
        for benchmark in self.suite(logic):
            if benchmark.name == name:
                return benchmark
        raise KeyError(f"no benchmark {name!r} in {logic}")
