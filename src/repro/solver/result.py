"""Unified solve results and status constants."""

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


class SolveResult:
    """Outcome of solving one script.

    Attributes:
        status: ``"sat"`` / ``"unsat"`` / ``"unknown"`` (budget exhausted).
        model: name -> value mapping when sat (ints, Fractions, bools,
            BVValue); None otherwise.
        work: deterministic unified work units spent -- the virtual clock
            every experiment reports (see :mod:`repro.solver.costs`).
        engine: which engine produced the result (e.g. ``"nia"``, ``"bv"``).
        stats: uniform statistics dict (see
            :mod:`repro.telemetry.stats`); every engine fills the same
            key set.
        cached: True when the result was served from a solve cache
            rather than a fresh engine run (``work`` is then the work of
            the original solve, not of the lookup).
    """

    __slots__ = ("status", "model", "work", "engine", "stats", "cached")

    def __init__(self, status, model=None, work=0, engine="", stats=None, cached=False):
        self.status = status
        self.model = model
        self.work = work
        self.engine = engine
        self.cached = cached
        self.stats = stats if stats is not None else {}

    @property
    def is_sat(self):
        return self.status == SAT

    @property
    def is_unsat(self):
        return self.status == UNSAT

    @property
    def is_unknown(self):
        return self.status == UNKNOWN

    def __repr__(self):
        return f"SolveResult({self.status}, work={self.work}, engine={self.engine})"
