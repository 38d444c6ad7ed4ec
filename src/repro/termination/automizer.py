"""The Automizer-like driver: programs -> constraint stream -> verdicts.

For each program the driver issues the query sequence a real termination
prover would:

1. a tightly bounded ranking-template candidate (QF_LIA, usually unsat);
2. a generously bounded ranking template (QF_LIA, sat iff a linear
   ranking function exists);
3. a geometric nontermination argument (QF_NIA), tried when ranking
   synthesis failed.

Every query can be solved by the baseline solver directly or through
STAUB with portfolio semantics -- RQ3 measures the difference over the
whole constraint stream.
"""

from repro.core.pipeline import Staub
from repro.core.session import ArbitrageSession
from repro.errors import TransformError
from repro.solver import solve_script
from repro.termination.nontermination import (
    NonterminationTemplate,
    nontermination_constraints,
)
from repro.termination.ranking import RankingTemplate, ranking_constraints

TERMINATING = "terminating"
NONTERMINATING = "nonterminating"
UNKNOWN = "unknown"


class QueryRecord:
    """One solver query issued during an analysis.

    Attributes:
        kind: "ranking-tight" / "ranking-wide" / "nontermination".
        logic: the query's logic.
        baseline_status / baseline_work: direct solve of the query.
        staub_case / staub_work: STAUB run of the same query.
        final_work: portfolio cost (min when STAUB verified, else baseline).
    """

    __slots__ = (
        "kind",
        "logic",
        "baseline_status",
        "baseline_work",
        "staub_case",
        "staub_work",
        "final_work",
        "verified",
    )

    def __init__(self, kind, logic, baseline_status, baseline_work, staub_case, staub_work, verified):
        self.kind = kind
        self.logic = logic
        self.baseline_status = baseline_status
        self.baseline_work = baseline_work
        self.staub_case = staub_case
        self.staub_work = staub_work
        self.verified = verified
        self.final_work = min(baseline_work, staub_work) if verified else baseline_work


class AnalysisResult:
    """Verdict plus the full query log for one program."""

    __slots__ = ("program", "verdict", "queries")

    def __init__(self, program, verdict, queries):
        self.program = program
        self.verdict = verdict
        self.queries = queries

    @property
    def baseline_work(self):
        return sum(query.baseline_work for query in self.queries)

    @property
    def final_work(self):
        return sum(query.final_work for query in self.queries)

    def __repr__(self):
        return f"AnalysisResult({self.program.name}, {self.verdict})"


class Automizer:
    """Termination analysis over the while-language.

    Args:
        profile: baseline solver profile name.
        budget: unified work budget per query (the virtual timeout).
        use_staub: run each query through STAUB as well and use portfolio
            semantics (the paper's RQ3 configuration).
        use_sessions: drive the STAUB lane through scope-aware
            :class:`~repro.core.session.ArbitrageSession` instances --
            one per constraint family per program -- so the iterative
            candidate stream pays inference, translation, and
            bit-blasting for the shared Farkas core once instead of per
            query. Off by default: the classic per-query pipeline is the
            paper's RQ3 configuration and the benchmark baseline.
    """

    def __init__(self, profile="zorro", budget=2_000_000, use_staub=True,
                 use_sessions=False):
        self.profile = profile
        self.budget = budget
        self.use_staub = use_staub
        self.use_sessions = use_sessions
        self._staub = Staub()

    def _solve_query(self, kind, script, session=None):
        baseline = solve_script(script, budget=self.budget, profile=self.profile)
        baseline_work = min(baseline.work, self.budget)
        if baseline.is_unknown:
            baseline_work = self.budget
        staub_case = None
        staub_work = baseline_work
        verified = False
        answer = baseline.status
        if self.use_staub:
            if session is not None:
                report = session.check(budget=self.budget)
            else:
                report = self._staub.run(script, budget=self.budget)
            staub_case = report.case
            staub_work = min(report.total_work, self.budget)
            verified = report.usable
            if verified and baseline.is_unknown:
                answer = "sat"  # tractability improvement inside the client
        record = QueryRecord(
            kind,
            script.logic,
            baseline.status,
            baseline_work,
            staub_case,
            staub_work,
            verified,
        )
        return answer, record

    def analyze(self, program):
        """Run the full candidate-query sequence on one program.

        The sequence mirrors a real prover's search: aggressive candidate
        templates first (usually unsat -- the pessimistic bulk of the
        stream), the generous template next, and nontermination arguments
        when ranking synthesis fails.
        """
        if self.use_sessions and self.use_staub:
            return self._analyze_with_sessions(program)
        queries = []

        # Candidate 1: fast-decrease, tiny-coefficient template. Fails on
        # most loops; this is the "failed lemma" traffic.
        fast = ranking_constraints(program, coefficient_bound=1, decrease=8)
        answer, record = self._solve_query("ranking-fast", fast)
        queries.append(record)
        if answer == "sat":
            return AnalysisResult(program, TERMINATING, queries)

        # Candidate 2: unit-decrease, tiny coefficients.
        tight = ranking_constraints(program, coefficient_bound=1, decrease=1)
        answer, record = self._solve_query("ranking-tight", tight)
        queries.append(record)
        if answer == "sat":
            return AnalysisResult(program, TERMINATING, queries)

        # Candidate 3: the generous template.
        wide = ranking_constraints(program, coefficient_bound=16, decrease=1)
        answer, record = self._solve_query("ranking-wide", wide)
        queries.append(record)
        if answer == "sat":
            return AnalysisResult(program, TERMINATING, queries)

        # Nontermination: compact argument first, then unbounded.
        compact = nontermination_constraints(program, magnitude_bound=4)
        answer, record = self._solve_query("nontermination-compact", compact)
        queries.append(record)
        if answer == "sat":
            return AnalysisResult(program, NONTERMINATING, queries)

        nonterm = nontermination_constraints(program, magnitude_bound=None)
        answer, record = self._solve_query("nontermination", nonterm)
        queries.append(record)
        if answer == "sat":
            return AnalysisResult(program, NONTERMINATING, queries)

        return AnalysisResult(program, UNKNOWN, queries)

    #: The ranking candidate ladder: (kind, coefficient_bound, decrease).
    RANKING_CANDIDATES = (
        ("ranking-fast", 1, 8),
        ("ranking-tight", 1, 1),
        ("ranking-wide", 16, 1),
    )

    def _analyze_with_sessions(self, program):
        """The same candidate-query sequence, with the STAUB lane scoped.

        The baseline lane still solves each *flat* query script, so
        baseline verdicts (and therefore program verdicts, whenever the
        baseline is decisive) are byte-identical to the classic mode.
        The STAUB lane asserts each constraint family's shared core once
        into an :class:`ArbitrageSession` and push/pops the per-candidate
        layers, so the stream pays core translation and bit-blasting a
        single time.
        """
        queries = []

        template = RankingTemplate(program)
        ranking = ArbitrageSession(budget=self.budget)
        for term in template.base_assertions:
            ranking.assert_term(term)
        for kind, bound, decrease in self.RANKING_CANDIDATES:
            ranking.push()
            for term in template.candidate_layer(bound, decrease):
                ranking.assert_term(term)
            answer, record = self._solve_query(
                kind, template.script(bound, decrease), session=ranking
            )
            ranking.pop()
            queries.append(record)
            if answer == "sat":
                return AnalysisResult(program, TERMINATING, queries)

        nonterm_template = NonterminationTemplate(program)
        nonterm = ArbitrageSession(budget=self.budget)
        for term in nonterm_template.base_assertions:
            nonterm.assert_term(term)
        nonterm.push()
        for term in nonterm_template.magnitude_layer(4):
            nonterm.assert_term(term)
        answer, record = self._solve_query(
            "nontermination-compact",
            nonterm_template.script(magnitude_bound=4),
            session=nonterm,
        )
        nonterm.pop()
        queries.append(record)
        if answer == "sat":
            return AnalysisResult(program, NONTERMINATING, queries)

        # The unbounded retry re-encodes nothing: popping the magnitude
        # box just retracted its assumption slice.
        answer, record = self._solve_query(
            "nontermination", nonterm_template.script(), session=nonterm
        )
        queries.append(record)
        if answer == "sat":
            return AnalysisResult(program, NONTERMINATING, queries)

        return AnalysisResult(program, UNKNOWN, queries)
