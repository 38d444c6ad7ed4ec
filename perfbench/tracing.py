"""Per-layer tracing for the benchmark, installed from outside the program.

The program is never edited: :func:`install` replaces each traced public
function at *every* binding the program reaches it through (a function
imported by name into several modules is replaced in each of them) and
each traced method on its class. A wrapper records one span per call --
name, start, end, parent span and request id -- in memory; spans are
written out when the run ends.

Self time is a span's duration minus the durations of its child spans.
Counts come from public return values and ``SatSolver.stats``.
"""

import collections
import functools
import importlib
import json
import statistics
import sys
import time

#: Which span names make up each traced layer (self time is summed).
LAYER_SPANS = {
    "smtlib": ("smtlib.parse",),
    "termination": ("termination.parse", "termination.encode"),
    "solver": ("solver.solve",),
    "arith": ("arith.theory",),
    "core": ("core.staub", "core.infer", "core.transform", "core.verify",
             "core.session_check"),
    "bv": ("bv.solve", "bv.blast", "bv.core_extract"),
    "sat": ("sat.solve", "sat.attach"),
    "cache": ("cache.key", "cache.get", "cache.find_core", "cache.store",
              "cache.save"),
    "portfolio": ("portfolio.race",),
    "service": ("service.admit", "service.pump", "service.dispatch",
                "service.poll"),
}

#: Functions bound by name: (span, module, attribute).
_FUNCTIONS = (
    ("smtlib.parse", "repro.smtlib.parser", "parse_script"),
    ("termination.parse", "repro.termination.lang", "parse_program"),
    ("termination.encode", "repro.termination.ranking", "ranking_constraints"),
    ("termination.encode", "repro.termination.nontermination",
     "nontermination_constraints"),
    ("solver.solve", "repro.solver.facade", "solve_script"),
    ("arith.theory", "repro.solver.dpllt", "solve_with_theory"),
    ("core.infer", "repro.core.inference", "infer_bounds"),
    ("core.transform", "repro.core.transform", "transform_script"),
    ("core.verify", "repro.core.verify", "verify_model"),
    ("bv.solve", "repro.bv.solver", "solve_bounded_script"),
    ("bv.core_extract", "repro.bv.solver", "assertion_core_digests"),
    ("cache.key", "repro.cache.keys", "cache_key"),
    ("cache.key", "repro.cache.keys", "script_digests"),
)

#: Methods: (span, module, class, attribute).
_METHODS = (
    ("termination.encode", "repro.termination.ranking", "RankingTemplate", "__init__"),
    ("termination.encode", "repro.termination.ranking", "RankingTemplate",
     "candidate_layer"),
    ("termination.encode", "repro.termination.ranking", "RankingTemplate", "script"),
    ("termination.encode", "repro.termination.nontermination",
     "NonterminationTemplate", "__init__"),
    ("termination.encode", "repro.termination.nontermination",
     "NonterminationTemplate", "magnitude_layer"),
    ("termination.encode", "repro.termination.nontermination",
     "NonterminationTemplate", "script"),
    ("core.staub", "repro.core.pipeline", "Staub", "run"),
    ("core.session_check", "repro.core.session", "ArbitrageSession", "check"),
    ("bv.blast", "repro.bv.bitblast", "BitBlaster", "assert_term"),
    ("bv.blast", "repro.bv.bitblast", "BitBlaster", "blast_bool"),
    ("sat.solve", "repro.sat.solver", "SatSolver", "solve"),
    ("sat.attach", "repro.sat.solver", "SatSolver", "attach"),
    ("cache.get", "repro.cache.store", "SolveCache", "get"),
    ("cache.get", "repro.cache.sharded", "ShardedSolveCache", "get"),
    ("cache.find_core", "repro.cache.store", "SolveCache", "find_core"),
    ("cache.find_core", "repro.cache.sharded", "ShardedSolveCache", "find_core"),
    ("cache.store", "repro.cache.store", "SolveCache", "put"),
    ("cache.store", "repro.cache.store", "SolveCache", "add_core"),
    ("cache.store", "repro.cache.sharded", "ShardedSolveCache", "put"),
    ("cache.store", "repro.cache.sharded", "ShardedSolveCache", "add_core"),
    ("cache.save", "repro.cache.store", "SolveCache", "save"),
    ("cache.save", "repro.cache.sharded", "ShardedSolveCache", "save"),
    ("portfolio.race", "repro.portfolio.scheduler", "InterleavingScheduler", "run"),
    ("service.admit", "repro.service.server", "SolveService", "submit_line"),
    ("service.pump", "repro.service.server", "SolveService", "pump"),
    ("service.dispatch", "repro.service.workers", "WorkerPool", "dispatch"),
    ("service.poll", "repro.service.workers", "WorkerPool", "poll"),
)

#: Spans whose nested calls of the same name are folded into the outer
#: call (recursive blasting, a sharded cache calling its shards, a
#: ranking script building its template).
_OUTERMOST = frozenset(
    ("termination.encode", "bv.blast", "cache.get", "cache.find_core",
     "cache.store", "cache.save")
)


class Recorder:
    """In-memory span store plus the counters the wrappers collect."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, request id]
        self.request = None  # request id stamped on new spans
        self.counts = collections.Counter()  # span name -> calls
        self.tally = collections.Counter()  # named sums from return values
        self.events = collections.defaultdict(dict)  # kind -> {request id: time}
        self._stack = []
        self._depth = collections.Counter()

    def wrap(self, name, fn, before=None, after=None):
        """A wrapper that records ``fn``'s calls as ``name`` spans.

        ``before(args)`` runs before the call and its value is handed to
        ``after(token, args, result)``, which runs after a normal return.
        """
        outermost = name in _OUTERMOST
        spans = self.spans
        stack = self._stack
        depth = self._depth
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost and depth[name]:
                return fn(*args, **kwargs)
            token = before(args) if before is not None else None
            depth[name] += 1
            counts[name] += 1
            span = [name, clock(), None, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                depth[name] -= 1
            if after is not None:
                after(token, args, result)
            return result

        return wrapper

    # -- aggregation -------------------------------------------------------

    def self_times(self):
        """Span name -> (summed self time, summed inclusive time)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = collections.defaultdict(lambda: [0.0, 0.0])
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name][0] += end - start - child[index]
            totals[name][1] += end - start
        return {name: tuple(values) for name, values in totals.items()}

    def dump(self, path, summary):
        """Write a summary line, then one JSON array per span."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"summary": summary}, sort_keys=True) + "\n")
            for name, start, end, parent, request in self.spans:
                handle.write(json.dumps(
                    [name, round(start, 7), round(end, 7), parent, request]
                ) + "\n")


# -- hooks reading public return values and SatSolver.stats -----------------


def _hooks(recorder):
    tally = recorder.tally
    events = recorder.events
    clock = time.perf_counter

    def solve_after(_, args, result):
        tally["solver.virtual_work"] += result.work

    def staub_after(_, args, report):
        tally["core.verified"] += report.usable
        tally["solver.virtual_work"] += report.total_work

    def session_after(_, args, report):
        tally["solver.virtual_work"] += report.total_work

    def blast_before(args):
        return len(args[0].cnf.clauses)

    def blast_after(before, args, _):
        tally["bv.cnf_clauses"] += len(args[0].cnf.clauses) - before

    def sat_before(args):
        stats = args[0].stats
        return stats.propagations, stats.conflicts

    def sat_after(before, args, _):
        stats = args[0].stats
        tally["sat.propagations"] += stats.propagations - before[0]
        tally["sat.conflicts"] += stats.conflicts - before[1]

    def get_after(_, args, entry):
        tally["cache.hits"] += entry is not None

    def find_core_after(_, args, core):
        tally["cache.core_hits"] += core is not None

    def race_after(_, args, outcome):
        tally["portfolio.rounds"] += outcome.rounds
        tally["portfolio.observed_work"] += outcome.observed_work
        tally["portfolio.total_work"] += outcome.total_work

    def admit_after(_, args, responses):
        if not responses:  # queued for the pool
            events["admitted"][recorder.request] = clock()

    def dispatch_after(_, args, __):
        events["dispatched"][args[1].id] = clock()

    def poll_after(_, args, polled):
        now = clock()
        for kind, request, _, _ in polled:
            if kind == "done":
                events["done"][request.id] = now

    return {
        "solver.solve": (None, solve_after),
        "core.staub": (None, staub_after),
        "core.session_check": (None, session_after),
        "bv.blast": (blast_before, blast_after),
        "sat.solve": (sat_before, sat_after),
        "cache.get": (None, get_after),
        "cache.find_core": (None, find_core_after),
        "portfolio.race": (None, race_after),
        "service.admit": (None, admit_after),
        "service.dispatch": (None, dispatch_after),
        "service.poll": (None, poll_after),
    }


def _program_modules():
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def install(recorder):
    """Wrap every traced function and method; returns the list of problems.

    A problem is a binding still holding an original function after the
    swap, or a subclass overriding a wrapped method -- either would let
    calls bypass the trace.
    """
    hooks = _hooks(recorder)
    for module_name in {entry[1] for entry in _FUNCTIONS + _METHODS}:
        importlib.import_module(module_name)
    originals = {}
    for span, module_name, attribute in _FUNCTIONS:
        original = getattr(sys.modules[module_name], attribute)
        wrapper = recorder.wrap(span, original, *hooks.get(span, (None, None)))
        originals[id(original)] = f"{module_name}.{attribute}"
        for module in _program_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)
    problems = []
    for span, module_name, class_name, attribute in _METHODS:
        owner = getattr(sys.modules[module_name], class_name)
        original = owner.__dict__[attribute]
        setattr(owner, attribute,
                recorder.wrap(span, original, *hooks.get(span, (None, None))))
        pending = list(owner.__subclasses__())
        while pending:
            subclass = pending.pop()
            if attribute in subclass.__dict__:
                problems.append(
                    f"{subclass.__qualname__}.{attribute} overrides a traced method"
                )
            pending.extend(subclass.__subclasses__())
    for module in _program_modules():
        for name, value in vars(module).items():
            if id(value) in originals:
                problems.append(
                    f"{module.__name__}.{name} still binds {originals[id(value)]}"
                )
    return problems


# -- per-layer metrics ------------------------------------------------------

#: (metric, unit, better) in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("sat.solve_calls", "calls/req", "lower"),
    ("sat.solve_s", "s/req", "lower"),
    ("sat.attach_s", "s/req", "lower"),
    ("sat.propagations", "count/req", "lower"),
    ("sat.conflicts", "count/req", "lower"),
    ("bv.blast_s", "s/req", "lower"),
    ("bv.cnf_clauses", "count/req", "lower"),
    ("bv.core_extract_calls", "calls/req", "lower"),
    ("bv.core_extract_s", "s/req", "lower"),
    ("arith.theory_calls", "calls/req", "lower"),
    ("arith.theory_s", "s/req", "lower"),
    ("core.staub_calls", "calls/req", "lower"),
    ("core.verified_share", "share", "higher"),
    ("core.infer_s", "s/req", "lower"),
    ("core.transform_s", "s/req", "lower"),
    ("core.verify_s", "s/req", "lower"),
    ("core.session_checks", "calls/req", "lower"),
    ("core.session_check_s", "s/req", "lower"),
    ("portfolio.rounds_mean", "rounds", "lower"),
    ("portfolio.useful_work_share", "share", "higher"),
    ("cache.lookup_s", "s/req", "lower"),
    ("cache.hit_share", "share", "higher"),
    ("cache.core_hit_share", "share", "higher"),
    ("cache.store_s", "s/req", "lower"),
    ("cache.save_calls", "calls/req", "lower"),
    ("cache.save_s", "s/req", "lower"),
    ("smtlib.parse_calls", "calls/req", "lower"),
    ("smtlib.parse_s", "s/req", "lower"),
    ("service.admit_s", "s/req", "lower"),
    ("service.queue_wait_p50_s", "s", "lower"),
    ("service.pool_occupancy", "share", "higher"),
    ("service.rejected", "count", "lower"),
    ("termination.encode_s", "s/req", "lower"),
    ("solver.solve_calls", "calls/req", "lower"),
    ("solver.virtual_work", "work/req", "lower"),
    ("trace.overhead_share", "share", "lower"),
)


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder, requests, wall, workers=0, service_view=None):
    """The per-layer metric values of one traced phase.

    Args:
        recorder: the :class:`Recorder` that saw the traced phase.
        requests: requests completed in the traced phase.
        wall: the traced phase's wall seconds.
        workers: pool size (serve-mixed), for pool occupancy.
        service_view: for serve-mixed, ``(solves, virtual work,
            rejected)`` read from the protocol responses -- solving runs
            in the pool workers, which the trace does not enter.
    """
    times = recorder.self_times()
    counts = recorder.counts
    tally = recorder.tally

    def own(*names):
        return sum(times.get(name, (0.0, 0.0))[0] for name in names) / requests

    def inclusive(name):
        return times.get(name, (0.0, 0.0))[1] / requests

    def per_request(value):
        return value / requests

    events = recorder.events
    waits = [
        events["dispatched"][rid] - admitted
        for rid, admitted in events["admitted"].items()
        if rid in events["dispatched"]
    ]
    busy = sum(
        done - events["dispatched"][rid]
        for rid, done in events["done"].items()
        if rid in events["dispatched"]
    )
    if service_view is None:
        solves, work, rejected = counts["solver.solve"], tally["solver.virtual_work"], 0
    else:
        solves, work, rejected = service_view
    metrics = {
        "sat.solve_calls": per_request(counts["sat.solve"]),
        "sat.solve_s": own("sat.solve"),
        "sat.attach_s": own("sat.attach"),
        "sat.propagations": per_request(tally["sat.propagations"]),
        "sat.conflicts": per_request(tally["sat.conflicts"]),
        "bv.blast_s": own("bv.blast"),
        "bv.cnf_clauses": per_request(tally["bv.cnf_clauses"]),
        "bv.core_extract_calls": per_request(counts["bv.core_extract"]),
        "bv.core_extract_s": inclusive("bv.core_extract"),
        "arith.theory_calls": per_request(counts["arith.theory"]),
        "arith.theory_s": own("arith.theory"),
        "core.staub_calls": per_request(counts["core.staub"]),
        "core.verified_share": _ratio(tally["core.verified"], counts["core.staub"]),
        "core.infer_s": own("core.infer"),
        "core.transform_s": own("core.transform"),
        "core.verify_s": own("core.verify"),
        "core.session_checks": per_request(counts["core.session_check"]),
        "core.session_check_s": inclusive("core.session_check"),
        "portfolio.rounds_mean": _ratio(
            tally["portfolio.rounds"], counts["portfolio.race"]
        ),
        "portfolio.useful_work_share": _ratio(
            tally["portfolio.observed_work"], tally["portfolio.total_work"]
        ),
        "cache.lookup_s": own("cache.key", "cache.get", "cache.find_core"),
        "cache.hit_share": _ratio(tally["cache.hits"], counts["cache.get"]),
        "cache.core_hit_share": _ratio(
            tally["cache.core_hits"], counts["cache.find_core"]
        ),
        "cache.store_s": own("cache.store"),
        "cache.save_calls": per_request(counts["cache.save"]),
        "cache.save_s": inclusive("cache.save"),
        "smtlib.parse_calls": per_request(counts["smtlib.parse"]),
        "smtlib.parse_s": own("smtlib.parse"),
        "service.admit_s": own("service.admit"),
        "service.queue_wait_p50_s": statistics.median(waits) if waits else 0.0,
        "service.pool_occupancy": _ratio(busy, workers * wall),
        "service.rejected": rejected,
        "termination.encode_s": own("termination.encode"),
        "solver.solve_calls": per_request(solves),
        "solver.virtual_work": per_request(work),
    }
    return metrics


def layer_shares(recorder, wall):
    """Layer -> share of the traced wall time spent in its own code."""
    times = recorder.self_times()
    shares = {
        layer: sum(times.get(name, (0.0, 0.0))[0] for name in names) / wall
        for layer, names in LAYER_SPANS.items()
    }
    shares["(outside traced spans)"] = 1.0 - sum(shares.values())
    return shares


#: The table's predictions: layer row -> (span names that must be called
#: on the "most" workloads, those workloads, workloads with 0 calls).
PREDICTIONS = {
    "sat": (("sat.solve", "sat.attach"),
            ("termination-sessions", "termination-rq3", "nia-portfolio"), ()),
    "bv": (("bv.blast",), ("termination-rq3",), ()),
    "bv core extraction": (("bv.core_extract",), ("termination-rq3",),
                           ("nia-portfolio", "termination-sessions")),
    "arith": (("arith.theory",), ("nia-portfolio",), ()),
    "core": (("core.staub", "core.infer", "core.transform", "core.verify"),
             ("nia-portfolio", "termination-rq3"), ()),
    "core/solver sessions": (("core.session_check",), ("termination-sessions",),
                             ("nia-portfolio", "termination-rq3", "serve-mixed")),
    "portfolio": (("portfolio.race",), ("nia-portfolio",),
                  ("termination-rq3", "termination-sessions", "serve-mixed")),
    "cache": (("cache.key", "cache.get"),
              ("serve-mixed", "termination-rq3", "termination-sessions"),
              ("nia-portfolio",)),
    "smtlib": (("smtlib.parse",), ("serve-mixed",), ()),
    "service": (("service.admit", "service.dispatch", "service.poll"),
                ("serve-mixed",),
                ("nia-portfolio", "termination-rq3", "termination-sessions")),
    "termination": (("termination.encode",),
                    ("termination-rq3", "termination-sessions"), ()),
}

#: Span names whose zero-call rows also cover every other span of the layer.
_ZERO_SPANS = {
    "cache": LAYER_SPANS["cache"],
    "service": LAYER_SPANS["service"],
    "portfolio": LAYER_SPANS["portfolio"],
}


def check_predictions(recorder, workload, solves_seen):
    """Failures of the table's call predictions on this workload."""
    failures = []
    counts = recorder.counts
    for row, (names, most, none) in PREDICTIONS.items():
        if workload in most:
            for name in names:
                if not counts[name]:
                    failures.append(f"{row}: no {name} calls on {workload}")
        if workload in none:
            for name in _ZERO_SPANS.get(row, names):
                if counts[name]:
                    failures.append(
                        f"{row}: {counts[name]} {name} calls on {workload}, "
                        "predicted 0"
                    )
    if not solves_seen:
        failures.append(f"solver: no solves on {workload}")
    return failures
