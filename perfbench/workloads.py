"""The benchmark's four workloads: seeded inputs, requests, output checks.

Each workload builds its inputs from the seed as text, runs them the way
a user drives the system from one client process, and checks every
output afterwards (checks never run inside the timed region). A *pass*
runs the whole seeded input list once from fresh state, so the verdicts,
the decided share and the cache-hit count of a pass are the same in
every run of one seed.

A pass probes the host's speed with a :class:`hostspeed.HostClock`
between requests (outside every request's interval) and reads its times
in reference seconds through that clock.
"""

import collections
import hashlib
import os
import random
import shutil
import time

import hostspeed

#: Unified work budget per request (the portfolio, the Automizer queries,
#: and the service).
BUDGET = 200_000

#: QF_NIA suite scale for nia-portfolio: every family, 46 constraints.
NIA_SCALE = 0.85

#: Programs per pass of the termination workloads. They are split across
#: the suite's families in proportion to the families' sizes (largest
#: remainder), so every seed gets RQ3's family mix.
TERMINATION_PROGRAMS = 18

#: serve-mixed: suite scale per logic, and repeats per solve original.
#: Five repeats make about three quarters of the requests cache hits: the
#: admission path a hit takes carries most requests, the pool most of the
#: time.
SERVE_SCALE = 0.6
SERVE_REPEATS = 5

#: A repeat is placed at least this many requests after its original.
REPEAT_GAP = 12

#: serve-mixed: wall seconds between host-speed probes in the client.
PROBE_EVERY = 0.2

_CONCLUSIVE = ("sat", "unsat")


class Pass:
    """What one pass did: per-request outcomes and timings."""

    def __init__(self):
        self.elapsed = 0.0  # reference seconds of the pass
        self.wall = 0.0  # wall seconds of the pass
        self.latencies = []  # reference seconds per request, send to answer
        self.outcomes = []  # workload-specific, one per request
        self.hits = 0  # cache hits (serve-mixed)
        self.sent = None  # request ids in send order (serve-mixed)
        self.stray = []  # ids of unexpected or duplicate responses


def _close_serial(record, clock, intervals):
    """Times of a pass whose requests ran one after another, a probe
    between each two: the pass lasts as long as its requests did."""
    record.latencies = [clock.reference(start, end) for start, end in intervals]
    record.elapsed = sum(record.latencies)
    record.wall = sum(end - start for start, end in intervals)


def digest(texts):
    """A short fingerprint of an input list."""
    sha = hashlib.sha256()
    for text in texts:
        sha.update(text.encode("utf-8"))
        sha.update(b"\0")
    return sha.hexdigest()[:16]


def children_kb(field):
    """pid -> the ``field`` line (``VmRSS``, ``VmHWM``) of each live child
    process's ``/proc/PID/status``, in kB."""
    import multiprocessing

    sizes = {}
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status", "r", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith(field + ":"):
                        sizes[child.pid] = int(line.split()[1])
        except OSError:
            pass  # the child exited between listing and reading
    return sizes


def _model_fails(script, model):
    from repro.smtlib.evaluator import evaluate_assertions

    if model is None:
        return "sat answer without a model"
    if not evaluate_assertions(script.assertions, model):
        return "model does not satisfy the original script"
    return None


# -- nia-portfolio -----------------------------------------------------------


class NiaPortfolio:
    """Race every QF_NIA constraint as ``staub portfolio FILE`` does."""

    workers = 0
    forked_rss_kb = {}

    def __init__(self, seed):
        from repro import smtlib
        from repro.benchgen import suite_for
        from repro.portfolio import scheduler, tasks
        from repro.smtlib import print_script

        # Modules, not functions: a traced run swaps the functions in them.
        self._smtlib = smtlib
        self._scheduler = scheduler
        self._tasks = tasks
        self.benchmarks = list(suite_for("QF_NIA", seed=seed, scale=NIA_SCALE))
        self.texts = [print_script(b.script) for b in self.benchmarks]

    def run_pass(self, recorder=None, limit=None):
        """Race the constraints, the first ``limit`` of them if given."""
        record = Pass()
        wall = time.perf_counter
        clock = hostspeed.HostClock()
        intervals = []
        clock.probe()
        for index, text in enumerate(self.texts[:limit]):
            if recorder is not None:
                recorder.request = index
            began = wall()
            script = self._smtlib.parse_script(text)
            race = self._scheduler.InterleavingScheduler(
                self._tasks.default_tasks(), budget=BUDGET
            )
            outcome = race.run(script)
            intervals.append((began, wall()))
            clock.probe()
            record.outcomes.append((outcome.status, outcome.model))
        _close_serial(record, clock, intervals)
        return record

    def check(self, record):
        """(decided flags, failure messages) for one pass."""
        decided, failures = [], []
        for benchmark, (status, model) in zip(self.benchmarks, record.outcomes):
            decided.append(status in _CONCLUSIVE)
            problem = None
            if status in _CONCLUSIVE and benchmark.expected not in (None, status):
                problem = f"answered {status}, expected {benchmark.expected}"
            elif status == "sat":
                problem = _model_fails(benchmark.script, model)
            if problem:
                failures.append(f"{benchmark.name}: {problem}")
        return decided, failures

    def verdicts(self, record):
        return [status for status, _ in record.outcomes]

    def close(self):
        pass


# -- termination-rq3 / termination-sessions ---------------------------------


def _affine_text(constant, coefficients):
    terms = [f"{coefficient}*{name}" for name, coefficient in coefficients.items()]
    if constant or not terms:
        terms.append(str(constant))
    return " + ".join(terms)


def program_text(program):
    """The while-language source of a generated program."""
    inits = " ".join(f"{name} := {value};" for name, value in program.init.items())
    guards = " and ".join(
        f"{_affine_text(guard.constant, guard.coefficients)} {guard.relation} 0"
        for guard in program.loop.guards
    )
    updates = " ".join(
        f"{update.name} := {_affine_text(update.constant, update.coefficients)};"
        for update in program.loop.updates
    )
    return f"{inits} while ({guards}) {{ {updates} }}"


def _shape(program):
    return (
        program.variables,
        program.init,
        [(g.constant, g.coefficients, g.relation) for g in program.loop.guards],
        [(u.name, u.constant, u.coefficients) for u in program.loop.updates],
    )


def _terminates(program, limit=100_000):
    """True/False when a run from the initial state does/doesn't stop in
    ``limit`` steps; None when some variable has no initial value."""
    if any(name not in program.init for name in program.variables):
        return None
    state = dict(program.init)

    def value(constant, coefficients):
        return constant + sum(c * state[name] for name, c in coefficients.items())

    holds = {
        ">=": lambda v: v >= 0, ">": lambda v: v > 0, "<=": lambda v: v <= 0,
        "<": lambda v: v < 0, "=": lambda v: v == 0,
    }
    for _ in range(limit):
        if not all(holds[g.relation](value(g.constant, g.coefficients))
                   for g in program.loop.guards):
            return True
        state = {
            **state,
            **{u.name: value(u.constant, u.coefficients)
               for u in program.loop.updates},
        }
    return False


def _family(program):
    return program.name.rsplit("-", 1)[0]


def family_quota(sizes, total):
    """Split ``total`` across families (name -> size) in proportion to
    their sizes: floors first, then one more for each of the largest
    remainders (ties broken by name)."""
    whole = sum(sizes.values())
    quota = {name: size * total // whole for name, size in sizes.items()}
    by_remainder = sorted(sizes, key=lambda name: (-(sizes[name] * total % whole), name))
    for name in by_remainder[:total - sum(quota.values())]:
        quota[name] += 1
    return quota


class Termination:
    """The RQ3 client: one program analysis per request, one solve cache
    shared by the whole stream of a pass."""

    workers = 0
    forked_rss_kb = {}

    def __init__(self, seed, sessions):
        from repro import cache as solve_cache
        from repro.cache import SolveCache
        from repro.termination.automizer import Automizer
        from repro.termination import lang
        from repro.termination.programs import termination_benchmark_suite

        self._sessions = sessions
        self._activated = solve_cache.activated
        self._cache_class = SolveCache
        self._automizer = Automizer
        self._lang = lang
        suite = termination_benchmark_suite(seed=seed)
        wanted = family_quota(
            collections.Counter(_family(program) for program, _ in suite),
            TERMINATION_PROGRAMS,
        )
        self.programs = []
        for program, expected in suite:
            if wanted[_family(program)]:
                wanted[_family(program)] -= 1
                self.programs.append((program, expected))
        self.texts = [program_text(program) for program, _ in self.programs]
        for (program, _), text in zip(self.programs, self.texts):
            if _shape(lang.parse_program(text, program.name)) != _shape(program):
                raise RuntimeError(f"{program.name} does not print back to itself")
        self._fresh()

    def _fresh(self):
        self._store = self._cache_class()
        self._client = self._automizer(budget=BUDGET, use_sessions=self._sessions)

    def run_pass(self, recorder=None, limit=None):
        """Analyse the programs, the first ``limit`` of them if given."""
        record = Pass()
        wall = time.perf_counter
        clock = hostspeed.HostClock()
        store, client = self._store, self._client
        intervals = []
        clock.probe()
        with self._activated(store):
            for (program, _), text in list(zip(self.programs, self.texts))[:limit]:
                if recorder is not None:
                    recorder.request = program.name
                began = wall()
                result = client.analyze(self._lang.parse_program(text, program.name))
                intervals.append((began, wall()))
                clock.probe()
                record.outcomes.append(result.verdict)
        _close_serial(record, clock, intervals)
        self._fresh()
        return record

    def check(self, record):
        decided, failures = [], []
        for (program, expected), verdict in zip(self.programs, record.outcomes):
            decided.append(verdict in ("terminating", "nonterminating"))
            problem = None
            if decided[-1] and expected not in (None, verdict):
                problem = f"verdict {verdict}, expected {expected}"
            elif verdict == "terminating" and _terminates(program) is False:
                problem = "verdict terminating, but the run does not stop"
            if problem:
                failures.append(f"{program.name}: {problem}")
        return decided, failures

    def verdicts(self, record):
        return list(record.outcomes)

    def close(self):
        pass


# -- serve-mixed -------------------------------------------------------------


class _Request:
    __slots__ = ("id", "op", "tenant", "line", "script", "expected", "repeat_of")

    def __init__(self, id, op, tenant, line, script, expected, repeat_of=None):
        self.id = id
        self.op = op
        self.tenant = tenant
        self.line = line
        self.script = script  # the script a sat model must satisfy
        self.expected = expected  # generator ground truth, or None
        self.repeat_of = repeat_of  # id of the solve request repeated


def serve_stream(seed):
    """The seeded request list of serve-mixed.

    Three tenants: ``solver`` solves benchgen constraints of all four
    logics, ``bounded`` solves STAUB's bounded translations of the QF_NIA
    ones, ``arbiter`` runs arbitrage on the QF_NIA ones. Repeat slots
    name an earlier solve request; the client sends one only after that
    original was answered sat or unsat (the only answers the service
    caches), so every repeat sent is a cache hit. Since verdicts are
    deterministic, so is the list of requests sent.
    """
    import json

    from repro.benchgen import suite_for
    from repro.core.pipeline import Staub
    from repro.errors import TransformError
    from repro.smtlib import print_script

    rng = random.Random(f"{seed}:serve-mixed")
    fresh = []
    seen = set()

    def add(op, tenant, script, expected):
        text = print_script(script)
        if (op, text) in seen:
            return  # the same question twice would be an unplanned hit
        seen.add((op, text))
        fresh.append((op, tenant, text, script, expected))

    staub = Staub()
    for logic in ("QF_NIA", "QF_LIA", "QF_NRA", "QF_LRA"):
        for benchmark in suite_for(logic, seed=seed, scale=SERVE_SCALE):
            add("solve", "solver", benchmark.script, benchmark.expected)
            if logic != "QF_NIA":
                continue
            add("arbitrage", "arbiter", benchmark.script, benchmark.expected)
            try:
                translated, _, _ = staub.transform(benchmark.script)
            except TransformError:
                continue
            add("solve", "bounded", translated.script, None)
    rng.shuffle(fresh)

    # Every solve original gets SERVE_REPEATS repeats, each placed at least
    # REPEAT_GAP requests after it, so the hit mix per logic is fixed.
    slots = sorted(
        (index + REPEAT_GAP + rng.randrange(len(fresh)), index)
        for index, entry in enumerate(fresh)
        if entry[0] == "solve"
        for _ in range(SERVE_REPEATS)
    )
    sequence = []  # (index into fresh, is a repeat)
    for position in range(len(fresh)):
        while slots and slots[0][0] <= position:
            sequence.append((slots.pop(0)[1], True))
        sequence.append((position, False))
    sequence.extend((index, True) for _, index in slots)

    requests = []
    first_ask = {}  # index into fresh -> id of the original request
    for index, is_repeat in sequence:
        op, tenant, text, script, expected = fresh[index]
        rid = f"r{len(requests)}"
        line = json.dumps({"id": rid, "op": op, "tenant": tenant, "script": text})
        repeat_of = first_ask[index] if is_repeat else None
        first_ask.setdefault(index, rid)
        requests.append(_Request(rid, op, tenant, line, script, expected, repeat_of))
    return requests


class ServeMixed:
    """An in-process ``SolveService`` with a worker pool and a sharded
    cache, driven by one closed-loop pipelining client."""

    def __init__(self, seed, root):
        from repro.cache import DEFAULT_SHARDS, open_cache
        from repro.cache.store import decode_model
        from repro.service import SolveService

        self.decode_model = decode_model
        self.requests = serve_stream(seed)
        self.texts = [request.line for request in self.requests]
        self.cpus = os.sched_getaffinity(0)
        self.workers = len(self.cpus)
        self.window = 2 * self.workers
        self._cache_dir = os.path.join(root, f"serve-cache-{os.getpid()}")
        shutil.rmtree(self._cache_dir, ignore_errors=True)
        self.cache = open_cache(self._cache_dir, shards=DEFAULT_SHARDS)
        self.service = SolveService(workers=self.workers, budget=BUDGET,
                                    cache=self.cache)
        # A forked worker shares the client's pages until it writes them;
        # its own memory is what it grows beyond its size at the fork.
        self.forked_rss_kb = children_kb("VmRSS")

    def run_pass(self, recorder=None, limit=None):
        """Send the stream, or its first ``limit`` requests, at most
        ``window`` requests unanswered; probe the speed of every vCPU the
        pool runs on at most every ``PROBE_EVERY`` seconds, only while
        the client would otherwise block on the pool."""
        record = Pass()
        service = self.service
        wall = time.perf_counter
        clock = hostspeed.HostClock(self.cpus)
        answers = {}  # id -> (payload, answer time)
        sent = {}  # id -> send time
        outstanding = set()
        stray = []  # responses to no request, or a second response to one

        def take(responses):
            now = wall()
            for _, payload in responses:
                rid = payload.get("id")
                if rid in answers or rid not in sent:
                    stray.append(rid)
                    continue
                answers[rid] = (payload, now)
                outstanding.discard(rid)

        clock.probe()
        start = wall()
        position = 0
        requests = self.requests[:limit]
        while position < len(requests) or outstanding:
            while position < len(requests) and len(outstanding) < self.window:
                request = requests[position]
                if request.repeat_of is not None:
                    original = answers.get(request.repeat_of)
                    if original is None:
                        break  # held until the original is answered
                    if original[0].get("status") not in _CONCLUSIVE:
                        position += 1  # not cached: the slot stays empty
                        continue
                position += 1
                if recorder is not None:
                    recorder.request = request.id
                sent[request.id] = wall()
                outstanding.add(request.id)
                take(service.submit_line(request.line))
                if recorder is not None:
                    recorder.request = None
                take(service.pump())
            if outstanding:
                if clock.since_probe() >= PROBE_EVERY:
                    clock.probe()
                take(service.pump(block=True))
        take(service.drain())
        take(service.finish())
        end = wall()
        clock.probe()
        record.elapsed = clock.reference(start, end)
        record.wall = end - start
        by_id = {request.id: request for request in requests}
        for rid in sent:
            payload, answered = answers.get(rid, (None, None))
            record.outcomes.append((by_id[rid], payload))
            if answered is not None:
                record.latencies.append(clock.reference(sent[rid], answered))
        record.hits = sum(
            1 for _, payload in record.outcomes
            if payload is not None and payload.get("cached")
        )
        record.sent = list(sent)
        record.stray = stray
        self.cache.clear()  # the next pass starts from an empty store
        return record

    def check(self, record):
        decided, failures = [], []
        status_of = {}
        for request, payload in record.outcomes:
            problem = None
            is_decided = False
            if payload is None:
                problem = "no response"
            elif not payload.get("ok", False):
                problem = f"error response: {payload.get('error')}"
            elif "reason" in payload:
                problem = f"rejected: {payload['reason']}"
            elif request.op == "solve":
                status = payload.get("status")
                status_of[request.id] = status
                is_decided = status in _CONCLUSIVE
                if request.repeat_of is not None:
                    if not payload.get("cached"):
                        problem = "repeat of a decided request missed the cache"
                    elif status != status_of.get(request.repeat_of):
                        problem = "repeat answered differently from its original"
                elif payload.get("cached"):
                    problem = "first ask of a question was a cache hit"
                if problem is None and is_decided and request.expected not in (
                    None, status
                ):
                    problem = f"answered {status}, expected {request.expected}"
                if problem is None and status == "sat":
                    problem = _model_fails(
                        request.script, self.decode_model(payload.get("model"))
                    )
            else:
                # An arbitrage "unsat" is the bounded side's status, not a
                # verdict on the original: neither decided nor wrong.
                is_decided = payload.get("case") == "verified-sat"
                if is_decided and request.expected == "unsat":
                    problem = "verified-sat on an unsat constraint"
                elif is_decided:
                    problem = _model_fails(
                        request.script, self.decode_model(payload.get("model"))
                    )
            decided.append(is_decided)
            if problem:
                failures.append(f"{request.id} ({request.op}/{request.tenant}): {problem}")
        for rid in record.stray:
            failures.append(f"unexpected or duplicate response {rid!r}")
        return decided, failures

    def verdicts(self, record):
        return [
            (request.id, None if payload is None else
             (payload.get("status"), payload.get("case"), payload.get("cached")))
            for request, payload in record.outcomes
        ]

    def close(self):
        self.service.close()
        shutil.rmtree(self._cache_dir, ignore_errors=True)


WORKLOADS = ("nia-portfolio", "termination-rq3", "termination-sessions", "serve-mixed")


def build(name, seed, root):
    """Set a workload up: its inputs and one-time construction."""
    if name == "nia-portfolio":
        return NiaPortfolio(seed)
    if name == "termination-rq3":
        return Termination(seed, sessions=False)
    if name == "termination-sessions":
        return Termination(seed, sessions=True)
    if name == "serve-mixed":
        return ServeMixed(seed, root)
    raise ValueError(f"unknown workload {name!r}")
