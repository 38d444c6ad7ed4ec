"""Deterministic fault injection for the solver stack.

A :class:`ChaosPlan` is a seeded schedule of faults fired at named
injection points threaded through the stack:

- ``solver.pre_solve``   -- the facade, before dispatching an engine;
- ``portfolio.worker_spawn`` -- as a race lane or run_all cell starts in
  its pool worker;
- ``cache.load`` / ``cache.persist`` -- the persistent solve cache's
  read and write paths (payload garbling);
- ``telemetry.flush``    -- the JSONL span writer;
- ``service.accept`` / ``service.worker_crash`` / ``service.flush`` --
  the solve service's admission, worker-execution, and batched
  cache-flush paths.

Every draw is seeded by ``(plan seed, point, salt, per-point count)``,
so a given plan injects the *same* faults at the same points regardless
of thread/process interleaving, and forked workers diverge only through
their ``salt``. The default fault mix is chosen so that every injected
fault is **recoverable**: a chaos run must produce the same sat/unsat
verdicts as a fault-free run (only timings, lane winners, and cache
warmth may differ). That invariant is what the CI chaos smoke asserts.

Enabled via the ``REPRO_CHAOS`` environment variable or the ``--chaos``
CLI flag, both taking ``seed:rate`` (e.g. ``1234:0.1``). Disabled by
default; the fast path is one module-global check.

:class:`ChaosCrash` deliberately does **not** derive from
:class:`~repro.errors.ReproError`: the narrowed error handlers in the
stack must not swallow it, so an injected crash genuinely exercises the
crash-recovery paths (worker death, lane retry, quarantine).
"""

import hashlib
import os
import random
import time

from repro import telemetry

__all__ = [
    "ChaosCrash",
    "ChaosPlan",
    "ENV_VAR",
    "Fault",
    "POINTS",
    "active",
    "inject",
    "install",
    "parse_spec",
    "uninstall",
]

ENV_VAR = "REPRO_CHAOS"

#: Injection points threaded through the stack.
POINTS = (
    "solver.pre_solve",
    "portfolio.worker_spawn",
    "cache.load",
    "cache.persist",
    "telemetry.flush",
    "service.accept",
    "service.worker_crash",
    "service.flush",
)

#: Default fault mix per point. Only recoverable faults: worker crashes
#: are retried / out-raced, corrupt cache payloads are quarantined and
#: re-solved, dropped telemetry spans lose observability, never answers.
DEFAULT_KINDS = {
    "solver.pre_solve": ("delay",),
    "portfolio.worker_spawn": ("crash",),
    "cache.load": ("corrupt",),
    "cache.persist": ("corrupt",),
    "telemetry.flush": ("drop",),
    # Service points (all recoverable): a dropped accept answers a
    # structured unknown, a crashed worker is retried once then degrades,
    # a dropped flush defers persistence to the next batch/shutdown.
    "service.accept": ("delay", "drop"),
    "service.worker_crash": ("crash",),
    "service.flush": ("drop",),
}


class ChaosCrash(RuntimeError):
    """An injected hard crash (intentionally outside the ReproError taxonomy)."""


class Fault:
    """One fired fault; data faults are applied by the caller."""

    __slots__ = ("point", "kind", "rng")

    def __init__(self, point, kind, rng):
        self.point = point
        self.kind = kind
        self.rng = rng

    def garble(self, text):
        """Deterministically corrupt a serialized payload.

        Half the time the payload is truncated (the whole file stops
        parsing -- a crash mid-write); otherwise a single character is
        flipped (parses fine, caught by per-entry checksums).
        """
        if len(text) < 2:
            return ""
        if self.rng.random() < 0.5:
            cut = 1 + int(self.rng.random() * (len(text) - 1))
            return text[:cut]
        position = int(self.rng.random() * len(text))
        replacement = "#" if text[position] != "#" else "@"
        return text[:position] + replacement + text[position + 1 :]

    def sleep(self):
        """A small injected delay (wall clock only; work is untouched)."""
        time.sleep(self.rng.random() * 0.01)

    def __repr__(self):
        return f"Fault({self.point}, {self.kind})"


class ChaosPlan:
    """A seeded, rate-limited schedule of faults.

    Args:
        seed: integer seed; the whole schedule is a pure function of it.
        rate: per-draw injection probability in [0, 1].
        kinds: optional ``{point: (kind, ...)}`` override of
            :data:`DEFAULT_KINDS` (e.g. ``{"solver.pre_solve":
            ("budget",)}`` for exhaustion tests).
    """

    def __init__(self, seed, rate, kinds=None):
        self.seed = int(seed)
        self.rate = float(rate)
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"chaos rate must be in [0, 1], got {self.rate}")
        self.kinds = dict(DEFAULT_KINDS)
        if kinds:
            self.kinds.update(kinds)
        self._draws = {}
        self.injected = {}  # (point, kind) -> count

    @property
    def total_injected(self):
        return sum(self.injected.values())

    def injected_deltas(self, baseline=None):
        """JSON-safe ``{"point|kind": n}`` since a snapshot (for workers)."""
        baseline = baseline or {}
        deltas = {}
        for key, count in self.injected.items():
            extra = count - baseline.get(key, 0)
            if extra:
                deltas["|".join(key)] = extra
        return deltas

    def _rng(self, point, salt, count):
        digest = hashlib.sha256(
            f"{self.seed}|{point}|{salt}|{count}".encode("utf-8")
        ).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def draw(self, point, salt=""):
        """Draw at a point; returns a :class:`Fault` or None."""
        key = (point, str(salt))
        count = self._draws.get(key, 0)
        self._draws[key] = count + 1
        rng = self._rng(point, salt, count)
        if rng.random() >= self.rate:
            return None
        kinds = self.kinds.get(point) or ("delay",)
        kind = kinds[int(rng.random() * len(kinds)) % len(kinds)]
        self.injected[(point, kind)] = self.injected.get((point, kind), 0) + 1
        telemetry.counter_add("chaos.injected", point=point, kind=kind)
        return Fault(point, kind, rng)


def parse_spec(spec):
    """Parse a ``seed:rate`` spec (e.g. ``1234:0.1``) into a plan."""
    try:
        seed_text, rate_text = str(spec).split(":", 1)
        return ChaosPlan(int(seed_text), float(rate_text))
    except ValueError as error:
        raise ValueError(
            f"bad chaos spec {spec!r} (expected 'seed:rate', e.g. '1234:0.1')"
        ) from error


# -- the active plan --------------------------------------------------------

_plan = None
_env_checked = False


def install(plan):
    """Activate a plan for this process (overrides the env variable)."""
    global _plan, _env_checked
    _plan = plan
    _env_checked = True
    return plan


def uninstall():
    """Deactivate chaos; the env variable will be re-read on next use."""
    global _plan, _env_checked
    _plan = None
    _env_checked = False


def active():
    """The active plan, lazily parsed from ``REPRO_CHAOS`` (or None).

    The lazy env read means worker processes -- forked or spawned --
    inherit chaos automatically.
    """
    global _plan, _env_checked
    if not _env_checked:
        _env_checked = True
        spec = os.environ.get(ENV_VAR)
        if spec:
            _plan = parse_spec(spec)
    return _plan


def inject(point, salt="", governor=None):
    """Draw at an injection point and apply control-flow faults in place.

    ``crash`` raises :class:`ChaosCrash`; ``delay`` sleeps briefly;
    ``budget`` cancels the (given or active) governor so the solve
    degrades to a structured ``unknown``. Data faults (``corrupt``,
    ``drop``) are returned as a :class:`Fault` for the caller to apply.
    Returns None when nothing fired or the fault was applied here.
    """
    plan = active()
    if plan is None:
        return None
    fault = plan.draw(point, salt=salt)
    if fault is None:
        return None
    if fault.kind == "crash":
        raise ChaosCrash(f"chaos: injected crash at {point}")
    if fault.kind == "delay":
        fault.sleep()
        return None
    if fault.kind == "budget":
        if governor is None:
            from repro.guard import governor as governor_module

            governor = governor_module.active()
        governor.cancel()
        return None
    return fault
