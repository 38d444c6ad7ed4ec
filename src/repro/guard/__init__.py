"""Resource governance, fault injection and process supervision.

Three cooperating subsystems:

- :mod:`repro.guard.governor` -- the :class:`ResourceBudget` envelope
  (work ceiling, wall-clock deadline, recursion/memory ceilings,
  cooperative cancellation) that every layer checks via the active
  governor, plus the give-up bookkeeping that turns exhaustion into a
  structured ``unknown`` instead of an exception escaping the facade.
- :mod:`repro.guard.chaos` -- seeded, deterministic fault injection
  (crashes, delays, garbled payloads, budget exhaustion) at named
  points, so the degradation paths are provably exercised by tests and
  the CI chaos smoke.
- :mod:`repro.guard.pool` -- the supervised worker pool behind every
  real-process fan-out (``--jobs``, ``staub serve --workers``): private
  per-worker pipes, reaping through process sentinels, one retry, and
  zombie-free shutdown.
"""

from repro.guard.governor import (
    NULL_GOVERNOR,
    Deadline,
    NullGovernor,
    ResourceBudget,
    activate,
    active,
)

__all__ = [
    "Deadline",
    "NullGovernor",
    "NULL_GOVERNOR",
    "ResourceBudget",
    "activate",
    "active",
]
