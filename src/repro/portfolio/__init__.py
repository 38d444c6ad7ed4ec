"""Portfolio solving: race {original, STAUB-translated} configurations.

Public surface:

- :class:`~repro.portfolio.scheduler.InterleavingScheduler` --
  deterministic virtual-clock racing (byte-reproducible).
- :func:`~repro.portfolio.scheduler.parallel_race` -- racing on real
  worker processes for ``--jobs N``.
- :func:`~repro.portfolio.scheduler.race_precomputed` -- portfolio
  accounting over already-computed lane outcomes (used by
  :func:`repro.core.pipeline.portfolio_time`).
- lane definitions in :mod:`repro.portfolio.tasks`.

This package ``__init__`` imports only the scheduler;
:mod:`repro.portfolio.tasks` pulls in the solver stack and is imported
lazily so that :mod:`repro.core.pipeline` can depend on the scheduler
without a cycle.
"""

from repro.portfolio.scheduler import (
    DEFAULT_GROWTH,
    DEFAULT_SLICE,
    Attempt,
    InterleavingScheduler,
    PortfolioOutcome,
    PrecomputedAttempt,
    parallel_race,
    race_precomputed,
)

__all__ = [
    "Attempt",
    "ArbitrageTask",
    "BaselineTask",
    "DEFAULT_GROWTH",
    "DEFAULT_SLICE",
    "InterleavingScheduler",
    "PortfolioOutcome",
    "PrecomputedAttempt",
    "default_tasks",
    "parallel_race",
    "race_precomputed",
]

_LAZY = {"ArbitrageTask", "BaselineTask", "default_tasks"}


def __getattr__(name):
    if name in _LAZY:
        from repro.portfolio import tasks

        return getattr(tasks, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
