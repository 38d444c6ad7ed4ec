"""The solve cache's one admission rule, and the lookup/record pair.

A stored entry or unsat core must be a fact about its key. STAUB is
sound because a bounded ``unsat`` never answers the original question
and every ``sat`` is re-verified (Fig. 6); the cache keeps the matching
promise, and Cache-a-lot core subsumption is sound only because of it.
Every in-process cache writer therefore goes through :func:`record`
(the solve service's workers through :func:`admit`), which applies:

- **Taint.** A result is tainted when a chaos fault fired after the
  solve began, or when its governor gave up with a reason in
  :data:`TAINT_REASONS` -- a wall-clock or outside condition, not a
  property of the question. A tainted result stores nothing.
- **Entries.** An untainted result stores its entry when it is
  conclusive, or when it is an ``unknown`` that its key fully
  determines. Only the caller knows the latter (it is a property of the
  caller's key, not of the cache): the facade's own-budget ``unknown``
  is keyed by that budget, and incremental refinement's conflict-capped
  sub-round by its position in the schedule.
- **Cores.** A core is stored only from an untainted ``unsat``, and only
  when it is non-empty (an empty core would subsume every query) and not
  from a root conflict (``None``: no assertion subset is attributable).
- **Encoding.** An entry whose model cannot be encoded is skipped.

:func:`lookup` is the read side: a whole-key entry hit, else a stored
core that subsumes the query's assertion digests.
"""

from repro.cache.store import result_from_entry
from repro.guard import chaos
from repro.telemetry.stats import unified_stats

#: Governor give-up reasons that taint a result: a wall-clock deadline,
#: a cancellation, or an enclosing governor's ("parent") of either kind.
#: The key never includes the outer governor, so such an ``unknown``
#: would replay as if the question itself were undecidable in budget.
TAINT_REASONS = ("deadline", "cancelled", "parent")

#: Engine name of a result answered by core subsumption.
CORE_REUSE = "core-reuse"


class Watch:
    """What can taint one solve, snapshotted as the solve begins.

    Args:
        governor: the governor the solve runs under; its give-up reason
            is read when the result is recorded.
    """

    __slots__ = ("governor", "_plan", "_injected")

    def __init__(self, governor):
        self.governor = governor
        self._plan = chaos.active()
        self._injected = self._plan.total_injected if self._plan is not None else 0

    @property
    def tainted(self):
        """True when a fault fired or the governor gave up for a taint reason."""
        if self.governor.reason in TAINT_REASONS:
            return True
        return self._plan is not None and self._plan.total_injected != self._injected


def lookup(store, key=None, digests=None, kind="solve", core_kind=None):
    """Answer a query from the cache without solving, or return None.

    Args:
        store: the cache, or None (caching off).
        key: the whole-key entry to try first (None: cores only).
        digests: a zero-argument callable returning the query's assertion
            digest set; called only when the store holds cores.
        kind / core_kind: telemetry labels of the entry and the core
            lookup (``core_kind`` defaults to ``kind``).

    Returns:
        The cached :class:`~repro.solver.result.SolveResult` of an entry
        hit, an ``unsat`` result with engine :data:`CORE_REUSE` when a
        stored core subsumes the query, or None.
    """
    if store is None:
        return None
    if key is not None:
        entry = store.get(key, kind=kind)
        if entry is not None:
            return result_from_entry(entry)
    if digests is not None and store.has_cores():
        query = digests()
        if query and store.find_core(query, kind=core_kind or kind) is not None:
            # Imported here: repro.solver's facade imports this module at
            # load time, so a top-level import would be circular.
            from repro.solver.result import UNSAT, SolveResult

            return SolveResult(
                UNSAT,
                None,
                0,
                engine=CORE_REUSE,
                stats=unified_stats(core_reuse=True),
                cached=True,
            )
    return None


def admit(watch, status, entry, determined=False):
    """The entry the rule lets into the cache for one result, or None.

    Args:
        watch: the :class:`Watch` opened as the solve began.
        status: the result's verdict; anything but ``"unknown"`` is
            conclusive.
        entry: a zero-argument callable encoding the result as an entry.
        determined: the caller's key fully determines an ``unknown``.
    """
    if watch.tainted or (status == "unknown" and not determined):
        return None
    try:
        return entry()
    except TypeError:
        return None  # a model value with no JSON encoding


def record(store, watch, status, key=None, entry=None, determined=False,
           core=None, kind="solve"):
    """Store what the rule admits of one fresh result.

    Args:
        store: the cache, or None (caching off).
        watch / status / entry / determined: as for :func:`admit`; the
            entry is stored under ``key`` (None: no entry).
        core: a zero-argument callable returning the result's unsat core
            as a digest set, or None after a root conflict; called only
            when a core may be stored, so an expensive extraction runs
            only then.
        kind: telemetry label of the stored entry and core.
    """
    if store is None or watch.tainted:
        return
    if key is not None:
        admitted = admit(watch, status, entry, determined)
        if admitted is not None:
            store.put(key, admitted, kind=kind)
    if core is not None and status == "unsat" and store.core_reuse:
        digests = core()
        if digests:
            store.add_core(digests, kind=kind)
