"""Result caching for the STAUB stack.

The cache is keyed by the canonical printed form of the *normalized*
script (see :mod:`repro.cache.keys`): commutative arguments ordered,
assertions de-duplicated and sorted, declarations sorted. Two scripts
that are permutations of the same conjunction therefore share a key --
and never solve twice.

A store reaches the solving stack one way: ``with activated(store):``
makes it the process-wide *active cache* for the block. Each cached
layer -- :func:`repro.solver.solve_script`, :class:`repro.solver.Session`,
:class:`repro.core.refinement.RefinementStaub`,
:meth:`repro.core.pipeline.Staub.run` and
:class:`repro.core.session.ArbitrageSession` -- reads it with one
:func:`get_cache` call and looks up and records through it, so a caller
that owns a store activates it around its solves and every layer below
sees the same one.
"""

from contextlib import contextmanager

from repro.cache.keys import (
    CanonicalOrder,
    assertion_digest,
    cache_key,
    canonical_text,
    normalize_assertions,
    script_digests,
)
from repro.cache.sharded import DEFAULT_SHARDS, ShardedSolveCache, open_cache
from repro.cache.store import (
    DEFAULT_MAX_CORES,
    DEFAULT_MAX_ENTRIES,
    SolveCache,
    decode_model,
    encode_model,
    entry_from_result,
    result_from_entry,
)

__all__ = [
    "CanonicalOrder",
    "DEFAULT_MAX_CORES",
    "DEFAULT_MAX_ENTRIES",
    "DEFAULT_SHARDS",
    "ShardedSolveCache",
    "SolveCache",
    "activated",
    "open_cache",
    "assertion_digest",
    "cache_key",
    "canonical_text",
    "decode_model",
    "encode_model",
    "entry_from_result",
    "get_cache",
    "normalize_assertions",
    "result_from_entry",
    "script_digests",
]

#: The process-wide active cache (None = caching off).
_active = None


def get_cache():
    """The active :class:`SolveCache`, or None when caching is off."""
    return _active


@contextmanager
def activated(cache):
    """Make ``cache`` the active cache for a ``with`` block (None turns
    caching off inside it); the previous one is restored on exit."""
    global _active
    previous, _active = _active, cache
    try:
        yield cache
    finally:
        _active = previous
