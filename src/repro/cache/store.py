"""The solve cache: a bounded LRU store with optional JSON persistence.

Entries are plain JSON-serializable dicts so a cache file written by one
process (or one ``run_all`` invocation) can warm any later one. Models
are encoded value-by-value (ints, booleans, fractions, bitvectors);
a model value the encoder does not recognize raises ``TypeError`` and
the admission rule (:mod:`repro.cache.admission`) skips caching that
result rather than storing a lossy entry.

Hit/miss/eviction counts feed the :mod:`repro.telemetry` registry
(``cache.hit`` / ``cache.miss`` / ``cache.eviction``) and are also kept
on the store itself so the CLI can report them without telemetry. The
persistent file carries lifetime totals across sessions.

Persistence is crash-safe: files are written to a temp sibling and
atomically renamed into place, every entry carries a content checksum,
and a file (or entry) that fails to load is quarantined -- moved aside
to ``<path>.corrupt`` (or dropped) with a ``cache.quarantined`` counter
-- rather than aborting the run.
"""

import hashlib
import json
import os
from collections import OrderedDict
from contextlib import contextmanager
from fractions import Fraction

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro import telemetry
from repro.errors import CacheError
from repro.guard import chaos
from repro.smtlib.values import BVValue

#: Default in-memory entry bound; old entries are evicted LRU-first.
DEFAULT_MAX_ENTRIES = 4096

#: Default bound on stored unsat cores (evicted oldest-first).
DEFAULT_MAX_CORES = 4096

#: Version 2 adds per-entry checksums; version 3 adds the unsat-core
#: section (with its own checksum). Older files still load.
_FORMAT_VERSION = 3
_ACCEPTED_VERSIONS = (1, 2, 3)


def _entry_checksum(entry):
    """Short content checksum for one cache entry dict."""
    canonical = json.dumps(entry, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@contextmanager
def _advisory_lock(path):
    """An exclusive advisory file lock (no-op where flock is missing).

    Serializes concurrent :meth:`SolveCache.save` calls across processes
    so the read-merge-write cycle is atomic with respect to other
    writers of the same file.
    """
    if fcntl is None:
        yield
        return
    handle = open(path, "a+", encoding="utf-8")
    try:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        yield
    finally:
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        finally:
            handle.close()


# -- model value encoding ---------------------------------------------------


def encode_value(value):
    """Encode one model value as a JSON-safe tagged dict."""
    if isinstance(value, bool):
        return {"t": "bool", "v": value}
    if isinstance(value, int):
        return {"t": "int", "v": value}
    if isinstance(value, Fraction):
        return {"t": "frac", "n": value.numerator, "d": value.denominator}
    if isinstance(value, BVValue):
        return {"t": "bv", "v": value.unsigned, "w": value.width}
    raise TypeError(f"cannot encode model value {value!r}")


def decode_value(encoded):
    """Inverse of :func:`encode_value`."""
    tag = encoded["t"]
    if tag == "bool":
        return bool(encoded["v"])
    if tag == "int":
        return int(encoded["v"])
    if tag == "frac":
        return Fraction(encoded["n"], encoded["d"])
    if tag == "bv":
        return BVValue(encoded["v"], encoded["w"])
    raise ValueError(f"unknown encoded value tag {tag!r}")


def encode_model(model):
    if model is None:
        return None
    return {name: encode_value(value) for name, value in model.items()}


def decode_model(encoded):
    if encoded is None:
        return None
    return {name: decode_value(value) for name, value in encoded.items()}


def entry_from_result(result):
    """Serialize a :class:`SolveResult` into a cache entry dict."""
    return {
        "status": result.status,
        "work": result.work,
        "engine": result.engine,
        "model": encode_model(result.model),
        "stats": dict(result.stats),
    }


def result_from_entry(entry):
    """Rehydrate a :class:`SolveResult` from a cache entry dict."""
    # Imported here: repro.solver's facade imports this module at load
    # time, so a top-level import would be circular.
    from repro.solver.result import SolveResult

    return SolveResult(
        entry["status"],
        decode_model(entry.get("model")),
        entry.get("work", 0),
        engine=entry.get("engine", ""),
        stats=dict(entry.get("stats") or {}),
        cached=True,
    )


def entry_from_report(report):
    """Serialize a refinement round's :class:`ArbitrageReport` for the cache."""
    return {
        "kind": "refine-round",
        "case": report.case,
        "t_trans": report.t_trans,
        "t_post": report.t_post,
        "t_check": report.t_check,
        "width": None if report.width is None else int(report.width),
        "bounded_status": report.bounded_status,
        "model": encode_model(report.model),
    }


def report_from_entry(entry):
    """Rehydrate a refinement round's :class:`ArbitrageReport`.

    The inference and fixed-point shape are not persisted; a rehydrated
    report carries the verdict, model, and cost split -- everything the
    refinement loop and the evaluation read.
    """
    from repro.core.pipeline import ArbitrageReport

    report = ArbitrageReport(
        entry["case"],
        model=decode_model(entry.get("model")),
        t_trans=entry.get("t_trans", 0),
        t_post=entry.get("t_post", 0),
        t_check=entry.get("t_check", 0),
        width=entry.get("width"),
        bounded_status=entry.get("bounded_status"),
    )
    report.stats["case"] = report.case
    return report


# -- the store --------------------------------------------------------------


class SolveCache:
    """Bounded LRU cache of solve entries, optionally backed by a file.

    Besides whole-key entries the store keeps *unsat cores*: canonical
    per-assertion digest sets proven unsatisfiable. A whole-key miss can
    still be answered ``unsat`` when some stored core is a subset of the
    query's digest set (Cache-a-lot style subsumption; see
    :meth:`find_core`).

    Args:
        path: JSON file to load from (if it exists) and :meth:`save` to.
        max_entries: in-memory bound; ``None`` means unbounded.
        max_cores: bound on stored unsat cores; ``None`` means unbounded.
        core_reuse: when False, :meth:`add_core` and :meth:`find_core`
            are no-ops -- the differential suites use this to get a
            reuse-disabled oracle with otherwise identical caching.
    """

    def __init__(
        self,
        path=None,
        max_entries=DEFAULT_MAX_ENTRIES,
        max_cores=DEFAULT_MAX_CORES,
        core_reuse=True,
    ):
        self.path = os.fspath(path) if path is not None else None
        self.max_entries = max_entries
        self.max_cores = max_cores
        self.core_reuse = core_reuse
        self._entries = OrderedDict()
        self._kinds = {}
        self._cores = OrderedDict()  # core id -> frozenset of digests
        self._core_index = {}  # min digest -> [core id, ...]
        self._core_seen = set()  # the digest frozensets themselves
        self._next_core_id = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.quarantined = 0
        self.core_hits = 0
        self.cores_stored = 0
        self._lifetime = {"hits": 0, "misses": 0, "evictions": 0, "core_hits": 0}
        if self.path is not None and os.path.exists(self.path):
            try:
                self._load()
            except (OSError, ValueError, KeyError, TypeError, CacheError):
                self._quarantine_file()

    def __len__(self):
        return len(self._entries)

    def __contains__(self, key):
        return key in self._entries

    def get(self, key, kind="solve"):
        """Look up an entry; returns None (and counts a miss) if absent."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            telemetry.counter_add("cache.miss", kind=kind)
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        telemetry.counter_add("cache.hit", kind=kind)
        return entry

    def put(self, key, entry, kind="solve"):
        """Insert (or refresh) an entry, evicting LRU past the bound.

        Evictions are attributed to the *victim* entry's kind, not the
        kind being inserted -- the two differ whenever a fresh solve
        entry pushes out an old arbitrage record, and the eviction
        telemetry must report what was dropped.
        """
        self._entries[key] = entry
        self._kinds[key] = kind
        self._entries.move_to_end(key)
        while self.max_entries is not None and len(self._entries) > self.max_entries:
            victim, _ = self._entries.popitem(last=False)
            victim_kind = self._kinds.pop(victim, "solve")
            self.evictions += 1
            telemetry.counter_add("cache.eviction", kind=victim_kind)

    def clear(self):
        """Drop every entry and core, roll counters, persist if backed.

        Session counters are rolled into the lifetime totals (a clear is
        an event in the store's history, not amnesia about it), and when
        the store has a path the emptied state is written atomically --
        otherwise a later :meth:`save` would resurrect the cleared
        entries from the old file.
        """
        for field in self._lifetime:
            self._lifetime[field] += getattr(self, field)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.core_hits = 0
        self.cores_stored = 0
        self._entries.clear()
        self._kinds.clear()
        self._cores.clear()
        self._core_index.clear()
        self._core_seen.clear()
        if self.path is not None:
            self.save(merge=False)

    def stats(self):
        """Session and lifetime counters plus the current entry count."""
        return {
            "entries": len(self._entries),
            "cores": len(self._cores),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "quarantined": self.quarantined,
            "core_hits": self.core_hits,
            "cores_stored": self.cores_stored,
            "lifetime_hits": self._lifetime["hits"] + self.hits,
            "lifetime_misses": self._lifetime["misses"] + self.misses,
            "lifetime_evictions": self._lifetime["evictions"] + self.evictions,
            "lifetime_core_hits": self._lifetime["core_hits"] + self.core_hits,
        }

    # -- unsat-core subsumption (Cache-a-lot) ------------------------------

    def has_cores(self):
        """True when at least one unsat core is stored (cheap pre-check)."""
        return bool(self._cores)

    def add_core(self, digests, kind="solve"):
        """Store an unsat core as a frozenset of canonical digests.

        Guards (soundness first): an empty core is rejected outright --
        it would subsume *every* future query -- and which cores may be
        offered at all is the admission rule's decision
        (:func:`repro.cache.admission.record`). A core equal to or
        subsumed by an already-stored core is redundant (the stored one
        answers at least as many queries) and skipped.

        Returns True iff the core was stored.
        """
        if not self.core_reuse:
            return False
        digests = frozenset(digests)
        if not digests:
            telemetry.counter_add("cache.core_rejected", reason="empty")
            return False
        if digests in self._core_seen:
            return False
        if self._subsuming_core(digests) is not None:
            telemetry.counter_add("cache.core_rejected", reason="redundant")
            return False
        core_id = self._next_core_id
        self._next_core_id += 1
        self._cores[core_id] = digests
        self._core_seen.add(digests)
        self._core_index.setdefault(min(digests), []).append(core_id)
        self.cores_stored += 1
        telemetry.counter_add("cache.core_stored", kind=kind)
        while self.max_cores is not None and len(self._cores) > self.max_cores:
            victim_id, victim = self._cores.popitem(last=False)
            self._core_seen.discard(victim)
            bucket = self._core_index.get(min(victim))
            if bucket is not None:
                bucket.remove(victim_id)
                if not bucket:
                    del self._core_index[min(victim)]
            telemetry.counter_add("cache.core_eviction")
        return True

    def _subsuming_core(self, digests):
        """Some stored core that is a subset of ``digests``, or None.

        Lookup is *indexed*, not a linear scan: every core is filed
        under its minimum digest, and a core can only be a subset of the
        query if that representative digest appears in the query -- so
        only the buckets of the query's own digests are examined.
        Iteration is over the sorted query digests (then insertion order
        within a bucket), so the answer is deterministic.
        """
        if not self._cores:
            return None
        for digest in sorted(digests):
            for core_id in self._core_index.get(digest, ()):
                core = self._cores[core_id]
                if core <= digests:
                    return core
        return None

    def find_core(self, digests, kind="solve"):
        """Answer a query by core subsumption.

        Returns a stored core whose digest set is a subset of the
        query's ``digests`` (proving the query unsat with zero solving),
        or None. Hits count ``cache.core_hit``; there is deliberately no
        miss counter -- every whole-key miss already counts
        ``cache.miss``.
        """
        if not self.core_reuse or not self._cores:
            return None
        core = self._subsuming_core(frozenset(digests))
        if core is None:
            return None
        self.core_hits += 1
        telemetry.counter_add("cache.core_hit", kind=kind)
        return core

    # -- persistence -------------------------------------------------------

    def _quarantine_file(self):
        """Move an unreadable cache file aside and start empty."""
        self._entries.clear()
        self._kinds.clear()
        self._cores.clear()
        self._core_index.clear()
        self._core_seen.clear()
        self._lifetime = {"hits": 0, "misses": 0, "evictions": 0, "core_hits": 0}
        quarantine = f"{self.path}.corrupt"
        try:
            os.replace(self.path, quarantine)
        except OSError:
            pass  # e.g. vanished between the failed read and now
        self.quarantined += 1
        telemetry.counter_add("cache.quarantined", reason="file")

    def _load(self):
        with open(self.path, "r", encoding="utf-8") as handle:
            text = handle.read()
        fault = chaos.inject("cache.load", salt=self.path)
        if fault is not None:
            text = fault.garble(text)
        payload = json.loads(text)
        version = payload.get("version")
        if version not in _ACCEPTED_VERSIONS:
            raise CacheError(
                f"cache file {self.path} has unsupported version {version!r}"
            )
        entries = payload.get("entries", {})
        if version >= 2:
            # Version 2 writes a checksum for every entry: an entry whose
            # checksum is missing or wrong is bit-rot (or a torn
            # concurrent writer) -- drop it, keep the rest of the file.
            checksums = payload.get("checksums") or {}
            for key, entry in entries.items():
                if _entry_checksum(entry) != checksums.get(key):
                    self.quarantined += 1
                    telemetry.counter_add("cache.quarantined", reason="checksum")
                    continue
                self._entries[key] = entry
            # An orphaned checksum means the entry key itself was garbled.
            for key in checksums:
                if key not in entries:
                    self.quarantined += 1
                    telemetry.counter_add("cache.quarantined", reason="checksum")
        else:
            self._entries.update(entries)
        for key, entry in self._entries.items():
            if isinstance(entry, dict):
                self._kinds[key] = entry.get("kind", "solve")
        if version >= 3:
            # Cores carry their own checksum: a garbled core section is
            # dropped wholesale (a missing core is only a missed
            # shortcut; a corrupted one could be unsound).
            cores = payload.get("cores") or []
            if cores and _entry_checksum(cores) != payload.get("cores_checksum"):
                self.quarantined += 1
                telemetry.counter_add("cache.quarantined", reason="cores")
            else:
                for digests in cores:
                    self._install_core(frozenset(digests))
        stored = payload.get("stats", {})
        for field in self._lifetime:
            self._lifetime[field] = int(stored.get(field, 0))

    def _install_core(self, digests):
        """Silently re-index one persisted core (guards, no telemetry)."""
        if not digests or digests in self._core_seen:
            return
        core_id = self._next_core_id
        self._next_core_id += 1
        self._cores[core_id] = digests
        self._core_seen.add(digests)
        self._core_index.setdefault(min(digests), []).append(core_id)

    def _merge_from_disk(self, target):
        """Fold another writer's entries from ``target`` into this store.

        Called under the save lock: any entry (or core) on disk that this
        store does not hold was written by a concurrent process after we
        loaded, and overwriting it blind would silently discard that
        worker's results. Disk-only entries join at the cold (LRU-first)
        end -- our own entries are fresher -- capped so the merge never
        evicts anything we hold; entries failing their checksum are
        skipped (bit-rot does not deserve rescue). Lifetime stats merge
        by elementwise max, which never double-counts a shared base.
        """
        try:
            with open(target, "r", encoding="utf-8") as handle:
                payload = json.loads(handle.read())
        except (OSError, ValueError):
            return  # unreadable previous file: nothing mergeable
        if not isinstance(payload, dict):
            return
        version = payload.get("version")
        if version not in _ACCEPTED_VERSIONS:
            return
        entries = payload.get("entries")
        checksums = payload.get("checksums") or {}
        merged = OrderedDict()
        if isinstance(entries, dict):
            for key, entry in entries.items():
                if key in self._entries:
                    continue
                if version >= 2 and _entry_checksum(entry) != checksums.get(key):
                    continue
                merged[key] = entry
        if self.max_entries is not None:
            room = self.max_entries - len(self._entries)
            while len(merged) > max(0, room):
                # Disk order is cold-to-hot: drop the coldest first.
                merged.popitem(last=False)
                telemetry.counter_add("cache.merge_dropped")
        if merged:
            combined = OrderedDict(merged)
            combined.update(self._entries)
            self._entries = combined
            for key, entry in merged.items():
                if isinstance(entry, dict):
                    self._kinds[key] = entry.get("kind", "solve")
            telemetry.counter_add("cache.merged", len(merged))
        if version >= 3 and self.core_reuse:
            cores = payload.get("cores") or []
            if cores and _entry_checksum(cores) == payload.get("cores_checksum"):
                for digests in cores:
                    self._install_core(frozenset(digests))
        stored = payload.get("stats") or {}
        for field in self._lifetime:
            try:
                self._lifetime[field] = max(
                    self._lifetime[field], int(stored.get(field, 0))
                )
            except (TypeError, ValueError):
                continue

    def save(self, path=None, merge=True):
        """Atomically write all entries (and lifetime stats) to the file.

        The payload lands in a temp sibling first and is renamed over the
        target with :func:`os.replace`, so a crash mid-write can never
        leave a truncated cache behind. The whole cycle runs under an
        advisory file lock, and entries another process persisted since
        we last loaded are merged in first (see :meth:`_merge_from_disk`)
        -- two workers flushing the same shard keep both result sets
        instead of last-writer-wins. ``merge=False`` writes this store's
        state verbatim (:meth:`clear` uses it: a clear must not
        resurrect what it just dropped).
        """
        target = path if path is not None else self.path
        if target is None:
            raise ValueError("SolveCache has no path to save to")
        with _advisory_lock(f"{target}.lock"):
            if merge and os.path.exists(target):
                self._merge_from_disk(target)
            stats = self.stats()
            entries = dict(self._entries)
            cores = [sorted(digests) for digests in self._cores.values()]
            payload = {
                "version": _FORMAT_VERSION,
                "stats": {
                    "hits": stats["lifetime_hits"],
                    "misses": stats["lifetime_misses"],
                    "evictions": stats["lifetime_evictions"],
                    "core_hits": stats["lifetime_core_hits"],
                },
                "entries": entries,
                "checksums": {
                    key: _entry_checksum(entry) for key, entry in entries.items()
                },
                "cores": cores,
                "cores_checksum": _entry_checksum(cores),
            }
            text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
            fault = chaos.inject("cache.persist", salt=str(target))
            if fault is not None:
                text = fault.garble(text)
            temp = f"{target}.tmp.{os.getpid()}"
            try:
                with open(temp, "w", encoding="utf-8") as handle:
                    handle.write(text)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(temp, target)
            finally:
                if os.path.exists(temp):
                    os.remove(temp)
        return target
