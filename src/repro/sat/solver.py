"""A conflict-driven clause learning (CDCL) SAT solver on flat arrays.

A faithful MiniSat-style architecture in pure Python:

- a single clause arena (:class:`~repro.sat.arena.ClauseArena`): every
  clause is a block of flat integer words, identified by its arena
  offset -- no per-clause list objects, no ``id()``-based identity;
- two-watched-literal unit propagation over flat watch lists (pairs of
  ``[entry, partner]`` words; a binary clause stores its negated offset
  plus the other literal, so binary visits never touch the arena);
- first-UIP conflict analysis with clause minimization;
- VSIDS variable activities with a heap-backed variable order and phase
  saving; learned-clause activities live in a slot table indexed from
  the clause header;
- Luby-sequence restarts;
- learned-clause database reduction driven by clause activity, with an
  O(1) locked-clause check (a clause serving as a reason is never
  reclaimed) and arena compaction once half the arena is dead space;
- incremental solving under assumptions with final-conflict (unsat
  core) extraction over the assumption set;
- a deterministic work budget (propagation count) so that "timeouts" are
  reproducible across machines -- the evaluation harness uses this as its
  virtual clock. The search is budget-prefix deterministic (the cap only
  decides where it stops), so ``solve(resume=True)`` can pause a search
  at its cap and later continue it on exactly the trajectory of one
  search with the larger cap.

Literals use the DIMACS convention externally (``v`` / ``-v``) and are
mapped internally to ``2*(v-1)`` / ``2*(v-1)+1``.

Key invariants (relied on throughout; see also README "SAT core
internals"):

- Watch positions are literals 0 and 1 of a block. Propagation may
  reorder literals *within* a block but never changes its offset.
- For blocks of size > 2, a reason block's literal 0 is the literal it
  implied. Propagation cannot displace it while the implication holds
  (a reason's first literal is true, and only false literals are
  swapped out of the watch positions), which is what makes the locked
  check ``lit_val[data[c]] > 0 and reason[data[c] >> 1] == c`` exact.
  Binary clauses propagate straight from the watch pair without
  normalizing the block, so either literal of a size-2 block may be the
  implied one; ``is_locked`` checks both.
- Detaching a locked clause is deferred: the offset goes into a pending
  set and the detach completes when backtracking unassigns the implied
  literal. Until then the clause stays in both watch lists, so
  propagation over it remains sound.
- Compaction remaps every stored offset (watch pairs, reasons, learned
  list, pending detaches, and the attached CNF's clause index) through
  the mapping returned by the arena in one pass.
"""

from repro import guard, telemetry
from repro.errors import SolverError
from repro.sat.arena import ClauseArena

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

#: Reason sentinel: the variable was a decision or assumption.
_NO_REASON = -1


def luby(index):
    """The ``index``-th element (0-based) of the Luby restart sequence.

    The sequence is 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... (MiniSat's
    finite-subsequence formulation).
    """
    size = 1
    sequence = 0
    while size < index + 1:
        sequence += 1
        size = 2 * size + 1
    while size - 1 != index:
        size = (size - 1) // 2
        sequence -= 1
        index %= size
    return 1 << sequence


class SatStats:
    """Work counters; ``work()`` is the deterministic virtual cost."""

    __slots__ = (
        "decisions",
        "propagations",
        "conflicts",
        "restarts",
        "learned_clauses",
        "deleted_clauses",
        "minimized_literals",
    )

    def __init__(self):
        self.decisions = 0
        self.propagations = 0
        self.conflicts = 0
        self.restarts = 0
        self.learned_clauses = 0
        self.deleted_clauses = 0
        self.minimized_literals = 0

    def work(self):
        """Deterministic virtual work: propagations dominate runtime."""
        return self.propagations + 10 * self.conflicts + self.decisions

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}


class _VarOrder:
    """Max-heap over variable activities (MiniSat's VarOrder)."""

    def __init__(self):
        self.heap = []
        self.position = {}

    # Both sifts move a hole instead of swapping pairs: the comparison
    # sequence and the final heap array are identical to the swap-based
    # formulation, but each step writes one slot instead of two and no
    # helper calls sit on the bump/backtrack hot path.

    def _sift_up(self, index, activity):
        heap = self.heap
        position = self.position
        var = heap[index]
        var_activity = activity[var]
        while index > 0:
            parent = (index - 1) >> 1
            parent_var = heap[parent]
            if var_activity > activity[parent_var]:
                heap[index] = parent_var
                position[parent_var] = index
                index = parent
            else:
                break
        heap[index] = var
        position[var] = index

    def _sift_down(self, index, activity):
        heap = self.heap
        position = self.position
        size = len(heap)
        var = heap[index]
        var_activity = activity[var]
        while True:
            left = 2 * index + 1
            if left >= size:
                break
            best_var = heap[left]
            best = left
            right = left + 1
            if right < size:
                right_var = heap[right]
                if activity[right_var] > activity[best_var]:
                    best_var = right_var
                    best = right
            if activity[best_var] > var_activity:
                heap[index] = best_var
                position[best_var] = index
                index = best
            else:
                break
        heap[index] = var
        position[var] = index

    def push(self, var, activity):
        if var in self.position:
            return
        self.position[var] = len(self.heap)
        self.heap.append(var)
        self._sift_up(len(self.heap) - 1, activity)

    def pop(self, activity):
        heap = self.heap
        top = heap[0]
        last = heap.pop()
        del self.position[top]
        if heap:
            heap[0] = last
            self.position[last] = 0
            self._sift_down(0, activity)
        return top

    def update(self, var, activity):
        index = self.position.get(var)
        if index is not None:
            self._sift_up(index, activity)

    def __bool__(self):
        return bool(self.heap)


class SatSolver:
    """CDCL solver over a fixed variable universe.

    Typical standalone use::

        solver = SatSolver(num_vars)
        for clause in clauses:
            solver.add_clause(clause)
        result = solver.solve(max_work=10**7)
        if result == SAT:
            model = solver.model()   # {var: bool}

    Structure-shared use (zero-copy attach to a blasted CNF)::

        solver = SatSolver(cnf=blaster.cnf)
        solver.attach()              # watch all current clauses in place
        ...
        blaster.assert_term(more)    # emits into the same arena
        solver.attach()              # pick up only the new clauses

    An attached solver is the arena's single search consumer: it may
    reorder literals *within* attached blocks (watch normalization), so
    the CNF's clause view preserves clause sets, not literal order.
    """

    def __init__(self, num_vars=0, cnf=None):
        self._cnf = cnf
        self._arena = cnf.arena if cnf is not None else ClauseArena()
        self._attached = 0  # CNF clauses already processed by attach()
        self.num_vars = 0
        self._num_problem = 0  # watched problem clauses (reduce trigger)
        self._learned_refs = []
        self._cla_activity = []  # activity per slot (header word c-3)
        self._free_slots = []
        self._watches = []  # literal -> flat [entry, partner, ...] pairs
        self._lit_val = []  # literal -> 1 true / -1 false / 0 unassigned
        self._level = []
        self._reason = []  # var -> arena offset or _NO_REASON
        self._trail = []
        self._trail_lim = []
        self._queue_head = 0
        self._activity = []
        self._var_inc = 1.0
        self._var_decay = 1.0 / 0.95
        self._cla_inc = 1.0
        self._cla_decay = 1.0 / 0.999
        self._order = _VarOrder()
        self._phase = []
        self._seen = []
        self._pending_detach = set()
        self._ok = True
        self.stats = SatStats()
        # Deep-profile peaks, tracked only while telemetry is enabled
        # (kept out of SatStats: they are observability data, not part of
        # the deterministic work/stats contract of a result).
        self._deep_max_trail = 0
        self._deep_max_level = 0
        self._final_conflict = []
        self._paused = None  # (key, search) of a search paused at its work cap
        self.grow_to(num_vars)
        if cnf is not None:
            self.grow_to(cnf.num_vars)

    # -- variable / clause management -----------------------------------

    def grow_to(self, num_vars):
        """Ensure variables ``1..num_vars`` exist.

        Bulk-extends the per-variable arrays. Fresh variables carry zero
        activity, so appending them to the heap tail in index order is
        exactly what a sequence of ``_order.push`` calls would produce
        (a zero-activity leaf never sifts up past its parent).
        """
        self._abandon()
        count = num_vars - self.num_vars
        if count <= 0:
            return
        base = self.num_vars
        self._watches.extend([] for _ in range(2 * count))
        self._lit_val.extend([0] * (2 * count))
        self._level.extend([0] * count)
        self._reason.extend([_NO_REASON] * count)
        self._activity.extend([0.0] * count)
        self._phase.extend([0] * count)
        self._seen.extend([False] * count)
        heap = self._order.heap
        position = self._order.position
        for var in range(base, num_vars):
            position[var] = len(heap)
            heap.append(var)
        self.num_vars = num_vars

    def new_var(self):
        """Allocate one fresh variable; returns its index."""
        self.grow_to(self.num_vars + 1)
        return self.num_vars

    @staticmethod
    def _internal(literal):
        var = abs(literal) - 1
        return 2 * var + (1 if literal < 0 else 0)

    @staticmethod
    def _external(internal):
        var = (internal >> 1) + 1
        return -var if internal & 1 else var

    def _lit_value(self, internal):
        value = self._lit_val[internal]
        if value == 0:
            return None
        return value > 0

    def add_clause(self, literals):
        """Add a problem clause (DIMACS literals). Returns False if the
        solver becomes trivially unsatisfiable."""
        self._abandon()
        if not self._ok:
            return False
        if self._trail_lim:
            # Incremental use: drop any in-progress assignment first.
            self._backtrack(0)
        for literal in literals:
            self.grow_to(abs(literal))
        seen = set()
        clause = []
        for literal in literals:
            internal = self._internal(literal)
            if internal in seen:
                continue
            if internal ^ 1 in seen:
                return True  # tautology
            value = self._lit_val[internal]
            if value > 0:
                return True  # already satisfied at level 0
            if value < 0:
                continue  # falsified at level 0: drop the literal
            seen.add(internal)
            clause.append(internal)
        return self._install_root(clause)

    def attach(self, start=None):
        """Watch the attached CNF's clauses in place, without copying.

        Processes clauses ``start..`` (default: everything added since
        the previous ``attach`` call). Each block is root-simplified by
        *reading* it: satisfied blocks are skipped, blocks containing
        root-false literals get a private simplified copy in the same
        arena, everything else is watched at its original offset. Units
        propagate immediately, exactly as a loop of ``add_clause`` calls
        would. Returns False once the solver is root-unsatisfiable.
        """
        if self._cnf is None:
            raise SolverError("attach() requires a solver constructed with cnf=")
        self._abandon()
        if start is None:
            start = self._attached
        cnf = self._cnf
        self.grow_to(cnf.num_vars)
        self._attached = len(cnf)
        if not self._ok:
            return False
        if self._trail_lim:
            self._backtrack(0)
        arena = self._arena
        data = arena.data
        lit_val = self._lit_val
        watches = self._watches
        refs = cnf._refs
        for index in range(start, len(cnf)):
            ref = refs[index]
            size = data[ref - 1]
            satisfied = False
            has_false = False
            for k in range(ref, ref + size):
                value = lit_val[data[k]]
                if value:
                    if value > 0:
                        satisfied = True
                        break
                    has_false = True
            if satisfied:
                continue
            if not has_false:
                if size >= 2:
                    # Common case, inlined _install_root/_watch: watch
                    # the untouched block in place.
                    first = data[ref]
                    second = data[ref + 1]
                    entry = -ref if size == 2 else ref
                    watch_list = watches[first ^ 1]
                    watch_list.append(entry)
                    watch_list.append(second)
                    watch_list = watches[second ^ 1]
                    watch_list.append(entry)
                    watch_list.append(first)
                    self._num_problem += 1
                    continue
                clause = None  # empty/unit block: full handling
            else:
                clause = [
                    data[k] for k in range(ref, ref + size) if lit_val[data[k]] == 0
                ]
            if not self._install_root(clause, ref=ref):
                return False
        return True

    def _install_root(self, clause, ref=None):
        """Install a root-simplified clause: empty/unit handling, else
        watch it. ``clause`` is internal literals, or None to watch the
        pre-existing block ``ref`` unmodified."""
        if clause is None:
            size = self._arena.data[ref - 1]
            if size == 0:
                self._ok = False
                return False
            if size == 1:
                return self._root_enqueue(self._arena.data[ref])
            self._watch(ref)
            self._num_problem += 1
            return True
        if not clause:
            self._ok = False
            return False
        if len(clause) == 1:
            return self._root_enqueue(clause[0])
        self._watch(self._arena.add(clause))
        self._num_problem += 1
        return True

    def _root_enqueue(self, internal):
        if not self._enqueue(internal, _NO_REASON):
            self._ok = False
            return False
        if self._propagate() is not None:
            self._ok = False
            return False
        return True

    def _watch(self, ref):
        """Put a block in the watch lists of its first two literals.

        Watch lists are flat ``[entry, partner]`` pairs. Binary clauses
        store ``-ref`` as the entry with the partner literal alongside:
        since a binary clause's partner can never change, propagation
        resolves it from the pair alone with zero arena reads. Longer
        clauses store ``ref``; their partner slot is only a debugging
        hint (the current partner is re-read from the block), so a
        stale value is harmless.
        """
        data = self._arena.data
        first = data[ref]
        second = data[ref + 1]
        entry = -ref if data[ref - 1] == 2 else ref
        watch_list = self._watches[first ^ 1]
        watch_list.append(entry)
        watch_list.append(second)
        watch_list = self._watches[second ^ 1]
        watch_list.append(entry)
        watch_list.append(first)

    # -- assignment and propagation --------------------------------------

    def _enqueue(self, internal, reason_ref=_NO_REASON):
        value = self._lit_val[internal]
        if value:
            return value > 0
        self._lit_val[internal] = 1
        self._lit_val[internal ^ 1] = -1
        var = internal >> 1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason_ref
        self._trail.append(internal)
        return True

    def _propagate(self):
        """Unit propagation. Returns the conflicting clause offset or None.

        This is the solver's hot loop, and it is *search-path identical*
        to a clause-object implementation that visits each watch list in
        order: same enqueues in the same order, same conflicts -- only
        cheaper per visit.

        - Binary clauses (negative entries) resolve from the pair alone:
          zero arena reads on the satisfied and implied paths.
        - Longer clauses re-read their two watch slots; a satisfied
          partner keeps the watcher with the normalization swap
          *deferred* (the next normalizing visit canonicalizes the block
          identically, and analysis only ever reads blocks that were
          normalized by the visit that returned or enqueued them).
        - The scan is two-phase: until the first watcher moves away,
          kept pairs need no list writes at all; after the first move
          the tail is compacted in place with a write pointer.
        """
        watches = self._watches
        lit_val = self._lit_val
        data = self._arena.data
        trail = self._trail
        level_count = len(self._trail_lim)
        level = self._level
        reason = self._reason
        head = self._queue_head
        trail_len = len(trail)
        propagated = 0
        while head < trail_len:
            literal = trail[head]
            head += 1
            propagated += 1
            false_literal = literal ^ 1
            watch_list = watches[literal]
            end = len(watch_list)
            read = 0
            # Phase 1: no watcher has moved away yet, so every pair keeps
            # its position and the list needs no writes at all. The first
            # relocation breaks into the compacting phase below.
            while read < end:
                clause = watch_list[read]
                if clause < 0:
                    # Binary clause: partner literal lives in the pair.
                    partner = watch_list[read + 1]
                    value = lit_val[partner]
                    if value > 0:
                        read += 2
                        continue
                    if value == 0:  # implied (inlined _enqueue)
                        lit_val[partner] = 1
                        lit_val[partner ^ 1] = -1
                        partner_var = partner >> 1
                        level[partner_var] = level_count
                        reason[partner_var] = -clause
                        trail.append(partner)
                        trail_len += 1
                        read += 2
                        continue
                    # Both literals false: conflict.
                    ref = -clause
                    if data[ref] == false_literal:
                        # Normalize for conflict-analysis order.
                        data[ref] = partner
                        data[ref + 1] = false_literal
                    self._queue_head = trail_len
                    self.stats.propagations += propagated
                    return ref
                # Longer clause: the current partner is whichever watch
                # slot is not the falsified literal.
                partner = data[clause]
                if partner == false_literal:
                    partner = data[clause + 1]
                partner_value = lit_val[partner]
                if partner_value > 0:
                    # Satisfied: keep the watcher, defer the swap.
                    read += 2
                    continue
                # Normalize: partner into slot 0, false literal into 1.
                if data[clause] == false_literal:
                    data[clause] = partner
                    data[clause + 1] = false_literal
                # Look for a new literal to watch.
                stop = clause + data[clause - 1]
                k = clause + 2
                while k < stop:
                    other = data[k]
                    if lit_val[other] >= 0:
                        data[clause + 1] = other
                        data[k] = false_literal
                        moved = watches[other ^ 1]
                        moved.append(clause)
                        moved.append(partner)
                        break
                    k += 1
                else:
                    # Unit or conflicting.
                    if partner_value < 0:  # partner false too: conflict
                        self._queue_head = trail_len
                        self.stats.propagations += propagated
                        return clause
                    # Enqueue partner (inlined _enqueue).
                    lit_val[partner] = 1
                    lit_val[partner ^ 1] = -1
                    partner_var = partner >> 1
                    level[partner_var] = level_count
                    reason[partner_var] = clause
                    trail.append(partner)
                    trail_len += 1
                    read += 2
                    continue
                # First relocation: fall through to the compacting phase.
                write = read
                read += 2
                break
            else:
                continue  # phase 1 consumed the whole list
            # Phase 2: at least one pair was dropped; keep compacting the
            # tail in place with the write pointer.
            while read < end:
                clause = watch_list[read]
                if clause < 0:
                    partner = watch_list[read + 1]
                    value = lit_val[partner]
                    if value < 0:  # both literals false: conflict
                        ref = -clause
                        if data[ref] == false_literal:
                            data[ref] = partner
                            data[ref + 1] = false_literal
                        while read < end:
                            watch_list[write] = watch_list[read]
                            watch_list[write + 1] = watch_list[read + 1]
                            read += 2
                            write += 2
                        del watch_list[write:]
                        self._queue_head = trail_len
                        self.stats.propagations += propagated
                        return ref
                    if value == 0:  # implied (inlined _enqueue)
                        lit_val[partner] = 1
                        lit_val[partner ^ 1] = -1
                        partner_var = partner >> 1
                        level[partner_var] = level_count
                        reason[partner_var] = -clause
                        trail.append(partner)
                        trail_len += 1
                    watch_list[write] = clause
                    watch_list[write + 1] = partner
                    write += 2
                    read += 2
                    continue
                partner = data[clause]
                if partner == false_literal:
                    partner = data[clause + 1]
                partner_value = lit_val[partner]
                if partner_value > 0:
                    watch_list[write] = clause
                    watch_list[write + 1] = partner
                    write += 2
                    read += 2
                    continue
                if data[clause] == false_literal:
                    data[clause] = partner
                    data[clause + 1] = false_literal
                stop = clause + data[clause - 1]
                k = clause + 2
                while k < stop:
                    other = data[k]
                    if lit_val[other] >= 0:
                        data[clause + 1] = other
                        data[k] = false_literal
                        moved = watches[other ^ 1]
                        moved.append(clause)
                        moved.append(partner)
                        break
                    k += 1
                else:
                    watch_list[write] = clause
                    watch_list[write + 1] = partner
                    write += 2
                    if partner_value < 0:  # partner false too: conflict
                        read += 2
                        while read < end:
                            watch_list[write] = watch_list[read]
                            watch_list[write + 1] = watch_list[read + 1]
                            read += 2
                            write += 2
                        del watch_list[write:]
                        self._queue_head = trail_len
                        self.stats.propagations += propagated
                        return clause
                    lit_val[partner] = 1
                    lit_val[partner ^ 1] = -1
                    partner_var = partner >> 1
                    level[partner_var] = level_count
                    reason[partner_var] = clause
                    trail.append(partner)
                    trail_len += 1
                read += 2
            del watch_list[write:]
        self._queue_head = head
        self.stats.propagations += propagated
        return None

    # -- conflict analysis ------------------------------------------------

    def _bump_var(self, var):
        activity = self._activity
        bumped = activity[var] + self._var_inc
        activity[var] = bumped
        if bumped > 1e100:
            for index in range(self.num_vars):
                activity[index] *= 1e-100
            self._var_inc *= 1e-100
        order = self._order
        index = order.position.get(var)
        if index is not None:
            order._sift_up(index, activity)

    def _bump_clause(self, ref):
        activity = self._cla_activity
        slot = self._arena.data[ref - 3]
        activity[slot] += self._cla_inc
        if activity[slot] > 1e20:
            for index in range(len(activity)):
                activity[index] *= 1e-20
            self._cla_inc *= 1e-20

    def _analyze(self, conflict):
        """First-UIP learning. Returns (learned clause, backtrack level)."""
        data = self._arena.data
        learned = [None]  # slot 0 reserved for the asserting literal
        seen = self._seen
        level = self._level
        trail = self._trail
        reason = self._reason
        activity = self._activity
        var_inc = self._var_inc
        order = self._order
        position = order.position
        sift_up = order._sift_up
        counter = 0
        literal = None
        reason_ref = conflict
        index = len(trail) - 1
        current_level = len(self._trail_lim)
        to_clear = []

        while True:
            for k in range(reason_ref, reason_ref + data[reason_ref - 1]):
                other = data[k]
                # Skip the literal this reason implied (present in the
                # block but resolved away). Matched by value, not by
                # position: binary reasons propagate from the implication
                # lists without normalizing the implied literal to slot 0.
                if other == literal:
                    continue
                var = other >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = True
                    to_clear.append(var)
                    # _bump_var, inlined (the rescale keeps self._var_inc
                    # in sync with the local copy).
                    bumped = activity[var] + var_inc
                    activity[var] = bumped
                    if bumped > 1e100:
                        for rescaled in range(self.num_vars):
                            activity[rescaled] *= 1e-100
                        var_inc *= 1e-100
                        self._var_inc = var_inc
                    heap_index = position.get(var)
                    if heap_index is not None:
                        sift_up(heap_index, activity)
                    if level[var] >= current_level:
                        counter += 1
                    else:
                        learned.append(other)
            # Select the next trail literal to resolve on.
            while not seen[trail[index] >> 1]:
                index -= 1
            literal = trail[index]
            index -= 1
            var = literal >> 1
            seen[var] = False
            counter -= 1
            if counter == 0:
                break
            reason_ref = reason[var]
        learned[0] = literal ^ 1

        # Conflict-clause minimization: drop literals implied by the rest.
        # At this point ``seen`` is True for exactly the variables of
        # ``learned[1:]`` (every resolved variable, including the UIP, was
        # cleared during the resolution loop), so it doubles as the
        # marked set without building one.
        kept = [learned[0]]
        for other in learned[1:]:
            reason_ref = reason[other >> 1]
            if reason_ref < 0:
                kept.append(other)
                continue
            negated = other ^ 1
            redundant = True
            for k in range(reason_ref, reason_ref + data[reason_ref - 1]):
                lit = data[k]
                if lit == negated:
                    continue
                var = lit >> 1
                if not seen[var] and level[var] != 0:
                    redundant = False
                    break
            if redundant:
                self.stats.minimized_literals += 1
                continue
            kept.append(other)
        learned = kept

        for var in to_clear:
            seen[var] = False

        if len(learned) == 1:
            backtrack_level = 0
        else:
            # Find the second-highest level and move its literal to slot 1.
            best = 1
            for k in range(2, len(learned)):
                if level[learned[k] >> 1] > level[learned[best] >> 1]:
                    best = k
            learned[1], learned[best] = learned[best], learned[1]
            backtrack_level = level[learned[1] >> 1]
        return learned, backtrack_level

    def _backtrack(self, level):
        if len(self._trail_lim) <= level:
            return
        limit = self._trail_lim[level]
        trail = self._trail
        lit_val = self._lit_val
        reason = self._reason
        phase = self._phase
        pending = self._pending_detach
        order = self._order
        heap = order.heap
        position = order.position
        sift_up = order._sift_up
        activity = self._activity
        if pending:
            for internal in reversed(trail[limit:]):
                var = internal >> 1
                phase[var] = 1 - (internal & 1)
                lit_val[internal] = 0
                lit_val[internal ^ 1] = 0
                reason_ref = reason[var]
                reason[var] = _NO_REASON
                if reason_ref in pending:
                    # A deferred detach_clause: the clause just stopped
                    # being this variable's reason, so the removal is now
                    # safe.
                    pending.discard(reason_ref)
                    self._complete_detach(reason_ref)
                if var not in position:
                    position[var] = len(heap)
                    heap.append(var)
                    sift_up(len(heap) - 1, activity)
        else:
            # Common case (no deferred detaches): per-literal work only.
            for internal in reversed(trail[limit:]):
                var = internal >> 1
                phase[var] = 1 - (internal & 1)
                lit_val[internal] = 0
                lit_val[internal ^ 1] = 0
                reason[var] = _NO_REASON
                # order.push, inlined: implied variables that were never
                # popped are still on the heap and skip straight through.
                if var not in position:
                    position[var] = len(heap)
                    heap.append(var)
                    sift_up(len(heap) - 1, activity)
        del trail[limit:]
        del self._trail_lim[level:]
        self._queue_head = len(trail)

    # -- learned clause database -----------------------------------------

    def _alloc_learned(self, literals):
        """Store a learned clause in the arena and watch it."""
        if self._free_slots:
            slot = self._free_slots.pop()
            self._cla_activity[slot] = 0.0
        else:
            slot = len(self._cla_activity)
            self._cla_activity.append(0.0)
        ref = self._arena.add(literals, learnt=True, slot=slot)
        self._learned_refs.append(ref)
        self._watch(ref)
        return ref

    def is_locked(self, ref):
        """True while the clause is the reason for its first literal.

        O(1): relies on the reason-block invariant (literal 0 of a reason
        block is the implied literal and cannot be displaced while the
        assignment stands). Binary clauses propagate from the implication
        lists without normalization, so either literal may be the implied
        one; both are checked.
        """
        data = self._arena.data
        lit_val = self._lit_val
        reason = self._reason
        first = data[ref]
        if lit_val[first] > 0 and reason[first >> 1] == ref:
            return True
        if data[ref - 1] == 2:
            second = data[ref + 1]
            return lit_val[second] > 0 and reason[second >> 1] == ref
        return False

    def detach_clause(self, ref):
        """Remove a clause from the solver.

        Locked clauses (currently serving as a reason) are never removed
        in place -- the request is deferred and completes when
        backtracking unassigns the implied literal, so propagation and
        conflict analysis stay sound in between. Returns True when the
        clause was removed immediately, False when deferred.
        """
        self._abandon()
        if ref in self._pending_detach:
            return False
        if self.is_locked(ref):
            self._pending_detach.add(ref)
            return False
        self._complete_detach(ref)
        return True

    def _complete_detach(self, ref):
        self._remove_watches(ref)
        if self._arena.is_learnt(ref):
            self._free_slots.append(self._arena.slot(ref))
            self._learned_refs.remove(ref)
            self._arena.mark_dead(ref)
            self.stats.deleted_clauses += 1
        else:
            self._num_problem -= 1

    def _remove_watches(self, ref):
        """Swap-pop the clause's pair out of both watch lists; never
        leaves a stale offset behind."""
        data = self._arena.data
        entry = -ref if data[ref - 1] == 2 else ref
        for literal in (data[ref], data[ref + 1]):
            pair_list = self._watches[literal ^ 1]
            for index in range(0, len(pair_list), 2):
                if pair_list[index] == entry:
                    pair_list[index] = pair_list[-2]
                    pair_list[index + 1] = pair_list[-1]
                    del pair_list[-2:]
                    break

    def _reduce_db(self):
        """Remove roughly half of the inactive learned clauses.

        The locked check is per-offset and O(1): a clause whose first
        literal is true *because of this clause* is some variable's
        reason and must survive (it will be needed by conflict analysis
        and final-conflict extraction).
        """
        arena = self._arena
        data = arena.data
        activity = self._cla_activity
        lit_val = self._lit_val
        reason = self._reason
        learned = self._learned_refs
        learned.sort(key=lambda ref: activity[data[ref - 3]])
        keep = []
        half = len(learned) // 2
        for position, ref in enumerate(learned):
            first = data[ref]
            locked = lit_val[first] > 0 and reason[first >> 1] == ref
            if position < half and data[ref - 1] > 2 and not locked:
                self._remove_watches(ref)
                self._free_slots.append(data[ref - 3])
                arena.mark_dead(ref)
                self.stats.deleted_clauses += 1
            else:
                keep.append(ref)
        self._learned_refs = keep
        if arena.wasted * 2 > len(data):
            self._collect()

    def _collect(self):
        """Compact the arena and remap every stored offset."""
        mapping = self._arena.compact()
        for watch_list in self._watches:
            for index in range(0, len(watch_list), 2):
                entry = watch_list[index]
                if entry < 0:
                    watch_list[index] = -mapping[-entry]
                else:
                    watch_list[index] = mapping[entry]
        self._reason = [
            mapping[ref] if ref >= 0 else _NO_REASON for ref in self._reason
        ]
        self._learned_refs = [mapping[ref] for ref in self._learned_refs]
        self._pending_detach = {mapping[ref] for ref in self._pending_detach}
        if self._cnf is not None:
            self._cnf.remap_refs(mapping)
        if telemetry.enabled:
            telemetry.counter_add("sat.arena_collections", engine="sat")

    # -- main search --------------------------------------------------

    def _pick_branch_literal(self):
        # ``_VarOrder.pop`` inlined: a decision typically discards several
        # already-assigned variables before finding an unassigned one, so
        # the pop loop runs hot.
        order = self._order
        heap = order.heap
        position = order.position
        sift_down = order._sift_down
        activity = self._activity
        lit_val = self._lit_val
        while heap:
            top = heap[0]
            last = heap.pop()
            del position[top]
            if heap:
                heap[0] = last
                position[last] = 0
                sift_down(0, activity)
            if lit_val[2 * top] == 0:
                return 2 * top + (1 - self._phase[top])
        return None

    def solve(self, assumptions=(), max_conflicts=None, max_work=None, resume=False):
        """Search for a model.

        Args:
            assumptions: DIMACS literals temporarily forced true.
            max_conflicts: optional conflict budget for this call.
            max_work: optional deterministic work budget for this call
                (see :meth:`SatStats.work`).
            resume: keep a search that reaches ``max_work`` paused, trail
                and all, instead of abandoning it at level 0. The next
                ``resume`` call with the same assumptions and conflict cap
                continues it, its ``max_work`` counting from where the
                paused search started, on exactly the trajectory of one
                search with that cap. :meth:`add_clause`, :meth:`attach`,
                :meth:`grow_to`, :meth:`detach_clause` and every other
                call of this method discard a paused search first.

        Returns:
            ``SAT``, ``UNSAT``, or ``UNKNOWN`` (budget exhausted).
        """
        if not self._ok:
            # Permanent root UNSAT: the hard clauses are contradictory, so
            # any assumption set (a session scope after a pop) is UNSAT
            # too. Answer without touching the search state or stats --
            # re-solving would spend work and, with telemetry on, pollute
            # the trail/level peak series with zero-length runs -- and
            # clear the assumption core so callers read this as
            # root-level, not assumption-driven.
            self._final_conflict = []
            return UNSAT
        if not telemetry.enabled:
            return self._drive(assumptions, max_conflicts, max_work, resume)
        before = self.stats.as_dict()
        self._deep_max_trail = 0
        self._deep_max_level = 0
        result = self._drive(assumptions, max_conflicts, max_work, resume)
        after = self.stats.as_dict()
        telemetry.record_counters(
            {key: after[key] - before[key] for key in after},
            engine="sat",
        )
        telemetry.counter_add("solver.solve_calls", engine="sat")
        telemetry.observe("sat.trail_peak", self._deep_max_trail, engine="sat")
        telemetry.observe("sat.level_peak", self._deep_max_level, engine="sat")
        return result

    def _drive(self, assumptions, max_conflicts, max_work, resume):
        """Start a search, or continue the paused one; at its work cap,
        pause it (``resume``) or abandon it at level 0."""
        paused, self._paused = self._paused, None
        key = (tuple(assumptions), max_conflicts) if resume else None
        try:
            if paused is not None and paused[0] == key:
                search = paused[1]
                search.send((self, max_work))
            else:
                search = self._search(assumptions, max_conflicts, max_work)
                next(search)
        except StopIteration as finished:
            return finished.value
        if resume:
            self._paused = (key, search)
        else:
            self._backtrack(0)
        return UNKNOWN

    def _abandon(self):
        """Drop a paused search at level 0, as a capped :meth:`solve` does."""
        if self._paused is not None:
            self._paused = None
            self._backtrack(0)

    def _search(self, assumptions=(), max_conflicts=None, max_work=None):
        """The CDCL search loop behind :meth:`solve`, as a generator.

        It returns the search's status, except at the work cap: there it
        yields with the trail intact, and sending it ``(solver, max_work)``
        continues it to the new cap (see :meth:`_drive`). While paused,
        the frame lets go of ``self``: the solver holds the paused search,
        and a reference back would keep a dropped solver alive until the
        cycle collector ran.
        """
        # Reset before the permanent-UNSAT check: a re-solve after a root
        # conflict must not report the previous call's assumption core.
        self._final_conflict = []
        if not self._ok:
            return UNSAT
        self._backtrack(0)  # reset any state left by a previous solve call
        internal_assumptions = [self._internal(lit) for lit in assumptions]
        for literal in internal_assumptions:
            self.grow_to((literal >> 1) + 1)

        stats = self.stats
        # Both caps count from the start of this search, which a continued
        # search keeps: the conflict cap becomes a threshold on the
        # lifetime count.
        base_work = stats.work()
        if max_conflicts is not None:
            max_conflicts += stats.conflicts
        restart_index = 0
        conflicts_total = 0
        conflict_limit = luby(restart_index) * 100
        governor = guard.active()
        deep = telemetry.enabled  # bound once: the hot loop never re-checks

        while True:
            conflict = self._propagate()
            if conflict is not None:
                stats.conflicts += 1
                conflicts_total += 1
                if deep:
                    if len(self._trail) > self._deep_max_trail:
                        self._deep_max_trail = len(self._trail)
                    if len(self._trail_lim) > self._deep_max_level:
                        self._deep_max_level = len(self._trail_lim)
                if not self._trail_lim:
                    self._ok = False
                    return UNSAT
                learned, backtrack_level = self._analyze(conflict)
                self._backtrack(backtrack_level)
                if len(learned) == 1:
                    self._enqueue(learned[0], _NO_REASON)
                else:
                    ref = self._alloc_learned(learned)
                    self._bump_clause(ref)
                    stats.learned_clauses += 1
                    self._enqueue(learned[0], ref)
                self._var_inc *= self._var_decay
                self._cla_inc *= self._cla_decay
                if max_conflicts is not None and stats.conflicts >= max_conflicts:
                    self._backtrack(0)
                    return UNKNOWN
                while max_work is not None and stats.work() - base_work >= max_work:
                    self = None
                    self, max_work = yield
                    governor, deep = guard.active(), telemetry.enabled
                if governor.interrupted("sat"):
                    self._backtrack(0)
                    return UNKNOWN
                if conflicts_total >= conflict_limit:
                    conflicts_total = 0
                    restart_index += 1
                    conflict_limit = luby(restart_index) * 100
                    stats.restarts += 1
                    self._backtrack(0)
                if stats.learned_clauses > 0 and len(self._learned_refs) > max(
                    2000, 2 * self._num_problem
                ):
                    self._reduce_db()
                continue

            # No conflict: re-apply assumptions, then decide.
            decision = None
            if internal_assumptions:
                for literal in internal_assumptions[len(self._trail_lim) :]:
                    value = self._lit_val[literal]
                    if value > 0:
                        self._trail_lim.append(len(self._trail))
                        continue
                    if value < 0:
                        self._analyze_final(literal)
                        self._backtrack(0)
                        return UNSAT
                    decision = literal
                    break
            if decision is None:
                decision = self._pick_branch_literal()
                if decision is None:
                    return SAT
                stats.decisions += 1
            self._trail_lim.append(len(self._trail))
            self._enqueue(decision, _NO_REASON)
            while max_work is not None and stats.work() - base_work >= max_work:
                self = None
                self, max_work = yield
                governor, deep = guard.active(), telemetry.enabled
            if governor.interrupted("sat"):
                self._backtrack(0)
                return UNKNOWN

    def _analyze_final(self, failed_literal):
        """Compute the subset of assumptions implying ``failed_literal``'s
        negation (the assumption-level unsat core)."""
        data = self._arena.data
        core = {failed_literal ^ 1}
        seen = set()
        queue = [failed_literal]
        while queue:
            literal = queue.pop()
            var = literal >> 1
            if var in seen:
                continue
            seen.add(var)
            reason_ref = self._reason[var]
            if reason_ref < 0:
                if self._level[var] > 0:
                    core.add(literal ^ 1)
            else:
                for k in range(reason_ref, reason_ref + data[reason_ref - 1]):
                    other = data[k]
                    if (other >> 1) != var and self._level[other >> 1] > 0:
                        queue.append(other ^ 1)
        self._final_conflict = sorted(self._external(lit) for lit in core)

    def final_conflict(self):
        """After an assumption-driven UNSAT: the failing assumption subset
        (negated), in DIMACS form.

        Empty after a *root-level* UNSAT: the hard clauses alone are
        contradictory and no assumption choice can restore satisfiability
        (see :meth:`okay`).
        """
        return list(self._final_conflict)

    def okay(self):
        """False once the clause database is unsatisfiable at the root.

        This is permanent: every later :meth:`solve` returns ``UNSAT``
        immediately (with an empty :meth:`final_conflict`) and
        :meth:`add_clause` refuses new clauses. Incremental users check
        this to distinguish "these assumptions failed" from "the problem
        itself is dead".
        """
        return self._ok

    def learned_count(self):
        """Learned clauses currently retained in the database.

        Clauses survive across :meth:`solve` calls (the whole point of
        incremental reuse); database reduction may delete some between
        calls, so this is a lower bound on clauses ever learned.
        """
        return len(self._learned_refs)

    def learned_refs(self):
        """Arena offsets of the retained learned clauses (a copy)."""
        return list(self._learned_refs)

    def clause_literals(self, ref):
        """A clause's literals in DIMACS form (current arena order)."""
        return self._arena.dimacs(ref)

    def model(self):
        """The satisfying assignment as a ``{var: bool}`` dict.

        Unassigned variables (possible when clauses never mention them)
        default to False.
        """
        lit_val = self._lit_val
        return {
            var: lit_val[2 * (var - 1)] > 0 for var in range(1, self.num_vars + 1)
        }

    def work(self):
        """Total deterministic work performed so far."""
        return self.stats.work()


def solve_cnf(cnf, assumptions=(), max_conflicts=None, max_work=None):
    """One-shot convenience: solve a :class:`~repro.sat.cnf.CNF`.

    Copies the clauses into a private solver (repeated calls on the same
    CNF stay byte-identical; attached solvers may reorder arena blocks).

    Returns:
        A ``(result, model, stats)`` triple; model is None unless SAT.
    """
    solver = SatSolver(cnf.num_vars)
    for clause in cnf.clauses:
        if not solver.add_clause(clause):
            return UNSAT, None, solver.stats
    result = solver.solve(
        assumptions=assumptions, max_conflicts=max_conflicts, max_work=max_work
    )
    model = solver.model() if result == SAT else None
    return result, model, solver.stats
