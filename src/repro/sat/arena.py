"""Flat clause storage shared by the bit-blaster and the CDCL core.

A :class:`ClauseArena` packs every clause into one flat list of machine
integers: three header words followed by the literals. A *clause reference* is the arena
offset of the first literal, so the solver's hot loop reads
``data[c + k]`` without touching the header; the header sits at negative
offsets from the reference:

====================  =====================================================
``data[c - 3]``       activity slot (index into the solver's learned-clause
                      activity table; ``-1`` for problem clauses)
``data[c - 2]``       flags (bit 0: learnt, bit 1: dead / pending-detach)
``data[c - 1]``       size (number of literals)
``data[c ... c+n)``   the literals, in the solver-internal encoding
====================  =====================================================

Literals use the solver-internal encoding throughout: DIMACS literal
``v`` / ``-v`` maps to ``2*(v-1)`` / ``2*(v-1) + 1``. The helpers
:func:`encode_literal` / :func:`decode_literal` convert at the edges.

The arena is the unit of *structure sharing*: the bit-blaster emits gate
clause blocks into its CNF's arena exactly once, and a solver attached to
that CNF watches the blocks in place -- no per-clause tuple or list
objects exist anywhere on the hot path, and repeated refinement rounds
whose gate-cache entries hit reuse the recorded block offsets instead of
re-allocating the clauses. Deleted learned clauses are flagged dead and
their space reclaimed by :meth:`compact`, which returns an old-to-new
offset mapping so every offset holder (watch lists, reasons, the attached
CNF's clause index) can be remapped in one pass.
"""

#: Header flag bits (``data[c - 2]``).
FLAG_LEARNT = 1
FLAG_DEAD = 2

#: Number of header words preceding each block's literals.
HEADER_WORDS = 3


def encode_literal(literal):
    """DIMACS literal -> solver-internal literal (``2*var + sign``)."""
    if literal > 0:
        return 2 * (literal - 1)
    return 2 * (-literal - 1) + 1


def decode_literal(internal):
    """Solver-internal literal -> DIMACS literal."""
    var = (internal >> 1) + 1
    return -var if internal & 1 else var


class ClauseArena:
    """A growable flat store of clause blocks.

    Blocks are laid out contiguously and only ever appended; compaction
    (:meth:`compact`) is the single operation that moves data, and it
    hands back the offset remapping rather than mutating any holder.
    """

    __slots__ = ("data", "wasted")

    # ``data`` is a plain list rather than ``array('i')``: the hot loop is
    # read-dominated, and an array subscript boxes a fresh int object per
    # read (measured ~1.26x slower than a list subscript, which only
    # bumps a refcount). The layout and offset identity are the same
    # either way.

    def __init__(self):
        self.data = []
        self.wasted = 0

    def __len__(self):
        return len(self.data)

    def add(self, literals, learnt=False, slot=-1):
        """Append one block of internal literals; returns its reference."""
        data = self.data
        data.append(slot)
        data.append(FLAG_LEARNT if learnt else 0)
        data.append(len(literals))
        reference = len(data)
        data.extend(literals)
        return reference

    def size(self, reference):
        return self.data[reference - 1]

    def literals(self, reference):
        """The block's literals as a list (internal encoding)."""
        return self.data[reference : reference + self.data[reference - 1]]

    def dimacs(self, reference):
        """The block's literals as a tuple of DIMACS literals."""
        return tuple(decode_literal(lit) for lit in self.literals(reference))

    def slot(self, reference):
        return self.data[reference - 3]

    def is_learnt(self, reference):
        return bool(self.data[reference - 2] & FLAG_LEARNT)

    def is_dead(self, reference):
        return bool(self.data[reference - 2] & FLAG_DEAD)

    def mark_dead(self, reference):
        """Flag a block deleted; its space is reclaimed by compaction."""
        flags = self.data[reference - 2]
        if not flags & FLAG_DEAD:
            self.data[reference - 2] = flags | FLAG_DEAD
            self.wasted += self.data[reference - 1] + HEADER_WORDS

    def blocks(self):
        """Yield every live block reference, in layout order."""
        data = self.data
        position = 0
        end = len(data)
        while position < end:
            reference = position + HEADER_WORDS
            size = data[reference - 1]
            if not data[reference - 2] & FLAG_DEAD:
                yield reference
            position = reference + size

    def compact(self):
        """Drop dead blocks; returns the ``{old: new}`` offset mapping.

        Live blocks keep their relative order, so any iteration keyed on
        reference order is unchanged after remapping. The caller must
        remap every stored reference (watch lists, reasons, clause
        indices) through the returned mapping before using them again.
        """
        data = self.data
        fresh = []
        mapping = {}
        position = 0
        end = len(data)
        while position < end:
            reference = position + HEADER_WORDS
            size = data[reference - 1]
            if not data[reference - 2] & FLAG_DEAD:
                mapping[reference] = len(fresh) + HEADER_WORDS
                fresh.extend(data[position : reference + size])
            position = reference + size
        self.data = fresh
        self.wasted = 0
        return mapping

    def __repr__(self):
        return f"ClauseArena(words={len(self.data)}, wasted={self.wasted})"
