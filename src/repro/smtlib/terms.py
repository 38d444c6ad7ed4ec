"""Hash-consed SMT terms.

Terms form an immutable DAG. Construction goes through the smart
constructors in :mod:`repro.smtlib.builders`, which sort-check operands;
this module only defines the representation.

Hash-consing guarantees that structurally identical terms are the same
object, so equality tests, set membership, and memoized traversals are
O(1) per node. All traversal utilities here are iterative, because SMT-LIB
benchmarks routinely exceed Python's recursion limit.
"""

import enum

from repro.smtlib.sorts import BOOL


class Op(enum.Enum):
    """Every operator in the supported SMT-LIB fragment."""

    # Leaves.
    CONST = "const"
    VAR = "var"

    # Core theory.
    NOT = "not"
    AND = "and"
    OR = "or"
    XOR = "xor"
    IMPLIES = "=>"
    ITE = "ite"
    EQ = "="
    DISTINCT = "distinct"

    # Integer / real arithmetic (shared spellings in SMT-LIB).
    ADD = "+"
    SUB = "-"
    MUL = "*"
    NEG = "neg"  # unary minus; printed as (- x)
    ABS = "abs"
    IDIV = "div"
    MOD = "mod"
    RDIV = "/"
    LE = "<="
    LT = "<"
    GE = ">="
    GT = ">"
    TO_REAL = "to_real"
    TO_INT = "to_int"

    # Bitvectors.
    BVNOT = "bvnot"
    BVAND = "bvand"
    BVOR = "bvor"
    BVXOR = "bvxor"
    BVNEG = "bvneg"
    BVADD = "bvadd"
    BVSUB = "bvsub"
    BVMUL = "bvmul"
    BVUDIV = "bvudiv"
    BVSDIV = "bvsdiv"
    BVUREM = "bvurem"
    BVSREM = "bvsrem"
    BVSMOD = "bvsmod"
    BVSHL = "bvshl"
    BVLSHR = "bvlshr"
    BVASHR = "bvashr"
    BVULT = "bvult"
    BVULE = "bvule"
    BVUGT = "bvugt"
    BVUGE = "bvuge"
    BVSLT = "bvslt"
    BVSLE = "bvsle"
    BVSGT = "bvsgt"
    BVSGE = "bvsge"
    BVABS = "bvabs"  # not core SMT-LIB; used by the Int->BV map for abs
    CONCAT = "concat"
    EXTRACT = "extract"  # payload: (hi, lo)
    ZERO_EXTEND = "zero_extend"  # payload: extra bits
    SIGN_EXTEND = "sign_extend"  # payload: extra bits

    # Overflow predicates (SMT-LIB proposal; implemented by Z3/CVC5 and
    # used by the paper's transformation to forbid wraparound).
    BVSADDO = "bvsaddo"
    BVUADDO = "bvuaddo"
    BVSSUBO = "bvssubo"
    BVUSUBO = "bvusubo"
    BVSMULO = "bvsmulo"
    BVUMULO = "bvumulo"
    BVSDIVO = "bvsdivo"
    BVNEGO = "bvnego"

    # Floating point (RNE rounding is implicit for the arithmetic ops).
    FP_ABS = "fp.abs"
    FP_NEG = "fp.neg"
    FP_ADD = "fp.add"
    FP_SUB = "fp.sub"
    FP_MUL = "fp.mul"
    FP_DIV = "fp.div"
    FP_LEQ = "fp.leq"
    FP_LT = "fp.lt"
    FP_GEQ = "fp.geq"
    FP_GT = "fp.gt"
    FP_EQ = "fp.eq"
    FP_IS_NAN = "fp.isNaN"
    FP_IS_INF = "fp.isInfinite"


#: Operators whose result is Bool regardless of operand sorts.
PREDICATE_OPS = frozenset(
    {
        Op.NOT,
        Op.AND,
        Op.OR,
        Op.XOR,
        Op.IMPLIES,
        Op.EQ,
        Op.DISTINCT,
        Op.LE,
        Op.LT,
        Op.GE,
        Op.GT,
        Op.BVULT,
        Op.BVULE,
        Op.BVUGT,
        Op.BVUGE,
        Op.BVSLT,
        Op.BVSLE,
        Op.BVSGT,
        Op.BVSGE,
        Op.BVSADDO,
        Op.BVUADDO,
        Op.BVSSUBO,
        Op.BVUSUBO,
        Op.BVSMULO,
        Op.BVUMULO,
        Op.BVSDIVO,
        Op.BVNEGO,
        Op.FP_LEQ,
        Op.FP_LT,
        Op.FP_GEQ,
        Op.FP_GT,
        Op.FP_EQ,
        Op.FP_IS_NAN,
        Op.FP_IS_INF,
    }
)

#: Integer/real comparison operators, in SMT-LIB spelling order.
ARITH_COMPARISONS = (Op.LE, Op.LT, Op.GE, Op.GT)

#: Chainable boolean connectives that accept two or more operands.
NARY_BOOLEAN_OPS = frozenset({Op.AND, Op.OR, Op.XOR})


class Term:
    """A node of the hash-consed term DAG.

    Attributes:
        op: the :class:`Op` of this node.
        args: operand terms, as a tuple.
        payload: operator-specific data -- the literal value for ``CONST``,
            the name string for ``VAR``, ``(hi, lo)`` for ``EXTRACT``, and
            the extension amount for the extend operators.
        sort: the term's :class:`~repro.smtlib.sorts.Sort`.
        tid: a process-unique integer identity, usable as a dict key and
            stable within a run (useful for deterministic ordering).
    """

    __slots__ = ("op", "args", "payload", "sort", "tid", "__weakref__")

    _table = {}
    _next_id = 0

    def __new__(cls, op, args, payload, sort):
        key = (op, tuple(t.tid for t in args), payload, sort)
        cached = cls._table.get(key)
        if cached is not None:
            return cached
        term = object.__new__(cls)
        term.op = op
        term.args = tuple(args)
        term.payload = payload
        term.sort = sort
        term.tid = cls._next_id
        cls._next_id += 1
        cls._table[key] = term
        return term

    # Hash-consing makes identity equality correct; inherit object's
    # __eq__/__hash__ (identity-based) for speed.

    def __repr__(self):
        from repro.smtlib.printer import print_term

        text = print_term(self)
        if len(text) > 120:
            text = text[:117] + "..."
        return text

    @property
    def is_const(self):
        return self.op is Op.CONST

    @property
    def is_var(self):
        return self.op is Op.VAR

    @property
    def name(self):
        """Variable name; only meaningful when ``is_var``."""
        return self.payload

    @property
    def value(self):
        """Literal value; only meaningful when ``is_const``."""
        return self.payload

    @property
    def is_bool(self):
        return self.sort is BOOL

    def subterms(self):
        """Iterate every distinct subterm (including self), post-order.

        Each DAG node is yielded exactly once.
        """
        seen = set()
        stack = [(self, False)]
        while stack:
            term, expanded = stack.pop()
            if term.tid in seen:
                continue
            if expanded:
                seen.add(term.tid)
                yield term
            else:
                stack.append((term, True))
                for arg in term.args:
                    if arg.tid not in seen:
                        stack.append((arg, False))

    def variables(self):
        """All variables occurring in the term, as a name->Term dict."""
        result = {}
        for sub in self.subterms():
            if sub.is_var:
                result[sub.payload] = sub
        return result

    def constants(self):
        """All literal constants occurring in the term."""
        return [sub for sub in self.subterms() if sub.is_const]

    def size(self):
        """Number of distinct DAG nodes."""
        return sum(1 for _ in self.subterms())

    def tree_size(self):
        """Number of nodes counting shared subterms once per occurrence."""
        memo = {}
        for sub in self.subterms():
            memo[sub.tid] = 1 + sum(memo[a.tid] for a in sub.args)
        return memo[self.tid]

    def depth(self):
        """Height of the term DAG (a leaf has depth 1)."""
        memo = {}
        for sub in self.subterms():
            memo[sub.tid] = 1 + max((memo[a.tid] for a in sub.args), default=0)
        return memo[self.tid]


def map_terms(roots, transform):
    """Rebuild a term DAG bottom-up through ``transform``.

    ``transform(term, new_args)`` receives each node along with its already
    transformed arguments and returns the replacement term. Sharing is
    preserved: each distinct node is transformed exactly once.

    Args:
        roots: an iterable of root terms.
        transform: the per-node rewrite callback.

    Returns:
        The list of transformed roots, in input order.
    """
    roots = list(roots)
    memo = {}
    for root in roots:
        for sub in root.subterms():
            if sub.tid in memo:
                continue
            new_args = [memo[a.tid] for a in sub.args]
            memo[sub.tid] = transform(sub, new_args)
    return [memo[root.tid] for root in roots]
