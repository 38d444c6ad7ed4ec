"""Canonical cache keys for normalized SMT-LIB scripts.

The solve cache must never return a wrong answer, so the key is the
*semantic identity* of the script as far as we can cheaply canonicalize
it: a normalization pass (built on the :mod:`repro.slot.passes`
machinery) orders the arguments of commutative operators by their
printed form, assertions are de-duplicated and sorted, declarations are
sorted by name, and the result is printed back to SMT-LIB text. Two
scripts that normalize to the same text are permutations of the same
conjunction over the same variables, so they have the same models.

The canonical text is *stable under re-printing*:
``canonical_text(parse(canonical_text(s))) == canonical_text(s)`` --
property-tested in ``tests/test_printer_property.py``. Without that
property a cache key could drift between a first solve and a later
lookup and silently miss (or worse, a collision could return a wrong
result).

Solve parameters that change the *outcome* (profile, budget) are mixed
into the digest, never into the script text. A session's scope-prefix
key is built the same way by
:meth:`repro.solver.session.ScopeStack.key`.

A key only names a question; what may be stored under it is decided by
the one admission rule in :mod:`repro.cache.admission`.
"""

import hashlib

from repro.slot.passes import Pass
from repro.smtlib.printer import print_term
from repro.smtlib.terms import Op, Term, map_terms

#: Operators whose argument order does not affect the term's value.
#: (Chained ``=`` means "all equal" and ``distinct`` means "pairwise
#: distinct", so both are permutation-invariant even n-ary.)
COMMUTATIVE_OPS = frozenset(
    {
        Op.AND,
        Op.OR,
        Op.XOR,
        Op.EQ,
        Op.DISTINCT,
        Op.ADD,
        Op.MUL,
        Op.BVADD,
        Op.BVMUL,
        Op.BVAND,
        Op.BVOR,
        Op.BVXOR,
    }
)


class CanonicalOrder(Pass):
    """Order commutative arguments by printed form (a slot-style pass)."""

    name = "canonical-order"

    def rewrite(self, term, new_args):
        term = self._rebuild(term, new_args)
        if term.op in COMMUTATIVE_OPS and len(term.args) > 1:
            ordered = tuple(sorted(term.args, key=print_term))
            if ordered != term.args:
                return Term(term.op, ordered, term.payload, term.sort)
        return term


def normalize_assertions(assertions):
    """Canonically ordered, de-duplicated assertion terms."""
    canonical = CanonicalOrder()
    rewritten = map_terms(assertions, canonical.rewrite)
    unique = {}
    for term in rewritten:
        unique.setdefault(term.tid, term)
    return sorted(unique.values(), key=print_term)


def canonical_text(script):
    """The normalized printed form of a script (the cache-key body)."""
    logic = script.logic or script.infer_logic()
    lines = [f"(set-logic {logic})"]
    for name in sorted(script.declarations):
        lines.append(f"(declare-fun {name} () {script.declarations[name].name})")
    for term in normalize_assertions(script.assertions):
        lines.append(f"(assert {print_term(term)})")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


def canonical_term_text(term):
    """The printed form of one term with commutative arguments ordered."""
    return print_term(map_terms([term], CanonicalOrder().rewrite)[0])


#: Memo for :func:`assertion_digest`, keyed by term identity. Terms are
#: hash-consed process-wide, so a tid never maps to two different terms;
#: the cap only bounds memory on very long-running processes.
_DIGEST_MEMO = {}
_DIGEST_MEMO_LIMIT = 1 << 16


def assertion_digest(term):
    """Canonical content digest of one assertion.

    The digest covers the *canonicalized* printed form of the term (the
    same :class:`CanonicalOrder` normalization the whole-script key uses)
    plus the sorts of every variable the term mentions. Two assertions
    share a digest iff they are the same constraint over identically
    sorted variables -- which is exactly the equivalence unsat-core
    subsumption needs: a cached core whose digests all appear in a new
    query's digest set is a genuine subset of the new conjunction, so the
    new script is unsat too. Comparing digests (never raw text) keeps the
    subset check canonical under argument permutation and duplicate
    assertions.
    """
    cached = _DIGEST_MEMO.get(term.tid)
    if cached is not None:
        return cached
    variables = term.variables()
    sorts = ",".join(
        f"{name}:{variables[name].sort.name}" for name in sorted(variables)
    )
    payload = f"{canonical_term_text(term)}|{sorts}"
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]
    if len(_DIGEST_MEMO) >= _DIGEST_MEMO_LIMIT:
        _DIGEST_MEMO.clear()
    _DIGEST_MEMO[term.tid] = digest
    return digest


def script_digests(script):
    """The script's assertion set as a frozenset of canonical digests.

    Duplicate assertions collapse (a set is what subsumption compares),
    matching the de-duplication :func:`canonical_text` applies.
    """
    return frozenset(assertion_digest(term) for term in script.assertions)


def cache_key(script, profile=None, budget=None, kind="solve", extra=None):
    """A stable hex digest identifying one (script, parameters) solve.

    Args:
        script: the :class:`~repro.smtlib.script.Script` to key.
        profile: solver profile name (affects the answer's work/status).
        budget: unified work budget (affects ``unknown`` outcomes).
        kind: namespace tag (``"solve"`` or ``"arbitrage"``).
        extra: optional mapping of further discriminating parameters
            (e.g. the width strategy for arbitrage records).
    """
    digest = hashlib.sha256()
    digest.update(canonical_text(script).encode("utf-8"))
    digest.update(f"|kind={kind}|profile={profile}|budget={budget}".encode("utf-8"))
    if extra:
        for key in sorted(extra):
            digest.update(f"|{key}={extra[key]}".encode("utf-8"))
    return digest.hexdigest()


def refine_round_key(script, widths, mode, max_width):
    """Key for one width-refinement round of ``script``.

    Rounds are keyed on the *original* (unbounded) script plus the exact
    width state the round solved at -- a scalar for the scratch loop, a
    per-variable mapping for the incremental engine -- so a warm
    refinement replay hits round by round. Budgets are deliberately not
    part of the key: the admission rule (:mod:`repro.cache.admission`)
    stores only rounds that do not depend on how much budget was left.

    Args:
        script: the original script the refinement loop runs on.
        widths: an int (scratch round) or a name -> width mapping
            (incremental round).
        mode: ``"scratch"`` or ``"incremental"``.
        max_width: the loop's width ceiling (part of the incremental
            encoding, so it discriminates).
    """
    if isinstance(widths, dict):
        state = ",".join(f"{name}:{widths[name]}" for name in sorted(widths))
    else:
        state = str(widths)
    return cache_key(
        script,
        kind="refine-round",
        extra={"mode": mode, "widths": state, "max_width": max_width},
    )
