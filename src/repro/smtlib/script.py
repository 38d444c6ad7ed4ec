"""SMT-LIB scripts: an ordered list of commands plus a constraint view.

A :class:`Script` is the unit STAUB operates on: a logic, a set of
variable declarations, and a list of assertions. The satisfiability
question is the conjunction of the assertions.
"""

from repro.errors import SmtLibError
from repro.smtlib.builders import And, TRUE
from repro.smtlib.sorts import BOOL


class Command:
    """A single SMT-LIB command, kept for faithful round-tripping.

    Attributes:
        name: command name, e.g. ``"assert"``.
        args: command-specific payload tuple.
    """

    __slots__ = ("name", "args")

    def __init__(self, name, *args):
        self.name = name
        self.args = args

    def __repr__(self):
        return f"Command({self.name!r}, ...)"


#: Commands that make a script *incremental*: its meaning is a replay of
#: the command list (a session), not one flat conjunction.
SCOPE_COMMANDS = frozenset({"push", "pop", "reset-assertions"})


class Script:
    """A parsed SMT-LIB script.

    Attributes:
        logic: the declared logic string (e.g. ``"QF_NIA"``), or None.
        declarations: ordered mapping from variable name to sort.
        assertions: the asserted boolean terms, in order. For incremental
            scripts (see :attr:`has_scopes`) this is the *flat* view --
            every term ever asserted, including ones later popped; the
            scoped meaning lives in :attr:`commands` and is replayed by
            :func:`repro.solver.session.run_script_session`.
        commands: the raw command list, including metadata commands.
    """

    def __init__(self, logic=None, declarations=None, assertions=None, commands=None):
        self.logic = logic
        self.declarations = dict(declarations or {})
        self.assertions = list(assertions or [])
        self.commands = list(commands or [])

    @classmethod
    def from_assertions(cls, assertions, logic=None):
        """Build a script straight from terms, inferring declarations."""
        script = cls(logic=logic)
        for assertion in assertions:
            script.add_assertion(assertion)
        if logic is None:
            script.logic = script.infer_logic()
        return script

    def add_assertion(self, term):
        """Assert a boolean term, registering its free variables."""
        if term.sort is not BOOL:
            raise SmtLibError(f"asserted term has sort {term.sort}, expected Bool")
        for name, var in term.variables().items():
            declared = self.declarations.get(name)
            if declared is None:
                self.declarations[name] = var.sort
            elif declared is not var.sort:
                raise SmtLibError(
                    f"variable {name} redeclared with sort {var.sort}, was {declared}"
                )
        self.assertions.append(term)

    def conjunction(self):
        """All assertions as one conjunct (``true`` if there are none)."""
        if not self.assertions:
            return TRUE
        if len(self.assertions) == 1:
            return self.assertions[0]
        return And(*self.assertions)

    def variables(self):
        """Mapping from variable name to sort, in declaration order."""
        return dict(self.declarations)

    def infer_logic(self):
        """Guess the quantifier-free SMT-LIB logic from sorts and operators.

        Only the six logics the reproduction works with are produced:
        QF_LIA, QF_NIA, QF_LRA, QF_NRA, QF_BV, and QF_FP (QF_UF-free).
        """
        from repro.smtlib.terms import Op

        has_int = any(s.is_int for s in self.declarations.values())
        has_real = any(s.is_real for s in self.declarations.values())
        has_bv = any(s.is_bv for s in self.declarations.values())
        has_fp = any(s.is_fp for s in self.declarations.values())
        nonlinear = False
        for assertion in self.assertions:
            for sub in assertion.subterms():
                if sub.sort.is_int:
                    has_int = True
                elif sub.sort.is_real:
                    has_real = True
                elif sub.sort.is_bv:
                    has_bv = True
                elif sub.sort.is_fp:
                    has_fp = True
                if sub.op in (Op.MUL, Op.RDIV, Op.IDIV, Op.MOD):
                    non_const = [a for a in sub.args if not a.is_const]
                    if sub.op is Op.MUL and len(non_const) >= 2:
                        nonlinear = True
                    if sub.op in (Op.RDIV, Op.IDIV, Op.MOD) and not sub.args[1].is_const:
                        nonlinear = True
        if has_fp:
            return "QF_FP"
        if has_bv:
            return "QF_BV"
        if has_real:
            return "QF_NRA" if nonlinear else "QF_LRA"
        if has_int:
            return "QF_NIA" if nonlinear else "QF_LIA"
        return "QF_UF"

    @property
    def has_scopes(self):
        """True when the script uses the assertion stack (push/pop/reset)."""
        return any(command.name in SCOPE_COMMANDS for command in self.commands)

    def check_sat_count(self):
        """Number of ``check-sat`` commands (0 for scripts built from terms)."""
        return sum(1 for command in self.commands if command.name == "check-sat")

    @property
    def is_incremental(self):
        """True when the script must be run as a session, not one solve:
        it manipulates the assertion stack or asks more than one
        ``check-sat`` question."""
        return self.has_scopes or self.check_sat_count() > 1

    @property
    def is_bounded(self):
        """True when every declared sort is bounded (Definition 3.3)."""
        return all(sort.is_bounded for sort in self.declarations.values())

    def size(self):
        """Total number of distinct term DAG nodes across assertions."""
        seen = set()
        total = 0
        for assertion in self.assertions:
            for sub in assertion.subterms():
                if sub.tid not in seen:
                    seen.add(sub.tid)
                    total += 1
        return total

    def __repr__(self):
        return (
            f"Script(logic={self.logic!r}, vars={len(self.declarations)}, "
            f"assertions={len(self.assertions)})"
        )
