"""Geometric nontermination arguments (QF_NIA constraint generator).

A simplified form of Leike & Heizmann's geometric nontermination
arguments: the loop does not terminate if there is a start state ``x``, a
direction ``y``, and a ratio ``lam >= 1`` such that

- the guard holds at ``x`` and at ``x + y``;
- one loop step from ``x`` lands on ``x + y``;
- one loop step from ``x + y`` lands on ``x + y + lam*y``.

The products ``lam * y_i`` make the constraint genuinely nonlinear --
this is the QF_NIA tail of the Ultimate-style workload, and the place
where theory arbitrage has something to win on satisfiable instances
(nonterminating programs).
"""

from repro.smtlib import build
from repro.smtlib.script import Script


def _guard_assertions(program, state_terms):
    assertions = []
    for guard in program.loop.guards:
        value = [build.IntConst(guard.constant)]
        for name, coefficient in guard.coefficients.items():
            term = state_terms[name]
            if coefficient == 1:
                value.append(term)
            else:
                value.append(build.Mul(build.IntConst(coefficient), term))
        total = value[0] if len(value) == 1 else build.Add(*value)
        zero = build.IntConst(0)
        builder = {
            ">=": build.Ge,
            ">": build.Gt,
            "<=": build.Le,
            "<": build.Lt,
            "=": build.Eq,
        }[guard.relation]
        assertions.append(builder(total, zero))
    return assertions


def _step_terms(program, state_terms):
    """Symbolic next-state terms for each variable."""
    updated = {assign.name: assign for assign in program.loop.updates}
    next_terms = {}
    for name in program.variables:
        assign = updated.get(name)
        if assign is None:
            next_terms[name] = state_terms[name]
        else:
            terms = []
            if assign.constant:
                terms.append(build.IntConst(assign.constant))
            for var, coefficient in assign.coefficients.items():
                base = state_terms[var]
                if coefficient == 1:
                    terms.append(base)
                else:
                    terms.append(build.Mul(build.IntConst(coefficient), base))
            if not terms:
                next_terms[name] = build.IntConst(0)
            elif len(terms) == 1:
                next_terms[name] = terms[0]
            else:
                next_terms[name] = build.Add(*terms)
    return next_terms


class NonterminationTemplate:
    """The geometric argument split into its fixed core and the optional
    retractable layers (magnitude box, pinned initial state).

    The session-mode client asserts the core once, then pushes the
    compact-argument magnitude layer, checks, pops it, and re-checks
    unbounded -- the second check re-encodes *nothing*.
    ``script(bound, pin)`` concatenates the pieces in exactly the order
    :func:`nontermination_constraints` has always produced.
    """

    def __init__(self, program):
        self._program = program
        x = {name: build.IntVar(f"x_{name}") for name in program.variables}
        y = {name: build.IntVar(f"y_{name}") for name in program.variables}
        lam = build.IntVar("lam")
        self._x = x
        self._y = y
        self._lam = lam
        assertions = []

        # Guard at x and at x + y.
        assertions += _guard_assertions(program, x)
        x_plus_y = {
            name: build.Add(x[name], y[name]) for name in program.variables
        }
        assertions += _guard_assertions(program, x_plus_y)

        # step(x) = x + y.
        next_from_x = _step_terms(program, x)
        for name in program.variables:
            assertions.append(build.Eq(next_from_x[name], x_plus_y[name]))

        # step(x + y) = x + y + lam * y  (the nonlinear part).
        next_from_xy = _step_terms(program, x_plus_y)
        for name in program.variables:
            target = build.Add(x[name], y[name], build.Mul(lam, y[name]))
            assertions.append(build.Eq(next_from_xy[name], target))

        # Recession condition: the direction y must not leave the guard
        # polyhedron -- for a guard ``c . v REL 0`` the directional
        # derivative ``c . y`` must keep the relation satisfiable
        # forever. Together with lam >= 1 this makes the argument sound:
        # states follow s_{k+1} = s_k + lam^k * y (y is a lam-eigenvector
        # of the update), and guard(s_k) holds for every k by induction.
        for guard in program.loop.guards:
            derivative = [
                build.Mul(build.IntConst(c), y[name]) if c != 1 else y[name]
                for name, c in guard.coefficients.items()
                if c != 0
            ]
            if not derivative:
                continue
            total = (
                derivative[0] if len(derivative) == 1 else build.Add(*derivative)
            )
            zero = build.IntConst(0)
            if guard.relation in (">=", ">"):
                assertions.append(build.Ge(total, zero))
            elif guard.relation in ("<=", "<"):
                assertions.append(build.Le(total, zero))
            else:
                assertions.append(build.Eq(total, zero))

        assertions.append(build.Ge(lam, build.IntConst(1)))
        # A degenerate all-zero direction would only certify a fixed
        # point; accept it too (it is a genuine nontermination witness),
        # but then the guard must hold at the fixed point, which the
        # constraints above already ensure.
        self.base_assertions = assertions

    def magnitude_layer(self, magnitude_bound):
        """``|x_i|, |y_i|, lam <= B``: the compact-argument box."""
        assertions = []
        for variable in list(self._x.values()) + list(self._y.values()):
            assertions.append(
                build.Ge(variable, build.IntConst(-magnitude_bound))
            )
            assertions.append(
                build.Le(variable, build.IntConst(magnitude_bound))
            )
        assertions.append(build.Le(self._lam, build.IntConst(magnitude_bound)))
        return assertions

    def pin_layer(self):
        """Start the argument at the program's initial state."""
        return [
            build.Eq(self._x[name], build.IntConst(value))
            for name, value in self._program.init.items()
        ]

    def script(self, magnitude_bound=None, pin_initial=False):
        """The full query as one flat script."""
        assertions = list(self.base_assertions)
        if magnitude_bound is not None:
            assertions += self.magnitude_layer(magnitude_bound)
        if pin_initial:
            assertions += self.pin_layer()
        return Script.from_assertions(assertions, logic="QF_NIA")


def nontermination_constraints(program, magnitude_bound=None, pin_initial=False):
    """Build the geometric nontermination constraint for a program.

    Args:
        program: the loop program.
        magnitude_bound: optional bound ``|x_i|, |y_i| <= B`` mirroring
            Ultimate's finite search for compact arguments.
        pin_initial: when True, the argument must start at the program's
            initial state; by default it may start at any guard-satisfying
            state (the lasso-loop search of a real prover, where the stem
            is handled separately).

    Returns:
        A QF_NIA :class:`Script`, satisfiable when a geometric
        nontermination argument (of this restricted shape) exists.
    """
    return NonterminationTemplate(program).script(magnitude_bound, pin_initial)
