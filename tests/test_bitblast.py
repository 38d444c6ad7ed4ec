"""Bit-blaster correctness: solver answers must agree with the exact
evaluator on random constraints (brute-force over small widths)."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.bv.bitblast import BitBlaster, non_adjacent_form
from repro.bv.solver import solve_bounded_script
from repro.sat.solver import SAT, UNSAT, SatSolver, solve_cnf
from repro.smtlib import build
from repro.smtlib.evaluator import evaluate
from repro.smtlib.script import Script
from repro.smtlib.terms import Op
from repro.smtlib.values import BVValue

WIDTH = 4

BINARY_OPS = [
    Op.BVADD, Op.BVSUB, Op.BVMUL, Op.BVAND, Op.BVOR, Op.BVXOR,
    Op.BVUDIV, Op.BVSDIV, Op.BVUREM, Op.BVSREM, Op.BVSMOD,
    Op.BVSHL, Op.BVLSHR, Op.BVASHR,
]
COMPARE_OPS = [
    Op.BVULT, Op.BVULE, Op.BVUGT, Op.BVUGE,
    Op.BVSLT, Op.BVSLE, Op.BVSGT, Op.BVSGE,
]
OVERFLOW_OPS = [
    Op.BVSADDO, Op.BVUADDO, Op.BVSSUBO, Op.BVUSUBO,
    Op.BVSMULO, Op.BVUMULO, Op.BVSDIVO,
]


def brute_force(assertion, width=WIDTH):
    """Find a model by exhaustive evaluation, or None."""
    names = sorted(assertion.variables())
    assert len(names) <= 2

    def search(index, assignment):
        if index == len(names):
            return dict(assignment) if evaluate(assertion, assignment) else None
        for value in range(1 << width):
            assignment[names[index]] = BVValue(value, width)
            found = search(index + 1, assignment)
            if found:
                return found
        return None

    return search(0, {})


def bv_terms(draw, depth):
    x = build.BitVecVar("x", WIDTH)
    y = build.BitVecVar("y", WIDTH)
    if depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            return draw(st.sampled_from((x, y)))
        return build.BitVecConst(draw(st.integers(0, (1 << WIDTH) - 1)), WIDTH)
    op = draw(st.sampled_from(BINARY_OPS + [Op.BVNOT, Op.BVNEG, Op.BVABS]))
    if op is Op.BVNOT:
        return build.BVNot(bv_terms(draw, depth - 1))
    if op is Op.BVNEG:
        return build.BVNeg(bv_terms(draw, depth - 1))
    if op is Op.BVABS:
        return build.BVAbs(bv_terms(draw, depth - 1))
    return build.bv_binary(op, bv_terms(draw, depth - 1), bv_terms(draw, depth - 1))


def atoms(draw):
    left = bv_terms(draw, 2)
    right = bv_terms(draw, 2)
    choice = draw(st.integers(0, 3))
    if choice == 0:
        return build.bv_compare(draw(st.sampled_from(COMPARE_OPS)), left, right)
    if choice == 1:
        return build.bv_overflow(draw(st.sampled_from(OVERFLOW_OPS)), left, right)
    if choice == 2:
        return build.Eq(left, right)
    return build.Not(build.Eq(left, right))


class TestAgainstBruteForce:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_solver_agrees_with_exhaustive_evaluation(self, data):
        assertion = build.And(
            *[atoms(data.draw) for _ in range(data.draw(st.integers(1, 2)))]
        )
        script = Script.from_assertions([assertion])
        result = solve_bounded_script(script, max_work=5_000_000)
        expected = brute_force(assertion)
        assert (result.status == "sat") == (expected is not None)
        if result.status == "sat":
            model = {
                name: result.model[name] for name in assertion.variables()
            }
            assert evaluate(assertion, model) is True


def check_against_evaluator(predicate, operands, cases):
    """Blast ``predicate`` once and pin its operands' bits to each tuple
    of unsigned values in ``cases`` with assumption literals: the
    predicate's literal must be satisfiable at the evaluator's value and
    unsatisfiable negated."""
    width = operands[0].sort.width
    blaster = BitBlaster()
    literal = blaster.blast_bool(predicate)
    operand_bits = [blaster.blast_bits(term) for term in operands]
    solver = SatSolver(cnf=blaster.cnf)
    solver.attach()
    for values in cases:
        assumptions = [
            bit if (value >> i) & 1 else -bit
            for value, bits in zip(values, operand_bits)
            for i, bit in enumerate(bits)
        ]
        expected = evaluate(
            predicate,
            {t.name: BVValue(v, width) for t, v in zip(operands, values)},
        )
        wanted = literal if expected else -literal
        assert solver.solve(assumptions=assumptions) == SAT
        model = solver.model()
        assert model[abs(wanted)] == (wanted > 0), (predicate, values)
        assert solver.solve(assumptions=assumptions + [-wanted]) == UNSAT


class TestOverflowPredicates:
    """Every overflow predicate against the evaluator on every input."""

    @pytest.mark.parametrize("op", OVERFLOW_OPS + [Op.BVNEGO], ids=lambda op: op.value)
    @pytest.mark.parametrize("width", range(1, 6))
    def test_exhaustive_against_evaluator(self, op, width):
        x = build.BitVecVar("x", width)
        y = build.BitVecVar("y", width)
        if op is Op.BVNEGO:
            predicate, operands = build.BVNegO(x), (x,)
        else:
            predicate, operands = build.bv_overflow(op, x, y), (x, y)
        check_against_evaluator(
            predicate,
            operands,
            itertools.product(range(1 << width), repeat=len(operands)),
        )

    @pytest.mark.parametrize("width", [8, 16, 32])
    def test_guarded_product_costs_linear_clauses(self, width):
        # The guard's (width+1)-bit product shares the product's gates;
        # a 2*width-bit product would add quadratically many clauses.
        x = build.BitVecVar("x", width)
        y = build.BitVecVar("y", width)
        product_only = BitBlaster()
        product_only.blast_bits(build.BVMul(x, y))
        guarded = BitBlaster()
        guarded.blast_bits(build.BVMul(x, y))
        guarded.blast_bool(build.bv_overflow(Op.BVSMULO, x, y))
        added = len(guarded.cnf.clauses) - len(product_only.cnf.clauses)
        assert added < 40 * width


def clause_count(*terms):
    blaster = BitBlaster()
    for term in terms:
        if term.sort.is_bool:
            blaster.blast_bool(term)
        else:
            blaster.blast_bits(term)
    return len(blaster.cnf.clauses)


class TestConstantProducts:
    """Products by a constant, which the multiplier may recode into
    signed digits: every constant and every operand value against the
    evaluator, the digits themselves, and what the recoding costs."""

    CASES = [
        (op, constant_first)
        for op in (Op.BVMUL, Op.BVSMULO, Op.BVUMULO)
        for constant_first in (True, False)
    ] + [
        (op, False)  # a constant divisor: the witness product's operand
        for op in (Op.BVUDIV, Op.BVUREM, Op.BVSDIV, Op.BVSREM, Op.BVSMOD)
    ]

    @pytest.mark.parametrize(
        "op, constant_first",
        CASES,
        ids=[f"{op.value}-{'cx' if first else 'xc'}" for op, first in CASES],
    )
    @pytest.mark.parametrize("width", range(1, 7))
    def test_exhaustive_against_evaluator(self, op, constant_first, width):
        x = build.BitVecVar("x", width)
        y = build.BitVecVar("y", width)
        for value in range(1 << width):
            constant = build.BitVecConst(value, width)
            args = (constant, x) if constant_first else (x, constant)
            if op in (Op.BVSMULO, Op.BVUMULO):
                check_against_evaluator(
                    build.bv_overflow(op, *args),
                    (x,),
                    ((v,) for v in range(1 << width)),
                )
                continue
            # A bitvector result is checked through ``result = y`` with y
            # pinned to the evaluator's value: forced true, it leaves the
            # result no other value.
            result = build.bv_binary(op, *args)
            check_against_evaluator(
                build.Eq(result, y),
                (x, y),
                (
                    (v, evaluate(result, {"x": BVValue(v, width)}).unsigned)
                    for v in range(1 << width)
                ),
            )

    @given(st.integers(1, 64), st.integers(-(1 << 65), 1 << 65))
    @settings(max_examples=300, deadline=None)
    def test_non_adjacent_form(self, width, value):
        digits = non_adjacent_form(value, width)
        positions = [position for position, _ in digits]
        assert sum(d << p for p, d in digits) % (1 << width) == value % (1 << width)
        assert all(d in (-1, 1) for _, d in digits)
        assert all(0 <= p < width for p in positions)
        assert all(b - a >= 2 for a, b in zip(positions, positions[1:]))
        if value >= 0:
            assert len(digits) <= bin(value).count("1")

    @pytest.mark.parametrize("width", [8, 16, 32])
    def test_minus_one_times_x_is_a_negation(self, width):
        x = build.BitVecVar("x", width)
        minus_one = build.BitVecConst((1 << width) - 1, width)
        assert clause_count(build.BVMul(minus_one, x)) < 8 * width

    def test_guard_shares_the_recoded_product(self):
        # The guard's (w+1)-bit product recodes the same signed value
        # into the same digits, so it reuses the product's gates.
        width = 8
        x = build.BitVecVar("x", width)
        for value in range(1 << width):
            constant = build.BitVecConst(value, width)
            product = build.BVMul(constant, x)
            guard = build.bv_overflow(Op.BVSMULO, constant, x)
            added = clause_count(product, guard) - clause_count(product)
            assert added <= 16 * width, value

    def test_other_products_keep_their_encoding(self):
        width = 16
        x = build.BitVecVar("x", width)
        y = build.BitVecVar("y", width)
        product = build.BVMul(x, y)
        assert clause_count(product) == 2299
        assert clause_count(product, build.bv_overflow(Op.BVSMULO, x, y)) == 2853
        assert clause_count(product, build.bv_overflow(Op.BVUMULO, x, y)) == 2718
        # 3 has as many nonzero signed digits (4 - 1) as set bits: plain rows.
        three = build.BitVecConst(3, width)
        assert clause_count(build.bv_binary(Op.BVUDIV, x, three)) == 952


class TestStructuralOps:
    def test_extract_concat_identity(self):
        v = build.BitVecVar("v", 8)
        recomposed = build.Concat(build.Extract(7, 4, v), build.Extract(3, 0, v))
        script = Script.from_assertions(
            [build.Not(build.Eq(recomposed, v))]
        )
        assert solve_bounded_script(script).status == "unsat"

    def test_sign_extend_preserves_signed_value(self):
        v = build.BitVecVar("v", 4)
        extended = build.SignExtend(4, v)
        # signed(v) == signed(sign_extend(v)) for all v: check one value.
        script = Script.from_assertions(
            [
                build.Eq(v, build.BitVecConst(-3, 4)),
                build.Eq(extended, build.BitVecConst(-3, 8)),
            ]
        )
        assert solve_bounded_script(script).status == "sat"

    def test_zero_extend_is_unsigned(self):
        v = build.BitVecVar("v", 4)
        script = Script.from_assertions(
            [
                build.Eq(v, build.BitVecConst(0b1111, 4)),
                build.Eq(build.ZeroExtend(4, v), build.BitVecConst(15, 8)),
            ]
        )
        assert solve_bounded_script(script).status == "sat"


class TestBooleanLayer:
    def test_bool_vars_and_structure(self):
        p = build.BoolVar("p")
        q = build.BoolVar("q")
        script = Script.from_assertions(
            [build.Xor(p, q), build.Implies(p, q)]
        )
        result = solve_bounded_script(script)
        assert result.status == "sat"
        assert result.model["p"] is False and result.model["q"] is True

    def test_ite_over_bitvectors(self):
        p = build.BoolVar("p")
        v = build.BitVecVar("v", 4)
        chosen = build.Ite(p, build.BitVecConst(3, 4), build.BitVecConst(9, 4))
        script = Script.from_assertions(
            [build.Eq(v, chosen), build.bv_compare(Op.BVUGT, v, build.BitVecConst(5, 4))]
        )
        result = solve_bounded_script(script)
        assert result.status == "sat"
        assert result.model["p"] is False
        assert result.model["v"].unsigned == 9

    def test_distinct_over_bitvectors(self):
        a = build.BitVecVar("a", 2)
        b = build.BitVecVar("b", 2)
        c = build.BitVecVar("c", 2)
        d = build.BitVecVar("d", 2)
        e = build.BitVecVar("e", 2)
        script = Script.from_assertions([build.Distinct(a, b, c, d, e)])
        # Five distinct values do not fit in 2 bits.
        assert solve_bounded_script(script).status == "unsat"


class TestGateCache:
    def test_shared_subterms_share_circuitry(self):
        x = build.BitVecVar("x", 8)
        square = build.BVMul(x, x)
        blaster = BitBlaster()
        blaster.assert_term(build.Eq(square, build.BitVecConst(49, 8)))
        size_once = len(blaster.cnf.clauses)
        blaster.assert_term(
            build.bv_compare(Op.BVULT, square, build.BitVecConst(100, 8))
        )
        # The second assertion reuses the multiplier: only the comparator
        # is added, which is far smaller than the multiplier.
        assert len(blaster.cnf.clauses) - size_once < size_once / 2

    def test_constant_bits_use_no_variables(self):
        blaster = BitBlaster()
        before = blaster.cnf.num_vars
        blaster.blast_bits(build.BitVecConst(123, 8))
        assert blaster.cnf.num_vars == before


class TestBudgets:
    def test_budget_exhaustion_gives_unknown(self):
        x = build.BitVecVar("x", 12)
        y = build.BitVecVar("y", 12)
        z = build.BitVecVar("z", 12)
        hard = build.Eq(
            build.BVMul(build.BVMul(x, y), z), build.BitVecConst(1234, 12)
        )
        script = Script.from_assertions([hard, build.Not(build.Eq(x, build.BitVecConst(1, 12)))])
        result = solve_bounded_script(script, max_work=100)
        assert result.status == "unknown"
