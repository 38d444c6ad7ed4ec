"""Tseitin bit-blasting of bitvector terms into CNF.

Each bitvector term maps to a tuple of CNF literals, least significant bit
first; each boolean term maps to a single literal. Gates are cached, so
the shared structure of the term DAG carries over to shared circuitry.

Circuit choices are the textbook ones used by real bit-blasters:

- ripple-carry adders (with constant propagation through the gate cache);
- shift-and-add multipliers; a constant multiplier that is negative, or
  whose non-adjacent form has fewer nonzero digits than its binary form,
  is recoded into signed digits (an adder per +1, a subtractor per -1),
  chosen by its signed value so that a ``bvsmulo`` guard's wider product
  shares its gates;
- division by fresh quotient/remainder witnesses constrained with a
  double-width multiplication, which matches how solvers avoid explicit
  divider circuits;
- barrel shifters;
- subtract-based unsigned comparators, sign-flip wrappers for signed ones;
- overflow predicates without double-width circuits: the signed add/sub
  ones test the top two bits of a (w+1)-bit sum, the unsigned ones a
  carry or borrow, and the multiplication ones (as in Boolector) OR a
  linear leading-bits test over the operands with the top bits of a
  (w+1)-bit product, whose low w bits are the gates of a plain ``bvmul``
  of the same operands.
"""

from repro import telemetry
from repro.errors import SolverError
from repro.sat.cnf import CNF
from repro.smtlib.terms import Op
from repro.smtlib.values import BVValue


def non_adjacent_form(value, width):
    """The signed digits of ``value`` below ``width``, as ``(position,
    digit)`` pairs with ``digit`` in {-1, +1}, lowest position first.

    No two nonzero digits are adjacent, which makes the count of nonzero
    digits minimal and never above the binary popcount of a non-negative
    value. Digits at or above ``width`` are dropped, so the digits sum to
    ``value`` modulo ``2**width``.
    """
    digits = []
    position = 0
    while value and position < width:
        if value & 1:
            digit = 2 - (value & 3)  # +1 when value = 1 (mod 4), else -1
            digits.append((position, digit))
            value -= digit
        value >>= 1
        position += 1
    return digits


class BlastStats:
    """Hot-path gate counters, tracked only while telemetry is enabled.

    These feed the bench harness's throughput accounting (gates blasted,
    gate-cache effectiveness); they never influence solving and are kept
    outside the deterministic result contract, so disabled runs stay
    byte-identical.
    """

    __slots__ = (
        "and_gates",
        "xor_gates",
        "mux_gates",
        "gate_cache_hits",
        "const_folds",
        "block_reuse",
    )

    def __init__(self):
        self.and_gates = 0
        self.xor_gates = 0
        self.mux_gates = 0
        self.gate_cache_hits = 0
        self.const_folds = 0
        # Clauses *not* re-emitted thanks to gate-cache structure sharing:
        # each cache hit reuses the arena block span recorded when the
        # gate was first blasted.
        self.block_reuse = 0

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}


class BitBlaster:
    """Encodes terms into a growing CNF.

    Use :meth:`assert_term` for each top-level assertion, then hand
    ``self.cnf`` to the SAT solver and map its model back with
    :meth:`extract_value`.
    """

    def __init__(self):
        self.cnf = CNF()
        self._true = self.cnf.new_var()
        self.cnf.add_clause([self._true])
        self._bool_cache = {}
        self._bits_cache = {}
        self._var_bools = {}
        self._var_bits = {}
        self._and_cache = {}
        self._or_cache = {}
        self._xor_cache = {}
        # Gate-cache entry -> (first, last) clause *indices* of the block
        # emitted for it. Indices (not arena offsets) survive arena
        # compaction without remapping; resolve offsets on demand via
        # ``cnf.clause_ref``. This is what makes the structure sharing
        # observable: a session check whose gates all hit the caches
        # allocates zero new blocks.
        self._block_spans = {}
        self.stats = BlastStats()

    # -- gate layer ------------------------------------------------------

    @property
    def false_literal(self):
        return -self._true

    def _gate_and(self, a, b):
        # Cache first: hits dominate, and a foldable pair is never cached
        # (only non-constant, distinct operand pairs are emitted), so
        # checking the cache before the const-fold guard cannot change
        # any result.
        key = (a, b) if a < b else (b, a)
        out = self._and_cache.get(key)
        if out is not None:
            if telemetry.enabled:
                self.stats.gate_cache_hits += 1
                self.stats.block_reuse += 3
            return out
        if (
            a == self._true
            or b == self._true
            or a == -self._true
            or b == -self._true
            or a == b
            or a == -b
        ):
            if telemetry.enabled:
                self.stats.const_folds += 1
            if a == self._true:
                return b
            if b == self._true:
                return a
            if a == -self._true or b == -self._true:
                return -self._true
            if a == b:
                return a
            return -self._true  # a == -b
        out = self.cnf.new_var()
        start = len(self.cnf)
        # The const-fold guard above proves a, b, out pairwise distinct
        # and non-complementary: emit without rescanning.
        emit = self.cnf.emit_clause
        emit([-out, a])
        emit([-out, b])
        emit([out, -a, -b])
        self._and_cache[key] = out
        self._block_spans[("and", key)] = (start, len(self.cnf))
        if telemetry.enabled:
            self.stats.and_gates += 1
        return out

    def _gate_or(self, a, b):
        return -self._gate_and(-a, -b)

    def _gate_xor(self, a, b):
        cache_key = (a, b) if a < b else (b, a)
        out = self._xor_cache.get(cache_key)
        if out is not None:
            if telemetry.enabled:
                self.stats.gate_cache_hits += 1
                self.stats.block_reuse += 4
            return out
        if (
            a == self._true
            or b == self._true
            or a == -self._true
            or b == -self._true
            or a == b
            or a == -b
        ):
            if telemetry.enabled:
                self.stats.const_folds += 1
            if a == self._true:
                return -b
            if b == self._true:
                return -a
            if a == -self._true:
                return b
            if b == -self._true:
                return a
            if a == b:
                return -self._true
            return self._true  # a == -b
        out = self.cnf.new_var()
        start = len(self.cnf)
        emit = self.cnf.emit_clause
        emit([-out, a, b])
        emit([-out, -a, -b])
        emit([out, -a, b])
        emit([out, a, -b])
        self._xor_cache[cache_key] = out
        self._block_spans[("xor", cache_key)] = (start, len(self.cnf))
        if telemetry.enabled:
            self.stats.xor_gates += 1
        return out

    def _gate_mux(self, select, if_true, if_false):
        """out = select ? if_true : if_false."""
        if if_true == if_false or select == self._true or select == -self._true:
            if telemetry.enabled:
                self.stats.const_folds += 1
            if if_true == if_false or select == self._true:
                return if_true
            return if_false
        out = self.cnf.new_var()
        if telemetry.enabled:
            self.stats.mux_gates += 1
        self.cnf.add_clause([-out, -select, if_true])
        self.cnf.add_clause([-out, select, if_false])
        self.cnf.add_clause([out, -select, -if_true])
        self.cnf.add_clause([out, select, -if_false])
        return out

    def _gate_and_many(self, literals):
        result = self._true
        for literal in literals:
            result = self._gate_and(result, literal)
        return result

    def _gate_or_many(self, literals):
        result = -self._true
        for literal in literals:
            result = self._gate_or(result, literal)
        return result

    def _const_bits(self, value, width):
        return tuple(
            self._true if (value >> i) & 1 else -self._true for i in range(width)
        )

    # -- arithmetic circuits ----------------------------------------------

    def _full_adder(self, a, b, carry_in):
        axb = self._gate_xor(a, b)
        total = self._gate_xor(axb, carry_in)
        carry_out = self._gate_or(self._gate_and(a, b), self._gate_and(axb, carry_in))
        return total, carry_out

    def _adder(self, left, right, carry_in=None):
        """Ripple-carry add; returns (sum bits, carry out)."""
        carry = carry_in if carry_in is not None else -self._true
        out = []
        for a, b in zip(left, right):
            total, carry = self._full_adder(a, b, carry)
            out.append(total)
        return tuple(out), carry

    def _negate(self, bits):
        inverted = tuple(-b for b in bits)
        one = self._const_bits(1, len(bits))
        total, _ = self._adder(inverted, one)
        return total

    def _subtract(self, left, right):
        """left - right; returns (difference bits, borrow-free carry)."""
        inverted = tuple(-b for b in right)
        return self._adder(left, inverted, carry_in=self._true)

    def _multiplier(self, left, right):
        """Shift-and-add multiplier, truncated to len(left) bits.

        The operand with more constant bits drives the rows, so a
        constant multiplier costs one adder row per set bit. A constant
        whose signed value is negative, or whose non-adjacent form has
        fewer nonzero digits than its binary form, is recoded instead:
        the product sums one shifted copy of the other operand per
        digit, adding the +1 digits, then subtracting the -1 digits, so
        ``-1 * x`` is one negation rather than ``len(left)`` rows.

        The choice reads the constant's signed value, not its bit
        pattern, so the sign-extended (w+1)-bit product of a ``bvsmulo``
        guard recodes into the same digits as the w-bit product beside
        it and reuses its gates. (A negative constant's sign extension
        has one more set bit, so a rule keyed on the pattern's popcount
        can give the two products different rows.)
        """
        width = len(left)

        def constant_bits(bits):
            return sum(1 for b in bits if b == self._true or b == -self._true)

        if constant_bits(left) > constant_bits(right):
            left, right = right, left
        accumulator = self._const_bits(0, width)
        if constant_bits(right) == width:
            value = sum(1 << i for i, b in enumerate(right) if b == self._true)
            value -= (value >> (width - 1)) << width  # the signed value
            digits = non_adjacent_form(value, width)
            if value < 0 or len(digits) < bin(value).count("1"):
                for sign, combine in ((1, self._adder), (-1, self._subtract)):
                    for i, digit in digits:
                        if digit == sign:
                            shifted = tuple(
                                left[j - i] if j >= i else -self._true
                                for j in range(width)
                            )
                            accumulator, _ = combine(accumulator, shifted)
                return accumulator
        for i, control in enumerate(right):
            if control == -self._true:
                continue
            row = tuple(
                self._gate_and(control, left[j - i]) if j >= i else -self._true
                for j in range(width)
            )
            accumulator, _ = self._adder(accumulator, row)
        return accumulator

    def _extend(self, bits, extra, signed):
        if extra <= 0:
            return tuple(bits)
        fill = bits[-1] if signed else -self._true
        return tuple(bits) + tuple(fill for _ in range(extra))

    def _ult(self, left, right):
        """Unsigned less-than via subtraction borrow."""
        _, carry = self._subtract(left, right)
        return -carry  # no carry out => borrow => left < right

    def _slt(self, left, right):
        """Signed less-than: flip the sign bits and compare unsigned."""
        flipped_left = tuple(left[:-1]) + (-left[-1],)
        flipped_right = tuple(right[:-1]) + (-right[-1],)
        return self._ult(flipped_left, flipped_right)

    def _equal(self, left, right):
        return self._gate_and_many(
            [-self._gate_xor(a, b) for a, b in zip(left, right)]
        )

    def _mux_bits(self, select, if_true, if_false):
        return tuple(
            self._gate_mux(select, a, b) for a, b in zip(if_true, if_false)
        )

    def _shift(self, bits, amount_bits, kind):
        """Barrel shifter. kind is 'shl', 'lshr', or 'ashr'."""
        width = len(bits)
        fill = bits[-1] if kind == "ashr" else -self._true
        current = tuple(bits)
        for stage, control in enumerate(amount_bits):
            offset = 1 << stage
            if offset >= width and kind in ("lshr", "ashr"):
                shifted = tuple(fill for _ in range(width))
            elif offset >= width:
                shifted = self._const_bits(0, width)
            elif kind == "shl":
                shifted = tuple(
                    current[i - offset] if i >= offset else -self._true
                    for i in range(width)
                )
            else:
                shifted = tuple(
                    current[i + offset] if i + offset < width else fill
                    for i in range(width)
                )
            current = self._mux_bits(control, shifted, current)
        return current

    def _udivider(self, left, right):
        """Unsigned division via witness variables.

        Introduces fresh quotient/remainder vectors q, r with:
        ``right != 0 -> left = q*right + r (exactly, double width) and
        r < right``; ``right == 0 -> q = ~0 and r = left`` (SMT-LIB).
        Returns (q bits, r bits).
        """
        width = len(left)
        quotient = tuple(self.cnf.new_var() for _ in range(width))
        remainder = tuple(self.cnf.new_var() for _ in range(width))
        zero = self._const_bits(0, width)
        divisor_is_zero = self._equal(right, zero)

        # Double-width product + remainder must equal the dividend exactly.
        q2 = self._extend(quotient, width, signed=False)
        d2 = self._extend(right, width, signed=False)
        r2 = self._extend(remainder, width, signed=False)
        product = self._multiplier(q2, d2)
        total, _ = self._adder(product, r2)
        left2 = self._extend(left, width, signed=False)
        exact = self._equal(total, left2)
        remainder_small = self._ult(remainder, right)
        ok = self._gate_and(exact, remainder_small)

        q_all_ones = self._equal(quotient, self._const_bits((1 << width) - 1, width))
        r_is_left = self._equal(remainder, left)
        zero_case = self._gate_and(q_all_ones, r_is_left)

        constraint = self._gate_mux(divisor_is_zero, zero_case, ok)
        self.cnf.add_clause([constraint])
        return quotient, remainder

    def _abs_bits(self, bits):
        sign = bits[-1]
        return self._mux_bits(sign, self._negate(bits), bits)

    def _sdivider(self, left, right, want):
        """Signed division; ``want`` is 'div', 'rem', or 'mod'."""
        width = len(left)
        left_sign = left[-1]
        right_sign = right[-1]
        abs_left = self._abs_bits(left)
        abs_right = self._abs_bits(right)
        quotient, remainder = self._udivider(abs_left, abs_right)
        result_sign = self._gate_xor(left_sign, right_sign)
        if want == "div":
            # bvsdiv truncates toward zero; by-zero semantics are encoded
            # in _udivider's zero case on magnitudes, then sign-corrected.
            signed_q = self._mux_bits(result_sign, self._negate(quotient), quotient)
            zero = self._const_bits(0, width)
            divisor_zero = self._equal(right, zero)
            # SMT-LIB: bvsdiv x 0 = 1 if x < 0 else -1 (all ones).
            ones = self._const_bits((1 << width) - 1, width)
            one = self._const_bits(1, width)
            zero_result = self._mux_bits(left_sign, one, ones)
            return self._mux_bits(divisor_zero, zero_result, signed_q)
        if want == "rem":
            signed_r = self._mux_bits(left_sign, self._negate(remainder), remainder)
            zero = self._const_bits(0, width)
            divisor_zero = self._equal(right, zero)
            return self._mux_bits(divisor_zero, left, signed_r)
        # smod: sign follows the divisor.
        signed_r = self._mux_bits(left_sign, self._negate(remainder), remainder)
        zero = self._const_bits(0, width)
        r_is_zero = self._equal(signed_r, zero)
        signs_differ = self._gate_xor(left_sign, right_sign)
        adjusted, _ = self._adder(signed_r, right)
        need_adjust = self._gate_and(signs_differ, -r_is_zero)
        modded = self._mux_bits(need_adjust, adjusted, signed_r)
        divisor_zero = self._equal(right, zero)
        return self._mux_bits(divisor_zero, left, modded)

    # -- overflow predicates ----------------------------------------------

    def _leading_bits_overlap(self, left, right):
        """Literal: ``left[i]`` and ``right[j]`` are both set for some
        ``i + j >= len(left)``, i.e. the operands' leading one bits alone
        force a product of at least ``2**len(left)``.

        One suffix-OR chain over ``right``: O(n) gates, not O(n**2).
        """
        width = len(left)
        flagged = -self._true
        tail = -self._true  # OR of right[width - i :]
        for i in range(1, width):
            tail = self._gate_or(tail, right[width - i])
            flagged = self._gate_or(flagged, self._gate_and(left[i], tail))
        return flagged

    def _overflow(self, op, left, right):
        width = len(left)
        if op is Op.BVSADDO or op is Op.BVSSUBO:
            extended_left = self._extend(left, 1, signed=True)
            extended_right = self._extend(right, 1, signed=True)
            if op is Op.BVSADDO:
                total, _ = self._adder(extended_left, extended_right)
            else:
                total, _ = self._subtract(extended_left, extended_right)
            # Overflow iff the (width+1)-bit result does not sign-fit width.
            return self._gate_xor(total[width], total[width - 1])
        if op is Op.BVUADDO:
            _, carry = self._adder(left, right)
            return carry
        if op is Op.BVUSUBO:
            return self._ult(left, right)
        if op is Op.BVSMULO:
            # Magnitude bits below each sign (one's complement of a
            # negative operand): leading bits at i + j >= width-1 overflow.
            sign_left, sign_right = left[-1], right[-1]
            magnitude_left = [self._gate_xor(bit, sign_left) for bit in left[:-1]]
            magnitude_right = [self._gate_xor(bit, sign_right) for bit in right[:-1]]
            leading = self._leading_bits_overlap(magnitude_left, magnitude_right)
            # Otherwise the product fits width+1 bits; it overflows width
            # iff its top two bits differ (at width 1 this folds to a AND b).
            product = self._multiplier(
                self._extend(left, 1, signed=True), self._extend(right, 1, signed=True)
            )
            return self._gate_or(leading, self._gate_xor(product[width], product[width - 1]))
        if op is Op.BVUMULO:
            leading = self._leading_bits_overlap(left, right)
            product = self._multiplier(
                self._extend(left, 1, signed=False), self._extend(right, 1, signed=False)
            )
            return self._gate_or(leading, product[width])
        if op is Op.BVSDIVO:
            int_min = self._equal(left, self._const_bits(1 << (width - 1), width))
            minus_one = self._equal(right, self._const_bits((1 << width) - 1, width))
            return self._gate_and(int_min, minus_one)
        raise SolverError(f"unhandled overflow predicate {op}")

    # -- term translation ---------------------------------------------------

    def blast_bool(self, term):
        """Return the CNF literal equivalent to a boolean term."""
        cached = self._bool_cache.get(term.tid)
        if cached is not None:
            return cached
        literal = self._blast_bool_uncached(term)
        self._bool_cache[term.tid] = literal
        return literal

    def _blast_bool_uncached(self, term):
        op = term.op
        if op is Op.CONST:
            return self._true if term.value else -self._true
        if op is Op.VAR:
            literal = self._var_bools.get(term.name)
            if literal is None:
                literal = self.cnf.new_var()
                self._var_bools[term.name] = literal
            return literal
        if op is Op.NOT:
            return -self.blast_bool(term.args[0])
        if op is Op.AND:
            return self._gate_and_many([self.blast_bool(a) for a in term.args])
        if op is Op.OR:
            return self._gate_or_many([self.blast_bool(a) for a in term.args])
        if op is Op.XOR:
            result = -self._true
            for arg in term.args:
                result = self._gate_xor(result, self.blast_bool(arg))
            return result
        if op is Op.IMPLIES:
            return self._gate_or(-self.blast_bool(term.args[0]), self.blast_bool(term.args[1]))
        if op is Op.ITE:
            return self._gate_mux(
                self.blast_bool(term.args[0]),
                self.blast_bool(term.args[1]),
                self.blast_bool(term.args[2]),
            )
        if op is Op.EQ:
            left, right = term.args
            if left.sort.is_bv:
                return self._equal(self.blast_bits(left), self.blast_bits(right))
            if left.sort.is_bool:
                return -self._gate_xor(self.blast_bool(left), self.blast_bool(right))
            raise SolverError(f"cannot bit-blast equality over sort {left.sort}")
        if op is Op.DISTINCT:
            literals = []
            for i in range(len(term.args)):
                for j in range(i + 1, len(term.args)):
                    literals.append(
                        -self.blast_bool_pair_equal(term.args[i], term.args[j])
                    )
            return self._gate_and_many(literals)
        comparison = self._blast_comparison(term)
        if comparison is not None:
            return comparison
        raise SolverError(f"cannot bit-blast boolean operator {op}")

    def blast_bool_pair_equal(self, left, right):
        if left.sort.is_bv:
            return self._equal(self.blast_bits(left), self.blast_bits(right))
        return -self._gate_xor(self.blast_bool(left), self.blast_bool(right))

    _COMPARISONS = {
        Op.BVULT: ("ult", False),
        Op.BVULE: ("ule", False),
        Op.BVUGT: ("ugt", False),
        Op.BVUGE: ("uge", False),
        Op.BVSLT: ("ult", True),
        Op.BVSLE: ("ule", True),
        Op.BVSGT: ("ugt", True),
        Op.BVSGE: ("uge", True),
    }

    def _blast_comparison(self, term):
        op = term.op
        if op in self._COMPARISONS:
            kind, signed = self._COMPARISONS[op]
            left = self.blast_bits(term.args[0])
            right = self.blast_bits(term.args[1])
            less = self._slt if signed else self._ult
            if kind == "ult":
                return less(left, right)
            if kind == "ugt":
                return less(right, left)
            if kind == "ule":
                return -less(right, left)
            return -less(left, right)
        if op in (
            Op.BVSADDO,
            Op.BVUADDO,
            Op.BVSSUBO,
            Op.BVUSUBO,
            Op.BVSMULO,
            Op.BVUMULO,
            Op.BVSDIVO,
        ):
            left = self.blast_bits(term.args[0])
            right = self.blast_bits(term.args[1])
            return self._overflow(op, left, right)
        if op is Op.BVNEGO:
            bits = self.blast_bits(term.args[0])
            width = len(bits)
            return self._equal(bits, self._const_bits(1 << (width - 1), width))
        return None

    def blast_bits(self, term):
        """Return the literal vector (LSB first) for a bitvector term."""
        cached = self._bits_cache.get(term.tid)
        if cached is not None:
            return cached
        bits = self._blast_bits_uncached(term)
        self._bits_cache[term.tid] = bits
        return bits

    def _blast_bits_uncached(self, term):
        op = term.op
        width = term.sort.width
        if op is Op.CONST:
            return self._const_bits(term.value.unsigned, width)
        if op is Op.VAR:
            bits = self._var_bits.get(term.name)
            if bits is None:
                bits = tuple(self.cnf.new_var() for _ in range(width))
                self._var_bits[term.name] = bits
            return bits
        if op is Op.ITE:
            return self._mux_bits(
                self.blast_bool(term.args[0]),
                self.blast_bits(term.args[1]),
                self.blast_bits(term.args[2]),
            )
        if op is Op.BVNOT:
            return tuple(-b for b in self.blast_bits(term.args[0]))
        if op is Op.BVNEG:
            return self._negate(self.blast_bits(term.args[0]))
        if op is Op.BVABS:
            return self._abs_bits(self.blast_bits(term.args[0]))
        if op is Op.EXTRACT:
            hi, lo = term.payload
            return self.blast_bits(term.args[0])[lo : hi + 1]
        if op is Op.ZERO_EXTEND:
            return self._extend(self.blast_bits(term.args[0]), term.payload, signed=False)
        if op is Op.SIGN_EXTEND:
            return self._extend(self.blast_bits(term.args[0]), term.payload, signed=True)
        if op is Op.CONCAT:
            high = self.blast_bits(term.args[0])
            low = self.blast_bits(term.args[1])
            return tuple(low) + tuple(high)

        left = self.blast_bits(term.args[0])
        right = self.blast_bits(term.args[1])
        if op is Op.BVAND:
            return tuple(self._gate_and(a, b) for a, b in zip(left, right))
        if op is Op.BVOR:
            return tuple(self._gate_or(a, b) for a, b in zip(left, right))
        if op is Op.BVXOR:
            return tuple(self._gate_xor(a, b) for a, b in zip(left, right))
        if op is Op.BVADD:
            total, _ = self._adder(left, right)
            return total
        if op is Op.BVSUB:
            total, _ = self._subtract(left, right)
            return total
        if op is Op.BVMUL:
            return self._multiplier(left, right)
        if op is Op.BVSHL:
            return self._shift_with_saturation(left, right, "shl")
        if op is Op.BVLSHR:
            return self._shift_with_saturation(left, right, "lshr")
        if op is Op.BVASHR:
            return self._shift_with_saturation(left, right, "ashr")
        if op is Op.BVUDIV:
            quotient, _ = self._udivider(left, right)
            zero = self._const_bits(0, width)
            divisor_zero = self._equal(right, zero)
            ones = self._const_bits((1 << width) - 1, width)
            return self._mux_bits(divisor_zero, ones, quotient)
        if op is Op.BVUREM:
            _, remainder = self._udivider(left, right)
            return remainder
        if op is Op.BVSDIV:
            return self._sdivider(left, right, "div")
        if op is Op.BVSREM:
            return self._sdivider(left, right, "rem")
        if op is Op.BVSMOD:
            return self._sdivider(left, right, "mod")
        raise SolverError(f"cannot bit-blast bitvector operator {op}")

    def _shift_with_saturation(self, bits, amount, kind):
        """Barrel shift, saturating for amounts >= width."""
        width = len(bits)
        stages = max(1, (width - 1).bit_length())
        shifted = self._shift(bits, amount[:stages], kind)
        # If any amount bit beyond the staged range is set, or the staged
        # amount itself reaches width, the result saturates.
        too_big = self._gate_or_many(list(amount[stages:]))
        staged_value_ge_width = self._ult(
            self._const_bits(width - 1, stages), tuple(amount[:stages])
        )
        saturate = self._gate_or(too_big, staged_value_ge_width)
        fill = bits[-1] if kind == "ashr" else -self._true
        saturated = tuple(fill for _ in range(width))
        return self._mux_bits(saturate, saturated, shifted)

    # -- top level -------------------------------------------------------

    def assert_term(self, term):
        """Assert a boolean term as a unit constraint."""
        literal = self.blast_bool(term)
        self.cnf.add_clause([literal])

    def block_spans(self):
        """Gate-cache entry -> ``(first, last)`` clause-index span.

        Each entry names the contiguous block of CNF clauses emitted when
        the gate was first blasted; later cache hits reuse the block
        instead of re-emitting it. Spans are clause *indices* into
        ``self.cnf``, so they stay valid across arena compaction; map to
        live arena offsets with ``self.cnf.clause_ref(i)``.
        """
        return dict(self._block_spans)

    def extract_value(self, name, sort, sat_model):
        """Reconstruct a variable's value from a SAT model."""
        if sort.is_bool:
            literal = self._var_bools.get(name)
            if literal is None:
                return False
            return bool(sat_model.get(abs(literal), False)) == (literal > 0)
        bits = self._var_bits.get(name)
        if bits is None:
            return BVValue(0, sort.width)
        value = 0
        for index, literal in enumerate(bits):
            bit = sat_model.get(abs(literal), False)
            if literal < 0:
                bit = not bit
            if bit:
                value |= 1 << index
        return BVValue(value, sort.width)
