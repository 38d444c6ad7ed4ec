"""Bitvector solving by bit-blasting to CNF.

- :mod:`repro.bv.bitblast` -- Tseitin-encodes the full supported QF_BV
  operator set (arithmetic, division, shifts, comparisons, overflow
  predicates) into CNF over the CDCL core.
- :mod:`repro.bv.solver` -- the end-to-end QF_BV/QF_FP-fixed-point solver:
  one :class:`~repro.bv.solver.BoundedEngine` blasts, solves under
  assumption literals, and reconstructs a model of
  :class:`~repro.smtlib.values.BVValue`.
"""

from repro.bv.bitblast import BitBlaster
from repro.bv.solver import BoundedEngine, solve_bounded_script

__all__ = ["BitBlaster", "BoundedEngine", "solve_bounded_script"]
