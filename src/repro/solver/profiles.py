"""Solver profiles: the reproduction's counterparts of Z3 and CVC5.

A profile selects which conjunction-level engine handles each unbounded
logic, mirroring how the two industrial solvers differ most in their
nonlinear integer strategies:

- ``zorro`` (Z3-like): branch-and-prune NIA with interval contraction --
  strong propagation, moderate search.
- ``corvus`` (CVC5-like): shell-enumeration NIA -- model search whose cost
  grows with solution magnitude, so it times out on many unbounded
  instances that become easy after theory arbitrage (the paper's Table 2
  shows CVC5 gaining thousands of tractability improvements).

Both profiles share the simplex LRA/LIA engines, the ICP NRA engine, and
the bit-blasting bounded back end.
"""

from repro.arith.lia import LiaSolver
from repro.arith.nia import NiaSolver
from repro.arith.nia_enum import NiaEnumSolver
from repro.arith.nra import NraSolver
from repro.errors import SolverError


class SolverProfile:
    """A named selection of theory engines.

    Attributes:
        name: profile identifier (``"zorro"`` or ``"corvus"``).
        description: one-line summary for reports.
    """

    def __init__(self, name, description, nia_engine):
        self.name = name
        self.description = description
        self._nia_engine = nia_engine

    def engine_for(self, logic):
        """The conjunction-engine factory for an unbounded logic."""
        if logic in ("QF_LIA", "QF_LRA"):
            return LiaSolver
        if logic == "QF_NIA":
            return self._nia_engine
        if logic == "QF_NRA":
            return NraSolver
        raise SolverError(f"profile {self.name} has no engine for {logic}")

    def __repr__(self):
        return f"SolverProfile({self.name})"


PROFILES = {
    "zorro": SolverProfile(
        "zorro",
        "branch-and-prune nonlinear engine (Z3-like)",
        NiaSolver,
    ),
    "corvus": SolverProfile(
        "corvus",
        "shell-enumeration nonlinear engine (CVC5-like)",
        NiaEnumSolver,
    ),
}


def get_profile(name):
    """Look up a profile by name.

    Raises:
        SolverError: unknown profile name.
    """
    profile = PROFILES.get(name)
    if profile is None:
        raise SolverError(
            f"unknown solver profile {name!r}; available: {sorted(PROFILES)}"
        )
    return profile
