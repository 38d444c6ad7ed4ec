"""The native SMT solver stack and its public façade.

The paper evaluates against two industrial solvers (Z3 and CVC5); this
package provides the reproduction's counterparts as two *profiles* of one
native stack (see DESIGN.md):

- ``zorro`` -- contraction-based nonlinear engine (Z3-like behaviour);
- ``corvus`` -- enumeration-based nonlinear engine (CVC5-like: weaker on
  unbounded nonlinear input, hence more room for theory arbitrage).

Entry points:

- :func:`solve_script` -- solve any supported script under a profile.
- :class:`Session` -- incremental push/pop sessions over one persistent
  engine.
- :func:`run_script_session` -- replay an incremental SMT-LIB script.
- :class:`SolveResult` -- status + model + deterministic work.
- :data:`PROFILES` -- the registered solver profiles.
"""

from repro.solver.result import SAT, UNKNOWN, UNSAT, SolveResult
from repro.solver.profiles import PROFILES, SolverProfile, get_profile
from repro.solver.facade import solve_script
from repro.solver.session import Session, run_script_session

__all__ = [
    "SAT",
    "UNSAT",
    "UNKNOWN",
    "Session",
    "SolveResult",
    "PROFILES",
    "SolverProfile",
    "get_profile",
    "run_script_session",
    "solve_script",
]
